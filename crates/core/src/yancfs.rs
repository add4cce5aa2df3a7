//! The `YancFs` façade: typed operations over the `/net` file tree.
//!
//! Everything here goes through ordinary file I/O on the underlying
//! [`Filesystem`] — that is the point of yanc. Applications (and you) can
//! bypass this façade entirely and use `echo`, `mkdir` and `ls` (see the
//! yanc-coreutils crate); the façade just packages the common sequences:
//! create a switch skeleton, commit a flow (write fields, bump `version`),
//! publish a packet-in into every subscriber's buffer, wire up a `peer`
//! symlink.

use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use yanc_openflow::{port_no, Action, Message};
use yanc_packet::MacAddr;
use yanc_vfs::{
    Credentials, DcacheStats, Errno, Event, EventKind, EventMask, Fd, FileType, Filesystem, Mode,
    OpenFlags, VPath, WatchGuard,
};

use crate::error::{YancError, YancResult};
use crate::flowspec::{parse_port_token, FlowSpec};
use crate::hook::YancHook;
use crate::schema::{EVENTS, HOSTS, SWITCHES, VIEWS};

/// A packet-in record as materialized in an app's event buffer
/// (paper §3.5): one directory per message, one file per attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketInRecord {
    /// Which switch sent it.
    pub switch: String,
    /// Ingress port.
    pub in_port: u16,
    /// Switch buffer id, if buffered.
    pub buffer_id: Option<u32>,
    /// `no_match` or `action`.
    pub reason: String,
    /// Frame bytes.
    pub data: Bytes,
}

/// A subscription to packet-in events: a private buffer directory plus a
/// notify watch on it. The watch is a [`WatchGuard`], so dropping the
/// subscription unwatches automatically.
pub struct EventSubscription {
    /// The app name (buffer directory name).
    pub app: String,
    watch: WatchGuard,
    yfs: YancFs,
}

impl EventSubscription {
    /// Block-free poll: collect any packet-ins that have arrived, consuming
    /// them from the buffer.
    pub fn poll(&self) -> Vec<PacketInRecord> {
        let mut names: Vec<String> = self
            .watch
            .receiver()
            .try_iter()
            .filter(|e| e.kind == EventKind::Create)
            .filter_map(|e| e.name)
            .collect();
        names.sort();
        names.dedup();
        self.take(names)
    }

    /// Drain every entry currently in the buffer (even ones whose notify
    /// event was consumed elsewhere).
    pub fn drain_all(&self) -> Vec<PacketInRecord> {
        while self.watch.receiver().try_recv().is_ok() {}
        self.take(self.yfs.list_packet_ins(&self.app).unwrap_or_default())
    }

    /// Read and consume the named entries; unreadable ones are left alone.
    fn take(&self, names: Vec<String>) -> Vec<PacketInRecord> {
        let mut out = Vec::new();
        for name in names {
            if let Ok(rec) = self.yfs.read_packet_in(&self.app, &name) {
                out.push(rec);
                let _ = self.yfs.consume_packet_in(&self.app, &name);
            }
        }
        out
    }

    /// Whether events are queued (level-triggered; free to check).
    pub fn ready(&self) -> bool {
        self.watch.ready()
    }

    /// The watch channel — clone it into a
    /// [`PollSet`](yanc_vfs::poll::PollSet) to sleep on this subscription
    /// alongside other sources.
    pub fn receiver(&self) -> &Receiver<Event> {
        self.watch.receiver()
    }
}

/// One object of a [`YancFs::put_objects_at`] call — paper §3: an object
/// is a directory, an attribute is a file in it.
pub struct Object<F> {
    /// Its directory, relative to the descriptor (empty: the descriptor's
    /// own directory, and field names may be relative paths).
    pub dir: String,
    /// `mkdirat` the directory first (`EEXIST` means rewrite). `false` for
    /// an object whose directory is known to exist, like a counter set.
    pub mkdir: bool,
    /// `fields(fresh)`: the attribute files `(name, contents)` in write
    /// order, given whether the directory is new. A commit file goes last.
    pub fields: F,
}

impl<F> Object<F> {
    /// The object directory `dir`, created if missing.
    pub fn new(dir: &str, fields: F) -> Self {
        Object {
            dir: dir.to_string(),
            mkdir: true,
            fields,
        }
    }
}

/// A host record, `hosts/<name>/{mac,ip,location}` (Figure 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRecord {
    /// The host's MAC address.
    pub mac: MacAddr,
    /// Its IP address, when known.
    pub ip: Option<Ipv4Addr>,
    /// The edge port it was last seen on: `(switch, port)`.
    pub location: Option<(String, u16)>,
}

/// One port's worth of materialization input for
/// [`YancFs::create_ports`]: what a features reply or port description
/// carries, minus the wire framing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortSpec {
    /// OpenFlow port number (`ports/p<n>`).
    pub port_no: u16,
    /// MAC address, already rendered (`aa:bb:...`).
    pub hw_addr: String,
    /// Current speed in kbps.
    pub curr_speed: u32,
    /// Max speed in kbps.
    pub max_speed: u32,
    /// Physical link state (`config.port_status`).
    pub link_up: bool,
    /// Administratively disabled on the switch side.
    pub config_down: bool,
}

/// Typed access to a yanc tree rooted at some mount point (usually `/net`).
#[derive(Clone)]
pub struct YancFs {
    fs: Arc<Filesystem>,
    root: VPath,
    creds: Credentials,
    event_seq: Arc<AtomicU64>,
}

impl YancFs {
    /// Wrap an existing filesystem without initializing anything.
    pub fn new(fs: Arc<Filesystem>, root: &str) -> Self {
        YancFs {
            fs,
            root: VPath::new(root),
            creds: Credentials::root(),
            event_seq: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Create `/net` (with `switches/ hosts/ views/ events/`), register the
    /// semantic hook, and return the façade. Idempotent.
    pub fn init(fs: Arc<Filesystem>, root: &str) -> YancResult<Self> {
        let y = YancFs::new(fs, root);
        y.fs.mkdir_all(y.root.as_str(), Mode::DIR_DEFAULT, &y.creds)?;
        for d in [SWITCHES, HOSTS, VIEWS, EVENTS] {
            y.fs.mkdir_all(y.root.join(d).as_str(), Mode::DIR_DEFAULT, &y.creds)?;
        }
        y.fs.add_hook(Arc::new(YancHook::new(y.root.as_str())));
        Ok(y)
    }

    /// Mount the read-only introspection tree at `<root>/.proc` and scope
    /// the vfs's syscall accounting to this mount's subtree — controller
    /// state *about* the controller is just more files (paper §3.1 taken to
    /// its conclusion, Linux-`/proc`-style). Idempotent.
    pub fn enable_introspection(&self) -> YancResult<()> {
        let scope = self.root.as_str().trim_matches('/').replace('/', "_");
        let scope = if scope.is_empty() {
            "root".into()
        } else {
            scope
        };
        self.fs.add_metrics_scope(&scope, self.root.as_str());
        self.fs.mount_proc(self.proc_dir().as_str())?;
        Ok(())
    }

    /// `<root>/.proc` — the introspection mount point.
    pub fn proc_dir(&self) -> VPath {
        self.root.join(".proc")
    }

    /// The same tree accessed as different credentials (for permission
    /// experiments: each yanc app is its own user).
    pub fn with_creds(&self, creds: Credentials) -> YancFs {
        YancFs {
            fs: self.fs.clone(),
            root: self.root.clone(),
            creds,
            event_seq: self.event_seq.clone(),
        }
    }

    /// The underlying filesystem.
    pub fn filesystem(&self) -> &Arc<Filesystem> {
        &self.fs
    }

    /// Number of lock shards the underlying filesystem spreads its inode
    /// and handle tables over. `1` means the deterministic single-lock
    /// configuration; the default is concurrent. Also readable as the
    /// `.proc/vfs/shards` file once introspection is enabled.
    pub fn shard_count(&self) -> usize {
        self.fs.shard_count()
    }

    /// Dentry-cache counters of the underlying filesystem — the same
    /// numbers the `.proc/vfs/dcache` files expose, handy for control
    /// apps that want to watch their own path-resolution locality.
    pub fn dcache_stats(&self) -> DcacheStats {
        self.fs.dcache_stats()
    }

    /// The mount root.
    pub fn root(&self) -> &VPath {
        &self.root
    }

    /// The credentials operations run as.
    pub fn creds(&self) -> &Credentials {
        &self.creds
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    /// `<root>/switches`.
    pub fn switches_dir(&self) -> VPath {
        self.root.join(SWITCHES)
    }

    /// `<root>/switches/<sw>`.
    pub fn switch_dir(&self, sw: &str) -> VPath {
        self.switches_dir().join(sw)
    }

    /// `<root>/switches/<sw>/flows/<flow>`.
    pub fn flow_dir(&self, sw: &str, flow: &str) -> VPath {
        self.switch_dir(sw).join("flows").join(flow)
    }

    /// `<root>/switches/<sw>/ports/p<no>`.
    pub fn port_dir(&self, sw: &str, port: u16) -> VPath {
        self.switch_dir(sw).join("ports").join(&format!("p{port}"))
    }

    /// `<root>/switches/<sw>/packet_out` — the switch's command file.
    pub fn packet_out_path(&self, sw: &str) -> VPath {
        self.switch_dir(sw).join("packet_out")
    }

    /// `<root>/events`.
    pub fn events_dir(&self) -> VPath {
        self.root.join(EVENTS)
    }

    /// `<root>/views/<view>` (single level).
    pub fn view_dir(&self, view: &str) -> VPath {
        self.root.join(VIEWS).join(view)
    }

    // ------------------------------------------------------------------
    // Objects: a directory of attribute files (paper §3)
    // ------------------------------------------------------------------

    /// The one write primitive behind every object kind: at most one
    /// `mkdirat` per object directory (`EEXIST` means rewrite), then **one**
    /// `write_batch_at` carrying every field of every object of the call in
    /// the order given — so a commit file such as `version` is simply last,
    /// and a watcher sees the identical Create/CloseWrite sequence a shell
    /// writing the same files one by one produces.
    pub fn put_objects_at<F, K, V>(
        &self,
        at: Fd,
        objects: impl IntoIterator<Item = Object<F>>,
    ) -> YancResult<usize>
    where
        F: FnOnce(bool) -> YancResult<Vec<(K, V)>>,
        K: AsRef<str>,
        V: AsRef<[u8]>,
    {
        let mut put: Vec<(String, Vec<(K, V)>)> = Vec::new();
        for o in objects {
            let fresh = o.mkdir
                && match self.fs.mkdirat(at, &o.dir, Mode::DIR_DEFAULT, &self.creds) {
                    Ok(()) => true,
                    Err(e) if e.errno == Errno::EEXIST => false,
                    Err(e) => return Err(e.into()),
                };
            put.push((o.dir, (o.fields)(fresh)?));
        }
        let total = put.iter().map(|(_, fields)| fields.len()).sum();
        let mut paths: Vec<Cow<str>> = Vec::with_capacity(total);
        for (dir, fields) in &put {
            paths.extend(fields.iter().map(|(k, _)| match dir.is_empty() {
                true => Cow::Borrowed(k.as_ref()),
                false => Cow::Owned(format!("{dir}/{}", k.as_ref())),
            }));
        }
        let values = put.iter().flat_map(|(_, fields)| fields);
        let mut batch: Vec<(&str, &[u8])> = Vec::with_capacity(total);
        batch.extend(
            paths
                .iter()
                .zip(values)
                .map(|(p, (_, v))| (p.as_ref(), v.as_ref())),
        );
        if batch.is_empty() {
            return Ok(0);
        }
        Ok(self.fs.write_batch_at(at, &batch, &self.creds)?)
    }

    /// [`Self::put_objects_at`] addressed by path: `open_dir` + it + `close`.
    pub fn put_objects<F, K, V>(
        &self,
        dir: &VPath,
        objects: impl IntoIterator<Item = Object<F>>,
    ) -> YancResult<usize>
    where
        F: FnOnce(bool) -> YancResult<Vec<(K, V)>>,
        K: AsRef<str>,
        V: AsRef<[u8]>,
    {
        self.with_fd(self.fs.open_dir(dir.as_str(), &self.creds)?, |at| {
            self.put_objects_at(at, objects)
        })
    }

    /// Run `f` on a descriptor this call owns, closing it whatever `f` says.
    fn with_fd<T>(&self, fd: Fd, f: impl FnOnce(Fd) -> YancResult<T>) -> YancResult<T> {
        let out = f(fd);
        let _ = self.fs.close(fd, &self.creds);
        out
    }

    /// The entry names of the collection directory `dir` (one `readdir`).
    pub(crate) fn names_in(&self, dir: &VPath) -> YancResult<Vec<String>> {
        let entries = self.fs.readdir(dir.as_str(), &self.creds)?;
        Ok(entries.into_iter().map(|e| e.name).collect())
    }

    /// The one reader, the read twin of [`Self::put_objects_at`]: every
    /// regular file of the object directory `name` under the descriptor
    /// `at`, as `(name, contents)` read as (lossy) UTF-8; subdirectories
    /// such as `counters/` are skipped. `openat_dir` + `readdir_fd` + **one**
    /// `read_batch_at` + `close`: 4 charged syscalls whatever the field
    /// count.
    pub fn get_objects_at(&self, at: Fd, name: &str) -> YancResult<Vec<(String, String)>> {
        let dir = self.fs.openat_dir(at, name, &self.creds)?;
        self.with_fd(dir, |dir| self.read_object(dir))
    }

    /// [`Self::get_objects_at`] addressed by path: `open_dir` + the same
    /// listing and batch + `close`, also 4 charged syscalls.
    pub(crate) fn read_fields(&self, dir: &VPath) -> YancResult<Vec<(String, String)>> {
        let dir = self.fs.open_dir(dir.as_str(), &self.creds)?;
        self.with_fd(dir, |dir| self.read_object(dir))
    }

    /// The body of both reader forms: list the open object directory and
    /// read all of its regular files in one batch.
    fn read_object(&self, dir: Fd) -> YancResult<Vec<(String, String)>> {
        let entries = self.fs.readdir_fd(dir)?.into_iter();
        let names: Vec<String> = entries
            .filter(|e| e.file_type != FileType::Directory)
            .map(|e| e.name)
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let bodies = self.fs.read_batch_at(dir, &refs, &self.creds)?;
        let text = bodies
            .iter()
            .map(|b| String::from_utf8_lossy(b).into_owned());
        Ok(names.into_iter().zip(text).collect())
    }

    // ------------------------------------------------------------------
    // Switches & ports
    // ------------------------------------------------------------------

    /// Create a switch object with its metadata files (normally done by the
    /// driver after the features handshake): one `mkdirat` (the schema hook
    /// builds `counters/`, `flows/` and `ports/`) and one batch — **4
    /// charged syscalls per switch** however many files the schema carries.
    /// Re-running on an existing switch (driver swap, §4.1 re-handshake)
    /// refreshes the files in place.
    #[allow(clippy::too_many_arguments)] // mirrors the features reply, field for field
    pub fn create_switch(
        &self,
        name: &str,
        dpid: u64,
        capabilities: u32,
        actions: u32,
        num_buffers: u32,
        num_tables: u8,
        protocol: Option<&str>,
    ) -> YancResult<()> {
        let fields = |_fresh| {
            let mut f = vec![
                ("id", format!("0x{dpid:016x}")),
                ("capabilities", format!("0x{capabilities:x}")),
                ("actions", format!("0x{actions:x}")),
                ("num_buffers", num_buffers.to_string()),
                ("num_tables", num_tables.to_string()),
            ];
            f.extend(protocol.map(|p| ("protocol", p.to_string())));
            Ok(f)
        };
        self.put_objects(&self.switches_dir(), [Object::new(name, fields)])?;
        Ok(())
    }

    /// Remove a switch (recursive, per the paper).
    pub fn remove_switch(&self, name: &str) -> YancResult<()> {
        Ok(self.fs.rmdir(self.switch_dir(name).as_str(), &self.creds)?)
    }

    /// List switch names.
    pub fn list_switches(&self) -> YancResult<Vec<String>> {
        self.names_in(&self.switches_dir())
    }

    /// Read a switch's datapath id from its `id` file.
    pub fn switch_dpid(&self, name: &str) -> YancResult<u64> {
        let s = self
            .fs
            .read_to_string(self.switch_dir(name).join("id").as_str(), &self.creds)?;
        let t = s.trim().trim_start_matches("0x");
        u64::from_str_radix(t, 16).map_err(|_| YancError::parse("id", s))
    }

    /// Materialize ports of a switch in one sweep: one `mkdirat` per port
    /// (the hook seeds each port's `counters/`) and one batch for all port
    /// files — **ports + 3 charged syscalls** for the whole set; a
    /// hot-plugged port is the one-element case. Admin state
    /// (`config.port_down`) is seeded on fresh ports and preserved on
    /// re-materialization unless the switch reports the port disabled.
    pub fn create_ports(&self, sw: &str, ports: &[PortSpec]) -> YancResult<()> {
        let objects = ports.iter().map(|p| {
            Object::new(&format!("ports/p{}", p.port_no), move |fresh| {
                let status = if p.link_up { "up" } else { "down" };
                let mut f = vec![
                    ("hw_addr", p.hw_addr.clone()),
                    ("curr_speed", p.curr_speed.to_string()),
                    ("max_speed", p.max_speed.to_string()),
                    ("config.port_status", status.to_string()),
                ];
                if fresh || p.config_down {
                    let down = if p.config_down { "1" } else { "0" };
                    f.push(("config.port_down", down.to_string()));
                }
                Ok(f)
            })
        });
        self.put_objects(&self.switch_dir(sw), objects)?;
        Ok(())
    }

    /// List a switch's port numbers.
    pub fn list_ports(&self, sw: &str) -> YancResult<Vec<u16>> {
        let names = self.names_in(&self.switch_dir(sw).join("ports"))?;
        let port_no = |n: &String| n.strip_prefix('p')?.parse().ok();
        let mut out: Vec<u16> = names.iter().filter_map(port_no).collect();
        out.sort_unstable();
        Ok(out)
    }

    /// `echo 1 > config.port_down` — the paper's §3.1 example.
    pub fn set_port_down(&self, sw: &str, port: u16, down: bool) -> YancResult<()> {
        let p = self.port_dir(sw, port).join("config.port_down");
        Ok(self
            .fs
            .write_file(p.as_str(), if down { b"1" } else { b"0" }, &self.creds)?)
    }

    /// Whether a port is administratively down.
    pub fn port_down(&self, sw: &str, port: u16) -> YancResult<bool> {
        let p = self.port_dir(sw, port).join("config.port_down");
        Ok(self.fs.read_to_string(p.as_str(), &self.creds)?.trim() == "1")
    }

    /// Update the link-status file (`config.port_status`): `up`/`down`.
    pub fn set_port_status(&self, sw: &str, port: u16, up: bool) -> YancResult<()> {
        let p = self.port_dir(sw, port).join("config.port_status");
        Ok(self
            .fs
            .write_file(p.as_str(), if up { b"up" } else { b"down" }, &self.creds)?)
    }

    // ------------------------------------------------------------------
    // Topology (peer symlinks, paper §3.3 / §4.3)
    // ------------------------------------------------------------------

    /// Point `sw:port`'s `peer` symlink at `peer_sw:peer_port`. A link that
    /// already points there is left alone — nothing is written and nothing
    /// notified — so rediscovering a converged fabric (LLDP finds every
    /// link from both ends, every round) disturbs no watcher.
    pub fn set_peer(&self, sw: &str, port: u16, peer_sw: &str, peer_port: u16) -> YancResult<()> {
        let link = self.port_dir(sw, port).join("peer");
        let target = self.port_dir(peer_sw, peer_port);
        match self.fs.readlink(link.as_str(), &self.creds) {
            Ok(current) if current == target.as_str() => return Ok(()),
            Err(e) if e.errno == Errno::ENOENT => {}
            _ => self.fs.unlink(link.as_str(), &self.creds)?,
        }
        Ok(self
            .fs
            .symlink(target.as_str(), link.as_str(), &self.creds)?)
    }

    /// Remove a `peer` symlink if present.
    pub fn clear_peer(&self, sw: &str, port: u16) -> YancResult<()> {
        let link = self.port_dir(sw, port).join("peer");
        match self.fs.unlink(link.as_str(), &self.creds) {
            Ok(()) => Ok(()),
            Err(e) if e.errno == yanc_vfs::Errno::ENOENT => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Read `sw:port`'s peer, if linked: `(switch, port)`.
    pub fn peer(&self, sw: &str, port: u16) -> YancResult<Option<(String, u16)>> {
        let link = self.port_dir(sw, port).join("peer");
        let target = match self.fs.readlink(link.as_str(), &self.creds) {
            Ok(t) => t,
            Err(e) if e.errno == yanc_vfs::Errno::ENOENT => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let vp = VPath::new(&target);
        let comps: Vec<&str> = vp.components().collect();
        // …/switches/<sw>/ports/p<no>
        if let [_, .., peer_sw, "ports", port] = comps.as_slice() {
            if let Some(Ok(p)) = port.strip_prefix('p').map(str::parse) {
                return Ok(Some((peer_sw.to_string(), p)));
            }
        }
        Err(YancError::schema(format!("malformed peer target {target}")))
    }

    /// Enumerate all links: `(sw, port, peer_sw, peer_port)` with each link
    /// reported from both ends.
    pub fn topology(&self) -> YancResult<Vec<(String, u16, String, u16)>> {
        let mut out = Vec::new();
        for sw in self.list_switches()? {
            for port in self.list_ports(&sw)? {
                if let Some((psw, pport)) = self.peer(&sw, port)? {
                    out.push((sw.clone(), port, psw, pport));
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Flows (paper §3.4)
    // ------------------------------------------------------------------

    /// Write (or rewrite) a flow and commit it by bumping `version` last:
    /// [`Self::open_flows_dir`] + [`Self::write_flow_at`] + `close`. What a
    /// *shell* pays for the same install, one path-resolved call per
    /// file, is experiment E4.
    pub fn write_flow(&self, sw: &str, name: &str, spec: &FlowSpec) -> YancResult<u64> {
        self.with_fd(self.open_flows_dir(sw)?, |flows| {
            self.write_flow_at(flows, name, spec)
        })
    }

    /// Read a flow directory into a [`FlowSpec`].
    pub fn read_flow(&self, sw: &str, name: &str) -> YancResult<FlowSpec> {
        let files = self.read_fields(&self.flow_dir(sw, name))?;
        FlowSpec::from_files(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    /// The committed version of a flow.
    pub fn flow_version(&self, sw: &str, name: &str) -> YancResult<u64> {
        let p = self.flow_dir(sw, name).join("version");
        parse_version(&self.fs.read_to_string(p.as_str(), &self.creds)?)
    }

    /// Delete a flow (recursive rmdir; the driver sees the Delete event).
    /// The flow-quota slot goes back to the uid that was charged for it —
    /// the directory's owner — whoever removes it (the driver removes
    /// expired flows as root). Looking the owner up costs one `stat`, paid
    /// only while some uid has a flow quota.
    pub fn delete_flow(&self, sw: &str, name: &str) -> YancResult<()> {
        let dir = self.flow_dir(sw, name);
        let rctl = self.fs.rctl();
        let metered = |uid: &u32| rctl.limits(*uid).is_some_and(|l| l.max_flows.is_some());
        let owner = match rctl.limited_uids().iter().any(metered) {
            true => self.fs.stat(dir.as_str(), &self.creds).ok(),
            false => None,
        };
        self.fs.rmdir(dir.as_str(), &self.creds)?;
        if let Some(st) = owner {
            rctl.release_flow(st.uid.0);
        }
        Ok(())
    }

    /// List flow names on a switch.
    pub fn list_flows(&self, sw: &str) -> YancResult<Vec<String>> {
        self.names_in(&self.switch_dir(sw).join("flows"))
    }

    /// Open a descriptor on `<sw>/flows`, paying the prefix resolution
    /// once. Subsequent [`Self::write_flow_at`] calls are O(1) in path
    /// depth: `mkdirat` + one batched write per flow.
    pub fn open_flows_dir(&self, sw: &str) -> YancResult<Fd> {
        Ok(self
            .fs
            .open_dir(self.switch_dir(sw).join("flows").as_str(), &self.creds)?)
    }

    /// Write (or rewrite) the flow `name` through a flows-directory
    /// descriptor: `mkdirat` plus **one** batch that writes every field and
    /// commits `version` last, so a driver watching the flow reacts once, to
    /// the complete update. A *new* flow takes one slot of the caller's
    /// flow quota (`EDQUOT` past it); a rewrite is free, and first removes
    /// the field files the new spec no longer names.
    pub fn write_flow_at(&self, flows: Fd, name: &str, spec: &FlowSpec) -> YancResult<u64> {
        let (rctl, uid) = (self.fs.rctl(), self.creds.uid.0);
        // At quota the directory is not created, so only a rewrite goes on.
        let slot = rctl.charge_flow(uid, name);
        let (mut created, mut version) = (false, 0);
        let fields = |fresh| -> YancResult<Vec<(String, String)>> {
            created = fresh;
            let mut fields = spec.to_files();
            fields.retain(|(k, _)| k != "version");
            // The YancHook seeds `version` = 0 on mkdir.
            version = 1 + match fresh {
                true => 0,
                false => self.prune_flow_at(flows, name, &fields)?,
            };
            fields.push(("version".into(), version.to_string()));
            Ok(fields)
        };
        let flow = Object {
            mkdir: slot.is_ok(),
            ..Object::new(name, fields)
        };
        let put = self.put_objects_at(flows, [flow]);
        if slot.is_ok() && !created {
            rctl.release_flow(uid); // rewrites are free; so is a failed mkdirat
        }
        match (put, slot) {
            (Ok(_), _) => Ok(version),
            (Err(e), Err(quota)) if e.errno() == Some(Errno::ENOENT) => Err(quota.into()),
            (Err(e), _) => Err(e),
        }
    }

    /// The rewrite half of [`Self::write_flow_at`]: through a descriptor
    /// on the flow itself, remove every field file `keep` does not name
    /// (never `version`, `counters/` or the driver's `error`) and return
    /// the committed `version`.
    fn prune_flow_at(&self, flows: Fd, name: &str, keep: &[(String, String)]) -> YancResult<u64> {
        self.with_fd(self.fs.openat_dir(flows, name, &self.creds)?, |dir| {
            for e in self.fs.readdir_fd(dir)? {
                let kept = e.file_type == FileType::Directory
                    || ["version", "error"].contains(&e.name.as_str())
                    || keep.iter().any(|(k, _)| *k == e.name);
                if !kept {
                    self.fs.unlinkat(dir, &e.name, &self.creds)?;
                }
            }
            let flags = OpenFlags::read_only();
            let bytes = self.with_fd(self.fs.openat(dir, "version", flags, &self.creds)?, |v| {
                Ok(self.fs.read(v, 32)?)
            })?;
            parse_version(&String::from_utf8_lossy(&bytes))
        })
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// Write a counter file under an object's `counters/` directory: the
    /// one-entry case of [`Self::write_counters_batch`].
    pub fn write_counter(&self, object_dir: &VPath, name: &str, value: u64) -> YancResult<()> {
        self.write_counters_batch(object_dir, &[(format!("counters/{name}"), value)])?;
        Ok(())
    }

    /// Land many counter values under one object tree in a single charged
    /// write: `open_dir` + one batch + `close` — three syscalls total no
    /// matter how many counters a stats reply carries. Entry paths are
    /// relative to `base_dir` (e.g. `ports/p3/counters/rx_packets`); every
    /// intermediate directory must already exist, which `create_switch`,
    /// `create_ports` and the flow mkdir hook guarantee for the driver.
    pub fn write_counters_batch(
        &self,
        base_dir: &VPath,
        entries: &[(String, u64)],
    ) -> YancResult<usize> {
        if entries.is_empty() {
            return Ok(0);
        }
        let fields = |_fresh| Ok(entries.iter().map(|(p, v)| (p, v.to_string())).collect());
        let set = Object {
            mkdir: false,
            ..Object::new("", fields)
        };
        self.put_objects(base_dir, [set])
    }

    /// Read a counter file (0 when absent).
    pub fn read_counter(&self, object_dir: &VPath, name: &str) -> u64 {
        let p = object_dir.join("counters").join(name);
        self.fs
            .read_to_string(p.as_str(), &self.creds)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Hosts (Figure 2's `hosts/`)
    // ------------------------------------------------------------------

    /// Write (or refresh) the host record `hosts/<name>/`.
    pub fn write_host(&self, name: &str, host: &HostRecord) -> YancResult<()> {
        let fields = |_fresh| {
            let mut f = vec![("mac", host.mac.to_string())];
            f.extend(host.ip.map(|ip| ("ip", ip.to_string())));
            let at = host.location.as_ref();
            f.extend(at.map(|(sw, port)| ("location", format!("{sw}:{port}"))));
            Ok(f)
        };
        self.put_objects(&self.root.join(HOSTS), [Object::new(name, fields)])?;
        Ok(())
    }

    /// Read every host record that parses: `(name, record)`.
    pub fn read_hosts(&self) -> YancResult<Vec<(String, HostRecord)>> {
        let hosts = self
            .fs
            .open_dir(self.root.join(HOSTS).as_str(), &self.creds)?;
        self.with_fd(hosts, |hosts| {
            let mut out = Vec::new();
            for e in self.fs.readdir_fd(hosts)? {
                let files = self.get_objects_at(hosts, &e.name).unwrap_or_default();
                let get = |f: &str| field(&files, f);
                if let Some(mac) = get("mac").and_then(|s| s.parse().ok()) {
                    let ip = get("ip").and_then(|s| s.parse().ok());
                    let location = get("location")
                        .and_then(|s| s.rsplit_once(':'))
                        .and_then(|(sw, p)| Some((sw.to_string(), p.parse().ok()?)));
                    out.push((e.name, HostRecord { mac, ip, location }));
                }
            }
            Ok(out)
        })
    }

    // ------------------------------------------------------------------
    // Packet-in event buffers (paper §3.5)
    // ------------------------------------------------------------------

    /// Subscribe: create `events/<app>/` and watch it.
    pub fn subscribe_events(&self, app: &str) -> YancResult<EventSubscription> {
        let dir = self.events_dir().join(app);
        self.fs
            .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, &self.creds)?;
        // Owner-tagged watch: if this subscriber's process is killed, the
        // supervisor's `Filesystem::reclaim(uid)` finds and removes it.
        let watch = self
            .fs
            .watch(dir.as_str())
            .mask(EventMask::CHILDREN)
            .as_creds(&self.creds)
            .register()?;
        Ok(EventSubscription {
            app: app.to_string(),
            watch,
            yfs: self.clone(),
        })
    }

    /// Publish a packet-in into *every* subscribed app's buffer
    /// ("our current design concurrently feeds packet-in messages to all
    /// applications interested in such events"): `open_dir` on `events/`,
    /// one listing, one `mkdirat` per subscriber, one batch for all of
    /// them, `close`.
    pub fn publish_packet_in(&self, rec: &PacketInRecord) -> YancResult<usize> {
        let mut entry = vec![
            ("switch", rec.switch.clone()),
            ("in_port", rec.in_port.to_string()),
            ("reason", rec.reason.clone()),
        ];
        entry.extend(rec.buffer_id.map(|id| ("buffer_id", id.to_string())));
        entry.push(("data", hex_encode(&rec.data)));
        let events = self.fs.open_dir(self.events_dir().as_str(), &self.creds)?;
        self.with_fd(events, |events| {
            let apps = self.fs.readdir_fd(events)?;
            let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
            let entries = apps.iter().map(|app| {
                Object::new(&format!("{}/{seq:016}", app.name), |_fresh| {
                    Ok(entry.iter().map(|(k, v)| (*k, v.as_str())).collect())
                })
            });
            self.put_objects_at(events, entries)?;
            Ok(apps.len())
        })
    }

    /// List pending packet-in entry names for an app.
    pub fn list_packet_ins(&self, app: &str) -> YancResult<Vec<String>> {
        self.names_in(&self.events_dir().join(app))
    }

    /// Read one packet-in entry.
    pub fn read_packet_in(&self, app: &str, entry: &str) -> YancResult<PacketInRecord> {
        fn number<T: std::str::FromStr>(file: &str, s: &str) -> YancResult<T> {
            s.parse().map_err(|_| YancError::parse(file, s))
        }
        let files = self.read_fields(&self.events_dir().join(app).join(entry))?;
        let need = |f: &str| {
            field(&files, f)
                .ok_or_else(|| YancError::schema(format!("packet-in {entry} has no {f}")))
        };
        Ok(PacketInRecord {
            switch: need("switch")?.to_string(),
            in_port: number("in_port", need("in_port")?)?,
            reason: need("reason")?.to_string(),
            buffer_id: match field(&files, "buffer_id") {
                Some(s) => Some(number("buffer_id", s)?),
                None => None,
            },
            data: hex_decode(need("data")?)
                .map(Bytes::from)
                .ok_or_else(|| YancError::parse("data", "bad hex"))?,
        })
    }

    /// Remove a consumed packet-in entry.
    pub fn consume_packet_in(&self, app: &str, entry: &str) -> YancResult<()> {
        Ok(self.fs.rmdir(
            self.events_dir().join(app).join(entry).as_str(),
            &self.creds,
        )?)
    }

    // ------------------------------------------------------------------
    // Packet-out (the `packet_out` command file of a switch)
    // ------------------------------------------------------------------

    /// Append one `packet_out` command: send the switch buffer `buffer`,
    /// or the frame `data` when there is none, out of the comma-separated
    /// port tokens `out`. This is the one writer of the line format;
    /// [`parse_packet_out_line`] is its reader.
    pub fn packet_out(
        &self,
        sw: &str,
        buffer: Option<u32>,
        in_port: u16,
        out: &str,
        data: &[u8],
    ) -> YancResult<()> {
        let line = match buffer {
            Some(id) => format!("buffer={id} in_port={in_port} out={out}\n"),
            None => format!(
                "buffer=none in_port={in_port} out={out} data={}\n",
                hex_encode(data)
            ),
        };
        let path = self.packet_out_path(sw);
        Ok(self
            .fs
            .append_file(path.as_str(), line.as_bytes(), &self.creds)?)
    }
}

/// Parse one `packet_out` command line, as written by
/// [`YancFs::packet_out`] (or `echo … >> packet_out`):
/// `buffer=<id|none> in_port=<n> out=<tok[,tok…]> [data=<hex>]`.
pub fn parse_packet_out_line(line: &str) -> Option<Message> {
    let mut buffer_id = None;
    let mut in_port = port_no::NONE;
    let mut actions = Vec::new();
    let mut data = Bytes::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        match k {
            "buffer" if v == "none" => {}
            "buffer" => buffer_id = Some(v.parse().ok()?),
            "in_port" => in_port = v.parse().ok()?,
            "out" => {
                for t in v.split(',') {
                    actions.push(Action::out(parse_port_token("out", t).ok()?));
                }
            }
            "data" => data = Bytes::from(hex_decode(v)?),
            _ => return None,
        }
    }
    if buffer_id.is_none() && data.is_empty() {
        return None;
    }
    Some(Message::PacketOut {
        buffer_id,
        in_port,
        actions,
        data,
    })
}

/// The trimmed contents of the attribute file `name` in a reader's result.
pub(crate) fn field<'a>(files: &'a [(String, String)], name: &str) -> Option<&'a str> {
    files.iter().find(|(k, _)| k == name).map(|(_, v)| v.trim())
}

/// The number in a flow's `version` file.
fn parse_version(s: &str) -> YancResult<u64> {
    s.trim().parse().map_err(|_| YancError::parse("version", s))
}

/// Lower-case hex encoding (no external dependency).
pub fn hex_encode(data: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push(HEX[usize::from(b >> 4)] as char);
        s.push(HEX[usize::from(b & 0xf)] as char);
    }
    s
}

/// Inverse of [`hex_encode`]; `None` for odd length or any non-hex byte.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    let bytes = s.as_bytes();
    if bytes.len() % 2 != 0 {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|p| Some(nibble(p[0])? << 4 | nibble(p[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_openflow::{Action, FlowMatch};

    fn yfs() -> YancFs {
        YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap()
    }

    fn port(port_no: u16, hw_addr: &str) -> PortSpec {
        PortSpec {
            port_no,
            hw_addr: hw_addr.into(),
            link_up: true,
            ..Default::default()
        }
    }

    #[test]
    fn init_creates_fig2_top_level() {
        let y = yfs();
        for d in ["switches", "hosts", "views", "events"] {
            assert!(y.filesystem().exists(&format!("/net/{d}"), y.creds()));
        }
    }

    #[test]
    fn switch_lifecycle() {
        let y = yfs();
        y.create_switch("sw1", 0xab, 0x7, 0xfff, 256, 1, None)
            .unwrap();
        assert_eq!(y.list_switches().unwrap(), vec!["sw1"]);
        assert_eq!(y.switch_dpid("sw1").unwrap(), 0xab);
        let ports = [port(1, "02:00:00:00:00:01"), port(2, "02:00:00:00:00:02")];
        y.create_ports("sw1", &ports).unwrap();
        assert_eq!(y.list_ports("sw1").unwrap(), vec![1, 2]);
        y.remove_switch("sw1").unwrap();
        assert!(y.list_switches().unwrap().is_empty());
    }

    #[test]
    fn port_down_via_file_write() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.create_ports("sw1", &[port(2, "02:00:00:00:00:02")])
            .unwrap();
        assert!(!y.port_down("sw1", 2).unwrap());
        y.set_port_down("sw1", 2, true).unwrap();
        assert!(y.port_down("sw1", 2).unwrap());
        // Which is literally a file write, observable as such:
        let raw = y
            .filesystem()
            .read_to_string("/net/switches/sw1/ports/p2/config.port_down", y.creds())
            .unwrap();
        assert_eq!(raw, "1");
    }

    #[test]
    fn flow_commit_bumps_version_and_roundtrips() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let spec = FlowSpec {
            m: FlowMatch {
                tp_dst: Some(22),
                dl_type: Some(0x0800),
                nw_proto: Some(6),
                ..Default::default()
            },
            actions: vec![Action::out(2)],
            priority: 900,
            ..Default::default()
        };
        let v1 = y.write_flow("sw1", "ssh", &spec).unwrap();
        assert_eq!(v1, 1);
        let got = y.read_flow("sw1", "ssh").unwrap();
        assert_eq!(got.m, spec.m);
        assert_eq!(got.actions, spec.actions);
        assert_eq!(got.version, 1);
        // Rewriting bumps the version and removes stale fields.
        let spec2 = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0806),
                ..Default::default()
            },
            actions: vec![Action::out(yanc_openflow::port_no::FLOOD)],
            ..Default::default()
        };
        let v2 = y.write_flow("sw1", "ssh", &spec2).unwrap();
        assert_eq!(v2, 2);
        let got2 = y.read_flow("sw1", "ssh").unwrap();
        assert_eq!(got2.m, spec2.m);
        assert_eq!(got2.m.tp_dst, None); // stale match.tp_dst removed
        y.delete_flow("sw1", "ssh").unwrap();
        assert!(y.list_flows("sw1").unwrap().is_empty());
    }

    #[test]
    fn peer_links_and_topology() {
        let y = yfs();
        for (sw, dp) in [("sw1", 1u64), ("sw2", 2)] {
            y.create_switch(sw, dp, 0, 0, 0, 1, None).unwrap();
            let ports = [port(1, "02:00:00:00:00:01"), port(2, "02:00:00:00:00:02")];
            y.create_ports(sw, &ports).unwrap();
        }
        y.set_peer("sw1", 2, "sw2", 1).unwrap();
        y.set_peer("sw2", 1, "sw1", 2).unwrap();
        assert_eq!(y.peer("sw1", 2).unwrap(), Some(("sw2".into(), 1)));
        assert_eq!(y.peer("sw1", 1).unwrap(), None);
        let topo = y.topology().unwrap();
        assert_eq!(topo.len(), 2);
        assert!(topo.contains(&("sw1".into(), 2, "sw2".into(), 1)));
        y.clear_peer("sw1", 2).unwrap();
        assert_eq!(y.peer("sw1", 2).unwrap(), None);
        y.clear_peer("sw1", 2).unwrap(); // idempotent
    }

    #[test]
    fn packet_in_fanout_to_all_subscribers() {
        let y = yfs();
        let sub_a = y.subscribe_events("router").unwrap();
        let sub_b = y.subscribe_events("monitor").unwrap();
        let rec = PacketInRecord {
            switch: "sw1".into(),
            in_port: 3,
            buffer_id: Some(77),
            reason: "no_match".into(),
            data: Bytes::from_static(b"\x01\x02\xff"),
        };
        let n = y.publish_packet_in(&rec).unwrap();
        assert_eq!(n, 2);
        let got_a = sub_a.poll();
        let got_b = sub_b.poll();
        assert_eq!(got_a, vec![rec.clone()]);
        assert_eq!(got_b, vec![rec]);
        // Consumed: buffers are empty again.
        assert!(y.list_packet_ins("router").unwrap().is_empty());
        assert!(sub_a.poll().is_empty());
    }

    #[test]
    fn drain_all_catches_missed_events() {
        let y = yfs();
        let sub = y.subscribe_events("app").unwrap();
        y.publish_packet_in(&PacketInRecord {
            switch: "sw".into(),
            in_port: 1,
            buffer_id: None,
            reason: "action".into(),
            data: Bytes::from_static(b"zz"),
        })
        .unwrap();
        // Even after notify events are thrown away, drain_all finds entries.
        let got = sub.drain_all();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].buffer_id, None);
    }

    #[test]
    fn counters_via_files() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let dir = y.switch_dir("sw1");
        assert_eq!(y.read_counter(&dir, "rx_packets"), 0);
        y.write_counter(&dir, "rx_packets", 42).unwrap();
        assert_eq!(y.read_counter(&dir, "rx_packets"), 42);
    }

    #[test]
    fn introspection_mount_tracks_the_tree() {
        let y = yfs();
        y.enable_introspection().unwrap();
        y.enable_introspection().unwrap(); // idempotent
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let total: u64 = y
            .filesystem()
            .read_to_string("/net/.proc/vfs/syscalls/total", y.creds())
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(total, y.filesystem().counters().total());
        // The scoped counters saw the switch creation under /net.
        let scoped: u64 = y
            .filesystem()
            .read_to_string("/net/.proc/scopes/net/total", y.creds())
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(scoped > 0 && scoped <= total);
        // The mount is read-only even through the façade's credentials.
        let e = y
            .filesystem()
            .write_file("/net/.proc/vfs/syscalls/total", b"0", y.creds())
            .unwrap_err();
        assert_eq!(e.errno, yanc_vfs::Errno::EROFS);
    }

    #[test]
    fn shard_count_is_exposed_and_introspectable() {
        let y = yfs();
        y.enable_introspection().unwrap();
        assert!(y.shard_count() >= 1);
        let via_proc: usize = y
            .filesystem()
            .read_to_string("/net/.proc/vfs/shards", y.creds())
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(via_proc, y.shard_count());
        // A single-shard filesystem is the deterministic configuration.
        let solo = YancFs::init(Arc::new(Filesystem::builder().shards(1).build()), "/net").unwrap();
        assert_eq!(solo.shard_count(), 1);
    }

    #[test]
    fn hex_roundtrip() {
        let data = [0u8, 1, 0x7f, 0xff, 0xa5];
        assert_eq!(hex_encode(&data), "00017fffa5");
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_decode("A5").unwrap(), [0xa5]);
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
        assert!(hex_decode("+f").is_none());
        // Even length, but byte 2 is inside `é`: not hex, and not a panic.
        assert!(hex_decode("aéb").is_none());
    }

    #[test]
    fn packet_out_line_parsing() {
        let m = parse_packet_out_line("buffer=42 in_port=3 out=flood").unwrap();
        match m {
            Message::PacketOut {
                buffer_id,
                in_port,
                actions,
                ..
            } => {
                assert_eq!(buffer_id, Some(42));
                assert_eq!(in_port, 3);
                assert_eq!(actions, vec![Action::out(port_no::FLOOD)]);
            }
            _ => panic!(),
        }
        let m = parse_packet_out_line("buffer=none in_port=1 out=2,3 data=0102ff").unwrap();
        match m {
            Message::PacketOut {
                buffer_id,
                actions,
                data,
                ..
            } => {
                assert_eq!(buffer_id, None);
                assert_eq!(actions.len(), 2);
                assert_eq!(&data[..], &[1, 2, 0xff]);
            }
            _ => panic!(),
        }
        assert!(parse_packet_out_line("").is_none());
        assert!(parse_packet_out_line("buffer=none in_port=1 out=flood").is_none()); // no data
        assert!(parse_packet_out_line("junk").is_none());
        // What `echo … >> packet_out` can append: rejected, not a panic.
        assert!(parse_packet_out_line("buffer=none in_port=1 out=2 data=aéb").is_none());
    }

    #[test]
    fn packet_out_writes_what_the_parser_reads() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.packet_out("sw1", Some(7), 3, "flood", b"ignored")
            .unwrap();
        y.packet_out("sw1", None, port_no::NONE, "1,2", b"\x01\xff")
            .unwrap();
        let file = y.packet_out_path("sw1");
        let lines = y.filesystem().read_to_string(file.as_str(), y.creds());
        let got: Vec<Message> = lines
            .unwrap()
            .lines()
            .map(|l| parse_packet_out_line(l).unwrap())
            .collect();
        let out = |ports: &[u16]| ports.iter().map(|p| Action::out(*p)).collect();
        let want = [
            Message::PacketOut {
                buffer_id: Some(7),
                in_port: 3,
                actions: out(&[port_no::FLOOD]),
                data: Bytes::new(),
            },
            Message::PacketOut {
                buffer_id: None,
                in_port: port_no::NONE,
                actions: out(&[1, 2]),
                data: Bytes::from_static(b"\x01\xff"),
            },
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn event_entry_with_non_hex_data_is_a_parse_error() {
        let y = yfs();
        let _sub = y.subscribe_events("app").unwrap();
        let rec = PacketInRecord {
            switch: "sw1".into(),
            in_port: 1,
            buffer_id: None,
            reason: "no_match".into(),
            data: Bytes::from_static(b"\x01"),
        };
        y.publish_packet_in(&rec).unwrap();
        let entry = y.list_packet_ins("app").unwrap().remove(0);
        assert_eq!(y.read_packet_in("app", &entry).unwrap(), rec);
        let data = y.events_dir().join("app").join(&entry).join("data");
        y.filesystem()
            .write_file(data.as_str(), "aéb".as_bytes(), y.creds())
            .unwrap();
        let e = y.read_packet_in("app", &entry).unwrap_err();
        assert!(matches!(e, YancError::Parse { .. }), "{e}");
    }

    #[test]
    fn host_records_roundtrip() {
        let y = yfs();
        let full = HostRecord {
            mac: MacAddr::from_seed(1),
            ip: Some("10.0.0.1".parse().unwrap()),
            location: Some(("sw1".into(), 3)),
        };
        let bare = HostRecord {
            mac: MacAddr::from_seed(2),
            ip: None,
            location: None,
        };
        y.write_host("h1", &full).unwrap();
        y.write_host("h2", &bare).unwrap();
        let mut got = y.read_hosts().unwrap();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, [("h1".into(), full.clone()), ("h2".into(), bare)]);
        // A refresh rewrites in place (the host moved).
        let moved = HostRecord {
            location: Some(("sw2".into(), 1)),
            ..full
        };
        y.write_host("h1", &moved).unwrap();
        assert!(y.read_hosts().unwrap().contains(&("h1".into(), moved)));
    }

    #[test]
    fn write_flow_at_matches_write_flow_exactly() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.create_switch("sw2", 2, 0, 0, 0, 1, None).unwrap();
        let spec = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                tp_dst: Some(80),
                ..Default::default()
            },
            actions: vec![Action::out(3)],
            priority: 1000,
            idle_timeout: 30,
            ..Default::default()
        };
        // By path on sw1, through a held descriptor on sw2: one body.
        let v_slow = y.write_flow("sw1", "web", &spec).unwrap();
        let flows = y.open_flows_dir("sw2").unwrap();
        let v_fast = y.write_flow_at(flows, "web", &spec).unwrap();
        assert_eq!(v_slow, v_fast);
        assert_eq!(
            y.read_flow("sw1", "web").unwrap(),
            y.read_flow("sw2", "web").unwrap()
        );
        // The field files are byte-identical across both paths.
        let fs = y.filesystem();
        for e in fs
            .readdir("/net/switches/sw1/flows/web", y.creds())
            .unwrap()
        {
            if e.file_type != yanc_vfs::FileType::Regular {
                continue;
            }
            let a = fs
                .read_to_string(
                    &format!("/net/switches/sw1/flows/web/{}", e.name),
                    y.creds(),
                )
                .unwrap();
            let b = fs
                .read_to_string(
                    &format!("/net/switches/sw2/flows/web/{}", e.name),
                    y.creds(),
                )
                .unwrap();
            assert_eq!(a, b, "field {} differs between paths", e.name);
        }
        // A rewrite through the descriptor bumps the committed version.
        assert_eq!(y.write_flow_at(flows, "web", &spec).unwrap(), v_fast + 1);
        assert_eq!(y.flow_version("sw2", "web").unwrap(), v_fast + 1);
        fs.close(flows, y.creds()).unwrap();
    }

    #[test]
    fn the_reader_costs_four_syscalls_whatever_the_field_count() {
        use yanc_vfs::OpKind::{Close, Open, Openat, Read, Readdir};
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let fs = y.filesystem();
        let fields = [
            ("match.dl_type", "0x0800"),
            ("match.nw_proto", "6"),
            ("match.nw_src", "10.0.0.0/24"),
            ("match.nw_dst", "10.1.0.0/16"),
            ("match.tp_dst", "22"),
            ("priority", "900"),
            ("idle_timeout", "30"),
            ("action.out", "2"),
        ];
        // `version` (seeded by the mkdir) plus 1 or 8 fields.
        for (flow, n) in [("two", 1), ("nine", 8)] {
            let dir = y.flow_dir("sw1", flow);
            fs.mkdir(dir.as_str(), Mode::DIR_DEFAULT, y.creds())
                .unwrap();
            for (k, v) in &fields[..n] {
                let file = dir.join(k);
                fs.write_file(file.as_str(), v.as_bytes(), y.creds())
                    .unwrap();
            }
        }
        let flows = y.open_flows_dir("sw1").unwrap();
        for (flow, files) in [("two", 2), ("nine", 9)] {
            let before = fs.counters().snapshot();
            let spec = y.read_flow("sw1", flow).unwrap();
            let cost = fs.counters().snapshot().since(&before);
            assert_eq!(spec.m.dl_type, Some(0x0800));
            let ops = [Open, Readdir, Read, Close].map(|op| cost.get(op));
            assert_eq!((cost.total(), ops), (4, [1, 1, 1, 1]), "{flow}");
            // The descriptor form: the same four calls, `openat` for `open`.
            let before = fs.counters().snapshot();
            let got = y.get_objects_at(flows, flow).unwrap();
            let cost = fs.counters().snapshot().since(&before);
            assert_eq!(got.len(), files, "counters/ is not a field");
            let ops = [Openat, Readdir, Read, Close].map(|op| cost.get(op));
            assert_eq!((cost.total(), ops), (4, [1, 1, 1, 1]), "{flow}");
        }
        fs.close(flows, y.creds()).unwrap();
    }

    #[test]
    fn rewrite_through_a_descriptor_leaves_exactly_the_new_field_set() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let wide = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                nw_dst: yanc_openflow::Ipv4Prefix::parse("10.1.0.0/16"),
                tp_dst: Some(80),
                ..Default::default()
            },
            actions: vec![Action::out(3)],
            ..Default::default()
        };
        let narrow = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                ..Default::default()
            },
            actions: vec![Action::out(3)],
            ..Default::default()
        };
        let fs = y.filesystem();
        let flows = y.open_flows_dir("sw1").unwrap();
        assert_eq!(y.write_flow_at(flows, "web", &wide).unwrap(), 1);
        // The driver's report survives a rewrite; stale fields do not.
        fs.write_file("/net/switches/sw1/flows/web/error", b"old", y.creds())
            .unwrap();
        let before = fs.counters().snapshot();
        assert_eq!(y.write_flow_at(flows, "web", &narrow).unwrap(), 2);
        let cost = fs.counters().snapshot().since(&before);
        assert_eq!(cost.get(yanc_vfs::OpKind::Unlink), 2, "nw_dst and tp_dst");
        let want = FlowSpec {
            version: 2,
            ..narrow.clone()
        };
        assert_eq!(y.read_flow("sw1", "web").unwrap(), want);
        let mut names: Vec<String> = fs
            .readdir("/net/switches/sw1/flows/web", y.creds())
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        let kept = [
            "action.out",
            "counters",
            "error",
            "match.dl_type",
            "version",
        ];
        assert_eq!(names, kept);
        // A rewrite that keeps the shape pays no unlink at all.
        let before = fs.counters().snapshot();
        assert_eq!(y.write_flow_at(flows, "web", &narrow).unwrap(), 3);
        let cost = fs.counters().snapshot().since(&before);
        assert_eq!((cost.get(yanc_vfs::OpKind::Unlink), cost.total()), (0, 8));
        fs.close(flows, y.creds()).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The primitive's contract, for any field set: what is given is
        // what a listing reads back, byte for byte; the directory is
        // fresh exactly once; the last file given is the last committed.
        #[test]
        fn materialized_object_reads_back_byte_for_byte(
            picks in proptest::collection::vec(
                (0u8..24, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48)),
                0..16,
            ),
        ) {
            let mut fields: Vec<(String, Vec<u8>)> = Vec::new();
            for (i, bytes) in picks {
                let name = format!("attr{i}");
                if !fields.iter().any(|(k, _)| *k == name) {
                    fields.push((name, bytes));
                }
            }
            let y = yfs();
            let fs = y.filesystem();
            fs.mkdir("/net/objects", Mode::DIR_DEFAULT, y.creds()).unwrap();
            let watch = fs.watch("/net/objects").subtree().mask(EventMask::ALL);
            let watch = watch.register().unwrap();
            let mut fresh = Vec::new();
            for _ in 0..2 {
                let object = Object::new("o", |is_fresh| {
                    fresh.push(is_fresh);
                    Ok(fields.clone())
                });
                let wrote = y.put_objects(&VPath::new("/net/objects"), [object]);
                assert_eq!(wrote.unwrap(), fields.len());
            }
            assert_eq!(fresh, [true, false]);
            let mut got: Vec<(String, Vec<u8>)> = fs
                .readdir("/net/objects/o", y.creds())
                .unwrap()
                .into_iter()
                .map(|e| {
                    let bytes = fs.read_file(&format!("/net/objects/o/{}", e.name), y.creds());
                    (e.name, bytes.unwrap())
                })
                .collect();
            got.sort();
            let last_given = fields.last().map(|(k, _)| k.clone());
            fields.sort();
            assert_eq!(got, fields);
            let commits = watch.receiver().try_iter();
            let last_commit = commits.filter(|e| e.kind == EventKind::CloseWrite).last();
            assert_eq!(last_commit.and_then(|e| e.name), last_given);
        }
    }

    #[test]
    fn event_subscription_reports_readiness() {
        let y = yfs();
        let sub = y.subscribe_events("l2").unwrap();
        assert!(!sub.ready());
        y.publish_packet_in(&PacketInRecord {
            switch: "sw1".into(),
            in_port: 1,
            buffer_id: None,
            reason: "no_match".into(),
            data: Bytes::from_static(b"\x01\x02"),
        })
        .unwrap();
        assert!(sub.ready());
        let got = sub.poll();
        assert_eq!(got.len(), 1);
        // Consuming the buffer entries notifies the watch again (the app
        // sees its own deletes); one more empty poll drains those.
        assert!(sub.poll().is_empty());
        assert!(!sub.ready());
    }
}
