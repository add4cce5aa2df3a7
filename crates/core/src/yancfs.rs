//! The `YancFs` façade: typed operations over the `/net` file tree.
//!
//! Everything here goes through ordinary file I/O on the underlying
//! [`Filesystem`] — that is the point of yanc. Applications (and you) can
//! bypass this façade entirely and use `echo`, `mkdir` and `ls` (see the
//! yanc-coreutils crate); the façade just packages the common sequences:
//! create a switch skeleton, commit a flow (write fields, bump `version`),
//! publish a packet-in into every subscriber's buffer, wire up a `peer`
//! symlink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use yanc_vfs::{
    Credentials, DcacheStats, Errno, Event, EventKind, EventMask, Fd, Filesystem, Mode, OpenFlags,
    VPath, WatchGuard,
};

use crate::error::{YancError, YancResult};
use crate::flowspec::FlowSpec;
use crate::hook::YancHook;
use crate::schema::{self, EVENTS, HOSTS, SWITCHES, VIEWS};

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
        let mut out = Vec::new();
        for name in names {
            if let Ok(rec) = self.yfs.read_packet_in(&self.app, &name) {
                out.push(rec);
                let _ = self.yfs.consume_packet_in(&self.app, &name);
            }
        }
        out
    }

    /// Drain every entry currently in the buffer (even ones whose notify
    /// event was consumed elsewhere).
    pub fn drain_all(&self) -> Vec<PacketInRecord> {
        while self.watch.receiver().try_recv().is_ok() {}
        let mut out = Vec::new();
        for name in self.yfs.list_packet_ins(&self.app).unwrap_or_default() {
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

/// One port's worth of materialization input for
/// [`YancFs::create_ports_batch`]: what a features reply or port
/// description carries, minus the wire framing.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// `<root>/events`.
    pub fn events_dir(&self) -> VPath {
        self.root.join(EVENTS)
    }

    /// `<root>/views/<view>` (single level).
    pub fn view_dir(&self, view: &str) -> VPath {
        self.root.join(VIEWS).join(view)
    }

    // ------------------------------------------------------------------
    // Switches & ports
    // ------------------------------------------------------------------

    /// Create a switch object with its metadata files (normally done by the
    /// driver after the features handshake).
    pub fn create_switch(
        &self,
        name: &str,
        dpid: u64,
        capabilities: u32,
        actions: u32,
        num_buffers: u32,
        num_tables: u8,
    ) -> YancResult<()> {
        let dir = self.switch_dir(name);
        self.fs
            .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, &self.creds)?;
        // The hook creates skeleton dirs on mkdir; fill the files.
        for d in schema::SWITCH_DIRS {
            self.fs
                .mkdir_all(dir.join(d).as_str(), Mode::DIR_DEFAULT, &self.creds)?;
        }
        let files: [(&str, String); 5] = [
            ("id", format!("0x{dpid:016x}")),
            ("capabilities", format!("0x{capabilities:x}")),
            ("actions", format!("0x{actions:x}")),
            ("num_buffers", num_buffers.to_string()),
            ("num_tables", num_tables.to_string()),
        ];
        for (f, v) in files {
            self.fs
                .write_file(dir.join(f).as_str(), v.as_bytes(), &self.creds)?;
        }
        Ok(())
    }

    /// Remove a switch (recursive, per the paper).
    pub fn remove_switch(&self, name: &str) -> YancResult<()> {
        Ok(self.fs.rmdir(self.switch_dir(name).as_str(), &self.creds)?)
    }

    /// List switch names.
    pub fn list_switches(&self) -> YancResult<Vec<String>> {
        Ok(self
            .fs
            .readdir(self.switches_dir().as_str(), &self.creds)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }

    /// Read a switch's datapath id from its `id` file.
    pub fn switch_dpid(&self, name: &str) -> YancResult<u64> {
        let s = self
            .fs
            .read_to_string(self.switch_dir(name).join("id").as_str(), &self.creds)?;
        let t = s.trim().trim_start_matches("0x");
        u64::from_str_radix(t, 16).map_err(|_| YancError::parse("id", s))
    }

    /// Create a port directory with its files.
    pub fn create_port(
        &self,
        sw: &str,
        port: u16,
        hw_addr: &str,
        curr_speed: u32,
        max_speed: u32,
    ) -> YancResult<()> {
        let dir = self.port_dir(sw, port);
        self.fs
            .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, &self.creds)?;
        self.fs.mkdir_all(
            dir.join("counters").as_str(),
            Mode::DIR_DEFAULT,
            &self.creds,
        )?;
        self.fs.write_file(
            dir.join("hw_addr").as_str(),
            hw_addr.as_bytes(),
            &self.creds,
        )?;
        self.fs.write_file(
            dir.join("curr_speed").as_str(),
            curr_speed.to_string().as_bytes(),
            &self.creds,
        )?;
        self.fs.write_file(
            dir.join("max_speed").as_str(),
            max_speed.to_string().as_bytes(),
            &self.creds,
        )?;
        // Config files are initialized only if absent: re-materializing a
        // port (e.g. on a PortStatus) must not clobber admin state.
        for (f, v) in [("config.port_down", "0"), ("config.port_status", "up")] {
            if !self.fs.exists(dir.join(f).as_str(), &self.creds) {
                self.fs
                    .write_file(dir.join(f).as_str(), v.as_bytes(), &self.creds)?;
            }
        }
        Ok(())
    }

    /// [`Self::create_switch`] with a fixed syscall budget, independent of
    /// how many metadata files the schema carries: `open_dir` on
    /// `switches/`, one `mkdirat` (the schema hook builds `counters/`,
    /// `flows/` and `ports/`), one `write_batch_at` landing all six files
    /// (including `protocol`), `close` — **4 charged syscalls per switch**
    /// where the path-addressed sequence pays ~10. Re-running on an
    /// existing switch (driver swap, §4.1 re-handshake) refreshes the
    /// files in place.
    #[allow(clippy::too_many_arguments)] // mirrors the features reply, field for field
    pub fn create_switch_batch(
        &self,
        name: &str,
        dpid: u64,
        capabilities: u32,
        actions: u32,
        num_buffers: u32,
        num_tables: u8,
        protocol: &str,
    ) -> YancResult<()> {
        let switches = self
            .fs
            .open_dir(self.switches_dir().as_str(), &self.creds)?;
        match self
            .fs
            .mkdirat(switches, name, Mode::DIR_DEFAULT, &self.creds)
        {
            Ok(()) => {}
            Err(e) if e.errno == Errno::EEXIST => {}
            Err(e) => {
                let _ = self.fs.close(switches, &self.creds);
                return Err(e.into());
            }
        }
        let files: [(String, String); 6] = [
            (format!("{name}/id"), format!("0x{dpid:016x}")),
            (
                format!("{name}/capabilities"),
                format!("0x{capabilities:x}"),
            ),
            (format!("{name}/actions"), format!("0x{actions:x}")),
            (format!("{name}/num_buffers"), num_buffers.to_string()),
            (format!("{name}/num_tables"), num_tables.to_string()),
            (format!("{name}/protocol"), protocol.to_string()),
        ];
        let borrowed: Vec<(&str, &[u8])> = files
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_bytes()))
            .collect();
        let res = self.fs.write_batch_at(switches, &borrowed, &self.creds);
        let _ = self.fs.close(switches, &self.creds);
        res?;
        Ok(())
    }

    /// Materialize every port of a switch in one descriptor-relative
    /// sweep: `open_dir` on the switch, one `mkdirat` per port (the hook
    /// seeds each port's `counters/`), one `write_batch_at` for all port
    /// files, `close` — **ports + 3 charged syscalls** for the whole set,
    /// where [`Self::create_port`] pays ~7 per port. Admin state
    /// (`config.port_down`) is seeded on fresh ports and preserved on
    /// re-materialization unless the switch reports the port disabled —
    /// the same contract as `create_port` + `set_port_down`.
    pub fn create_ports_batch(&self, sw: &str, ports: &[PortSpec]) -> YancResult<()> {
        if ports.is_empty() {
            return Ok(());
        }
        let dir = self
            .fs
            .open_dir(self.switch_dir(sw).as_str(), &self.creds)?;
        let mut entries: Vec<(String, String)> = Vec::with_capacity(ports.len() * 5);
        for p in ports {
            let rel = format!("ports/p{}", p.port_no);
            let fresh = match self.fs.mkdirat(dir, &rel, Mode::DIR_DEFAULT, &self.creds) {
                Ok(()) => true,
                Err(e) if e.errno == Errno::EEXIST => false,
                Err(e) => {
                    let _ = self.fs.close(dir, &self.creds);
                    return Err(e.into());
                }
            };
            entries.push((format!("{rel}/hw_addr"), p.hw_addr.clone()));
            entries.push((format!("{rel}/curr_speed"), p.curr_speed.to_string()));
            entries.push((format!("{rel}/max_speed"), p.max_speed.to_string()));
            entries.push((
                format!("{rel}/config.port_status"),
                if p.link_up { "up" } else { "down" }.to_string(),
            ));
            if fresh || p.config_down {
                entries.push((
                    format!("{rel}/config.port_down"),
                    if p.config_down { "1" } else { "0" }.to_string(),
                ));
            }
        }
        let borrowed: Vec<(&str, &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_bytes()))
            .collect();
        let res = self.fs.write_batch_at(dir, &borrowed, &self.creds);
        let _ = self.fs.close(dir, &self.creds);
        res?;
        Ok(())
    }

    /// List a switch's port numbers.
    pub fn list_ports(&self, sw: &str) -> YancResult<Vec<u16>> {
        let mut out = Vec::new();
        for e in self
            .fs
            .readdir(self.switch_dir(sw).join("ports").as_str(), &self.creds)?
        {
            if let Some(n) = e.name.strip_prefix('p') {
                if let Ok(p) = n.parse() {
                    out.push(p);
                }
            }
        }
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
        if comps.len() >= 4 && comps[comps.len() - 2] == "ports" {
            let peer_sw = comps[comps.len() - 3].to_string();
            if let Some(pn) = comps[comps.len() - 1].strip_prefix('p') {
                if let Ok(p) = pn.parse() {
                    return Ok(Some((peer_sw, p)));
                }
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

    /// Write (or rewrite) a flow and commit it by bumping `version` last.
    /// Drivers watching the flow react only to the version bump, making the
    /// multi-file update atomic from their perspective.
    pub fn write_flow(&self, sw: &str, name: &str, spec: &FlowSpec) -> YancResult<u64> {
        let dir = self.flow_dir(sw, name);
        if !self.fs.exists(dir.as_str(), &self.creds) {
            // A *new* flow consumes one slot of the caller's flow quota
            // (EDQUOT past it); rewrites of an existing flow are free.
            if self.creds.uid.0 != 0 {
                self.fs.rctl().charge_flow(self.creds.uid.0, dir.as_str())?;
            }
            if let Err(e) = self.fs.mkdir(dir.as_str(), Mode::DIR_DEFAULT, &self.creds) {
                if self.creds.uid.0 != 0 {
                    self.fs.rctl().release_flow(self.creds.uid.0);
                }
                return Err(e.into());
            }
        }
        // Current committed version governs the new one.
        let cur = self.flow_version(sw, name).unwrap_or(0);
        let next = cur + 1;

        // Remove stale field files not present in the new spec.
        let fresh = spec.to_files();
        let keep: Vec<&str> = fresh.iter().map(|(k, _)| k.as_str()).collect();
        for e in self.fs.readdir(dir.as_str(), &self.creds)? {
            if e.name == "version" || e.name == "counters" {
                continue;
            }
            if !keep.contains(&e.name.as_str()) {
                self.fs.unlink(dir.join(&e.name).as_str(), &self.creds)?;
            }
        }
        for (file, value) in &fresh {
            if file == "version" {
                continue;
            }
            self.fs
                .write_file(dir.join(file).as_str(), value.as_bytes(), &self.creds)?;
        }
        // Commit.
        self.fs.write_file(
            dir.join("version").as_str(),
            next.to_string().as_bytes(),
            &self.creds,
        )?;
        Ok(next)
    }

    /// Read a flow directory into a [`FlowSpec`].
    pub fn read_flow(&self, sw: &str, name: &str) -> YancResult<FlowSpec> {
        let dir = self.flow_dir(sw, name);
        let mut files: Vec<(String, String)> = Vec::new();
        for e in self.fs.readdir(dir.as_str(), &self.creds)? {
            if e.file_type == yanc_vfs::FileType::Directory {
                continue; // counters/
            }
            let content = self
                .fs
                .read_to_string(dir.join(&e.name).as_str(), &self.creds)?;
            files.push((e.name, content));
        }
        FlowSpec::from_files(files.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    /// The committed version of a flow.
    pub fn flow_version(&self, sw: &str, name: &str) -> YancResult<u64> {
        let p = self.flow_dir(sw, name).join("version");
        let s = self.fs.read_to_string(p.as_str(), &self.creds)?;
        s.trim().parse().map_err(|_| YancError::parse("version", s))
    }

    /// Delete a flow (recursive rmdir; the driver sees the Delete event).
    pub fn delete_flow(&self, sw: &str, name: &str) -> YancResult<()> {
        self.fs
            .rmdir(self.flow_dir(sw, name).as_str(), &self.creds)?;
        if self.creds.uid.0 != 0 {
            self.fs.rctl().release_flow(self.creds.uid.0);
        }
        Ok(())
    }

    /// List flow names on a switch.
    pub fn list_flows(&self, sw: &str) -> YancResult<Vec<String>> {
        Ok(self
            .fs
            .readdir(self.switch_dir(sw).join("flows").as_str(), &self.creds)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }

    // ------------------------------------------------------------------
    // Flows, descriptor-relative (the E21 fast path)
    // ------------------------------------------------------------------

    /// Open a descriptor on `<sw>/flows`, paying the prefix resolution
    /// once. Subsequent [`Self::write_flow_at`] calls are O(1) in path
    /// depth: `mkdirat` + one batched write instead of ~3 + #fields
    /// path-resolved syscalls per flow.
    pub fn open_flows_dir(&self, sw: &str) -> YancResult<Fd> {
        Ok(self
            .fs
            .open_dir(self.switch_dir(sw).join("flows").as_str(), &self.creds)?)
    }

    /// [`Self::write_flow`] through a flows-directory descriptor: `mkdirat`
    /// plus **one** `write_batch_at` submission that writes every field and
    /// commits `version` last — the driver sees the identical
    /// Create/CloseWrite sequence as the path-addressed slow path.
    ///
    /// One caveat, stated rather than hidden: a *rewrite* that removes
    /// match/action fields leaves the stale field files in place (there is
    /// no `unlinkat` yet); use [`Self::write_flow`] when a rewrite changes
    /// the flow's shape. Fresh installs — the install-storm case the paper's
    /// §8.1 worries about — are exact.
    pub fn write_flow_at(&self, flows: Fd, name: &str, spec: &FlowSpec) -> YancResult<u64> {
        // Quota first, exactly as the slow path: a *new* flow costs a slot.
        if self.creds.uid.0 != 0 {
            self.fs.rctl().charge_flow(self.creds.uid.0, name)?;
        }
        let fresh_dir = match self.fs.mkdirat(flows, name, Mode::DIR_DEFAULT, &self.creds) {
            Ok(()) => true,
            Err(e) if e.errno == Errno::EEXIST => {
                if self.creds.uid.0 != 0 {
                    self.fs.rctl().release_flow(self.creds.uid.0); // rewrites are free
                }
                false
            }
            Err(e) => {
                if self.creds.uid.0 != 0 {
                    self.fs.rctl().release_flow(self.creds.uid.0);
                }
                return Err(e.into());
            }
        };
        // The YancHook seeds `version` = 0 on mkdir; a pre-existing flow's
        // committed version is read through the descriptor (openat + read).
        let next = if fresh_dir {
            1
        } else {
            let vfd = self.fs.openat(
                flows,
                &format!("{name}/version"),
                OpenFlags::read_only(),
                &self.creds,
            )?;
            let bytes = self.fs.read(vfd, 32)?;
            self.fs.close(vfd, &self.creds)?;
            let s = String::from_utf8_lossy(&bytes);
            let cur: u64 = s
                .trim()
                .parse()
                .map_err(|_| YancError::parse("version", s.to_string()))?;
            cur + 1
        };
        let fields = spec.to_files();
        let mut entries: Vec<(String, Vec<u8>)> = fields
            .iter()
            .filter(|(k, _)| k.as_str() != "version")
            .map(|(k, v)| (format!("{name}/{k}"), v.as_bytes().to_vec()))
            .collect();
        // `version` last: its CloseWrite is the commit the driver reacts to.
        entries.push((format!("{name}/version"), next.to_string().into_bytes()));
        let borrowed: Vec<(&str, &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        self.fs.write_batch_at(flows, &borrowed, &self.creds)?;
        Ok(next)
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// Write a counter file under an object's `counters/` directory.
    pub fn write_counter(&self, object_dir: &VPath, name: &str, value: u64) -> YancResult<()> {
        let p = object_dir.join("counters").join(name);
        Ok(self
            .fs
            .write_file(p.as_str(), value.to_string().as_bytes(), &self.creds)?)
    }

    /// Land many counter values under one object tree in a single charged
    /// write: `open_dir` + one [`yanc_vfs::Filesystem::write_batch_at`] +
    /// `close` — three syscalls total no matter how many counters a stats
    /// reply carries (compare [`Self::write_counter`]: one charged write
    /// *per counter*). Entry paths are relative to `base_dir` (e.g.
    /// `ports/p3/counters/rx_packets`); every intermediate directory must
    /// already exist, which `create_switch`/`create_port` and the flow
    /// mkdir hook guarantee for the driver's uses.
    pub fn write_counters_batch(
        &self,
        base_dir: &VPath,
        entries: &[(String, u64)],
    ) -> YancResult<usize> {
        if entries.is_empty() {
            return Ok(0);
        }
        let dir = self.fs.open_dir(base_dir.as_str(), &self.creds)?;
        let rendered: Vec<(&str, Vec<u8>)> = entries
            .iter()
            .map(|(p, v)| (p.as_str(), v.to_string().into_bytes()))
            .collect();
        let borrowed: Vec<(&str, &[u8])> =
            rendered.iter().map(|(p, b)| (*p, b.as_slice())).collect();
        let res = self.fs.write_batch_at(dir, &borrowed, &self.creds);
        let _ = self.fs.close(dir, &self.creds);
        Ok(res?)
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
    /// applications interested in such events").
    pub fn publish_packet_in(&self, rec: &PacketInRecord) -> YancResult<usize> {
        let apps: Vec<String> = self
            .fs
            .readdir(self.events_dir().as_str(), &self.creds)?
            .into_iter()
            .map(|e| e.name)
            .collect();
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        for app in &apps {
            let dir = self.events_dir().join(app).join(&format!("{seq:016}"));
            self.fs
                .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, &self.creds)?;
            self.fs.write_file(
                dir.join("switch").as_str(),
                rec.switch.as_bytes(),
                &self.creds,
            )?;
            self.fs.write_file(
                dir.join("in_port").as_str(),
                rec.in_port.to_string().as_bytes(),
                &self.creds,
            )?;
            self.fs.write_file(
                dir.join("reason").as_str(),
                rec.reason.as_bytes(),
                &self.creds,
            )?;
            if let Some(id) = rec.buffer_id {
                self.fs.write_file(
                    dir.join("buffer_id").as_str(),
                    id.to_string().as_bytes(),
                    &self.creds,
                )?;
            }
            self.fs.write_file(
                dir.join("data").as_str(),
                hex_encode(&rec.data).as_bytes(),
                &self.creds,
            )?;
        }
        Ok(apps.len())
    }

    /// List pending packet-in entry names for an app.
    pub fn list_packet_ins(&self, app: &str) -> YancResult<Vec<String>> {
        Ok(self
            .fs
            .readdir(self.events_dir().join(app).as_str(), &self.creds)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }

    /// Read one packet-in entry.
    pub fn read_packet_in(&self, app: &str, entry: &str) -> YancResult<PacketInRecord> {
        let dir = self.events_dir().join(app).join(entry);
        let read = |f: &str| self.fs.read_to_string(dir.join(f).as_str(), &self.creds);
        let switch = read("switch")?.trim().to_string();
        let in_port = read("in_port")?
            .trim()
            .parse()
            .map_err(|_| YancError::parse("in_port", "bad number"))?;
        let reason = read("reason")?.trim().to_string();
        let buffer_id = match read("buffer_id") {
            Ok(s) => Some(
                s.trim()
                    .parse()
                    .map_err(|_| YancError::parse("buffer_id", s.clone()))?,
            ),
            Err(_) => None,
        };
        let data =
            hex_decode(read("data")?.trim()).ok_or_else(|| YancError::parse("data", "bad hex"))?;
        Ok(PacketInRecord {
            switch,
            in_port,
            buffer_id,
            reason,
            data: Bytes::from(data),
        })
    }

    /// Remove a consumed packet-in entry.
    pub fn consume_packet_in(&self, app: &str, entry: &str) -> YancResult<()> {
        Ok(self.fs.rmdir(
            self.events_dir().join(app).join(entry).as_str(),
            &self.creds,
        )?)
    }
}

/// Lower-case hex encoding (no external dependency).
pub fn hex_encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_encode`].
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_openflow::{Action, FlowMatch};

    fn yfs() -> YancFs {
        YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap()
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
        y.create_switch("sw1", 0xab, 0x7, 0xfff, 256, 1).unwrap();
        assert_eq!(y.list_switches().unwrap(), vec!["sw1"]);
        assert_eq!(y.switch_dpid("sw1").unwrap(), 0xab);
        y.create_port("sw1", 1, "02:00:00:00:00:01", 1_000_000, 10_000_000)
            .unwrap();
        y.create_port("sw1", 2, "02:00:00:00:00:02", 1_000_000, 10_000_000)
            .unwrap();
        assert_eq!(y.list_ports("sw1").unwrap(), vec![1, 2]);
        y.remove_switch("sw1").unwrap();
        assert!(y.list_switches().unwrap().is_empty());
    }

    #[test]
    fn port_down_via_file_write() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
        y.create_port("sw1", 2, "02:00:00:00:00:02", 0, 0).unwrap();
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
        y.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
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
            y.create_switch(sw, dp, 0, 0, 0, 1).unwrap();
            y.create_port(sw, 1, "02:00:00:00:00:01", 0, 0).unwrap();
            y.create_port(sw, 2, "02:00:00:00:00:02", 0, 0).unwrap();
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
        y.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
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
        y.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
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
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }

    #[test]
    fn write_flow_at_matches_write_flow_exactly() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
        y.create_switch("sw2", 2, 0, 0, 0, 1).unwrap();
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
        // Slow path on sw1, fd fast path on sw2.
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
