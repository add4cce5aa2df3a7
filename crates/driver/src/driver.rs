//! The OpenFlow device driver (paper §4.1).
//!
//! "Analogous to device drivers in operating systems, device drivers in
//! yanc are a thin component which speaks the programming protocol
//! supported by a collection of switches." A driver instance is bound to
//! *one* protocol version — OpenFlow 1.0 or 1.3 — and translates between
//! the switch's control channel and the `/net` file tree:
//!
//! * **fs → switch**: a committed flow (its `version` file bumped) becomes
//!   a FlowMod; a removed `version` (the flow directory deleted, or the file
//!   itself deleted or renamed away) becomes a strict delete, unless the
//!   same drained batch commits it again; writing `config.port_down` becomes a
//!   PortMod; appending to the switch's `packet_out` file becomes a
//!   PacketOut. The driver hears exactly those through one watch, and reads
//!   flows and `packet_out` through descriptors it holds (DESIGN.md §13).
//! * **switch → fs**: the features handshake materializes the switch and
//!   port directories; packet-ins fan out into every app's `events/`
//!   buffer; PortStatus updates port files; FlowRemoved removes the flow
//!   directory; periodic stats land in `counters/` files.
//!
//! Capability gaps surface as files too: a flow needing `goto_table` under
//! a 1.0 driver gets an `error` file in its directory instead of silently
//! failing — applications watch for it like everything else.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use libyanc::{FlowChannel, FlowOp};
use yanc::{FlowSpec, PacketInRecord, PortSpec, SchemaPos, YancFs};
use yanc_dataplane::ControlHandle;
use yanc_openflow::{
    decode, encode, multipart, FlowMod, FlowModCommand, Message, PacketInReason, PortDesc,
    Reassembler, StatsReply, StatsRequest, SwitchFeatures, Version,
};
use yanc_openflow::{flow_mod_flags, port_no, FrameCodec};
use yanc_vfs::{
    Errno, Event, EventKind, EventMask, Fd, FileStat, OpenFlags, Timestamp, WatchGuard,
};

/// Driver lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverState {
    /// Waiting for the switch's HELLO.
    AwaitHello,
    /// HELLO exchanged; waiting for the features reply.
    AwaitFeatures,
    /// Waiting for the 1.3 PortDesc multipart reply.
    AwaitPorts,
    /// Fully operational.
    Ready,
    /// Version negotiation failed — the supervisor re-attaches a driver
    /// speaking a version the switch offered (see
    /// [`Runtime::reattach_failed`](crate::Runtime::reattach_failed)).
    Failed,
}

impl DriverState {
    /// Lower-case name as rendered in `.proc/drivers/<sw>/state`.
    pub fn name(self) -> &'static str {
        match self {
            DriverState::AwaitHello => "await_hello",
            DriverState::AwaitFeatures => "await_features",
            DriverState::AwaitPorts => "await_ports",
            DriverState::Ready => "ready",
            DriverState::Failed => "failed",
        }
    }

    fn from_code(code: u8) -> DriverState {
        match code {
            1 => DriverState::AwaitFeatures,
            2 => DriverState::AwaitPorts,
            3 => DriverState::Ready,
            4 => DriverState::Failed,
            _ => DriverState::AwaitHello,
        }
    }
}

/// Shared, lock-free running totals for one driver, surfaced through the
/// `/net/.proc/drivers/<switch>` introspection files. Kept in an `Arc` so
/// proc render closures outlive driver borrows.
#[derive(Debug, Default)]
pub struct DriverStats {
    /// Control messages encoded and sent to the switch.
    pub msgs_tx: AtomicU64,
    /// Control messages decoded from the switch.
    pub msgs_rx: AtomicU64,
    /// FlowMod messages sent (install + delete).
    pub flow_mods: AtomicU64,
    /// Packet-ins published into app event buffers.
    pub packet_ins: AtomicU64,
    /// Flows re-installed from the fs at attach time (driver swap/restart).
    pub resyncs: AtomicU64,
    /// Whether the handshake completed.
    pub ready: AtomicBool,
    /// Mirror of [`DriverState`] (as `DriverState as u8`) for proc render
    /// closures, which outlive driver borrows.
    pub state_code: AtomicU64,
    /// Control-channel faults applied (frames dropped or reordered).
    pub faults: AtomicU64,
}

impl DriverStats {
    fn record_tx(&self, is_flow_mod: bool) {
        self.msgs_tx.fetch_add(1, Ordering::Relaxed);
        if is_flow_mod {
            self.flow_mods.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The add-`FlowMod` a committed [`FlowSpec`] denotes (flags left clear).
fn flow_mod(spec: &FlowSpec) -> FlowMod {
    let mut fm = FlowMod::add(spec.m, spec.priority, spec.actions.clone());
    fm.idle_timeout = spec.idle_timeout;
    fm.hard_timeout = spec.hard_timeout;
    fm.cookie = spec.cookie;
    fm.goto_table = spec.goto_table;
    fm
}

/// The strict delete removing exactly the switch entry `spec` installed.
fn delete_strict(spec: &FlowSpec) -> Message {
    let mut fm = FlowMod::add(spec.m, spec.priority, vec![]);
    fm.command = FlowModCommand::DeleteStrict;
    Message::FlowMod(fm)
}

/// Readiness probe for one driver: how much work is queued across its
/// three input channels (switch bytes, fastpath ring, fs watch). An
/// event-driven scheduler reads it to skip idle drivers without running
/// them — the check reads channel lengths only and costs zero simulated
/// syscalls, exactly like the kernel consulting its run queue.
pub struct DriverReadiness {
    rx: Receiver<Bytes>,
    fastpath: Mutex<Option<FlowChannel>>,
    watch: Mutex<Option<Receiver<Event>>>,
}

impl DriverReadiness {
    /// Queued work units (frames + flow ops + fs events). Non-zero means
    /// the driver's next `run_once` will make progress.
    pub fn pending(&self) -> usize {
        let mut n = self.rx.len();
        if let Some(ch) = &*self.fastpath.lock() {
            n += ch.pending();
        }
        if let Some(rx) = &*self.watch.lock() {
            n += rx.len();
        }
        n
    }
}

/// One driver instance: one switch, one protocol version.
pub struct OpenFlowDriver {
    /// The protocol version this driver speaks.
    pub version: Version,
    yfs: YancFs,
    handle: ControlHandle,
    codec: FrameCodec,
    state: DriverState,
    /// Switch directory name (assigned after the features reply).
    pub switch_name: Option<String>,
    features: Option<SwitchFeatures>,
    fs_watch: Option<WatchGuard>,
    /// Held descriptor on the switch's `flows/` directory: every flow sync
    /// reads through it.
    flows: Option<Fd>,
    /// Held descriptor on the switch's `packet_out` file, drained with
    /// `pread` from `packet_out_offset` (bytes consumed so far);
    /// `packet_out_mtime` is the file's mtime when they were.
    packet_out: Option<Fd>,
    packet_out_offset: u64,
    packet_out_mtime: Option<Timestamp>,
    installed: HashMap<String, (u64, FlowSpec)>,
    /// Flow names the driver itself is deleting (suppresses echo).
    self_deletes: HashSet<String>,
    /// Cached port-down state to suppress PortMod echo loops.
    port_down: HashMap<u16, bool>,
    next_xid: u32,
    /// Optional libyanc fastpath (paper §8.1): flow ops arriving here skip
    /// the file system entirely.
    fastpath: Option<FlowChannel>,
    stats: Arc<DriverStats>,
    /// The version the switch announced in its HELLO (kept even on failure,
    /// so the supervisor can pick a compatible replacement driver).
    offered_version: Option<u8>,
    /// Pending deterministic control-channel fault: drop the next N
    /// switch→driver frames.
    fault_drop: u32,
    /// Pending fault: reorder the next pair of switch→driver frames.
    fault_reorder: bool,
    /// Merges multipart stats segments back into whole replies.
    reassembler: Reassembler,
    /// The probe [`OpenFlowDriver::pending`] reads (see [`DriverReadiness`]).
    readiness: Arc<DriverReadiness>,
}

impl OpenFlowDriver {
    /// Create a driver for `version` over an attached control channel and
    /// start the handshake.
    pub fn new(version: Version, yfs: YancFs, handle: ControlHandle) -> Self {
        let readiness = Arc::new(DriverReadiness {
            rx: handle.rx.clone(),
            fastpath: Mutex::new(None),
            watch: Mutex::new(None),
        });
        let mut d = OpenFlowDriver {
            version,
            yfs,
            handle,
            codec: FrameCodec::new(),
            state: DriverState::AwaitHello,
            switch_name: None,
            features: None,
            fs_watch: None,
            flows: None,
            packet_out: None,
            packet_out_offset: 0,
            packet_out_mtime: None,
            installed: HashMap::new(),
            self_deletes: HashSet::new(),
            port_down: HashMap::new(),
            next_xid: 100,
            fastpath: None,
            stats: Arc::new(DriverStats::default()),
            offered_version: None,
            fault_drop: 0,
            fault_reorder: false,
            reassembler: Reassembler::new(),
            readiness,
        };
        d.send(&Message::Hello);
        d
    }

    /// This driver's readiness probe, for a scheduler that checks it
    /// without the driver's lock.
    pub fn readiness(&self) -> Arc<DriverReadiness> {
        self.readiness.clone()
    }

    /// Queued work units; non-zero means [`OpenFlowDriver::run_once`] will
    /// make progress (see [`DriverReadiness::pending`]).
    pub fn pending(&self) -> usize {
        self.readiness.pending()
    }

    /// Attach a libyanc [`FlowChannel`]; ops pushed there are drained on
    /// every [`OpenFlowDriver::run_once`] and translated straight to
    /// FlowMods — zero simulated syscalls.
    pub fn attach_fastpath(&mut self, ch: FlowChannel) {
        *self.readiness.fastpath.lock() = Some(ch.clone());
        self.fastpath = Some(ch);
        if self.switch_name.is_some() {
            // Already registered in `.proc`: refresh so the ring counters
            // show up under `.proc/drivers/<sw>/fastpath`.
            self.register_proc();
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DriverState {
        self.state
    }

    /// The protocol version the switch announced in its HELLO, if seen.
    pub fn offered_version(&self) -> Option<u8> {
        self.offered_version
    }

    /// The datapath id of the switch this driver's control channel serves.
    pub fn dpid(&self) -> u64 {
        self.handle.dpid
    }

    /// Schedule a deterministic control-channel fault: drop the next
    /// `drop_frames` switch→driver frames and/or reorder the next pair.
    /// Applied (and counted in `.proc/drivers/<sw>/faults`) on the next
    /// [`OpenFlowDriver::run_once`].
    pub fn inject_channel_fault(&mut self, drop_frames: u32, reorder: bool) {
        self.fault_drop += drop_frames;
        self.fault_reorder |= reorder;
    }

    fn set_state(&mut self, s: DriverState) {
        self.state = s;
        self.stats
            .state_code
            .store(s as u8 as u64, Ordering::Relaxed);
        self.stats
            .ready
            .store(s == DriverState::Ready, Ordering::Relaxed);
    }

    /// Whether the driver finished its handshake.
    pub fn ready(&self) -> bool {
        self.state == DriverState::Ready
    }

    /// This driver's running totals (shared with proc render closures).
    pub fn stats(&self) -> Arc<DriverStats> {
        self.stats.clone()
    }

    /// Expose this driver's state under `<root>/.proc/drivers/<switch>/`.
    /// Before the switch is known (including the Failed state, where the
    /// features reply never arrives) the entry is named after the dpid.
    /// A no-op when no proc mount covering the tree exists (registration
    /// simply fails `EINVAL` and is ignored).
    pub fn register_proc(&self) {
        let sw = match &self.switch_name {
            Some(s) => s.clone(),
            None => format!("dpid{:x}", self.handle.dpid),
        };
        let fs = self.yfs.filesystem();
        let base = self.yfs.proc_dir().join("drivers").join(&sw);
        let version = self.version;
        let _ = fs.proc_file(base.join("protocol").as_str(), move || {
            format!("{version}\n")
        });
        type Getter = fn(&DriverStats) -> u64;
        let counters: [(&str, Getter); 6] = [
            ("msgs_tx", |s| s.msgs_tx.load(Ordering::Relaxed)),
            ("msgs_rx", |s| s.msgs_rx.load(Ordering::Relaxed)),
            ("flow_mods", |s| s.flow_mods.load(Ordering::Relaxed)),
            ("packet_ins", |s| s.packet_ins.load(Ordering::Relaxed)),
            ("resyncs", |s| s.resyncs.load(Ordering::Relaxed)),
            ("faults", |s| s.faults.load(Ordering::Relaxed)),
        ];
        for (file, get) in counters {
            let st = self.stats.clone();
            let _ = fs.proc_file(base.join(file).as_str(), move || format!("{}\n", get(&st)));
        }
        let st = self.stats.clone();
        let _ = fs.proc_file(base.join("ready").as_str(), move || {
            format!("{}\n", st.ready.load(Ordering::Relaxed) as u8)
        });
        let st = self.stats.clone();
        let _ = fs.proc_file(base.join("state").as_str(), move || {
            format!(
                "{}\n",
                DriverState::from_code(st.state_code.load(Ordering::Relaxed) as u8).name()
            )
        });
        if let Some(ch) = &self.fastpath {
            let ch = ch.clone();
            let _ = fs.proc_file(base.join("fastpath").as_str(), move || {
                format!("{}\n", ch.stats().render())
            });
        }
    }

    fn xid(&mut self) -> u32 {
        self.next_xid += 1;
        self.next_xid
    }

    fn send(&mut self, msg: &Message) -> bool {
        let xid = self.xid();
        match encode(self.version, msg, xid) {
            Ok(b) => {
                self.stats.record_tx(matches!(msg, Message::FlowMod(_)));
                self.handle.tx.send(b).is_ok()
            }
            Err(_) => false,
        }
    }

    /// Process pending work (switch messages + fs events), non-blocking.
    /// Returns whether anything was done.
    pub fn run_once(&mut self) -> bool {
        let mut worked = false;
        // Switch → driver bytes, with any scheduled channel fault applied
        // first (each switch send is one framed chunk, so chunk granularity
        // IS frame granularity).
        let mut chunks: Vec<Bytes> = Vec::new();
        while let Ok(bytes) = self.handle.rx.try_recv() {
            chunks.push(bytes);
        }
        if self.fault_reorder && chunks.len() >= 2 {
            chunks.swap(0, 1);
            self.fault_reorder = false;
            self.stats.faults.fetch_add(1, Ordering::Relaxed);
        }
        while self.fault_drop > 0 && !chunks.is_empty() {
            chunks.remove(0);
            self.fault_drop -= 1;
            self.stats.faults.fetch_add(1, Ordering::Relaxed);
        }
        for bytes in chunks {
            worked = true;
            self.codec.feed(&bytes);
            while let Ok(Some(raw)) = self.codec.next_frame() {
                // HELLO carries the switch's best version; anything else is
                // decoded at face value (frames are version-tagged).
                if raw.msg_type == 0 {
                    self.on_hello(raw.version);
                    continue;
                }
                // Stats replies may arrive segmented (REPLY_MORE): feed
                // them through the reassembler and dispatch only whole
                // replies. A malformed stream (type switch, forged flag)
                // drops the partial reply; the next poll starts clean.
                if multipart::is_stats_reply(&raw) {
                    self.stats.msgs_rx.fetch_add(1, Ordering::Relaxed);
                    match multipart::decode_part(&raw).and_then(|part| self.reassembler.push(part))
                    {
                        Ok(Some(rep)) => self.on_message(Message::StatsReply(rep)),
                        Ok(None) => {} // more segments on the way
                        Err(_) => self.reassembler.reset(),
                    }
                    continue;
                }
                if let Ok(msg) = decode(&raw) {
                    self.stats.msgs_rx.fetch_add(1, Ordering::Relaxed);
                    self.on_message(msg);
                }
            }
        }
        // Fastpath ops (shared-memory ring, no fs involvement).
        if self.ready() {
            let ops = match &self.fastpath {
                Some(ch) => ch.drain(),
                None => Vec::new(),
            };
            for op in ops {
                worked = true;
                match op {
                    FlowOp::Install { name, spec, .. } => {
                        if let Some((_, old)) = self.installed.get(&name) {
                            if old.m != spec.m || old.priority != spec.priority {
                                self.send(&delete_strict(old));
                            }
                        }
                        // No SEND_FLOW_REM here, unlike `sync_flow`: the
                        // flag asks the switch to report expiry so the
                        // flow's *directory* can be removed, and a ring
                        // flow has none. The FlowRemoved handler would park
                        // the name in `self_deletes` and swallow the Delete
                        // event of a later fs flow of the same name.
                        self.send(&Message::FlowMod(flow_mod(&spec)));
                        // Recorded at version 0 so a later fs-side commit of
                        // the same name (version >= 1) supersedes it.
                        self.installed.insert(name, (0, spec));
                    }
                    FlowOp::Delete { name, .. } => {
                        if let Some((_, old)) = self.installed.remove(&name) {
                            self.send(&delete_strict(&old));
                        }
                    }
                }
            }
        }
        // fs → driver events, handled as one drained batch.
        let events: Vec<Event> = match &self.fs_watch {
            Some(w) => w.receiver().try_iter().collect(),
            None => Vec::new(),
        };
        worked |= !events.is_empty();
        self.on_fs_events(events);
        worked
    }

    /// Let go of what this driver holds in `/net`: its watch and its two
    /// descriptors. Runs on drop, and the runtime calls it when it detaches
    /// a driver, so nothing waits for the last reference to go.
    pub(crate) fn release(&mut self) {
        self.fs_watch = None;
        *self.readiness.watch.lock() = None;
        let fs = self.yfs.filesystem();
        for fd in [self.flows.take(), self.packet_out.take()]
            .into_iter()
            .flatten()
        {
            let _ = fs.close(fd, self.yfs.creds());
        }
    }

    // ------------------------------------------------------------------
    // Switch-side handlers
    // ------------------------------------------------------------------

    fn on_hello(&mut self, switch_version: u8) {
        if self.state != DriverState::AwaitHello {
            return;
        }
        self.offered_version = Some(switch_version);
        if switch_version < self.version.wire() {
            // The switch cannot speak our version: this driver is the wrong
            // one (the admin runs one driver per protocol version). Publish
            // the failure so the supervisor can see it and re-attach.
            self.set_state(DriverState::Failed);
            self.register_proc();
            return;
        }
        self.set_state(DriverState::AwaitFeatures);
        // Ask for whole packets on misses (the default 128-byte truncation
        // would cut DHCP payloads short), then learn the switch's shape.
        self.send(&Message::SetConfig {
            miss_send_len: 0xffff,
        });
        self.send(&Message::FeaturesRequest);
    }

    fn on_message(&mut self, msg: Message) {
        match msg {
            Message::FeaturesReply(f) => self.on_features(f),
            Message::StatsReply(StatsReply::PortDesc(ports)) => self.on_port_desc(ports),
            Message::StatsReply(rep) => self.on_stats(rep),
            Message::PacketIn {
                buffer_id,
                in_port,
                reason,
                data,
                ..
            } => {
                if let Some(sw) = self.switch_name.clone() {
                    self.stats.packet_ins.fetch_add(1, Ordering::Relaxed);
                    let _ = self.yfs.publish_packet_in(&PacketInRecord {
                        switch: sw,
                        in_port,
                        buffer_id,
                        reason: match reason {
                            PacketInReason::NoMatch => "no_match".into(),
                            PacketInReason::Action => "action".into(),
                        },
                        data,
                    });
                }
            }
            Message::PortStatus { desc, .. } => self.on_port_status(desc),
            Message::FlowRemoved { m, priority, .. } => {
                // Find the fs flow matching the removed entry and drop it.
                let name = self
                    .installed
                    .iter()
                    .find(|(_, (_, s))| s.m == m && s.priority == priority)
                    .map(|(n, _)| n.clone());
                if let (Some(name), Some(sw)) = (name, self.switch_name.clone()) {
                    self.self_deletes.insert(name.clone());
                    let _ = self.yfs.delete_flow(&sw, &name);
                    self.installed.remove(&name);
                }
            }
            Message::EchoRequest(data) => {
                self.send(&Message::EchoReply(data));
            }
            Message::Error { err_type, code, .. } => {
                if let Some(sw) = self.switch_name.clone() {
                    let file = self.yfs.switch_dir(&sw).join("last_error");
                    self.put_file(&file, &format!("type={err_type} code={code}"));
                }
            }
            _ => {}
        }
    }

    fn on_features(&mut self, f: SwitchFeatures) {
        if self.state != DriverState::AwaitFeatures {
            return;
        }
        let name = format!("sw{:x}", f.datapath_id);
        // Skeleton mkdir + one batch carrying every metadata file
        // (including `protocol`) — a fixed 4-syscall budget per switch,
        // which is what keeps data-center fabrics (§8) affordable to
        // bring up.
        let _ = self.yfs.create_switch(
            &name,
            f.datapath_id,
            f.capabilities,
            f.actions,
            f.n_buffers,
            f.n_tables,
            Some(&self.version.to_string()),
        );
        self.switch_name = Some(name.clone());
        let ports = f.ports.clone();
        self.features = Some(f);
        if self.version == Version::V1_0 {
            self.materialize_ports(&ports);
            self.finish_setup();
        } else {
            self.set_state(DriverState::AwaitPorts);
            self.send(&Message::StatsRequest(StatsRequest::PortDesc));
        }
    }

    fn on_port_desc(&mut self, ports: Vec<PortDesc>) {
        if self.state != DriverState::AwaitPorts {
            return;
        }
        self.materialize_ports(&ports);
        self.finish_setup();
    }

    fn materialize_ports(&mut self, ports: &[PortDesc]) {
        let sw = match &self.switch_name {
            Some(s) => s.clone(),
            None => return,
        };
        // One descriptor-relative sweep for the whole port set.
        let specs: Vec<PortSpec> = ports.iter().map(port_spec).collect();
        let _ = self.yfs.create_ports(&sw, &specs);
        for p in ports {
            self.port_down.insert(p.port_no, p.config_down);
        }
    }

    fn finish_setup(&mut self) {
        let sw = self.switch_name.clone().expect("features seen");
        let fs = self.yfs.filesystem().clone();
        let creds = self.yfs.creds();
        // Create (or empty) the packet_out interface file before watching:
        // the open and write a `write_file` makes, whose descriptor is kept
        // for draining instead of closed.
        let seed = OpenFlags {
            read: true,
            ..OpenFlags::write_create()
        };
        let packet_out = self.yfs.packet_out_path(&sw);
        self.packet_out = fs.open(packet_out.as_str(), seed, creds).ok();
        if let Some(fd) = self.packet_out {
            let _ = fs.write(fd, b"");
        }
        self.flows = self.yfs.open_flows_dir(&sw).ok();
        // One watch, filtered before anything is queued: a flow's commit
        // file and the two command files, written, removed or renamed.
        // Every write in the system is tested against every watch, so a
        // driver keeps exactly one.
        use EventKind::{CloseWrite, Delete, MovedFrom, MovedTo};
        let kinds = [CloseWrite, Delete, MovedFrom, MovedTo].map(EventMask::only);
        let commits = kinds.into_iter().fold(EventMask(0), EventMask::or);
        let watch = fs.watch(self.yfs.switch_dir(&sw).as_str()).subtree();
        let watch = watch.mask(commits).named("version").named("packet_out");
        self.fs_watch = watch.named("config.port_down").register().ok();
        *self.readiness.watch.lock() = self.fs_watch.as_ref().map(|w| w.receiver().clone());
        self.set_state(DriverState::Ready);
        self.stats.ready.store(true, Ordering::Relaxed);
        // Install any flows that already exist in the tree (e.g. written
        // before the driver attached, or by a remote controller node).
        let listing = self.flows.and_then(|flows| fs.readdir_fd(flows).ok());
        for e in listing.unwrap_or_default() {
            self.stats.resyncs.fetch_add(1, Ordering::Relaxed);
            self.sync_flow(&sw, &e.name, false);
        }
        self.register_proc();
    }

    fn on_port_status(&mut self, desc: PortDesc) {
        let sw = match &self.switch_name {
            Some(s) => s.clone(),
            None => return,
        };
        // Create the port if it's new (hotplug), then reflect state.
        let dir = self.yfs.port_dir(&sw, desc.port_no);
        if !self.yfs.filesystem().exists(dir.as_str(), self.yfs.creds()) {
            let _ = self.yfs.create_ports(&sw, &[port_spec(&desc)]);
        }
        let _ = self.yfs.set_port_status(&sw, desc.port_no, !desc.link_down);
        let cached = self.port_down.get(&desc.port_no).copied();
        if cached != Some(desc.config_down) {
            self.port_down.insert(desc.port_no, desc.config_down);
            let _ = self.yfs.set_port_down(&sw, desc.port_no, desc.config_down);
        }
    }

    fn on_stats(&mut self, rep: StatsReply) {
        let sw = match &self.switch_name {
            Some(s) => s.clone(),
            None => return,
        };
        // Every counter in the (reassembled) reply lands through a single
        // open + write_batch_at + close against the switch directory —
        // three charged syscalls per stats delivery, independent of the
        // number of ports or flows reported.
        let mut entries: Vec<(String, u64)> = Vec::new();
        match rep {
            StatsReply::Port(ports) => {
                for p in &ports {
                    // Ports never materialized in the fs can't land
                    // counters (the per-file path just failed silently);
                    // the port_down cache tracks exactly the materialized
                    // set, so the check is free.
                    if !self.port_down.contains_key(&p.port_no) {
                        continue;
                    }
                    let base = format!("ports/p{}/counters", p.port_no);
                    entries.push((format!("{base}/rx_packets"), p.rx_packets));
                    entries.push((format!("{base}/tx_packets"), p.tx_packets));
                    entries.push((format!("{base}/rx_bytes"), p.rx_bytes));
                    entries.push((format!("{base}/tx_bytes"), p.tx_bytes));
                    entries.push((format!("{base}/rx_dropped"), p.rx_dropped));
                    entries.push((format!("{base}/tx_dropped"), p.tx_dropped));
                }
            }
            StatsReply::Flow(flows) => {
                let mut total_pkts = 0u64;
                let mut total_bytes = 0u64;
                for fstat in &flows {
                    total_pkts += fstat.packet_count;
                    total_bytes += fstat.byte_count;
                    // Version >= 1 means the flow exists as a directory in
                    // the fs; fastpath-only flows (version 0) have nowhere
                    // to land per-flow counters.
                    let name = self
                        .installed
                        .iter()
                        .find(|(_, (v, s))| {
                            *v >= 1 && s.m == fstat.m && s.priority == fstat.priority
                        })
                        .map(|(n, _)| n.clone());
                    if let Some(name) = name {
                        let base = format!("flows/{name}/counters");
                        entries.push((format!("{base}/packets"), fstat.packet_count));
                        entries.push((format!("{base}/bytes"), fstat.byte_count));
                        entries.push((format!("{base}/duration_sec"), fstat.duration_sec.into()));
                    }
                }
                entries.push(("counters/flow_packets".to_string(), total_pkts));
                entries.push(("counters/flow_bytes".to_string(), total_bytes));
            }
            _ => return,
        }
        let dir = self.yfs.switch_dir(&sw);
        let _ = self.yfs.write_counters_batch(&dir, &entries);
    }

    // ------------------------------------------------------------------
    // fs-side handlers
    // ------------------------------------------------------------------

    /// One drained batch of watch events. A flow is synced at most once
    /// per batch between its removals: the first commit event already
    /// reads the state every later one in the batch announces. A sync that
    /// ends in an `error` report settles nothing, so a later commit event
    /// retries it. A removal withdraws the flow, unless the batch commits
    /// it again later (`mv tmp version`, a batch rewrite): then the flow
    /// was replaced, and is re-installed from the new `version` without
    /// first leaving the switch.
    fn on_fs_events(&mut self, events: Vec<Event>) {
        let Some(sw) = self.switch_name.clone() else {
            return;
        };
        let removal = |ev: &Event| matches!(ev.kind, EventKind::Delete | EventKind::MovedFrom);
        let flows: Vec<Option<String>> = events.iter().map(|ev| self.version_of(ev)).collect();
        let mut last_commit: HashMap<&str, usize> = HashMap::new();
        for (i, (ev, flow)) in events.iter().zip(&flows).enumerate() {
            if let (false, Some(flow)) = (removal(ev), flow) {
                last_commit.insert(flow, i);
            }
        }
        let mut synced: HashSet<&str> = HashSet::new();
        let mut replaced: HashSet<&str> = HashSet::new();
        let mut drained = false;
        for (i, ev) in events.iter().enumerate() {
            if let Some(flow) = flows[i].as_deref() {
                if !removal(ev) {
                    let replace = replaced.remove(flow);
                    if !synced.contains(flow) && self.sync_flow(&sw, flow, replace) {
                        synced.insert(flow);
                    }
                    continue;
                }
                synced.remove(flow);
                if self.self_deletes.remove(flow) {
                    continue; // our own FlowRemoved-driven cleanup
                }
                if last_commit.get(flow).is_some_and(|&c| c > i) {
                    replaced.insert(flow);
                } else {
                    self.withdraw(flow);
                }
                continue;
            }
            match (ev.kind, ev.name.as_deref()) {
                (EventKind::CloseWrite, Some("packet_out")) if !drained => {
                    drained = true;
                    self.drain_packet_out(&sw);
                }
                (EventKind::CloseWrite, Some("config.port_down")) => {
                    // …/ports/p<no>/config.port_down
                    let port_dir = ev.path.parent();
                    let port = port_dir.file_name().and_then(|n| n.strip_prefix('p'));
                    if let Some(pn) = port.and_then(|n| n.parse::<u16>().ok()) {
                        self.on_port_down_write(&sw, pn);
                    }
                }
                _ => {}
            }
        }
    }

    /// The flow whose `version` file `ev` is about, if it is one.
    fn version_of(&self, ev: &Event) -> Option<String> {
        if ev.name.as_deref() != Some("version") {
            return None;
        }
        match yanc::classify(self.yfs.root(), &ev.path) {
            SchemaPos::FlowFile { flow, .. } => Some(flow),
            _ => None,
        }
    }

    /// A flow's `version` is gone — its directory was removed, or the file
    /// itself: take the entry it denoted off the switch.
    fn withdraw(&mut self, flow: &str) {
        if let Some((_, spec)) = self.installed.remove(flow) {
            self.send(&delete_strict(&spec));
        }
    }

    /// Port admin state: push a changed `config.port_down` as a PortMod.
    fn on_port_down_write(&mut self, sw: &str, pn: u16) {
        let Ok(down) = self.yfs.port_down(sw, pn) else {
            return;
        };
        if self.port_down.get(&pn) == Some(&down) {
            return;
        }
        self.port_down.insert(pn, down);
        let hw = self
            .features
            .as_ref()
            .and_then(|f| f.ports.iter().find(|p| p.port_no == pn))
            .map(|p| p.hw_addr)
            .unwrap_or(yanc_packet::MacAddr::ZERO);
        self.send(&Message::PortMod {
            port_no: pn,
            hw_addr: hw,
            down,
        });
    }

    /// Write one of the driver's own report files (`error`, `last_error`);
    /// there is nobody to tell if that fails.
    fn put_file(&self, file: &yanc_vfs::VPath, text: &str) {
        let fs = self.yfs.filesystem();
        let _ = fs.write_file(file.as_str(), text.as_bytes(), self.yfs.creds());
    }

    /// The fields of `flow`, read through the held flows-dir descriptor
    /// (4 charged syscalls). A flow that is not there may mean the held
    /// directory itself has gone away; [`held`] decides, and the read is
    /// retried once through the re-opened directory.
    fn flow_fields(&mut self, sw: &str, flow: &str) -> Option<Vec<(String, String)>> {
        if let Some(flows) = self.flows {
            match self.yfs.get_objects_at(flows, flow) {
                Ok(fields) => return Some(fields),
                Err(e) if e.errno() == Some(Errno::ENOENT) => {}
                Err(_) => return None,
            }
        }
        let yfs = &self.yfs;
        let (flows, _, reopened) = held(yfs, &mut self.flows, || yfs.open_flows_dir(sw).ok())?;
        if !reopened {
            return None; // the directory is there; the flow is not
        }
        yfs.get_objects_at(flows, flow).ok()
    }

    /// Sync a flow: read it and install it unless the switch already
    /// holds exactly that spec. False when the flow could not be read or an
    /// `error` report was written instead. A `replaced` flow's `version`
    /// was removed and written again: if the new one does not install, the
    /// flow is withdrawn.
    fn sync_flow(&mut self, sw: &str, flow: &str, replaced: bool) -> bool {
        let synced = self.install_flow(sw, flow);
        if replaced && synced != Synced::Held {
            self.withdraw(flow);
        }
        synced != Synced::Failed
    }

    /// The body of [`Self::sync_flow`], with its outcome.
    fn install_flow(&mut self, sw: &str, flow: &str) -> Synced {
        let Some(fields) = self.flow_fields(sw, flow) else {
            return Synced::Failed;
        };
        let file = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let spec = match FlowSpec::from_files(fields.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        {
            Ok(s) => s,
            Err(e) => {
                // A *committed* flow that doesn't parse is a user error:
                // report it in the flow directory, like capability gaps.
                let version = file("version").and_then(|v| v.trim().parse::<u64>().ok());
                if version.is_some_and(|v| v > 0) {
                    self.put_file(&self.yfs.flow_dir(sw, flow).join("error"), &e.to_string());
                    return Synced::Failed;
                }
                return Synced::Uncommitted;
            }
        };
        let stale_error = file("error").is_some();
        if spec.version == 0 {
            return Synced::Uncommitted; // created but never committed
        }
        if let Some((v, old)) = self.installed.get(flow) {
            // `/net` is the truth, and the version is only its commit
            // mark: a field edit committed at the same number (or a lower
            // one) still reaches the switch.
            if *v == spec.version && *old == spec {
                return Synced::Held;
            }
            // The fs flow was rewritten with a different match/priority:
            // the switch entry it used to denote must go, or it lingers.
            if old.m != spec.m || old.priority != spec.priority {
                self.send(&delete_strict(old));
            }
        }
        let mut fm = flow_mod(&spec);
        fm.flags = flow_mod_flags::SEND_FLOW_REM;
        let xid = self.xid();
        match encode(self.version, &Message::FlowMod(fm), xid) {
            Ok(bytes) => {
                self.stats.record_tx(true);
                let _ = self.handle.tx.send(bytes);
                self.installed
                    .insert(flow.to_string(), (spec.version, spec));
                // Clear a capability error the listing showed.
                if let (true, Some(flows)) = (stale_error, self.flows) {
                    let error = format!("{flow}/error");
                    let _ = self
                        .yfs
                        .filesystem()
                        .unlinkat(flows, &error, self.yfs.creds());
                }
                Synced::Held
            }
            Err(e) => {
                // Capability mismatch (e.g. goto_table on a 1.0 driver):
                // reported through the file system, like everything else.
                self.put_file(&self.yfs.flow_dir(sw, flow).join("error"), &e.to_string());
                Synced::Failed
            }
        }
    }

    /// Run the commands written to `packet_out` since the last drain, one
    /// per line: `buffer=<id|none> in_port=<n> out=<tok[,tok…]>
    /// [data=<hex>]`. `fstat` + `pread` from the consumed byte offset on
    /// the held descriptor; a line that is not UTF-8 is skipped like any
    /// other unparsable line.
    fn drain_packet_out(&mut self, sw: &str) {
        let fs = self.yfs.filesystem().clone();
        let path = self.yfs.packet_out_path(sw);
        let yfs = &self.yfs;
        let open = || {
            fs.open(path.as_str(), OpenFlags::read_only(), yfs.creds())
                .ok()
        };
        let Some((fd, st, reopened)) = held(yfs, &mut self.packet_out, open) else {
            return;
        };
        if reopened {
            (self.packet_out_offset, self.packet_out_mtime) = (0, None);
        }
        // Shorter than what was consumed: truncated (`echo cmd >
        // packet_out`). Exactly as long but written since: truncated and
        // refilled to the same length (an empty append writes nothing, so
        // it wakes no drain). Either way, start over.
        let consumed = self.packet_out_offset;
        let written = Some(st.mtime) != self.packet_out_mtime;
        if st.size < consumed || (st.size == consumed && written) {
            self.packet_out_offset = 0;
        }
        self.packet_out_mtime = Some(st.mtime);
        let start = self.packet_out_offset;
        if st.size > start {
            let Ok(fresh) = fs.pread(fd, start, (st.size - start) as usize) else {
                return;
            };
            self.packet_out_offset = start + fresh.len() as u64;
            for line in fresh.split(|&b| b == b'\n') {
                let msg = std::str::from_utf8(line)
                    .ok()
                    .and_then(yanc::parse_packet_out_line);
                if let Some(msg) = msg {
                    self.send(&msg);
                }
            }
        }
        // Compact: the file is an append-only command stream; once consumed
        // it would otherwise grow (and hold memory) forever.
        if self.packet_out_offset > 64 * 1024 {
            let _ = fs.truncate(path.as_str(), 0, self.yfs.creds());
            self.packet_out_offset = 0;
        }
    }

    /// Ask the switch for current port + flow statistics; replies land in
    /// `counters/` files. Call periodically.
    pub fn poll_stats(&mut self) {
        if !self.ready() {
            return;
        }
        self.send(&Message::StatsRequest(StatsRequest::Port {
            port_no: port_no::NONE,
        }));
        self.send(&Message::StatsRequest(StatsRequest::Flow {
            table_id: 0xff,
            m: yanc_openflow::FlowMatch::any(),
        }));
    }
}

/// What syncing one flow left on the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Synced {
    /// The switch holds the committed spec: installed now, or already.
    Held,
    /// Nothing to install: the flow was never committed.
    Uncommitted,
    /// Unreadable, or reported in an `error` file: a later commit retries.
    Failed,
}

/// The descriptor a driver holds in `slot`, with its `fstat`. One whose
/// object has gone away — unlinked, or its directory removed, as when the
/// switch is removed and re-created — is closed and replaced by `open`,
/// once; the flag says whether that happened.
fn held(
    yfs: &YancFs,
    slot: &mut Option<Fd>,
    open: impl FnOnce() -> Option<Fd>,
) -> Option<(Fd, FileStat, bool)> {
    let fs = yfs.filesystem();
    if let Some(fd) = *slot {
        match fs.fstat(fd) {
            Ok(st) if st.nlink > 0 => return Some((fd, st, false)),
            _ => {
                let _ = fs.close(fd, yfs.creds());
            }
        }
    }
    *slot = open();
    let fd = (*slot)?;
    Some((fd, fs.fstat(fd).ok()?, true))
}

impl Drop for OpenFlowDriver {
    fn drop(&mut self) {
        self.release();
    }
}

/// What a features reply or port description says about one port, as the
/// fs materializes it.
fn port_spec(p: &PortDesc) -> PortSpec {
    PortSpec {
        port_no: p.port_no,
        hw_addr: p.hw_addr.to_string(),
        curr_speed: p.curr_speed,
        max_speed: p.max_speed,
        link_up: !p.link_down,
        config_down: p.config_down,
    }
}
