//! File-system change notification (paper §5.2).
//!
//! yanc applications are event loops blocked on the Linux fsnotify APIs:
//! a driver watches `flows/*/version` to learn when a flow is committed, a
//! topology daemon watches `switches/` for new switches, and so on. This
//! module reproduces both flavours the paper names:
//!
//! * **inotify-like watches** on a single file or directory
//!   ([`NotifyHub::watch_path`]), delivering events for that object and — for
//!   directories — its direct children, and
//! * **fanotify-like subtree watches** ([`NotifyHub::watch_subtree`]),
//!   delivering events for everything beneath a path prefix, which is what a
//!   distributed-fs replicator or an auditor wants.
//!
//! Events are delivered over unbounded crossbeam channels so emitters never
//! block; "use of the *notify systems comes free" (§5.2) — the filesystem
//! emits events from every mutating operation with no cooperation needed
//! from applications.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::path::VPath;

/// What happened to a watched object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A directory entry was created (file, dir, or symlink).
    Create,
    /// A directory entry was removed.
    Delete,
    /// File contents changed (write or truncate).
    Modify,
    /// A writable handle was closed — the paper's commit point for
    /// multi-write updates.
    CloseWrite,
    /// Metadata changed (chmod/chown/xattr).
    Attrib,
    /// An entry was renamed away from this name.
    MovedFrom,
    /// An entry was renamed to this name.
    MovedTo,
    /// The watched object itself was deleted.
    DeleteSelf,
}

/// Bitmask of [`EventKind`]s a watch is interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask(pub u16);

impl EventMask {
    /// Subscribe to every event kind.
    pub const ALL: EventMask = EventMask(0xffff);
    /// Creation and deletion only — the "watch a collection" mask.
    pub const CHILDREN: EventMask =
        EventMask(1 << EventKind::Create as u16 | 1 << EventKind::Delete as u16);
    /// Content-change events only.
    pub const MODIFY: EventMask =
        EventMask(1 << EventKind::Modify as u16 | 1 << EventKind::CloseWrite as u16);

    /// Mask containing exactly `kind`.
    pub fn only(kind: EventKind) -> EventMask {
        EventMask(1 << kind as u16)
    }

    /// Union of two masks.
    pub fn or(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// Whether `kind` is included.
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }
}

/// Identifier of an active watch, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchId(pub u64);

/// A delivered notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The watch this event matched.
    pub watch: WatchId,
    /// What happened.
    pub kind: EventKind,
    /// Full path of the affected object.
    pub path: VPath,
    /// For directory-scope events: the name of the affected child.
    pub name: Option<String>,
}

pub(crate) enum Scope {
    /// Matches the path itself and its direct children.
    Path(VPath),
    /// Matches the path itself and all descendants.
    Subtree(VPath),
}

struct Watch {
    id: WatchId,
    scope: Scope,
    mask: EventMask,
    /// Deliver only events whose entry name is one of these; empty means
    /// any name ([`crate::WatchBuilder::named`]).
    names: Vec<String>,
    owner: Option<u32>,
    tx: Sender<Event>,
    /// Serializes the quota check with the enqueue for THIS watch: without
    /// it, two concurrent emitters could both observe `len == quota - 1` and
    /// both send, overshooting the tail-drop cap. One mutex per watch keeps
    /// the critical section per-consumer — emitters to different watches
    /// never contend.
    gate: Mutex<()>,
}

/// Registry of watches; one per [`crate::Filesystem`].
pub struct NotifyHub {
    watches: RwLock<Vec<Watch>>,
    next_id: AtomicU64,
    /// Per-uid cap on a watch's queued-but-unread events; excess is dropped.
    quotas: RwLock<HashMap<u32, usize>>,
    dropped: AtomicU64,
    delivered: AtomicU64,
}

impl Default for NotifyHub {
    fn default() -> Self {
        Self::new()
    }
}

impl NotifyHub {
    /// An empty hub.
    pub fn new() -> Self {
        NotifyHub {
            watches: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(1),
            quotas: RwLock::new(HashMap::new()),
            dropped: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        }
    }

    pub(crate) fn add(
        &self,
        scope: Scope,
        mask: EventMask,
        names: Vec<String>,
        owner: Option<u32>,
    ) -> (WatchId, Receiver<Event>) {
        let (tx, rx) = unbounded();
        let id = WatchId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.watches.write().push(Watch {
            id,
            scope,
            mask,
            names,
            owner,
            tx,
            gate: Mutex::new(()),
        });
        (id, rx)
    }

    /// inotify-style: watch `path` and (if a directory) its direct children.
    pub fn watch_path(&self, path: &VPath, mask: EventMask) -> (WatchId, Receiver<Event>) {
        self.add(Scope::Path(path.clone()), mask, Vec::new(), None)
    }

    /// fanotify-style: watch the whole subtree rooted at `path`.
    pub fn watch_subtree(&self, path: &VPath, mask: EventMask) -> (WatchId, Receiver<Event>) {
        self.add(Scope::Subtree(path.clone()), mask, Vec::new(), None)
    }

    /// [`Self::watch_path`] with the watch descriptor charged to `owner`, so
    /// the supervisor can reclaim it when the owning process is killed.
    pub fn watch_path_owned(
        &self,
        path: &VPath,
        mask: EventMask,
        owner: u32,
    ) -> (WatchId, Receiver<Event>) {
        self.add(Scope::Path(path.clone()), mask, Vec::new(), Some(owner))
    }

    /// [`Self::watch_subtree`] with the watch descriptor charged to `owner`.
    pub fn watch_subtree_owned(
        &self,
        path: &VPath,
        mask: EventMask,
        owner: u32,
    ) -> (WatchId, Receiver<Event>) {
        self.add(Scope::Subtree(path.clone()), mask, Vec::new(), Some(owner))
    }

    /// Cancel a watch. Returns whether it existed.
    pub fn unwatch(&self, id: WatchId) -> bool {
        let mut ws = self.watches.write();
        let n = ws.len();
        ws.retain(|w| w.id != id);
        ws.len() != n
    }

    /// Remove every watch descriptor charged to `owner` (process teardown).
    /// Returns the number of descriptors reclaimed.
    pub fn unwatch_owner(&self, owner: u32) -> usize {
        let mut ws = self.watches.write();
        let n = ws.len();
        ws.retain(|w| w.owner != Some(owner));
        n - ws.len()
    }

    /// Number of active watches (disconnected receivers are reaped lazily).
    pub fn watch_count(&self) -> usize {
        self.watches.read().len()
    }

    /// Active watches charged to `owner`.
    pub fn watches_of(&self, owner: u32) -> usize {
        self.watches
            .read()
            .iter()
            .filter(|w| w.owner == Some(owner))
            .count()
    }

    /// Set or clear the queued-event quota for watches owned by `owner`.
    pub fn set_queue_quota(&self, owner: u32, quota: Option<usize>) {
        let mut q = self.quotas.write();
        match quota {
            Some(v) => {
                q.insert(owner, v);
            }
            None => {
                q.remove(&owner);
            }
        }
    }

    /// Events discarded because an owner's queue quota was exhausted.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events successfully enqueued to a watch channel since startup.
    /// With [`Self::dropped_events`], every matched event is accounted for
    /// exactly once: matched = delivered + dropped (the no-loss/no-dup law
    /// the property suite checks across batch drains).
    pub fn delivered_events(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Events delivered but not yet consumed, summed over every watch's
    /// channel — the introspection tree's "queue depth" figure.
    pub fn queued_events(&self) -> usize {
        self.watches.read().iter().map(|w| w.tx.len()).sum()
    }

    /// Deliver `kind` at `path` to every matching watch. Never blocks.
    pub fn emit(&self, kind: EventKind, path: &VPath, name: Option<&str>) {
        self.emit_batch(&[(kind, path.clone(), name.map(str::to_string))]);
    }

    /// Deliver a batch of events — everything one filesystem operation
    /// produced — to every matching watch. Called by the filesystem after
    /// releasing its shard locks, so watchers never serialize writers.
    ///
    /// Per watch, the whole batch is delivered under that watch's queue
    /// gate: the tail-drop quota check and the enqueue are one atomic step,
    /// and one lock acquisition covers the batch. Watches whose receiver has
    /// been dropped are reaped after the pass. Internal proc-mount
    /// maintenance (refresh writes) is silent: those mutations are not
    /// observable state.
    pub fn emit_batch(&self, events: &[(EventKind, VPath, Option<String>)]) {
        if events.is_empty() || crate::proc::ProcDepth::active() {
            return;
        }
        let mut dead: Vec<WatchId> = Vec::new();
        {
            let ws = self.watches.read();
            for w in ws.iter() {
                let matched: Vec<&(EventKind, VPath, Option<String>)> = events
                    .iter()
                    .filter(|(kind, path, name)| {
                        // Cheapest test first: a watch that cannot match
                        // costs every write in the system this much.
                        w.mask.contains(*kind)
                            && (w.names.is_empty()
                                || name.as_ref().is_some_and(|n| w.names.contains(n)))
                            && match &w.scope {
                                // A path watch sees events on the object itself
                                // and events whose subject sits directly
                                // inside it (compared in place:
                                // `parent()` would allocate per event).
                                Scope::Path(p) => {
                                    path.strip_prefix(p).is_some_and(|rest| !rest.contains('/'))
                                }
                                Scope::Subtree(p) => path.starts_with(p),
                            }
                    })
                    .collect();
                if matched.is_empty() {
                    continue;
                }
                let quota = w
                    .owner
                    .and_then(|uid| self.quotas.read().get(&uid).copied());
                let _gate = w.gate.lock();
                for (kind, path, name) in matched {
                    if let Some(q) = quota {
                        if w.tx.len() >= q {
                            // Queue quota exhausted: tail-drop rather than
                            // let a slow consumer grow the queue without
                            // bound.
                            self.dropped.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                    let ev = Event {
                        watch: w.id,
                        kind: *kind,
                        path: path.clone(),
                        name: name.clone(),
                    };
                    if w.tx.send(ev).is_err() {
                        dead.push(w.id);
                        break;
                    }
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if !dead.is_empty() {
            self.watches.write().retain(|w| !dead.contains(&w.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::new(s)
    }

    #[test]
    fn path_watch_sees_self_and_children_only() {
        let hub = NotifyHub::new();
        let (_id, rx) = hub.watch_path(&p("/net/switches"), EventMask::ALL);
        hub.emit(EventKind::Create, &p("/net/switches/sw1"), Some("sw1"));
        hub.emit(
            EventKind::Create,
            &p("/net/switches/sw1/flows/f1"),
            Some("f1"),
        );
        hub.emit(EventKind::Attrib, &p("/net/switches"), None);
        let evs: Vec<Event> = rx.try_iter().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Create);
        assert_eq!(evs[0].name.as_deref(), Some("sw1"));
        assert_eq!(evs[1].kind, EventKind::Attrib);
    }

    #[test]
    fn subtree_watch_sees_descendants() {
        let hub = NotifyHub::new();
        let (_id, rx) = hub.watch_subtree(&p("/net"), EventMask::ALL);
        hub.emit(
            EventKind::Modify,
            &p("/net/switches/sw1/flows/f1/version"),
            None,
        );
        hub.emit(EventKind::Modify, &p("/etc/other"), None);
        let evs: Vec<Event> = rx.try_iter().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path.as_str(), "/net/switches/sw1/flows/f1/version");
    }

    #[test]
    fn mask_filters_kinds() {
        let hub = NotifyHub::new();
        let (_id, rx) = hub.watch_path(&p("/d"), EventMask::only(EventKind::CloseWrite));
        hub.emit(EventKind::Modify, &p("/d/f"), Some("f"));
        hub.emit(EventKind::CloseWrite, &p("/d/f"), Some("f"));
        let evs: Vec<Event> = rx.try_iter().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::CloseWrite);
    }

    #[test]
    fn name_filter_discards_before_queueing() {
        let hub = NotifyHub::new();
        let scope = Scope::Subtree(p("/net/switches"));
        let (_id, rx) = hub.add(scope, EventMask::ALL, vec!["peer".to_string()], None);
        let port = "/net/switches/sw1/ports/p1";
        hub.emit_batch(&[
            (EventKind::Create, p(port), Some("p1".to_string())),
            (
                EventKind::Create,
                p(&format!("{port}/peer")),
                Some("peer".to_string()),
            ),
            (EventKind::Modify, p(&format!("{port}/peer")), None), // no entry name
            (
                EventKind::Create,
                p(&format!("{port}/peer2")),
                Some("peer2".to_string()),
            ),
            (
                EventKind::Delete,
                p("/elsewhere/peer"),
                Some("peer".to_string()),
            ),
        ]);
        let evs: Vec<Event> = rx.try_iter().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path.as_str(), "/net/switches/sw1/ports/p1/peer");
        // Filtered events are not matched events: nothing was dropped,
        // nothing else was delivered.
        assert_eq!((hub.delivered_events(), hub.dropped_events()), (1, 0));
        assert_eq!(hub.queued_events(), 0);
    }

    #[test]
    fn a_name_set_passes_any_of_its_names() {
        let hub = NotifyHub::new();
        let names = vec!["version".to_string(), "packet_out".to_string()];
        let mask = EventMask::only(EventKind::CloseWrite).or(EventMask::only(EventKind::Delete));
        let (_id, rx) = hub.add(Scope::Subtree(p("/sw")), mask, names, None);
        let ev = |kind, path: &str| (kind, p(path), p(path).file_name().map(str::to_string));
        hub.emit_batch(&[
            ev(EventKind::CloseWrite, "/sw/flows/f/version"),
            ev(EventKind::CloseWrite, "/sw/flows/f/priority"),
            ev(EventKind::Delete, "/sw/flows/f/version"),
            ev(EventKind::Delete, "/sw/flows/f"),
            ev(EventKind::Modify, "/sw/packet_out"),
            ev(EventKind::CloseWrite, "/sw/packet_out"),
        ]);
        let got: Vec<(EventKind, String)> = rx
            .try_iter()
            .map(|e| (e.kind, e.path.as_str().to_string()))
            .collect();
        let want = [
            (EventKind::CloseWrite, "/sw/flows/f/version"),
            (EventKind::Delete, "/sw/flows/f/version"),
            (EventKind::CloseWrite, "/sw/packet_out"),
        ];
        let want: Vec<(EventKind, String)> =
            want.iter().map(|(k, s)| (*k, s.to_string())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unwatch_stops_delivery() {
        let hub = NotifyHub::new();
        let (id, rx) = hub.watch_path(&p("/d"), EventMask::ALL);
        assert!(hub.unwatch(id));
        assert!(!hub.unwatch(id));
        hub.emit(EventKind::Create, &p("/d/f"), Some("f"));
        assert!(rx.try_iter().next().is_none());
        assert_eq!(hub.watch_count(), 0);
    }

    #[test]
    fn dropped_receiver_does_not_poison_other_watches() {
        let hub = NotifyHub::new();
        let (_a, rx_a) = hub.watch_path(&p("/d"), EventMask::ALL);
        let (_b, rx_b) = hub.watch_path(&p("/d"), EventMask::ALL);
        drop(rx_a);
        hub.emit(EventKind::Create, &p("/d/f"), Some("f"));
        assert_eq!(rx_b.try_iter().count(), 1);
        // The dead watch was reaped during emit.
        assert_eq!(hub.watch_count(), 1);
    }

    #[test]
    fn batch_delivery_accounts_every_event_once() {
        let hub = NotifyHub::new();
        let (_id, rx) = hub.watch_subtree(&p("/net"), EventMask::ALL);
        hub.emit_batch(&[
            (EventKind::Create, p("/net/a"), Some("a".to_string())),
            (EventKind::Modify, p("/net/a"), None),
            (EventKind::Delete, p("/elsewhere"), None), // outside the scope
        ]);
        let evs: Vec<Event> = rx.try_iter().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(hub.delivered_events(), 2);
        assert_eq!(hub.dropped_events(), 0);
    }

    #[test]
    fn queue_quota_tail_drop_is_atomic_under_contention() {
        use std::sync::Arc;
        // Pins the fix for the check-then-act race: quota check and enqueue
        // now happen under the watch's gate, so concurrent emitters can
        // never overshoot the cap, and matched = delivered + dropped holds
        // exactly.
        let hub = Arc::new(NotifyHub::new());
        hub.set_queue_quota(7, Some(4));
        let (_id, rx) = hub.watch_path_owned(&p("/d"), EventMask::ALL, 7);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = hub.clone();
                std::thread::spawn(move || {
                    for _ in 0..64 {
                        h.emit(EventKind::Create, &p("/d/f"), Some("f"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let queued = rx.try_iter().count() as u64;
        assert!(queued <= 4, "queue overshot its quota: {queued}");
        assert_eq!(queued, hub.delivered_events());
        assert_eq!(hub.delivered_events() + hub.dropped_events(), 4 * 64);
    }

    #[test]
    fn masks_compose() {
        let m = EventMask::CHILDREN.or(EventMask::MODIFY);
        assert!(m.contains(EventKind::Create));
        assert!(m.contains(EventKind::Modify));
        assert!(!m.contains(EventKind::Attrib));
    }
}
