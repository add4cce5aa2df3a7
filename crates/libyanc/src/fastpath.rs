//! The flow-programming fastpath and the zero-copy packet-in bus.
//!
//! Two data paths, mirroring the paper's libyanc plans (§8.1):
//!
//! * [`FlowChannel`] — "creating flow entries atomically and without any
//!   context switchings": an application hands a whole [`FlowSpec`] (or a
//!   batch) to the driver through a shared ring. One ring push replaces
//!   the `mkdir` + per-field `write` + `version` write sequence of the
//!   file path (≈3 + #fields simulated syscalls per flow).
//! * [`PacketBus`] — "efficient, zero-copy passing of bulk data — packet-in
//!   buffers, for example — among applications": the frame travels as a
//!   reference-counted [`Bytes`]; fan-out to N subscribers clones the
//!   handle, not the payload, where the file path hex-encodes the frame
//!   into every subscriber's buffer directory.
//!
//! Trade-off (measured, not hidden): fastpath flows bypass `/net`, so they
//! are not introspectable with `ls`/`cat` unless the application also
//! mirrors them into the tree. That is exactly the flexibility/performance
//! tension the paper's design acknowledges.

use std::sync::Arc;

use bytes::Bytes;

use yanc::{FlowSpec, YancError, YancResult};
use yanc_vfs::Errno;

use crate::ring::{Ring, RingStats};

pub use yanc::FlowOp;

/// Shared-ring flow channel between applications and a driver.
#[derive(Clone)]
pub struct FlowChannel {
    ring: Arc<Ring<FlowOp>>,
}

impl FlowChannel {
    /// A channel holding up to `capacity` pending ops.
    pub fn new(capacity: usize) -> Self {
        FlowChannel {
            ring: Ring::new(capacity),
        }
    }

    /// Queue a flow install. One ring push — no file-system operations.
    ///
    /// A full ring is `ENOSPC` (via [`YancError::RingFull`], which carries
    /// the rejected op for retry), so fast-path and slow-path failures
    /// compose in one `match` on [`YancError::errno`].
    pub fn install(&self, switch: &str, name: &str, spec: FlowSpec) -> YancResult<()> {
        self.push_op(FlowOp::Install {
            switch: switch.to_string(),
            name: name.to_string(),
            spec,
        })
    }

    /// Queue a batch atomically with respect to a draining driver: ops are
    /// pushed back-to-back. A full ring rejects the remainder, returned in
    /// the [`YancError::RingFull`] payload: `EAGAIN` when part of the batch
    /// was enqueued (retry just the remainder once the driver drains),
    /// `ENOSPC` when nothing was.
    pub fn install_batch(&self, switch: &str, flows: Vec<(String, FlowSpec)>) -> YancResult<()> {
        let mut it = flows.into_iter();
        let mut enqueued = 0usize;
        // Not enumerate(): the error arm needs `it` back to collect the
        // rejected remainder.
        #[allow(clippy::explicit_counter_loop)]
        for (name, spec) in it.by_ref() {
            let op = FlowOp::Install {
                switch: switch.to_string(),
                name,
                spec,
            };
            if let Err(op) = self.ring.push(op) {
                let mut rejected = vec![op];
                rejected.extend(it.map(|(name, spec)| FlowOp::Install {
                    switch: switch.to_string(),
                    name,
                    spec,
                }));
                let errno = if enqueued > 0 {
                    Errno::EAGAIN
                } else {
                    Errno::ENOSPC
                };
                return Err(YancError::ring_full(errno, rejected));
            }
            enqueued += 1;
        }
        Ok(())
    }

    /// Queue a delete. Errors as [`Self::install`].
    pub fn delete(&self, switch: &str, name: &str) -> YancResult<()> {
        self.push_op(FlowOp::Delete {
            switch: switch.to_string(),
            name: name.to_string(),
        })
    }

    /// Re-submit ops rejected by an earlier call (from a
    /// [`yanc::RingFull`] payload). Same semantics as
    /// [`Self::install_batch`].
    pub fn resubmit(&self, ops: Vec<FlowOp>) -> YancResult<()> {
        let mut it = ops.into_iter();
        let mut enqueued = 0usize;
        // As in install_batch: the error arm re-consumes `it`.
        #[allow(clippy::explicit_counter_loop)]
        for op in it.by_ref() {
            if let Err(op) = self.ring.push(op) {
                let mut rejected = vec![op];
                rejected.extend(it);
                let errno = if enqueued > 0 {
                    Errno::EAGAIN
                } else {
                    Errno::ENOSPC
                };
                return Err(YancError::ring_full(errno, rejected));
            }
            enqueued += 1;
        }
        Ok(())
    }

    fn push_op(&self, op: FlowOp) -> YancResult<()> {
        self.ring
            .push(op)
            .map_err(|op| YancError::ring_full(Errno::ENOSPC, vec![op]))
    }

    /// Driver side: drain pending ops.
    pub fn drain(&self) -> Vec<FlowOp> {
        self.ring.drain()
    }

    /// Pending op count.
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// Whether ops are queued — poll-set probe for driver wakeup.
    pub fn ready(&self) -> bool {
        !self.ring.is_empty()
    }

    /// Lifetime counters of the underlying ring.
    pub fn stats(&self) -> RingStats {
        self.ring.stats()
    }
}

/// A packet-in delivered over the fast bus: the frame is shared, not
/// copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastPacketIn {
    /// Originating switch.
    pub switch: String,
    /// Ingress port.
    pub in_port: u16,
    /// Switch buffer id, if buffered.
    pub buffer_id: Option<u32>,
    /// The frame (reference-counted; cloning is O(1)).
    pub data: Bytes,
}

/// Zero-copy packet-in fan-out bus.
pub struct PacketBus {
    subscribers: parking_lot::RwLock<Vec<(String, Arc<Ring<FastPacketIn>>)>>,
    capacity: usize,
}

impl PacketBus {
    /// A bus whose subscriber rings hold `capacity` packets each.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(PacketBus {
            subscribers: parking_lot::RwLock::new(Vec::new()),
            capacity,
        })
    }

    /// Subscribe under `name`; returns the ring to drain.
    pub fn subscribe(&self, name: &str) -> Arc<Ring<FastPacketIn>> {
        let ring = Ring::new(self.capacity);
        self.subscribers
            .write()
            .push((name.to_string(), ring.clone()));
        ring
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.read().len()
    }

    /// Aggregate counters over every subscriber ring.
    pub fn stats(&self) -> RingStats {
        self.subscribers
            .read()
            .iter()
            .fold(RingStats::default(), |acc, (_, r)| acc.merge(r.stats()))
    }

    /// Per-subscriber counters, in subscription order.
    pub fn subscriber_stats(&self) -> Vec<(String, RingStats)> {
        self.subscribers
            .read()
            .iter()
            .map(|(n, r)| (n.clone(), r.stats()))
            .collect()
    }

    /// Publish to every subscriber. The payload `Bytes` is cloned by
    /// reference — one allocation total, regardless of fan-out width.
    /// Returns how many subscribers accepted it.
    pub fn publish(&self, pkt: &FastPacketIn) -> usize {
        let subs = self.subscribers.read();
        let mut delivered = 0;
        for (_, ring) in subs.iter() {
            if ring.push(pkt.clone()).is_ok() {
                delivered += 1;
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc::YancError;
    use yanc_openflow::{Action, FlowMatch};

    fn spec(p: u16) -> FlowSpec {
        FlowSpec {
            m: FlowMatch {
                tp_dst: Some(p),
                ..Default::default()
            },
            actions: vec![Action::out(1)],
            ..Default::default()
        }
    }

    #[test]
    fn flow_channel_roundtrip() {
        let ch = FlowChannel::new(16);
        ch.install("sw1", "a", spec(22)).unwrap();
        ch.delete("sw1", "b").unwrap();
        let ops = ch.drain();
        assert_eq!(ops.len(), 2);
        assert!(
            matches!(&ops[0], FlowOp::Install { switch, name, .. } if switch == "sw1" && name == "a")
        );
        assert!(matches!(&ops[1], FlowOp::Delete { name, .. } if name == "b"));
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn batch_overflow_is_eagain_with_remainder() {
        let ch = FlowChannel::new(2);
        let flows: Vec<(String, FlowSpec)> = (0..4).map(|i| (format!("f{i}"), spec(i))).collect();
        let err = ch.install_batch("sw1", flows).unwrap_err();
        let rf = match err {
            YancError::RingFull(rf) => rf,
            other => panic!("expected RingFull, got {other:?}"),
        };
        assert_eq!(rf.errno, Errno::EAGAIN); // partially enqueued
        assert_eq!(rf.rejected.len(), 2);
        assert!(matches!(&rf.rejected[0], FlowOp::Install { name, .. } if name == "f2"));
        assert_eq!(ch.pending(), 2);

        // The remainder resubmits cleanly after the driver drains.
        ch.drain();
        ch.resubmit(rf.rejected).unwrap();
        assert_eq!(ch.pending(), 2);
    }

    #[test]
    fn full_ring_is_enospc_and_single_install_composes_with_errno() {
        let ch = FlowChannel::new(1);
        ch.install("sw1", "a", spec(1)).unwrap();
        let err = ch.install("sw1", "b", spec(2)).unwrap_err();
        assert_eq!(err.errno(), Some(Errno::ENOSPC));
        // A batch against an already-full ring: nothing enqueued → ENOSPC.
        let err = ch
            .install_batch("sw1", vec![("c".into(), spec(3))])
            .unwrap_err();
        assert_eq!(err.errno(), Some(Errno::ENOSPC));
        assert_eq!(ch.stats().dropped, 2);
    }

    #[test]
    fn bus_fans_out_without_copying() {
        let bus = PacketBus::new(8);
        let r1 = bus.subscribe("router");
        let r2 = bus.subscribe("monitor");
        assert_eq!(bus.subscriber_count(), 2);
        let payload = Bytes::from(vec![0u8; 4096]);
        let pkt = FastPacketIn {
            switch: "sw1".into(),
            in_port: 1,
            buffer_id: None,
            data: payload.clone(),
        };
        assert_eq!(bus.publish(&pkt), 2);
        let a = r1.pop().unwrap();
        let b = r2.pop().unwrap();
        // Same allocation: Bytes clones point at shared storage.
        assert_eq!(a.data.as_ptr(), payload.as_ptr());
        assert_eq!(b.data.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn slow_subscriber_drops_only_its_own() {
        let bus = PacketBus::new(1);
        let r1 = bus.subscribe("fast");
        let _r2 = bus.subscribe("stalled");
        let pkt = FastPacketIn {
            switch: "s".into(),
            in_port: 1,
            buffer_id: None,
            data: Bytes::from_static(b"x"),
        };
        assert_eq!(bus.publish(&pkt), 2);
        // Both rings now full; second publish only fails per-ring.
        r1.pop();
        assert_eq!(bus.publish(&pkt), 1); // fast accepted, stalled dropped
    }
}
