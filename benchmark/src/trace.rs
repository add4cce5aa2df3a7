//! Span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each crate's public
//! API (spans inside the program are a later change), kept in memory and
//! written out as JSON lines when the run ends. Each span carries the
//! charged-syscall delta across the call, so counts are taken at the same
//! boundary as the time.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use yanc_vfs::{CounterSnapshot, Filesystem, OpKind};

/// Span names, one per layer seam the benchmark calls through.
pub const OP: &str = "op";
pub const DATAPLANE_PUMP: &str = "dataplane.pump";
pub const DRIVER_RUN_ONCE: &str = "driver.run_once";
pub const DRIVER_POLL_STATS: &str = "driver.poll_stats";
pub const ROUTER_RUN_ONCE: &str = "apps.router.run_once";
pub const CORE_WRITE_FLOW_AT: &str = "core.write_flow_at";
pub const CORE_DELETE_FLOW: &str = "core.delete_flow";
pub const COREUTILS_RUN: &str = "coreutils.run";

pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, 0 at the top.
    pub parent: u32,
    /// 1-based index of the timed op this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Charged vfs syscalls between start and end.
    pub syscalls: u64,
}

/// A span that has begun; hand it back to [`Tracer::end`].
pub struct Open {
    idx: usize,
    before: CounterSnapshot,
}

/// Totals of every span with one name.
#[derive(Default, Clone)]
pub struct Layer {
    pub busy_ns: u64,
    pub calls: u64,
    pub syscalls: [u64; OpKind::COUNT],
}

impl Layer {
    pub fn syscall_total(&self) -> u64 {
        self.syscalls.iter().sum()
    }
}

/// Counts taken in the benchmark's own sweep loop, where no span fits.
#[derive(Default)]
pub struct LoopCounts {
    /// Sweeps of the pump loop that dispatched or moved something.
    pub sweeps: u64,
    /// Readiness probes that found a driver with nothing queued.
    pub idle_scans: u64,
    /// `RouterDaemon::run_once` calls that found no packet-in.
    pub idle_wakeups: u64,
    /// Bytes the shell commands printed.
    pub shell_bytes_out: u64,
}

pub struct Tracer {
    t0: Instant,
    fs: Arc<Filesystem>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    layers: BTreeMap<&'static str, Layer>,
    pub counts: LoopCounts,
}

impl Tracer {
    pub fn new(fs: Arc<Filesystem>) -> Self {
        Tracer {
            t0: Instant::now(),
            fs,
            // Sized for the largest lap (bulk_install, ~50k spans) so the
            // vector does not regrow inside a timed op.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
            layers: BTreeMap::new(),
            counts: LoopCounts::default(),
        }
    }

    /// Mark which timed op the following spans belong to.
    pub fn set_op(&mut self, index: usize) {
        self.op = index as u32 + 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        // Snapshot first and clock second (and the reverse in `end`), so
        // the span's own time excludes the counter reads.
        let before = self.fs.counters().snapshot();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            syscalls: 0,
        });
        self.stack.push(id);
        Open {
            idx: self.spans.len() - 1,
            before,
        }
    }

    pub fn end(&mut self, open: Open) {
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let delta = self.fs.counters().snapshot().since(&open.before);
        let span = &mut self.spans[open.idx];
        span.end_ns = end_ns;
        span.syscalls = delta.total();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(span.id), "spans end in LIFO order");
        let layer = self.layers.entry(span.name).or_default();
        layer.busy_ns += span.end_ns - span.start_ns;
        layer.calls += 1;
        for (slot, kind) in layer.syscalls.iter_mut().zip(OpKind::all()) {
            *slot += delta.get(*kind);
        }
    }

    /// Totals for one span name (zeros if it never occurred).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line:
    /// `{"id","parent","op","name","start_ns","end_ns","syscalls"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(out, "{}", span_json(s))?;
        }
        out.flush()
    }
}

fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"syscalls\": {}}}",
        s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.syscalls
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_vfs::Credentials;

    #[test]
    fn spans_nest_and_carry_syscall_deltas() {
        let fs = Arc::new(Filesystem::new());
        let root = Credentials::root();
        let mut t = Tracer::new(fs.clone());
        t.set_op(4);
        let op = t.begin(OP);
        let inner = t.begin(CORE_WRITE_FLOW_AT);
        fs.mkdir("/a", yanc_vfs::Mode::DIR_DEFAULT, &root).unwrap();
        t.end(inner);
        fs.stat("/a", &root).unwrap();
        t.end(op);

        assert_eq!(t.span_count(), 2);
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!((outer.id, outer.parent, outer.op), (1, 0, 5));
        assert_eq!((inner.id, inner.parent, inner.op), (2, 1, 5));
        assert_eq!(inner.syscalls, 1, "the mkdir");
        assert_eq!(outer.syscalls, 2, "mkdir + stat");
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let layer = t.layer(CORE_WRITE_FLOW_AT);
        assert_eq!(layer.calls, 1);
        assert_eq!(layer.syscalls[OpKind::Mkdir as usize], 1);
        assert_eq!(layer.syscall_total(), 1);
        assert_eq!(t.layer("never").calls, 0);
    }

    #[test]
    fn span_line_is_flat_json() {
        let s = Span {
            id: 3,
            parent: 1,
            op: 2,
            name: DRIVER_RUN_ONCE,
            start_ns: 10,
            end_ns: 25,
            syscalls: 7,
        };
        assert_eq!(
            span_json(&s),
            "{\"id\": 3, \"parent\": 1, \"op\": 2, \"name\": \"driver.run_once\", \
             \"start_ns\": 10, \"end_ns\": 25, \"syscalls\": 7}"
        );
    }
}
