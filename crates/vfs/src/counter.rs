//! Per-operation "system call" accounting.
//!
//! The paper's §8.1 cost argument is that every fine-grained file access is a
//! system call and context switch, so "writing flow entries to thousands of
//! nodes will result in tens of thousands of context switches". Our vfs is
//! in-process, so instead of paying real context switches it *counts* them:
//! every public [`crate::Filesystem`] entry point increments exactly one
//! counter, giving experiments a deterministic proxy for syscall/context-
//! switch volume that the libyanc fastpath can then be measured against.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The categories of file-system operations that are tallied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    /// `stat`/`lstat`.
    Stat,
    /// `open` (including creating opens).
    Open,
    /// `close`.
    Close,
    /// `read`/`pread`.
    Read,
    /// `write`/`pwrite`.
    Write,
    /// `mkdir`.
    Mkdir,
    /// `rmdir`.
    Rmdir,
    /// `unlink`.
    Unlink,
    /// `rename`.
    Rename,
    /// `symlink`.
    Symlink,
    /// `readlink`.
    Readlink,
    /// `link`.
    Link,
    /// `readdir`.
    Readdir,
    /// `chmod`/`chown`.
    Setattr,
    /// xattr get/set/list/remove and ACL manipulation.
    Xattr,
    /// `truncate`.
    Truncate,
    /// `openat` (descriptor-relative open, including creating opens).
    Openat,
    /// `fstat` (descriptor-relative stat).
    Fstat,
    /// `fsync` (descriptor commit without close).
    Fsync,
    /// `yanc_poll` wait (one readiness syscall, however many sources).
    Poll,
}

const N_OPS: usize = 20;

const ALL_OPS: [OpKind; N_OPS] = [
    OpKind::Stat,
    OpKind::Open,
    OpKind::Close,
    OpKind::Read,
    OpKind::Write,
    OpKind::Mkdir,
    OpKind::Rmdir,
    OpKind::Unlink,
    OpKind::Rename,
    OpKind::Symlink,
    OpKind::Readlink,
    OpKind::Link,
    OpKind::Readdir,
    OpKind::Setattr,
    OpKind::Xattr,
    OpKind::Truncate,
    OpKind::Openat,
    OpKind::Fstat,
    OpKind::Fsync,
    OpKind::Poll,
];

impl OpKind {
    /// Number of operation kinds (the length of [`OpKind::all`]).
    pub const COUNT: usize = N_OPS;

    /// All operation kinds, in a stable order.
    pub fn all() -> &'static [OpKind] {
        &ALL_OPS
    }

    /// Short name for reports, e.g. `"write"`.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Stat => "stat",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Unlink => "unlink",
            OpKind::Rename => "rename",
            OpKind::Symlink => "symlink",
            OpKind::Readlink => "readlink",
            OpKind::Link => "link",
            OpKind::Readdir => "readdir",
            OpKind::Setattr => "setattr",
            OpKind::Xattr => "xattr",
            OpKind::Truncate => "truncate",
            OpKind::Openat => "openat",
            OpKind::Fstat => "fstat",
            OpKind::Fsync => "fsync",
            OpKind::Poll => "poll",
        }
    }
}

/// Number of independent counter stripes. Each stripe owns a full set of
/// per-op slots on its own cache lines, so two threads bumping the *same*
/// [`OpKind`] from different stripes never contend on one line.
const N_STRIPES: usize = 8;

/// One stripe of per-op slots, padded to cache-line granularity so adjacent
/// stripes never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe {
    slots: [AtomicU64; N_OPS],
}

thread_local! {
    /// The stripe this thread bumps into; `usize::MAX` means "not assigned
    /// yet" and the first bump claims the next round-robin stripe.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin source of stripe assignments for new threads.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// Lock-free tally of operations, one logical slot per [`OpKind`].
///
/// Writes are striped: each thread is assigned one of `N_STRIPES` stripes
/// on its first bump and always increments there, so the hot `bump` path is
/// an uncontended relaxed `fetch_add`. Reads (`get`/`total`/`snapshot`) sum
/// across stripes; they are exact with respect to completed bumps, merely
/// not instantaneous, which is all the pinned syscall tables require —
/// single-threaded runs see every bump before every read.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    stripes: [Stripe; N_STRIPES],
}

impl SyscallCounters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stripe index the calling thread writes to.
    #[inline]
    fn stripe_index() -> usize {
        MY_STRIPE.with(|s| {
            let mut i = s.get();
            if i == usize::MAX {
                i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % N_STRIPES;
                s.set(i);
            }
            i
        })
    }

    /// Record one operation of `kind`.
    #[inline]
    pub fn bump(&self, kind: OpKind) {
        self.stripes[Self::stripe_index()].slots[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count for a single kind (sum over stripes).
    pub fn get(&self, kind: OpKind) -> u64 {
        self.stripes
            .iter()
            .map(|st| st.slots[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Total across all kinds — the paper's "number of context switches".
    pub fn total(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|st| st.slots.iter())
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset every slot to zero (benchmarks call this between phases).
    pub fn reset(&self) {
        for st in &self.stripes {
            for s in &st.slots {
                s.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Immutable snapshot for reporting.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut counts = [0u64; N_OPS];
        for st in &self.stripes {
            for (i, s) in st.slots.iter().enumerate() {
                counts[i] += s.load(Ordering::Relaxed);
            }
        }
        CounterSnapshot { counts }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    counts: [u64; N_OPS],
}

impl CounterSnapshot {
    /// Count for one kind.
    pub fn get(&self, kind: OpKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-kind difference since `earlier` (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut counts = [0u64; N_OPS];
        for (c, (a, b)) in counts
            .iter_mut()
            .zip(self.counts.iter().zip(earlier.counts.iter()))
        {
            *c = a.saturating_sub(*b);
        }
        CounterSnapshot { counts }
    }

    /// Render a compact `kind=count` report of non-zero slots.
    pub fn report(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for k in OpKind::all() {
            let v = self.get(*k);
            if v > 0 {
                parts.push(format!("{}={v}", k.name()));
            }
        }
        parts.push(format!("total={}", self.total()));
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_totals() {
        let c = SyscallCounters::new();
        c.bump(OpKind::Write);
        c.bump(OpKind::Write);
        c.bump(OpKind::Open);
        assert_eq!(c.get(OpKind::Write), 2);
        assert_eq!(c.get(OpKind::Open), 1);
        assert_eq!(c.total(), 3);
        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn snapshot_diff() {
        let c = SyscallCounters::new();
        c.bump(OpKind::Mkdir);
        let s1 = c.snapshot();
        c.bump(OpKind::Mkdir);
        c.bump(OpKind::Stat);
        let s2 = c.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.get(OpKind::Mkdir), 1);
        assert_eq!(d.get(OpKind::Stat), 1);
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn report_lists_nonzero_only() {
        let c = SyscallCounters::new();
        c.bump(OpKind::Read);
        let r = c.snapshot().report();
        assert!(r.contains("read=1"));
        assert!(r.contains("total=1"));
        assert!(!r.contains("write="));
    }

    #[test]
    fn striped_bumps_sum_exactly_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(SyscallCounters::new());
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.bump(OpKind::Write);
                    }
                    c.bump(OpKind::Stat);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(OpKind::Write), 16_000);
        assert_eq!(c.get(OpKind::Stat), 16);
        assert_eq!(c.total(), 16_016);
        assert_eq!(c.snapshot().total(), 16_016);
    }

    #[test]
    fn all_ops_have_unique_names() {
        let mut names: Vec<&str> = OpKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OPS);
    }
}
