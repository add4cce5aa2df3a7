//! Linearizability harness for the sharded vfs.
//!
//! Two complementary attacks on the same claim — that the sharded,
//! verify-and-retry filesystem is indistinguishable from a sequential
//! filesystem:
//!
//! 1. **Virtual-scheduler histories** — N logical threads, each with its
//!    own seeded op stream, are interleaved one op at a time in a
//!    seeded random order. Every op runs against the sharded filesystem
//!    *and* a trivially-correct sequential model; results (including
//!    errnos) must agree op-for-op and the final trees must match. The
//!    schedule is a pure function of the seed, so any failure replays
//!    byte-for-byte from the seed printed in the assertion message.
//!
//! 2. **Real-thread register stress** — writer threads publish uniquely
//!    stamped values into a shared key with the write-temp-then-rename
//!    protocol while reader threads concurrently open/read/close it.
//!    Atomic-register law: every read returns a complete value some
//!    writer actually wrote — never a torn prefix, never an invented
//!    value — and the structural invariants hold afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use yanc_vfs::{Credentials, DcacheStats, Errno, Filesystem, Mode, OpenFlags};

// ---------------------------------------------------------------------
// Deterministic PRNG (splitmix64): the whole history is a function of
// the seed, which is all the replayability story needs.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Part 1: virtual-scheduler histories vs a sequential model
// ---------------------------------------------------------------------

const DIRS: [&str; 3] = ["/t/d0", "/t/d1", "/t/d2"];
const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Sequential model: names point at content cells, so hard links (two
/// names, one cell) fall out for free.
#[derive(Default)]
struct Model {
    names: BTreeMap<String, u64>,
    cells: BTreeMap<u64, Vec<u8>>,
    next_cell: u64,
}

impl Model {
    fn write(&mut self, path: &str, data: Vec<u8>) {
        match self.names.get(path) {
            Some(cell) => {
                self.cells.insert(*cell, data);
            }
            None => {
                let cell = self.next_cell;
                self.next_cell += 1;
                self.cells.insert(cell, data);
                self.names.insert(path.to_string(), cell);
            }
        }
    }

    fn read(&self, path: &str) -> Option<&Vec<u8>> {
        self.names.get(path).map(|c| &self.cells[c])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKindL {
    Write,
    Read,
    Unlink,
    /// `unlink` aimed at a directory (see [`UNLINK_DIRS`]).
    UnlinkDir,
    Rename,
    Link,
    Exists,
}

/// Directories the model never removes: `unlink` on any of them is
/// `EISDIR` — the root included, which has no parent entry to re-check.
const UNLINK_DIRS: [&str; 5] = ["/", "/t", "/t/d0", "/t/d1", "/t/d2"];

/// Draw the operands for `kind` from the thread's private stream.
fn with_operands(kind: OpKindL, rng: &mut Rng) -> (OpKindL, String, String, Vec<u8>) {
    let mut src = format!(
        "{}/{}",
        DIRS[rng.below(DIRS.len())],
        NAMES[rng.below(NAMES.len())]
    );
    let dst = format!(
        "{}/{}",
        DIRS[rng.below(DIRS.len())],
        NAMES[rng.below(NAMES.len())]
    );
    let data = format!("v{}", rng.next() % 1_000_000).into_bytes();
    if kind == OpKindL::UnlinkDir {
        src = UNLINK_DIRS[rng.below(UNLINK_DIRS.len())].to_string();
    }
    (kind, src, dst, data)
}

/// One logical thread's next op, drawn from its private stream.
fn gen_op(rng: &mut Rng) -> (OpKindL, String, String, Vec<u8>) {
    let kind = match rng.below(11) {
        0..=2 => OpKindL::Write,
        3..=4 => OpKindL::Read,
        5 => OpKindL::Unlink,
        6..=7 => OpKindL::Rename,
        8 => OpKindL::Link,
        9 => OpKindL::Exists,
        _ => OpKindL::UnlinkDir,
    };
    with_operands(kind, rng)
}

/// Apply one op to both the filesystem and the model; panic (with the
/// seed) on any divergence.
fn apply_op(
    fs: &Filesystem,
    creds: &Credentials,
    model: &mut Model,
    op: (OpKindL, String, String, Vec<u8>),
    seed: u64,
    step: usize,
) {
    let (kind, src, dst, data) = op;
    let ctx = |what: &str| format!("seed {seed} step {step}: {kind:?} {src} -> {dst}: {what}");
    match kind {
        OpKindL::Write => {
            fs.write_file(&src, &data, creds)
                .unwrap_or_else(|e| panic!("{} ({e})", ctx("write")));
            model.write(&src, data);
        }
        OpKindL::Read => match (fs.read_file(&src, creds), model.read(&src)) {
            (Ok(got), Some(want)) => assert_eq!(&got, want, "{}", ctx("content")),
            (Err(e), None) => assert_eq!(e.errno, Errno::ENOENT, "{}", ctx("read errno")),
            (got, want) => panic!("{} (fs {got:?} vs model {want:?})", ctx("read")),
        },
        OpKindL::Unlink => {
            let want = model.names.remove(&src);
            match fs.unlink(&src, creds) {
                Ok(()) => assert!(want.is_some(), "{}", ctx("unlinked a ghost")),
                Err(e) => {
                    assert_eq!(e.errno, Errno::ENOENT, "{}", ctx("unlink errno"));
                    assert!(want.is_none(), "{}", ctx("lost an unlink"));
                }
            }
        }
        OpKindL::UnlinkDir => {
            let before = fs.counters().snapshot();
            let e = fs
                .unlink(&src, creds)
                .expect_err(&ctx("unlinked a directory"));
            assert_eq!(e.errno, Errno::EISDIR, "{}", ctx("unlink-dir errno"));
            let used = fs.counters().snapshot().since(&before);
            assert_eq!(used.total(), 1, "{}", ctx("unlink-dir charge"));
        }
        OpKindL::Rename => {
            if src == dst {
                return;
            }
            match fs.rename(&src, &dst, creds) {
                Ok(()) => {
                    let cell = *model
                        .names
                        .get(&src)
                        .unwrap_or_else(|| panic!("{}", ctx("rename ghost")));
                    if model.names.get(&dst) == Some(&cell) {
                        // POSIX: oldpath and newpath are hard links to the
                        // same inode — rename does nothing.
                    } else {
                        model.names.remove(&src);
                        model.names.insert(dst, cell);
                    }
                }
                Err(e) => {
                    assert_eq!(e.errno, Errno::ENOENT, "{}", ctx("rename errno"));
                    assert!(!model.names.contains_key(&src), "{}", ctx("rename refused"));
                }
            }
        }
        OpKindL::Link => {
            if src == dst {
                return;
            }
            match fs.link(&src, &dst, creds) {
                Ok(()) => {
                    let cell = model.names[&src];
                    let prev = model.names.insert(dst.clone(), cell);
                    assert!(prev.is_none(), "{}", ctx("link clobbered"));
                }
                Err(e) => match e.errno {
                    Errno::ENOENT => assert!(!model.names.contains_key(&src), "{}", ctx("link")),
                    Errno::EEXIST => assert!(model.names.contains_key(&dst), "{}", ctx("link")),
                    other => panic!("{} (errno {other:?})", ctx("link")),
                },
            }
        }
        OpKindL::Exists => {
            assert_eq!(
                fs.exists(&src, creds),
                model.names.contains_key(&src),
                "{}",
                ctx("exists")
            );
        }
    }
}

/// Run one seeded history: `threads` logical op streams interleaved by a
/// seeded scheduler, then a full-tree equivalence check.
fn run_history(seed: u64, shards: usize) {
    let fs = Filesystem::builder().shards(shards).build();
    let creds = Credentials::root();
    for d in DIRS {
        fs.mkdir_all(d, Mode::DIR_DEFAULT, &creds).unwrap();
    }
    let mut model = Model::default();
    let threads = 3;
    let steps_per_thread = 8;
    let mut streams: Vec<Rng> = (0..threads)
        .map(|t| Rng::new(seed.wrapping_mul(31).wrapping_add(t as u64)))
        .collect();
    let mut budget: Vec<usize> = vec![steps_per_thread; threads];
    let mut sched = Rng::new(seed ^ 0xdead_beef);
    let mut step = 0usize;
    while budget.iter().any(|&b| b > 0) {
        let runnable: Vec<usize> = (0..threads).filter(|&t| budget[t] > 0).collect();
        let t = runnable[sched.below(runnable.len())];
        budget[t] -= 1;
        let op = gen_op(&mut streams[t]);
        apply_op(&fs, &creds, &mut model, op, seed, step);
        step += 1;
    }
    // Final trees agree exactly.
    for d in DIRS {
        let have: BTreeSet<String> = fs
            .readdir(d, &creds)
            .unwrap()
            .into_iter()
            .map(|e| format!("{d}/{}", e.name))
            .collect();
        let want: BTreeSet<String> = model
            .names
            .keys()
            .filter(|k| k.starts_with(&format!("{d}/")))
            .cloned()
            .collect();
        assert_eq!(have, want, "seed {seed}: listing of {d} diverged");
    }
    for (path, cell) in &model.names {
        assert_eq!(
            &fs.read_file(path, &creds).unwrap(),
            &model.cells[cell],
            "seed {seed}: content of {path} diverged"
        );
    }
    fs.check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: invariants violated: {e}"));
}

#[test]
fn a_thousand_seeded_histories_match_the_sequential_model() {
    for seed in 0..1_000 {
        run_history(seed, 8);
    }
}

#[test]
fn histories_replay_identically_on_one_shard() {
    // The deterministic configuration must accept the very same
    // histories — shards only change locking, never semantics.
    for seed in 0..100 {
        run_history(seed, 1);
    }
}

// ---------------------------------------------------------------------
// Part 1b: dcache coherence — cache-on vs cache-off paired replay
// ---------------------------------------------------------------------

/// Like [`gen_op`] but rename/unlink-heavy: the distribution is tilted
/// toward the operations that invalidate dentry-cache entries, so stale
/// positive *and* stale negative entries both get hammered.
fn gen_op_heavy(rng: &mut Rng) -> (OpKindL, String, String, Vec<u8>) {
    let kind = match rng.below(11) {
        0..=1 => OpKindL::Write,
        2 => OpKindL::Read,
        3..=4 => OpKindL::Unlink,
        5..=7 => OpKindL::Rename,
        8 => OpKindL::Link,
        9 => OpKindL::Exists,
        _ => OpKindL::UnlinkDir,
    };
    with_operands(kind, rng)
}

/// Replay one rename/unlink-heavy seeded history against a cache-on and
/// a cache-off filesystem in lockstep. Each filesystem is checked
/// op-for-op against its own copy of the sequential model; the models
/// are deterministic, so exact result/errno agreement between the two
/// filesystems follows transitively. A final pass then compares the two
/// filesystems *directly* — same trees, same contents — and checks the
/// structural invariants of both.
fn run_history_pair(seed: u64, shards: usize) {
    let fs_on = Filesystem::builder().shards(shards).build();
    let fs_off = Filesystem::builder().shards(shards).dcache(false).build();
    let creds = Credentials::root();
    for d in DIRS {
        fs_on.mkdir_all(d, Mode::DIR_DEFAULT, &creds).unwrap();
        fs_off.mkdir_all(d, Mode::DIR_DEFAULT, &creds).unwrap();
    }
    let mut model_on = Model::default();
    let mut model_off = Model::default();
    let threads = 3;
    let steps_per_thread = 10;
    let mut streams: Vec<Rng> = (0..threads)
        .map(|t| Rng::new(seed.wrapping_mul(131).wrapping_add(t as u64)))
        .collect();
    let mut budget: Vec<usize> = vec![steps_per_thread; threads];
    let mut sched = Rng::new(seed ^ 0xcafe_f00d);
    let mut step = 0usize;
    while budget.iter().any(|&b| b > 0) {
        let runnable: Vec<usize> = (0..threads).filter(|&t| budget[t] > 0).collect();
        let t = runnable[sched.below(runnable.len())];
        budget[t] -= 1;
        let op = gen_op_heavy(&mut streams[t]);
        apply_op(&fs_on, &creds, &mut model_on, op.clone(), seed, step);
        apply_op(&fs_off, &creds, &mut model_off, op, seed, step);
        step += 1;
    }
    // The two filesystems must be indistinguishable from the outside.
    for d in DIRS {
        let on: Vec<String> = fs_on
            .readdir(d, &creds)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        let off: Vec<String> = fs_off
            .readdir(d, &creds)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(on, off, "seed {seed}: {d} diverged between cache modes");
        for name in on {
            assert_eq!(
                fs_on.read_file(&format!("{d}/{name}"), &creds).unwrap(),
                fs_off.read_file(&format!("{d}/{name}"), &creds).unwrap(),
                "seed {seed}: {d}/{name} content diverged between cache modes"
            );
        }
    }
    // Stronger than the per-path walk above: the canonical tree encoding
    // (inodes, modes, owners, xattrs, ACLs, link structure — everything the
    // journal snapshots) must agree bit for bit. Both replays tick the same
    // virtual clock the same number of times, so even mtimes line up.
    assert_eq!(
        fs_on.tree_digest(),
        fs_off.tree_digest(),
        "seed {seed}: tree digest diverged between cache modes"
    );
    fs_on
        .check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: cache-on invariants violated: {e}"));
    fs_off
        .check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: cache-off invariants violated: {e}"));
    // The comparison was real: the cache actually served lookups on one
    // side and stayed completely inert on the other.
    assert!(
        fs_on.dcache_stats().hits > 0,
        "seed {seed}: cache-on replay never hit the dcache"
    );
    assert_eq!(
        fs_off.dcache_stats(),
        DcacheStats::default(),
        "seed {seed}: cache-off filesystem touched its dcache"
    );
}

#[test]
fn rename_heavy_histories_agree_cache_on_vs_cache_off() {
    for seed in 0..300 {
        run_history_pair(seed, 8);
    }
}

#[test]
fn rename_heavy_histories_agree_on_one_shard() {
    // shards=1 is the deterministic-replay configuration; the dcache
    // must not perturb it either.
    for seed in 0..60 {
        run_history_pair(seed, 1);
    }
}

// ---------------------------------------------------------------------
// Part 1d: read-path coherence — lockfree-on vs lockfree-off paired
// replay. The optimistic seqlock read path (E25) serves warm stat/fstat/
// read metadata without taking shard locks; these histories are tilted
// toward the reads it serves, interleaved with exactly the mutations
// that invalidate it (rename/unlink/chmod). The lockfree-off filesystem
// always takes the locked path, so op-for-op equality — payloads, every
// FileStat field, exact errnos — is the "no torn entry" claim: a stale
// name with a new ino, or perms from a different generation, would show
// up as a field diverging from the always-locked twin.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKindR {
    Stat,
    ReadFd,
    Readdir,
    Write,
    Rename,
    Unlink,
    Chmod,
}

const MODES: [u16; 5] = [0o600, 0o640, 0o644, 0o444, 0o755];

/// Read-heavy op stream: over half the draws are reads the optimistic
/// path serves; the rest are the writers that must invalidate it.
fn gen_op_read_heavy(rng: &mut Rng) -> (OpKindR, String, String, Vec<u8>, Mode) {
    let kind = match rng.below(12) {
        0..=2 => OpKindR::Stat,
        3..=4 => OpKindR::ReadFd,
        5 => OpKindR::Readdir,
        6 => OpKindR::Write,
        7..=8 => OpKindR::Rename,
        9 => OpKindR::Unlink,
        _ => OpKindR::Chmod,
    };
    let src = format!(
        "{}/{}",
        DIRS[rng.below(DIRS.len())],
        NAMES[rng.below(NAMES.len())]
    );
    let dst = format!(
        "{}/{}",
        DIRS[rng.below(DIRS.len())],
        NAMES[rng.below(NAMES.len())]
    );
    let data = format!("v{}", rng.next() % 1_000_000).into_bytes();
    let mode = Mode(MODES[rng.below(MODES.len())]);
    (kind, src, dst, data, mode)
}

/// Replay one read-heavy seeded history against a lockfree-on and a
/// lockfree-off filesystem in lockstep, asserting exact agreement after
/// every single op. Both replays allocate inodes, descriptors and clock
/// ticks identically, so even `ino`/`mtime`/`ctime` must match.
fn run_history_pair_lockfree(seed: u64, shards: usize) {
    let fs_on = Filesystem::builder().shards(shards).build();
    let fs_off = Filesystem::builder().shards(shards).readpath(false).build();
    let creds = Credentials::root();
    for d in DIRS {
        fs_on.mkdir_all(d, Mode::DIR_DEFAULT, &creds).unwrap();
        fs_off.mkdir_all(d, Mode::DIR_DEFAULT, &creds).unwrap();
    }
    let threads = 3;
    let steps_per_thread = 12;
    let mut streams: Vec<Rng> = (0..threads)
        .map(|t| Rng::new(seed.wrapping_mul(257).wrapping_add(t as u64)))
        .collect();
    let mut budget: Vec<usize> = vec![steps_per_thread; threads];
    let mut sched = Rng::new(seed ^ 0x0bad_f00d);
    let mut step = 0usize;
    while budget.iter().any(|&b| b > 0) {
        let runnable: Vec<usize> = (0..threads).filter(|&t| budget[t] > 0).collect();
        let t = runnable[sched.below(runnable.len())];
        budget[t] -= 1;
        let (kind, src, dst, data, mode) = gen_op_read_heavy(&mut streams[t]);
        let ctx = |what: &str| format!("seed {seed} step {step}: {kind:?} {src} -> {dst}: {what}");
        match kind {
            OpKindR::Stat => match (fs_on.stat(&src, &creds), fs_off.stat(&src, &creds)) {
                // Every field: a torn optimistic entry (perms from one
                // generation, size from another) diverges right here.
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{}", ctx("stat fields")),
                (Err(a), Err(b)) => assert_eq!(a.errno, b.errno, "{}", ctx("stat errno")),
                (a, b) => panic!("{} (on {a:?} vs off {b:?})", ctx("stat")),
            },
            OpKindR::ReadFd => {
                let open_on = fs_on.open(&src, OpenFlags::read_only(), &creds);
                let open_off = fs_off.open(&src, OpenFlags::read_only(), &creds);
                match (open_on, open_off) {
                    (Ok(f_on), Ok(f_off)) => {
                        assert_eq!(f_on, f_off, "{}", ctx("fd allocation"));
                        assert_eq!(
                            fs_on.fstat(f_on).unwrap(),
                            fs_off.fstat(f_off).unwrap(),
                            "{}",
                            ctx("fstat fields")
                        );
                        assert_eq!(
                            fs_on.read(f_on, 4096).unwrap(),
                            fs_off.read(f_off, 4096).unwrap(),
                            "{}",
                            ctx("read payload")
                        );
                        fs_on.close(f_on, &creds).unwrap();
                        fs_off.close(f_off, &creds).unwrap();
                    }
                    (Err(a), Err(b)) => assert_eq!(a.errno, b.errno, "{}", ctx("open errno")),
                    (a, b) => panic!("{} (on {a:?} vs off {b:?})", ctx("open")),
                }
            }
            OpKindR::Readdir => {
                let parent = src.rsplit_once('/').unwrap().0.to_string();
                let fd_on = fs_on.open_dir(&parent, &creds).unwrap();
                let fd_off = fs_off.open_dir(&parent, &creds).unwrap();
                // Entry-for-entry: a stale name with a new ino, or a
                // kind from a dead generation, diverges here.
                assert_eq!(
                    fs_on.readdir_fd(fd_on).unwrap(),
                    fs_off.readdir_fd(fd_off).unwrap(),
                    "{}",
                    ctx("readdir entries")
                );
                fs_on.close(fd_on, &creds).unwrap();
                fs_off.close(fd_off, &creds).unwrap();
            }
            OpKindR::Write => {
                let a = fs_on.write_file(&src, &data, &creds);
                let b = fs_off.write_file(&src, &data, &creds);
                assert_eq!(
                    a.map_err(|e| e.errno),
                    b.map_err(|e| e.errno),
                    "{}",
                    ctx("write")
                );
            }
            OpKindR::Rename => {
                if src == dst {
                    continue;
                }
                let a = fs_on.rename(&src, &dst, &creds);
                let b = fs_off.rename(&src, &dst, &creds);
                assert_eq!(
                    a.map_err(|e| e.errno),
                    b.map_err(|e| e.errno),
                    "{}",
                    ctx("rename")
                );
            }
            OpKindR::Unlink => {
                let a = fs_on.unlink(&src, &creds);
                let b = fs_off.unlink(&src, &creds);
                assert_eq!(
                    a.map_err(|e| e.errno),
                    b.map_err(|e| e.errno),
                    "{}",
                    ctx("unlink")
                );
            }
            OpKindR::Chmod => {
                let a = fs_on.chmod(&src, mode, &creds);
                let b = fs_off.chmod(&src, mode, &creds);
                assert_eq!(
                    a.map_err(|e| e.errno),
                    b.map_err(|e| e.errno),
                    "{}",
                    ctx("chmod")
                );
                // The narrowing (or widening) must be visible to the very
                // next optimistic stat — never perms from the generation
                // before the chmod.
                match (fs_on.stat(&src, &creds), fs_off.stat(&src, &creds)) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x, y, "{}", ctx("post-chmod stat"));
                        assert_eq!(x.mode, mode, "{}", ctx("post-chmod mode"));
                    }
                    (Err(x), Err(y)) => {
                        assert_eq!(x.errno, y.errno, "{}", ctx("post-chmod errno"))
                    }
                    (x, y) => panic!("{} (on {x:?} vs off {y:?})", ctx("post-chmod")),
                }
            }
        }
        step += 1;
    }
    // Indistinguishable from outside, bit for bit.
    assert_eq!(
        fs_on.tree_digest(),
        fs_off.tree_digest(),
        "seed {seed}: tree digest diverged between read-path modes"
    );
    fs_on
        .check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: lockfree-on invariants violated: {e}"));
    fs_off
        .check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: lockfree-off invariants violated: {e}"));
    // The comparison was real: the optimistic path actually served reads
    // on one side and never woke up on the other.
    let on = fs_on.readpath_stats();
    assert!(
        on.optimistic_hits > 0,
        "seed {seed}: lockfree-on replay never served an optimistic read"
    );
    let off = fs_off.readpath_stats();
    assert_eq!(
        (
            off.optimistic_hits,
            off.optimistic_retries,
            off.fallbacks,
            off.attr_fills,
            off.handle_publishes
        ),
        (0, 0, 0, 0, 0),
        "seed {seed}: lockfree-off filesystem touched its read path"
    );
}

#[test]
fn read_heavy_histories_agree_lockfree_on_vs_off() {
    for seed in 0..200 {
        run_history_pair_lockfree(seed, 8);
    }
}

#[test]
fn read_heavy_histories_agree_lockfree_on_one_shard() {
    // shards=1 maximizes seqlock invalidation cross-talk: every mutation
    // anywhere invalidates every attribute block. Agreement must hold.
    for seed in 0..60 {
        run_history_pair_lockfree(seed, 1);
    }
}

// ---------------------------------------------------------------------
// Part 1c: overlay transparency — merged-view replay vs direct replay
// ---------------------------------------------------------------------

/// Apply one file op either through an overlay view (paths relative to
/// the view) or directly against a base prefix, returning a comparable
/// result: `Ok(payload bytes)` or the errno. Exact agreement between the
/// two spellings is the overlay transparency claim.
enum Target<'a> {
    Plain(&'a Filesystem, &'a str),
    View(&'a yanc_vfs::Overlay),
}

fn apply_overlay_op(
    t: &Target<'_>,
    creds: &Credentials,
    op: &(OpKindL, String, String, Vec<u8>),
) -> Result<Vec<u8>, Errno> {
    let (kind, src, dst, data) = op;
    let (src, dst) = match t {
        Target::Plain(_, pre) => (format!("{pre}{src}"), format!("{pre}{dst}")),
        Target::View(_) => (src.clone(), dst.clone()),
    };
    let unit = |r: yanc_vfs::VfsResult<()>| r.map(|_| Vec::new()).map_err(|e| e.errno);
    match (kind, t) {
        (OpKindL::Write, Target::Plain(fs, _)) => unit(fs.write_file(&src, data, creds)),
        (OpKindL::Write, Target::View(ov)) => unit(ov.write_file(&src, data, creds)),
        (OpKindL::Read, Target::Plain(fs, _)) => fs.read_file(&src, creds).map_err(|e| e.errno),
        (OpKindL::Read, Target::View(ov)) => ov.read_file(&src, creds).map_err(|e| e.errno),
        (OpKindL::Unlink | OpKindL::UnlinkDir, Target::Plain(fs, _)) => {
            unit(fs.unlink(&src, creds))
        }
        (OpKindL::Unlink | OpKindL::UnlinkDir, Target::View(ov)) => unit(ov.unlink(&src, creds)),
        (OpKindL::Rename, Target::Plain(fs, _)) => unit(fs.rename(&src, &dst, creds)),
        (OpKindL::Rename, Target::View(ov)) => unit(ov.rename(&src, &dst, creds)),
        (OpKindL::Link | OpKindL::Exists, Target::Plain(fs, _)) => {
            Ok(vec![fs.exists(&src, creds) as u8])
        }
        (OpKindL::Link | OpKindL::Exists, Target::View(ov)) => {
            Ok(vec![ov.exists(&src, creds) as u8])
        }
    }
}

/// One seeded history replayed twice — directly against `/base` on one
/// filesystem, and through a copy-on-write overlay view of an identical
/// `/base` on another — must agree op-for-op (same payloads, same
/// errnos). After a final atomic commit of the view, the two `/base`
/// trees must be structurally identical: the staged history collapses to
/// exactly the directly-applied one.
fn run_overlay_pair(seed: u64) {
    let creds = Credentials::root();
    let mk = || {
        let fs = Filesystem::builder().shards(4).build();
        for d in DIRS {
            fs.mkdir_all(&format!("/base{d}"), Mode::DIR_DEFAULT, &creds)
                .unwrap();
        }
        // A seeded pre-population, so unlink/rename hit lower files too.
        let mut rng = Rng::new(seed ^ 0x5eed);
        for d in DIRS {
            for n in NAMES {
                if rng.below(2) == 0 {
                    fs.write_file(
                        &format!("/base{d}/{n}"),
                        format!("pre-{d}-{n}").as_bytes(),
                        &creds,
                    )
                    .unwrap();
                }
            }
        }
        fs
    };
    let fs_plain = mk();
    let fs_ov = Arc::new(mk());
    let ov = yanc_vfs::Overlay::new(fs_ov.clone(), &["/base"], "/staging");
    ov.ensure_upper(&creds).unwrap();

    let mut rng = Rng::new(seed.wrapping_mul(977));
    for step in 0..40 {
        let op = gen_op_heavy(&mut rng);
        if op.0 == OpKindL::Link {
            continue; // overlays have no hard links (documented deviation)
        }
        if op.0 == OpKindL::Rename && op.1 == op.2 {
            continue;
        }
        let direct = apply_overlay_op(&Target::Plain(&fs_plain, "/base"), &creds, &op);
        let viewed = apply_overlay_op(&Target::View(&ov), &creds, &op);
        assert_eq!(
            direct, viewed,
            "seed {seed} step {step}: {op:?} diverged between direct and overlay replay"
        );
    }

    // Commit the staged history; the two base trees must now match
    // structurally (names + contents — inode numbers and clocks differ
    // by construction, so the comparison is a walk, not a digest).
    ov.commit(&creds).unwrap();
    for d in DIRS {
        let list = |fs: &Filesystem| -> Vec<String> {
            fs.readdir(&format!("/base{d}"), &creds)
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        let a = list(&fs_plain);
        assert_eq!(a, list(&fs_ov), "seed {seed}: /base{d} listing diverged");
        for name in a {
            let p = format!("/base{d}/{name}");
            assert_eq!(
                fs_plain.read_file(&p, &creds).unwrap(),
                fs_ov.read_file(&p, &creds).unwrap(),
                "seed {seed}: {p} content diverged after commit"
            );
        }
    }
    fs_plain.check_invariants().unwrap();
    fs_ov.check_invariants().unwrap();
}

#[test]
fn overlay_histories_agree_with_direct_histories() {
    for seed in 0..200 {
        run_overlay_pair(seed);
    }
}

// ---------------------------------------------------------------------
// Part 2: real threads, atomic-register semantics over rename
// ---------------------------------------------------------------------

#[test]
fn concurrent_rename_publishes_are_never_torn() {
    let fs = Arc::new(Filesystem::builder().build());
    let creds = Credentials::root();
    fs.mkdir_all("/reg", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/reg/key", b"w0-0", &creds).unwrap();

    let n_writers = 3usize;
    let writes_per_writer = 300usize;
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..n_writers)
        .map(|w| {
            let fs = Arc::clone(&fs);
            std::thread::spawn(move || {
                let creds = Credentials::root();
                let tmp = format!("/reg/.tmp{w}");
                for seq in 0..writes_per_writer {
                    // Stamped value, long enough that a torn read would
                    // be visible as a truncated or mixed payload.
                    let val = format!("w{w}-{seq}-{}", "x".repeat(64 + (seq % 7)));
                    fs.write_file(&tmp, val.as_bytes(), &creds).unwrap();
                    fs.rename(&tmp, "/reg/key", &creds).unwrap();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let fs = Arc::clone(&fs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let creds = Credentials::root();
                let mut reads = 0u64;
                // At least one read each, however the threads are scheduled.
                while reads == 0 || !stop.load(Ordering::Relaxed) {
                    let fd = fs.open("/reg/key", OpenFlags::read_only(), &creds).unwrap();
                    let data = fs.read(fd, 4096).unwrap();
                    fs.close(fd, &creds).unwrap();
                    let s = String::from_utf8(data).expect("torn read: invalid utf8");
                    // Complete stamped value: "w<id>-<seq>-xxx..." with
                    // exactly the payload length the stamp implies.
                    let mut parts = s.splitn(3, '-');
                    let w: usize = parts
                        .next()
                        .and_then(|p| p.strip_prefix('w'))
                        .and_then(|p| p.parse().ok())
                        .unwrap_or_else(|| panic!("torn read: bad stamp {s:?}"));
                    let seq: usize = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .unwrap_or_else(|| panic!("torn read: bad seq {s:?}"));
                    if !(w == 0 && seq == 0 && parts.clone().next().is_none()) {
                        let payload = parts
                            .next()
                            .unwrap_or_else(|| panic!("torn read: missing payload {s:?}"));
                        assert!(w < 3 && seq < 300, "invented value {s:?}");
                        assert_eq!(
                            payload,
                            "x".repeat(64 + (seq % 7)),
                            "torn read: wrong payload for stamp w{w}-{seq}"
                        );
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_reads > 0);

    // The register holds one complete, actually-written final value and
    // the kernel's structural laws survived the contention.
    let last = String::from_utf8(fs.read_file("/reg/key", &creds).unwrap()).unwrap();
    let seq: usize = last.split('-').nth(1).unwrap().parse().unwrap();
    assert_eq!(seq, writes_per_writer - 1);
    let report = fs.check_invariants().unwrap();
    assert_eq!(report.handles, 0);
    // No temp residue: only the key remains.
    let names: Vec<String> = fs
        .readdir("/reg", &creds)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["key".to_string()]);
}

// ---------------------------------------------------------------------
// Part 3: descriptor-relative resolution laws
// ---------------------------------------------------------------------

/// Seeded law: `openat(dirfd, rel)` is *equivalent* to opening the
/// absolute concatenation — same success, same bytes, same errno — for
/// files, subdirectory paths, directories (EISDIR) and absent names
/// (ENOENT) alike. The fast path is a cheaper spelling of the slow path,
/// not a different semantics.
#[test]
fn openat_agrees_with_absolute_resolution() {
    let fs = Filesystem::new();
    let creds = Credentials::root();
    fs.mkdir_all("/t/d/sub", Mode::DIR_DEFAULT, &creds).unwrap();
    for (p, v) in [
        ("/t/d/a", "alpha"),
        ("/t/d/b", "bravo"),
        ("/t/d/sub/c", "charlie"),
    ] {
        fs.write_file(p, v.as_bytes(), &creds).unwrap();
    }
    let dir = fs.open_dir("/t/d", &creds).unwrap();
    let names = ["a", "b", "sub/c", "missing", "sub", "sub/nope"];
    let mut rng = Rng::new(0x0a7);
    for _ in 0..200 {
        let rel = names[rng.below(names.len())];
        let abs = format!("/t/d/{rel}");
        let via_at = fs.openat(dir, rel, OpenFlags::read_only(), &creds);
        let via_abs = fs.open(&abs, OpenFlags::read_only(), &creds);
        match (via_at, via_abs) {
            (Ok(f1), Ok(f2)) => {
                assert_eq!(
                    fs.pread(f1, 0, 64).unwrap(),
                    fs.pread(f2, 0, 64).unwrap(),
                    "{rel}: contents diverged"
                );
                fs.close(f1, &creds).unwrap();
                fs.close(f2, &creds).unwrap();
            }
            (Err(e1), Err(e2)) => assert_eq!(e1.errno, e2.errno, "{rel}: errnos diverged"),
            (at, abs_r) => panic!("{rel}: diverged: openat={at:?} absolute={abs_r:?}"),
        }
    }
    fs.close(dir, &creds).unwrap();
}

/// A directory descriptor anchors resolution at the *inode*: while one
/// thread renames the directory back and forth, `openat` through a
/// pre-rename descriptor never misses, while the absolute path legally
/// flickers in and out of existence (only ever as ENOENT).
#[test]
fn openat_survives_concurrent_directory_renames() {
    let fs = Arc::new(Filesystem::builder().build());
    let creds = Credentials::root();
    fs.mkdir_all("/t/d", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/t/d/a", b"stable", &creds).unwrap();
    let dir = fs.open_dir("/t/d", &creds).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let flips = Arc::new(AtomicU64::new(0));
    let flipper = {
        let fs = Arc::clone(&fs);
        let (stop, flips) = (Arc::clone(&stop), Arc::clone(&flips));
        std::thread::spawn(move || {
            let creds = Credentials::root();
            while !stop.load(Ordering::Relaxed) {
                fs.rename("/t/d", "/t/e", &creds).unwrap();
                fs.rename("/t/e", "/t/d", &creds).unwrap();
                flips.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };

    let mut absolute_misses = 0u64;
    // 2,000 opens, and more until a flip has landed among them: on a
    // busy machine the flipper may not be scheduled for a while.
    let mut opens = 0;
    while opens < 2000 || flips.load(Ordering::Relaxed) == 0 {
        opens += 1;
        let fd = fs
            .openat(dir, "a", OpenFlags::read_only(), &creds)
            .expect("descriptor-relative open must be rename-immune");
        assert_eq!(fs.pread(fd, 0, 16).unwrap(), b"stable");
        fs.close(fd, &creds).unwrap();
        match fs.open("/t/d/a", OpenFlags::read_only(), &creds) {
            Ok(fd) => fs.close(fd, &creds).unwrap(),
            // Mid-rename the absolute name simply isn't there; any other
            // errno would be a broken invariant.
            Err(e) => {
                assert_eq!(e.errno, Errno::ENOENT, "{e}");
                absolute_misses += 1;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    flipper.join().unwrap();
    let _ = absolute_misses; // timing-dependent; zero is legal
    fs.close(dir, &creds).unwrap();
    fs.check_invariants().unwrap();
}
