//! Crash-at-every-record torture suite for the vfs write-ahead journal.
//!
//! The durability contract (DESIGN.md §10): at any byte-truncation point of
//! the journal — a crash can stop the log mid-frame, mid-snapshot, anywhere —
//! `restore_from_journal` rebuilds exactly the tree that existed at the last
//! complete record boundary, partial frames are invisible, and the very next
//! operation on the restored tree fails or succeeds with the *same errno* the
//! sequential model would produce. These tests prove that contract by brute
//! force: a seeded 500-op history is journaled, then the log is truncated
//! after **every** frame boundary (and inside sampled frames, including
//! mid-snapshot) and restored.
//!
//! The E23 experiment lives here too: a supervised controller crash
//! ([`Fault::CrashController`], the PR-2 fault injector) followed by a warm
//! journal restart that must reconverge with strictly fewer syscalls than
//! the E19 cold restart, pinned via `/net/.proc/vfs/journal` counters.

use std::collections::HashMap;
use std::sync::Arc;

use yanc::{FlowSpec, YancApp, YancFs, YancResult};
use yanc_apps::TopologyDaemon;
use yanc_coreutils::Shell;
use yanc_harness::{build_line, settle_supervised, shell_install_flow};
use yanc_init::{Fault, ProcessCtx, ProcessSpec, Supervisor};
use yanc_openflow::{Action, FlowMatch, Version};
use yanc_vfs::{
    scan_frames, Acl, Credentials, EventMask, Filesystem, Gid, Limits, Mode, OpenFlags,
    SemanticHook, Uid, VPath, VfsResult,
};

// ----------------------------------------------------------------------
// Deterministic op generator (splitmix64, same idiom as linearizability.rs)
// ----------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DIRS: [&str; 3] = ["/t/d0", "/t/d1", "/t/d2"];
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const SUBS: [&str; 3] = ["s0", "s1", "s2"];
/// Directories the extended history fills and removes whole.
const TREES: [&str; 2] = ["r0", "r1"];

/// Directories named `r*` go recursively, the way a switch or flow
/// directory does under the yanc schema hook: the only way a plain
/// `rmdir` yields an `RmTree` record. Registered on the journaled and the
/// restored side alike; the original history names no such directory.
struct RemovableTrees;

impl SemanticHook for RemovableTrees {
    fn rmdir_recursive(&self, path: &VPath) -> bool {
        path.file_name().is_some_and(|n| n.starts_with('r'))
    }
}

fn new_fs() -> Filesystem {
    let fs = Filesystem::builder().shards(1).dcache(false).build();
    fs.add_hook(Arc::new(RemovableTrees));
    fs
}

/// One step of the torture history. Every journaled record kind is reachable:
/// `WriteFile` emits `Create`/`Truncate`+`Write`, `BatchWrite` emits
/// `Create`/`SetContent`, a recursive `Rmdir` emits `RmTree`, and the rest
/// map one-to-one.
#[derive(Debug, Clone)]
enum Op {
    Mkdir(String),
    WriteFile(String, Vec<u8>),
    Rename(String, String),
    Unlink(String),
    Link(String, String),
    Chmod(String, u16),
    Chown(String, u32, u32),
    SetAcl(String, bool),
    SetXattr(String, String, Vec<u8>),
    RemoveXattr(String, String),
    Truncate(String, u64),
    Symlink(String, String),
    Rmdir(String),
    BatchWrite(String, String, Vec<u8>),
    /// open → unlink → `pwrite` → close: the descriptor pins the inode
    /// past its last link. Yields the link count the unlink left; at 0 the
    /// `Write` record names an orphan that replay must skip.
    OpenUnlinkWrite(String, Vec<u8>),
    /// Rename one `s*` directory onto another. Yields whether it replaced
    /// an (empty) directory.
    RenameDir(String, String),
}

fn gen_op(rng: &mut Rng) -> Op {
    let dir = DIRS[rng.below(3) as usize];
    let name = NAMES[rng.below(6) as usize];
    let file = format!("{dir}/{name}");
    match rng.below(100) {
        0..=31 => {
            // Never empty: each successful write yields a `Write` record.
            let len = 1 + rng.below(95) as usize;
            let mut data = vec![0u8; len];
            for b in data.iter_mut() {
                *b = (rng.below(256)) as u8;
            }
            Op::WriteFile(file, data)
        }
        32..=39 => Op::Mkdir(format!("{dir}/{}", SUBS[rng.below(3) as usize])),
        40..=46 => {
            let to = format!(
                "{}/{}",
                DIRS[rng.below(3) as usize],
                NAMES[rng.below(6) as usize]
            );
            Op::Rename(file, to)
        }
        47..=53 => Op::Unlink(file),
        54..=59 => {
            let new = format!(
                "{}/{}",
                DIRS[rng.below(3) as usize],
                NAMES[rng.below(6) as usize]
            );
            Op::Link(file, new)
        }
        60..=65 => Op::Chmod(file, 0o600 + (rng.below(64) as u16)),
        66..=71 => Op::Chown(file, 1000 + rng.below(3) as u32, 1000 + rng.below(3) as u32),
        72..=76 => Op::SetAcl(file, rng.below(2) == 0),
        77..=81 => Op::SetXattr(
            file,
            format!("user.k{}", rng.below(3)),
            vec![rng.below(256) as u8; 4],
        ),
        82..=85 => Op::RemoveXattr(file, format!("user.k{}", rng.below(3))),
        86..=89 => Op::Truncate(file, rng.below(48)),
        90..=93 => {
            let link = format!("{dir}/{}", SUBS[rng.below(3) as usize]);
            Op::Symlink(file, format!("{link}.lnk"))
        }
        94..=95 => Op::Rmdir(format!("{dir}/{}", SUBS[rng.below(3) as usize])),
        _ => {
            let mut data = vec![0u8; 8];
            for b in data.iter_mut() {
                *b = (rng.below(256)) as u8;
            }
            Op::BatchWrite(dir.to_string(), name.to_string(), data)
        }
    }
}

/// [`gen_op`] plus what the one mutator took over from the hand-written
/// live bodies: descriptors held across an unlink, populated `r*` trees
/// removed whole (hard links reaching into them included), and directory
/// renames that replace an empty directory.
fn gen_op_ext(rng: &mut Rng) -> Op {
    let dir = DIRS[rng.below(3) as usize];
    let file = format!("{dir}/{}", NAMES[rng.below(6) as usize]);
    let tree = format!("{dir}/{}", TREES[rng.below(2) as usize]);
    let sub = |rng: &mut Rng| {
        format!(
            "{}/{}",
            DIRS[rng.below(3) as usize],
            SUBS[rng.below(3) as usize]
        )
    };
    let inside = |rng: &mut Rng| {
        let at = ["", "/in"][rng.below(2) as usize];
        format!("{tree}{at}/{}", NAMES[rng.below(6) as usize])
    };
    match rng.below(100) {
        0..=9 => Op::OpenUnlinkWrite(file, vec![rng.below(256) as u8; 1 + rng.below(16) as usize]),
        10..=15 => Op::Mkdir(tree),
        16..=19 => Op::Mkdir(format!("{tree}/in")),
        20..=29 => Op::WriteFile(
            inside(rng),
            vec![rng.below(256) as u8; 1 + rng.below(32) as usize],
        ),
        30..=33 => Op::Link(file, inside(rng)),
        34..=39 => Op::Rmdir(tree),
        40..=45 => Op::Mkdir(sub(rng)),
        46..=53 => Op::RenameDir(sub(rng), sub(rng)),
        _ => gen_op(rng),
    }
}

/// An `n`-op seeded history drawn from `gen`, prefixed by the deterministic
/// scaffolding that creates the working directories (themselves journaled
/// ops).
fn build_history(gen: fn(&mut Rng) -> Op, seed: u64, n: usize) -> Vec<Op> {
    let mut ops = vec![Op::Mkdir("/t".into())];
    ops.extend(DIRS.iter().map(|d| Op::Mkdir((*d).into())));
    let mut rng = Rng::new(seed);
    while ops.len() < n {
        ops.push(gen(&mut rng));
    }
    ops
}

/// Apply one op. The result (`Ok` payload and exact errno alike) is part of
/// the sequential model: the journaled run, the restored run, and the oracle
/// must all observe the same value at the same history position.
fn apply_op(fs: &Filesystem, op: &Op) -> VfsResult<u64> {
    let root = Credentials::root();
    match op {
        Op::Mkdir(p) => fs.mkdir(p, Mode::DIR_DEFAULT, &root).map(|_| 0),
        Op::WriteFile(p, data) => fs.write_file(p, data, &root).map(|_| 0),
        Op::Rename(from, to) => fs.rename(from, to, &root).map(|_| 0),
        Op::Unlink(p) => fs.unlink(p, &root).map(|_| 0),
        Op::Link(old, new) => fs.link(old, new, &root).map(|_| 0),
        Op::Chmod(p, m) => fs.chmod(p, Mode(*m), &root).map(|_| 0),
        Op::Chown(p, u, g) => fs.chown(p, Some(Uid(*u)), Some(Gid(*g)), &root).map(|_| 0),
        Op::SetAcl(p, set) => {
            let acl = if *set {
                let mut a = Acl::new();
                a.set_user(Uid(1000), 0o6);
                a.set_mask(0o6);
                Some(a)
            } else {
                None
            };
            fs.set_acl(p, acl, &root).map(|_| 0)
        }
        Op::SetXattr(p, k, v) => fs.set_xattr(p, k, v, &root).map(|_| 0),
        Op::RemoveXattr(p, k) => fs.remove_xattr(p, k, &root).map(|_| 0),
        Op::Truncate(p, len) => fs.truncate(p, *len, &root).map(|_| 0),
        Op::Symlink(target, link) => fs.symlink(target, link, &root).map(|_| 0),
        Op::Rmdir(p) => fs.rmdir(p, &root).map(|_| 0),
        Op::BatchWrite(dir, name, data) => {
            let fd = fs.open_dir(dir, &root)?;
            let r = fs
                .write_batch_at(fd, &[(name.as_str(), data.as_slice())], &root)
                .map(|n| n as u64);
            let c = fs.close(fd, &root);
            let n = r?;
            c.map(|_| n)
        }
        Op::OpenUnlinkWrite(p, data) => {
            let fd = fs.open(p, OpenFlags::write_create(), &root)?;
            let r = fs
                .unlink(p, &root)
                .and_then(|_| fs.pwrite(fd, 0, data))
                .and_then(|_| fs.fstat(fd));
            let c = fs.close(fd, &root);
            let links = r?.nlink as u64;
            c.map(|_| links)
        }
        Op::RenameDir(from, to) => {
            let replaced = fs.exists(to, &root);
            fs.rename(from, to, &root).map(|_| replaced as u64)
        }
    }
}

/// Run the whole history on a journaling fs, recording the sequential model:
/// per-prefix tree digests, per-op results, and the journal byte length at
/// every op boundary (the crash points the main sweep must reproduce).
struct JournaledRun {
    bytes: Vec<u8>,
    /// `digests[k]` = tree digest after `k` ops applied.
    digests: Vec<u64>,
    /// `results[k]` = what op `k` returned when the live run executed it.
    results: Vec<VfsResult<u64>>,
    /// journal byte length → number of ops applied at that boundary.
    boundary_ops: HashMap<usize, usize>,
}

fn run_journaled(ops: &[Op], snapshot_at: &[usize]) -> JournaledRun {
    let fs = new_fs();
    fs.enable_journal();
    let mut digests = vec![fs.tree_digest()];
    let mut results = Vec::with_capacity(ops.len());
    let mut boundary_ops = HashMap::new();
    boundary_ops.insert(fs.journal_stats().bytes as usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        results.push(apply_op(&fs, op));
        digests.push(fs.tree_digest());
        boundary_ops.insert(fs.journal_stats().bytes as usize, i + 1);
        if snapshot_at.contains(&(i + 1)) {
            fs.journal_snapshot();
            // A snapshot frame is its own valid crash point for the same
            // prefix state.
            boundary_ops.insert(fs.journal_stats().bytes as usize, i + 1);
        }
    }
    JournaledRun {
        bytes: fs.journal_bytes(),
        digests,
        results,
        boundary_ops,
    }
}

fn restore(bytes: &[u8]) -> (Filesystem, yanc_vfs::ReplayReport) {
    let (fs, report) = Filesystem::restore_from_journal(bytes, Limits::default(), 1, false);
    fs.add_hook(Arc::new(RemovableTrees));
    (fs, report)
}

fn fnv64(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ----------------------------------------------------------------------
// The torture sweep
// ----------------------------------------------------------------------

/// Truncate the journal after every complete frame of a history and
/// restore. Op-boundary cuts must reproduce the model prefix state exactly
/// (tree digest + exact errno of the next op); intra-op cuts (multi-record
/// ops caught halfway) must still restore deterministically to a structurally
/// sound tree. The whole log skips exactly the orphan writes made since the
/// last snapshot. Returns the run for history-specific assertions.
fn crash_at_every_frame(ops: &[Op], snapshot_at: &[usize]) -> JournaledRun {
    let run = run_journaled(ops, snapshot_at);
    let frames = scan_frames(&run.bytes);
    assert!(
        frames.len() >= ops.len() * 4 / 5,
        "{} ops produced only {} frames: too many of them fail",
        ops.len(),
        frames.len()
    );
    assert_eq!(
        frames.last().unwrap().end,
        run.bytes.len(),
        "journal must end on a frame boundary"
    );

    let mut op_boundaries = 0usize;
    for f in &frames {
        let cut = &run.bytes[..f.end];
        let (fsr, report) = restore(cut);
        assert_eq!(
            report.tail_dropped_bytes, 0,
            "cut at a frame boundary has no torn tail"
        );
        fsr.check_invariants()
            .unwrap_or_else(|e| panic!("restore at byte {} broke invariants: {e}", f.end));
        if let Some(&k) = run.boundary_ops.get(&f.end) {
            // A crash exactly between ops: the restored tree IS the model
            // prefix, byte for byte (modulo the documented clock/generation
            // remap, which the digest excludes).
            op_boundaries += 1;
            assert_eq!(
                fsr.tree_digest(),
                run.digests[k],
                "restore at op boundary {k} (byte {}) diverged from the model",
                f.end
            );
            if k < ops.len() {
                // ...and the next op observes the same outcome (same errno,
                // same payload) the live run observed.
                assert_eq!(
                    apply_op(&fsr, &ops[k]),
                    run.results[k],
                    "op {k} after restore at byte {} diverged",
                    f.end
                );
            }
        } else {
            // A crash inside a multi-record op: the tree holds the record
            // prefix. That state must at least be deterministic — two
            // restores of the same bytes agree exactly.
            let (fsr2, report2) = restore(cut);
            assert_eq!(report, report2);
            assert_eq!(fsr.tree_digest(), fsr2.tree_digest());
        }
    }
    // Multi-record ops (`Create`+`Write`, batch entries) put interior frames
    // between op boundaries, and record-less failed ops collapse onto their
    // predecessor's boundary — but the bulk of the sweep must still exercise
    // the exact-prefix-equality arm.
    assert!(
        op_boundaries > frames.len() / 2,
        "most cuts should land on op boundaries, got {op_boundaries}"
    );

    let since_snapshot = snapshot_at.iter().max().copied().unwrap_or(0);
    let orphan_writes = ops[since_snapshot..]
        .iter()
        .zip(&run.results[since_snapshot..])
        .filter(|(op, r)| matches!(op, Op::OpenUnlinkWrite(..)) && **r == Ok(0))
        .count() as u64;
    assert_eq!(restore(&run.bytes).1.records_skipped, orphan_writes);
    run
}

/// `journal_bytes()` of two fixed histories, as `(length, fnv64)` recorded at
/// the commit before the journal was inverted to do = redo: the seeded
/// 500-op torture history (snapshots after ops 150 and 350) and the 200-op
/// overlay history followed by one view commit. The wire format is
/// `JOURNAL_VERSION` 1; a change here is a format change.
const GOLDEN_TORTURE_LOG: (usize, u64) = (32222, 0x0157_6719_a11e_1a83);
const GOLDEN_OVERLAY_LOG: (usize, u64) = (16568, 0x8115_a803_ed84_ba9a);

#[test]
fn crash_at_every_record_boundary_restores_prefix_state() {
    let ops = build_history(gen_op, 0xD15C_0001, 500);
    let run = crash_at_every_frame(&ops, &[150, 350]);
    assert_eq!((run.bytes.len(), fnv64(&run.bytes)), GOLDEN_TORTURE_LOG);
}

/// The same sweep over a history that holds descriptors across unlinks,
/// removes populated trees and renames directories over empty ones — and
/// demonstrably does: the log must carry `RmTree` frames, orphan writes and
/// replaced directories, or the generator has drifted off its targets.
#[test]
fn crash_at_every_record_boundary_with_orphans_rmtrees_and_replaced_dirs() {
    let ops = build_history(gen_op_ext, 0xD15C_0005, 500);
    let run = crash_at_every_frame(&ops, &[200]);
    let count = |f: fn(&Op, &VfsResult<u64>) -> bool| {
        let hits = ops.iter().zip(&run.results).filter(|(o, r)| f(o, r));
        hits.count()
    };
    let orphans = count(|o, r| matches!(o, Op::OpenUnlinkWrite(..)) && *r == Ok(0));
    let linked = count(|o, r| matches!(o, Op::OpenUnlinkWrite(..)) && matches!(r, Ok(1..)));
    let replaced = count(|o, r| matches!(o, Op::RenameDir(..)) && *r == Ok(1));
    // Tag 7 is `RmTree` (the first payload byte follows the 6-byte header).
    let rmtrees = scan_frames(&run.bytes)
        .iter()
        .filter(|f| run.bytes[f.start + 6] == 7)
        .count();
    assert!(
        orphans >= 10 && linked >= 1 && replaced >= 3 && rmtrees >= 5,
        "orphans={orphans} linked={linked} replaced={replaced} rmtrees={rmtrees}"
    );
}

/// Truncate *inside* sampled frames — including byte 1 of a frame and one
/// byte short of its checksum — and assert the partial frame is invisible:
/// the restore equals the restore at the frame's start.
#[test]
fn partial_frames_are_invisible() {
    let ops = build_history(gen_op, 0xD15C_0002, 300);
    let run = run_journaled(&ops, &[120]);
    let frames = scan_frames(&run.bytes);
    let mut digest_at = HashMap::new();
    digest_at.insert(0usize, restore(&[]).0.tree_digest());
    for f in &frames {
        digest_at.insert(f.end, restore(&run.bytes[..f.end]).0.tree_digest());
    }
    for (j, f) in frames.iter().enumerate() {
        if j % 13 != 0 && !f.is_snapshot {
            continue;
        }
        let base = digest_at[&f.start];
        let mid = f.start + (f.end - f.start) / 2;
        for cut in [f.start + 1, mid, f.end - 1] {
            let (fsr, report) = restore(&run.bytes[..cut]);
            assert_eq!(
                fsr.tree_digest(),
                base,
                "cut at byte {cut} inside frame {j} leaked a partial record"
            );
            assert_eq!(
                report.tail_dropped_bytes as usize,
                cut - f.start,
                "torn tail must be exactly the partial frame"
            );
            fsr.check_invariants().unwrap();
        }
    }
}

/// A crash mid-snapshot (the fault window `journal_maybe_snapshot` opens on
/// every supervisor tick) must fall back to the previous snapshot + suffix:
/// the half-written snapshot frame contributes nothing.
#[test]
fn crash_mid_snapshot_falls_back_to_previous_boundary() {
    let ops = build_history(gen_op, 0xD15C_0003, 200);
    let run = run_journaled(&ops, &[80, 160]);
    let frames = scan_frames(&run.bytes);
    let snaps: Vec<_> = frames.iter().filter(|f| f.is_snapshot).collect();
    // Anchor snapshot plus the two scheduled ones.
    assert_eq!(snaps.len(), 3);
    for f in &snaps {
        let base = restore(&run.bytes[..f.start]).0.tree_digest();
        for cut in [f.start + 1, f.start + (f.end - f.start) / 2, f.end - 1] {
            let (fsr, _) = restore(&run.bytes[..cut]);
            assert_eq!(
                fsr.tree_digest(),
                base,
                "mid-snapshot cut at byte {cut} must be invisible"
            );
        }
        // The complete snapshot frame, by contrast, is a proper boundary
        // for the same state.
        assert_eq!(restore(&run.bytes[..f.end]).0.tree_digest(), base);
    }
}

/// Compaction drops exactly the bytes the latest snapshot covers: the
/// compacted journal restores to the same tree as the full journal.
#[test]
fn compaction_preserves_restore_equivalence() {
    let ops = build_history(gen_op, 0xD15C_0004, 200);
    let fs = new_fs();
    fs.enable_journal();
    for op in &ops[..150] {
        let _ = apply_op(&fs, op);
    }
    fs.journal_snapshot();
    for op in &ops[150..] {
        let _ = apply_op(&fs, op);
    }
    let full = fs.journal_bytes();
    let dropped = fs.journal_compact();
    assert!(dropped > 0, "a mid-history snapshot must free bytes");
    let compacted = fs.journal_bytes();
    assert!(compacted.len() < full.len());
    assert_eq!(fs.journal_stats().compacted_bytes, dropped);
    let live = fs.tree_digest();
    assert_eq!(restore(&full).0.tree_digest(), live);
    let (fsr, report) = restore(&compacted);
    assert_eq!(fsr.tree_digest(), live);
    assert!(report.snapshot_used);
}

/// Open descriptors do not survive a crash: after restore the fd table is
/// empty, stale descriptors fail with `EBADF`, and the restored allocator
/// never re-issues a pre-crash fd number (the watermark floor).
#[test]
fn readdir_fd_after_restore_is_ebadf() {
    let root = Credentials::root();
    let fs = Filesystem::builder().shards(1).dcache(false).build();
    fs.enable_journal();
    fs.mkdir_all("/t/d0", Mode::DIR_DEFAULT, &root).unwrap();
    fs.write_file("/t/d0/a", b"hello", &root).unwrap();
    let dfd = fs.open_dir("/t/d0", &root).unwrap();
    assert!(!fs.readdir_fd(dfd).unwrap().is_empty());
    // Snapshot with the descriptor open: the fd-allocator watermark rides
    // along, so the restored side can never hand the number out again.
    fs.journal_snapshot();

    let (fsr, _) = restore(&fs.journal_bytes());
    let err = fsr.readdir_fd(dfd).unwrap_err();
    assert_eq!(err.errno, yanc_vfs::Errno::EBADF, "stale fd must be dead");

    // New descriptors work, and never collide with pre-crash numbers.
    let nfd = fsr.open_dir("/t/d0", &root).unwrap();
    assert!(nfd.0 > dfd.0, "fd watermark must floor past the crash");
    let names: Vec<String> = fsr
        .readdir_fd(nfd)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["a".to_string()]);
    assert_eq!(fsr.read_to_string("/t/d0/a", &root).unwrap(), "hello");
}

/// Restored filesystems journal nothing until explicitly re-enabled —
/// replaying must not re-log the history it is replaying.
#[test]
fn restored_fs_journals_only_after_reenable() {
    let root = Credentials::root();
    let fs = Filesystem::builder().shards(1).dcache(false).build();
    fs.enable_journal();
    fs.mkdir("/t", Mode::DIR_DEFAULT, &root).unwrap();
    let (fsr, _) = restore(&fs.journal_bytes());
    assert!(!fsr.journal_enabled());
    fsr.mkdir("/u", Mode::DIR_DEFAULT, &root).unwrap();
    assert_eq!(fsr.journal_stats().records, 0);
    fsr.enable_journal();
    fsr.mkdir("/v", Mode::DIR_DEFAULT, &root).unwrap();
    assert_eq!(fsr.journal_stats().records, 1);
    // And the re-enabled journal is itself restorable: second-generation
    // restore reproduces the second-generation tree.
    let (fsr2, report) = restore(&fsr.journal_bytes());
    assert!(report.snapshot_used);
    assert_eq!(fsr2.tree_digest(), fsr.tree_digest());
}

// ----------------------------------------------------------------------
// Overlay torture: copy-up/whiteout histories and the mid-commit cut
// ----------------------------------------------------------------------

/// One step of a seeded overlay history. Every overlay-specific journal
/// shape is reachable: copy-up batches (`Commit` frames from writes over
/// lower files), whiteout creation (unlink of lower files), opaque
/// directories (mkdir over a whiteout), staged renames, and symlinks.
#[derive(Debug, Clone)]
enum OvOp {
    Write(String, Vec<u8>),
    Unlink(String),
    Mkdir(String),
    Rename(String, String),
    Symlink(String, String),
    Chmod(String, u16),
    Rmdir(String),
}

fn gen_ov_op(rng: &mut Rng) -> OvOp {
    let dir = ["/d0", "/d1", "/d2"][rng.below(3) as usize];
    let name = NAMES[rng.below(6) as usize];
    let file = format!("{dir}/{name}");
    match rng.below(100) {
        0..=39 => {
            let len = 1 + rng.below(40) as usize;
            OvOp::Write(file, vec![rng.below(256) as u8; len])
        }
        40..=54 => OvOp::Unlink(file),
        55..=64 => OvOp::Mkdir(format!("{dir}/{}", SUBS[rng.below(3) as usize])),
        65..=79 => {
            let to = format!(
                "{}/{}",
                ["/d0", "/d1", "/d2"][rng.below(3) as usize],
                NAMES[rng.below(6) as usize]
            );
            OvOp::Rename(file, to)
        }
        80..=86 => OvOp::Symlink(file, format!("{dir}/l{}", rng.below(3))),
        87..=93 => OvOp::Chmod(file, 0o600 + rng.below(64) as u16),
        _ => OvOp::Rmdir(format!("{dir}/{}", SUBS[rng.below(3) as usize])),
    }
}

fn apply_ov_op(ov: &yanc_vfs::Overlay, op: &OvOp) -> VfsResult<()> {
    let root = Credentials::root();
    match op {
        OvOp::Write(p, data) => ov.write_file(p, data, &root),
        OvOp::Unlink(p) => ov.unlink(p, &root),
        OvOp::Mkdir(p) => ov.mkdir(p, Mode::DIR_DEFAULT, &root),
        OvOp::Rename(f, t) => ov.rename(f, t, &root),
        OvOp::Symlink(t, l) => ov.symlink(t, l, &root),
        OvOp::Chmod(p, m) => ov.chmod(p, Mode(*m), &root),
        OvOp::Rmdir(p) => ov.rmdir(p, &root),
    }
}

/// A journaled base + pre-populated lower tree and a view over it.
fn overlay_world() -> (Arc<Filesystem>, yanc_vfs::Overlay) {
    let fs = Arc::new(Filesystem::builder().shards(1).dcache(false).build());
    fs.enable_journal();
    let root = Credentials::root();
    for d in ["/d0", "/d1", "/d2"] {
        fs.mkdir_all(&format!("/base{d}"), Mode::DIR_DEFAULT, &root)
            .unwrap();
        for n in &NAMES[..3] {
            fs.write_file(
                &format!("/base{d}/{n}"),
                format!("lower-{n}").as_bytes(),
                &root,
            )
            .unwrap();
        }
    }
    let ov = yanc_vfs::Overlay::new(fs.clone(), &["/base"], "/staging");
    ov.ensure_upper(&root).unwrap();
    (fs, ov)
}

/// Crash-at-every-frame over a 200-op overlay history and the commit of
/// what it staged. Overlay mutations are multi-record transactions (copy-up
/// chains, whiteout pairs), so the journal is dense with `Commit` frames;
/// every frame-boundary cut must restore deterministically to a
/// structurally sound tree, and cuts that land on overlay-op boundaries
/// must reproduce the op-boundary digest.
#[test]
fn overlay_history_crashes_at_every_frame_boundary() {
    let (fs, ov) = overlay_world();
    let mut rng = Rng::new(0x007e_11a7);
    let mut digests = HashMap::new();
    digests.insert(fs.journal_stats().bytes as usize, fs.tree_digest());
    for _ in 0..200 {
        let _ = apply_ov_op(&ov, &gen_ov_op(&mut rng));
        digests.insert(fs.journal_stats().bytes as usize, fs.tree_digest());
    }
    ov.commit(&Credentials::root()).unwrap();
    digests.insert(fs.journal_stats().bytes as usize, fs.tree_digest());
    let bytes = fs.journal_bytes();
    assert_eq!((bytes.len(), fnv64(&bytes)), GOLDEN_OVERLAY_LOG);
    let frames = scan_frames(&bytes);
    let mut op_boundaries = 0usize;
    for f in &frames {
        let cut = &bytes[..f.end];
        let (fsr, report) = restore(cut);
        assert_eq!(report.tail_dropped_bytes, 0);
        fsr.check_invariants()
            .unwrap_or_else(|e| panic!("overlay restore at byte {} broke invariants: {e}", f.end));
        if let Some(&d) = digests.get(&f.end) {
            op_boundaries += 1;
            assert_eq!(
                fsr.tree_digest(),
                d,
                "restore at overlay-op boundary (byte {}) diverged",
                f.end
            );
        } else {
            let (fsr2, report2) = restore(cut);
            assert_eq!(report, report2);
            assert_eq!(fsr.tree_digest(), fsr2.tree_digest());
        }
    }
    assert!(
        op_boundaries > 100,
        "most frames should end overlay ops, got {op_boundaries}"
    );
}

/// THE overlay durability claim: a view commit is one journal frame, so a
/// crash anywhere inside it yields the complete pre-commit world and a
/// crash after it yields the complete post-commit world — never a base
/// tree with half a view merged in.
#[test]
fn mid_commit_cut_is_all_or_nothing() {
    let (fs, ov) = overlay_world();
    let root = Credentials::root();
    // A staged view touching several directories: new files, an
    // overwrite, a whiteout, an opaque-ish subtree and a staged rename.
    ov.write_file("/d0/a", b"rewritten\n", &root).unwrap();
    ov.write_file("/d1/fresh", b"born in the view\n", &root)
        .unwrap();
    ov.unlink("/d2/b", &root).unwrap();
    ov.mkdir("/d0/s0", Mode::DIR_DEFAULT, &root).unwrap();
    ov.write_file("/d0/s0/inner", b"nested\n", &root).unwrap();
    ov.rename("/d1/c", "/d2/c2", &root).unwrap();

    let pre_digest = fs.tree_digest();
    let pre_bytes = fs.journal_stats().bytes as usize;
    let report = ov.commit(&root).unwrap();
    assert!(report.records >= 6, "commit too small to torture");
    let post_digest = fs.tree_digest();
    let bytes = fs.journal_bytes();

    // The commit appended exactly ONE frame.
    let commit_frames: Vec<_> = scan_frames(&bytes)
        .into_iter()
        .filter(|f| f.start >= pre_bytes)
        .collect();
    assert_eq!(
        commit_frames.len(),
        1,
        "a view commit must be a single journal frame"
    );
    let f = &commit_frames[0];
    assert_eq!(f.end, bytes.len());

    // Every cut inside the frame restores the complete pre-commit world.
    let span = f.end - f.start;
    for cut in [
        f.start,
        f.start + 1,
        f.start + span / 3,
        f.start + span / 2,
        f.end - 1,
    ] {
        let (fsr, _) = restore(&bytes[..cut]);
        assert_eq!(
            fsr.tree_digest(),
            pre_digest,
            "cut at byte {cut} (inside the commit frame) leaked a partial commit"
        );
        // Spot-check the tell-tale names: staged state intact, base
        // untouched — not merely digest-equal.
        assert_eq!(fsr.read_to_string("/base/d0/a", &root).unwrap(), "lower-a");
        assert!(fsr.exists("/base/d2/b", &root));
        assert_eq!(
            fsr.read_to_string("/staging/d0/a", &root).unwrap(),
            "rewritten\n"
        );
    }
    // The complete frame restores the complete post-commit world.
    let (fsr, _) = restore(&bytes);
    assert_eq!(fsr.tree_digest(), post_digest);
    assert_eq!(
        fsr.read_to_string("/base/d0/a", &root).unwrap(),
        "rewritten\n"
    );
    assert_eq!(fsr.read_to_string("/base/d2/c2", &root).unwrap(), "lower-c");
    assert!(!fsr.exists("/base/d2/b", &root));
    assert!(!fsr.exists("/base/d1/c", &root));
    assert!(fsr.readdir("/staging", &root).unwrap().is_empty());
}

// ----------------------------------------------------------------------
// E23: warm restart vs E19 cold restart
// ----------------------------------------------------------------------

fn topology_fingerprint(yfs: &YancFs) -> String {
    let mut links = Vec::new();
    for sw in yfs.list_switches().unwrap() {
        for port in yfs.list_ports(&sw).unwrap() {
            if let Ok(Some((peer, pport))) = yfs.peer(&sw, port) {
                links.push(format!("{sw}:{port}->{peer}:{pport}"));
            }
        }
    }
    links.sort();
    links.join("\n")
}

fn topod_factory(ctx: &ProcessCtx) -> YancResult<Box<dyn YancApp>> {
    Ok(Box::new(TopologyDaemon::new(ctx.yfs.clone())?) as Box<dyn YancApp>)
}

fn proc_u64(fs: &Filesystem, path: &str) -> u64 {
    fs.read_to_string(path, &Credentials::root())
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

/// E23. Cold restart (E19) rebuilds `/net` by re-running discovery: every
/// switch dir, port file and flow re-created through the full syscall path.
/// Warm restart replays the journal: one accounted syscall per surviving
/// record, snapshot install free. The warm path must be strictly cheaper,
/// deterministic across two restores, and pinned by `/net/.proc` counters.
#[test]
fn warm_restart_replays_fewer_syscalls_than_cold() {
    // --- Cold reference: the E19 scenario, built from nothing. ---
    let cold_total = {
        let mut rt = yanc_driver::Runtime::new();
        build_line(&mut rt, 3, Version::V1_3);
        rt.yfs.enable_introspection().unwrap();
        let mut sup = Supervisor::new(rt.yfs.clone()).unwrap();
        sup.spawn(ProcessSpec::new("topod"), topod_factory).unwrap();
        settle_supervised(&mut rt, &mut sup);
        proc_u64(rt.yfs.filesystem(), "/net/.proc/scopes/net/total")
    };

    // --- Journaled run, crashed by the PR-2 fault injector. ---
    let fs = Arc::new(Filesystem::new());
    fs.enable_journal();
    fs.set_journal_snapshot_every(16);
    let mut rt = yanc_driver::Runtime::with_fs(fs.clone());
    build_line(&mut rt, 3, Version::V1_3);
    rt.yfs.enable_introspection().unwrap();
    let mut sup = Supervisor::new(rt.yfs.clone()).unwrap();
    sup.spawn(ProcessSpec::new("topod"), topod_factory).unwrap();
    sup.faults.at(2, Fault::CrashController);
    settle_supervised(&mut rt, &mut sup);
    assert!(sup.take_controller_crash(), "crash fault must fire");

    // Post-convergence mutations that land *after* the last auto-snapshot:
    // the warm restart must replay these as its suffix — snapshot install
    // alone costs zero syscalls and would make the comparison vacuous.
    let root = Credentials::root();
    fs.write_file("/net/ctl.generation", b"7\n", &root).unwrap();
    fs.write_file("/net/ctl.note", b"pre-crash marker\n", &root)
        .unwrap();

    let pre_digest = fs.tree_digest();
    let pre_topo = topology_fingerprint(&rt.yfs);
    assert!(!pre_topo.is_empty());
    let stats = fs.journal_stats();
    assert!(
        stats.snapshots >= 2,
        "supervisor ticks must drive auto-snapshots (got {})",
        stats.snapshots
    );
    // The crash: the world is dropped; only the journal bytes survive.
    let bytes = fs.journal_bytes();
    drop(sup);
    drop(rt);
    drop(fs);

    // --- Warm restart. ---
    let (warm, report) = Filesystem::restore_from_journal(&bytes, Limits::default(), 4, true);
    assert!(report.snapshot_used, "warm restart starts from a snapshot");
    assert_eq!(
        warm.tree_digest(),
        pre_digest,
        "tree must be byte-identical"
    );
    let warm = Arc::new(warm);
    let wyfs = YancFs::new(warm.clone(), "/net");
    assert_eq!(topology_fingerprint(&wyfs), pre_topo);

    // Pin the syscall claim with `.proc` counters, not test-side arithmetic.
    warm.mount_proc("/net/.proc").unwrap();
    let warm_syscalls = proc_u64(&warm, "/net/.proc/vfs/journal/replay_syscalls");
    assert_eq!(warm_syscalls, report.replay_syscalls);
    assert_eq!(
        proc_u64(&warm, "/net/.proc/vfs/journal/replayed"),
        report.records_replayed
    );
    assert!(warm_syscalls > 0);
    assert!(
        warm_syscalls < cold_total,
        "warm restart ({warm_syscalls} syscalls) must beat the E19 cold \
         restart ({cold_total} syscalls)"
    );
    // Visible under --nocapture; the EXPERIMENTS.md E23 table comes from here.
    println!(
        "E23: cold={cold_total} warm={warm_syscalls} replayed={} snapshots={} journal_bytes={}",
        report.records_replayed,
        stats.snapshots,
        bytes.len()
    );

    // Warm restart is deterministic: a second replay of the same bytes is
    // identical in both outcome and accounting.
    let (warm2, report2) = Filesystem::restore_from_journal(&bytes, Limits::default(), 4, true);
    assert_eq!(report, report2);
    assert_eq!(warm2.tree_digest(), pre_digest);
}

/// E23 in counts, on a 100-flow switch: journaling never changes what a
/// mutation is charged, a snapshot installs for free, and replaying the
/// raw log costs one syscall per record — fewer than rebuilding the same
/// world by path, which is what a cold restart re-running discovery pays.
/// And journaling is invisible altogether: the extended torture history
/// leaves the same tree, the same per-kind syscall counts and the same
/// notify event sequence with the journal on as with it off.
#[test]
fn journaled_install_is_charged_the_same_and_replays_cheaper_than_a_cold_build() {
    let observe = |journal: bool| {
        let fs = new_fs();
        if journal {
            fs.enable_journal();
        }
        let watch = fs.watch("/").subtree().mask(EventMask::ALL);
        let watch = watch.register().unwrap();
        let results: Vec<_> = build_history(gen_op_ext, 0xD15C_0005, 500)
            .iter()
            .map(|op| apply_op(&fs, op))
            .collect();
        let events: Vec<_> = watch
            .receiver()
            .try_iter()
            .map(|e| (e.kind, e.path, e.name))
            .collect();
        assert!(events.len() > 500, "the watch saw the history");
        let counts = fs.counters().snapshot();
        (
            results,
            fs.tree_digest(),
            fs.content_digest(),
            counts,
            events,
        )
    };
    assert!(observe(true) == observe(false), "journaling left a trace");

    const N: u64 = 100;
    let world = |journal: bool, batched: bool| -> YancFs {
        let fs = Filesystem::builder().build();
        if journal {
            fs.enable_journal();
        }
        let yfs = YancFs::init(Arc::new(fs), "/net").unwrap();
        yfs.create_switch("sw0", 0x22, 0, 0, 0, 1, None).unwrap();
        let spec = |i: u64| FlowSpec {
            m: FlowMatch {
                in_port: Some(1),
                tp_dst: Some(i as u16),
                ..Default::default()
            },
            actions: vec![Action::out(2)],
            priority: 900,
            ..Default::default()
        };
        if batched {
            let flows = yfs.open_flows_dir("sw0").unwrap();
            for i in 0..N {
                yfs.write_flow_at(flows, &format!("d{i}"), &spec(i))
                    .unwrap();
            }
            yfs.filesystem().close(flows, yfs.creds()).unwrap();
        } else {
            // By path is what a shell pays: one call per field file.
            let mut sh = Shell::new(yfs.filesystem().clone());
            for i in 0..N {
                let dir = format!("/net/switches/sw0/flows/d{i}");
                shell_install_flow(&mut sh, &dir, &spec(i));
            }
        }
        yfs
    };
    let restore =
        |bytes: &[u8]| Filesystem::restore_from_journal(bytes, Limits::default(), 8, true);

    let cold_by_path = world(false, false).filesystem().counters().total();
    let cold_batched = world(false, true).filesystem().counters().total();
    let on = world(true, true);
    let fs = on.filesystem();
    let records = fs.journal_stats().records;
    // Per flow: 20 syscalls by path (the shell's 5 + 3·files, E4), 6
    // batched (E21), 9 journal records; the constants are `init` and the
    // switch skeleton (one batch: 4 syscalls, one record per file).
    assert_eq!(
        (cold_by_path, cold_batched, records),
        (20 + 20 * N, 22 + 6 * N, 14 + 9 * N)
    );
    assert_eq!(
        fs.counters().total(),
        cold_batched,
        "journal changed the accounting"
    );

    // Raw log: every record replays, one accounted syscall each.
    let (replayed, report) = restore(&fs.journal_bytes());
    assert_eq!(replayed.tree_digest(), fs.tree_digest());
    assert_eq!(
        (report.records_replayed, report.replay_syscalls),
        (records, records)
    );
    assert!(
        records < cold_by_path,
        "replay must beat the path-addressed rebuild"
    );

    // Snapshot + compaction: the same tree, installed for free.
    let live = fs.tree_digest();
    fs.journal_snapshot();
    assert!(fs.journal_compact() > 0);
    let (warm, report) = restore(&fs.journal_bytes());
    assert!(report.snapshot_used);
    assert_eq!(warm.tree_digest(), live, "restore diverged");
    assert_eq!(
        report.replay_syscalls, 0,
        "snapshot install must be syscall-free"
    );
}
