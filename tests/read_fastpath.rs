//! E25 — the optimistic lock-free read path, proven deterministically.
//!
//! Wall-clock on a 1-core CI host is noise, so the tentpole claim —
//! warm hot-path reads stop taking shard locks — is pinned the way E4/
//! E5/E22 pin theirs: against counters that cannot lie. The filesystem
//! counts every shard-lock acquisition (read and write) on the inode/
//! handle tables; a warm `stat` must move that counter by **zero**.
//!
//! Layout:
//! * zero-lock warm stat (the tier-1 pin), via the in-process accessors;
//! * per-op warm lock budgets on the deterministic 1-shard config;
//! * `/net/.proc/vfs/readpath/` existence + consistency (the proc files
//!   are the observable surface, but *rendering* them takes locks of its
//!   own, so the pins above sample the accessors);
//! * the retry storm: real threads, a writer hammering one directory,
//!   readers converging through the bounded retry ladder — fallbacks
//!   observed, total retries bounded, no livelock;
//! * lockfree-off twin behaves identically but pays locks (the E25
//!   control arm);
//! * the 1k-flow `stat` sweep over a live `/net` switch: inode-table
//!   reads with and without the dentry cache (E22), shard locks with and
//!   without the read path, and the deterministic chmod/stat storm (E25).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use yanc::{FlowSpec, YancFs};
use yanc_openflow::{Action, FlowMatch};
use yanc_vfs::{Credentials, Errno, Filesystem, Mode, OpenFlags};

fn root() -> Credentials {
    Credentials::root()
}

/// The tier-1 pin: a warm `stat` acquires **zero** shard locks.
#[test]
fn warm_stat_takes_zero_locks() {
    let fs = Filesystem::new();
    assert!(fs.readpath_enabled());
    let creds = root();
    fs.mkdir_all("/hot/dir", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/hot/dir/f", b"payload", &creds).unwrap();

    // First stat: locked fallback — resolves, reads under the shard read
    // lock, and publishes the attribute block on the way out.
    fs.stat("/hot/dir/f", &creds).unwrap();

    let locks0 = fs.lock_acquisitions();
    let s0 = fs.readpath_stats();
    for _ in 0..10 {
        let st = fs.stat("/hot/dir/f", &creds).unwrap();
        assert_eq!(st.size, 7);
        assert_eq!(st.mode, Mode(0o644));
    }
    let locks1 = fs.lock_acquisitions();
    let s1 = fs.readpath_stats();

    assert_eq!(
        locks1 - locks0,
        0,
        "warm stat took shard locks: the optimistic path regressed"
    );
    assert_eq!(
        s1.optimistic_hits - s0.optimistic_hits,
        10,
        "every warm stat must be served by the optimistic path"
    );
    assert_eq!(s1.optimistic_retries, s0.optimistic_retries);
    assert_eq!(s1.fallbacks, s0.fallbacks);
}

/// Warm lock budgets per hot op, pinned on the 1-shard deterministic
/// config (shards only change lock spreading, never semantics — and on
/// one shard the budget is schedule-independent).
#[test]
fn warm_read_ops_have_pinned_lock_budgets() {
    let fs = Filesystem::builder().shards(1).build();
    let creds = root();
    fs.mkdir_all("/b/d", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/b/d/f", b"0123456789", &creds).unwrap();
    fs.write_file("/b/d/g", b"x", &creds).unwrap();
    let fd = fs.open("/b/d/f", OpenFlags::read_only(), &creds).unwrap();
    let dir = fs.open_dir("/b/d", &creds).unwrap();

    // (op, warm lock budget). Each loop first runs the op once to warm
    // (publishing blocks through the locked path where needed), then
    // measures a second run. `stat`/`fstat` drop to zero; `pread` keeps
    // exactly the one lock that copies file bytes; `readdir` keeps
    // exactly the one lock that snapshots the entry list (per-entry
    // kinds come from the attribute blocks) — by descriptor or by path,
    // whose warm dcache walk adds none.
    type WarmCase<'a> = (&'a str, Box<dyn Fn() + 'a>, u64);
    let cases: [WarmCase; 5] = [
        (
            "stat",
            Box::new(|| assert_eq!(fs.stat("/b/d/f", &root()).unwrap().size, 10)),
            0,
        ),
        (
            "fstat",
            Box::new(|| assert_eq!(fs.fstat(fd).unwrap().size, 10)),
            0,
        ),
        (
            "pread",
            Box::new(|| assert_eq!(fs.pread(fd, 0, 4).unwrap(), b"0123")),
            1,
        ),
        (
            "readdir_fd",
            Box::new(|| assert_eq!(fs.readdir_fd(dir).unwrap().len(), 2)),
            1,
        ),
        (
            "readdir",
            Box::new(|| assert_eq!(fs.readdir("/b/d", &root()).unwrap().len(), 2)),
            1,
        ),
    ];
    for (name, op, budget) in &cases {
        op(); // warm
        let locks0 = fs.lock_acquisitions();
        op();
        let got = fs.lock_acquisitions() - locks0;
        assert_eq!(
            got, *budget,
            "warm {name}: took {got} shard locks, budget is {budget}"
        );
    }
    fs.close(fd, &creds).unwrap();
    fs.close(dir, &creds).unwrap();
}

/// The `/net/.proc/vfs/readpath/` surface: files exist, render integers,
/// and agree with the accessors. Rendering a proc file takes locks of
/// its own (the proc read is an ordinary `open`/`read`/`close`), so the
/// consistency law is monotonic: a rendered value is never *ahead* of
/// the accessor sampled afterwards.
#[test]
fn proc_readpath_files_exist_and_agree_with_accessors() {
    let fs = Filesystem::new();
    fs.mount_proc("/net/.proc").unwrap();
    let creds = root();
    fs.mkdir_all("/p/d", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/p/d/f", b"v", &creds).unwrap();
    for _ in 0..3 {
        fs.stat("/p/d/f", &creds).unwrap();
    }
    let read = |name: &str| {
        fs.read_to_string(&format!("/net/.proc/vfs/readpath/{name}"), &root())
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(read("enabled"), 1);
    assert_eq!(read("retry_limit"), 3);
    let rendered_hits = read("optimistic_hits");
    let s = fs.readpath_stats();
    assert!(rendered_hits >= 2, "warm stats should have hit");
    assert!(
        rendered_hits <= s.optimistic_hits,
        "a rendered counter ran ahead of the live accessor"
    );
    assert!(read("lock_acquisitions") > 0);
    assert!(read("lock_acquisitions") <= fs.lock_acquisitions());
    // Sampled back-to-back (no proc reads in between), the stats struct
    // and the accessor expose the same counter.
    assert_eq!(
        fs.readpath_stats().lock_acquisitions,
        fs.lock_acquisitions()
    );
    // The remaining counters render as integers (zero is fine).
    for f in [
        "optimistic_retries",
        "fallbacks",
        "attr_fills",
        "handle_publishes",
    ] {
        let _ = read(f);
    }
}

/// The deterministic fallback ladder: a mutation anywhere in the shard
/// invalidates warm blocks, so the next stat is a *fallback* (counted),
/// which refills, after which stats are hits again. This is the
/// single-threaded retry oracle — no schedules, no sleeps.
#[test]
fn invalidation_forces_exactly_one_fallback_then_rewarms() {
    let fs = Filesystem::builder().shards(1).build();
    fs.mount_proc("/net/.proc").unwrap();
    let creds = root();
    fs.mkdir_all("/o/d", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/o/d/f", b"v", &creds).unwrap();
    fs.stat("/o/d/f", &creds).unwrap(); // warm

    let s0 = fs.readpath_stats();
    fs.chmod("/o/d/f", Mode(0o600), &creds).unwrap(); // bumps the shard seq
    fs.stat("/o/d/f", &creds).unwrap(); // stale stamp → fallback + refill
    let s1 = fs.readpath_stats();
    assert_eq!(
        s1.fallbacks - s0.fallbacks,
        1,
        "a post-mutation stat must take exactly one locked fallback"
    );
    let locks0 = fs.lock_acquisitions();
    fs.stat("/o/d/f", &creds).unwrap(); // rewarmed: optimistic again
    assert_eq!(fs.lock_acquisitions() - locks0, 0);
    assert_eq!(fs.readpath_stats().optimistic_hits, s1.optimistic_hits + 1);
    // The pinned proc observable from the issue: fallbacks > 0.
    let fallbacks: u64 = fs
        .read_to_string("/net/.proc/vfs/readpath/fallbacks", &creds)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(fallbacks > 0);
}

/// The retry storm: one writer hammers a single directory with chmod/
/// rename while readers spin on stat. Readers must converge through the
/// bounded ladder — every observed result is a legal state, total
/// retries stay under the hard per-op ceiling, and the run terminates
/// (no livelock). Fallbacks are then pinned > 0 via proc.
#[test]
fn retry_storm_converges_with_bounded_retries() {
    let fs = Arc::new(Filesystem::builder().build());
    fs.mount_proc("/net/.proc").unwrap();
    let creds = root();
    fs.mkdir_all("/storm/d", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/storm/d/f", b"v", &creds).unwrap();
    fs.stat("/storm/d/f", &creds).unwrap(); // warm before the storm

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let fs = Arc::clone(&fs);
        std::thread::spawn(move || {
            let creds = Credentials::root();
            for i in 0..400 {
                let mode = if i % 2 == 0 { Mode(0o600) } else { Mode(0o644) };
                fs.chmod("/storm/d/f", mode, &creds).unwrap();
                if i % 16 == 0 {
                    fs.rename("/storm/d/f", "/storm/d/g", &creds).unwrap();
                    fs.rename("/storm/d/g", "/storm/d/f", &creds).unwrap();
                }
                std::thread::yield_now();
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let fs = Arc::clone(&fs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let creds = Credentials::root();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match fs.stat("/storm/d/f", &creds) {
                        // Mid-rename the name legally vanishes; any other
                        // errno or a torn mode is a broken read path.
                        Ok(st) => {
                            assert!(
                                st.mode == Mode(0o600) || st.mode == Mode(0o644),
                                "torn mode {:?}",
                                st.mode
                            );
                            assert_eq!(st.size, 1);
                        }
                        Err(e) => assert_eq!(e.errno, Errno::ENOENT),
                    }
                    ops += 1;
                }
                ops
            })
        })
        .collect();

    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let reader_ops: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(reader_ops > 0);

    // Bounded ladder: each optimistic attempt retries at most
    // retry_limit + 1 times before the locked fallback ends the op.
    let retry_limit: u64 = fs
        .read_to_string("/net/.proc/vfs/readpath/retry_limit", &creds)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let s = fs.readpath_stats();
    let attr_reads = s.optimistic_hits + s.fallbacks;
    assert!(
        s.optimistic_retries <= attr_reads * (retry_limit + 1),
        "retry ceiling breached: {} retries over {} reads (limit {})",
        s.optimistic_retries,
        attr_reads,
        retry_limit
    );
    // The storm actually exercised the ladder's fallback rung — every
    // writer mutation invalidated the shard, so warm readers had to
    // re-fill through the locked path.
    let fallbacks: u64 = fs
        .read_to_string("/net/.proc/vfs/readpath/fallbacks", &creds)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(fallbacks > 0, "the storm never forced a locked fallback");
    fs.check_invariants().unwrap();
}

/// The control arm: a lockfree-off filesystem answers identically but
/// pays at least one shard lock per warm stat, and its optimistic
/// counters stay at zero. (Part 1d in the linearizability harness does
/// the full paired replay; this pins the cost asymmetry.)
#[test]
fn disabled_readpath_stats_identically_but_pays_locks() {
    let on = Filesystem::new();
    let off = Filesystem::builder().readpath(false).build();
    assert!(on.readpath_enabled());
    assert!(!off.readpath_enabled());
    let creds = root();
    for f in [&on, &off] {
        f.mkdir_all("/c/d", Mode::DIR_DEFAULT, &creds).unwrap();
        f.write_file("/c/d/f", b"same", &creds).unwrap();
        f.stat("/c/d/f", &creds).unwrap(); // warm
    }
    assert_eq!(
        on.stat("/c/d/f", &creds).unwrap(),
        off.stat("/c/d/f", &creds).unwrap()
    );
    let (l_on, l_off) = (on.lock_acquisitions(), off.lock_acquisitions());
    for _ in 0..5 {
        on.stat("/c/d/f", &creds).unwrap();
        off.stat("/c/d/f", &creds).unwrap();
    }
    assert_eq!(on.lock_acquisitions() - l_on, 0);
    assert_eq!(
        off.lock_acquisitions() - l_off,
        5,
        "the locked path takes exactly one shard read lock per warm stat"
    );
    let s = off.readpath_stats();
    assert_eq!(
        (
            s.optimistic_hits,
            s.fallbacks,
            s.attr_fills,
            s.handle_publishes
        ),
        (0, 0, 0, 0),
        "a disabled read path must stay completely inert"
    );
}

// ---------------------------------------------------------------------
// The 1k-flow `stat` sweep over `/net/switches/sw0/flows/d<i>` (E22 +
// E25): what the two read-side caches save on the paths the controller
// actually walks, in inode-table reads and shard locks.
// ---------------------------------------------------------------------

const SWEEP: usize = 1000;

/// A switch with [`SWEEP`] installed flows on the given filesystem flavour.
fn flow_world(dcache: bool, readpath: bool) -> YancFs {
    let fs = Filesystem::builder()
        .dcache(dcache)
        .readpath(readpath)
        .build();
    let yfs = YancFs::init(Arc::new(fs), "/net").unwrap();
    yfs.create_switch("sw0", 0x25, 0, 0, 0, 1, None).unwrap();
    let flows = yfs.open_flows_dir("sw0").unwrap();
    for i in 0..SWEEP {
        let spec = FlowSpec {
            m: FlowMatch {
                in_port: Some(1),
                tp_dst: Some(i as u16),
                ..Default::default()
            },
            actions: vec![Action::out(2)],
            priority: 900,
            ..Default::default()
        };
        yfs.write_flow_at(flows, &format!("d{i}"), &spec).unwrap();
    }
    yfs.filesystem().close(flows, yfs.creds()).unwrap();
    yfs
}

/// What one sweep moved.
#[derive(Debug, PartialEq, Eq)]
struct SweepCost {
    table_reads: u64,
    locks: u64,
    syscalls: u64,
    optimistic_hits: u64,
    fallbacks: u64,
}

/// Stat every flow directory once.
fn stat_sweep(yfs: &YancFs) -> SweepCost {
    let fs = yfs.filesystem();
    let (reads, locks) = (fs.inode_table_reads(), fs.lock_acquisitions());
    let (sys, rp) = (fs.counters().total(), fs.readpath_stats());
    for i in 0..SWEEP {
        fs.stat(&format!("/net/switches/sw0/flows/d{i}"), yfs.creds())
            .unwrap();
    }
    let rp1 = fs.readpath_stats();
    SweepCost {
        table_reads: fs.inode_table_reads() - reads,
        locks: fs.lock_acquisitions() - locks,
        syscalls: fs.counters().total() - sys,
        optimistic_hits: rp1.optimistic_hits - rp.optimistic_hits,
        fallbacks: rp1.fallbacks - rp.fallbacks,
    }
}

/// E22: a cold depth-5 stat walks every component through the inode
/// table; a warm one is served by dentry-cache hits and touches the
/// table only for the final stat itself. Read path off on both arms, so
/// the dentry cache is the only difference (with it on, the warm sweep
/// reads the table zero times — pinned by the E25 sweep below).
#[test]
fn e22_dcache_cuts_inode_table_reads_on_a_1k_flow_sweep() {
    let n = SWEEP as u64;
    let off = flow_world(false, false);
    let cold = stat_sweep(&off);

    let on = flow_world(true, false);
    stat_sweep(&on); // fills the cache
    let warm = stat_sweep(&on);

    // A chmod on the flows directory bumps its generation: the d<i>
    // entries refill, the prefix above them stays warm.
    on.filesystem()
        .chmod("/net/switches/sw0/flows", Mode::DIR_DEFAULT, on.creds())
        .unwrap();
    let post = stat_sweep(&on);

    assert_eq!(cold.table_reads, 11 * n, "cold: 11 inode-table reads/stat");
    assert_eq!(warm.table_reads, n, "warm: the final stat only");
    assert_eq!(post.table_reads, 3 * n, "refill of one bumped level");
    // The cache is transparent to the accounting model: a stat is one
    // charged syscall whether it hit or missed.
    assert_eq!((cold.syscalls, warm.syscalls, post.syscalls), (n, n, n));
}

/// E25: with a warm dcache the locked path still takes exactly one
/// shard read lock per stat; the optimistic path takes zero, and every
/// invalidation costs exactly one locked refill.
#[test]
fn e25_warm_1k_flow_sweep_is_lock_free_and_storm_falls_back_once_per_step() {
    let n = SWEEP as u64;
    let off = flow_world(true, false);
    stat_sweep(&off);
    let locked = stat_sweep(&off);
    assert_eq!((locked.locks, locked.optimistic_hits), (n, 0));

    let on = flow_world(true, true);
    stat_sweep(&on); // fills the attribute blocks through the fallback
    let warm = stat_sweep(&on);
    assert_eq!(
        warm,
        SweepCost {
            table_reads: 0,
            locks: 0,
            syscalls: locked.syscalls,
            optimistic_hits: n,
            fallbacks: 0,
        },
        "every warm stat must be optimistic, lock-free and charged as before"
    );

    // chmod one flow dir: its shard's seqlock moves, so d0 and every
    // flow dir sharing that shard (one in `shard_count`, inode numbers
    // being dealt round-robin) pay one locked refill; the sweep after is
    // fully re-warmed.
    let fs = on.filesystem();
    let d0 = "/net/switches/sw0/flows/d0";
    fs.chmod(d0, Mode(0o700), on.creds()).unwrap();
    let post = stat_sweep(&on);
    let refills = n / fs.shard_count() as u64;
    assert_eq!(
        post,
        SweepCost {
            table_reads: refills,
            locks: refills,
            syscalls: n,
            optimistic_hits: n - refills,
            fallbacks: refills,
        }
    );
    assert_eq!(stat_sweep(&on).locks, 0, "one refill sweep re-warms");

    // Deterministic retry storm: every chmod invalidates the flow's
    // shard, so the following stat is exactly one locked fallback and
    // serves exactly the mode just written. Retries need a concurrent
    // writer (`retry_storm_converges_with_bounded_retries`); alone, the
    // ladder never spins.
    const STORM: u64 = 200;
    let s0 = fs.readpath_stats();
    for i in 0..STORM {
        let mode = if i % 2 == 0 { Mode(0o700) } else { Mode(0o755) };
        fs.chmod(d0, mode, on.creds()).unwrap();
        let st = fs.stat(d0, on.creds()).unwrap();
        assert_eq!(st.mode, mode, "storm served a stale generation");
    }
    let s1 = fs.readpath_stats();
    assert_eq!(s1.fallbacks - s0.fallbacks, STORM);
    assert_eq!(s1.optimistic_retries - s0.optimistic_retries, 0);
}
