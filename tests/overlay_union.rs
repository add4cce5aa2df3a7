//! Overlay/union views end to end: copy-on-write tenant mounts composed
//! with the rest of the kernel — namespaces, `/net/.proc/vfs/mounts`,
//! the dentry cache across an atomic commit, per-view notify routing,
//! rctl charging, and supervisor confinement (`overlay_confined`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yanc::{YancApp, YancResult};
use yanc_apps::WhatIf;
use yanc_driver::Runtime;
use yanc_harness::settle_supervised;
use yanc_init::{ProcessCtx, ProcessSpec, ProcessState, RestartPolicy, Supervisor};
use yanc_vfs::{
    AppLimits, Credentials, Errno, EventMask, Filesystem, Gid, Limits, Mode, Namespace, Overlay,
    OverlayStats, Uid,
};

fn world() -> Arc<Filesystem> {
    let fs = Arc::new(Filesystem::builder().shards(4).build());
    let r = Credentials::root();
    fs.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &r)
        .unwrap();
    fs.write_file("/net/switches/sw1/id", b"0x1\n", &r).unwrap();
    fs.write_file("/net/switches/sw1/desc", b"edge switch\n", &r)
        .unwrap();
    fs.mkdir_all("/views", Mode::DIR_DEFAULT, &r).unwrap();
    fs
}

// ---------------------------------------------------------------------
// /net/.proc/vfs/mounts: every registered namespace renders its table
// ---------------------------------------------------------------------

#[test]
fn proc_mounts_lists_overlay_and_bind_rows_per_namespace() {
    let fs = world();
    let r = Credentials::root();
    fs.mount_proc("/net/.proc").unwrap();

    let ov1 = Overlay::new(fs.clone(), &["/net/switches"], "/views/t1");
    ov1.ensure_upper(&r).unwrap();
    let ns1 = Namespace::new(fs.clone())
        .readonly()
        .bind_ro("/audit", "/net")
        .overlay("/net/switches", &ov1);
    ns1.register_mounts("t1");

    let ov2 = Overlay::new(fs.clone(), &["/net/switches"], "/views/t2");
    ov2.ensure_upper(&r).unwrap();
    let ns2 = Namespace::new(fs.clone()).overlay("/net/switches", &ov2);
    ns2.register_mounts("t2");

    // One tenant does a copy-up; the counters are live in the table.
    ns1.write_file("/net/switches/sw1/desc", b"mine\n", &r)
        .unwrap();

    let table = fs.read_to_string("/net/.proc/vfs/mounts", &r).unwrap();
    assert!(
        table.contains("t1 /net/switches overlay /net/switches -> /views/t1"),
        "missing overlay row:\n{table}"
    );
    assert!(
        table.contains("copy_ups=1"),
        "live counters missing:\n{table}"
    );
    assert!(table.contains("t1 /audit bind_ro"), "bind row:\n{table}");
    assert!(table.contains("t2 /net/switches overlay"), "{table}");
    // Sorted by namespace name: t1's rows come before t2's.
    assert!(table.find("t1 ").unwrap() < table.find("t2 ").unwrap());
    // The write stayed in the view.
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/desc", &r).unwrap(),
        "edge switch\n"
    );
}

// ---------------------------------------------------------------------
// dcache coherence: a commit invalidates exactly what it changed
// ---------------------------------------------------------------------

/// Warm the dentry cache on the base tree (positive *and* negative
/// entries), commit a staged view that overwrites, creates and deletes
/// those very names, and assert base readers observe the new tree
/// immediately — no stale positive, no stale negative, cache still live.
#[test]
fn commit_invalidates_warm_dcache_entries() {
    let fs = world();
    let r = Credentials::root();
    fs.write_file("/net/switches/sw1/doomed", b"bye\n", &r)
        .unwrap();
    let ov = Overlay::new(fs.clone(), &["/net/switches"], "/views/t1");
    ov.ensure_upper(&r).unwrap();

    // Warm: positive entries for desc/doomed, a negative one for "born".
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/desc", &r).unwrap(),
        "edge switch\n"
    );
    assert!(fs.exists("/net/switches/sw1/doomed", &r));
    assert!(!fs.exists("/net/switches/sw1/born", &r));
    // And warm the same names through the merged view.
    assert!(ov.exists("/sw1/doomed", &r));
    assert!(!ov.exists("/sw1/born", &r));

    ov.write_file("/sw1/desc", b"rewritten\n", &r).unwrap();
    ov.write_file("/sw1/born", b"new\n", &r).unwrap();
    ov.unlink("/sw1/doomed", &r).unwrap();
    // Staging visible in the view, invisible in the base — through the
    // same warm cache.
    assert_eq!(ov.read_to_string("/sw1/desc", &r).unwrap(), "rewritten\n");
    assert!(!ov.exists("/sw1/doomed", &r));
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/desc", &r).unwrap(),
        "edge switch\n"
    );

    ov.commit(&r).unwrap();

    // Base readers see the committed tree at once: the commit batch
    // bumped the real directories' generations under the table lock.
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/desc", &r).unwrap(),
        "rewritten\n"
    );
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/born", &r).unwrap(),
        "new\n"
    );
    let e = fs.read_file("/net/switches/sw1/doomed", &r).unwrap_err();
    assert_eq!(e.errno, Errno::ENOENT);
    // The view agrees (its upper is empty again, lowers show the commit).
    assert_eq!(ov.read_to_string("/sw1/desc", &r).unwrap(), "rewritten\n");
    assert!(!ov.exists("/sw1/doomed", &r));
    assert!(fs.dcache_stats().hits > 0, "cache never served a lookup");
}

// ---------------------------------------------------------------------
// notify: staged writes fire in the view; the base fires at commit
// ---------------------------------------------------------------------

#[test]
fn notify_routes_staged_writes_to_the_view_until_commit() {
    let fs = world();
    let r = Credentials::root();
    let ov = Overlay::new(fs.clone(), &["/net/switches"], "/views/t1");
    ov.ensure_upper(&r).unwrap();

    let base_watch = fs
        .watch("/net/switches")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let view_watch = ov
        .watch("/")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();

    ov.write_file("/sw1/desc", b"draft\n", &r).unwrap();
    let view_events = view_watch.receiver().try_iter().count();
    assert!(view_events > 0, "the view watcher must see the copy-up");
    assert_eq!(
        base_watch.receiver().try_iter().count(),
        0,
        "staged writes must not leak events into the base tree"
    );

    ov.commit(&r).unwrap();
    let base_events: Vec<_> = base_watch.receiver().try_iter().collect();
    assert!(
        base_events
            .iter()
            .any(|e| e.name.as_deref() == Some("desc")),
        "commit must fire base events for the published names: {base_events:?}"
    );
}

// ---------------------------------------------------------------------
// rctl: copy-up bytes are charged to the tenant who wrote them
// ---------------------------------------------------------------------

#[test]
fn copy_up_through_a_namespace_is_charged_to_the_tenant() {
    let fs = world();
    let r = Credentials::root();
    // The tenant owns this base file (so plain POSIX lets them write it).
    fs.chown(
        "/net/switches/sw1/desc",
        Some(Uid(7001)),
        Some(Gid(7001)),
        &r,
    )
    .unwrap();
    let tenant = Credentials::user(7001, 7001);
    let ov = Overlay::new(fs.clone(), &["/net/switches"], "/views/t1");
    ov.ensure_upper(&tenant).unwrap();
    let ns = Namespace::new(fs.clone())
        .readonly()
        .overlay("/net/switches", &ov);

    fs.rctl().set_limits(
        7001,
        AppLimits {
            syscall_tokens: Some(100_000),
            ..Default::default()
        },
    );
    let before = fs.rctl().usage(7001).map(|u| u.charged).unwrap_or(0);
    ns.write_file("/net/switches/sw1/desc", b"tenant edit\n", &tenant)
        .unwrap();
    let after = fs.rctl().usage(7001).map(|u| u.charged).unwrap();
    assert!(
        after > before,
        "copy-up bytes must land on the tenant's rctl account"
    );
    assert_eq!(ov.stats().copy_ups, 1);
    // Root's base file is untouched.
    assert_eq!(
        fs.read_to_string("/net/switches/sw1/desc", &r).unwrap(),
        "edge switch\n"
    );
}

// ---------------------------------------------------------------------
// init: overlay_confined processes stage writes, the admin commits
// ---------------------------------------------------------------------

struct ViewWriter {
    ns: Namespace,
    creds: Credentials,
    writes: Arc<AtomicU64>,
}

impl YancApp for ViewWriter {
    fn name(&self) -> &str {
        "viewwriter"
    }

    fn run_once(&mut self) -> YancResult<bool> {
        if self.writes.load(Ordering::Relaxed) > 0 {
            return Ok(false);
        }
        self.ns
            .write_file("/net/apps/cfg/note", b"staged by app\n", &self.creds)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

#[test]
fn supervisor_confines_an_app_behind_an_overlay() {
    let mut rt = Runtime::new();
    rt.yfs.enable_introspection().unwrap();
    let fs = rt.yfs.filesystem().clone();
    let r = Credentials::root();
    fs.mkdir_all("/net/apps/cfg", Mode::DIR_DEFAULT, &r)
        .unwrap();
    fs.mkdir_all("/views", Mode::DIR_DEFAULT, &r).unwrap();

    let mut sup = Supervisor::new(rt.yfs.clone()).unwrap();
    let writes = Arc::new(AtomicU64::new(0));
    let writes2 = writes.clone();
    let pid = sup
        .spawn(
            ProcessSpec::new("viewwriter")
                .policy(RestartPolicy::never())
                .overlay_confined("/net", &["/net"], "/views/viewwriter"),
            move |ctx: &ProcessCtx| {
                let ns = ctx.namespace.clone().expect("overlay spec must confine");
                let app_uid = ctx.uid;
                Ok(Box::new(ViewWriter {
                    ns,
                    creds: Credentials::user(app_uid, app_uid),
                    writes: writes2.clone(),
                }) as Box<dyn YancApp>)
            },
        )
        .unwrap();
    // The app's own uid must be able to create under the merged dir.
    let uid = sup.uid_of(pid).unwrap();
    fs.chown("/net/apps/cfg", Some(Uid(uid)), Some(Gid(uid)), &r)
        .unwrap();
    settle_supervised(&mut rt, &mut sup);
    assert_eq!(sup.state(pid), Some(ProcessState::Running));
    assert_eq!(writes.load(Ordering::Relaxed), 1);

    // The write is staged in the app's private upper, not the base.
    assert_eq!(
        fs.read_to_string("/views/viewwriter/apps/cfg/note", &r)
            .unwrap(),
        "staged by app\n"
    );
    assert!(!fs.exists("/net/apps/cfg/note", &r));

    // Its mount is visible in /net/.proc/vfs/mounts under the spec name.
    let table = fs.read_to_string("/net/.proc/vfs/mounts", &r).unwrap();
    assert!(
        table.contains("viewwriter /net overlay /net -> /views/viewwriter"),
        "{table}"
    );

    // The app's credentials can commit their own staged view: every base
    // directory the commit touches is theirs.
    let ov = Overlay::new(fs.clone(), &["/net"], "/views/viewwriter");
    let app = Credentials::user(uid, uid);
    let report = ov.commit(&app).unwrap();
    assert!(report.records > 0);
    assert_eq!(
        fs.read_to_string("/net/apps/cfg/note", &r).unwrap(),
        "staged by app\n"
    );
    assert!(!fs.exists("/views/viewwriter/apps", &r), "staging cleared");
}

// ---------------------------------------------------------------------
// E24: what a tenant view costs, identically for every tenant
// ---------------------------------------------------------------------

/// N copy-on-write views over one shared 3-flow base: setup, a
/// read-through and a first write each cost an exact number of charged
/// syscalls that does not depend on which tenant pays; read-through
/// stages nothing, the first write copies up exactly once, the base is
/// never touched; one validated commit then publishes a staged flow and
/// the whole journaled history replays to the live digest.
#[test]
fn e24_view_costs_are_identical_for_every_tenant() {
    const VIEWS: usize = 50;
    let fs = Arc::new(Filesystem::builder().build());
    fs.enable_journal();
    let r = Credentials::root();
    for f in ["ssh", "web", "dns"] {
        let dir = format!("/base/switches/sw0/flows/{f}");
        fs.mkdir_all(&dir, Mode::DIR_DEFAULT, &r).unwrap();
        for (key, val) in [
            ("match.tp_dst", "22\n"),
            ("action.out", "2\n"),
            ("priority", "900\n"),
        ] {
            fs.write_file(&format!("{dir}/{key}"), val.as_bytes(), &r)
                .unwrap();
        }
    }
    fs.mkdir_all("/views", Mode::DIR_DEFAULT, &r).unwrap();
    let key = "/switches/sw0/flows/ssh/priority";

    // Charged syscalls of `op`, which must come out the same for every view.
    let per_view = |what: &str, budget: u64, op: &dyn Fn(usize)| {
        for i in 0..VIEWS {
            let before = fs.counters().total();
            op(i);
            assert_eq!(fs.counters().total() - before, budget, "{what}, view {i}");
        }
    };

    let views: Vec<Overlay> = (0..VIEWS)
        .map(|i| Overlay::new(fs.clone(), &["/base"], &format!("/views/t{i}")))
        .collect();
    per_view("view setup", 3, &|i| views[i].ensure_upper(&r).unwrap());
    per_view("read-through", 11, &|i| {
        assert_eq!(views[i].read_to_string(key, &r).unwrap(), "900\n");
    });
    for ov in &views {
        assert_eq!(ov.stats(), OverlayStats::default(), "read-through staged");
    }
    per_view("first write", 47, &|i| {
        views[i].write_file(key, b"100\n", &r).unwrap();
    });
    for ov in &views {
        let st = ov.stats();
        assert_eq!(
            (st.copy_ups, st.copy_up_bytes),
            (1, 4),
            "one 4-byte copy-up"
        );
    }
    assert_eq!(
        fs.read_to_string(&format!("/base{key}"), &r).unwrap(),
        "900\n",
        "a tenant write leaked into the shared base"
    );

    // One validated atomic commit through the what-if app.
    let session = WhatIf::begin(fs.clone(), "/base", "/staging/commit-view", &r).unwrap();
    session
        .stage_flow(
            "sw0",
            "lb",
            &[
                ("match.tp_dst", "443"),
                ("action.out", "4"),
                ("priority", "800"),
            ],
        )
        .unwrap();
    assert_eq!(
        session.validate().unwrap(),
        4,
        "3 base flows + the staged one"
    );
    let report = session.commit().unwrap();
    assert_eq!((report.records, report.bytes, report.whiteouts), (5, 7, 0));
    assert!(fs.exists("/base/switches/sw0/flows/lb/priority", &r));

    // Crash replay of the whole history — every copy-up plus the commit
    // frame — lands on the live tree exactly.
    let (warm, _) =
        Filesystem::restore_from_journal(&fs.journal_bytes(), Limits::default(), 8, true);
    assert_eq!(
        warm.tree_digest(),
        fs.tree_digest(),
        "crash replay diverged"
    );
}
