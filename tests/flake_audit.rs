//! Flake audit: test code must not read the wall clock.
//!
//! Everything this repo pins — lock budgets, syscall budgets, cache
//! ratios, retry ladders — is pinned against deterministic counters
//! precisely because wall-clock assertions flake on a loaded 1-core CI
//! host. PR 6 converted the last timing assertion (poll.rs's test-side
//! wait); this test finishes the sweep and then *keeps* the test tree
//! clean: any new `Instant::now`/`SystemTime`/`sleep`/`elapsed` in test
//! sources fails here with the offending file and line.
//!
//! Deliberately out of scope:
//! * `crates/vfs/src/poll.rs` — the `wait(timeout)` *implementation*
//!   needs a deadline clock; its tests assert on counters, not time.

use std::fs;
use std::path::Path;

/// Tokens that make a test schedule- or load-dependent. Matched after
/// stripping `//` comments, so prose may mention them freely.
const FORBIDDEN: [&str; 5] = [
    "Instant::now",
    "SystemTime",
    "thread::sleep",
    "sleep(",
    ".elapsed()",
];

/// (file name, token) pairs that are allowed anyway. Empty today; add
/// entries only with a comment explaining why the use is deterministic.
const ALLOWLIST: [(&str, &str); 0] = [];

fn audit_dir(dir: &Path, violations: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return, // crate without a tests/ dir
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().map_or(true, |e| e != "rs") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name == "flake_audit.rs" {
            continue; // the FORBIDDEN list itself spells the tokens out
        }
        let src = fs::read_to_string(&path).unwrap();
        for (lineno, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            for tok in FORBIDDEN {
                if code.contains(tok) && !ALLOWLIST.iter().any(|(f, t)| *f == name && *t == tok) {
                    violations.push(format!("{name}:{}: {tok}: {}", lineno + 1, line.trim()));
                }
            }
        }
    }
}

#[test]
fn test_sources_never_read_the_wall_clock() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    // The root integration suites plus every per-crate tests/ dir.
    audit_dir(&here.join("../../tests"), &mut violations);
    let crates = here.join("..");
    for entry in fs::read_dir(&crates).unwrap().flatten() {
        audit_dir(&entry.path().join("tests"), &mut violations);
    }
    assert!(
        violations.is_empty(),
        "wall-clock constructs in test code (pin a counter instead, or \
         extend the audit ALLOWLIST with a justification):\n{}",
        violations.join("\n")
    );
}

/// The parallel pump scheduler is *runtime* code, but it gets the same
/// audit as the tests: every wait in `par.rs` must be a condvar parked
/// on deterministic state (generation counters, queue emptiness), never
/// a clock. `wait_timeout` is forbidden on top of the usual tokens —
/// a timed wait is a sleep in disguise, and the straggler gate proved
/// the lost-wakeup-safe pattern works without one.
#[test]
fn parallel_scheduler_never_reads_the_wall_clock() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = fs::read_to_string(here.join("../driver/src/par.rs")).unwrap();
    assert!(
        src.contains("Condvar"),
        "par.rs no longer uses condvars; re-point this audit at the new \
         scheduler blocking primitive"
    );
    let mut violations = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        for tok in FORBIDDEN.iter().copied().chain(["wait_timeout"]) {
            if code.contains(tok) {
                violations.push(format!("par.rs:{}: {tok}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "wall-clock or timed-wait constructs in the parallel scheduler \
         (park on a counter-gated condvar instead):\n{}",
        violations.join("\n")
    );
}

/// Do = redo: the tree changes only through the one mutator
/// (`crates/vfs/src/fs/mutate.rs`), which live calls, journal replay and
/// batch commit all apply their records through. The shard primitives that
/// add an inode, drop one or hand out a directory's entries for writing
/// must therefore not appear in any other non-test vfs source, or a second
/// hand-written mutation body is growing back beside the journal.
#[test]
fn only_the_one_mutator_touches_the_tree() {
    const PRIMITIVES: [&str; 3] = ["insert_inode(", "remove_inode(", "dir_entries_mut("];
    /// (file, line content) pairs that are allowed anyway; each says why
    /// it is not a mutation a record could carry.
    const ALLOWLIST: [(&str, &str); 5] = [
        // Where the primitives are defined.
        (
            "shard.rs",
            "pub fn dir_entries_mut(&mut self) -> VfsResult<&mut BTreeMap<String, Ino>> {",
        ),
        (
            "shard.rs",
            "pub fn insert_inode(&mut self, ino: Ino, inode: Inode) {",
        ),
        (
            "shard.rs",
            "pub fn remove_inode(&mut self, ino: Ino) -> Option<Inode> {",
        ),
        // The root directory of a new filesystem: precedes every record.
        ("fs/mod.rs", "set.insert_inode(ROOT_INO, root);"),
        // Snapshot install: a memory image loaded into an empty
        // filesystem, not a replayed operation.
        ("journal.rs", "set.insert_inode(Ino(n.ino), node);"),
    ];
    fn audit(dir: &Path, rel: &str, violations: &mut Vec<String>) {
        for entry in fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            let name = format!("{rel}{}", entry.file_name().to_string_lossy());
            if path.is_dir() {
                audit(&path, &format!("{name}/"), violations);
                continue;
            }
            if name == "fs/mutate.rs" || name == "fs/tests.rs" || !name.ends_with(".rs") {
                continue;
            }
            let src = fs::read_to_string(&path).unwrap();
            // Unit tests sit at the bottom of a file, behind `#[cfg(test)]`.
            let code = src.split("\n#[cfg(test)]").next().unwrap();
            for (lineno, line) in code.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                let allowed = ALLOWLIST.contains(&(name.as_str(), line.trim()));
                if !allowed && PRIMITIVES.iter().any(|p| code.contains(p)) {
                    violations.push(format!(
                        "crates/vfs/src/{name}:{}: {}",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../vfs/src");
    let mutator = fs::read_to_string(src.join("fs/mutate.rs")).unwrap();
    assert!(
        PRIMITIVES.iter().all(|p| mutator.contains(p)),
        "fs/mutate.rs no longer uses the shard primitives; re-point this audit at the mutator"
    );
    let mut violations = Vec::new();
    audit(&src, "", &mut violations);
    assert!(
        violations.is_empty(),
        "tree-mutating shard primitives outside the one mutator (build a \
         Record and commit it instead, or extend the audit ALLOWLIST with a \
         justification):\n{}",
        violations.join("\n")
    );
}

/// An object is a directory of attribute files, and `yanc::YancFs` owns
/// that rule (one materializer) together with the `packet_out` line
/// format. An app or the driver that spells a `packet_out` line or its
/// path by hand, or reaches for `mkdirat` / `write_batch_at` itself, is
/// growing a second copy back outside core.
#[test]
fn apps_and_driver_leave_the_object_formats_to_core() {
    const TOKENS: [&str; 4] = [
        "\"buffer=none",
        "join(\"packet_out\")",
        "mkdirat(",
        "write_batch_at(",
    ];
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut scanned = 0;
    for krate in ["apps", "driver"] {
        for entry in fs::read_dir(here.join(format!("../{krate}/src"))).unwrap() {
            let path = entry.unwrap().path();
            let src = fs::read_to_string(&path).unwrap();
            scanned += 1;
            // Unit tests sit at the bottom of a file, behind `#[cfg(test)]`.
            let code = src.split("\n#[cfg(test)]").next().unwrap();
            for (lineno, line) in code.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if TOKENS.iter().any(|t| code.contains(t)) {
                    let file = path.file_name().unwrap().to_string_lossy();
                    violations.push(format!(
                        "crates/{krate}/src/{file}:{}: {}",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(scanned >= 10, "expected the app and driver sources");
    assert!(
        violations.is_empty(),
        "object or packet_out formats spelled outside yanc::YancFs (call \
         `YancFs::packet_out` / `put_objects` instead):\n{}",
        violations.join("\n")
    );
}

/// The driver reads `/net` through the descriptors it holds and hears only
/// commits, through one filtered watch (DESIGN.md §13). A path-addressed
/// whole-file read, the path-form flow reader or an unfiltered watch in
/// its non-test source is the per-file-access cost model growing back.
#[test]
fn the_driver_reads_through_descriptors_and_hears_only_commits() {
    const TOKENS: [&str; 3] = ["read_to_string(", "read_flow(", "EventMask::ALL"];
    /// (file, line content) pairs allowed anyway. Empty; an entry needs a
    /// comment saying why the read cannot go through a descriptor.
    const ALLOWLIST: [(&str, &str); 0] = [];
    fn violations(file: &str, src: &str) -> Vec<String> {
        // Unit tests sit at the bottom of a file, behind `#[cfg(test)]`.
        let code = src.split("\n#[cfg(test)]").next().unwrap();
        let mut out = Vec::new();
        for (lineno, line) in code.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let allowed = ALLOWLIST.contains(&(file, line.trim()));
            if !allowed && TOKENS.iter().any(|t| code.contains(t)) {
                out.push(format!(
                    "crates/driver/src/{file}:{}: {}",
                    lineno + 1,
                    line.trim()
                ));
            }
        }
        out
    }
    // The audit fires: an injected violation is reported by file and line.
    let injected = "fn drain(&self) {\n    let s = fs.read_to_string(p, c);\n}\n";
    assert_eq!(
        violations("driver.rs", injected),
        ["crates/driver/src/driver.rs:2: let s = fs.read_to_string(p, c);"]
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../driver/src");
    let mut found = Vec::new();
    let mut scanned = 0;
    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let file = entry.file_name().to_string_lossy().to_string();
        let src = fs::read_to_string(entry.path()).unwrap();
        scanned += 1;
        found.extend(violations(&file, &src));
    }
    assert!(scanned >= 3, "expected the driver sources");
    assert!(
        found.is_empty(),
        "path-addressed reads or an unfiltered watch in the driver (read \
         through its held descriptors, or extend the audit ALLOWLIST with a \
         justification):\n{}",
        found.join("\n")
    );
}

/// The audit itself must be looking at real code: if the directories
/// moved, the scan above would vacuously pass.
#[test]
fn audit_scans_a_nonempty_test_tree() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = fs::read_dir(here.join("../../tests"))
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
        .count();
    assert!(files >= 10, "expected the root test suites, found {files}");
}
