//! Pins the `Filesystem` construction surface so future feature flags
//! extend [`FsBuilder`] instead of adding a constructor.
//!
//! Same `cargo public-api`-style technique as `libyanc/tests/api_surface.rs`:
//! the crate source is parsed textually for the builder's `pub fn` lines and
//! compared against an explicit allowlist. Behavioural half: each builder
//! switch must actually reach the built filesystem.

use std::collections::BTreeSet;

use yanc_vfs::{Filesystem, Limits};

const FS_SRC: &str = include_str!("../src/fs.rs");

/// The pinned FsBuilder surface. Adding a setter is fine — extend the list;
/// removing or changing a signature must update this test in the same PR.
const EXPECTED_BUILDER_FNS: &[&str] = &[
    "pub fn limits(mut self, limits: Limits) -> Self",
    "pub fn shards(mut self, shards: usize) -> Self",
    "pub fn dcache(mut self, enabled: bool) -> Self",
    "pub fn readpath(mut self, enabled: bool) -> Self",
    "pub fn journal(mut self, enabled: bool) -> Self",
    "pub fn build(self) -> Filesystem",
];

/// The `pub fn` first-lines inside `impl FsBuilder { .. }`, normalized.
fn builder_fns(src: &str) -> BTreeSet<String> {
    let start = src.find("impl FsBuilder {").expect("impl FsBuilder block");
    let body = &src[start..];
    let end = body.find("\nimpl ").unwrap_or(body.len());
    let mut out = BTreeSet::new();
    for line in body[..end].lines() {
        let t = line.trim();
        if t.starts_with("pub fn ") {
            out.insert(t.trim_end_matches('{').trim().to_string());
        }
    }
    out
}

#[test]
fn builder_surface_is_pinned() {
    let got = builder_fns(FS_SRC);
    let want: BTreeSet<String> = EXPECTED_BUILDER_FNS.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "FsBuilder surface drifted.\nmissing (pinned but absent): {missing:#?}\nextra (present but unpinned): {extra:#?}"
    );
}

#[test]
fn builder_switches_reach_the_built_filesystem() {
    // Defaults match Filesystem::new().
    let d = Filesystem::builder().build();
    assert!(d.dcache_enabled());
    assert!(d.readpath_enabled());
    assert!(!d.journal_enabled());

    let fs = Filesystem::builder()
        .shards(1)
        .dcache(false)
        .readpath(false)
        .journal(true)
        .build();
    assert_eq!(fs.shard_count(), 1);
    assert!(!fs.dcache_enabled());
    assert!(!fs.readpath_enabled());
    assert!(
        fs.journal_enabled(),
        "journal(true) must enable the journal at build time"
    );
    // The anchor snapshot of the empty tree was captured: mutations from
    // the very first one on are replayable.
    assert!(fs.journal_stats().snapshots >= 1);

    let tight = Filesystem::builder()
        .limits(Limits {
            max_file_size: 3,
            max_dir_entries: 64,
            max_open_files: 64,
        })
        .build();
    let root = yanc_vfs::Credentials::root();
    assert!(tight.write_file("/big", b"oversized", &root).is_err());
    assert!(tight.write_file("/ok", b"ok", &root).is_ok());
}
