//! Pins the exported libyanc surface so future API breaks are deliberate.
//!
//! The fastpath API is the contract between every yanc application and the
//! drivers; PR reviews should see a diff *here* whenever it changes. This is
//! a `cargo public-api`-style check done with the toolchain we have: the
//! crate sources are parsed textually for `pub` items and compared against
//! an explicit allowlist.

use std::collections::BTreeSet;

const LIB: &str = include_str!("../src/lib.rs");
const FASTPATH: &str = include_str!("../src/fastpath.rs");
const RING: &str = include_str!("../src/ring.rs");

/// Every name re-exported from the crate root.
const EXPECTED_REEXPORTS: &[&str] = &[
    "FastPacketIn",
    "FlowChannel",
    "FlowOp",
    "PacketBus",
    "Ring",
    "RingStats",
];

/// Every public method signature (name + first line, normalized) on the
/// fastpath types. Adding is fine — extend the list; removing or changing a
/// signature must update this test in the same PR.
const EXPECTED_FNS: &[&str] = &[
    // RingStats
    "pub fn merge(self, other: RingStats) -> RingStats",
    "pub fn render(&self) -> String",
    // Ring<T>
    "pub fn new(capacity: usize) -> Arc<Self>",
    "pub fn push(&self, value: T) -> Result<(), T>",
    "pub fn pop(&self) -> Option<T>",
    "pub fn drain(&self) -> Vec<T>",
    "pub fn len(&self) -> usize",
    "pub fn is_empty(&self) -> bool",
    "pub fn stats(&self) -> RingStats",
    // FlowChannel
    "pub fn new(capacity: usize) -> Self",
    "pub fn install(&self, switch: &str, name: &str, spec: FlowSpec) -> YancResult<()>",
    "pub fn install_batch(&self, switch: &str, flows: Vec<(String, FlowSpec)>) -> YancResult<()>",
    "pub fn delete(&self, switch: &str, name: &str) -> YancResult<()>",
    "pub fn resubmit(&self, ops: Vec<FlowOp>) -> YancResult<()>",
    "pub fn drain(&self) -> Vec<FlowOp>",
    "pub fn pending(&self) -> usize",
    "pub fn ready(&self) -> bool",
    "pub fn stats(&self) -> RingStats",
    // PacketBus
    "pub fn new(capacity: usize) -> Arc<Self>",
    "pub fn subscribe(&self, name: &str) -> Arc<Ring<FastPacketIn>>",
    "pub fn subscriber_count(&self) -> usize",
    "pub fn stats(&self) -> RingStats",
    "pub fn subscriber_stats(&self) -> Vec<(String, RingStats)>",
    "pub fn publish(&self, pkt: &FastPacketIn) -> usize",
];

/// `pub use x::{A, B};` lines in lib.rs, flattened to names.
fn reexported_names(src: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("pub use ") else {
            continue;
        };
        let rest = rest.trim_end_matches(';');
        let names = match (rest.find('{'), rest.rfind('}')) {
            (Some(a), Some(b)) => rest[a + 1..b].to_string(),
            _ => rest.rsplit("::").next().unwrap_or(rest).to_string(),
        };
        for n in names.split(',') {
            let n = n.trim();
            if !n.is_empty() {
                out.insert(n.to_string());
            }
        }
    }
    out
}

/// Normalized `pub fn` first-lines from a source file, test modules
/// excluded.
fn public_fns(src: &str) -> BTreeSet<String> {
    let body = src.split("#[cfg(test)]").next().unwrap_or(src);
    let mut out = BTreeSet::new();
    for line in body.lines() {
        let t = line.trim();
        if t.starts_with("pub fn ") || t.starts_with("pub const fn ") {
            out.insert(t.trim_end_matches('{').trim().to_string());
        }
    }
    out
}

#[test]
fn crate_root_reexports_are_pinned() {
    let got = reexported_names(LIB);
    let want: BTreeSet<String> = EXPECTED_REEXPORTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        got, want,
        "libyanc re-exports changed; update EXPECTED_REEXPORTS deliberately"
    );
}

#[test]
fn fastpath_method_signatures_are_pinned() {
    let mut got = public_fns(FASTPATH);
    got.extend(public_fns(RING));
    let want: BTreeSet<String> = EXPECTED_FNS.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "libyanc public fn surface drifted.\nmissing (pinned but absent): {missing:#?}\nextra (present but unpinned): {extra:#?}"
    );
}

#[test]
fn install_returns_yanc_result_not_bare_flowop() {
    // The PR-4 contract specifically: ring-full failures surface as
    // YancError::RingFull with errno semantics, not `Result<(), FlowOp>`.
    assert!(!FASTPATH.contains("-> Result<(), FlowOp>"));
    assert!(FASTPATH.contains("YancError::ring_full"));
}
