//! Pins the public surface of `YancFs`, so "public-API delta" for `yanc`
//! is a test the way it already is for `yanc-vfs`
//! (`vfs/tests/builder_surface.rs`) and `libyanc`
//! (`libyanc/tests/api_surface.rs`) — same technique: the source is parsed
//! textually for the first line of every `pub fn` inside `impl YancFs`
//! (`yancfs.rs` + `views.rs`) and compared against an explicit list.
//!
//! The second test pins the point of that surface: an object is a
//! directory of attribute files, and the crate spells that rule once.

use std::collections::BTreeSet;

const SOURCES: &[(&str, &str)] = &[
    ("yancfs.rs", include_str!("../src/yancfs.rs")),
    ("views.rs", include_str!("../src/views.rs")),
    ("hook.rs", include_str!("../src/hook.rs")),
    ("flowspec.rs", include_str!("../src/flowspec.rs")),
    ("schema.rs", include_str!("../src/schema.rs")),
    ("app.rs", include_str!("../src/app.rs")),
    ("error.rs", include_str!("../src/error.rs")),
];

/// Adding a method is fine — extend the list; removing one or changing a
/// signature must update this test in the same PR (multi-line signatures
/// are pinned by their first line).
const EXPECTED_YANCFS_FNS: &[&str] = &[
    "pub fn new(fs: Arc<Filesystem>, root: &str) -> Self",
    "pub fn init(fs: Arc<Filesystem>, root: &str) -> YancResult<Self>",
    "pub fn enable_introspection(&self) -> YancResult<()>",
    "pub fn proc_dir(&self) -> VPath",
    "pub fn with_creds(&self, creds: Credentials) -> YancFs",
    "pub fn filesystem(&self) -> &Arc<Filesystem>",
    "pub fn shard_count(&self) -> usize",
    "pub fn dcache_stats(&self) -> DcacheStats",
    "pub fn root(&self) -> &VPath",
    "pub fn creds(&self) -> &Credentials",
    "pub fn switches_dir(&self) -> VPath",
    "pub fn switch_dir(&self, sw: &str) -> VPath",
    "pub fn flow_dir(&self, sw: &str, flow: &str) -> VPath",
    "pub fn port_dir(&self, sw: &str, port: u16) -> VPath",
    "pub fn packet_out_path(&self, sw: &str) -> VPath",
    "pub fn events_dir(&self) -> VPath",
    "pub fn view_dir(&self, view: &str) -> VPath",
    "pub fn put_objects_at<F, K, V>(",
    "pub fn put_objects<F, K, V>(",
    "pub fn get_objects_at(&self, at: Fd, name: &str) -> YancResult<Vec<(String, String)>>",
    "pub fn create_switch(",
    "pub fn remove_switch(&self, name: &str) -> YancResult<()>",
    "pub fn list_switches(&self) -> YancResult<Vec<String>>",
    "pub fn switch_dpid(&self, name: &str) -> YancResult<u64>",
    "pub fn create_ports(&self, sw: &str, ports: &[PortSpec]) -> YancResult<()>",
    "pub fn list_ports(&self, sw: &str) -> YancResult<Vec<u16>>",
    "pub fn set_port_down(&self, sw: &str, port: u16, down: bool) -> YancResult<()>",
    "pub fn port_down(&self, sw: &str, port: u16) -> YancResult<bool>",
    "pub fn set_port_status(&self, sw: &str, port: u16, up: bool) -> YancResult<()>",
    "pub fn set_peer(&self, sw: &str, port: u16, peer_sw: &str, peer_port: u16) -> YancResult<()>",
    "pub fn clear_peer(&self, sw: &str, port: u16) -> YancResult<()>",
    "pub fn peer(&self, sw: &str, port: u16) -> YancResult<Option<(String, u16)>>",
    "pub fn topology(&self) -> YancResult<Vec<(String, u16, String, u16)>>",
    "pub fn write_flow(&self, sw: &str, name: &str, spec: &FlowSpec) -> YancResult<u64>",
    "pub fn read_flow(&self, sw: &str, name: &str) -> YancResult<FlowSpec>",
    "pub fn flow_version(&self, sw: &str, name: &str) -> YancResult<u64>",
    "pub fn delete_flow(&self, sw: &str, name: &str) -> YancResult<()>",
    "pub fn list_flows(&self, sw: &str) -> YancResult<Vec<String>>",
    "pub fn open_flows_dir(&self, sw: &str) -> YancResult<Fd>",
    "pub fn write_flow_at(&self, flows: Fd, name: &str, spec: &FlowSpec) -> YancResult<u64>",
    "pub fn write_counter(&self, object_dir: &VPath, name: &str, value: u64) -> YancResult<()>",
    "pub fn write_counters_batch(",
    "pub fn read_counter(&self, object_dir: &VPath, name: &str) -> u64",
    "pub fn write_host(&self, name: &str, host: &HostRecord) -> YancResult<()>",
    "pub fn read_hosts(&self) -> YancResult<Vec<(String, HostRecord)>>",
    "pub fn subscribe_events(&self, app: &str) -> YancResult<EventSubscription>",
    "pub fn publish_packet_in(&self, rec: &PacketInRecord) -> YancResult<usize>",
    "pub fn list_packet_ins(&self, app: &str) -> YancResult<Vec<String>>",
    "pub fn read_packet_in(&self, app: &str, entry: &str) -> YancResult<PacketInRecord>",
    "pub fn consume_packet_in(&self, app: &str, entry: &str) -> YancResult<()>",
    "pub fn packet_out(",
    "pub fn create_view(&self, name: &str) -> YancResult<()>",
    "pub fn write_view_config(&self, name: &str, cfg: &ViewConfig) -> YancResult<()>",
    "pub fn read_view_config(&self, name: &str) -> YancResult<ViewConfig>",
    "pub fn list_views(&self) -> YancResult<Vec<String>>",
];

/// The non-test part of a source file, comments stripped.
fn code_lines(src: &str) -> impl Iterator<Item = &str> {
    src.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(|l| l.split("//").next().unwrap_or(""))
}

#[test]
fn yancfs_surface_is_pinned() {
    let mut got = BTreeSet::new();
    for (_, src) in SOURCES {
        let mut inside = false;
        for line in code_lines(src) {
            if line.starts_with("impl") {
                inside = line.starts_with("impl YancFs ");
            } else if line.starts_with('}') {
                inside = false;
            } else if inside && line.starts_with("    pub fn ") {
                got.insert(line.trim().trim_end_matches('{').trim().to_string());
            }
        }
    }
    let want: BTreeSet<String> = EXPECTED_YANCFS_FNS.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "YancFs surface drifted.\nmissing (pinned but absent): {missing:#?}\nextra (present but unpinned): {extra:#?}"
    );
}

#[test]
fn the_object_rule_is_spelled_once() {
    // `mkdirat` + one `write_batch_at` live in the materializer, the one
    // `read_batch_at` in the reader and the flow-quota charge in
    // `write_flow_at`; everything else calls those.
    for token in [
        "mkdirat(",
        "write_batch_at(",
        "read_batch_at(",
        "charge_flow(",
    ] {
        let hits: Vec<String> = SOURCES
            .iter()
            .flat_map(|(file, src)| {
                let hits = code_lines(src)
                    .enumerate()
                    .filter(|(_, l)| l.contains(token));
                hits.map(move |(n, _)| format!("{file}:{}", n + 1))
            })
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "`{token}` in non-test crates/core/src: {hits:?}"
        );
    }
}
