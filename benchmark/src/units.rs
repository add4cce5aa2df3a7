//! Unit costs of single public calls, measured on the tree a traced lap
//! left behind: the per-call price behind the per-op counts.
//!
//! Every figure is the median of at least 200 timed calls. Calls that
//! take well under a microsecond are timed eight at a time so the clock
//! read does not dominate.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use yanc::{FlowSpec, PacketInRecord};
use yanc_openflow::{
    multipart, Action, FlowMatch, FlowMod, FrameCodec, Message, PacketInReason, PortStats,
    StatsReply, Version,
};
use yanc_packet::{build_icmp_echo, MacAddr, PacketSummary};
use yanc_vfs::Mode;

use crate::alloc;
use crate::stats::median;
use crate::workloads::{install_grid, GRID_FLOWS};
use crate::world::{Variant, World};

#[derive(Default)]
pub struct Units {
    pub stat_ns: f64,
    pub read_file_ns: f64,
    pub write_file_ns: f64,
    pub readdir_ns: f64,
    pub readlink_ns: f64,
    pub mkdir_rmdir_ns: f64,
    pub write_batch_at_ns_per_entry: f64,

    pub write_flow_us: f64,
    pub write_flow_at_us: f64,
    pub read_flow_us: f64,
    pub delete_flow_us: f64,
    pub publish_packet_in_us: f64,
    pub peer_us: f64,
    pub syscalls_per_write_flow: f64,
    pub syscalls_per_write_flow_at: f64,
    pub syscalls_per_read_flow: f64,

    pub encode_flow_mod_ns: f64,
    pub decode_flow_mod_ns: f64,
    pub encode_packet_in_ns: f64,
    pub decode_packet_in_ns: f64,
    pub stats_reply_roundtrip_ns: f64,
    pub summary_parse_ns: f64,

    pub live_bytes_per_flow: f64,
}

const SAMPLES: usize = 256;
const BATCH: usize = 8;

/// Median ns of one call to `f`, each sample timing one call.
fn median_ns(mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Median ns of one call to `f`, each sample timing [`BATCH`] calls.
fn median_ns_batched(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&samples)
}

/// The frame the reactive loop sees most: an ICMP echo between two hosts.
fn sample_frame() -> Bytes {
    build_icmp_echo(
        MacAddr::from_seed(0x51),
        MacAddr::from_seed(0x52),
        "10.0.0.1".parse().expect("literal ip"),
        "10.3.1.2".parse().expect("literal ip"),
        7,
        1,
    )
}

/// The flow the router installs per hop: exact match, one output action.
fn sample_spec(frame: &Bytes) -> FlowSpec {
    let summary = PacketSummary::parse(frame).expect("sample frame parses");
    FlowSpec {
        m: FlowMatch::exact(&summary, 1),
        actions: vec![Action::out(2)],
        priority: 40000,
        idle_timeout: 60,
        ..FlowSpec::default()
    }
}

fn decode_one(wire: &Bytes) -> Message {
    let mut codec = FrameCodec::new();
    codec.feed(wire);
    let frame = codec
        .next_frame()
        .expect("well-formed frame")
        .expect("one whole frame");
    yanc_openflow::decode(&frame).expect("decodes")
}

pub fn measure(w: &World) -> Units {
    let mut u = Units::default();
    let creds = w.yfs.creds().clone();
    let fs = w.fs.clone();
    let yfs = w.yfs.clone();

    // Live heap per installed flow, end to end (flow directory and files,
    // the driver's shadow copy, the switch's table entry), over the same
    // 16-per-switch grid `monitor_scan` primes with. In a world of its
    // own: on a tree that has already held and freed flows the tables
    // have spare capacity and the delta reads low.
    {
        let mut fresh = World::build(Variant::BASE);
        let live_before = alloc::snapshot().live;
        install_grid(&mut fresh, "liv", 0xc0_0000);
        let live_after = alloc::snapshot().live;
        u.live_bytes_per_flow = live_after.saturating_sub(live_before) as f64
            / (GRID_FLOWS * fresh.switches.len()) as f64;
    }

    // ---- vfs: a deep path under a core switch, where every port has a peer.
    let sw = w.switches[0].clone();
    let port_dir = yfs.port_dir(&sw, 1);
    let counters = port_dir.join("counters");
    let file = counters.join("rx_packets");
    let peer = port_dir.join("peer");
    let tmp = counters.join("unit_tmp");
    fs.write_file(file.as_str(), b"123456", &creds)
        .expect("seed the counter file");
    u.stat_ns = median_ns_batched(|| {
        black_box(fs.stat(black_box(file.as_str()), &creds).expect("stat"));
    });
    u.read_file_ns = median_ns_batched(|| {
        black_box(
            fs.read_file(black_box(file.as_str()), &creds)
                .expect("read_file"),
        );
    });
    u.write_file_ns = median_ns_batched(|| {
        fs.write_file(black_box(file.as_str()), b"123456", &creds)
            .expect("write_file");
    });
    u.readdir_ns = median_ns_batched(|| {
        black_box(
            fs.readdir(black_box(port_dir.as_str()), &creds)
                .expect("readdir"),
        );
    });
    u.readlink_ns = median_ns_batched(|| {
        black_box(
            fs.readlink(black_box(peer.as_str()), &creds)
                .expect("readlink"),
        );
    });
    u.mkdir_rmdir_ns = median_ns_batched(|| {
        fs.mkdir(black_box(tmp.as_str()), Mode::DIR_DEFAULT, &creds)
            .expect("mkdir");
        fs.rmdir(tmp.as_str(), &creds).expect("rmdir");
    });
    let names = [
        "rx_packets",
        "tx_packets",
        "rx_bytes",
        "tx_bytes",
        "rx_dropped",
        "tx_dropped",
    ];
    let entries: Vec<(String, u64)> = (1..=8)
        .flat_map(|p| names.map(|n| (format!("ports/p{p}/counters/{n}"), 123_456u64)))
        .collect();
    let switch_dir = yfs.switch_dir(&sw);
    u.write_batch_at_ns_per_entry = median_ns(|_| {
        black_box(
            yfs.write_counters_batch(&switch_dir, &entries)
                .expect("counter batch"),
        );
    }) / entries.len() as f64;

    // ---- core: flow files on an edge switch, packet-ins, the peer lookup.
    let edge = w.switches[w.switches.len() - 1].clone();
    let frame = sample_frame();
    let spec = sample_spec(&frame);
    let calls = SAMPLES as f64;
    let sys = || fs.counters().total();

    let s0 = sys();
    u.write_flow_us = median_ns(|i| {
        yfs.write_flow(&edge, &format!("uwf{i}"), &spec)
            .expect("write_flow");
    }) / 1e3;
    u.syscalls_per_write_flow = (sys() - s0) as f64 / calls;

    let flows_fd = yfs.open_flows_dir(&edge).expect("open flows dir");
    let s0 = sys();
    u.write_flow_at_us = median_ns(|i| {
        yfs.write_flow_at(flows_fd, &format!("uwa{i}"), &spec)
            .expect("write_flow_at");
    }) / 1e3;
    u.syscalls_per_write_flow_at = (sys() - s0) as f64 / calls;
    fs.close(flows_fd, &creds).expect("close flows dir");

    let s0 = sys();
    u.read_flow_us = median_ns(|i| {
        black_box(yfs.read_flow(&edge, &format!("uwf{i}")).expect("read_flow"));
    }) / 1e3;
    u.syscalls_per_read_flow = (sys() - s0) as f64 / calls;

    u.delete_flow_us = median_ns(|i| {
        yfs.delete_flow(&edge, &format!("uwf{i}"))
            .expect("delete_flow");
    }) / 1e3;

    let record = PacketInRecord {
        switch: edge.clone(),
        in_port: 1,
        buffer_id: Some(7),
        reason: "no_match".to_string(),
        data: frame.clone(),
    };
    u.publish_packet_in_us = median_ns(|_| {
        black_box(yfs.publish_packet_in(&record).expect("publish"));
    }) / 1e3;
    u.peer_us = median_ns_batched(|| {
        black_box(yfs.peer(black_box(&sw), 1).expect("peer"));
    }) / 1e3;

    // ---- openflow 1.3 codec and the packet parser: pure functions.
    let mut fm = FlowMod::add(spec.m, spec.priority, spec.actions.clone());
    fm.idle_timeout = spec.idle_timeout;
    let fm = Message::FlowMod(fm);
    let fm_wire = yanc_openflow::encode(Version::V1_3, &fm, 1).expect("encode flow mod");
    u.encode_flow_mod_ns = median_ns_batched(|| {
        black_box(yanc_openflow::encode(Version::V1_3, black_box(&fm), 1).expect("encode"));
    });
    u.decode_flow_mod_ns = median_ns_batched(|| {
        black_box(decode_one(black_box(&fm_wire)));
    });
    let pi = Message::PacketIn {
        buffer_id: Some(7),
        total_len: frame.len() as u16,
        in_port: 1,
        reason: PacketInReason::NoMatch,
        table_id: 0,
        data: frame.clone(),
    };
    let pi_wire = yanc_openflow::encode(Version::V1_3, &pi, 2).expect("encode packet in");
    u.encode_packet_in_ns = median_ns_batched(|| {
        black_box(yanc_openflow::encode(Version::V1_3, black_box(&pi), 2).expect("encode"));
    });
    u.decode_packet_in_ns = median_ns_batched(|| {
        black_box(decode_one(black_box(&pi_wire)));
    });
    let reply = StatsReply::Port(
        (1..=8)
            .map(|p| PortStats {
                port_no: p,
                rx_packets: 1000,
                tx_packets: 1000,
                rx_bytes: 98_000,
                tx_bytes: 98_000,
                rx_dropped: 0,
                tx_dropped: 0,
            })
            .collect(),
    );
    u.stats_reply_roundtrip_ns = median_ns_batched(|| {
        let wire = multipart::encode_part(Version::V1_3, black_box(&reply), false, 3)
            .expect("encode stats reply");
        black_box(decode_one(&wire));
    });
    u.summary_parse_ns = median_ns_batched(|| {
        black_box(PacketSummary::parse(black_box(&frame)).expect("parse"));
    });
    u
}
