//! E14 + E15 correctness legs: libyanc's fastpath installs the same flows
//! as the file path with drastically fewer simulated syscalls, and the
//! packet bus fans out without copying.

use bytes::Bytes;
use libyanc::{FastPacketIn, FlowChannel, PacketBus};
use yanc::FlowSpec;
use yanc_driver::Runtime;
use yanc_openflow::{Action, FlowMatch, Version};

fn spec(p: u16) -> FlowSpec {
    FlowSpec {
        m: FlowMatch {
            dl_type: Some(0x0800),
            nw_proto: Some(6),
            tp_dst: Some(p),
            ..Default::default()
        },
        actions: vec![Action::out(2)],
        priority: 1000 + p,
        ..Default::default()
    }
}

#[test]
fn e14_fastpath_installs_with_zero_syscalls() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_3], Version::V1_3);
    rt.pump().unwrap();
    let ch = FlowChannel::new(1024);
    rt.drivers[0].lock().attach_fastpath(ch.clone());

    let fs = rt.yfs.filesystem().clone();
    let before = fs.counters().snapshot();
    for i in 0..50u16 {
        ch.install("sw1", &format!("f{i}"), spec(i)).unwrap();
    }
    rt.pump().unwrap();
    let used = fs.counters().snapshot().since(&before);
    assert_eq!(rt.net.switches[&0x1].flow_count(), 50);
    assert_eq!(
        used.total(),
        0,
        "fastpath must not touch the fs: {}",
        used.report()
    );

    // The slow path for the same 50 flows costs hundreds of syscalls.
    let before = fs.counters().snapshot();
    for i in 0..50u16 {
        rt.yfs
            .write_flow("sw1", &format!("slow{i}"), &spec(1000 + i))
            .unwrap();
    }
    rt.pump().unwrap();
    let slow = fs.counters().snapshot().since(&before);
    assert_eq!(rt.net.switches[&0x1].flow_count(), 100);
    assert!(
        slow.total() > 50 * 10,
        "file path should cost >10 syscalls per flow, got {}",
        slow.total()
    );
}

#[test]
fn e14_fastpath_delete_and_replace() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_3], Version::V1_3);
    rt.pump().unwrap();
    let ch = FlowChannel::new(64);
    rt.drivers[0].lock().attach_fastpath(ch.clone());
    ch.install("sw1", "a", spec(22)).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    // Replace with a different match: old entry goes away.
    ch.install("sw1", "a", spec(23)).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    // Delete by name.
    ch.delete("sw1", "a").unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 0);
}

#[test]
fn e14_batch_install() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_3], Version::V1_3);
    rt.pump().unwrap();
    let ch = FlowChannel::new(4096);
    rt.drivers[0].lock().attach_fastpath(ch.clone());
    let flows: Vec<(String, FlowSpec)> = (0..500u16).map(|i| (format!("b{i}"), spec(i))).collect();
    ch.install_batch("sw1", flows).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 500);
}

#[test]
fn e15_zero_copy_fanout_shares_storage() {
    let bus = PacketBus::new(64);
    let rings: Vec<_> = (0..16).map(|i| bus.subscribe(&format!("app{i}"))).collect();
    let payload = Bytes::from(vec![0xabu8; 9000]); // jumbo frame
    let pkt = FastPacketIn {
        switch: "sw1".into(),
        in_port: 1,
        buffer_id: None,
        data: payload.clone(),
    };
    assert_eq!(bus.publish(&pkt), 16);
    for r in &rings {
        let got = r.pop().unwrap();
        assert_eq!(got.data.len(), 9000);
        // Same backing storage — no copies were made for the fan-out.
        assert_eq!(got.data.as_ptr(), payload.as_ptr());
    }
}

#[test]
fn e15_file_path_fanout_copies_by_contrast() {
    // The fs path stores an independent hex copy per subscriber, visible
    // as distinct file contents — good for shell debugging, expensive for
    // bulk data. This is the measured contrast, not a bug.
    let yfs = yanc::YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
    let subs: Vec<_> = (0..4)
        .map(|i| yfs.subscribe_events(&format!("a{i}")).unwrap())
        .collect();
    let rec = yanc::PacketInRecord {
        switch: "sw1".into(),
        in_port: 1,
        buffer_id: None,
        reason: "no_match".into(),
        data: Bytes::from(vec![7u8; 1500]),
    };
    let before = yfs.filesystem().counters().snapshot();
    yfs.publish_packet_in(&rec).unwrap();
    let cost = yfs.filesystem().counters().snapshot().since(&before);
    // The syscalls batch (one `mkdirat` per subscriber beside the fixed
    // open + list + batch + close)...
    assert_eq!(cost.total(), 4 + 4, "{}", cost.report());
    // ...the bytes do not: every subscriber holds its own 3000-char copy.
    for s in &subs {
        let entry = &yfs.list_packet_ins(&s.app).unwrap()[0];
        let data = yfs.events_dir().join(&s.app).join(entry).join("data");
        let st = yfs.filesystem().stat(data.as_str(), yfs.creds()).unwrap();
        assert_eq!((st.size, st.nlink), (3000, 1));
        assert_eq!(s.drain_all().len(), 1);
    }
}

#[test]
fn e14_fs_commit_supersedes_fastpath_flow_of_same_name() {
    // Regression: a fastpath install must not block a later fs-side commit
    // of the same flow name (the fs, as the durable view, wins).
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_3], Version::V1_3);
    rt.pump().unwrap();
    let ch = FlowChannel::new(16);
    rt.drivers[0].lock().attach_fastpath(ch.clone());
    ch.install("sw1", "shared", spec(22)).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    // Now the same name is committed through the file system with a
    // different match: hardware must follow the fs.
    rt.yfs.write_flow("sw1", "shared", &spec(23)).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    let entry = rt.net.switches[&0x1]
        .table(0)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .clone();
    assert_eq!(
        entry.m.tp_dst,
        Some(23),
        "fs commit replaced the fastpath entry"
    );
}
