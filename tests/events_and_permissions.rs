//! E5 + E9: packet-in fan-out to every subscribed application (§3.5) and
//! permission/ACL isolation of network resources (§5.1).

use yanc::{PacketInRecord, YancFs};
use yanc_driver::Runtime;
use yanc_openflow::Version;
use yanc_vfs::{Acl, AppLimits, Credentials, Errno, Mode, Uid};

#[test]
fn e5_fanout_to_n_subscribers() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 2, 1, vec![Version::V1_3], Version::V1_3);
    let h = rt.net.add_host("h1", "10.0.0.1".parse().unwrap());
    rt.net.attach_host(h, (0x1, 1), None);
    rt.pump().unwrap();
    let subs: Vec<_> = (0..8)
        .map(|i| rt.yfs.subscribe_events(&format!("app{i}")).unwrap())
        .collect();
    // One table miss.
    rt.net.host_ping(h, "10.0.0.9".parse().unwrap(), 1);
    rt.pump().unwrap();
    // "our current design concurrently feeds packet-in messages to all
    // applications interested in such events."
    for (i, sub) in subs.iter().enumerate() {
        let got = sub.drain_all();
        assert_eq!(got.len(), 1, "subscriber {i}");
        assert_eq!(got[0].switch, "sw1");
        assert_eq!(got[0].in_port, 1);
    }
}

#[test]
fn e5_private_buffers_consume_independently() {
    let yfs = YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
    let a = yfs.subscribe_events("a").unwrap();
    let b = yfs.subscribe_events("b").unwrap();
    let rec = PacketInRecord {
        switch: "sw1".into(),
        in_port: 1,
        buffer_id: None,
        reason: "no_match".into(),
        data: bytes::Bytes::from_static(b"pkt"),
    };
    yfs.publish_packet_in(&rec).unwrap();
    // a consumes; b's copy is untouched (private buffers, not a shared queue).
    assert_eq!(a.drain_all().len(), 1);
    assert_eq!(yfs.list_packet_ins("a").unwrap().len(), 0);
    assert_eq!(yfs.list_packet_ins("b").unwrap().len(), 1);
    assert_eq!(b.drain_all().len(), 1);
}

#[test]
fn e9_unauthorized_app_cannot_touch_protected_switch() {
    let rt = {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(0x1, 2, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        rt
    };
    let fs = rt.yfs.filesystem();
    let admin = Credentials::root();
    let app = Credentials::user(2000, 2000);
    // "while individual flows can be protected for specific processes, so
    // too can an entire switch (thus all of its flows)."
    fs.chmod("/net/switches/sw1", Mode(0o700), &admin).unwrap();
    let app_view = rt.yfs.with_creds(app.clone());
    let e = app_view.list_flows("sw1").unwrap_err();
    assert!(matches!(e, yanc::YancError::Vfs(v) if v.errno == Errno::EACCES));
    let e = app_view
        .write_flow("sw1", "f", &yanc::FlowSpec::default())
        .unwrap_err();
    assert!(matches!(e, yanc::YancError::Vfs(v) if v.errno == Errno::EACCES));
}

#[test]
fn e9_acl_grants_one_app_access() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 2, 1, vec![Version::V1_0], Version::V1_0);
    rt.pump().unwrap();
    let fs = rt.yfs.filesystem();
    let admin = Credentials::root();
    fs.chmod("/net/switches/sw1", Mode(0o700), &admin).unwrap();
    // Grant uid 2000 traverse+read+write on the switch via an ACL.
    let mut acl = Acl::new();
    acl.set_user(Uid(2000), 0o7);
    fs.set_acl("/net/switches/sw1", Some(acl.clone()), &admin)
        .unwrap();
    // Grant on the subdirectories the flow write touches.
    fs.set_acl("/net/switches/sw1/flows", Some(acl), &admin)
        .unwrap();
    let trusted = rt.yfs.with_creds(Credentials::user(2000, 2000));
    trusted.list_flows("sw1").unwrap();
    let spec = yanc::FlowSpec {
        actions: vec![yanc_openflow::Action::out(2)],
        ..Default::default()
    };
    trusted.write_flow("sw1", "granted", &spec).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    // A different app is still locked out.
    let other = rt.yfs.with_creds(Credentials::user(2001, 2001));
    assert!(other.list_flows("sw1").is_err());
}

#[test]
fn e9_flow_level_protection() {
    let yfs = YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
    yfs.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
    let spec = yanc::FlowSpec::default();
    yfs.write_flow("sw1", "protected", &spec).unwrap();
    let fs = yfs.filesystem();
    let admin = Credentials::root();
    fs.chown(
        "/net/switches/sw1/flows/protected",
        Some(Uid(1000)),
        None,
        &admin,
    )
    .unwrap();
    fs.chmod("/net/switches/sw1/flows/protected", Mode(0o700), &admin)
        .unwrap();
    // Owner reads fine; stranger cannot.
    let owner = yfs.with_creds(Credentials::user(1000, 1000));
    owner.read_flow("sw1", "protected").unwrap();
    let stranger = yfs.with_creds(Credentials::user(1001, 1001));
    assert!(stranger.read_flow("sw1", "protected").is_err());
    // But the stranger can still see *other* flows on the same switch.
    yfs.write_flow("sw1", "public", &yanc::FlowSpec::default())
        .unwrap();
    stranger.read_flow("sw1", "public").unwrap();
}

#[test]
fn flow_quota_slot_returns_to_the_app_when_the_driver_expires_its_flows() {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 2, 1, vec![Version::V1_0], Version::V1_0);
    rt.pump().unwrap();
    let fs = rt.yfs.filesystem().clone();
    fs.chmod("/net/switches/sw1/flows", Mode(0o777), &Credentials::root())
        .unwrap();
    fs.set_app_limits(
        Uid(2000),
        AppLimits {
            max_flows: Some(2),
            ..Default::default()
        },
    );
    let app = rt.yfs.with_creds(Credentials::user(2000, 2000));
    let spec = |tp_dst: u16| yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            tp_dst: Some(tp_dst),
            ..Default::default()
        },
        actions: vec![yanc_openflow::Action::out(2)],
        idle_timeout: 5,
        ..Default::default()
    };
    app.write_flow("sw1", "a", &spec(1)).unwrap();
    app.write_flow("sw1", "b", &spec(2)).unwrap();
    let e = app.write_flow("sw1", "c", &spec(3)).unwrap_err();
    assert_eq!(e.errno(), Some(Errno::EDQUOT));
    // A rewrite is free, and so is the failed install above.
    app.write_flow("sw1", "a", &spec(1)).unwrap();
    assert_eq!(fs.rctl().usage(2000).unwrap().flows, 2);
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 2);
    // Both idle out; the driver, as root, removes their directories on
    // FlowRemoved — and the slots go back to uid 2000, who was charged.
    rt.advance(10).unwrap();
    assert!(rt.yfs.list_flows("sw1").unwrap().is_empty());
    assert_eq!(fs.rctl().usage(2000).unwrap().flows, 0);
    app.write_flow("sw1", "c", &spec(3)).unwrap();
    // Deleting one's own flow releases too, exactly once.
    app.delete_flow("sw1", "c").unwrap();
    assert_eq!(fs.rctl().usage(2000).unwrap().flows, 0);
}
