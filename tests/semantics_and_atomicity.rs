//! E3 + E4: semantic directories (§3.1) and atomic multi-file flow commits
//! through the `version` file (§3.4), exercised end to end against a
//! driver-managed switch.

use yanc_apps::WhatIf;
use yanc_coreutils::Shell;
use yanc_driver::Runtime;
use yanc_harness::check_flows;
use yanc_openflow::Version;
use yanc_vfs::{Credentials, Errno, Mode};

fn rt_with_switch(v: Version) -> Runtime {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0xa, 4, 2, vec![v], v);
    let h = rt.net.add_host("h1", "10.0.0.1".parse().unwrap());
    rt.net.attach_host(h, (0xa, 1), None);
    rt.pump().unwrap();
    rt
}

#[test]
fn e3_echo_port_down_reaches_hardware() {
    let mut rt = rt_with_switch(Version::V1_0);
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    // The paper's §3.1 example, verbatim (modulo the absolute path).
    let out = sh.run("echo 1 > /net/switches/swa/ports/p2/config.port_down");
    assert!(out.success(), "{}", out.err);
    rt.pump().unwrap();
    assert!(rt.net.switches[&0xa].ports[&2].config_down);
    sh.run("echo 0 > /net/switches/swa/ports/p2/config.port_down");
    rt.pump().unwrap();
    assert!(!rt.net.switches[&0xa].ports[&2].config_down);
}

#[test]
fn e3_semantic_mkdir_of_views_and_flows() {
    let rt = rt_with_switch(Version::V1_0);
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    // "mkdir views/new_view will create … hosts, switches, and views".
    assert!(sh.run("mkdir /net/views/new_view").success());
    assert_eq!(
        sh.run("ls /net/views/new_view").out,
        "hosts\nswitches\nviews\n"
    );
    // mkdir of a flow creates the version file (the commit cell).
    assert!(sh.run("mkdir /net/switches/swa/flows/f1").success());
    assert_eq!(sh.run("cat /net/switches/swa/flows/f1/version").out, "0");
}

#[test]
fn e3_recursive_switch_rmdir() {
    let mut rt = rt_with_switch(Version::V1_0);
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    sh.run("mkdir /net/switches/swa/flows/f1");
    sh.run("echo flood > /net/switches/swa/flows/f1/action.out");
    // "the rmdir() call for switches is automatically recursive."
    assert!(sh.run("rmdir /net/switches/swa").success());
    assert!(!rt
        .yfs
        .filesystem()
        .exists("/net/switches/swa", rt.yfs.creds()));
    rt.pump().unwrap();
}

#[test]
fn e3_schema_validation_rejects_nonsense() {
    let rt = rt_with_switch(Version::V1_0);
    let fs = rt.yfs.filesystem();
    // Unknown flow fields are EINVAL at create time.
    fs.mkdir(
        "/net/switches/swa/flows/f",
        Mode::DIR_DEFAULT,
        rt.yfs.creds(),
    )
    .unwrap();
    let e = fs
        .write_file(
            "/net/switches/swa/flows/f/match.quantum_state",
            b"up",
            rt.yfs.creds(),
        )
        .unwrap_err();
    assert_eq!(e.errno, Errno::EINVAL);
    // peer links must point at ports.
    let e = fs
        .symlink(
            "/net/switches/swa",
            "/net/switches/swa/ports/p1/peer",
            rt.yfs.creds(),
        )
        .unwrap_err();
    assert_eq!(e.errno, Errno::EINVAL);
}

#[test]
fn e4_commit_is_atomic_with_respect_to_the_driver() {
    // Write a flow field by field, pumping the driver between every write:
    // nothing may reach hardware until the version bump, and then exactly
    // the final state must.
    let mut rt = rt_with_switch(Version::V1_3);
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    sh.run("mkdir /net/switches/swa/flows/staged");
    let fields = [
        ("match.dl_type", "0x0800"),
        ("match.nw_proto", "6"),
        ("match.nw_src", "10.0.0.0/24"),
        ("match.nw_dst", "10.1.0.0/16"),
        ("match.tp_dst", "22"),
        ("priority", "900"),
        ("idle_timeout", "30"),
        ("action.set_nw_tos", "32"),
        ("action.out", "2"),
    ];
    for (k, v) in fields {
        assert!(sh
            .run(&format!("echo {v} > /net/switches/swa/flows/staged/{k}"))
            .success());
        rt.pump().unwrap();
        assert_eq!(
            rt.net.switches[&0xa].flow_count(),
            0,
            "driver acted before the version bump (after writing {k})"
        );
    }
    // Commit.
    sh.run("echo 1 > /net/switches/swa/flows/staged/version");
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    let entry = rt.net.switches[&0xa]
        .table(0)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .clone();
    assert_eq!(entry.priority, 900);
    assert_eq!(entry.m.tp_dst, Some(22));
    assert_eq!(entry.m.nw_src.unwrap().prefix_len, 24);
    assert_eq!(entry.idle_timeout, 30);
    assert_eq!(entry.actions.len(), 2); // set_nw_tos + output
}

#[test]
fn e4_recommit_replaces_switch_state() {
    let mut rt = rt_with_switch(Version::V1_3);
    let y = &rt.yfs;
    let spec = yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0800),
            nw_proto: Some(6),
            tp_dst: Some(22),
            ..Default::default()
        },
        actions: vec![yanc_openflow::Action::out(2)],
        priority: 700,
        ..Default::default()
    };
    y.write_flow("swa", "f", &spec).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    // Rewrite with a different match: old hardware entry must be replaced,
    // not accumulated.
    let spec2 = yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0800),
            nw_proto: Some(6),
            tp_dst: Some(23),
            ..Default::default()
        },
        actions: vec![yanc_openflow::Action::out(3)],
        priority: 700,
        ..Default::default()
    };
    rt.yfs.write_flow("swa", "f", &spec2).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    let entry = rt.net.switches[&0xa]
        .table(0)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .clone();
    assert_eq!(entry.m.tp_dst, Some(23));
    // Rewrite through a held descriptor with a *narrower* match: the field
    // files the new spec dropped are removed with it, so the switch ends up
    // holding the match the writer asked for and nothing more.
    let spec3 = yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0800),
            ..Default::default()
        },
        ..spec2
    };
    let flows = rt.yfs.open_flows_dir("swa").unwrap();
    assert_eq!(rt.yfs.write_flow_at(flows, "f", &spec3).unwrap(), 3);
    rt.yfs.filesystem().close(flows, rt.yfs.creds()).unwrap();
    rt.pump().unwrap();
    let table: Vec<_> = rt.net.switches[&0xa].table(0).unwrap().iter().collect();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].m, spec3.m);
    check_flows(&rt).unwrap();
}

#[test]
fn removing_a_flows_version_withdraws_it_from_the_switch() {
    // `version` is the commit cell: without it `/net` shows the flow as
    // uncommitted, so the switch must not keep forwarding it.
    let mut rt = rt_with_switch(Version::V1_3);
    let spec = yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0806),
            ..Default::default()
        },
        actions: vec![yanc_openflow::Action::out(2)],
        priority: 300,
        ..Default::default()
    };
    rt.yfs.write_flow("swa", "arp", &spec).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    check_flows(&rt).unwrap();
    let version = rt.yfs.flow_dir("swa", "arp").join("version");
    let fs = rt.yfs.filesystem();
    fs.unlink(version.as_str(), rt.yfs.creds()).unwrap();
    // Until the driver runs, `/net` and the switch disagree.
    let stale = check_flows(&rt).unwrap_err();
    assert!(stale.contains("matches 0 flow directories"), "{stale}");
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
    check_flows(&rt).unwrap();
    // Committing again installs it again.
    let fs = rt.yfs.filesystem();
    fs.write_file(version.as_str(), b"2", rt.yfs.creds())
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    check_flows(&rt).unwrap();
}

/// An ARP flow out of port 2 at priority 300.
fn arp_flow() -> yanc::FlowSpec {
    yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0806),
            ..Default::default()
        },
        actions: vec![yanc_openflow::Action::out(2)],
        priority: 300,
        ..Default::default()
    }
}

/// FlowMods the (only) driver has sent so far.
fn flow_mods(rt: &Runtime) -> u64 {
    let stats = rt.drivers[0].lock().stats();
    stats.flow_mods.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn a_staged_flow_deletion_withdraws_the_flow_on_commit() {
    let mut rt = rt_with_switch(Version::V1_3);
    rt.yfs.write_flow("swa", "arp", &arp_flow()).unwrap();
    let ssh = yanc::FlowSpec {
        m: yanc_openflow::FlowMatch {
            dl_type: Some(0x0800),
            nw_proto: Some(6),
            tp_dst: Some(22),
            ..Default::default()
        },
        priority: 700,
        ..arp_flow()
    };
    rt.yfs.write_flow("swa", "ssh", &ssh).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 2);
    // The commit removes the flow directory in one batch step; the driver
    // hears its `version` go as it would from a live `rmdir`.
    let root = Credentials::root();
    let fs = rt.yfs.filesystem().clone();
    let session = WhatIf::begin(fs, "/net", "/staging/del", &root).unwrap();
    session.delete_flow("swa", "arp").unwrap();
    assert!(session.commit().unwrap().whiteouts > 0);
    rt.pump().unwrap();
    assert_eq!(rt.yfs.list_flows("swa").unwrap(), vec!["ssh"]);
    assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
    check_flows(&rt).unwrap();
}

#[test]
fn a_staged_version_bump_reinstalls_without_a_gap() {
    let mut rt = rt_with_switch(Version::V1_3);
    rt.yfs.write_flow("swa", "arp", &arp_flow()).unwrap();
    rt.pump().unwrap();
    // The commit replaces `version` and `action.out` (unlink + create):
    // the driver must re-install over the old entry, not delete it first.
    let root = Credentials::root();
    let fs = rt.yfs.filesystem().clone();
    let session = WhatIf::begin(fs, "/net", "/staging/bump", &root).unwrap();
    let fields = [("action.out", "3"), ("version", "2")];
    session.stage_flow("swa", "arp", &fields).unwrap();
    session.commit().unwrap();
    let before = flow_mods(&rt);
    rt.pump().unwrap();
    assert_eq!(flow_mods(&rt) - before, 1, "one add, no delete");
    let table: Vec<_> = rt.net.switches[&0xa].table(0).unwrap().iter().collect();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].actions, vec![yanc_openflow::Action::out(3)]);
    check_flows(&rt).unwrap();
}

#[test]
fn renaming_a_new_version_into_place_keeps_the_flow_installed() {
    let mut rt = rt_with_switch(Version::V1_3);
    rt.yfs.write_flow("swa", "arp", &arp_flow()).unwrap();
    rt.pump().unwrap();
    let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
    let dir = rt.yfs.flow_dir("swa", "arp");
    fs.write_file(dir.join("action.out").as_str(), b"3", &creds)
        .unwrap();
    // Write the new version aside, then `mv` it over the old one: the
    // driver hears the old `version` deleted and the new one moved in.
    fs.mkdir_all("/tmp", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/tmp/version", b"2", &creds).unwrap();
    let before = flow_mods(&rt);
    fs.rename("/tmp/version", dir.join("version").as_str(), &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(flow_mods(&rt) - before, 1, "one add, no delete");
    let table: Vec<_> = rt.net.switches[&0xa].table(0).unwrap().iter().collect();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].actions, vec![yanc_openflow::Action::out(3)]);
    check_flows(&rt).unwrap();
    // Renamed away, the version is gone: the flow is withdrawn.
    fs.rename(dir.join("version").as_str(), "/tmp/version", &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
    check_flows(&rt).unwrap();
}

#[test]
fn a_field_edit_recommitted_at_the_same_version_reaches_the_switch() {
    let mut rt = rt_with_switch(Version::V1_3);
    rt.yfs.write_flow("swa", "arp", &arp_flow()).unwrap();
    rt.pump().unwrap();
    let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
    let dir = rt.yfs.flow_dir("swa", "arp");
    fs.write_file(dir.join("action.out").as_str(), b"3", &creds)
        .unwrap();
    // `version` is the commit cell, not a counter the writer must bump:
    // rewriting it with the number it already holds commits the edit.
    fs.write_file(dir.join("version").as_str(), b"1", &creds)
        .unwrap();
    let before = flow_mods(&rt);
    rt.pump().unwrap();
    assert_eq!(flow_mods(&rt) - before, 1, "one add, no delete");
    let table: Vec<_> = rt.net.switches[&0xa].table(0).unwrap().iter().collect();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].actions, vec![yanc_openflow::Action::out(3)]);
    check_flows(&rt).unwrap();
    // Committing the same spec again changes nothing on the switch.
    fs.write_file(dir.join("version").as_str(), b"1", &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(flow_mods(&rt) - before, 1, "nothing new to install");
}

#[test]
fn renaming_a_version_of_the_same_number_into_place_reinstalls() {
    let mut rt = rt_with_switch(Version::V1_3);
    rt.yfs.write_flow("swa", "arp", &arp_flow()).unwrap();
    rt.pump().unwrap();
    let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
    let dir = rt.yfs.flow_dir("swa", "arp");
    fs.write_file(dir.join("action.out").as_str(), b"3", &creds)
        .unwrap();
    // `mv tmp version` with the number the flow already holds: the
    // driver hears the old `version` go and the new one arrive.
    fs.mkdir_all("/tmp", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.write_file("/tmp/version", b"1", &creds).unwrap();
    let before = flow_mods(&rt);
    fs.rename("/tmp/version", dir.join("version").as_str(), &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(flow_mods(&rt) - before, 1, "one add, no delete");
    let table: Vec<_> = rt.net.switches[&0xa].table(0).unwrap().iter().collect();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].actions, vec![yanc_openflow::Action::out(3)]);
    check_flows(&rt).unwrap();
}
