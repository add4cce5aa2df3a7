//! E1 + E2: the file system hierarchy of the paper's Figure 2 and the
//! switch/flow object layouts of Figure 3, reproduced byte for byte where
//! the paper draws them.

use yanc::{FlowSpec, YancFs};
use yanc_coreutils::Shell;
use yanc_openflow::{port_no, Action, FlowMatch};
use yanc_vfs::{Credentials, Filesystem, Mode};

fn world() -> (YancFs, Shell) {
    let fs = std::sync::Arc::new(Filesystem::new());
    let yfs = YancFs::init(fs.clone(), "/net").unwrap();
    (yfs, Shell::new(fs))
}

#[test]
fn fig2_top_level_hierarchy() {
    let (yfs, mut sh) = world();
    // Figure 2: /net { hosts, switches/{sw1,sw2}, views/{http,management-net} }
    yfs.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
    yfs.create_switch("sw2", 2, 0, 0, 0, 1, None).unwrap();
    yfs.create_view("http").unwrap();
    yfs.create_view("management-net").unwrap();

    let out = sh.run("ls /net").out;
    assert_eq!(out, "events\nhosts\nswitches\nviews\n");
    assert_eq!(sh.run("ls /net/switches").out, "sw1\nsw2\n");
    assert_eq!(sh.run("ls /net/views").out, "http\nmanagement-net\n");
    // The figure shows management-net containing hosts, switches, views —
    // created automatically by the mkdir (§3.1).
    assert_eq!(
        sh.run("ls /net/views/management-net").out,
        "hosts\nswitches\nviews\n"
    );
}

#[test]
fn fig3_switch_object() {
    let (yfs, mut sh) = world();
    yfs.create_switch("sw1", 1, 0xc7, 0xfff, 256, 2, None)
        .unwrap();
    let out = sh.run("ls /net/switches/sw1").out;
    // Figure 3 lists: counters/ flows/ ports/ actions capabilities id
    // num_buffers (we add num_tables + packet_out for multi-table and
    // packet-out support — documented in DESIGN.md).
    for required in [
        "counters",
        "flows",
        "ports",
        "actions",
        "capabilities",
        "id",
        "num_buffers",
    ] {
        assert!(
            out.lines().any(|l| l == required),
            "missing {required} in:\n{out}"
        );
    }
    assert_eq!(sh.run("cat /net/switches/sw1/num_buffers").out, "256");
    assert_eq!(sh.run("cat /net/switches/sw1/id").out, "0x0000000000000001");
}

#[test]
fn fig3_flow_object() {
    let (yfs, mut sh) = world();
    yfs.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
    // Figure 3's arp_flow: counters/ match.dl_type match.dl_src action.out
    // priority timeout version.
    let spec = FlowSpec {
        m: FlowMatch {
            dl_type: Some(0x0806),
            dl_src: Some("aa:bb:cc:dd:ee:ff".parse().unwrap()),
            ..Default::default()
        },
        actions: vec![Action::out(port_no::CONTROLLER)],
        priority: 1000,
        idle_timeout: 60,
        ..Default::default()
    };
    yfs.write_flow("sw1", "arp_flow", &spec).unwrap();
    let out = sh.run("ls /net/switches/sw1/flows/arp_flow").out;
    for required in [
        "counters",
        "match.dl_type",
        "match.dl_src",
        "action.out",
        "priority",
        "version",
    ] {
        assert!(
            out.lines().any(|l| l == required),
            "missing {required} in:\n{out}"
        );
    }
    assert_eq!(
        sh.run("cat /net/switches/sw1/flows/arp_flow/match.dl_type")
            .out,
        "0x0806"
    );
    assert_eq!(
        sh.run("cat /net/switches/sw1/flows/arp_flow/action.out")
            .out,
        "controller"
    );
    assert_eq!(
        sh.run("cat /net/switches/sw1/flows/arp_flow/version").out,
        "1"
    );
    // Absence of a match file implies a wildcard: no match.nw_src here.
    assert!(!out.contains("match.nw_src"));
}

#[test]
fn fig2_nested_views_nest_arbitrarily() {
    let (yfs, _sh) = world();
    let fs = yfs.filesystem();
    let creds = Credentials::root();
    // Views stack (§4.2 "views can be stacked arbitrarily").
    fs.mkdir("/net/views/a", Mode::DIR_DEFAULT, &creds).unwrap();
    fs.mkdir("/net/views/a/views/b", Mode::DIR_DEFAULT, &creds)
        .unwrap();
    fs.mkdir("/net/views/a/views/b/views/c", Mode::DIR_DEFAULT, &creds)
        .unwrap();
    assert!(fs.exists("/net/views/a/views/b/views/c/switches", &creds));
}

#[test]
fn port_peer_symlink_shape() {
    let (yfs, mut sh) = world();
    for (sw, d) in [("sw1", 1u64), ("sw2", 2)] {
        yfs.create_switch(sw, d, 0, 0, 0, 1, None).unwrap();
        let ports = [2u16, 3].map(|port_no| yanc::PortSpec {
            port_no,
            hw_addr: format!("02:00:00:00:00:0{port_no}"),
            curr_speed: 1_000_000,
            max_speed: 10_000_000,
            link_up: true,
            config_down: false,
        });
        yfs.create_ports(sw, &ports).unwrap();
    }
    yfs.set_peer("sw1", 2, "sw2", 3).unwrap();
    // ls -l renders the symlink arrow, like the paper's directory listings.
    let out = sh.run("ls -l /net/switches/sw1/ports/p2").out;
    assert!(out.contains("peer -> /net/switches/sw2/ports/p3"), "{out}");
}
