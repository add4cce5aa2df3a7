//! # yanc-apps — network applications over the yanc file system
//!
//! The application suite the paper describes: every program here is an
//! ordinary file-system client — it reads and writes `/net`, watches for
//! changes, and never talks OpenFlow (that's the drivers' job). Apps come
//! in the paper's three shapes (§2):
//!
//! * **daemons** — [`TopologyDaemon`] (LLDP discovery → `peer` symlinks),
//!   [`RouterDaemon`] (reactive exact-match paths), [`LearningSwitch`],
//!   [`ArpResponder`], [`DhcpDaemon`], [`SliceDaemon`] /
//!   [`BigSwitchDaemon`] (view translation);
//! * **occasional programs** — [`audit()`](audit::audit) and
//!   [`account()`](audit::account), cron-style
//!   passes over the tree;
//! * **shell scripts** — the static [`flow_pusher`], which is literally
//!   `mkdir` + `echo` commands;
//! * **staged sessions** — [`WhatIf`], which edits a copy-on-write overlay
//!   view of `/net`, validates the merged result, and commits it as one
//!   atomic transaction (§3.4 views).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod flow_pusher;
pub mod fw;
pub mod l2;
pub mod lb;
pub mod middlebox;
pub mod protocols;
pub mod router;
pub mod slicer;
pub mod topology;
pub mod whatif;

pub use audit::{account, audit, AuditReport, Finding};
pub use flow_pusher::{parse_pusher_text, push, render_script, PushEntry};
pub use fw::{parse_rules, DenyRule, Firewall};
pub use l2::LearningSwitch;
pub use lb::{define_pool, Backend, LoadBalancer};
pub use middlebox::{ConnState, MiddleboxInstance};
pub use protocols::{host_registry, register_host, ArpResponder, DhcpDaemon};
pub use router::RouterDaemon;
pub use slicer::{intersect, BigSwitchDaemon, SliceDaemon, BIG_SWITCH};
pub use topology::{ingress_ports, shortest_path, TopologyDaemon, TopologyView};
pub use whatif::WhatIf;

#[cfg(test)]
/// A plain up port, for the unit tests' hand-built trees.
pub(crate) fn port(port_no: u16, hw_addr: &str) -> yanc::PortSpec {
    yanc::PortSpec {
        port_no,
        hw_addr: hw_addr.into(),
        link_up: true,
        ..Default::default()
    }
}
