//! # yanc — the file system *is* the SDN controller
//!
//! Reproduction of *Applying Operating System Principles to SDN Controller
//! Design* (Monaco, Michel, Keller — HotNets 2013). yanc exposes network
//! configuration and state as a file system: switches, ports, flows, links
//! and views are directories, files and symlinks under `/net`; applications
//! are ordinary processes doing ordinary file I/O; drivers translate file
//! changes into OpenFlow and back.
//!
//! This crate is the schema layer over [`yanc_vfs`]:
//!
//! * [`schema`] — the `/net` layout (paper Figures 2 & 3),
//! * [`hook::YancHook`] — semantic directories: auto-populated views and
//!   switches, auto-created flow `version` files, recursive object
//!   removal, validated `peer` symlinks and flow field names (§3.1–§3.4),
//! * [`flowspec::FlowSpec`] — the flow ↔ files codec (CIDR matches,
//!   `action.*` files, `version`-file commit),
//! * [`yancfs::YancFs`] — a typed façade over the file tree (everything it
//!   does is plain file I/O you could also do with `echo` and `mkdir`),
//! * [`views`] — slice / big-switch view configuration (§4.2).
//!
//! ```
//! use std::sync::Arc;
//! use yanc::{YancFs, FlowSpec};
//! use yanc_vfs::Filesystem;
//! use yanc_openflow::{Action, FlowMatch};
//!
//! let fs = Arc::new(Filesystem::new());
//! let y = YancFs::init(fs, "/net").unwrap();
//! y.create_switch("sw1", 0x1, 0x7, 0xfff, 256, 1, None).unwrap();
//!
//! // Install a flow by writing files; the version bump commits it.
//! let spec = FlowSpec {
//!     m: FlowMatch { dl_type: Some(0x0806), ..Default::default() },
//!     actions: vec![Action::out(yanc_openflow::port_no::CONTROLLER)],
//!     ..Default::default()
//! };
//! y.write_flow("sw1", "arp_flow", &spec).unwrap();
//! assert_eq!(y.read_flow("sw1", "arp_flow").unwrap().version, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod error;
pub mod flowspec;
pub mod hook;
pub mod schema;
pub mod views;
pub mod yancfs;

pub use app::YancApp;
pub use error::{RingFull, YancError, YancResult};
pub use flowspec::{parse_port_token, port_token, FlowOp, FlowSpec};
pub use hook::YancHook;
pub use schema::{classify, valid_flow_file, SchemaPos, NET_ROOT};
pub use views::{ViewConfig, ViewKind};
pub use yancfs::{
    hex_decode, hex_encode, parse_packet_out_line, EventSubscription, HostRecord, Object,
    PacketInRecord, PortSpec, YancFs,
};
