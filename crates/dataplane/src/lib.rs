//! # yanc-dataplane — a simulated OpenFlow network
//!
//! The hardware substrate for the yanc reproduction: OpenFlow switches with
//! priority flow tables, multi-table pipelines, buffers and counters;
//! end hosts with a miniature ARP/ICMP/UDP/TCP stack; and a deterministic
//! discrete-event [`Network`] that moves frames over latency-bearing links
//! and carries *real OpenFlow wire bytes* between switches and their
//! drivers. Virtual time makes every experiment exactly reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actions;
pub mod fabric;
pub mod flow_table;
pub mod host;
pub mod net;
pub mod switch;

pub use actions::{apply_actions, ActionOutcome};
pub use fabric::{FabricHost, FabricLink, FabricSwitch, FabricTier, FatTree};
pub use flow_table::{entry, FlowEntry, FlowTable, RemovedFlow};
pub use host::{ReceivedUdp, SimHost};
pub use net::{ControlHandle, ControlTx, Endpoint, Link, NetStats, Network};
pub use switch::{Effect, SimPort, SimSwitch};
