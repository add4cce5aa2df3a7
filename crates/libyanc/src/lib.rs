//! # libyanc — the shared-memory fastpath (paper §8.1)
//!
//! "Each fine-grained access to the file system is done through a system
//! call … Complex operations such as writing flow entries to thousands of
//! nodes will result in tens of thousands of context switches. To mitigate
//! \[this\] we are implementing libyanc, a set of network-centric library
//! calls atop a shared memory system."
//!
//! This crate is that library: a [`FlowChannel`] for programming flows
//! through one ring push instead of per-field file writes, and a
//! [`PacketBus`] for zero-copy fan-out of packet-in buffers. Drivers
//! accept a `FlowChannel` alongside their file-system watch, so the fast
//! and slow paths coexist — which is what benchmark E14 measures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fastpath;
pub mod ring;

pub use fastpath::{FastPacketIn, FlowChannel, FlowOp, PacketBus};
pub use ring::{Ring, RingStats};
