//! # yanc-driver — OpenFlow drivers for the yanc file system
//!
//! Per-protocol-version drivers (paper §4.1) translating between `/net`
//! file operations and OpenFlow control channels, plus the one [`Runtime`]
//! that pumps a simulated network and its drivers to quiescence for
//! deterministic experiments, on the calling thread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod runtime;

pub use driver::{DriverReadiness, DriverState, DriverStats, OpenFlowDriver};
pub use runtime::{Runtime, SchedStats};

/// The name the frozen `benchmark/` package still imports for the
/// runtime; goes away with that package's next PR.
#[doc(hidden)]
pub type ParRuntime = Runtime;
