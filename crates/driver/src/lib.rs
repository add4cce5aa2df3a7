//! # yanc-driver — OpenFlow drivers for the yanc file system
//!
//! Per-protocol-version drivers (paper §4.1) translating between `/net`
//! file operations and OpenFlow control channels, plus the one [`Runtime`]
//! that pumps a simulated network and its drivers to quiescence for
//! deterministic experiments — inline at one worker, through the
//! work-stealing pool in [`par`] above one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod par;
pub mod runtime;

pub use driver::{DriverReadiness, DriverState, DriverStats, OpenFlowDriver};
pub use par::{FanIn, FanInHandle, WorkerStats};
pub use runtime::{Runtime, SchedStats};

/// The name the frozen `benchmark/` package still imports for the
/// runtime; goes away with that package's next PR.
pub type ParRuntime = Runtime;
