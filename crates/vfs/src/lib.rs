//! # yanc-vfs — the virtual file system substrate
//!
//! An in-memory, POSIX-style virtual file system that stands in for
//! Linux VFS + FUSE in the yanc reproduction (*Applying Operating System
//! Principles to SDN Controller Design*, HotNets 2013). The paper's whole
//! thesis is that a file system — with its permissions, notification,
//! namespaces and tooling — is already most of an SDN controller; this
//! crate supplies that file system as a deterministic, embeddable library:
//!
//! * **inodes, directories, symlinks, hard links** with POSIX lookup
//!   semantics (`..` resolution, `ELOOP` limits, sticky bits, atomic
//!   rename-with-replace),
//! * **unix permissions + POSIX.1e-style ACLs + extended attributes**
//!   (paper §5.1),
//! * **inotify/fanotify-style change notification** over crossbeam channels
//!   (paper §5.2),
//! * **mount namespaces / bind mounts** for view isolation (paper §5.3),
//! * **semantic-directory hooks** so a schema layer can auto-populate
//!   objects on `mkdir` and make object removal recursive (paper §3.1),
//! * **per-operation syscall counters**, the measurement instrument for the
//!   paper's §8.1 context-switch-cost argument,
//! * **named counter scopes + `/proc`-style introspection mounts**
//!   ([`metrics`], [`proc`]): a scope tallies the syscalls landing under
//!   one path prefix, and `mount_proc` exposes counters/notify state as
//!   readable files under e.g. `/net/.proc`.
//!
//! ```
//! use std::sync::Arc;
//! use yanc_vfs::{Filesystem, Credentials, Mode, EventMask};
//!
//! let fs = Arc::new(Filesystem::new());
//! let creds = Credentials::root();
//! fs.mkdir_all("/net/switches/sw1/ports/p2", Mode::DIR_DEFAULT, &creds).unwrap();
//! let watch = fs.watch("/net").subtree().mask(EventMask::ALL).register().unwrap();
//!
//! // Bring a port down exactly as the paper does: echo 1 > config.port_down
//! fs.write_file("/net/switches/sw1/ports/p2/config.port_down", b"1\n", &creds).unwrap();
//!
//! assert_eq!(fs.read_to_string("/net/switches/sw1/ports/p2/config.port_down",
//!                              &creds).unwrap(), "1\n");
//! assert!(watch.receiver().try_iter().count() > 0); // a driver would react
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acl;
pub mod counter;
pub mod dcache;
pub mod error;
pub mod fs;
pub mod hooks;
pub mod journal;
pub mod metrics;
pub mod namespace;
pub mod notify;
pub mod overlay;
pub mod path;
pub mod poll;
pub mod proc;
pub mod rctl;
mod readpath;
mod shard;
pub mod types;

pub use acl::{check_access, Acl, AclEntry};
pub use counter::{CounterSnapshot, OpKind, SyscallCounters};
pub use dcache::DcacheStats;
pub use error::{Errno, VfsError, VfsResult};
pub use fs::{
    FdInfo, Filesystem, FsBuilder, FsCheckReport, Limits, ReclaimReport, WatchBuilder, WatchGuard,
    MAX_SYMLINK_HOPS,
};
pub use hooks::SemanticHook;
pub use journal::{scan_frames, FrameInfo, JournalStats, ReplayReport, JOURNAL_VERSION};
pub use metrics::MetricsRegistry;
pub use namespace::{MountInfo, Namespace};
pub use notify::{Event, EventKind, EventMask, NotifyHub, WatchId};
pub use overlay::{CommitReport, Overlay, OverlayStats, OPAQUE_XATTR, WHITEOUT_PREFIX};
pub use path::{valid_name, VPath, NAME_MAX, PATH_MAX};
pub use poll::{Interest, PollEvent, PollSet, PollSource, PollToken};
pub use proc::{ProcHook, ProcRegistry, ProcRender};
pub use rctl::{AppLimits, RctlTable, RctlUsage};
pub use readpath::ReadPathStats;
pub use types::{
    Access, Clock, Credentials, DirEntry, Fd, FileStat, FileType, Gid, Ino, Mode, OpenFlags,
    Timestamp, Uid, ROOT_INO,
};
