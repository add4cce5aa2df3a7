//! `/proc`-style read-only introspection mounts (the `/net/.proc` tree).
//!
//! A proc mount is an ordinary directory subtree whose files are
//! *rendered*: each registered file carries a closure producing its current
//! content, and the content is refreshed lazily whenever the file is about
//! to be observed (stat/open/readdir). Like Linux `debugfs`, the tree is
//! out-of-band with respect to accounting:
//!
//! * operations on proc paths are **not** tallied in [`crate::SyscallCounters`] or
//!   the [`crate::metrics::MetricsRegistry`] — so `cat
//!   /net/.proc/vfs/syscalls/total` returns exactly the value the counters
//!   held, undisturbed by the `cat` itself,
//! * refresh writes do **not** emit notify events or trigger semantic
//!   hooks, and
//! * external mutation of anything under a proc mount fails with `EROFS`.
//!
//! The read-only and refresh behaviours are enforced through the existing
//! [`SemanticHook`] mechanism: mounting installs a [`ProcHook`] whose
//! `pre_access`/`validate_mutate` callbacks the filesystem consults like
//! any other hook.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{err, Errno, VfsResult};
use crate::hooks::{HookDepth, SemanticHook};
use crate::path::VPath;
use crate::Filesystem;

/// A render closure producing the current content of one proc file.
pub type ProcRender = Arc<dyn Fn() -> String + Send + Sync>;

thread_local! {
    static PROC_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard marking "we are performing internal proc maintenance" for the
/// current thread: filesystem calls made under it skip syscall accounting,
/// notify emission and the proc read-only check.
pub(crate) struct ProcDepth;

impl ProcDepth {
    pub(crate) fn enter() -> ProcDepth {
        PROC_DEPTH.with(|d| d.set(d.get() + 1));
        ProcDepth
    }

    pub(crate) fn active() -> bool {
        PROC_DEPTH.with(|d| d.get() > 0)
    }
}

impl Drop for ProcDepth {
    fn drop(&mut self) {
        PROC_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

#[derive(Default)]
struct ProcState {
    mounts: Vec<String>,
    files: HashMap<String, ProcRender>,
    /// Per-namespace mount-table renderers (`vfs/mounts`), keyed by the
    /// name the namespace registered under.
    mount_tables: HashMap<String, ProcRender>,
}

/// Registry of proc mounts and their rendered files; one per
/// [`Filesystem`].
#[derive(Default)]
pub struct ProcRegistry {
    state: RwLock<ProcState>,
}

/// Whether `path` lies at or below `prefix` (component-boundary aware).
fn under(path: &str, prefix: &str) -> bool {
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

impl ProcRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any mount covers `path`.
    pub fn covers(&self, path: &str) -> bool {
        let state = self.state.read();
        if state.mounts.is_empty() {
            return false;
        }
        state.mounts.iter().any(|m| under(path, m))
    }

    /// Whether `prefix` is already a registered mount.
    pub fn has_mount(&self, prefix: &str) -> bool {
        self.state.read().mounts.iter().any(|m| m == prefix)
    }

    /// Whether any mount is registered at all.
    pub fn mounted(&self) -> bool {
        !self.state.read().mounts.is_empty()
    }

    /// Registered mount prefixes.
    pub fn mounts(&self) -> Vec<String> {
        self.state.read().mounts.clone()
    }

    pub(crate) fn add_mount(&self, prefix: &str) {
        let mut state = self.state.write();
        if !state.mounts.iter().any(|m| m == prefix) {
            state.mounts.push(prefix.trim_end_matches('/').to_string());
        }
    }

    pub(crate) fn register(&self, path: &str, render: ProcRender) {
        self.state.write().files.insert(path.to_string(), render);
    }

    /// The render closure for `path`, if one is registered.
    pub fn render(&self, path: &str) -> Option<ProcRender> {
        self.state.read().files.get(path).cloned()
    }

    /// Register (or replace) a namespace's mount-table renderer under
    /// `name`; it becomes a section of the `vfs/mounts` proc file.
    pub fn register_mount_table(&self, name: &str, render: ProcRender) {
        self.state
            .write()
            .mount_tables
            .insert(name.to_string(), render);
    }

    /// Render every registered mount table, sorted by namespace name,
    /// each row prefixed with that name.
    pub fn render_mount_tables(&self) -> String {
        let tables: Vec<(String, ProcRender)> = {
            let state = self.state.read();
            let mut v: Vec<_> = state
                .mount_tables
                .iter()
                .map(|(k, r)| (k.clone(), r.clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut out = String::new();
        for (name, render) in tables {
            for line in render().lines() {
                out.push_str(&name);
                out.push(' ');
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Registered file paths, sorted.
    pub fn files(&self) -> Vec<String> {
        let mut v: Vec<String> = self.state.read().files.keys().cloned().collect();
        v.sort();
        v
    }
}

/// The [`SemanticHook`] that gives proc mounts their semantics: lazy
/// refresh before reads, `EROFS` on external mutation.
pub struct ProcHook {
    registry: Arc<ProcRegistry>,
}

impl ProcHook {
    /// A hook over `registry`.
    pub fn new(registry: Arc<ProcRegistry>) -> Self {
        ProcHook { registry }
    }
}

impl SemanticHook for ProcHook {
    fn pre_access(&self, fs: &Filesystem, path: &VPath) {
        let p = path.as_str();
        if let Some(render) = self.registry.render(p) {
            let content = render();
            let _h = HookDepth::enter();
            let _p = ProcDepth::enter();
            let _ = fs.write_file(p, content.as_bytes(), &crate::Credentials::root());
        }
    }

    fn validate_mutate(&self, _fs: &Filesystem, path: &VPath) -> VfsResult<()> {
        if !ProcDepth::active() && self.registry.covers(path.as_str()) {
            return err(Errno::EROFS, path.as_str());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_depth_nests() {
        assert!(!ProcDepth::active());
        {
            let _g1 = ProcDepth::enter();
            let _g2 = ProcDepth::enter();
            assert!(ProcDepth::active());
        }
        assert!(!ProcDepth::active());
    }

    #[test]
    fn coverage_respects_component_boundaries() {
        let r = ProcRegistry::new();
        assert!(!r.covers("/net/.proc/x"));
        r.add_mount("/net/.proc");
        assert!(r.covers("/net/.proc"));
        assert!(r.covers("/net/.proc/vfs/syscalls/total"));
        assert!(!r.covers("/net/.process"));
        assert!(!r.covers("/net"));
        assert!(r.has_mount("/net/.proc"));
        assert!(!r.has_mount("/net"));
    }

    #[test]
    fn register_and_render() {
        let r = ProcRegistry::new();
        r.add_mount("/p");
        r.register("/p/answer", Arc::new(|| "42\n".to_string()));
        assert_eq!(r.render("/p/answer").unwrap()(), "42\n");
        assert!(r.render("/p/other").is_none());
        assert_eq!(r.files(), vec!["/p/answer".to_string()]);
    }
}
