//! Named per-prefix syscall counter scopes.
//!
//! The [`MetricsRegistry`] extends the global [`SyscallCounters`] tally with
//! *named scopes*: a scope is a path prefix (typically a mount point such as
//! `/net`) with its own `SyscallCounters`, so experiments can ask "how many
//! syscalls landed under this mount" without diffing global snapshots.
//! Counts are the only thing kept here: they are machine-independent and
//! pinned by the tier-1 tests. Time is measured, not modelled — see
//! `benchmark/`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::counter::{OpKind, SyscallCounters};

struct Scope {
    name: String,
    prefix: String,
    counters: Arc<SyscallCounters>,
}

/// Whether `path` lies at or below `prefix` (component-boundary aware).
fn under(path: &str, prefix: &str) -> bool {
    if prefix == "/" {
        return true;
    }
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

/// Named per-prefix counter scopes.
///
/// One registry per [`crate::Filesystem`]; the filesystem feeds it from the
/// same entry points that bump the global [`SyscallCounters`].
pub struct MetricsRegistry {
    scopes: RwLock<Vec<Scope>>,
    /// Mirror of `scopes.len()`, readable without the lock: `record` is on
    /// every syscall's hot path and most filesystems have no scopes, so the
    /// common case must not touch the `RwLock` at all.
    scope_count: AtomicUsize,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            scopes: RwLock::new(Vec::new()),
            scope_count: AtomicUsize::new(0),
        }
    }

    /// Record one operation on `path`: bumps every scope whose prefix
    /// covers `path`.
    pub fn record(&self, op: OpKind, path: &str) {
        if self.scope_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let scopes = self.scopes.read();
        for s in scopes.iter() {
            if under(path, &s.prefix) {
                s.counters.bump(op);
            }
        }
    }

    /// Register (or fetch) a named counter scope over `prefix`. Re-adding an
    /// existing name returns the existing counters (the prefix is not
    /// changed).
    pub fn add_scope(&self, name: &str, prefix: &str) -> Arc<SyscallCounters> {
        let mut scopes = self.scopes.write();
        if let Some(s) = scopes.iter().find(|s| s.name == name) {
            return s.counters.clone();
        }
        let counters = Arc::new(SyscallCounters::new());
        scopes.push(Scope {
            name: name.to_string(),
            prefix: prefix.trim_end_matches('/').to_string(),
            counters: counters.clone(),
        });
        self.scope_count.store(scopes.len(), Ordering::Release);
        counters
    }

    /// Counters of a named scope, if registered.
    pub fn scope(&self, name: &str) -> Option<Arc<SyscallCounters>> {
        self.scopes
            .read()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.counters.clone())
    }

    /// `(name, prefix)` of every registered scope, in registration order.
    pub fn scope_names(&self) -> Vec<(String, String)> {
        self.scopes
            .read()
            .iter()
            .map(|s| (s.name.clone(), s.prefix.clone()))
            .collect()
    }

    /// Reset every scope counter.
    pub fn reset(&self) {
        for s in self.scopes.read().iter() {
            s.counters.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_only_see_their_prefix() {
        let m = MetricsRegistry::new();
        let net = m.add_scope("net", "/net");
        let all = m.add_scope("all", "/");
        m.record(OpKind::Stat, "/net/switches/sw1");
        m.record(OpKind::Stat, "/etc/other");
        m.record(OpKind::Stat, "/network"); // sibling, NOT under /net
        assert_eq!(net.total(), 1);
        assert_eq!(all.total(), 3);
        assert_eq!(m.scope("net").unwrap().total(), 1);
        assert!(m.scope("missing").is_none());
    }

    #[test]
    fn add_scope_is_idempotent_by_name() {
        let m = MetricsRegistry::new();
        let a = m.add_scope("s", "/a");
        let b = m.add_scope("s", "/b");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(m.scope_names(), vec![("s".to_string(), "/a".to_string())]);
    }
}
