//! Sharded dentry cache (dcache) with generation-validated lookups.
//!
//! Path resolution is the hottest code in the system: every path-addressed
//! `open`/`stat`/`write` walks from the root hop by hop, taking one shard
//! read-lock per component. The dcache memoises those hops exactly the way
//! the Linux dcache does — a hash table keyed `(parent_ino, component)`
//! whose entries remember the child inode and its kind — so a warm walk is
//! O(components) hash hits with **zero** inode-table locks.
//!
//! ## Generation protocol (coherence)
//!
//! Correctness rides on a seqlock-style generation scheme instead of eager
//! invalidation:
//!
//! * every inode maps onto one of `GEN_SLOTS` striped `AtomicU64`
//!   generation counters (`ino % GEN_SLOTS`),
//! * a *reader* filling the cache loads the parent's generation **before**
//!   its live inode-table read and stores that pre-read value in the entry,
//! * every *mutation* of a directory (create/unlink/rmdir/link/rename into
//!   or out of it, chmod/chown/ACL change on it) bumps the directory's
//!   generation **inside** the shard write-lock critical section,
//! * a cached entry is honoured only while `entry.gen` equals the parent's
//!   current generation.
//!
//! Any mutation that commits after a reader's generation load therefore
//! invalidates that reader's fill before it can ever be used: stale entries
//! are dropped lazily on the next lookup (validate-on-use — there is never
//! a global flush). Slot collisions between inodes only ever cause extra
//! conservative invalidation, never false validity.
//!
//! ## Negative entries
//!
//! A lookup that finds no child caches that absence (`child: None`), so
//! watch-heavy pollers probing not-yet-created paths get their `ENOENT`
//! from one hash hit. The parent's next mutation bumps its generation and
//! retires the negative entry like any other.
//!
//! ## Overlay layers are cached correctly for free
//!
//! [`crate::overlay`] mounts never touch the dcache directly, and never
//! need to: an overlay resolves by probing *real per-layer paths* (upper,
//! then each lower), so every cached hop is keyed by a real layer
//! directory's inode — the key is layer-aware by construction. A whiteout
//! is a *positive* entry for the literal name `.wh.x` in the upper dir,
//! not a negative entry for `x`; deleting or re-creating through the view
//! mutates the upper dir and bumps its generation, and an atomic view
//! commit mutates the real base/upper directories under `lock_all`,
//! bumping each touched directory's generation inside the critical
//! section. A merged lookup therefore can never be served a stale positive
//! or stale negative from before a commit.
//!
//! ## Permissions are revalidated on every hit
//!
//! Each entry snapshots the parent directory's `(uid, gid, mode, acl)` at
//! fill time, and [`crate::check_access`] runs against the *caller's*
//! credentials on every hit. A hit can therefore never widen access: the
//! snapshot is only as old as the directory's generation (chmod/chown/ACL
//! changes bump it), and the caller-specific check is never skipped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::acl::Acl;
use crate::types::{Gid, Ino, Mode, Uid};

/// Striped generation slots. Collisions are safe (conservative
/// over-invalidation), so this only trades memory against false sharing of
/// generations between unrelated directories.
const GEN_SLOTS: usize = 4096;

/// Entries per cache shard before the shard is wholesale cleared. The cap
/// bounds memory on pathological workloads; a clear costs one refill pass
/// and is counted in `evictions`.
const SHARD_CAP: usize = 16_384;

/// What a positive dentry remembers about the child inode.
///
/// An inode's kind is immutable for the lifetime of its number (nothing
/// converts a file into a directory in place, and symlink targets are
/// write-once), so caching it is always safe while the entry validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CachedKind {
    /// Child is a directory.
    Dir,
    /// Child is a regular file.
    File,
    /// Child is a symlink with this target.
    Symlink(String),
}

/// Snapshot of the permission-relevant attributes of the *parent*
/// directory, taken at fill time and re-checked against the caller's
/// credentials on every hit.
#[derive(Debug, Clone)]
pub(crate) struct ParentPerm {
    pub uid: Uid,
    pub gid: Gid,
    pub mode: Mode,
    pub acl: Option<Acl>,
}

/// One cached resolution hop: `(parent_ino, component) → child`.
#[derive(Debug, Clone)]
pub(crate) struct Dentry {
    /// `Some((ino, kind))` for a positive entry, `None` for a cached
    /// `ENOENT` (negative entry).
    pub child: Option<(Ino, CachedKind)>,
    /// Parent generation observed *before* the live read that produced
    /// this entry; the entry validates only while it still matches.
    pub gen: u64,
    /// Parent attributes for the per-hit access check.
    pub perm: ParentPerm,
}

/// Counter snapshot of the dentry cache, as exposed at
/// `/net/.proc/vfs/dcache` and by [`crate::Filesystem::dcache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcacheStats {
    /// Positive hits: a cached hop resolved a component without touching
    /// the inode table.
    pub hits: u64,
    /// Misses: the component had no valid entry and resolution fell back
    /// to the live hop-by-hop read.
    pub misses: u64,
    /// Negative hits: a cached `ENOENT` answered the lookup.
    pub negative_hits: u64,
    /// Generation bumps performed by directory mutations.
    pub invalidations: u64,
    /// Entries inserted (positive and negative).
    pub inserts: u64,
    /// Shard clears forced by the per-shard capacity cap.
    pub evictions: u64,
}

/// One lock-striped slice of the dentry table, keyed by
/// `(parent ino, component name)`.
type DentryShard = RwLock<HashMap<(u64, String), Dentry>>;

/// The sharded dentry cache. One per [`crate::Filesystem`]; shard count
/// mirrors the inode-table shard count so lock-striping decisions stay in
/// one place.
pub(crate) struct Dcache {
    enabled: bool,
    shards: Box<[DentryShard]>,
    gens: Box<[AtomicU64]>,
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    invalidations: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Dcache {
    /// A cache with `shards` shards. When `enabled` is false every lookup
    /// misses and every insert is dropped — resolution behaves exactly as
    /// it did before the cache existed (the coherence suites replay
    /// histories in this mode as the reference).
    pub fn new(shards: usize, enabled: bool) -> Dcache {
        let shards = shards.max(1);
        Dcache {
            enabled,
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            gens: (0..GEN_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the cache participates in resolution at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn slot(&self, ino: Ino) -> &AtomicU64 {
        &self.gens[(ino.0 as usize) % GEN_SLOTS]
    }

    #[inline]
    fn shard(&self, parent: Ino) -> &RwLock<HashMap<(u64, String), Dentry>> {
        &self.shards[(parent.0 as usize) % self.shards.len()]
    }

    /// The current generation of `ino`. Fill paths must load this *before*
    /// their live inode-table read.
    pub fn gen(&self, ino: Ino) -> u64 {
        self.slot(ino).load(Ordering::Acquire)
    }

    /// Bump `ino`'s generation, retiring every cached entry under it (and,
    /// conservatively, under any inode sharing its slot). Mutators call
    /// this while still holding the shard write locks of the mutation, so
    /// a concurrent fill that read pre-mutation state can never validate.
    /// `quiet` suppresses the invalidation *counter* (internal proc
    /// maintenance must not disturb what it measures) but never the bump.
    pub fn bump(&self, ino: Ino, quiet: bool) {
        if !self.enabled {
            return;
        }
        self.slot(ino).fetch_add(1, Ordering::Release);
        if !quiet {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up `(parent, component)`. Returns a dentry only if its stored
    /// generation still matches the parent's current one; stale entries
    /// are dropped on the way out (validate-on-use).
    pub fn lookup(&self, parent: Ino, key: &(u64, String)) -> Option<Dentry> {
        if !self.enabled {
            return None;
        }
        let shard = self.shard(parent);
        let found = shard.read().get(key).cloned();
        match found {
            Some(d) if d.gen == self.gen(parent) => {
                if d.child.is_some() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.negative_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(d)
            }
            Some(_) => {
                // Stale: retire it. A racing fresh insert may be removed
                // too — conservative, the next miss refills it.
                shard.write().remove(key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish a fill. `d.gen` must be the generation loaded before the
    /// live read; if the parent has moved on since, the entry describes
    /// possibly pre-mutation state and is silently dropped.
    pub fn insert(&self, parent: Ino, key: (u64, String), d: Dentry) {
        if !self.enabled || d.gen != self.gen(parent) {
            return;
        }
        let mut map = self.shard(parent).write();
        if map.len() >= SHARD_CAP {
            map.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, d);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> DcacheStats {
        DcacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Live entry count across all shards (positive + negative).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm() -> ParentPerm {
        ParentPerm {
            uid: Uid(0),
            gid: Gid(0),
            mode: Mode(0o755),
            acl: None,
        }
    }

    #[test]
    fn hit_miss_and_negative_counters() {
        let d = Dcache::new(4, true);
        let parent = Ino(7);
        let key = (7u64, "x".to_string());
        assert!(d.lookup(parent, &key).is_none());
        let g = d.gen(parent);
        d.insert(
            parent,
            key.clone(),
            Dentry {
                child: Some((Ino(9), CachedKind::File)),
                gen: g,
                perm: perm(),
            },
        );
        assert!(d.lookup(parent, &key).is_some());
        let neg = (7u64, "missing".to_string());
        d.insert(
            parent,
            neg.clone(),
            Dentry {
                child: None,
                gen: g,
                perm: perm(),
            },
        );
        let hit = d.lookup(parent, &neg).unwrap();
        assert!(hit.child.is_none());
        let s = d.stats();
        assert_eq!((s.hits, s.misses, s.negative_hits), (1, 1, 1));
        assert_eq!(s.inserts, 2);
        assert_eq!(d.entries(), 2);
    }

    #[test]
    fn bump_invalidates_lazily() {
        let d = Dcache::new(4, true);
        let parent = Ino(3);
        let key = (3u64, "a".to_string());
        let g = d.gen(parent);
        d.insert(
            parent,
            key.clone(),
            Dentry {
                child: Some((Ino(4), CachedKind::Dir)),
                gen: g,
                perm: perm(),
            },
        );
        d.bump(parent, false);
        // The entry is still physically present but no longer validates.
        assert_eq!(d.entries(), 1);
        assert!(d.lookup(parent, &key).is_none());
        // …and the failed validation dropped it.
        assert_eq!(d.entries(), 0);
        assert_eq!(d.stats().invalidations, 1);
    }

    #[test]
    fn stale_gen_fill_is_dropped() {
        let d = Dcache::new(4, true);
        let parent = Ino(5);
        let g = d.gen(parent);
        d.bump(parent, true); // a mutation lands between read and insert
        d.insert(
            parent,
            (5, "x".to_string()),
            Dentry {
                child: Some((Ino(6), CachedKind::File)),
                gen: g,
                perm: perm(),
            },
        );
        assert_eq!(d.entries(), 0);
        // quiet bump still bumped the generation but not the counter.
        assert_eq!(d.stats().invalidations, 0);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let d = Dcache::new(4, false);
        let parent = Ino(2);
        d.insert(
            parent,
            (2, "x".to_string()),
            Dentry {
                child: None,
                gen: 0,
                perm: perm(),
            },
        );
        assert!(d.lookup(parent, &(2, "x".to_string())).is_none());
        assert_eq!(d.entries(), 0);
        assert_eq!(d.stats(), DcacheStats::default());
    }

    #[test]
    fn cap_forces_shard_clear() {
        let d = Dcache::new(1, true);
        let parent = Ino(1);
        let g = d.gen(parent);
        for i in 0..SHARD_CAP {
            d.insert(
                parent,
                (1, format!("f{i}")),
                Dentry {
                    child: None,
                    gen: g,
                    perm: perm(),
                },
            );
        }
        assert_eq!(d.entries(), SHARD_CAP);
        d.insert(
            parent,
            (1, "one-more".to_string()),
            Dentry {
                child: None,
                gen: g,
                perm: perm(),
            },
        );
        assert_eq!(d.entries(), 1);
        assert_eq!(d.stats().evictions, 1);
    }
}
