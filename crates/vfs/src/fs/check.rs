//! The structural audit: one global-lock pass that checks every law the
//! tree must obey (link counts, reachability, `..` pointers, open-handle
//! accounting).

use std::collections::{HashMap, HashSet};

use super::tree::dir_snapshot;
use super::{Filesystem, FsCheckReport};
use crate::shard::NodeKind;
use crate::types::{Ino, ROOT_INO};

impl Filesystem {
    /// Audit the whole tree under a global lock: link counts, reachability,
    /// `..` parent pointers, and open-handle accounting. Returns a summary
    /// when every law holds, or a description of the first violation. The
    /// concurrency suites call this after racing mutations to assert that no
    /// interleaving can corrupt the tree.
    pub fn check_invariants(&self) -> Result<FsCheckReport, String> {
        let set = self.tables.lock_all();
        let all = set.all_inos();

        // Walk the tree from the root, counting directory-entry references
        // and subdirectories, and checking `..` pointers.
        let mut entry_refs: HashMap<u64, u32> = HashMap::new();
        let mut subdirs: HashMap<u64, u32> = HashMap::new();
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(ROOT_INO.0);
        let mut stack = vec![ROOT_INO];
        while let Some(d) = stack.pop() {
            let node = set
                .inode(d)
                .map_err(|_| format!("directory inode {} vanished mid-walk", d.0))?;
            let entries = dir_snapshot(node)
                .map_err(|_| format!("non-directory inode {} on the dir walk", d.0))?;
            for (name, child) in entries {
                *entry_refs.entry(child.0).or_insert(0) += 1;
                let cnode = set.inode(child).map_err(|_| {
                    format!(
                        "entry '{name}' in dir {} points at missing inode {}",
                        d.0, child.0
                    )
                })?;
                if let NodeKind::Dir { parent, .. } = &cnode.kind {
                    *subdirs.entry(d.0).or_insert(0) += 1;
                    if parent.0 != d.0 {
                        return Err(format!(
                            "dir {} has parent pointer {} but lives in {}",
                            child.0, parent.0, d.0
                        ));
                    }
                    if !seen.insert(child.0) {
                        return Err(format!("dir {} reachable via two paths", child.0));
                    }
                    stack.push(child);
                } else {
                    seen.insert(child.0);
                }
            }
        }

        // Per-inode open-handle tallies from the handle table.
        let mut open_by_ino: HashMap<u64, u32> = HashMap::new();
        for ino in set.handle_targets() {
            *open_by_ino.entry(ino.0).or_insert(0) += 1;
        }

        let (mut dirs, mut files, mut symlinks, mut orphans) = (0usize, 0usize, 0usize, 0usize);
        for raw in &all {
            let ino = Ino(*raw);
            let node = set
                .inode(ino)
                .map_err(|_| format!("inode {raw} vanished mid-audit"))?;
            let refs = entry_refs.get(raw).copied().unwrap_or(0);
            let opens = open_by_ino.get(raw).copied().unwrap_or(0);
            if node.open_count != opens {
                return Err(format!(
                    "inode {raw}: open_count {} but {} live handles target it",
                    node.open_count, opens
                ));
            }
            match &node.kind {
                NodeKind::Dir { .. } => {
                    dirs += 1;
                    if !seen.contains(raw) {
                        return Err(format!("directory {raw} unreachable from the root"));
                    }
                    let expect = 2 + subdirs.get(raw).copied().unwrap_or(0);
                    if node.nlink != expect {
                        return Err(format!(
                            "dir {raw}: nlink {} but expected {} (2 + subdirs)",
                            node.nlink, expect
                        ));
                    }
                    if *raw != ROOT_INO.0 && refs != 1 {
                        return Err(format!("dir {raw} referenced by {refs} entries"));
                    }
                }
                NodeKind::File(_) => {
                    if refs == 0 {
                        if node.nlink != 0 || node.open_count == 0 {
                            return Err(format!(
                                "file {raw} unreachable with nlink {} open_count {}",
                                node.nlink, node.open_count
                            ));
                        }
                        orphans += 1;
                    } else {
                        files += 1;
                        if node.nlink != refs {
                            return Err(format!(
                                "file {raw}: nlink {} but {refs} directory entries",
                                node.nlink
                            ));
                        }
                    }
                }
                NodeKind::Symlink(_) => {
                    symlinks += 1;
                    if refs != 1 || node.nlink != 1 {
                        return Err(format!(
                            "symlink {raw}: {refs} entry refs, nlink {}",
                            node.nlink
                        ));
                    }
                }
            }
        }
        let handles = set.total_handles();
        if handles != self.tables.handle_count() {
            return Err(format!(
                "handle table holds {handles} entries but the counter says {}",
                self.tables.handle_count()
            ));
        }
        Ok(FsCheckReport {
            inodes: all.len(),
            directories: dirs,
            files,
            symlinks,
            orphans_held_open: orphans,
            handles,
        })
    }
}
