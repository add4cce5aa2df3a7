//! What-if staging: edit a private copy of the network, validate it,
//! commit it atomically (paper §3.4).
//!
//! The paper's views story — "an application can be given a *copy* of the
//! network state, edit it freely, and then commit the result with a single
//! rename" — generalised over [`yanc_vfs::Overlay`]: a [`WhatIf`] session
//! mounts a copy-on-write view over the live `/net` tree, stages flow
//! edits in its private upper layer (copy-up keeps the base untouched),
//! validates the *merged result* by parsing every flow through
//! [`FlowSpec::from_files`], and finally publishes everything in **one
//! atomic, journaled, permission-checked transaction** via
//! [`Overlay::commit`]. Other apps and drivers observe either the old tree
//! or the new one, never an in-between state.

use std::sync::Arc;

use yanc::{FlowSpec, YancResult};
use yanc_vfs::{CommitReport, Credentials, FileType, Filesystem, Mode, Overlay, VfsResult};

/// A staged editing session over a base network tree.
pub struct WhatIf {
    ov: Overlay,
    creds: Credentials,
}

impl WhatIf {
    /// Begin a session: overlay `staging` (created, owned by `creds`) over
    /// the tree at `base`. Nothing under `base` changes until
    /// [`WhatIf::commit`].
    pub fn begin(
        fs: Arc<Filesystem>,
        base: &str,
        staging: &str,
        creds: &Credentials,
    ) -> VfsResult<WhatIf> {
        let ov = Overlay::new(fs, &[base], staging);
        ov.ensure_upper(creds)?;
        Ok(WhatIf {
            ov,
            creds: creds.clone(),
        })
    }

    /// The underlying overlay (e.g. to mount it in a [`yanc_vfs::Namespace`]).
    pub fn overlay(&self) -> &Overlay {
        &self.ov
    }

    /// Stage a flow: write `fields` under `switches/<switch>/flows/<flow>/`
    /// in the view. The base tree is untouched; parent directories are
    /// copied up as needed.
    pub fn stage_flow(&self, switch: &str, flow: &str, fields: &[(&str, &str)]) -> VfsResult<()> {
        let dir = format!("/switches/{switch}/flows/{flow}");
        self.ov.mkdir_all(&dir, Mode::DIR_DEFAULT, &self.creds)?;
        for (k, v) in fields {
            self.ov
                .write_file(&format!("{dir}/{k}"), v.as_bytes(), &self.creds)?;
        }
        Ok(())
    }

    /// Stage a flow deletion: the view hides the flow (its `counters/`
    /// included) behind whiteouts; commit turns them into real removals.
    pub fn delete_flow(&self, switch: &str, flow: &str) -> VfsResult<()> {
        self.remove_tree(&format!("/switches/{switch}/flows/{flow}"))
    }

    fn remove_tree(&self, dir: &str) -> VfsResult<()> {
        for e in self.ov.readdir(dir, &self.creds)? {
            let path = format!("{dir}/{}", e.name);
            match e.file_type {
                FileType::Directory => self.remove_tree(&path)?,
                _ => self.ov.unlink(&path, &self.creds)?,
            }
        }
        self.ov.rmdir(dir, &self.creds)
    }

    /// Validate the merged result: parse every flow the committed tree
    /// would contain. Returns the number of valid flows, or every parse
    /// error (as `switch/flow: message` strings).
    pub fn validate(&self) -> Result<usize, Vec<String>> {
        let mut ok = 0usize;
        let mut errors = Vec::new();
        let switches = self
            .ov
            .readdir("/switches", &self.creds)
            .unwrap_or_default();
        for sw in switches {
            let flows_dir = format!("/switches/{}/flows", sw.name);
            for fl in self.ov.readdir(&flows_dir, &self.creds).unwrap_or_default() {
                let fdir = format!("{flows_dir}/{}", fl.name);
                match self.parse_flow(&fdir) {
                    Ok(_) => ok += 1,
                    Err(e) => errors.push(format!("{}/{}: {e}", sw.name, fl.name)),
                }
            }
        }
        if errors.is_empty() {
            Ok(ok)
        } else {
            Err(errors)
        }
    }

    fn parse_flow(&self, dir: &str) -> YancResult<FlowSpec> {
        let mut files: Vec<(String, String)> = Vec::new();
        for e in self
            .ov
            .readdir(dir, &self.creds)
            .map_err(yanc::YancError::from)?
        {
            let content = self
                .ov
                .read_to_string(&format!("{dir}/{}", e.name), &self.creds)
                .map_err(yanc::YancError::from)?;
            files.push((e.name, content));
        }
        FlowSpec::from_files(files.iter().map(|(n, c)| (n.as_str(), c.as_str())))
    }

    /// Publish the staged view into the base tree as one linearization
    /// point (journaled as a single replayable record) and clear the
    /// staging layer. Fails without touching anything if the caller lacks
    /// permission on any affected base directory.
    pub fn commit(&self) -> VfsResult<CommitReport> {
        self.ov.commit(&self.creds)
    }

    /// Discard the staged edits: remove everything in the upper layer.
    /// The view reverts to exactly the base tree.
    pub fn abort(&self) -> VfsResult<()> {
        let fs = self.ov.filesystem().clone();
        let upper = self.ov.upper_path().as_str().to_string();
        remove_children(&fs, &upper, &self.creds)
    }
}

/// Recursively delete every child of `dir` (the dir itself stays).
fn remove_children(fs: &Filesystem, dir: &str, creds: &Credentials) -> VfsResult<()> {
    for e in fs.readdir(dir, creds)? {
        let p = format!("{dir}/{}", e.name);
        if fs.lstat(&p, creds)?.is_dir() {
            remove_children(fs, &p, creds)?;
            fs.rmdir(&p, creds)?;
        } else {
            fs.unlink(&p, creds)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_fs() -> Arc<Filesystem> {
        let fs = Arc::new(Filesystem::new());
        let r = Credentials::root();
        fs.mkdir_all("/net/switches/sw1/flows/ssh", Mode::DIR_DEFAULT, &r)
            .unwrap();
        fs.write_file("/net/switches/sw1/flows/ssh/match.tp_dst", b"22\n", &r)
            .unwrap();
        fs.write_file("/net/switches/sw1/flows/ssh/action.out", b"2\n", &r)
            .unwrap();
        fs.write_file("/net/switches/sw1/flows/ssh/priority", b"900\n", &r)
            .unwrap();
        fs
    }

    #[test]
    fn stage_validate_commit() {
        let fs = base_fs();
        let r = Credentials::root();
        let s = WhatIf::begin(fs.clone(), "/net", "/staging/t1", &r).unwrap();
        s.stage_flow(
            "sw1",
            "web",
            &[
                ("match.tp_dst", "80"),
                ("action.out", "3"),
                ("priority", "800"),
            ],
        )
        .unwrap();
        // Merged result validates: both the staged and the base flow.
        assert_eq!(s.validate().unwrap(), 2);
        // Base is untouched until commit.
        assert!(!fs.exists("/net/switches/sw1/flows/web", &r));
        let rep = s.commit().unwrap();
        assert!(rep.records > 0);
        assert_eq!(
            fs.read_to_string("/net/switches/sw1/flows/web/match.tp_dst", &r)
                .unwrap(),
            "80"
        );
        // Staging cleared: a second commit is a no-op.
        assert_eq!(s.commit().unwrap().records, 0);
    }

    #[test]
    fn invalid_staged_flow_is_caught_before_commit() {
        let fs = base_fs();
        let r = Credentials::root();
        let s = WhatIf::begin(fs.clone(), "/net", "/staging/t2", &r).unwrap();
        s.stage_flow("sw1", "bad", &[("match.tp_dst", "not-a-port")])
            .unwrap();
        let errors = s.validate().unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("sw1/bad:"), "{errors:?}");
        // The operator aborts instead; the view reverts to the base.
        s.abort().unwrap();
        assert!(!s.overlay().exists("/switches/sw1/flows/bad", &r));
        assert_eq!(s.validate().unwrap(), 1);
    }

    #[test]
    fn staged_deletion_commits_as_removal() {
        let fs = base_fs();
        let r = Credentials::root();
        let s = WhatIf::begin(fs.clone(), "/net", "/staging/t3", &r).unwrap();
        s.delete_flow("sw1", "ssh").unwrap();
        assert!(fs.exists("/net/switches/sw1/flows/ssh", &r));
        let rep = s.commit().unwrap();
        assert!(rep.whiteouts > 0);
        assert!(!fs.exists("/net/switches/sw1/flows/ssh", &r));
    }
}
