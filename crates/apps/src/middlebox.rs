//! Middlebox state as files (paper §7.2).
//!
//! "For a middlebox with fixed functionality … a driver can be written to
//! populate and interact with the file system … We envision that we can use
//! command line utilities such as `cp` or `mv` to move state around rather
//! than custom protocols."
//!
//! A [`MiddleboxInstance`] keeps its per-connection state table as
//! directories under `/net/middleboxes/<name>/state/<conn>/`, one file per
//! field. Elastic scaling (Split/Merge-style) is then literally
//! `mv /net/middleboxes/a/state/<conn> /net/middleboxes/b/state/` — the
//! receiving instance serves the connection on its next lookup, because its
//! *only* source of truth is the file tree.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use yanc::{Object, YancFs};
use yanc_vfs::Mode;

/// One NAT-style connection record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnState {
    /// Inside endpoint.
    pub inside: (Ipv4Addr, u16),
    /// Outside endpoint.
    pub outside: (Ipv4Addr, u16),
    /// Translated source port.
    pub nat_port: u16,
    /// Packets processed.
    pub hits: u64,
}

/// A middlebox instance whose state table lives in the file system.
pub struct MiddleboxInstance {
    yfs: YancFs,
    /// Instance name.
    pub name: String,
}

impl MiddleboxInstance {
    /// Create (or reopen) the instance's directories.
    pub fn new(yfs: YancFs, name: &str) -> yanc::YancResult<Self> {
        let dir = yfs.root().join("middleboxes").join(name).join("state");
        yfs.filesystem()
            .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, yfs.creds())?;
        Ok(MiddleboxInstance {
            yfs,
            name: name.to_string(),
        })
    }

    fn state_dir(&self) -> yanc_vfs::VPath {
        self.yfs
            .root()
            .join("middleboxes")
            .join(&self.name)
            .join("state")
    }

    /// Record a connection.
    pub fn add_conn(&self, conn_id: &str, st: &ConnState) -> yanc::YancResult<()> {
        let fields = |_fresh| {
            Ok(vec![
                ("inside", format!("{}:{}", st.inside.0, st.inside.1)),
                ("outside", format!("{}:{}", st.outside.0, st.outside.1)),
                ("nat_port", st.nat_port.to_string()),
                ("hits", st.hits.to_string()),
            ])
        };
        let conn = Object::new(conn_id, fields);
        self.yfs.put_objects(&self.state_dir(), [conn])?;
        Ok(())
    }

    /// Look a connection up — purely from the file tree, so state moved
    /// here by `mv` is immediately served.
    pub fn lookup(&self, conn_id: &str) -> Option<ConnState> {
        let dir = self.state_dir().join(conn_id);
        let fs = self.yfs.filesystem();
        let read = |f: &str| {
            fs.read_to_string(dir.join(f).as_str(), self.yfs.creds())
                .ok()
        };
        let parse_ep = |s: String| -> Option<(Ipv4Addr, u16)> {
            let (ip, port) = s.trim().split_once(':')?;
            Some((ip.parse().ok()?, port.parse().ok()?))
        };
        Some(ConnState {
            inside: parse_ep(read("inside")?)?,
            outside: parse_ep(read("outside")?)?,
            nat_port: read("nat_port")?.trim().parse().ok()?,
            hits: read("hits")?.trim().parse().ok()?,
        })
    }

    /// Process one packet for `conn_id`: bump the hits file. Returns the
    /// translation port, or `None` if this instance doesn't own the state.
    pub fn process(&self, conn_id: &str) -> Option<u16> {
        let st = self.lookup(conn_id)?;
        let dir = self.state_dir().join(conn_id);
        let _ = self.yfs.filesystem().write_file(
            dir.join("hits").as_str(),
            (st.hits + 1).to_string().as_bytes(),
            self.yfs.creds(),
        );
        Some(st.nat_port)
    }

    /// Connections currently owned.
    pub fn connections(&self) -> Vec<String> {
        self.yfs
            .filesystem()
            .readdir(self.state_dir().as_str(), self.yfs.creds())
            .map(|es| es.into_iter().map(|e| e.name).collect())
            .unwrap_or_default()
    }

    /// Full state dump (for migration verification).
    pub fn dump(&self) -> BTreeMap<String, ConnState> {
        self.connections()
            .into_iter()
            .filter_map(|c| self.lookup(&c).map(|s| (c, s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yanc_coreutils::Shell;
    use yanc_vfs::Filesystem;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn conn(n: u16) -> ConnState {
        ConnState {
            inside: (ip("192.168.1.10"), 5000 + n),
            outside: (ip("8.8.8.8"), 443),
            nat_port: 40000 + n,
            hits: 0,
        }
    }

    #[test]
    fn state_roundtrip_and_processing() {
        let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        let mb = MiddleboxInstance::new(y, "nat-a").unwrap();
        mb.add_conn("c1", &conn(1)).unwrap();
        assert_eq!(mb.lookup("c1").unwrap().nat_port, 40001);
        assert_eq!(mb.process("c1"), Some(40001));
        assert_eq!(mb.lookup("c1").unwrap().hits, 1);
        assert_eq!(mb.process("missing"), None);
        assert_eq!(mb.connections(), vec!["c1"]);
    }

    #[test]
    fn elastic_scale_out_with_mv() {
        // Split/Merge via coreutils: half the connections move to a new
        // instance with `mv`, and it serves them immediately.
        let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        let a = MiddleboxInstance::new(y.clone(), "nat-a").unwrap();
        let b = MiddleboxInstance::new(y.clone(), "nat-b").unwrap();
        for i in 1..=4 {
            a.add_conn(&format!("c{i}"), &conn(i)).unwrap();
        }
        let mut sh = Shell::new(y.filesystem().clone());
        for i in 1..=2 {
            let out = sh.run(&format!(
                "mv /net/middleboxes/nat-a/state/c{i} /net/middleboxes/nat-b/state/"
            ));
            assert!(out.success(), "{}", out.err);
        }
        assert_eq!(a.connections(), vec!["c3", "c4"]);
        assert_eq!(b.connections(), vec!["c1", "c2"]);
        // b serves the moved connections with intact translations.
        assert_eq!(b.process("c1"), Some(40001));
        assert_eq!(b.process("c2"), Some(40002));
        assert_eq!(a.process("c1"), None);
        // And a still serves what it kept.
        assert_eq!(a.process("c4"), Some(40004));
    }

    #[test]
    fn replication_with_cp() {
        // `cp -r` clones state (e.g. warm standby).
        let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        let a = MiddleboxInstance::new(y.clone(), "fw-a").unwrap();
        let _standby = MiddleboxInstance::new(y.clone(), "fw-standby").unwrap();
        a.add_conn("c9", &conn(9)).unwrap();
        let mut sh = Shell::new(y.filesystem().clone());
        let out = sh.run("cp -r /net/middleboxes/fw-a/state/c9 /net/middleboxes/fw-standby/state/");
        assert!(out.success(), "{}", out.err);
        let standby = MiddleboxInstance::new(y, "fw-standby").unwrap();
        assert_eq!(standby.lookup("c9").unwrap(), conn(9));
        // Divergent processing afterwards: copies are independent.
        standby.process("c9");
        assert_eq!(a.lookup("c9").unwrap().hits, 0);
        assert_eq!(standby.lookup("c9").unwrap().hits, 1);
    }
}
