//! Occasional-run applications (paper §2): "an auditor might run
//! periodically via a cron job"; accounting likewise. Neither is a daemon —
//! each is a plain function you run when you want, against the same file
//! tree every other application uses.

use std::fmt::Write as _;

use yanc::YancFs;
use yanc_vfs::Mode;

/// One auditor finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A flow's driver reported a capability error.
    FlowError {
        /// Switch name.
        switch: String,
        /// Flow name.
        flow: String,
        /// The error file contents.
        error: String,
    },
    /// Two flows on one switch have the same priority and overlapping
    /// matches — ambiguous precedence.
    PriorityConflict {
        /// Switch name.
        switch: String,
        /// First flow.
        a: String,
        /// Second flow.
        b: String,
        /// Shared priority.
        priority: u16,
    },
    /// A flow was written but never committed (version still 0).
    Uncommitted {
        /// Switch name.
        switch: String,
        /// Flow name.
        flow: String,
    },
    /// A port's peer link is one-directional.
    AsymmetricLink {
        /// Switch name.
        switch: String,
        /// Port number.
        port: u16,
    },
}

/// Audit summary.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Switch count.
    pub switches: usize,
    /// Total flows.
    pub flows: usize,
    /// Total links (directed).
    pub links: usize,
    /// Everything suspicious.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// Render the human-readable report text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "audit: {} switches, {} flows, {} links, {} findings",
            self.switches,
            self.flows,
            self.links,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = match f {
                Finding::FlowError {
                    switch,
                    flow,
                    error,
                } => {
                    writeln!(s, "ERROR {switch}/{flow}: {error}")
                }
                Finding::PriorityConflict {
                    switch,
                    a,
                    b,
                    priority,
                } => {
                    writeln!(
                        s,
                        "CONFLICT {switch}: {a} and {b} both at priority {priority}"
                    )
                }
                Finding::Uncommitted { switch, flow } => {
                    writeln!(s, "UNCOMMITTED {switch}/{flow}")
                }
                Finding::AsymmetricLink { switch, port } => {
                    writeln!(s, "ASYMMETRIC-LINK {switch}:p{port}")
                }
            };
        }
        s
    }
}

/// Run an audit pass over `/net` and write the report to `<root>/audit.log`.
pub fn audit(yfs: &YancFs) -> yanc::YancResult<AuditReport> {
    let mut report = AuditReport::default();
    let switches = yfs.list_switches()?;
    report.switches = switches.len();
    for sw in &switches {
        let flows = yfs.list_flows(sw)?;
        report.flows += flows.len();
        // Per-flow checks.
        let mut parsed: Vec<(String, yanc::FlowSpec)> = Vec::new();
        for name in &flows {
            let dir = yfs.flow_dir(sw, name);
            if let Ok(err) = yfs
                .filesystem()
                .read_to_string(dir.join("error").as_str(), yfs.creds())
            {
                report.findings.push(Finding::FlowError {
                    switch: sw.clone(),
                    flow: name.clone(),
                    error: err.trim().to_string(),
                });
            }
            if let Ok(spec) = yfs.read_flow(sw, name) {
                if spec.version == 0 {
                    report.findings.push(Finding::Uncommitted {
                        switch: sw.clone(),
                        flow: name.clone(),
                    });
                }
                parsed.push((name.clone(), spec));
            }
        }
        // Priority conflicts: same priority, overlapping header space
        // (approximated as one subsuming the other or equal matches).
        for i in 0..parsed.len() {
            for j in i + 1..parsed.len() {
                let (an, a) = &parsed[i];
                let (bn, b) = &parsed[j];
                if a.priority == b.priority && (a.m.subsumes(&b.m) || b.m.subsumes(&a.m)) {
                    report.findings.push(Finding::PriorityConflict {
                        switch: sw.clone(),
                        a: an.clone(),
                        b: bn.clone(),
                        priority: a.priority,
                    });
                }
            }
        }
        // Link symmetry.
        for port in yfs.list_ports(sw)? {
            if let Some((peer_sw, peer_port)) = yfs.peer(sw, port)? {
                report.links += 1;
                match yfs.peer(&peer_sw, peer_port) {
                    Ok(Some((back_sw, back_port))) if back_sw == *sw && back_port == port => {}
                    _ => report.findings.push(Finding::AsymmetricLink {
                        switch: sw.clone(),
                        port,
                    }),
                }
            }
        }
    }
    let log = yfs.root().join("audit.log");
    yfs.filesystem()
        .write_file(log.as_str(), report.to_text().as_bytes(), yfs.creds())?;
    Ok(report)
}

/// Accounting pass: summarize per-switch traffic counters into
/// `<root>/accounting/<switch>` files (bytes/packets seen by flows).
pub fn account(yfs: &YancFs) -> yanc::YancResult<usize> {
    let dir = yfs.root().join("accounting");
    yfs.filesystem()
        .mkdir_all(dir.as_str(), Mode::DIR_DEFAULT, yfs.creds())?;
    let mut n = 0;
    for sw in yfs.list_switches()? {
        let swdir = yfs.switch_dir(&sw);
        let flow_packets = yfs.read_counter(&swdir, "flow_packets");
        let flow_bytes = yfs.read_counter(&swdir, "flow_bytes");
        let mut rx = 0u64;
        let mut tx = 0u64;
        for p in yfs.list_ports(&sw)? {
            let pdir = yfs.port_dir(&sw, p);
            rx += yfs.read_counter(&pdir, "rx_bytes");
            tx += yfs.read_counter(&pdir, "tx_bytes");
        }
        let body = format!(
            "switch={sw} flow_packets={flow_packets} flow_bytes={flow_bytes} rx_bytes={rx} tx_bytes={tx}\n"
        );
        yfs.filesystem()
            .write_file(dir.join(&sw).as_str(), body.as_bytes(), yfs.creds())?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port;
    use yanc::FlowSpec;
    use yanc_openflow::{Action, FlowMatch};

    fn yfs() -> YancFs {
        YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap()
    }

    #[test]
    fn clean_network_audits_clean() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let spec = FlowSpec {
            actions: vec![Action::out(1)],
            ..Default::default()
        };
        y.write_flow("sw1", "f1", &spec).unwrap();
        let r = audit(&y).unwrap();
        assert_eq!(r.switches, 1);
        assert_eq!(r.flows, 1);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        // The report landed in the fs.
        assert!(y.filesystem().exists("/net/audit.log", y.creds()));
    }

    #[test]
    fn detects_priority_conflicts_and_uncommitted() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        let a = FlowSpec {
            m: FlowMatch::any(),
            priority: 5,
            ..Default::default()
        };
        let b = FlowSpec {
            m: FlowMatch {
                tp_dst: Some(22),
                ..Default::default()
            },
            priority: 5,
            ..Default::default()
        };
        y.write_flow("sw1", "wide", &a).unwrap();
        y.write_flow("sw1", "ssh", &b).unwrap();
        // Uncommitted: mkdir only.
        y.filesystem()
            .mkdir(
                "/net/switches/sw1/flows/pending",
                Mode::DIR_DEFAULT,
                y.creds(),
            )
            .unwrap();
        let r = audit(&y).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::PriorityConflict { priority: 5, .. })));
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::Uncommitted { flow, .. } if flow == "pending")));
    }

    #[test]
    fn detects_flow_errors_and_asymmetric_links() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.create_switch("sw2", 2, 0, 0, 0, 1, None).unwrap();
        y.create_ports("sw1", &[port(1, "02:00:00:00:00:01")])
            .unwrap();
        y.create_ports("sw2", &[port(1, "02:00:00:00:00:02")])
            .unwrap();
        // One-directional peer.
        y.set_peer("sw1", 1, "sw2", 1).unwrap();
        // Flow with a driver error file.
        let spec = FlowSpec {
            goto_table: Some(1),
            ..Default::default()
        };
        y.write_flow("sw1", "multi", &spec).unwrap();
        y.filesystem()
            .write_file(
                "/net/switches/sw1/flows/multi/error",
                b"goto_table needs 1.3",
                y.creds(),
            )
            .unwrap();
        let r = audit(&y).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::FlowError { .. })));
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::AsymmetricLink { switch, port: 1 } if switch == "sw1")));
        let text = r.to_text();
        assert!(text.contains("ASYMMETRIC-LINK sw1:p1"));
    }

    #[test]
    fn accounting_writes_summaries() {
        let y = yfs();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.create_ports("sw1", &[port(1, "02:00:00:00:00:01")])
            .unwrap();
        let swdir = y.switch_dir("sw1");
        y.write_counter(&swdir, "flow_packets", 100).unwrap();
        let pdir = y.port_dir("sw1", 1);
        y.write_counter(&pdir, "rx_bytes", 5000).unwrap();
        let n = account(&y).unwrap();
        assert_eq!(n, 1);
        let body = y
            .filesystem()
            .read_to_string("/net/accounting/sw1", y.creds())
            .unwrap();
        assert!(body.contains("flow_packets=100"));
        assert!(body.contains("rx_bytes=5000"));
    }
}
