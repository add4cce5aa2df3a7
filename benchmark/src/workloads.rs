//! The four workloads: seeded inputs, untimed priming, the timed op and
//! its correctness check.
//!
//! A [`Workload`] is built from `--seed` alone, before any world exists;
//! the program under test only ever sees the generated inputs.

use std::collections::BTreeSet;

use yanc::FlowSpec;
use yanc_dataplane::FatTree;
use yanc_openflow::{Action, FlowMatch};
use yanc_packet::MacAddr;

use crate::rng::Rng;
use crate::world::{World, HOSTS, K};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ReactiveSetup,
    BulkInstall,
    MonitorScan,
    WarmForward,
}

/// Flows written (then removed) per `bulk_install` op.
pub const BULK_FLOWS: usize = 64;
/// Drivers polled and switches read per `monitor_scan` op.
pub const SCAN_SHARD: usize = 8;
/// Flows primed on every switch for `monitor_scan`.
pub const GRID_FLOWS: usize = 16;
/// `reactive_setup` repeats cold, warm, warm.
const COLD_OPS: usize = 80;

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ReactiveSetup,
        Kind::BulkInstall,
        Kind::MonitorScan,
        Kind::WarmForward,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReactiveSetup => "reactive_setup",
            Kind::BulkInstall => "bulk_install",
            Kind::MonitorScan => "monitor_scan",
            Kind::WarmForward => "warm_forward",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Timed ops in one lap (fixed; only the lap count follows `--seconds`).
    pub fn ops_per_lap(self) -> usize {
        match self {
            Kind::ReactiveSetup => 240,
            Kind::BulkInstall => 320,
            Kind::MonitorScan => 300,
            Kind::WarmForward => 600,
        }
    }

    /// Bring-ups timed per lap. Without priming a bring-up is a tenth of
    /// a second, too thin a sample to take once a lap; with priming it is
    /// two seconds and once is enough.
    pub fn bringups_per_lap(self) -> usize {
        match self {
            Kind::ReactiveSetup | Kind::BulkInstall => 3,
            Kind::MonitorScan | Kind::WarmForward => 1,
        }
    }

    /// User-visible items one op completes: a flow set up end to end, a
    /// flow installed and removed, a switch polled and read, a ping
    /// answered over installed paths.
    pub fn items_per_op(self) -> u64 {
        match self {
            Kind::ReactiveSetup => 1,
            Kind::BulkInstall => BULK_FLOWS as u64,
            Kind::MonitorScan => SCAN_SHARD as u64,
            Kind::WarmForward => HOSTS as u64,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// One ping between host indices; `cold` pairs need ARP first.
    Ping { src: usize, dst: usize, cold: bool },
    /// Install and remove the flow batch on switch index `switch`.
    Bulk { switch: usize },
    /// Poll and read these switch indices.
    Scan { shard: [usize; SCAN_SHARD] },
    /// Every host pings its partner over already-installed paths.
    Forward,
}

pub struct Workload {
    pub kind: Kind,
    pub ops: Vec<Op>,
    /// The `bulk_install` batch, identical for every switch.
    bulk_flows: Vec<(String, FlowSpec)>,
    /// Per switch index: the two operator commands of `monitor_scan`.
    scan_cmds: Vec<(String, String)>,
}

/// Pod of every host, index-aligned with `fat.hosts()`.
fn host_pods(fat: &FatTree) -> Vec<u16> {
    fat.hosts()
        .iter()
        .map(|h| {
            fat.switches()
                .iter()
                .find(|s| s.dpid == h.edge.0)
                .and_then(|s| s.pod)
                .expect("every host hangs off an edge switch in a pod")
        })
        .collect()
}

/// The host `k/2` pods away in the same position: `warm_forward`'s fixed
/// pairing, also used to prime `monitor_scan` with traffic.
pub fn partner(host: usize, n_hosts: usize) -> usize {
    (host + n_hosts / 2) % n_hosts
}

/// `reactive_setup`'s pings: never-repeated cross-pod host pairs in the
/// fixed rhythm cold, warm, warm.
///
/// The rhythm is what keeps the result comparable across seeds. A *cold*
/// pair's source has never resolved its destination, so the op carries an
/// ARP broadcast (flooded by the router to all 127 other edge ports) and
/// three path installs; a *warm* pair's destination has broadcast before,
/// so the op is two path installs and no flood. Uniformly random pairs
/// would put the cold share near one half — and the median on the cliff
/// between the two kinds — and let it wander with the seed. Fixing the
/// share at one third puts the median inside the warm kind and the 95th
/// percentile inside the cold kind for every seed, while the seed still
/// chooses who talks to whom and in what order. Cross-pod pairs (88 % of
/// all pairs in a k=8 fat tree) keep every path at five switches.
fn ping_plan(rng: &mut Rng, pods: &[u16]) -> Vec<Op> {
    let n = pods.len();
    let order = rng.permutation(n);
    let mut announced: Vec<usize> = Vec::new();
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ops = Vec::with_capacity(3 * COLD_OPS);
    for j in 0..COLD_OPS {
        let src = order[j];
        let fresh: Vec<usize> = order[j + 1..]
            .iter()
            .copied()
            .filter(|&h| pods[h] != pods[src])
            .collect();
        let dst = fresh[rng.below(fresh.len())];
        used.insert((src.min(dst), src.max(dst)));
        ops.push(Op::Ping {
            src,
            dst,
            cold: true,
        });
        announced.push(src);
        for _ in 0..2 {
            let (src, dst) = loop {
                let dst = announced[rng.below(announced.len())];
                let src = rng.below(n);
                if pods[src] != pods[dst] && !used.contains(&(src.min(dst), src.max(dst))) {
                    break (src, dst);
                }
            };
            used.insert((src.min(dst), src.max(dst)));
            ops.push(Op::Ping {
                src,
                dst,
                cold: false,
            });
        }
    }
    ops
}

/// `n_ops` switch indices: whole seeded permutations back to back, so
/// every switch is visited equally often.
fn switch_rounds(rng: &mut Rng, n_switches: usize, n_ops: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n_ops);
    while out.len() < n_ops {
        out.extend(rng.permutation(n_switches));
    }
    out.truncate(n_ops);
    out
}

/// A batch of distinct flows whose matches meet the OpenFlow 1.3
/// prerequisites (`in_port` and `dl_dst` need none). A match the file
/// tree accepts but the switch rejects — `tp_dst` without `nw_proto`,
/// say — would leave `/net` and the hardware disagreeing, which the
/// cross-layer check must catch rather than time.
fn flow_batch(prefix: &str, count: usize, mac_base: u64) -> Vec<(String, FlowSpec)> {
    let ports = usize::from(K);
    (0..count)
        .map(|f| {
            let spec = FlowSpec {
                m: FlowMatch {
                    in_port: Some((1 + f % ports) as u16),
                    dl_dst: Some(MacAddr::from_seed(mac_base + f as u64)),
                    ..FlowMatch::default()
                },
                actions: vec![Action::out((1 + (f + 1) % ports) as u16)],
                ..FlowSpec::default()
            };
            (format!("{prefix}{f:02}"), spec)
        })
        .collect()
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let fat = FatTree::new(K);
        let n_switches = fat.n_switches();
        let mut rng = Rng::new(seed);
        let n_ops = kind.ops_per_lap();
        let ops = match kind {
            Kind::ReactiveSetup => ping_plan(&mut rng, &host_pods(&fat)),
            Kind::BulkInstall => switch_rounds(&mut rng, n_switches, n_ops)
                .into_iter()
                .map(|switch| Op::Bulk { switch })
                .collect(),
            Kind::MonitorScan => switch_rounds(&mut rng, n_switches, n_ops * SCAN_SHARD)
                .chunks_exact(SCAN_SHARD)
                .map(|c| Op::Scan {
                    shard: c.try_into().expect("chunk of SCAN_SHARD"),
                })
                .collect(),
            Kind::WarmForward => vec![Op::Forward; n_ops],
        };
        assert_eq!(ops.len(), n_ops);
        // `head -n 1` rather than `cat`: counter files carry no trailing
        // newline, so `cat` would run the values together and leave
        // nothing to check them by.
        let scan_cmds = fat
            .switches()
            .iter()
            .map(|s| {
                let sw = format!("/net/switches/sw{:x}", s.dpid);
                (
                    format!("find {sw}/ports -name rx_packets -exec head -n 1"),
                    format!("find {sw}/flows -name packets -exec head -n 1"),
                )
            })
            .collect();
        Workload {
            kind,
            ops,
            bulk_flows: flow_batch("bulk", BULK_FLOWS, 0xb0_0000),
            scan_cmds,
        }
    }

    /// Untimed workload priming; part of `setup_s`.
    pub fn prime(&self, w: &mut World) {
        match self.kind {
            Kind::ReactiveSetup | Kind::BulkInstall => {}
            Kind::MonitorScan => {
                install_grid(w, "mon", 0xa0_0000);
                ping_partners(w, 0);
                // One full poll so every counter file exists and each
                // timed op rewrites rather than creates.
                w.rt.poll_stats().expect("priming stats poll");
            }
            Kind::WarmForward => {
                // Paths must outlive the lap: no idle expiry.
                w.router.idle_timeout = 0;
                ping_partners(w, 0);
            }
        }
    }

    /// State the check needs from before the op (untimed).
    pub fn before(&self, w: &World, op: &Op) -> Before {
        match op {
            Op::Bulk { switch } => Before {
                flows: w.rt.net.switches[&w.dpids[*switch]].flow_count(),
                ..Before::default()
            },
            Op::Forward => Before {
                replies: w.ping_replies(),
                paths: w.router.paths_installed,
                driver_runs: w.driver_runs(),
                ..Before::default()
            },
            Op::Ping { .. } | Op::Scan { .. } => Before::default(),
        }
    }

    /// The timed op. `index` is its position in the lap.
    pub fn run(&self, w: &mut World, index: usize, op: &Op) -> Outcome {
        let seq = (index + 1) as u16;
        let mut out = Outcome::default();
        match op {
            Op::Ping { src, dst, .. } => {
                let (host, _) = w.hosts[*src];
                let (_, ip) = w.hosts[*dst];
                w.rt.net.host_ping(host, ip, seq);
                w.settle();
            }
            Op::Bulk { switch } => {
                let dpid = w.dpids[*switch];
                let sw = w.switches[*switch].clone();
                let Ok(flows) = w.yfs.open_flows_dir(&sw) else {
                    out.calls_failed += 1;
                    return out;
                };
                for (name, spec) in &self.bulk_flows {
                    out.calls_failed += u32::from(!w.write_flow_at(flows, name, spec));
                }
                w.pump();
                out.mid_flows = w.rt.net.switches[&dpid].flow_count();
                for (name, _) in &self.bulk_flows {
                    out.calls_failed += u32::from(!w.delete_flow(&sw, name));
                }
                w.pump();
                out.end_flows = w.rt.net.switches[&dpid].flow_count();
                out.calls_failed += u32::from(w.fs.close(flows, w.yfs.creds()).is_err());
            }
            Op::Scan { shard } => {
                for &s in shard {
                    w.poll_stats(s);
                }
                w.pump();
                for &s in shard {
                    let (ports, flows) = &self.scan_cmds[s];
                    out.scans.push(w.shell_run(ports).out);
                    out.scans.push(w.shell_run(flows).out);
                }
            }
            Op::Forward => {
                let n = w.hosts.len();
                for h in 0..n {
                    let (host, _) = w.hosts[h];
                    let (_, ip) = w.hosts[partner(h, n)];
                    w.rt.net.host_ping(host, ip, seq);
                }
                w.settle();
            }
        }
        out
    }

    /// Whether the op produced the right result (untimed).
    pub fn check(
        &self,
        w: &World,
        index: usize,
        op: &Op,
        before: &Before,
        out: &Outcome,
    ) -> Result<(), String> {
        let seq = (index + 1) as u16;
        match op {
            Op::Ping { src, dst, .. } => {
                let (host, _) = w.hosts[*src];
                let (_, ip) = w.hosts[*dst];
                match w.rt.net.hosts[&host].ping_replies.last() {
                    Some(&got) if got == (ip, seq) => Ok(()),
                    got => Err(format!("expected reply ({ip}, {seq}), last is {got:?}")),
                }
            }
            Op::Bulk { .. } => {
                let want_mid = before.flows + BULK_FLOWS;
                if out.calls_failed == 0
                    && out.mid_flows == want_mid
                    && out.end_flows == before.flows
                {
                    Ok(())
                } else {
                    Err(format!(
                        "{} vfs calls failed; switch held {} then {} flows, expected {} then {}",
                        out.calls_failed, out.mid_flows, out.end_flows, want_mid, before.flows
                    ))
                }
            }
            Op::Scan { shard } => {
                for (i, &s) in shard.iter().enumerate() {
                    check_scan(w, s, &out.scans[2 * i], &out.scans[2 * i + 1])?;
                }
                Ok(())
            }
            Op::Forward => {
                let replies = w.ping_replies() - before.replies;
                let paths = w.router.paths_installed - before.paths;
                let runs = w.driver_runs() - before.driver_runs;
                if replies == w.hosts.len() && paths == 0 && runs == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "{replies} new replies (want {}), {paths} new paths and {runs} driver runs (want 0)",
                        w.hosts.len()
                    ))
                }
            }
        }
    }

    /// Ping replies a finished lap must have collected, priming included.
    pub fn expected_replies(&self, ops_run: usize) -> usize {
        match self.kind {
            Kind::ReactiveSetup => ops_run,
            Kind::BulkInstall => 0,
            Kind::MonitorScan => HOSTS,
            Kind::WarmForward => HOSTS * (1 + ops_run),
        }
    }
}

/// What [`Workload::before`] recorded.
#[derive(Default)]
pub struct Before {
    flows: usize,
    replies: usize,
    paths: usize,
    driver_runs: u64,
}

/// What the timed op observed for its check.
#[derive(Default)]
pub struct Outcome {
    calls_failed: u32,
    mid_flows: usize,
    end_flows: usize,
    /// Shell output, two entries (ports, flows) per scanned switch.
    scans: Vec<String>,
}

/// Write [`GRID_FLOWS`] flows to every switch through its flows
/// directory descriptor and pump them into the hardware.
pub fn install_grid(w: &mut World, prefix: &str, mac_base: u64) {
    let batch = flow_batch(prefix, GRID_FLOWS, mac_base);
    for s in 0..w.switches.len() {
        let flows = w
            .yfs
            .open_flows_dir(&w.switches[s])
            .expect("open flows dir");
        for (name, spec) in &batch {
            w.yfs
                .write_flow_at(flows, name, spec)
                .expect("prime grid flow");
        }
        w.fs.close(flows, w.yfs.creds()).expect("close flows dir");
    }
    w.rt.pump().expect("pump grid flows");
}

/// Every host pings its partner once, settling between pings.
fn ping_partners(w: &mut World, seq: u16) {
    let n = w.hosts.len();
    for h in 0..n {
        let (host, _) = w.hosts[h];
        let (_, ip) = w.hosts[partner(h, n)];
        w.rt.net.host_ping(host, ip, seq);
        w.settle();
    }
}

fn parse_values(output: &str) -> Result<Vec<u64>, String> {
    output
        .lines()
        .map(|l| {
            l.trim()
                .parse::<u64>()
                .map_err(|_| format!("not a counter value: {l:?}"))
        })
        .collect()
}

/// The scan of one switch must show one value per port and per flow,
/// and the values must add up to what `/net` holds.
fn check_scan(w: &World, s: usize, ports_out: &str, flows_out: &str) -> Result<(), String> {
    let sw = &w.switches[s];
    let ports = w.yfs.list_ports(sw).map_err(|e| e.to_string())?;
    let want: u64 = ports
        .iter()
        .map(|&p| w.yfs.read_counter(&w.yfs.port_dir(sw, p), "rx_packets"))
        .sum();
    let got = parse_values(ports_out)?;
    if got.len() != ports.len() || got.iter().sum::<u64>() != want {
        return Err(format!(
            "{sw}: scan shows {} port values summing to {}, /net has {} ports summing to {want}",
            got.len(),
            got.iter().sum::<u64>(),
            ports.len()
        ));
    }
    let flows = w.yfs.list_flows(sw).map_err(|e| e.to_string())?;
    let want: u64 = flows
        .iter()
        .map(|f| w.yfs.read_counter(&w.yfs.flow_dir(sw, f), "packets"))
        .sum();
    let got = parse_values(flows_out)?;
    if got.len() != flows.len() || got.iter().sum::<u64>() != want {
        return Err(format!(
            "{sw}: scan shows {} flow values summing to {}, /net has {} flows summing to {want}",
            got.len(),
            got.iter().sum::<u64>(),
            flows.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pings(seed: u64) -> Vec<(usize, usize, bool)> {
        Workload::new(Kind::ReactiveSetup, seed)
            .ops
            .iter()
            .map(|op| match op {
                Op::Ping { src, dst, cold } => (*src, *dst, *cold),
                other => panic!("unexpected op {other:?}"),
            })
            .collect()
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
        assert_eq!(Kind::WarmForward.items_per_op(), 128);
    }

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        for k in Kind::ALL {
            assert_eq!(Workload::new(k, 5).ops, Workload::new(k, 5).ops);
            assert_eq!(Workload::new(k, 5).ops.len(), k.ops_per_lap());
        }
        assert_ne!(pings(1), pings(2));
        assert_ne!(
            Workload::new(Kind::BulkInstall, 1).ops,
            Workload::new(Kind::BulkInstall, 2).ops
        );
    }

    #[test]
    fn ping_pairs_are_distinct_cross_pod_and_keep_the_rhythm() {
        let pods = host_pods(&FatTree::new(K));
        for seed in [1, 2, 99] {
            let plan = pings(seed);
            assert_eq!(plan.len(), 240);
            let mut seen = BTreeSet::new();
            let mut announced = BTreeSet::new();
            for (i, &(src, dst, cold)) in plan.iter().enumerate() {
                assert_ne!(pods[src], pods[dst], "cross-pod");
                assert!(
                    seen.insert((src.min(dst), src.max(dst))),
                    "pair repeated in either direction"
                );
                assert_eq!(cold, i % 3 == 0, "cold, warm, warm");
                if cold {
                    assert!(
                        !announced.contains(&dst),
                        "cold destination never broadcast"
                    );
                    assert!(announced.insert(src), "cold source is new");
                } else {
                    assert!(announced.contains(&dst), "warm destination has broadcast");
                }
            }
        }
    }

    #[test]
    fn bulk_and_scan_cover_every_switch_equally() {
        let n = FatTree::new(K).n_switches();
        let mut visits = vec![0usize; n];
        for op in &Workload::new(Kind::BulkInstall, 3).ops {
            match op {
                Op::Bulk { switch } => visits[*switch] += 1,
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(visits.iter().all(|&v| v == 320 / n));

        let mut visits = vec![0usize; n];
        for op in &Workload::new(Kind::MonitorScan, 3).ops {
            match op {
                Op::Scan { shard } => {
                    let distinct: BTreeSet<_> = shard.iter().collect();
                    assert_eq!(
                        distinct.len(),
                        SCAN_SHARD,
                        "a shard polls 8 different drivers"
                    );
                    shard.iter().for_each(|&s| visits[s] += 1);
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(visits.iter().all(|&v| v == 300 * SCAN_SHARD / n));
    }

    #[test]
    fn flow_batch_entries_are_distinct() {
        let batch = flow_batch("bulk", BULK_FLOWS, 0xb0_0000);
        let names: BTreeSet<_> = batch.iter().map(|(n, _)| n.clone()).collect();
        let macs: BTreeSet<_> = batch.iter().map(|(_, s)| s.m.dl_dst).collect();
        assert_eq!((names.len(), macs.len()), (BULK_FLOWS, BULK_FLOWS));
        assert!(batch
            .iter()
            .all(|(_, s)| (1..=K).contains(&s.m.in_port.unwrap())));
    }

    #[test]
    fn partner_is_an_involution_half_the_fabric_away() {
        for h in 0..128 {
            assert_eq!(partner(partner(h, 128), 128), h);
            assert_eq!((partner(h, 128) + 128 - h) % 128, 64);
        }
    }

    #[test]
    fn parse_values_rejects_run_together_output() {
        assert_eq!(parse_values("3\n13\n0\n"), Ok(vec![3, 13, 0]));
        assert!(parse_values("3 13").is_err());
        assert_eq!(parse_values(""), Ok(vec![]));
    }
}
