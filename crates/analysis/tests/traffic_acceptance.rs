//! Acceptance tests of the live data plane: stretch-1 on legitimate
//! states, equivalence with the snapshot forwarding probe on frozen
//! networks, and byte-identical campaign reports across worker counts.

use proptest::prelude::*;

use lsrp_analysis::chaos::{run_campaign, CampaignConfig, Target};
use lsrp_analysis::forwarding::{availability, forward_packet, PacketFate};
use lsrp_analysis::traffic::{TrafficConfig, WorkloadSpec};
use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::shortest_path::ShortestPaths;
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};
use lsrp_sim::{PacketRecord, PacketStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Injects one probe per (src, dest) pair into a quiesced sim, runs the
/// packets to completion and returns their records.
fn probe_all<P: lsrp_sim::HarnessProtocol>(
    sim: &mut lsrp_sim::SimHarness<P>,
    pairs: &[(NodeId, NodeId)],
    ttl: u32,
) -> Vec<PacketRecord> {
    let t0 = sim.now().seconds();
    for &(src, dest) in pairs {
        sim.engine_mut().inject_packet(src, dest, ttl, 1);
    }
    // Constant 1 s default link delay: ttl hops bound the journey.
    sim.run_until(t0 + 2.0 * f64::from(ttl) + 10.0);
    assert_eq!(sim.engine().packets_in_flight(), 0, "probes must drain");
    sim.engine_mut().drain_completed_packets()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On any quiesced legitimate state, every injected packet is
    /// delivered with stretch exactly 1 against `shortest_path`
    /// (single-destination plane).
    #[test]
    fn quiesced_single_dest_delivers_at_stretch_one(
        n in 5u32..14,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let graph = generators::connected_erdos_renyi(n, extra, 3, &mut rng);
        let dest = v(0);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest).build();
        sim.run_to_quiescence(1_000_000.0);
        let truth = ShortestPaths::dijkstra(&graph, dest);
        let pairs: Vec<(NodeId, NodeId)> = graph.nodes().map(|s| (s, dest)).collect();
        let ttl = 4 * n;
        for rec in probe_all(&mut sim, &pairs, ttl) {
            prop_assert_eq!(rec.status, PacketStatus::Delivered, "src {}", rec.src);
            let Distance::Finite(d) = truth.distance(rec.src) else {
                prop_assert!(false, "connected graph: {} must be reachable", rec.src);
                unreachable!();
            };
            prop_assert_eq!(rec.cost, d, "stretch must be exactly 1 from {}", rec.src);
        }
    }

    /// The same stretch-1 guarantee for the dense multi-destination
    /// plane: every (node, destination) probe follows that destination's
    /// own tree to a shortest path.
    #[test]
    fn quiesced_multi_dest_delivers_at_stretch_one(
        n in 5u32..12,
        extra in 0.0f64..0.25,
        graph_seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let graph = generators::connected_erdos_renyi(n, extra, 3, &mut rng);
        let dests: Vec<NodeId> = graph.nodes().step_by(3).collect();
        let mut sim = MultiLsrpSimulation::builder(graph.clone(), dests.clone()).build();
        sim.run_to_quiescence(2_000_000.0);
        prop_assert!(sim.all_routes_correct());
        let pairs: Vec<(NodeId, NodeId)> = graph
            .nodes()
            .flat_map(|s| dests.iter().map(move |&d| (s, d)))
            .collect();
        let ttl = 4 * n;
        for rec in probe_all(&mut sim, &pairs, ttl) {
            prop_assert_eq!(
                rec.status,
                PacketStatus::Delivered,
                "src {} dest {}",
                rec.src,
                rec.dest
            );
            let truth = ShortestPaths::dijkstra(&graph, rec.dest);
            let Distance::Finite(d) = truth.distance(rec.src) else {
                prop_assert!(false, "connected graph: {} must be reachable", rec.src);
                unreachable!();
            };
            prop_assert_eq!(
                rec.cost, d,
                "stretch must be exactly 1 from {} toward {}",
                rec.src, rec.dest
            );
        }
    }
}

/// Live per-node probes on a frozen (quiesced) network must agree with
/// the snapshot forwarding probe *exactly*: same delivered fraction and
/// the same per-node fate.
fn assert_live_matches_snapshot(sim: &mut LsrpSimulation, graph: &Graph, dest: NodeId) {
    let table = sim.route_table();
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let max_hops = 4 * nodes.len();
    let snapshot_avail = availability(&table, graph, dest);

    let pairs: Vec<(NodeId, NodeId)> = nodes.iter().map(|&s| (s, dest)).collect();
    let records = probe_all(sim, &pairs, max_hops as u32);
    assert_eq!(records.len(), nodes.len());

    let delivered = records
        .iter()
        .filter(|r| r.status == PacketStatus::Delivered)
        .count();
    let live_avail = delivered as f64 / nodes.len() as f64;
    assert_eq!(
        live_avail, snapshot_avail,
        "live and snapshot availability must agree exactly"
    );

    for rec in &records {
        let fate = forward_packet(&table, graph, rec.src, dest, max_hops);
        match (rec.status, fate) {
            (PacketStatus::Delivered, PacketFate::Delivered { hops }) => {
                assert_eq!(rec.hops as usize, hops, "hop counts agree for {}", rec.src);
            }
            (PacketStatus::BlackHoled { at }, PacketFate::BlackHoled { at: snap }) => {
                assert_eq!(at, snap, "black-hole location agrees for {}", rec.src);
            }
            (live, snap) => panic!(
                "fate mismatch at {}: live {live:?} vs snapshot {snap:?}",
                rec.src
            ),
        }
    }
}

#[test]
fn frozen_partitioned_path_matches_snapshot_probe() {
    // Cutting 3-4 on a path strands half the nodes: availability 0.5,
    // with the stranded half black-holing at themselves.
    let g = generators::path(8, 2);
    let dest = v(0);
    let mut sim = LsrpSimulation::builder(g, dest).build();
    sim.run_to_quiescence(1_000_000.0);
    sim.fail_edge(v(3), v(4)).unwrap();
    sim.run_to_quiescence(1_000_000.0);
    let graph = sim.graph().clone();
    assert_live_matches_snapshot(&mut sim, &graph, dest);
    assert_eq!(availability(&sim.route_table(), &graph, dest), 0.5);
}

#[test]
fn frozen_ring_with_failed_node_matches_snapshot_probe() {
    // A failed ring node leaves a path: everything still delivers, some
    // routes just got longer. Fractions and per-node fates must agree.
    let g = generators::ring(7, 1);
    let dest = v(0);
    let mut sim = LsrpSimulation::builder(g, dest).build();
    sim.run_to_quiescence(1_000_000.0);
    sim.fail_node(v(2)).unwrap();
    sim.run_to_quiescence(1_000_000.0);
    let graph = sim.graph().clone();
    assert_live_matches_snapshot(&mut sim, &graph, dest);
    assert_eq!(availability(&sim.route_table(), &graph, dest), 1.0);
}

fn small_traffic_config() -> TrafficConfig {
    TrafficConfig {
        workload: WorkloadSpec {
            flows: 16,
            ..WorkloadSpec::default()
        },
        duration: 150.0,
        ..TrafficConfig::default()
    }
}

#[test]
fn traffic_runs_packets_through_chaos() {
    let g = generators::grid(4, 4, 1);
    let mut config = small_traffic_config();
    config.chaos.fault_window = 150.0;
    let (target, config) = (Target::Destination(v(0)), CampaignConfig::Traffic(config));
    let run = run_campaign(&g, "grid:4x4", target, config, 7..8, 1)
        .runs
        .remove(0);
    let traffic = run.traffic.expect("a traffic run");
    assert!(!run.schedule.is_empty(), "chaos must inject faults");
    assert!(traffic.counts.injected > 0, "workload must inject");
    assert!(
        traffic.counts.completed() == traffic.counts.injected,
        "all packets complete by quiescence"
    );
    assert!(run.report.quiescent, "both planes drain");
    assert!(traffic.delivered_fraction() > 0.0);
}

/// A `grid:3x3` traffic campaign's report, sharded over `jobs` workers.
fn grid3_report(target: Target, seeds: std::ops::Range<u64>, jobs: usize) -> String {
    let g = generators::grid(3, 3, 1);
    let mut config = small_traffic_config();
    config.chaos.fault_window = 100.0;
    let config = CampaignConfig::Traffic(config);
    run_campaign(&g, "grid3", target, config, seeds, jobs).report()
}

#[test]
fn traffic_campaign_reports_are_byte_identical_across_jobs() {
    let report = |jobs| grid3_report(Target::Destination(v(0)), 40..44, jobs);
    let serial = report(1);
    assert_eq!(serial, report(2));
    assert_eq!(serial, report(4));
    assert!(serial.contains("traffic campaign: topology grid3"));
}

#[test]
fn multi_traffic_campaign_reports_are_byte_identical_across_jobs() {
    let report = |jobs| grid3_report(Target::Destinations(vec![v(0), v(8)]), 50..53, jobs);
    let serial = report(1);
    let three = report(3);
    assert_eq!(serial, three);
    assert!(serial.contains("multi traffic campaign: topology grid3 destinations 2"));
    for line in serial.lines().skip(1) {
        assert!(line.contains("injected="), "every run line carries traffic");
    }
}
