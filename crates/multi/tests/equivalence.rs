//! Old-plane vs new-plane equivalence: the pre-dense reference
//! architecture (per-destination `BTreeMap` instances, one wire message
//! per advert, full guard scans) and the dense plane (interned `DestId`s,
//! batched adverts, dirty-instance scheduling) must agree on every
//! observable outcome — quiescence verdicts and final per-destination
//! route tables — across seeds × topologies × fault schedules.
//!
//! The suite drives both simulations through the *same* fault schedule in
//! lock-step (run both to the fault's injection time, inject into both,
//! repeat) and compares the converged state. It also checks the batching
//! ledger: the dense plane never delivers more engine messages than the
//! unbatched reference.

use lsrp_graph::{generators, Distance, Graph, NodeId, Weight};
use lsrp_multi::{
    MultiLsrpSimulation, MultiLsrpSimulationExt, ReferenceMultiSimulation,
    ReferenceMultiSimulationExt,
};
use lsrp_sim::EngineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault of the schedule, applied identically to both planes.
#[derive(Debug, Clone)]
enum Fault {
    /// Corrupt one node's distance toward one destination.
    Instance(NodeId, NodeId, Distance),
    /// Corrupt every instance at one node (full-table corruption).
    AllInstances(NodeId),
    /// Remove an edge.
    FailEdge(NodeId, NodeId),
    /// Add (or re-add) an edge.
    JoinEdge(NodeId, NodeId, Weight),
    /// Fail-stop a (non-destination) node.
    FailNode(NodeId),
    /// Rejoin a failed node with its original edges.
    JoinNode(NodeId, Vec<(NodeId, Weight)>),
}

/// Draws a deterministic fault schedule for `graph` from `seed`:
/// `(time, fault)` pairs with strictly increasing times.
fn draw_schedule(graph: &Graph, dests: &[NodeId], seed: u64, len: usize) -> Vec<(f64, Fault)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let edges: Vec<(NodeId, NodeId, Weight)> = graph.edges().collect();
    let mut out = Vec::with_capacity(len);
    let mut removed: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    let mut downed: Vec<(NodeId, Vec<(NodeId, Weight)>)> = Vec::new();
    for i in 0..len {
        // Space faults far enough apart that some overlap recovery and
        // some land on a quiet network.
        let t = (i as f64 + 1.0) * 40.0 + rng.gen_range(0.0..20.0);
        let fault = match rng.gen_range(0u8..7) {
            0 | 1 => {
                let v = nodes[rng.gen_range(0..nodes.len())];
                let d = dests[rng.gen_range(0..dests.len())];
                Fault::Instance(v, d, Distance::Finite(rng.gen_range(0..40)))
            }
            2 => Fault::AllInstances(nodes[rng.gen_range(0..nodes.len())]),
            3 if !removed.is_empty() => {
                let (a, b, w) = removed.swap_remove(rng.gen_range(0..removed.len()));
                Fault::JoinEdge(a, b, w)
            }
            4 | 5 => {
                if let Some((v, es)) = downed.pop() {
                    Fault::JoinNode(v, es)
                } else {
                    // Churn a non-destination node (the fault process
                    // never churns destinations either: a dead
                    // destination has no recovery obligation to judge).
                    let candidates: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|v| !dests.contains(v))
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let v = candidates[rng.gen_range(0..candidates.len())];
                    let es: Vec<(NodeId, Weight)> = graph.neighbors(v).collect();
                    downed.push((v, es));
                    Fault::FailNode(v)
                }
            }
            _ => {
                let (a, b, w) = edges[rng.gen_range(0..edges.len())];
                removed.push((a, b, w));
                Fault::FailEdge(a, b)
            }
        };
        out.push((t, fault));
    }
    // Rejoin anything still down so the final comparison sees the full
    // node set.
    let mut t = (len as f64 + 1.0) * 40.0;
    while let Some((v, es)) = downed.pop() {
        out.push((t, Fault::JoinNode(v, es)));
        t += 40.0;
    }
    out
}

/// Runs both planes through `schedule` in lock-step and asserts identical
/// quiescence verdicts, identical per-destination route tables, and that
/// batching never inflates delivered messages.
fn assert_equivalent(graph: Graph, dests: Vec<NodeId>, schedule: &[(f64, Fault)], label: &str) {
    let config = EngineConfig::default();
    let mut dense = MultiLsrpSimulation::builder(graph.clone(), dests.clone())
        .engine_config(config.clone())
        .build();
    let mut oracle = ReferenceMultiSimulation::reference(graph, dests, config);

    for (t, fault) in schedule {
        dense.run_until(*t);
        oracle.run_until(*t);
        match *fault {
            Fault::Instance(v, d, dist) => {
                dense.corrupt_instance_distance(v, d, dist);
                oracle.corrupt_instance_distance(v, d, dist);
            }
            Fault::AllInstances(v) => {
                dense.corrupt_all_instances(v, |dest| (Distance::Finite(1), dest));
                oracle.corrupt_all_instances(v, |dest| (Distance::Finite(1), dest));
            }
            Fault::FailEdge(a, b) => {
                let x = dense.fail_edge(a, b);
                let y = oracle.fail_edge(a, b);
                assert_eq!(x.is_ok(), y.is_ok(), "{label}: fail_edge({a},{b}) diverged");
            }
            Fault::JoinEdge(a, b, w) => {
                let x = dense.join_edge(a, b, w);
                let y = oracle.join_edge(a, b, w);
                assert_eq!(x.is_ok(), y.is_ok(), "{label}: join_edge({a},{b}) diverged");
            }
            Fault::FailNode(v) => {
                let x = dense.fail_node(v);
                let y = oracle.fail_node(v);
                assert_eq!(x.is_ok(), y.is_ok(), "{label}: fail_node({v}) diverged");
            }
            Fault::JoinNode(v, ref es) => {
                let x = dense.join_node(v, es);
                let y = oracle.join_node(v, es);
                assert_eq!(x.is_ok(), y.is_ok(), "{label}: join_node({v}) diverged");
            }
        }
    }

    let horizon = 2_000_000.0;
    let dense_report = dense.run_to_quiescence(horizon);
    let oracle_report = oracle.run_to_quiescence(horizon);
    assert_eq!(
        dense_report.quiescent, oracle_report.quiescent,
        "{label}: quiescence verdicts diverged"
    );
    assert!(dense_report.quiescent, "{label}: did not quiesce");

    let dense_dests = MultiLsrpSimulationExt::destinations(&dense);
    let oracle_dests = ReferenceMultiSimulationExt::destinations(&oracle);
    assert_eq!(
        dense_dests, oracle_dests,
        "{label}: destination sets diverged"
    );
    for d in dense_dests {
        assert_eq!(
            dense.route_table_for(d),
            ReferenceMultiSimulationExt::route_table_for(&oracle, d),
            "{label}: route tables toward {d} diverged"
        );
    }

    // The same protocol steps ran on both planes; batching can only merge
    // wire messages, never add them.
    let (ds, os) = (dense.engine().stats(), oracle.engine().stats());
    assert!(
        ds.messages_delivered <= os.messages_delivered,
        "{label}: batching inflated deliveries ({} > {})",
        ds.messages_delivered,
        os.messages_delivered
    );
    // And the unbatched plane carries exactly one advert per message.
    assert_eq!(
        os.adverts_delivered, os.messages_delivered,
        "{label}: oracle ledger"
    );
}

fn run_matrix(graph: Graph, dests: Vec<NodeId>, label: &str) {
    for seed in [11u64, 12, 13] {
        let schedule = draw_schedule(&graph, &dests, seed, 6);
        assert_equivalent(
            graph.clone(),
            dests.clone(),
            &schedule,
            &format!("{label}/seed{seed}"),
        );
    }
}

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn path_with_sparse_destinations() {
    let graph = generators::path(7, 2);
    let dests: Vec<NodeId> = graph.nodes().step_by(3).collect();
    run_matrix(graph, dests, "path7");
}

#[test]
fn ring_all_pairs() {
    let graph = generators::ring(8, 1);
    let dests: Vec<NodeId> = graph.nodes().collect();
    run_matrix(graph, dests, "ring8");
}

#[test]
fn grid_with_corner_and_center_destinations() {
    let graph = generators::grid(4, 4, 1);
    let dests = vec![v(0), v(5), v(15)];
    run_matrix(graph, dests, "grid4x4");
}

#[test]
fn weighted_random_graphs() {
    for graph_seed in [101u64, 202] {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let graph = generators::connected_erdos_renyi(12, 0.15, 3, &mut rng);
        let dests: Vec<NodeId> = graph.nodes().step_by(2).collect();
        run_matrix(graph, dests, &format!("er12/g{graph_seed}"));
    }
}

/// No faults at all: both planes start legitimate and must stay silent,
/// with identical (empty) activity.
#[test]
fn quiet_start_is_equivalent() {
    let graph = generators::grid(3, 3, 1);
    let dests: Vec<NodeId> = graph.nodes().collect();
    assert_equivalent(graph, dests, &[], "quiet3x3");
}

#[test]
fn batching_beats_the_per_destination_baseline() {
    // The all-pairs 6x6 grid (36 trees) under a full-table corruption at a
    // central node: identical protocol work on both planes, one advert per
    // wire message on the reference. DESIGN.md §10 quotes these counts.
    let graph = generators::grid(6, 6, 1);
    let dests: Vec<NodeId> = graph.nodes().collect();
    let mut dense = MultiLsrpSimulation::builder(graph.clone(), dests.clone()).build();
    let mut reference = ReferenceMultiSimulation::reference(graph, dests, EngineConfig::default());
    dense.corrupt_all_instances(v(14), |d| (Distance::Finite(1), d));
    reference.corrupt_all_instances(v(14), |d| (Distance::Finite(1), d));
    assert!(dense.run_to_quiescence(1_000_000.0).quiescent);
    assert!(reference.run_to_quiescence(1_000_000.0).quiescent);
    let (ds, rs) = (dense.stats(), reference.stats());
    assert_eq!((ds.messages_delivered, ds.adverts_delivered), (8, 252));
    assert_eq!((rs.messages_delivered, rs.adverts_delivered), (256, 256));
}
