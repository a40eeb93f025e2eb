//! Churn soak: a long randomized sequence of mixed faults (corruptions,
//! link churn, fail-stops, joins) against one LSRP network — after every
//! fault the system must re-converge to correct shortest paths, and with
//! the strict-loop-freedom timing, no routing loop may ever appear.

use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::faults::CorruptionKind;
use lsrp::graph::{generators, Distance, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn lsrp_survives_sustained_mixed_churn() {
    let mut rng = StdRng::seed_from_u64(20260707);
    let graph = generators::connected_erdos_renyi(40, 0.08, 3, &mut rng);
    let dest = v(0);
    let timing = TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0);
    let mut sim = LsrpSimulation::builder(graph, dest)
        .timing(timing)
        .initial_state(InitialState::Legitimate)
        .seed(1)
        .build();

    let mut dead: Vec<NodeId> = Vec::new();
    let mut next_join_id = 1_000u32;
    for round in 0..60 {
        // Pick a random fault class.
        let nodes: Vec<NodeId> = sim.graph().nodes().filter(|&x| x != dest).collect();
        let pick = nodes[rng.gen_range(0..nodes.len())];
        match rng.gen_range(0..6) {
            0 => {
                // Distance corruption with poisoned neighborhood.
                let d = Distance::Finite(rng.gen_range(0..60));
                sim.corrupt_distance(pick, d);
                let ns: Vec<NodeId> = sim.graph().neighbors(pick).map(|(k, _)| k).collect();
                for k in ns {
                    let (p, ghost) = {
                        let s = sim.engine().node(pick).unwrap().state();
                        (s.p, s.ghost)
                    };
                    sim.corrupt(
                        k,
                        &CorruptionKind::MirrorOf {
                            about: pick,
                            mirror: lsrp::core::Mirror { d, p, ghost },
                        },
                    );
                }
            }
            1 => {
                // Ghost-flag corruption.
                sim.corrupt(pick, &CorruptionKind::Ghost(rng.gen_bool(0.5)));
            }
            2 => {
                // Fail-stop, but never disconnect the graph.
                let mut after = sim.graph().clone();
                after.remove_node(pick).unwrap();
                if after.is_connected() {
                    sim.fail_node(pick).unwrap();
                    dead.push(pick);
                }
            }
            3 => {
                // Rejoin a dead node (or join a brand-new one) somewhere.
                let id = dead.pop().unwrap_or_else(|| {
                    next_join_id += 1;
                    v(next_join_id)
                });
                let a = nodes[rng.gen_range(0..nodes.len())];
                let b = nodes[rng.gen_range(0..nodes.len())];
                let mut edges = vec![(a, rng.gen_range(1..4))];
                if b != a {
                    edges.push((b, rng.gen_range(1..4)));
                }
                sim.join_node(id, &edges).unwrap();
            }
            4 => {
                // Link churn: remove a random non-cut edge, or add one.
                let edges: Vec<_> = sim.graph().edges().collect();
                let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                let mut after = sim.graph().clone();
                after.remove_edge(a, b).unwrap();
                if after.is_connected() {
                    sim.fail_edge(a, b).unwrap();
                } else {
                    sim.join_edge(a, b, rng.gen_range(1..4)).ok();
                }
            }
            _ => {
                // Weight change.
                let edges: Vec<_> = sim.graph().edges().collect();
                let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                sim.set_weight(a, b, rng.gen_range(1..6)).unwrap();
            }
        }

        let report = sim.run_to_quiescence(10_000_000.0);
        assert!(report.quiescent, "round {round}: did not settle");
        assert!(sim.routes_correct(), "round {round}: wrong routes");
        assert!(sim.is_legitimate(), "round {round}: not legitimate");
        assert!(
            !sim.route_table().has_routing_loop(dest),
            "round {round}: loop at rest"
        );
    }
}

#[test]
fn repeated_partition_and_heal() {
    // Cut the network in half and heal it, repeatedly; the stranded half
    // must withdraw routes (d = ∞) and re-learn them on heal.
    let mut sim = LsrpSimulation::builder(generators::path(10, 1), v(0)).build();
    for round in 0..5 {
        sim.fail_edge(v(4), v(5)).unwrap();
        let report = sim.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent, "round {round} cut");
        assert!(sim.routes_correct());
        assert!(sim
            .route_table()
            .entry(v(9))
            .unwrap()
            .distance
            .is_infinite());

        sim.join_edge(v(4), v(5), 1).unwrap();
        let report = sim.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent, "round {round} heal");
        assert!(sim.routes_correct());
        assert_eq!(
            sim.route_table().entry(v(9)).unwrap().distance,
            Distance::Finite(9)
        );
    }
}
