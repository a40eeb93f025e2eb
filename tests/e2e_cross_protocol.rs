//! Cross-protocol invariants, run through the unified measurement
//! interface: for the same faults on the same topologies, LSRP's recovery
//! is local while the baselines' is global — the repository's version of
//! the paper's Table-of-comparisons.

use std::collections::BTreeSet;

use lsrp::analysis::{measure_recovery, RoutingSimulation};
use lsrp::baselines::{BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation};
use lsrp::core::{LsrpSimulation, LsrpSimulationExt};
use lsrp::faults::Fault;
use lsrp::graph::{generators, Distance, NodeId};
use lsrp_sim::EngineConfig;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

fn protocols_on(graph: lsrp::graph::Graph, dest: NodeId) -> Vec<Box<dyn RoutingSimulation>> {
    vec![
        Box::new(LsrpSimulation::builder(graph.clone(), dest).build()),
        Box::new(DbfSimulation::new(
            graph.clone(),
            dest,
            None,
            DbfConfig::default(),
            EngineConfig::default(),
        )),
        Box::new(DualSimulation::new(
            graph,
            dest,
            None,
            DualConfig::default(),
            EngineConfig::default(),
        )),
    ]
}

/// A black-hole corruption deep inside a grid: every protocol recovers
/// correct routes, but only LSRP keeps both the contamination range and
/// the stabilization time bounded by the perturbation, not the network.
#[test]
fn black_hole_recovery_is_local_only_for_lsrp() {
    let dest = v(0);
    let victim = v(17); // (1,1) of a 16x16 grid: most of the grid is downstream
    let mut results = Vec::new();
    for mut sim in protocols_on(generators::grid(16, 16, 1), dest) {
        let perturbed = BTreeSet::from([victim]);
        let m = measure_recovery(sim.as_mut(), &perturbed, 5_000_000.0, |s| {
            s.corrupt_distance(victim, Distance::ZERO);
            let ns: Vec<NodeId> = s.graph().neighbors(victim).map(|(k, _)| k).collect();
            for k in ns {
                s.poison_mirror(k, victim, Distance::ZERO);
            }
        });
        assert!(m.quiescent && m.routes_correct, "{}", m.protocol);
        results.push(m);
    }
    let (lsrp, dbf, dual) = (&results[0], &results[1], &results[2]);
    assert!(lsrp.contamination_range <= 2);
    assert!(dbf.contamination_range > 10, "{}", dbf.contamination_range);
    assert!(
        dual.contamination_range > 10,
        "{}",
        dual.contamination_range
    );
    assert!(lsrp.stabilization_time * 5.0 < dbf.stabilization_time);
    assert!(lsrp.messages * 10 < dbf.messages);
}

/// Fail-stop of a cut-ish node: all protocols re-converge; LSRP touches
/// only the dependent neighborhood.
#[test]
fn fail_stop_recovery_across_protocols() {
    let dest = v(0);
    for mut sim in protocols_on(generators::grid(8, 8, 1), dest) {
        let dead = v(27);
        let perturbed: BTreeSet<NodeId> = sim.graph().neighbors(dead).map(|(k, _)| k).collect();
        let m = measure_recovery(sim.as_mut(), &perturbed, 5_000_000.0, |s| {
            s.apply(&Fault::FailNode(dead)).unwrap();
        });
        assert!(m.quiescent, "{}", m.protocol);
        assert!(m.routes_correct, "{}", m.protocol);
    }
}

/// The disconnection stress test: DBF counts to (bounded) infinity, DUAL
/// withdraws via one diffusing computation, LSRP withdraws via
/// containment — all end with `d = ∞` on the stranded side, with wildly
/// different amounts of work.
#[test]
fn disconnection_withdrawal_work_comparison() {
    let dest = v(0);
    let mut actions = Vec::new();
    for mut sim in protocols_on(generators::path(8, 1), dest) {
        let perturbed: BTreeSet<NodeId> = (1..8).map(v).collect();
        let m = measure_recovery(sim.as_mut(), &perturbed, 5_000_000.0, |s| {
            s.apply(&Fault::FailEdge(v(0), v(1))).unwrap();
        });
        assert!(m.quiescent && m.routes_correct, "{}", m.protocol);
        let table = sim.route_table();
        for i in 1..8 {
            assert!(
                table.entry(v(i)).unwrap().distance.is_infinite(),
                "{} v{i}",
                m.protocol
            );
        }
        actions.push((m.protocol, m.actions));
    }
    let dbf = actions.iter().find(|(p, _)| *p == "DBF").unwrap().1;
    let dual = actions.iter().find(|(p, _)| *p == "DUAL").unwrap().1;
    assert!(
        dbf > dual * 3,
        "count-to-infinity must dwarf the diffusing withdrawal: DBF {dbf} vs DUAL {dual}"
    );
}
