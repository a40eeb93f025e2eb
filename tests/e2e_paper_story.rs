//! End-to-end walk through the paper's storyline on its own example
//! network, exercised through the facade crate: the motivating failure of
//! distance-vector routing (Figure 2), LSRP's containment (Figures 5–6),
//! and the §III perturbation arithmetic — all in one narrative test file.

use std::collections::BTreeSet;

use lsrp::analysis::{measure_recovery, RoutingSimulation};
use lsrp::baselines::{BaselineSimulation, DbfConfig, DbfSimulation};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
use lsrp::graph::Distance;
use lsrp_sim::EngineConfig;

fn lsrp_fig1() -> LsrpSimulation {
    LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
        .initial_state(InitialState::Table(fig1_route_table()))
        .timing(TimingConfig::paper_example(1.0))
        .build()
}

fn dbf_fig1() -> DbfSimulation {
    DbfSimulation::new(
        paper_fig1(),
        FIG1_DESTINATION,
        Some(fig1_route_table()),
        DbfConfig::default(),
        EngineConfig::default(),
    )
}

/// The same single corruption — `d.v9 := 1, learned by v7 and v8` —
/// contaminates six nodes under DBF and zero under LSRP, with an order of
/// magnitude fewer messages.
#[test]
fn the_headline_comparison() {
    let perturbed = BTreeSet::from([v(9)]);
    let inject = |s: &mut dyn RoutingSimulation| {
        s.corrupt_distance(v(9), Distance::Finite(1));
        s.poison_mirror(v(7), v(9), Distance::Finite(1));
        s.poison_mirror(v(8), v(9), Distance::Finite(1));
    };

    let mut lsrp = lsrp_fig1();
    let m_lsrp = measure_recovery(
        &mut lsrp as &mut dyn RoutingSimulation,
        &perturbed,
        100_000.0,
        |s| inject(s),
    );
    let mut dbf = dbf_fig1();
    let m_dbf = measure_recovery(
        &mut dbf as &mut dyn RoutingSimulation,
        &perturbed,
        100_000.0,
        |s| inject(s),
    );

    assert!(m_lsrp.routes_correct && m_dbf.routes_correct);
    assert_eq!(m_lsrp.contaminated.len(), 0, "LSRP contains ideally");
    assert_eq!(
        m_dbf.contaminated.len(),
        6,
        "DBF contaminates v1 v3 v6 v7 v8 v10"
    );
    assert!(m_lsrp.stabilization_time < m_dbf.stabilization_time / 4.0);
    assert!(
        m_lsrp.messages * 3 < m_dbf.messages,
        "LSRP {} vs DBF {} messages",
        m_lsrp.messages,
        m_dbf.messages
    );
    assert!(m_lsrp.actions * 3 < m_dbf.actions);
}

/// Route flapping (the instability §IV-B calls out): under DBF the
/// corruption makes `v6` change its route into the corrupted subtree and
/// back; under LSRP `v6`'s route never moves.
#[test]
fn route_flapping_happens_only_under_dbf() {
    let watch_parent_changes = |sim: &mut dyn RoutingSimulation| {
        let mut changes = 0;
        let mut last = sim.route_table().entry(v(6)).unwrap().parent;
        while sim.step().is_some() {
            let p = sim.route_table().entry(v(6)).unwrap().parent;
            if p != last {
                changes += 1;
                last = p;
            }
        }
        changes
    };
    let inject = |s: &mut dyn RoutingSimulation| {
        s.corrupt_distance(v(9), Distance::Finite(1));
        s.poison_mirror(v(7), v(9), Distance::Finite(1));
        s.poison_mirror(v(8), v(9), Distance::Finite(1));
    };

    let mut lsrp = lsrp_fig1();
    inject(&mut lsrp as &mut dyn RoutingSimulation);
    assert_eq!(
        watch_parent_changes(&mut lsrp as &mut dyn RoutingSimulation),
        0
    );

    let mut dbf = dbf_fig1();
    inject(&mut dbf as &mut dyn RoutingSimulation);
    assert_eq!(
        watch_parent_changes(&mut dbf as &mut dyn RoutingSimulation),
        2
    );
}

/// The §III-A dependency arithmetic holds end to end: injecting the
/// fail-stop of `v9` perturbs exactly `{v7, v8, v10}`, and those are also
/// exactly the nodes that act during LSRP's recovery.
#[test]
fn perturbation_accounting_matches_recovery() {
    use lsrp::faults::{Fault, FaultPlan};
    let plan = FaultPlan::new().with(Fault::FailNode(v(9)));
    let predicted = plan
        .perturbation(&paper_fig1(), FIG1_DESTINATION, &fig1_route_table())
        .unwrap()
        .perturbed_nodes();
    assert_eq!(predicted, BTreeSet::from([v(7), v(8), v(10)]));

    let mut sim = lsrp_fig1();
    sim.engine_mut().reset_trace();
    let t0 = sim.now();
    plan.apply(&mut sim).unwrap();
    let report = sim.run_to_quiescence(100_000.0);
    assert!(report.quiescent && sim.routes_correct());
    let acted = sim.engine().trace().acted_nodes_since(t0);
    assert_eq!(acted, predicted, "exactly the dependent set acts");
}

/// Weight changes are topology faults too: raising the weight of the
/// (v13, v9) link reroutes the subtree and LSRP converges to the new
/// shortest paths.
#[test]
fn weight_change_reroutes_correctly() {
    let mut sim = lsrp_fig1();
    sim.set_weight(v(13), v(9), 4).unwrap();
    let report = sim.run_to_quiescence(100_000.0);
    assert!(report.quiescent);
    assert!(sim.routes_correct());
    let t = sim.route_table();
    // v9 now routes via v7/v8's side: d = 5 via v7 (4 + 1).
    assert_eq!(t.entry(v(9)).unwrap().distance, Distance::Finite(5));
}
