//! End-to-end reproductions of the paper's worked examples (§IV-E,
//! Figures 5 and 6), pinned to the exact event times the paper derives.
//!
//! Timing: the paper's example setting — `rho = 1`, constant link delay
//! `u = 1`, `hd_SC = u = 1`, `hd_C = 4 hd_SC + 4u = 8`,
//! `hd_S = 2 hd_C + u = 17`.

use lsrp_core::InitialState;
use lsrp_core::{LsrpSimulation, LsrpSimulationExt, Mirror, TimingConfig};
use lsrp_graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
use lsrp_graph::Distance;
use lsrp_sim::{CorruptionKind, SimTime};

fn paper_sim() -> LsrpSimulation {
    LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
        .initial_state(InitialState::Table(fig1_route_table()))
        .timing(TimingConfig::paper_example(1.0))
        .build()
}

/// Figure 5: `d.v9` is corrupted to 1 and `v7`, `v8` have already learned
/// the corrupted value. Expected: `C1` then `C2` execute at `v9` at time
/// `hd_C = 8`, the corrected state reaches `v7`/`v8` at `hd_C + u = 9`
/// disabling their pending `S2`, and **no node other than `v9` executes
/// any action** — the ideal containment result.
#[test]
fn figure5_ideal_containment_of_corrupted_v9() {
    let mut sim = paper_sim();
    sim.corrupt_distance(v(9), Distance::Finite(1));
    let poisoned = Mirror {
        d: Distance::Finite(1),
        p: v(13),
        ghost: false,
    };
    sim.corrupt(
        v(7),
        &CorruptionKind::MirrorOf {
            about: v(9),
            mirror: poisoned,
        },
    );
    sim.corrupt(
        v(8),
        &CorruptionKind::MirrorOf {
            about: v(9),
            mirror: poisoned,
        },
    );

    let report = sim.run_to_quiescence(1_000.0);
    assert!(report.quiescent);
    assert!(sim.routes_correct());
    assert!(sim.is_legitimate());

    let timeline = sim.engine().trace().timeline();
    assert_eq!(
        timeline.keys().copied().collect::<Vec<_>>(),
        vec![v(9)],
        "only v9 may execute actions: {timeline:?}"
    );
    assert_eq!(
        timeline[&v(9)],
        vec![("C1", SimTime::new(8.0)), ("C2", SimTime::new(8.0))]
    );
    // C2 corrected d.v9 back to 3 via parent substitute v13.
    let s9 = sim.engine().node(v(9)).unwrap().state();
    assert_eq!(s9.d, Distance::Finite(3));
    assert_eq!(s9.p, v(13));
    // Stabilization completed within hd_C + u (the final mirror refreshes
    // at v7/v8 land at t = 9, modulo FIFO epsilon on the double broadcast).
    assert!(report.last_effective <= SimTime::new(9.001));
    assert_eq!(
        sim.engine().trace().last_var_change_since(SimTime::ZERO),
        Some(SimTime::new(8.0)),
        "the last protocol-variable change is C1/C2 at v9"
    );
}

/// Figure 6: `d.v11` is corrupted to 2 and `v13` has learned it. The
/// containment wave is *mistakenly* initiated at `v13` (it sees itself as
/// a source of fault propagation), propagates to `v9`, and is then chased
/// down by the super-containment wave once `v11` corrects itself via the
/// stabilization wave. Expected per the paper's space-time diagram:
///
/// * `C1` at `v13` at `hd_C = 8`;
/// * `S2` at `v11` at `hd_S = 2 hd_C + u = 17` and `C1` at `v9` at
///   `2 hd_C + u = 17`;
/// * `SC` at `v13` at `2 hd_C + 2u + hd_SC = 19`;
/// * `SC` at `v9` at `2 hd_C + 3u + 2 hd_SC = 21`;
/// * the pending `C1` at `v7`/`v8`/`v10` is disabled at
///   `2 hd_C + 4u + 2 hd_SC = 22` — before its `hd_C` hold elapses —
///   so only `v11`, `v13`, `v9` ever execute (containment within 2 hops).
#[test]
fn figure6_supercontainment_chases_mistaken_containment() {
    let mut sim = paper_sim();
    sim.corrupt_distance(v(11), Distance::Finite(2));
    sim.corrupt(
        v(13),
        &CorruptionKind::MirrorOf {
            about: v(11),
            mirror: Mirror {
                d: Distance::Finite(2),
                p: v(2),
                ghost: false,
            },
        },
    );

    let report = sim.run_to_quiescence(1_000.0);
    assert!(report.quiescent);
    assert!(sim.routes_correct());
    assert!(sim.is_legitimate());

    let timeline = sim.engine().trace().timeline();
    assert_eq!(
        timeline.keys().copied().collect::<Vec<_>>(),
        vec![v(9), v(11), v(13)],
        "exactly v9, v11, v13 act: {timeline:?}"
    );
    assert_eq!(
        timeline[&v(13)],
        vec![("C1", SimTime::new(8.0)), ("SC", SimTime::new(19.0))]
    );
    assert_eq!(timeline[&v(11)], vec![("S2", SimTime::new(17.0))]);
    assert_eq!(
        timeline[&v(9)],
        vec![("C1", SimTime::new(17.0)), ("SC", SimTime::new(21.0))]
    );
    // The system is legitimate once v7/v8/v10's mirrors settle at
    // t = 2 hd_C + 4u + 2 hd_SC = 22 — the exact endpoint of the paper's
    // space-time diagram. The last protocol-variable change is SC at v9.
    assert_eq!(report.last_effective, SimTime::new(22.0));
    assert_eq!(
        sim.engine().trace().last_var_change_since(SimTime::ZERO),
        Some(SimTime::new(21.0))
    );

    // v13 recovered its parent (v11), v9 kept its parent (v13).
    assert_eq!(sim.engine().node(v(13)).unwrap().state().p, v(11));
    assert_eq!(sim.engine().node(v(9)).unwrap().state().p, v(13));
    assert_eq!(
        sim.engine().node(v(11)).unwrap().state().d,
        Distance::Finite(1)
    );
}

/// The containment-region claim of Figure 6: contamination stays within 2
/// hops of the perturbed node `v11`.
#[test]
fn figure6_contamination_range_is_two() {
    let mut sim = paper_sim();
    sim.corrupt_distance(v(11), Distance::Finite(2));
    sim.corrupt(
        v(13),
        &CorruptionKind::MirrorOf {
            about: v(11),
            mirror: Mirror {
                d: Distance::Finite(2),
                p: v(2),
                ghost: false,
            },
        },
    );
    sim.run_to_quiescence(1_000.0);

    let perturbed = std::collections::BTreeSet::from([v(11)]);
    let acted = sim.engine().trace().acted_nodes_since(SimTime::ZERO);
    let contaminated = lsrp_graph::contamination::contaminated_nodes(&perturbed, &acted);
    let range =
        lsrp_graph::contamination::range_of_contamination(sim.graph(), &perturbed, &contaminated);
    assert_eq!(range, 2);
}

/// Sanity cross-check for the examples: starting from the figure's chosen
/// tree with no fault at all, nothing happens.
#[test]
fn chosen_tree_is_stable_without_faults() {
    let mut sim = paper_sim();
    let report = sim.run_to_quiescence(1_000.0);
    assert!(report.quiescent);
    assert_eq!(sim.engine().trace().total_actions(), 0);
    assert_eq!(report.last_effective, SimTime::ZERO);
    assert!(sim.is_legitimate());
}

/// Fail-stop of `v9` (the §III-A perturbation-size example): the network
/// reroutes; the perturbed nodes `{v7, v8, v10}` all act, and
/// stabilization leaves a correct tree on the surviving topology.
#[test]
fn fail_stop_of_v9_reroutes_locally() {
    let mut sim = paper_sim();
    sim.fail_node(v(9)).unwrap();
    let report = sim.run_to_quiescence(10_000.0);
    assert!(report.quiescent);
    assert!(sim.routes_correct());
    assert!(sim.is_legitimate());
    let acted = sim.engine().trace().acted_nodes_since(SimTime::ZERO);
    for p in [v(7), v(8), v(10)] {
        assert!(acted.contains(&p), "{p} must act; acted = {acted:?}");
    }
    // v7, v8 keep distance 4 via v5; v10 degrades to 5.
    let table = sim.route_table();
    assert_eq!(table.entry(v(7)).unwrap().distance, Distance::Finite(4));
    assert_eq!(table.entry(v(8)).unwrap().distance, Distance::Finite(4));
    assert_eq!(table.entry(v(10)).unwrap().distance, Distance::Finite(5));
}

/// Join of edge `(v2, v9)` (the §III-A dependent-set example): exactly the
/// subtree of `v9` plus `v6` improves; the result is the new shortest path
/// tree.
#[test]
fn join_of_shortcut_edge_improves_subtree() {
    let mut sim = paper_sim();
    sim.join_edge(v(2), v(9), 1).unwrap();
    let report = sim.run_to_quiescence(10_000.0);
    assert!(report.quiescent);
    assert!(sim.routes_correct());
    let table = sim.route_table();
    assert_eq!(table.entry(v(9)).unwrap().distance, Distance::Finite(1));
    assert_eq!(table.entry(v(9)).unwrap().parent, v(2));
    assert_eq!(table.entry(v(7)).unwrap().distance, Distance::Finite(2));
    assert_eq!(table.entry(v(6)).unwrap().distance, Distance::Finite(3));
    // v4 keeps its old route entirely.
    assert_eq!(table.entry(v(4)).unwrap().distance, Distance::Finite(4));
    assert_eq!(table.entry(v(4)).unwrap().parent, v(5));
}
