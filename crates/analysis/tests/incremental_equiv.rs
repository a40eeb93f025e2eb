//! Equivalence of the incremental observation plane with from-scratch
//! observation: the delta-built route view, the incremental monitors and
//! the delta-driven flap counter must be observationally identical to
//! their rebuild-everything references, step for step, across seeds,
//! topologies and fault schedules.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use lsrp_analysis::{
    measure_recovery, run_monitored, ConvergenceMonitor, LoopMonitor, LoopScreen, Monitor,
    RoutingSimulation,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::{CorruptionKind, Fault, FaultProcess, FaultSchedule};
use lsrp_graph::{generators, Distance, Graph, NodeId, RouteEntry};
use lsrp_sim::{EngineConfig, ProtocolNode, ViewEntry};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid5x5", generators::grid(5, 5, 1)),
        ("ring12", generators::ring(12, 1)),
        ("path10", generators::path(10, 1)),
    ]
}

fn chaos_schedule(sim: &mut LsrpSimulation, graph: &Graph, seed: u64) -> FaultSchedule {
    sim.run_to_quiescence(100_000.0);
    let t0 = sim.now().seconds();
    FaultProcess::standard()
        .generate(graph, sim.destination(), 120.0, seed)
        .shifted(t0)
}

/// The route view rebuilt from scratch off the protocol nodes — the
/// ground truth the engine-maintained dense view must always equal.
fn scratch_view(sim: &LsrpSimulation) -> BTreeMap<NodeId, ViewEntry> {
    let engine = sim.engine();
    sim.graph()
        .nodes()
        .filter_map(|u| {
            engine.node(u).map(|n| {
                (
                    u,
                    ViewEntry {
                        route: n.route_entry(),
                        containment: n.in_containment(),
                    },
                )
            })
        })
        .collect()
}

/// Tentpole equivalence: after every engine step of a randomized chaos
/// run, (a) the dense view equals a fresh rebuild from the protocol
/// nodes, and (b) a shadow map fed *only* by the delta log equals both.
#[test]
fn view_and_delta_log_match_scratch_rebuild_across_chaos() {
    for (name, graph) in topologies() {
        for seed in [1u64, 7, 42] {
            let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
                .initial_state(InitialState::Fresh)
                .engine_config(EngineConfig::default().with_seed(seed))
                .build();
            let schedule = chaos_schedule(&mut sim, &graph, seed);
            let mut cursor = sim.route_cursor();
            let mut shadow: BTreeMap<NodeId, ViewEntry> = sim.route_view().iter().collect();
            let mut steps = 0u64;
            let check = |sim: &mut LsrpSimulation,
                         cursor: &mut lsrp_sim::RouteCursor,
                         shadow: &mut BTreeMap<NodeId, ViewEntry>| {
                let deltas = sim.route_deltas_since(*cursor);
                let consumed = deltas.len();
                for d in deltas {
                    match d.new {
                        Some(e) => {
                            shadow.insert(d.node, e);
                        }
                        None => {
                            shadow.remove(&d.node);
                        }
                    }
                }
                *cursor = cursor.advanced(consumed);
                sim.trim_route_deltas(*cursor);
                let dense: BTreeMap<NodeId, ViewEntry> = sim.route_view().iter().collect();
                let scratch = scratch_view(sim);
                assert_eq!(dense, scratch, "dense view drifted ({name}, seed {seed})");
                assert_eq!(*shadow, scratch, "delta log drifted ({name}, seed {seed})");
            };
            for ev in &schedule.events {
                while sim
                    .engine()
                    .next_event_time()
                    .is_some_and(|t| t.seconds() <= ev.at)
                {
                    sim.step();
                    steps += 1;
                    check(&mut sim, &mut cursor, &mut shadow);
                }
                if ev.at > sim.now().seconds() {
                    sim.run_until(ev.at);
                }
                let _ = ev.fault.apply_lsrp(&mut sim);
                check(&mut sim, &mut cursor, &mut shadow);
            }
            // Tail drain: maintenance may tick forever, so stop once
            // nothing effective can happen (as the monitored runner does).
            loop {
                if !sim.engine().any_enabled_non_maintenance()
                    && sim.engine().inflight_messages() == 0
                {
                    break;
                }
                if sim.step().is_none() {
                    break;
                }
                steps += 1;
                check(&mut sim, &mut cursor, &mut shadow);
            }
            assert!(steps > 50, "chaos run too small to be meaningful ({name})");
        }
    }
}

fn monitor_pair(sim: &LsrpSimulation, incremental: bool) -> Vec<Box<dyn Monitor>> {
    let timing = *sim.timing();
    // A deliberately tight convergence deadline and loop window, so the
    // verdict streams are non-trivially exercised.
    let deadline = 2.0 * timing.hd_s;
    let window = timing.hd_c.max(0.5);
    let interval = timing.hd_c.max(0.5);
    if incremental {
        vec![
            Box::new(ConvergenceMonitor::new(deadline)),
            Box::new(LoopMonitor::new(window, interval)),
        ]
    } else {
        vec![
            Box::new(ConvergenceMonitor::full_rescan(deadline)),
            Box::new(LoopMonitor::full_rescan(window, interval)),
        ]
    }
}

/// Incremental monitors report the same violations — same kinds, nodes,
/// times, details, same order — as the full-rescan reference monitors on
/// identical (seed-pinned) runs.
#[test]
fn incremental_monitor_verdicts_match_full_rescan() {
    for (name, graph) in topologies() {
        for seed in [3u64, 42] {
            let run = |incremental: bool| {
                let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
                    .initial_state(InitialState::Fresh)
                    .engine_config(EngineConfig::default().with_seed(seed))
                    .build();
                let mut schedule = chaos_schedule(&mut sim, &graph, seed);
                // Seed a route cycle mid-run so the loop monitors have
                // something to screen (LSRP repairs it; with the tight
                // window the repair may or may not beat the deadline —
                // either way both modes must agree).
                let t = sim.now().seconds() + 60.0;
                schedule.push(
                    t,
                    Fault::Corrupt {
                        node: v(2),
                        kind: CorruptionKind::Parent(v(3)),
                    },
                );
                schedule.push(
                    t,
                    Fault::Corrupt {
                        node: v(3),
                        kind: CorruptionKind::Parent(v(2)),
                    },
                );
                let mut monitors = monitor_pair(&sim, incremental);
                run_monitored(&mut sim, &schedule, 100_000.0, &mut monitors)
            };
            let inc = run(true);
            let full = run(false);
            assert_eq!(inc.events, full.events, "{name} seed {seed}");
            assert_eq!(inc.end, full.end, "{name} seed {seed}");
            assert_eq!(inc.quiescent, full.quiescent, "{name} seed {seed}");
            assert_eq!(
                inc.violations, full.violations,
                "verdict streams diverged ({name}, seed {seed})"
            );
        }
    }
}

/// The convergence monitors do fire on a genuinely stuck run — and both
/// modes report the identical violation.
#[test]
fn both_monitor_modes_flag_a_stuck_run_identically() {
    let run = |incremental: bool| {
        let mut sim = LsrpSimulation::builder(generators::path(3, 1), v(0)).build();
        sim.run_to_quiescence(10_000.0);
        let schedule =
            FaultSchedule::new().with(sim.now().seconds() + 1.0, Fault::FailEdge(v(0), v(1)));
        let mut monitors: Vec<Box<dyn Monitor>> = if incremental {
            vec![Box::new(ConvergenceMonitor::new(1.0))]
        } else {
            vec![Box::new(ConvergenceMonitor::full_rescan(1.0))]
        };
        run_monitored(&mut sim, &schedule, 50_000.0, &mut monitors)
    };
    let inc = run(true);
    let full = run(false);
    assert_eq!(inc.violations.len(), 1, "{:?}", inc.violations);
    assert_eq!(inc.violations, full.violations);
}

/// Delta-driven flap counting equals the historical full-table diff, step
/// for step, on the flap-prone DBF baseline.
#[test]
fn flap_counts_match_full_table_diff() {
    use lsrp_baselines::{BaselineSimulation, DbfConfig, DbfSimulation};
    use lsrp_graph::topologies::{fig1_route_table, paper_fig1, FIG1_DESTINATION};

    let build = || {
        DbfSimulation::new(
            paper_fig1(),
            FIG1_DESTINATION,
            Some(fig1_route_table()),
            DbfConfig::default(),
            EngineConfig::default().with_seed(9),
        )
    };
    let perturbed = BTreeSet::from([v(9)]);
    let inject = |s: &mut dyn RoutingSimulation| {
        s.corrupt_distance(v(9), Distance::Finite(1));
        s.poison_mirror(v(7), v(9), Distance::Finite(1));
        s.poison_mirror(v(8), v(9), Distance::Finite(1));
    };

    // Reference: re-derive the table after every step and diff parents
    // against the post-injection snapshot — the pre-delta implementation,
    // with the same settle-window break as `measure_recovery`.
    let mut sim = build();
    sim.reset_trace();
    let t0 = sim.now();
    inject(&mut sim as &mut dyn RoutingSimulation);
    let mut parents: BTreeMap<NodeId, NodeId> = sim
        .route_table()
        .iter()
        .map(|(u, e): (NodeId, RouteEntry)| (u, e.parent))
        .collect();
    let mut naive_flaps = 0u64;
    while let Some(t) = sim.step() {
        let last_change = sim
            .trace()
            .last_var_change_since(t0)
            .map_or(t0.seconds(), lsrp_sim::SimTime::seconds);
        if t.seconds() > 100_000.0 || t.seconds() > last_change + 1_000.0 {
            break;
        }
        for (u, e) in sim.route_table().iter() {
            match parents.get_mut(&u) {
                Some(old) if *old != e.parent => {
                    if !perturbed.contains(&u) {
                        naive_flaps += 1;
                    }
                    *old = e.parent;
                }
                Some(_) => {}
                None => {
                    parents.insert(u, e.parent);
                }
            }
        }
    }
    assert!(naive_flaps >= 2, "DBF must flap in the Fig. 2 scenario");

    // Incremental: the shipped measurement on an identical run.
    let mut sim = build();
    let m = measure_recovery(
        &mut sim as &mut dyn RoutingSimulation,
        &perturbed,
        100_000.0,
        |s| inject(s),
    );
    assert_eq!(m.healthy_route_flaps, naive_flaps);
}

/// The incremental `LoopScreen` agrees with the canonical full-table
/// scrub at every step, including through injected parent cycles.
#[test]
fn loop_screen_matches_canonical_scrub_per_step() {
    let dest = v(0);
    let mut sim = LsrpSimulation::builder(generators::ring(8, 1), dest)
        .initial_state(InitialState::Fresh)
        .engine_config(EngineConfig::default().with_seed(5))
        .build();
    sim.run_to_quiescence(10_000.0);
    let mut cursor = sim.route_cursor();
    let mut screen = LoopScreen::new(dest, sim.route_view());

    let check =
        |sim: &mut LsrpSimulation, cursor: &mut lsrp_sim::RouteCursor, screen: &mut LoopScreen| {
            let deltas = sim.route_deltas_since(*cursor);
            let consumed = deltas.len();
            screen.absorb(deltas);
            *cursor = cursor.advanced(consumed);
            sim.trim_route_deltas(*cursor);
            let canonical = sim.route_table().has_routing_loop(dest);
            assert_eq!(
                screen.has_loop(),
                canonical,
                "screen vs canonical at t={}",
                sim.now()
            );
        };

    check(&mut sim, &mut cursor, &mut screen);
    // Inject a 2-cycle and a 3-cycle over the run; LSRP repairs them.
    sim.inject_route(v(3), Distance::Finite(2), v(4));
    sim.inject_route(v(4), Distance::Finite(2), v(3));
    check(&mut sim, &mut cursor, &mut screen);
    let mut steps = 0u64;
    loop {
        if !sim.engine().any_enabled_non_maintenance() && sim.engine().inflight_messages() == 0 {
            break;
        }
        if sim.step().is_none() {
            break;
        }
        steps += 1;
        check(&mut sim, &mut cursor, &mut screen);
        if steps == 5 {
            sim.inject_route(v(5), Distance::Finite(3), v(6));
            sim.inject_route(v(6), Distance::Finite(3), v(7));
            sim.inject_route(v(7), Distance::Finite(3), v(5));
            check(&mut sim, &mut cursor, &mut screen);
        }
    }
    assert!(steps > 0, "repair must take events");
    assert!(
        !sim.route_table().has_routing_loop(dest),
        "LSRP must have repaired the injected loops"
    );
}
