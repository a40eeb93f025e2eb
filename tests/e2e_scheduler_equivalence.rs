//! Scheduler equivalence: the calendar-wheel event queue must be
//! observationally *byte-identical* to the binary-heap oracle.
//!
//! Both backends contractually dequeue in exact `(time, key)` order, so a
//! seeded run — trace, RNG draws, final tables, statistics — cannot depend
//! on which one is installed. These tests pin that across topology shapes
//! (grid, fat-tree, Waxman), arbitrary initial states, chaos fault
//! schedules, and congested data-plane traffic: the full cartesian slice
//! the engine's hot path sees in production campaigns.

use lsrp::analysis::{run_monitored, standard_monitors, TrafficMode, WorkloadDriver, WorkloadSpec};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::faults::FaultProcess;
use lsrp::graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{ClockConfig, CongestionConfig, EngineConfig, LinkConfig, SchedulerKind, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// The topologies under test: a mesh, a data-center Clos, and a random
/// internet-like geometric graph.
fn topologies() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(42);
    vec![
        ("grid6x6", generators::grid(6, 6, 1)),
        ("fattree4", generators::fat_tree(4)),
        ("waxman60", generators::waxman(60, 0.4, 0.6, &mut rng)),
    ]
}

/// Runs a chaotic control-plane scenario on the given backend and returns
/// the full observable fingerprint: every non-maintenance action record,
/// the final route table, and the engine statistics.
fn chaos_fingerprint(kind: SchedulerKind, graph: &Graph, seed: u64) -> String {
    // Jittered links and drifting clocks exercise irregular event
    // spacing; no periodic SYN refresh, so the monitored phase can
    // settle instead of ticking maintenance to the horizon.
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_clocks(ClockConfig::Drifting { rho: 1.4 })
        .with_scheduler(kind);
    let timing = TimingConfig::for_network(1.4, 1.5);
    let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
        .timing(timing)
        .initial_state(InitialState::Arbitrary { seed: seed ^ 99 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);

    // Mid-run faults: the standard chaos process, replayed from the
    // quiescent point.
    let t0 = sim.now().seconds();
    let schedule = FaultProcess::standard()
        .generate(graph, v(0), 120.0, seed)
        .shifted(t0);
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, graph.node_count());
    let report = run_monitored(&mut sim, &schedule, t0 + 100_000.0, &mut monitors);

    let actions: Vec<_> = sim
        .engine()
        .trace()
        .actions
        .iter()
        .map(|r| (r.node, r.time.seconds(), r.name, r.maintenance))
        .collect();
    format!(
        "events={} actions={actions:?} table={:?} stats={:?}",
        report.events,
        sim.route_table(),
        sim.stats()
    )
}

#[test]
fn wheel_matches_heap_under_chaos() {
    for (name, graph) in topologies() {
        for seed in [7, 1303] {
            let wheel = chaos_fingerprint(SchedulerKind::Wheel, &graph, seed);
            let heap = chaos_fingerprint(SchedulerKind::Heap, &graph, seed);
            assert_eq!(
                wheel, heap,
                "wheel and heap diverged on {name} with seed {seed}"
            );
        }
    }
}

/// Runs the congested data-plane scenario: finite links, bounded queues,
/// the given workload, and a mid-run corruption, drained to empty.
/// Returns the fingerprint and the number of events processed.
fn traffic_fingerprint(kind: SchedulerKind, seed: u64, spec: &WorkloadSpec) -> (String, u64) {
    let graph = generators::grid(8, 8, 1);
    let dest = v(0);
    let victim = v(27);
    let duration = 60.0;
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .initial_state(InitialState::Legitimate)
        .engine_config(
            EngineConfig::default()
                .with_seed(seed)
                .with_congestion(CongestionConfig::limited(64.0, 12))
                .with_scheduler(kind),
        )
        .build();
    sim.run_to_quiescence(100_000.0);
    let t0 = sim.now().seconds();
    let mut workload = WorkloadDriver::new(spec, &graph, &[dest], t0, duration, seed);
    workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
    sim.run_until(t0 + duration / 2.0);
    sim.corrupt_distance(victim, Distance::ZERO);
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    loop {
        let drained = !sim.engine().any_enabled_non_maintenance()
            && sim.engine().inflight_messages() == 0
            && sim.engine().packets_in_flight() == 0;
        if drained {
            break;
        }
        let next = sim
            .engine()
            .next_event_time()
            .map_or(sim.now(), |t: SimTime| t);
        sim.run_until(next.seconds() + 50.0);
    }
    let fingerprint = format!(
        "now={:?} traffic={:?} stats={:?} table={:?}",
        sim.now(),
        sim.stats().traffic,
        sim.stats(),
        sim.route_table()
    );
    (fingerprint, sim.stats().total_events())
}

#[test]
fn wheel_matches_heap_under_congested_traffic() {
    // One probe per packet (160 packets/s offered to a destination whose
    // two links carry 128) makes the second run long enough for the wheel
    // to pass many density epochs (4096 pops at the least), so fingerprints
    // are compared across retunes and bucket-count changes, not only on
    // the geometry a queue starts with.
    let aggregated = WorkloadSpec::default();
    let per_packet = WorkloadSpec {
        mode: TrafficMode::Exact,
        rate: 2.5,
        ..aggregated
    };
    for (seed, spec, at_least) in [(3, &aggregated, 0), (91, &per_packet, 100_000)] {
        let (wheel, events) = traffic_fingerprint(SchedulerKind::Wheel, seed, spec);
        let (heap, _) = traffic_fingerprint(SchedulerKind::Heap, seed, spec);
        assert_eq!(wheel, heap, "traffic runs diverged with seed {seed}");
        assert!(events >= at_least, "seed {seed}: only {events} events");
    }
}
