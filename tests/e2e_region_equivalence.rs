//! Region-parallel equivalence: the region-partitioned executor must be
//! observationally *byte-identical* to the sequential engine.
//!
//! The engine executes regions concurrently inside conservative time
//! windows and merges cross-region effects and observability at window
//! barriers in canonical `(time, key)` order, so a seeded run — trace,
//! RNG draws, final tables, statistics — cannot depend on the region
//! count or the worker-thread count. These tests pin that across the same
//! cartesian slice as the scheduler-equivalence suite (topology shapes ×
//! seeds × chaos fault schedules × congested data-plane traffic), for
//! regions ∈ {1, 2, 4, 8} under varying `jobs`, including PFC pause,
//! whose zero lookahead makes every window a single event. Every engine
//! statistic participates — `peak_queue_depth` is sampled only at
//! region-invariant points (public `step()` calls and driver mutations),
//! so it too must match the sequential engine exactly.

use lsrp::analysis::{run_monitored, standard_monitors, WorkloadDriver, WorkloadSpec};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::faults::FaultProcess;
use lsrp::graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{
    ClockConfig, CongestionConfig, DisciplineKind, EngineConfig, EngineStats, LinkConfig, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// The `(regions, jobs)` matrix compared against the sequential baseline:
/// every region count the acceptance bar names, exercised both inline and
/// fanned out over worker threads.
const MATRIX: [(usize, usize); 6] = [(1, 4), (2, 1), (2, 2), (4, 1), (4, 4), (8, 3)];

/// The topologies under test: a mesh, a data-center Clos, and a
/// power-law internet-like graph.
fn topologies() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(42);
    vec![
        ("grid6x6", generators::grid(6, 6, 1)),
        ("fattree4", generators::fat_tree(4)),
        ("ba60", generators::barabasi_albert(60, 2, &mut rng)),
    ]
}

/// Region-invariant statistics view — the full `EngineStats`, including
/// the event-queue high-water mark.
fn stats_fingerprint(stats: EngineStats) -> String {
    format!("{stats:?}")
}

/// Runs a chaotic control-plane scenario with the given region/job split
/// and returns the full observable fingerprint: every action record, the
/// final route table, and the (region-invariant) engine statistics.
fn chaos_fingerprint(regions: usize, jobs: usize, graph: &Graph, seed: u64) -> String {
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_clocks(ClockConfig::Drifting { rho: 1.4 })
        .with_regions(regions)
        .with_jobs(jobs);
    let timing = TimingConfig::for_network(1.4, 1.5);
    let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
        .timing(timing)
        .initial_state(InitialState::Arbitrary { seed: seed ^ 99 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);

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
        "events={} actions={actions:?} table={:?} stats={}",
        report.events,
        sim.route_table(),
        stats_fingerprint(sim.stats())
    )
}

#[test]
fn regions_match_sequential_under_chaos() {
    for (name, graph) in topologies() {
        let seed = 7;
        let baseline = chaos_fingerprint(1, 1, &graph, seed);
        for (regions, jobs) in MATRIX {
            let par = chaos_fingerprint(regions, jobs, &graph, seed);
            assert_eq!(
                par, baseline,
                "regions={regions} jobs={jobs} diverged from sequential on {name}"
            );
        }
    }
}

/// Runs the congested data-plane scenario — finite links, bounded
/// queues, an aggregated workload, a mid-run corruption — drained to
/// empty, under the given discipline and region/job split.
fn traffic_fingerprint(
    regions: usize,
    jobs: usize,
    discipline: DisciplineKind,
    seed: u64,
) -> String {
    let graph = generators::grid(8, 8, 1);
    let dest = v(0);
    let victim = v(27);
    let duration = 60.0;
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .initial_state(InitialState::Legitimate)
        .engine_config(
            EngineConfig::default()
                .with_seed(seed)
                .with_congestion(CongestionConfig::limited(64.0, 12).with_discipline(discipline))
                .with_regions(regions)
                .with_jobs(jobs),
        )
        .build();
    sim.run_to_quiescence(100_000.0);
    let t0 = sim.now().seconds();
    let spec = WorkloadSpec::default();
    let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, duration, seed);
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
    format!(
        "now={:?} traffic={:?} stats={} table={:?}",
        sim.now(),
        sim.stats().traffic,
        stats_fingerprint(sim.stats()),
        sim.route_table()
    )
}

#[test]
fn regions_match_sequential_under_congested_traffic() {
    let seed = 3;
    let baseline = traffic_fingerprint(1, 1, DisciplineKind::DropTail, seed);
    for (regions, jobs) in MATRIX {
        let par = traffic_fingerprint(regions, jobs, DisciplineKind::DropTail, seed);
        assert_eq!(
            par, baseline,
            "regions={regions} jobs={jobs} diverged on congested traffic"
        );
    }
}

#[test]
fn pause_discipline_lockstep_fallback_matches_sequential() {
    // PFC pause writes the upstream port with zero delay, so with
    // regions > 1 the engine's lookahead is zero and every window holds
    // one event; that must still be byte-identical.
    let seed = 91;
    let discipline = DisciplineKind::Pause {
        pause_at: 0.6,
        quantum: 1.5,
    };
    let baseline = traffic_fingerprint(1, 1, discipline, seed);
    for (regions, jobs) in [(2, 2), (4, 4)] {
        let par = traffic_fingerprint(regions, jobs, discipline, seed);
        assert_eq!(
            par, baseline,
            "regions={regions} jobs={jobs} diverged under PFC lockstep"
        );
    }
}
