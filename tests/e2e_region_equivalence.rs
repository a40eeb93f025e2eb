//! Region-parallel equivalence: the region-partitioned executor must be
//! observationally *byte-identical* to the sequential engine.
//!
//! The engine executes regions concurrently inside conservative time
//! windows and merges cross-region effects and observability at window
//! barriers in canonical `(time, key)` order, so a seeded run — trace,
//! RNG draws, final tables, statistics — cannot depend on the region
//! count or the worker-thread count. These tests pin that across the same
//! cartesian slice as the trajectory goldens (topology shapes × seeds ×
//! chaos fault schedules × congested data-plane traffic), for regions ∈
//! {1, 2, 4, 8} under varying `jobs`, plus two configurations the engine
//! shrinks: PFC pause, whose zero-delay upstream write makes it run as
//! one region, and more regions than nodes. Every engine statistic
//! participates — `peak_queue_depth` is sampled only at
//! region-invariant points (public `step()` calls and driver mutations),
//! so it too must match the sequential engine exactly.

use lsrp::analysis::{run_monitored, standard_monitors, WorkloadDriver, WorkloadSpec};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::faults::FaultProcess;
use lsrp::graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{
    ClockConfig, CongAlgKind, CongestionConfig, DisciplineKind, EngineConfig, EngineStats,
    LinkConfig, SimTime,
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
/// and returns the full observable fingerprint — every action record, the
/// final route table, and the (region-invariant) engine statistics — and
/// the number of regions the engine built.
fn chaos_fingerprint(regions: usize, jobs: usize, graph: &Graph, seed: u64) -> (String, usize) {
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
    let fingerprint = format!(
        "events={} actions={actions:?} table={:?} stats={}",
        report.events,
        sim.route_table(),
        stats_fingerprint(sim.stats())
    );
    (fingerprint, sim.engine().regions())
}

#[test]
fn regions_match_sequential_under_chaos() {
    for (name, graph) in topologies() {
        let seed = 7;
        let (baseline, _) = chaos_fingerprint(1, 1, &graph, seed);
        for (regions, jobs) in MATRIX {
            let (par, _) = chaos_fingerprint(regions, jobs, &graph, seed);
            assert_eq!(
                par, baseline,
                "regions={regions} jobs={jobs} diverged from sequential on {name}"
            );
        }
    }
}

#[test]
fn regions_are_capped_at_the_node_count() {
    // 64 regions asked of 16 nodes: the engine builds at most one region
    // per node, and the run still matches the sequential one.
    let graph = generators::grid(4, 4, 1);
    let seed = 7;
    let (baseline, _) = chaos_fingerprint(1, 1, &graph, seed);
    let (par, built) = chaos_fingerprint(64, 2, &graph, seed);
    assert!(built <= 16, "64 regions asked of 16 nodes built {built}");
    assert_eq!(
        par, baseline,
        "64 regions on grid4x4 diverged from sequential"
    );
}

/// Runs the congested data-plane scenario — finite links, bounded
/// queues, an aggregated workload (Go-Back-N flows under `transport`
/// when given, probes otherwise), a mid-run corruption — drained to
/// empty, under the given discipline and region/job split. Returns the
/// fingerprint and the simulation, for the regions its engine built and
/// its statistics.
fn traffic_fingerprint(
    regions: usize,
    jobs: usize,
    discipline: DisciplineKind,
    transport: Option<CongAlgKind>,
    seed: u64,
) -> (String, LsrpSimulation) {
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
    let mut spec = WorkloadSpec::default();
    if transport.is_some() {
        // Weight-5 segments fit the 12-packet queues, so every flow can
        // finish.
        spec.flows = 16;
        spec.rate = 1.0;
    }
    let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, duration, seed);
    if let Some(cc) = transport {
        workload = workload.with_transport(cc);
    }
    workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
    sim.run_until(t0 + duration / 2.0);
    sim.corrupt_distance(victim, Distance::ZERO);
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    while !sim.engine().drained() {
        assert!(sim.now().seconds() < t0 + 1e5, "traffic never drained");
        let next = sim
            .engine()
            .next_event_time()
            .map_or(sim.now(), |t: SimTime| t);
        sim.run_until(next.seconds() + 50.0);
    }
    let fingerprint = format!(
        "now={:?} traffic={:?} stats={} table={:?}",
        sim.now(),
        sim.stats().traffic,
        stats_fingerprint(sim.stats()),
        sim.route_table()
    );
    (fingerprint, sim)
}

#[test]
fn regions_match_sequential_under_congested_traffic() {
    let seed = 3;
    let (baseline, _) = traffic_fingerprint(1, 1, DisciplineKind::DropTail, None, seed);
    for (regions, jobs) in MATRIX {
        let (par, _) = traffic_fingerprint(regions, jobs, DisciplineKind::DropTail, None, seed);
        assert_eq!(
            par, baseline,
            "regions={regions} jobs={jobs} diverged on congested traffic"
        );
    }
    // ECN marks echoed on Go-Back-N ACKs that an AIMD window answers:
    // marked packets and flow ACKs cross region boundaries.
    let ecn = DisciplineKind::Ecn { mark_at: 0.5 };
    let aimd = Some(CongAlgKind::Aimd {
        initial: 4,
        max: 32,
    });
    let (baseline, sim) = traffic_fingerprint(1, 1, ecn, aimd, seed);
    let congestion = sim.stats().congestion;
    assert!(congestion.ecn_marks > 0, "no packet was marked");
    assert!(congestion.flow_acked_weight > 0, "no flow was acknowledged");
    for (regions, jobs) in MATRIX {
        let (par, _) = traffic_fingerprint(regions, jobs, ecn, aimd, seed);
        assert_eq!(
            par, baseline,
            "regions={regions} jobs={jobs} diverged under ECN with AIMD flows"
        );
    }
}

#[test]
fn pause_discipline_lockstep_fallback_matches_sequential() {
    // PFC pause writes the upstream port with zero delay, an effect no
    // lookahead window can hold across regions, so the engine runs it as
    // one region whatever it is asked for; that must still be
    // byte-identical.
    let seed = 91;
    let discipline = DisciplineKind::Pause {
        pause_at: 0.6,
        quantum: 1.5,
    };
    let (baseline, _) = traffic_fingerprint(1, 1, discipline, None, seed);
    for (regions, jobs) in [(2, 2), (4, 4)] {
        let (par, sim) = traffic_fingerprint(regions, jobs, discipline, None, seed);
        let built = sim.engine().regions();
        assert_eq!(built, 1, "regions={regions}: pause built {built} regions");
        assert_eq!(
            par, baseline,
            "regions={regions} jobs={jobs} diverged under PFC pause"
        );
    }
}
