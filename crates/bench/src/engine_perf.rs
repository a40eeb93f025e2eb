//! Raw engine throughput: events/sec and queue pressure of the simulator
//! substrate itself, independent of any paper claim.
//!
//! Two fixed-seed scenarios are measured — the benign cold start on the
//! paper's Fig. 1 topology and a 200-node grid — with a counters-only
//! [`SinkKind::CountsOnly`] sink so trace retention does not dominate the
//! measurement. [`EngineStats`](lsrp_sim::EngineStats) supplies the event totals and the peak
//! queue depth; wall-clock time comes from [`std::time::Instant`].
//!
//! The `perf_smoke` binary runs these scenarios, writes the results to
//! `BENCH_engine.json` at the repository root, and fails if throughput
//! drops below a deliberately generous floor — a regression tripwire, not
//! a precise benchmark (Criterion's `benches/engine.rs` covers timing).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lsrp_analysis::{
    measure_recovery, run_monitored, standard_monitors, WorkloadDriver, WorkloadKind, WorkloadSpec,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::FaultProcess;
use lsrp_graph::{generators, topologies, Distance, Graph, NodeId};
use lsrp_multi::{
    MultiLsrpSimulation, MultiLsrpSimulationExt, ReferenceMultiSimulation,
    ReferenceMultiSimulationExt,
};
use lsrp_sim::{
    CongAlgKind, CongestionConfig, EngineConfig, EventKey, EventQueue, SchedulerKind, SimTime,
    SinkKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed seed every throughput scenario runs under.
pub const PERF_SEED: u64 = 42;

/// Throughput measured for one scenario.
#[derive(Debug, Clone)]
pub struct EnginePerf {
    /// Scenario name (`fig1_benign`, `grid200_benign`).
    pub scenario: &'static str,
    /// Total engine events processed across all iterations.
    pub events: u64,
    /// Messages delivered across all iterations.
    pub messages_delivered: u64,
    /// Protocol adverts delivered across all iterations (equals
    /// `messages_delivered` for single-destination scenarios; larger for
    /// the batched multi-destination plane, where one wire message
    /// carries many adverts).
    pub adverts_delivered: u64,
    /// High-water mark of the event queue over all iterations.
    pub peak_queue_depth: usize,
    /// Wall-clock seconds spent inside the event loop.
    pub elapsed_secs: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Delivered messages per wall-clock second.
    pub deliveries_per_sec: f64,
}

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_seed(PERF_SEED)
        .with_sink(SinkKind::CountsOnly)
}

/// The benign Fig. 1 cold start (14 nodes, fresh state to quiescence).
pub fn fig1_sim() -> LsrpSimulation {
    LsrpSimulation::builder(topologies::paper_fig1(), topologies::FIG1_DESTINATION)
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config())
        .build()
}

/// The 200-node grid cold start (20x10, fresh state to quiescence).
pub fn grid200_sim() -> LsrpSimulation {
    LsrpSimulation::builder(generators::grid(20, 10, 1), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config())
        .build()
}

/// A fully-monitored chaos run: the standard fault process on a 10x10
/// grid judged by [`standard_monitors`], timing only the monitored phase.
/// This is the observation-plane benchmark — it measures the engine *and*
/// the monitors' per-event work, the regime the incremental route view
/// exists for.
///
/// # Panics
///
/// Panics if the schedule-generation plumbing produces an empty run.
pub fn measure_chaos_monitored(iters: u32) -> EnginePerf {
    let graph = generators::grid(10, 10, 1);
    let dest = NodeId::new(0);
    let horizon = 100_000.0;
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for i in 0..iters {
        let seed = PERF_SEED + u64::from(i);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .initial_state(InitialState::Fresh)
            .engine_config(EngineConfig::default().with_seed(seed))
            .build();
        sim.run_to_quiescence(horizon);
        let t0 = sim.now().seconds();
        let schedule = FaultProcess::standard()
            .generate(&graph, dest, 600.0, seed)
            .shifted(t0);
        let timing = *sim.timing();
        let mut monitors = standard_monitors(&timing, graph.node_count());
        let delivered_before = sim.stats().messages_delivered;
        let start = Instant::now();
        let report = run_monitored(&mut sim, &schedule, horizon, &mut monitors);
        elapsed += start.elapsed();
        assert!(report.events > 0, "chaos run must process events");
        events += report.events;
        delivered += sim.stats().messages_delivered - delivered_before;
        peak = peak.max(sim.stats().peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario: "chaos_monitored",
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// A [`measure_recovery`] sweep over corruption sites on a 12x12 grid,
/// timing only the measured recoveries (the flap-counting loop is the
/// historical O(events × N) hotspot).
///
/// # Panics
///
/// Panics if any recovery fails to settle.
pub fn measure_recovery_grid(iters: u32) -> EnginePerf {
    let victims = [5u32, 40, 77, 143];
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for _ in 0..iters {
        for &victim in &victims {
            let mut sim = LsrpSimulation::builder(generators::grid(12, 12, 1), NodeId::new(0))
                .initial_state(InitialState::Legitimate)
                .engine_config(EngineConfig::default().with_seed(PERF_SEED))
                .build();
            let before = sim.stats();
            let perturbed = BTreeSet::from([NodeId::new(victim)]);
            let start = Instant::now();
            let m = measure_recovery(&mut sim, &perturbed, 100_000.0, |s| {
                s.corrupt_distance(NodeId::new(victim), Distance::ZERO);
            });
            elapsed += start.elapsed();
            assert!(m.quiescent, "recovery from v{victim} must settle");
            let stats = sim.stats();
            events += stats.total_events() - before.total_events();
            delivered += stats.messages_delivered - before.messages_delivered;
            peak = peak.max(stats.peak_queue_depth);
        }
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario: "measure_recovery_grid",
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// Runs `build()` to quiescence `iters` times, timing only the event loop,
/// and aggregates events, deliveries and queue pressure.
///
/// # Panics
///
/// Panics if any iteration fails to reach quiescence.
pub fn measure(
    scenario: &'static str,
    iters: u32,
    build: impl Fn() -> LsrpSimulation,
) -> EnginePerf {
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for _ in 0..iters {
        let mut sim = build();
        let start = Instant::now();
        let report = sim.run_to_quiescence(1_000_000.0);
        elapsed += start.elapsed();
        assert!(report.quiescent, "{scenario} must settle");
        let stats = sim.stats();
        events += stats.total_events();
        delivered += stats.messages_delivered;
        peak = peak.max(stats.peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario,
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// The live data plane under recovery: an aggregated Poisson workload
/// (64 flows at 25 pkt/s each over 5 s sampling lanes, ~480k represented
/// packets per iteration) forwards on a 10x10 grid while a mid-run
/// zero-distance corruption recovers. Times workload scheduling plus the
/// event loop; packets hop on the same queue as protocol messages.
///
/// # Panics
///
/// Panics if the run fails to drain both planes.
pub fn measure_traffic_grid(iters: u32) -> EnginePerf {
    let graph = generators::grid(10, 10, 1);
    let dest = NodeId::new(0);
    let victim = NodeId::new(55);
    let duration = 300.0;
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for i in 0..iters {
        let seed = PERF_SEED + u64::from(i);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .initial_state(InitialState::Legitimate)
            .engine_config(
                EngineConfig::default()
                    .with_seed(seed)
                    .with_sink(SinkKind::CountsOnly),
            )
            .build();
        sim.run_to_quiescence(100_000.0);
        let t0 = sim.now().seconds();
        let spec = WorkloadSpec::default();
        let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, duration, seed);
        let before = sim.stats();
        let start = Instant::now();
        workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
        sim.run_until(t0 + duration / 2.0);
        sim.corrupt_distance(victim, Distance::ZERO);
        workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
        // `run_to_quiescence` would settle-skip past queued packet
        // events, so drive in slices until both planes drain.
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
                .expect("undrained planes imply pending events");
            sim.run_until(next.seconds() + 50.0);
        }
        elapsed += start.elapsed();
        let counts = sim.stats().traffic;
        assert!(counts.injected > 0, "workload must inject");
        assert_eq!(
            counts.completed(),
            counts.injected,
            "every packet must complete"
        );
        let stats = sim.stats();
        events += stats.total_events() - before.total_events();
        delivered += stats.messages_delivered - before.messages_delivered;
        peak = peak.max(stats.peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario: "traffic_grid",
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// The congestion lane under recovery: the same 10x10 grid and mid-run
/// corruption as [`measure_traffic_grid`], but with finite-rate links,
/// bounded drop-tail port queues and the workload promoted to Go-Back-N
/// flows under AIMD — so the measured regime includes serialization
/// events, queue drops and retransmission timers, the congestion lane's
/// own event classes.
///
/// # Panics
///
/// Panics if the run fails to drain both planes or loses packets from
/// the conservation ledger.
pub fn measure_traffic_congested(iters: u32) -> EnginePerf {
    let graph = generators::grid(10, 10, 1);
    let dest = NodeId::new(0);
    let victim = NodeId::new(55);
    let duration = 300.0;
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for i in 0..iters {
        let seed = PERF_SEED + u64::from(i);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .initial_state(InitialState::Legitimate)
            .engine_config(
                EngineConfig::default()
                    .with_seed(seed)
                    .with_sink(SinkKind::CountsOnly)
                    .with_congestion(CongestionConfig::limited(400.0, 2_000)),
            )
            .build();
        sim.run_to_quiescence(100_000.0);
        let t0 = sim.now().seconds();
        let spec = WorkloadSpec {
            kind: WorkloadKind::Hotspot,
            ..WorkloadSpec::default()
        };
        let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, duration, seed)
            .with_transport(CongAlgKind::Aimd {
                initial: 4,
                max: 64,
            });
        let before = sim.stats();
        let start = Instant::now();
        workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
        sim.run_until(t0 + duration / 2.0);
        sim.corrupt_distance(victim, Distance::ZERO);
        workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
        loop {
            let drained = !sim.engine().any_enabled_non_maintenance()
                && sim.engine().inflight_messages() == 0
                && sim.engine().packets_in_flight() == 0
                && sim.engine().flows_active() == 0;
            if drained {
                break;
            }
            let next = sim
                .engine()
                .next_event_time()
                .expect("undrained planes imply pending events");
            sim.run_until(next.seconds() + 50.0);
        }
        elapsed += start.elapsed();
        let counts = sim.stats().traffic;
        assert!(counts.injected > 0, "workload must inject");
        assert_eq!(
            counts.completed(),
            counts.injected,
            "every packet must complete"
        );
        let stats = sim.stats();
        events += stats.total_events() - before.total_events();
        delivered += stats.messages_delivered - before.messages_delivered;
        peak = peak.max(stats.peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario: "traffic_congested",
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// The scenario-compiled congested recovery (the E21 shape): parses the
/// checked-in `scenarios/e21_congested_recovery.toml`, expands its sweep
/// through the campaign compiler's lowering, and times the first (p = 1)
/// cell — finite-rate links, bounded drop-tail queues, AIMD Go-Back-N
/// hotspot flows racing a prefix-hijack repair wave. This keeps the
/// declarative path itself on the perf-smoke tripwire: a regression in
/// scenario lowering or in the congested live data plane both trip the
/// floor.
///
/// # Panics
///
/// Panics if the checked-in scenario fails to parse or lower, or if a
/// cell breaks packet conservation.
pub fn measure_traffic_scenario(iters: u32) -> EnginePerf {
    let s = lsrp_scenario::load_str(include_str!(
        "../../../scenarios/e21_congested_recovery.toml"
    ))
    .expect("checked-in scenario file parses");
    let lsrp_scenario::ScenarioBody::Hijack(h) = &s.body else {
        panic!("e21 is a hijack scenario");
    };
    let specs = lsrp_scenario::exec::live_hijack_specs(h).expect("e21 lowers to live cells");
    let spec = specs.first().expect("e21 sweep is non-empty");
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        let out = lsrp_scenario::cells::live_hijack_cell(spec);
        elapsed += start.elapsed();
        assert!(out.summary.counts.injected > 0, "workload must inject");
        events += out.events;
        delivered += out.messages_delivered;
        peak = peak.max(out.peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario: "traffic_scenario",
        events,
        messages_delivered: delivered,
        adverts_delivered: delivered,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// The internet-scale Clos cold start: a `fat_tree(76)` big-switch fabric
/// (116,964 nodes, 329,232 edges, diameter 6) from fresh state to
/// quiescence. The cold-start burst puts hundreds of thousands of timers
/// in flight, and the switches have degree 76: the run exercises the
/// scheduler at depth and guard evaluation at high degree at once.
pub fn scale_bigswitch_sim() -> LsrpSimulation {
    LsrpSimulation::builder(generators::fat_tree(76), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config())
        .build()
}

/// The internet-scale random-graph cold start: a 100,000-node Waxman
/// graph (locality-truncated, patched connected) from fresh state to
/// quiescence. Unlike the Clos fabric this has irregular degree and a
/// large diameter, so the wave of synchronization rounds is long and the
/// event queue's working set keeps shifting buckets.
pub fn scale_waxman_100k_sim() -> LsrpSimulation {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(PERF_SEED);
    let graph = generators::waxman(100_000, 0.001, 1.0, &mut rng);
    LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config())
        .build()
}

/// Worker count for the region-parallel scale scenarios: one per
/// hardware thread, floored at 1 (the determinism guarantee makes the
/// count invisible in every output except wall-clock).
fn par_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// [`scale_bigswitch_sim`] under the region-parallel executor
/// (DESIGN.md §15): 8 regions, one worker per hardware thread.
pub fn scale_bigswitch_par_sim() -> LsrpSimulation {
    LsrpSimulation::builder(generators::fat_tree(76), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config().with_regions(8).with_jobs(par_jobs()))
        .build()
}

/// [`scale_waxman_100k_sim`] under the region-parallel executor —
/// the irregular-degree counterpart of [`scale_bigswitch_par_sim`].
pub fn scale_waxman_100k_par_sim() -> LsrpSimulation {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(PERF_SEED);
    let graph = generators::waxman(100_000, 0.001, 1.0, &mut rng);
    LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config().with_regions(8).with_jobs(par_jobs()))
        .build()
}

/// The all-pairs grid scenario's fixed inputs: a 6x6 unit grid with every
/// node a destination (1296 protocol instances) and a full-table
/// corruption at a central node.
fn allpairs_parts() -> (Graph, Vec<NodeId>, NodeId) {
    let graph = generators::grid(6, 6, 1);
    let dests: Vec<NodeId> = graph.nodes().collect();
    (graph, dests, NodeId::new(14))
}

/// The all-pairs grid scenario on the dense plane: legitimate start,
/// corrupt every instance at the victim, run to quiescence.
pub fn allpairs_grid_sim() -> MultiLsrpSimulation {
    let (graph, dests, victim) = allpairs_parts();
    let mut sim = MultiLsrpSimulation::builder(graph, dests)
        .engine_config(engine_config())
        .build();
    sim.corrupt_all_instances(victim, |d| (Distance::Finite(1), d));
    sim
}

/// The same scenario on the pre-dense reference plane (per-destination
/// wire messages, full guard scans) — the baseline the batching and
/// dirty-scheduling wins are quoted against.
pub fn allpairs_grid_reference_sim() -> ReferenceMultiSimulation {
    let (graph, dests, victim) = allpairs_parts();
    let mut sim = ReferenceMultiSimulation::reference(graph, dests, engine_config());
    sim.corrupt_all_instances(victim, |d| (Distance::Finite(1), d));
    sim
}

fn measure_allpairs<S>(
    scenario: &'static str,
    iters: u32,
    build: impl Fn() -> lsrp_sim::SimHarness<S>,
) -> EnginePerf
where
    S: lsrp_sim::HarnessProtocol,
{
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut adverts = 0u64;
    let mut peak = 0usize;
    let mut elapsed = Duration::ZERO;
    for _ in 0..iters {
        let mut sim = build();
        let start = Instant::now();
        let report = sim.run_to_quiescence(1_000_000.0);
        elapsed += start.elapsed();
        assert!(report.quiescent, "{scenario} must settle");
        let stats = sim.stats();
        events += stats.total_events();
        delivered += stats.messages_delivered;
        adverts += stats.adverts_delivered;
        peak = peak.max(stats.peak_queue_depth);
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    EnginePerf {
        scenario,
        events,
        messages_delivered: delivered,
        adverts_delivered: adverts,
        peak_queue_depth: peak,
        elapsed_secs: secs,
        events_per_sec: events as f64 / secs,
        deliveries_per_sec: delivered as f64 / secs,
    }
}

/// The dense multi-destination plane under full-table corruption on the
/// all-pairs grid (batched adverts, dirty-instance scans).
pub fn measure_allpairs_grid(iters: u32) -> EnginePerf {
    measure_allpairs("allpairs_grid", iters, allpairs_grid_sim)
}

/// The pre-dense baseline of the same scenario (one wire message per
/// advert, O(destinations) scans).
pub fn measure_allpairs_grid_reference(iters: u32) -> EnginePerf {
    measure_allpairs("allpairs_grid_ref", iters, allpairs_grid_reference_sim)
}

/// Scratch file the `trace_overhead` scenario streams into (recreated —
/// truncated — by every traced iteration).
fn trace_scratch_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lsrp-perf-smoke");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!("trace-overhead-{}.jsonl", std::process::id()))
}

/// The trace-overhead workload: a 1000-node grid cold start, the
/// frame-heaviest regime (every action writes `act` + `wave` + `rt`
/// frames). Baseline flavor: a plain [`SinkKind::Null`] sink.
pub fn trace_overhead_null_sim() -> LsrpSimulation {
    LsrpSimulation::builder(generators::grid(40, 25, 1), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(
            EngineConfig::default()
                .with_seed(PERF_SEED)
                .with_sink(SinkKind::Null),
        )
        .build()
}

/// The same workload as [`trace_overhead_null_sim`] with the streaming
/// sink writing full JSONL over the null inner sink — the pair isolates
/// the per-event cost of trace export. `perf_smoke` holds the traced
/// flavor to the absolute floor *and* the difference between the two to
/// [`TRACE_SINK_BUDGET_US`].
pub fn trace_overhead_sim() -> LsrpSimulation {
    let factory = lsrp_trace::streaming_factory(
        lsrp_trace::TraceConfig::new(trace_scratch_path()),
        SinkKind::Null,
    )
    .expect("scratch trace file opens");
    LsrpSimulation::builder(generators::grid(40, 25, 1), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(
            EngineConfig::default()
                .with_seed(PERF_SEED)
                .with_sink(SinkKind::Null)
                .with_sink_factory(factory),
        )
        .build()
}

/// What the streaming sink may add to one event, in µs: the traced
/// flavor's µs/event minus the null flavor's. The cost is a fixed amount
/// of formatting and writing per event — ten back-to-back `perf_smoke`
/// runs on an unremarkable 2-core container read 0.016–0.081 µs, median
/// 0.064 — so it is gated as an amount, at about twice what those runs
/// read. Gated as a fraction of the null baseline (15%) it failed
/// whenever the *engine* got faster: the same ten runs read 5–31%.
pub const TRACE_SINK_BUDGET_US: f64 = 0.15;

/// One timed iteration of one flavor of a pair: `(elapsed, events,
/// deliveries, peak queue depth)`.
type PairedRun = (Duration, u64, u64, usize);

/// One iteration of a cold-start flavor: builds the simulation, then
/// times its run to quiescence.
///
/// # Panics
///
/// Panics if the run fails to settle.
fn cold_start(scenario: &str, build: impl Fn() -> LsrpSimulation) -> PairedRun {
    let mut sim = build();
    let start = Instant::now();
    let report = sim.run_to_quiescence(1_000_000.0);
    let dt = start.elapsed();
    assert!(report.quiescent, "{scenario} must settle");
    let stats = sim.stats();
    (
        dt,
        stats.total_events(),
        stats.messages_delivered,
        stats.peak_queue_depth,
    )
}

/// Interleaved paired measurement of two flavors of one workload. The two
/// alternate iteration by iteration (so clock drift and neighbor load
/// hit both equally) and each flavor's elapsed time is its *minimum*
/// iteration time scaled to the iteration count — noise only ever adds
/// time, so the minimum is the robust throughput estimate and the ratio
/// between the flavors stays stable on busy CI runners.
fn measure_paired(
    iters: u32,
    a: (&'static str, &dyn Fn() -> PairedRun),
    b: (&'static str, &dyn Fn() -> PairedRun),
) -> (EnginePerf, EnginePerf) {
    let acc = |scenario: &'static str, runs: &[PairedRun]| {
        let events: u64 = runs.iter().map(|r| r.1).sum();
        let delivered: u64 = runs.iter().map(|r| r.2).sum();
        let peak = runs.iter().map(|r| r.3).max().unwrap_or(0);
        let min = runs.iter().map(|r| r.0).min().unwrap_or(Duration::ZERO);
        let secs = (min.as_secs_f64() * f64::from(runs.len() as u32)).max(f64::MIN_POSITIVE);
        EnginePerf {
            scenario,
            events,
            messages_delivered: delivered,
            adverts_delivered: delivered,
            peak_queue_depth: peak,
            elapsed_secs: secs,
            events_per_sec: events as f64 / secs,
            deliveries_per_sec: delivered as f64 / secs,
        }
    };
    let mut a_runs = Vec::new();
    let mut b_runs = Vec::new();
    for _ in 0..iters {
        a_runs.push(a.1());
        b_runs.push(b.1());
    }
    (acc(a.0, &a_runs), acc(b.0, &b_runs))
}

/// The trace-overhead pair (`trace_overhead_null`, `trace_overhead`),
/// measured by [`measure_paired`].
///
/// # Panics
///
/// Panics if an iteration fails to settle.
pub fn measure_trace_overhead(iters: u32) -> (EnginePerf, EnginePerf) {
    let (null, traced) = ("trace_overhead_null", "trace_overhead");
    measure_paired(
        iters,
        (null, &|| cold_start(null, trace_overhead_null_sim)),
        (traced, &|| cold_start(traced, trace_overhead_sim)),
    )
}

/// A cold start on the complete graph `K_n`: every node has degree
/// `n - 1`, so the per-event cost isolates what guard evaluation pays per
/// neighbor.
fn complete_sim(n: u32) -> LsrpSimulation {
    LsrpSimulation::builder(generators::complete(n, 1), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(engine_config())
        .build()
}

/// How many times the per-event cost may grow from degree 24 to degree
/// 199 (an 8.3× wider neighbor table). A guard that rescans the table per
/// neighbor measured ≈ 9.5× before the single-pass evaluator; one
/// `O(deg)` pass per evaluation measures 3.6–3.8× — the A/A spread of ten
/// back-to-back `perf_smoke` runs on an unremarkable 2-core container
/// with both sides at ≈ 60 ms per iteration (1.41–1.56 µs against
/// 0.39–0.41 µs per event), all ten under the budget.
pub const DEGREE_SWEEP_MAX_RATIO: f64 = 4.0;

/// Cold starts of `complete(25)` per iteration of the narrow side: one is
/// 600 events in ≈ 0.24 ms, too short for a minimum over five to mean
/// anything against the wide side's ≈ 57 ms — read that way the ratio
/// swung 3.2–4.5× on unchanged code. 250 make the iteration ≈ 60 ms.
const DEGREE_SWEEP_NARROW_REPEATS: u32 = 250;

/// The degree-sweep pair (`degree_sweep_25`, `degree_sweep_200`): cold
/// starts on `complete(25)` and `complete(200)`, measured by
/// [`measure_paired`]. `perf_smoke` holds the ratio of their µs/event to
/// [`DEGREE_SWEEP_MAX_RATIO`] — per-event cost tracks node *degree*, not
/// node count or queue depth, and this pair is the name for a regression
/// of that class. It sees the `O(deg)` scan only: a complete graph with
/// unit weights never ties two offers, so at most one `S2(k)` is enabled
/// at a time and the cost of fingerprinting and tracking *many* enabled
/// guards — what a Clos fabric's equal-cost uplinks create — does not
/// show here (the benchmark's `clos_cold` is the name for that).
///
/// # Panics
///
/// Panics if an iteration fails to settle.
pub fn measure_degree_sweep(iters: u32) -> (EnginePerf, EnginePerf) {
    let (narrow, wide) = ("degree_sweep_25", "degree_sweep_200");
    let narrow_runs = || {
        let runs =
            (0..DEGREE_SWEEP_NARROW_REPEATS).map(|_| cold_start(narrow, || complete_sim(25)));
        runs.reduce(|a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3.max(b.3)))
            .expect("at least one repeat")
    };
    measure_paired(
        iters,
        (narrow, &narrow_runs),
        (wide, &|| cold_start(wide, || complete_sim(200))),
    )
}

/// How many times longer the fault process may take to plan the same
/// markers on a 64×64 grid than on a 16×16 one. Nodes grow 16×, a
/// partition's region and cut grow with them and the emitted faults grow
/// ≈ 3×; the indexed model measures ≈ 4×, where collecting every
/// candidate per marker measured ≈ 45× and climbing with the marker count.
pub const FAULTS_GENERATE_MAX_RATIO: f64 = 20.0;

/// Iterations of each side of the `faults_generate` pair.
pub const FAULTS_GENERATE_ITERS: u32 = 5;

/// One timed `FaultProcess::generate` of 10,000 markers in the benchmark's
/// `chaos_observed` mix (3:2:1:3:1, ten markers per 1,000 s) on a
/// `width`×`width` grid; one emitted fault counts as one "event".
fn faults_generate(width: u32) -> PairedRun {
    let graph = generators::grid(width, width, 1);
    let process = FaultProcess {
        link_flaps: 3_000,
        node_churn: 2_000,
        partitions: 1_000,
        corruptions: 3_000,
        weight_drifts: 1_000,
        ..FaultProcess::standard()
    };
    let start = Instant::now();
    let schedule = process.generate(&graph, NodeId::new(0), 1_000_000.0, PERF_SEED);
    let dt = start.elapsed();
    let faults = std::hint::black_box(schedule).len() as u64;
    (dt, faults, 0, 0)
}

/// The chaos set-up pair (`faults_generate_16`, `faults_generate_64`),
/// measured by `measure_paired`. `perf_smoke` holds the ratio of their
/// times to [`FAULTS_GENERATE_MAX_RATIO`]: planning a marker must not cost
/// a pass over the topology.
pub fn measure_faults_generate(iters: u32) -> (EnginePerf, EnginePerf) {
    let (small, large) = ("faults_generate_16", "faults_generate_64");
    measure_paired(
        iters,
        (small, &|| faults_generate(16)),
        (large, &|| faults_generate(64)),
    )
}

/// The hold-model pairs: queue depth, the wheel's and the heap's scenario
/// names, and how many times faster than the heap the wheel must run.
///
/// The floors sit under what an unremarkable 2-core container measures:
/// 1.14–1.45× at depth 1 000 (this loop reads 40–53 ns on the wheel
/// depending on the crate it is compiled into), where the whole heap
/// lives in the L1 cache and costs ≈ 57–64 ns a hold, and 2.0–2.3× at
/// depth 300 000, where its sift paths leave the cache. The three-tier wheel this one replaced
/// measured ≈ 0.9× and ≈ 1.0× against a heap that still paid for
/// tombstones (≈ 83 ns at depth 1 000).
pub const SCHED_HOLD_PAIRS: [(u64, &str, &str, f64); 2] = [
    (1_000, "sched_hold_wheel_1k", "sched_hold_heap_1k", 1.05),
    (
        300_000,
        "sched_hold_wheel_300k",
        "sched_hold_heap_300k",
        1.5,
    ),
];

/// The classic hold model on the engine's event queue: fill it to
/// `depth`, then time `holds` rounds of popping the earliest event and
/// scheduling one a random increment (mean `depth`) later, so the depth
/// stays put and the pending times spread one per simulated second.
fn sched_hold(kind: SchedulerKind, depth: u64, holds: u64) -> PairedRun {
    let mut rng = StdRng::seed_from_u64(PERF_SEED);
    let mut queue: EventQueue<u64> = EventQueue::new(kind);
    let mut k = 0u64;
    let mut increment = || rng.gen_range(0.0..2.0 * depth as f64);
    for _ in 0..depth {
        queue.schedule(SimTime::new(increment()), EventKey::driver(k), k);
        k += 1;
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..holds {
        let (t, _, item) = queue.pop().expect("the queue holds `depth` events");
        sum = sum.wrapping_add(item);
        queue.schedule(t + increment(), EventKey::driver(k), k);
        k += 1;
    }
    std::hint::black_box(sum);
    (start.elapsed(), holds, 0, depth as usize)
}

/// The scheduler pairs of [`SCHED_HOLD_PAIRS`], measured by
/// [`measure_paired`] with one hold as one "event". `perf_smoke` holds
/// the wheel to each pair's floor: the calendar queue has to keep earning
/// its code over the `BinaryHeap` it is checked against.
pub fn measure_sched_hold(iters: u32) -> Vec<EnginePerf> {
    let mut results = Vec::new();
    for (depth, wheel, heap, _) in SCHED_HOLD_PAIRS {
        let (w, h) = measure_paired(
            iters,
            (wheel, &|| sched_hold(SchedulerKind::Wheel, depth, 400_000)),
            (heap, &|| sched_hold(SchedulerKind::Heap, depth, 400_000)),
        );
        results.extend([w, h]);
    }
    results
}

/// The cheap scenarios — each sized for a sub-second release-mode run
/// (the unit tests exercise this list in debug mode, so the 100k-node
/// scale scenarios live only in [`measure_all`]).
fn measure_core() -> Vec<EnginePerf> {
    let (trace_null, trace_streaming) = measure_trace_overhead(20);
    vec![
        measure("fig1_benign", 20, fig1_sim),
        measure("grid200_benign", 3, grid200_sim),
        measure_chaos_monitored(4),
        measure_recovery_grid(6),
        measure_traffic_grid(3),
        measure_traffic_congested(2),
        measure_traffic_scenario(2),
        measure_allpairs_grid(3),
        measure_allpairs_grid_reference(1),
        trace_null,
        trace_streaming,
    ]
}

/// Runs every throughput scenario with iteration counts sized for a
/// smoke run: the sub-second core list plus the two internet-scale
/// cold starts (single-iteration; a few seconds each in release mode).
pub fn measure_all() -> Vec<EnginePerf> {
    let mut results = measure_core();
    let (deg25, deg200) = measure_degree_sweep(5);
    results.extend([deg25, deg200]);
    results.extend(measure_sched_hold(5));
    let (gen16, gen64) = measure_faults_generate(FAULTS_GENERATE_ITERS);
    results.extend([gen16, gen64]);
    results.push(measure("scale_bigswitch", 1, scale_bigswitch_sim));
    results.push(measure("scale_bigswitch_par", 1, scale_bigswitch_par_sim));
    results.push(measure("scale_waxman_100k", 1, scale_waxman_100k_sim));
    results.push(measure(
        "scale_waxman_100k_par",
        1,
        scale_waxman_100k_par_sim,
    ));
    results
}

/// The events/sec floor every scenario must clear in the perf smoke —
/// deliberately generous (an order of magnitude under the measured
/// throughput on an unremarkable container) so only real regressions
/// trip it, never machine noise.
///
/// One floor for all: `scale_bigswitch` used to carry its own 5,000
/// ev/s floor, explained by "engine bookkeeping over the 325k-deep
/// queue". That diagnosis was wrong — per-event cost tracked node
/// *degree* (a degree-quadratic guard scan in `crates/core`), not queue
/// depth — and with the single-pass evaluator the Clos cold start clears
/// the common floor like everything else. The degree dependence is now
/// gated directly, by [`measure_degree_sweep`].
pub const EVENTS_PER_SEC_FLOOR: f64 = 20_000.0;

/// Renders the measurements as the `BENCH_engine.json` document.
#[must_use]
pub fn to_json(results: &[EnginePerf]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"engine\",");
    let _ = writeln!(out, "  \"seed\": {PERF_SEED},");
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"name\": \"{}\", \"events\": {}, \"messages_delivered\": {}, \
             \"adverts_delivered\": {}, \
             \"peak_queue_depth\": {}, \"elapsed_secs\": {:.6}, \
             \"events_per_sec\": {:.1}, \"deliveries_per_sec\": {:.1}, \
             \"events_per_sec_floor\": {:.1}",
            r.scenario,
            r.events,
            r.messages_delivered,
            r.adverts_delivered,
            r.peak_queue_depth,
            r.elapsed_secs,
            r.events_per_sec,
            r.deliveries_per_sec,
            EVENTS_PER_SEC_FLOOR,
        );
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_settle_and_count_events() {
        let r = measure("fig1_benign", 2, fig1_sim);
        assert!(r.events > 0);
        assert!(r.messages_delivered > 0);
        assert!(r.peak_queue_depth > 0);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn event_totals_are_seed_deterministic() {
        let a = measure("grid200_benign", 1, grid200_sim);
        let b = measure("grid200_benign", 1, grid200_sim);
        assert_eq!(a.events, b.events);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let doc = to_json(&measure_core());
        assert!(doc.starts_with("{\n"));
        assert!(doc.ends_with("}\n"));
        assert!(doc.contains("\"fig1_benign\""));
        assert!(doc.contains("\"grid200_benign\""));
        assert!(doc.contains("\"traffic_grid\""));
        assert!(doc.contains("\"traffic_congested\""));
        assert!(doc.contains("\"traffic_scenario\""));
        assert!(doc.contains("\"allpairs_grid\""));
        assert!(doc.contains("\"allpairs_grid_ref\""));
        assert!(doc.contains("\"peak_queue_depth\""));
        assert!(doc.contains("\"adverts_delivered\""));
        assert!(doc.contains("\"events_per_sec_floor\": 20000.0"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn batching_beats_the_per_destination_baseline() {
        let dense = measure_allpairs_grid(1);
        let baseline = measure_allpairs_grid_reference(1);
        // Identical protocol work on both planes: one advert per wire
        // message on the baseline, many per message on the dense plane.
        assert_eq!(
            baseline.adverts_delivered, baseline.messages_delivered,
            "baseline carries one advert per message"
        );
        assert!(
            dense.messages_delivered < baseline.messages_delivered,
            "batching must reduce delivered messages ({} vs {})",
            dense.messages_delivered,
            baseline.messages_delivered
        );
        assert!(dense.adverts_delivered > dense.messages_delivered);
    }
}
