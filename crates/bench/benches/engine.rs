//! Raw engine benchmarks: event and delivery throughput of the simulator
//! substrate (independent of any paper claim; useful for tracking
//! regressions).
//!
//! The timed scenarios are the same fixed-seed builds the `perf_smoke`
//! binary measures (`lsrp_bench::engine_perf`): the benign Fig. 1 cold
//! start and a 200-node grid, both with a counters-only sink.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lsrp_analysis::{run_monitored, standard_monitors, WorkloadDriver, WorkloadSpec};
use lsrp_bench::engine_perf::{
    allpairs_grid_reference_sim, allpairs_grid_sim, fig1_sim, grid200_sim, PERF_SEED,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::FaultProcess;
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::EngineConfig;

fn bench_delivery_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_delivery_throughput");
    g.sample_size(10);
    for (name, build) in [
        ("fig1_benign", fig1_sim as fn() -> LsrpSimulation),
        ("grid200_benign", grid200_sim),
    ] {
        // Calibrate throughput to the scenario's deterministic delivery
        // count, so Criterion reports deliveries/sec.
        let mut probe = build();
        assert!(probe.run_to_quiescence(1_000_000.0).quiescent);
        let deliveries = probe.stats().messages_delivered;
        g.throughput(Throughput::Elements(deliveries));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = build();
                let report = sim.run_to_quiescence(1_000_000.0);
                assert!(report.quiescent);
                std::hint::black_box(sim.stats().messages_delivered)
            })
        });
    }
    g.finish();
}

fn bench_cold_start(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_cold_start");
    g.sample_size(10);
    for w in [8u32, 16] {
        let n = u64::from(w * w);
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("lsrp_grid", w), &w, |b, &w| {
            b.iter(|| {
                let mut sim = LsrpSimulation::builder(generators::grid(w, w, 1), NodeId::new(0))
                    .initial_state(InitialState::Fresh)
                    .build();
                let report = sim.run_to_quiescence(1_000_000.0);
                assert!(report.quiescent);
                std::hint::black_box(report.events)
            })
        });
    }
    g.finish();
}

fn bench_event_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_event_rate");
    g.sample_size(10);
    g.bench_function("fresh_grid12_events", |b| {
        b.iter(|| {
            let mut sim = LsrpSimulation::builder(generators::grid(12, 12, 1), NodeId::new(0))
                .initial_state(InitialState::Fresh)
                .build();
            let mut n = 0u64;
            while sim.engine_mut().step().is_some() {
                n += 1;
            }
            std::hint::black_box(n)
        })
    });
    g.finish();
}

fn bench_monitored_chaos(c: &mut Criterion) {
    // The observation-plane benchmark: a fully-monitored chaos run on a
    // 10x10 grid (the perf_smoke `chaos_monitored` scenario), timing the
    // engine *and* the standard monitors' per-event work.
    let graph = generators::grid(10, 10, 1);
    let dest = NodeId::new(0);
    let horizon = 100_000.0;
    // Calibrate throughput from one probe run (seed-deterministic).
    let setup = || {
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .initial_state(InitialState::Fresh)
            .engine_config(EngineConfig::default().with_seed(PERF_SEED))
            .build();
        sim.run_to_quiescence(horizon);
        let t0 = sim.now().seconds();
        let schedule = FaultProcess::standard()
            .generate(&graph, dest, 600.0, PERF_SEED)
            .shifted(t0);
        (sim, schedule)
    };
    let (mut probe_sim, probe_schedule) = setup();
    let timing = *probe_sim.timing();
    let mut probe_monitors = standard_monitors(&timing, graph.node_count());
    let probe = run_monitored(
        &mut probe_sim,
        &probe_schedule,
        horizon,
        &mut probe_monitors,
    );

    let mut g = c.benchmark_group("engine_monitored_chaos");
    g.sample_size(10);
    g.throughput(Throughput::Elements(probe.events));
    g.bench_function("grid100_standard_monitors", |b| {
        b.iter(|| {
            let (mut sim, schedule) = setup();
            let mut monitors = standard_monitors(&timing, graph.node_count());
            let report = run_monitored(&mut sim, &schedule, horizon, &mut monitors);
            assert_eq!(report.events, probe.events, "chaos runs are seed-pinned");
            std::hint::black_box(report.violations.len())
        })
    });
    g.finish();
}

fn bench_allpairs_grid(c: &mut Criterion) {
    // The multi-destination plane benchmark: full-table corruption at one
    // node of an all-pairs 6x6 grid (1296 instances), dense plane vs the
    // pre-dense reference. Throughput is calibrated to delivered protocol
    // adverts so the two are comparable despite batching.
    let mut g = c.benchmark_group("engine_allpairs_grid");
    g.sample_size(10);

    let mut probe = allpairs_grid_sim();
    assert!(probe.run_to_quiescence(1_000_000.0).quiescent);
    let dense_adverts = probe.stats().adverts_delivered;
    g.throughput(Throughput::Elements(dense_adverts));
    g.bench_function("dense_batched", |b| {
        b.iter(|| {
            let mut sim = allpairs_grid_sim();
            let report = sim.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent);
            assert_eq!(
                sim.stats().adverts_delivered,
                dense_adverts,
                "allpairs runs are seed-pinned"
            );
            std::hint::black_box(sim.stats().messages_delivered)
        })
    });

    let mut probe = allpairs_grid_reference_sim();
    assert!(probe.run_to_quiescence(1_000_000.0).quiescent);
    let ref_adverts = probe.stats().adverts_delivered;
    g.throughput(Throughput::Elements(ref_adverts));
    g.bench_function("reference_unbatched", |b| {
        b.iter(|| {
            let mut sim = allpairs_grid_reference_sim();
            let report = sim.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent);
            assert_eq!(
                sim.stats().adverts_delivered,
                ref_adverts,
                "allpairs runs are seed-pinned"
            );
            std::hint::black_box(sim.stats().messages_delivered)
        })
    });
    g.finish();
}

fn bench_traffic_grid(c: &mut Criterion) {
    // The live data-plane benchmark: the perf_smoke `traffic_grid`
    // scenario — an aggregated Poisson workload forwarding on a 10x10
    // grid while a mid-run corruption recovers. Throughput is calibrated
    // to the packets the weighted probes represent.
    let graph = generators::grid(10, 10, 1);
    let dest = NodeId::new(0);
    let victim = NodeId::new(55);
    let duration = 300.0;
    let run = |graph: &lsrp_graph::Graph| {
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .initial_state(InitialState::Legitimate)
            .engine_config(EngineConfig::default().with_seed(PERF_SEED))
            .build();
        sim.run_to_quiescence(100_000.0);
        let t0 = sim.now().seconds();
        let spec = WorkloadSpec::default();
        let mut workload = WorkloadDriver::new(&spec, graph, &[dest], t0, duration, PERF_SEED);
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
                .expect("undrained planes imply pending events");
            sim.run_until(next.seconds() + 50.0);
        }
        sim.stats().traffic
    };

    let probe = run(&graph);
    assert_eq!(probe.completed(), probe.injected, "packets must drain");

    let mut g = c.benchmark_group("engine_traffic_grid");
    g.sample_size(10);
    g.throughput(Throughput::Elements(probe.injected));
    g.bench_function("grid100_aggregated_workload", |b| {
        b.iter(|| {
            let counts = run(&graph);
            assert_eq!(counts.injected, probe.injected, "runs are seed-pinned");
            std::hint::black_box(counts.delivered)
        })
    });
    g.finish();
}

fn bench_wakeup_scheduler(c: &mut Criterion) {
    // Guards the multi-instance wakeup scheduler's bulk re-arm path: a
    // neighbor change marks every instance dirty, and the next guard
    // evaluation recomputes all of them and re-arms their clock wakeups
    // in one batch (rebuilding the heap instead of N push/sift rounds).
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use lsrp_core::{LsrpState, TimingConfig};
    use lsrp_multi::{DestTable, MultiLsrpNode};
    use lsrp_sim::{Effects, EnabledSet, ProtocolNode};

    const DESTS: u32 = 256;
    let id = NodeId::new(0);
    let neighbors = BTreeMap::from([(NodeId::new(1), 1u64), (NodeId::new(2), 1u64)]);
    let dests = DestTable::new((0..DESTS).map(NodeId::new));
    let build = || {
        MultiLsrpNode::new(
            id,
            TimingConfig::paper_example(1.0),
            Arc::clone(&dests),
            (0..DESTS).map(|d| LsrpState::fresh(id, NodeId::new(d), neighbors.clone())),
        )
    };

    let mut g = c.benchmark_group("multi_wakeup_scheduler");
    g.throughput(Throughput::Elements(u64::from(DESTS)));
    g.bench_function("mark_all_dirty_then_evaluate_256", |b| {
        let mut node = build();
        let mut set = EnabledSet::none();
        let mut now = 0.0;
        b.iter(|| {
            let mut fx = Effects::detached();
            node.on_neighbors_changed(&neighbors, now, &mut fx);
            node.enabled_actions_into(now, &mut set);
            now += 1.0;
            std::hint::black_box(set.actions.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_delivery_throughput,
    bench_cold_start,
    bench_event_rate,
    bench_monitored_chaos,
    bench_traffic_grid,
    bench_allpairs_grid,
    bench_wakeup_scheduler
);
criterion_main!(benches);
