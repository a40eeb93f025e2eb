//! `clos_cold` and `clos_cold_regions`: the global cold-start wave.
//!
//! A fat-tree fabric starts from fresh state and runs to quiescence. Every
//! node acts, the queue is deep, and switch degree is high, so the time
//! goes to guard evaluation in `crates/core` (ROADMAP item 2). The regions
//! twin runs the same inputs under the region-parallel executor, where
//! every window is busy and barrier merge and staging are what is added.

use std::time::Instant;

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, partition, Graph, NodeId};
use lsrp_sim::RunReport;

use super::{
    engine_config, graph_shape, routes_match_oracle, sim_counts, sim_fingerprint, HORIZON,
};
use crate::harness::{Ctx, Layers, Verdict, Workload};

/// Regions of the partitioned twin.
pub const REGIONS: usize = 8;

/// Scratch key (not a published metric): simulated seconds the timed phase
/// covered.
pub const SIMULATED_S: &str = "_simulated_s";

/// Scratch key: seconds the sequential twin's timed phase took.
pub const TWIN_RUN_S: &str = "_twin_run_s";

/// Fat-tree arity: 40 gives 18,000 nodes with switch degree 40.
fn arity(ctx: &Ctx) -> u32 {
    if ctx.smoke {
        8
    } else {
        40
    }
}

pub struct Ready {
    sim: LsrpSimulation,
    report: Option<RunReport>,
}

fn setup(ctx: &Ctx, regions: usize) -> Ready {
    let graph = {
        let _s = ctx.spans.span("graph.generate");
        generators::fat_tree(arity(ctx))
    };
    let _s = ctx.spans.span("core.build");
    let config = if regions > 1 {
        engine_config(ctx).with_regions(regions).with_jobs(ctx.jobs)
    } else {
        engine_config(ctx)
    };
    let sim = LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(config)
        .build();
    Ready { sim, report: None }
}

fn run(ctx: &Ctx, ready: &mut Ready) {
    let _s = ctx.spans.span("sim.run_call");
    ready.report = Some(ready.sim.run_to_quiescence(HORIZON));
}

fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
    let Ready { sim, report } = ready;
    graph_shape(layers, sim.graph());
    sim_counts(layers, &Default::default(), &sim.stats());
    layers.insert(SIMULATED_S, sim.now().seconds());
    Verdict::single(
        &[
            ("quiescent", report.is_some_and(|r| r.quiescent)),
            (
                "routes match the Dijkstra oracle",
                routes_match_oracle(ctx, &sim),
            ),
        ],
        sim_fingerprint(&sim).finish(),
    )
}

/// Host microseconds per event of the cold start, the number ROADMAP
/// item 2 is about.
fn core_us_per_event(base_run_s: f64, layers: &mut Layers) {
    if let Some(&events) = layers.get("sim.events") {
        layers.insert("core.us_per_event", base_run_s * 1e6 / events);
    }
}

pub struct ClosCold;

impl Workload for ClosCold {
    const NAME: &'static str = "clos_cold";
    type Ready = Ready;

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, 1)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ctx, ready, layers)
    }

    fn layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        core_us_per_event(base_run_s, layers);
        // The degree sweep: per-event cost of a cold start tracks node
        // degree, not node count (ROADMAP measured 2.0 / 9.6 / 22 us).
        let sweep: &[(u32, &'static str)] = if ctx.smoke {
            &[(25, "core.us_per_event.deg25")]
        } else {
            &[
                (25, "core.us_per_event.deg25"),
                (100, "core.us_per_event.deg100"),
                (200, "core.us_per_event.deg200"),
            ]
        };
        for &(degree, name) in sweep {
            let _s = ctx.spans.span("core.degree_sweep");
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let mut sim =
                    LsrpSimulation::builder(generators::complete(degree, 1), NodeId::new(0))
                        .initial_state(InitialState::Fresh)
                        .engine_config(engine_config(ctx))
                        .build();
                let t0 = Instant::now();
                let report = sim.run_to_quiescence(HORIZON);
                let dt = t0.elapsed().as_secs_f64();
                assert!(report.quiescent, "complete({degree}) settles");
                best = best.min(dt * 1e6 / sim.stats().total_events() as f64);
            }
            layers.insert(name, best);
        }
    }
}

pub struct ClosColdRegions;

impl Workload for ClosColdRegions {
    const NAME: &'static str = "clos_cold_regions";
    type Ready = Ready;

    /// The sequential twin on the same inputs: its fingerprint is the one
    /// every partitioned repetition must reproduce.
    fn reference(ctx: &Ctx, layers: &mut Layers) -> Option<u64> {
        let mut twin = setup(ctx, 1);
        let t0 = Instant::now();
        run(ctx, &mut twin);
        layers.insert(TWIN_RUN_S, t0.elapsed().as_secs_f64());
        Some(sim_fingerprint(&twin.sim).finish())
    }

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, REGIONS)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ctx, ready, layers)
    }

    fn layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        core_us_per_event(base_run_s, layers);
        regions_layers(ctx, base_run_s, layers, &generators::fat_tree(arity(ctx)));
    }
}

/// Region-executor figures both partitioned workloads report, from the
/// [`TWIN_RUN_S`] and [`SIMULATED_S`] their reference and check left.
pub fn regions_layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers, graph: &Graph) {
    if let Some(&twin_s) = layers.get(TWIN_RUN_S) {
        layers.insert("sim.regions.speedup", twin_s / base_run_s);
    }
    // A window is one minimum link delay long: 1 simulated second under
    // the default link.
    if let Some(&simulated_s) = layers.get(SIMULATED_S) {
        layers.insert("sim.regions.us_per_window", base_run_s * 1e6 / simulated_s);
    }
    let parts = {
        let _s = ctx.spans.span("graph.partition");
        partition::partition(graph, REGIONS)
    };
    layers.insert("sim.regions.cut_edges", parts.cut_edges.len() as f64);
    let largest = parts.regions.iter().map(Vec::len).max().unwrap_or(0) as f64;
    let mean = graph.node_count() as f64 / REGIONS as f64;
    layers.insert("sim.regions.balance", largest / mean);
}
