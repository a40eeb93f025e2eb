//! `waxman_storm` and `waxman_storm_regions`: the paper's regime.
//!
//! A big sparse Waxman graph sits in its legitimate state while forged
//! broadcasts hit one node after another: the victim's distance becomes 0
//! and every neighbour's mirror of it is forged to match (the corruption a
//! `FaultProcess` draws as case 0). Each repair is contained within a few
//! hops, so the run is many small bursts on a mostly idle network. Engine,
//! scheduler and fault application dominate; `crates/core` guards are
//! cheap at degree 2, so a guard-evaluator change should not move it.
//!
//! The regions twin runs far fewer corruptions over a smaller such graph: almost
//! every window is empty, so the executor's fixed cost per window is what
//! is measured — the opposite use of the executor from `clos_cold_regions`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsrp_core::{LsrpSimulation, LsrpSimulationExt, Mirror};
use lsrp_faults::{CorruptionKind, Fault, FaultSchedule};
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{EventKey, EventQueue, RunReport, SchedulerKind, SimTime};

use super::clos::{regions_layers, REGIONS, SIMULATED_S, TWIN_RUN_S};
use super::{
    engine_config, graph_shape, routes_match_oracle, sim_counts, sim_fingerprint, HORIZON,
};
use crate::harness::{Ctx, Layers, Verdict, Workload};
use crate::spans::Spans;

/// Simulated seconds between corruptions: shorter than a repair, so
/// repairs in different places overlap.
const SPACING: f64 = 5.0;

struct Sizes {
    nodes: u32,
    /// Waxman locality, scaled with `1/sqrt(nodes)` to hold mean degree
    /// near 2 (0.001 at 100,000 nodes).
    alpha: f64,
    corruptions: u32,
}

/// `sparse` is the storm of the regions workload and its sequential twin.
fn sizes(ctx: &Ctx, sparse: bool) -> Sizes {
    let (nodes, corruptions) = match (ctx.smoke, sparse) {
        (true, false) => (2_000, 2_000),
        (true, true) => (2_000, 200),
        (false, false) => (30_000, 100_000),
        (false, true) => (20_000, 2_000),
    };
    Sizes {
        nodes,
        alpha: 0.001 * (100_000.0 / f64::from(nodes)).sqrt(),
        corruptions,
    }
}

fn graph(ctx: &Ctx, sizes: &Sizes) -> Graph {
    let _s = ctx.spans.span("graph.generate");
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    generators::waxman(sizes.nodes, sizes.alpha, 1.0, &mut rng)
}

/// One forged broadcast every [`SPACING`] seconds from `start`, victims
/// drawn from the invocation's seed.
fn storm(ctx: &Ctx, graph: &Graph, dest: NodeId, start: f64, corruptions: u32) -> FaultSchedule {
    let _s = ctx.spans.span("faults.generate");
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0053_544f_524d);
    let nodes: Vec<NodeId> = graph.nodes().filter(|&v| v != dest).collect();
    let mut schedule = FaultSchedule::new();
    for i in 0..corruptions {
        let at = start + SPACING * f64::from(i);
        let victim = nodes[rng.gen_range(0..nodes.len())];
        let neighbors: Vec<NodeId> = graph.neighbors(victim).map(|(n, _)| n).collect();
        let forged_parent = neighbors[rng.gen_range(0..neighbors.len())];
        for &n in neighbors.iter().filter(|&&n| n != dest) {
            schedule.push(
                at,
                Fault::Corrupt {
                    node: n,
                    kind: CorruptionKind::MirrorOf {
                        about: victim,
                        mirror: Mirror {
                            d: Distance::ZERO,
                            p: forged_parent,
                            ghost: false,
                        },
                    },
                },
            );
        }
        schedule.push(
            at,
            Fault::Corrupt {
                node: victim,
                kind: CorruptionKind::Distance(Distance::ZERO),
            },
        );
    }
    schedule
}

pub struct Ready {
    sim: LsrpSimulation,
    schedule: FaultSchedule,
    start: SimTime,
    before: lsrp_sim::EngineStats,
    report: Option<RunReport>,
    skipped: u64,
}

fn setup(ctx: &Ctx, sizes: &Sizes, regions: usize) -> Ready {
    let graph = graph(ctx, sizes);
    let dest = NodeId::new(0);
    let config = if regions > 1 {
        engine_config(ctx).with_regions(regions).with_jobs(ctx.jobs)
    } else {
        engine_config(ctx)
    };
    let mut sim = {
        let _s = ctx.spans.span("core.build");
        LsrpSimulation::builder(graph, dest)
            .engine_config(config)
            .build()
    };
    {
        let _s = ctx.spans.span("sim.warm");
        sim.run_to_quiescence(HORIZON);
    }
    let start = sim.now();
    let schedule = storm(
        ctx,
        sim.graph(),
        dest,
        start.seconds() + SPACING,
        sizes.corruptions,
    );
    Ready {
        before: sim.stats(),
        sim,
        schedule,
        start,
        report: None,
        skipped: 0,
    }
}

/// Untraced: the library's own driver. Traced: the same loop, driven here
/// so `run_until` and `Fault::apply_lsrp` are timed apart.
fn run(ctx: &Ctx, ready: &mut Ready) {
    let Ready { sim, schedule, .. } = ready;
    if !ctx.spans.enabled() {
        ready.report = Some(schedule.drive_lsrp(sim, HORIZON));
        return;
    }
    for e in &schedule.events {
        if e.at > sim.now().seconds() {
            ctx.spans.hot("sim.run_call", || sim.run_until(e.at));
        }
        if ctx
            .spans
            .hot("faults.apply", || e.fault.apply_lsrp(sim))
            .is_err()
        {
            ready.skipped += 1;
        }
    }
    ready.report = Some(
        ctx.spans
            .hot("sim.run_call", || sim.run_to_quiescence(HORIZON)),
    );
}

fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
    graph_shape(layers, ready.sim.graph());
    sim_counts(layers, &ready.before, &ready.sim.stats());
    layers.insert(SIMULATED_S, ready.sim.now().since(ready.start));
    layers.insert("faults.events", ready.schedule.len() as f64);
    layers.insert("faults.skipped", ready.skipped as f64);
    Verdict::single(
        &[
            ("quiescent", ready.report.is_some_and(|r| r.quiescent)),
            (
                "routes match the Dijkstra oracle",
                routes_match_oracle(ctx, &ready.sim),
            ),
        ],
        sim_fingerprint(&ready.sim).finish(),
    )
}

pub struct WaxmanStorm;

impl Workload for WaxmanStorm {
    const NAME: &'static str = "waxman_storm";
    type Ready = Ready;

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, &sizes(ctx, false), 1)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ctx, ready, layers)
    }

    fn layers(ctx: &Ctx, _base_run_s: f64, layers: &mut Layers) {
        let _s = ctx.spans.span("sim.sched.hold");
        let holds = if ctx.smoke { 20_000 } else { 400_000 };
        layers.insert("sim.sched.hold_ns.depth1k", hold_ns(ctx.seed, 1_000, holds));
        if !ctx.smoke {
            layers.insert(
                "sim.sched.hold_ns.depth300k",
                hold_ns(ctx.seed, 300_000, holds),
            );
        }
    }
}

/// The classic hold model on the engine's event queue: at a steady depth,
/// pop the earliest event and schedule one a random increment later.
/// Returns nanoseconds per hold (one pop and one schedule), best of three.
fn hold_ns(seed: u64, depth: u64, holds: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue: EventQueue<u64> = EventQueue::new(SchedulerKind::default());
        let mut k = 0u64;
        // Mean increment `depth`, so queued times spread one per second.
        let mut increment = || rng.gen_range(0.0..2.0 * depth as f64);
        for _ in 0..depth {
            queue.schedule(SimTime::new(increment()), EventKey::driver(k), k);
            k += 1;
        }
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..holds {
            let (t, _, item) = queue.pop().expect("the queue holds `depth` events");
            sum = sum.wrapping_add(item);
            queue.schedule(t + increment(), EventKey::driver(k), k);
            k += 1;
        }
        std::hint::black_box(sum);
        best = best.min(t0.elapsed().as_nanos() as f64 / holds as f64);
    }
    best
}

pub struct WaxmanStormRegions;

impl Workload for WaxmanStormRegions {
    const NAME: &'static str = "waxman_storm_regions";
    type Ready = Ready;

    /// The sequential twin on the same inputs supplies the fingerprint.
    fn reference(ctx: &Ctx, layers: &mut Layers) -> Option<u64> {
        let mut twin = setup(ctx, &sizes(ctx, true), 1);
        let t0 = Instant::now();
        run(ctx, &mut twin);
        layers.insert(TWIN_RUN_S, t0.elapsed().as_secs_f64());
        Some(sim_fingerprint(&twin.sim).finish())
    }

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, &sizes(ctx, true), REGIONS)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ctx, ready, layers)
    }

    fn layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        // Generated again only to be partitioned here: not part of
        // `graph.generate_s`.
        let off = Spans::off();
        let graph = graph(
            &Ctx {
                spans: &off,
                ..*ctx
            },
            &sizes(ctx, true),
        );
        regions_layers(ctx, base_run_s, layers, &graph);
    }
}
