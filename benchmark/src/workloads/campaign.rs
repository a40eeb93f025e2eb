//! `campaign_sweep`: hundreds of short simulations instead of one long one.
//!
//! Four benchmark-owned scenario templates are rendered with seeds derived
//! from `--seed`, parsed by `load_str` and run through `run_scenario` on
//! the sharded runner: an E6-shaped recovery sweep over LSRP and the three
//! baselines, its dense multi-destination twin, a live congested hijack
//! sweep and a corruption-only chaos campaign on a grid. Scenario
//! lowering, the sharded runner, the generators, `build()`, `crates/multi`
//! and `crates/baselines` are what is measured, and because every cell
//! builds its own simulation inside the timed phase, work moved from the
//! run loop into `build()` shows here as a loss.
//!
//! The chaos template injects corruptions only, on a grid;
//! `scenarios/chaos_grid.toml` says why.

use std::time::Instant;

use lsrp_baselines::{BaselineSimulation, DbfSimulation, DualSimulation, PvSimulation};
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};
use lsrp_scenario::cells::{recovery_cell, EngineModel, RecoveryCellSpec, RegionFault};
use lsrp_scenario::{expand_list, load_str, run_scenario, ExecOptions, Protocol, Scenario};
use lsrp_sim::{EngineConfig, HarnessProtocol, SimHarness};

use super::clos::TWIN_RUN_S;
use super::HORIZON;
use crate::clock::percentile;
use crate::fingerprint::Fingerprint;
use crate::harness::{Ctx, Layers, Verdict, Workload};

/// One scenario template and the span its execution is recorded under.
struct Template {
    name: &'static str,
    exec_span: &'static str,
    exec_metric: &'static str,
    text: &'static str,
}

const TEMPLATES: [Template; 4] = [
    Template {
        name: "recovery",
        exec_span: "scenario.exec.recovery",
        exec_metric: "scenario.exec_s.recovery",
        text: include_str!("../../scenarios/recovery.toml"),
    },
    Template {
        name: "recovery_multi",
        exec_span: "scenario.exec.recovery_multi",
        exec_metric: "scenario.exec_s.recovery_multi",
        text: include_str!("../../scenarios/recovery_multi.toml"),
    },
    Template {
        name: "hijack_live",
        exec_span: "scenario.exec.hijack_live",
        exec_metric: "scenario.exec_s.hijack_live",
        text: include_str!("../../scenarios/hijack_live.toml"),
    },
    Template {
        name: "chaos_grid",
        exec_span: "scenario.exec.chaos_grid",
        exec_metric: "scenario.exec_s.chaos_grid",
        text: include_str!("../../scenarios/chaos_grid.toml"),
    },
];

/// Values for a template's `{...}` fields. The warm pass uses the smallest
/// cell of each sweep.
fn fields(ctx: &Ctx, template: &str, warm: bool) -> Vec<(&'static str, String)> {
    // `smoke` or `full`, cut to the first item for the warm pass.
    let list = |smoke: &[u32], full: &[u32]| -> String {
        let all = if ctx.smoke { smoke } else { full };
        let shown = if warm { &all[..1] } else { all };
        let items: Vec<String> = shown.iter().map(u32::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let smoke = ctx.smoke;
    match template {
        "recovery" => vec![
            ("widths", list(&[8], &[16, 24, 32])),
            ("ps", list(&[1, 4], &[1, 2, 4, 8, 16, 32])),
        ],
        "recovery_multi" => vec![
            ("widths", list(&[6], &[8, 12])),
            ("ps", list(&[1, 2], &[1, 2, 4, 8])),
        ],
        "hijack_live" => vec![
            ("width", if smoke { 6 } else { 12 }.to_string()),
            ("ps", list(&[1, 2], &[1, 2, 4, 8])),
        ],
        "chaos_grid" => vec![
            ("width", if smoke { 10 } else { 32 }.to_string()),
            (
                "runs",
                match (warm, smoke) {
                    (true, _) => 1,
                    (false, true) => 4,
                    (false, false) => 80,
                }
                .to_string(),
            ),
        ],
        other => unreachable!("no template is called {other}"),
    }
}

/// Scenario seeds stay small: recovery sweeps add the grid width to them.
fn scenario_seed(ctx: &Ctx, index: usize) -> u64 {
    (ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) + 1_000 * index as u64
}

fn render(ctx: &Ctx, index: usize, warm: bool) -> String {
    let template = &TEMPLATES[index];
    let mut text = template
        .text
        .replace("{seed}", &scenario_seed(ctx, index).to_string());
    for (key, value) in fields(ctx, template.name, warm) {
        text = text.replace(&format!("{{{key}}}"), &value);
    }
    text
}

/// Cells a scenario runs: its expansion, or for a campaign its run count.
fn cell_count(scenario: &Scenario) -> u64 {
    match &scenario.body {
        lsrp_scenario::ScenarioBody::Chaos(c) => u64::from(c.runs),
        _ => expand_list(scenario).map_or(0, |cells| cells.len() as u64),
    }
}

pub struct Ready {
    scenarios: Vec<Scenario>,
    cells: Vec<u64>,
    jobs: usize,
    /// `(report, expectation failures)` per scenario, or why it did not run.
    outcomes: Vec<Result<(String, Vec<String>), String>>,
}

fn setup(ctx: &Ctx, jobs: usize) -> Ready {
    let parse = |warm: bool| -> Vec<Scenario> {
        (0..TEMPLATES.len())
            .map(|i| {
                let text = render(ctx, i, warm);
                let _s = ctx.spans.span("scenario.parse");
                load_str(&text).unwrap_or_else(|e| panic!("{} parses: {e}", TEMPLATES[i].name))
            })
            .collect()
    };
    let scenarios = parse(false);
    let cells = {
        let _s = ctx.spans.span("scenario.expand");
        scenarios.iter().map(cell_count).collect()
    };
    {
        // One smallest cell of every kind, so the first timed cell does
        // not pay for cold code and a cold allocator.
        let _s = ctx.spans.span("scenario.warm");
        for s in &parse(true) {
            let _ = run_scenario(s, ExecOptions::sharded(jobs));
        }
    }
    Ready {
        scenarios,
        cells,
        jobs,
        outcomes: Vec::new(),
    }
}

fn run(ctx: &Ctx, ready: &mut Ready) {
    let opts = ExecOptions::sharded(ready.jobs);
    ready.outcomes = ready
        .scenarios
        .iter()
        .zip(&TEMPLATES)
        .map(|(scenario, template)| {
            let _s = ctx.spans.span(template.exec_span);
            run_scenario(scenario, opts).map(|o| (o.report(), o.failures))
        })
        .collect();
}

fn check(ready: Ready, layers: &mut Layers) -> Verdict {
    let mut verdict = Verdict::default();
    let mut fp = Fingerprint::default();
    for ((outcome, &cells), template) in ready.outcomes.iter().zip(&ready.cells).zip(&TEMPLATES) {
        verdict.attempted += cells;
        match outcome {
            Ok((report, failures)) => {
                fp.bytes(report.as_bytes());
                // One failed expectation is one failed cell.
                let failed = failures.iter().take(cells as usize);
                verdict
                    .failures
                    .extend(failed.map(|f| format!("{}: {f}", template.name)));
            }
            Err(e) => verdict
                .failures
                .extend((0..cells).map(|_| format!("{}: did not run: {e}", template.name))),
        }
    }
    if ready.outcomes.len() != TEMPLATES.len() {
        verdict.failures.push("the timed phase did not run".into());
    }
    verdict.fingerprint = fp.finish();
    layers.insert("scenario.cells", verdict.attempted as f64);
    verdict
}

pub struct CampaignSweep;

impl Workload for CampaignSweep {
    const NAME: &'static str = "campaign_sweep";
    type Ready = Ready;

    /// The same campaign on one shard: report bytes must not depend on
    /// `jobs`.
    fn reference(ctx: &Ctx, layers: &mut Layers) -> Option<u64> {
        let mut twin = setup(ctx, 1);
        let t0 = Instant::now();
        run(ctx, &mut twin);
        layers.insert(TWIN_RUN_S, t0.elapsed().as_secs_f64());
        Some(check(twin, &mut Layers::new()).fingerprint)
    }

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, ctx.jobs)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(_ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ready, layers)
    }

    fn layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        if let Some(&twin_s) = layers.get(TWIN_RUN_S) {
            layers.insert("analysis.runner.jobs_speedup", twin_s / base_run_s);
        }
        for t in &TEMPLATES {
            layers.insert(t.exec_metric, ctx.spans.total_s(t.exec_span));
        }
        cell_latency(ctx, layers);
        multi_plane(ctx, layers);
        baselines(ctx, layers);
    }
}

/// Latency of single recovery cells called directly, seeds varying.
fn cell_latency(ctx: &Ctx, layers: &mut Layers) {
    let _s = ctx.spans.span("scenario.cell_latency");
    let (samples, width) = if ctx.smoke { (20, 8) } else { (200, 16) };
    let ms: Vec<f64> = (0..samples)
        .map(|i| {
            let spec = RecoveryCellSpec {
                protocol: Protocol::Lsrp,
                width,
                p: 4,
                seed: scenario_seed(ctx, 0) + i,
                fault: RegionFault::CorruptPlan,
                model: EngineModel::Ideal,
            };
            let t0 = Instant::now();
            std::hint::black_box(recovery_cell(&spec));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.insert("scenario.cell_ms_p50", percentile(&ms, 50.0));
    layers.insert("scenario.cell_ms_p95", percentile(&ms, 95.0));
}

/// The first `count` nodes of grid row 1 from column 1: a contiguous patch
/// next to the destination's corner.
fn patch(width: u32, count: u32) -> Vec<NodeId> {
    (0..count).map(|i| NodeId::new(width + 1 + i)).collect()
}

/// The dense multi-destination plane on its own: build, hijack every
/// instance table in a patch, recover.
fn multi_plane(ctx: &Ctx, layers: &mut Layers) {
    let (width, dests) = if ctx.smoke { (6, 6) } else { (12, 12) };
    let graph = generators::grid(width, width, 1);
    let destinations: Vec<NodeId> = graph.nodes().take(dests).collect();
    let mut sim = {
        let _s = ctx.spans.span("multi.build");
        MultiLsrpSimulation::builder(graph, destinations)
            .seed(ctx.seed)
            .build()
    };
    for node in patch(width, 4) {
        sim.corrupt_all_instances(node, |_| (Distance::ZERO, node));
    }
    let t0 = Instant::now();
    let report = {
        let _s = ctx.spans.span("multi.run");
        sim.run_to_quiescence(HORIZON)
    };
    let dt = t0.elapsed().as_secs_f64();
    assert!(
        report.quiescent && sim.all_routes_correct(),
        "the dense plane recovers"
    );
    let stats = sim.stats();
    layers.insert("multi.us_per_event", dt * 1e6 / stats.total_events() as f64);
    layers.insert(
        "multi.adverts_per_message",
        stats.adverts_delivered as f64 / stats.messages_delivered.max(1) as f64,
    );
}

/// Host microseconds per event of a baseline recovering from a black-holed
/// patch of 8 nodes on a grid of 32 x 32, best of three.
fn baseline_us_per_event<P: HarnessProtocol>(
    ctx: &Ctx,
    build: impl Fn(Graph, EngineConfig) -> SimHarness<P>,
) -> f64 {
    let width = if ctx.smoke { 8 } else { 32 };
    let graph = generators::grid(width, width, 1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = build(graph.clone(), EngineConfig::default().with_seed(ctx.seed));
        sim.run_to_quiescence(HORIZON);
        let before = sim.stats().total_events();
        for node in patch(width, 8.min(width - 2)) {
            sim.corrupt_distance(node, Distance::ZERO);
            let neighbors: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
            for k in neighbors {
                sim.poison_mirror(k, node, Distance::ZERO);
            }
        }
        let t0 = Instant::now();
        let report = sim.run_to_quiescence(HORIZON);
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            report.quiescent && sim.routes_correct(),
            "{} recovers",
            P::NAME
        );
        let events = sim.stats().total_events() - before;
        best = best.min(dt * 1e6 / events.max(1) as f64);
    }
    best
}

fn baselines(ctx: &Ctx, layers: &mut Layers) {
    let _s = ctx.spans.span("baselines.cells");
    let dest = NodeId::new(0);
    layers.insert(
        "baselines.dbf.us_per_event",
        baseline_us_per_event(ctx, |g, e| {
            DbfSimulation::new(g, dest, None, Default::default(), e)
        }),
    );
    layers.insert(
        "baselines.dual.us_per_event",
        baseline_us_per_event(ctx, |g, e| {
            DualSimulation::new(g, dest, None, Default::default(), e)
        }),
    );
    layers.insert(
        "baselines.pv.us_per_event",
        baseline_us_per_event(ctx, |g, e| {
            PvSimulation::new(g, dest, None, Default::default(), e)
        }),
    );
}
