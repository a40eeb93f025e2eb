//! `chaos_observed`: a long mixed fault process under full observation.
//!
//! A grid settles from cold in set-up, then link flaps, node churn,
//! partitions, corruptions and weight drifts arrive for hundreds of
//! thousands of simulated seconds while `run_monitored` steps the engine
//! one event at a time, the standard monitors judge every event, and the
//! streaming sink writes a JSONL trace. The bare engine is about half of
//! the time; monitors, `RouteView`, the sink, `crates/trace` and
//! `crates/faults` are the rest, and the retained `Trace` the monitors
//! read is what `peak_rss_mb` sees.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lsrp_analysis::{run_monitored, standard_monitors, Monitor, MonitorReport, Violation};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::{FaultProcess, FaultSchedule};
use lsrp_graph::{generators, NodeId};
use lsrp_sim::{EngineConfig, EngineStats, SimTime, SinkKind};
use lsrp_trace::reader::{kind, read_trace};
use lsrp_trace::{json, streaming_factory, TraceConfig};

use super::{graph_shape, routes_match_oracle, sim_counts, sim_fingerprint, HORIZON};
use crate::fingerprint::Fingerprint;
use crate::harness::{Ctx, Layers, Verdict, Workload};
use crate::spans::Spans;

struct Sizes {
    width: u32,
    process: FaultProcess,
    /// Simulated seconds the faults are spread over.
    window: f64,
}

fn sizes(ctx: &Ctx) -> Sizes {
    // Ten markers per 1,000 simulated seconds. Partitions are one marker
    // in ten and nine events in ten: a random cut makes much of the grid
    // reconverge (about 1,000 events each at this width, against 6 to 33
    // for the other classes), and their heavy tail is why the event count
    // moves by about 5% between seeds.
    let (width, scale) = if ctx.smoke { (12, 20) } else { (16, 1000) };
    Sizes {
        width,
        process: FaultProcess {
            link_flaps: 3 * scale,
            node_churn: 2 * scale,
            partitions: scale,
            corruptions: 3 * scale,
            weight_drifts: scale,
            ..FaultProcess::standard()
        },
        window: 1_000.0 * f64::from(scale),
    }
}

pub struct Ready {
    sim: LsrpSimulation,
    schedule: FaultSchedule,
    monitors: Vec<Box<dyn Monitor>>,
    before: EngineStats,
    report: Option<MonitorReport>,
    skipped: u64,
    /// The streamed trace, when this variant writes one.
    trace_path: Option<PathBuf>,
}

/// Which observers a variant keeps; the workload itself keeps both.
#[derive(Clone, Copy)]
struct Observers {
    monitors: bool,
    streaming: bool,
}

const ALL: Observers = Observers {
    monitors: true,
    streaming: true,
};

fn setup(ctx: &Ctx, observers: Observers) -> Ready {
    let sizes = sizes(ctx);
    let dest = NodeId::new(0);
    let graph = {
        let _s = ctx.spans.span("graph.generate");
        generators::grid(sizes.width, sizes.width, 1)
    };
    let raw = {
        let _s = ctx.spans.span("faults.generate");
        sizes.process.generate(&graph, dest, sizes.window, ctx.seed)
    };
    // The monitors read the retained `Trace`, so the inner sink is `Full`.
    let mut config = EngineConfig::default().with_seed(ctx.seed);
    let trace_path = observers.streaming.then(|| {
        ctx.out_dir
            .join(format!("trace-{}.jsonl", ChaosObserved::NAME))
    });
    if let Some(path) = &trace_path {
        let factory = streaming_factory(TraceConfig::new(path), SinkKind::Full)
            .expect("the trace file opens");
        config = config.with_sink_factory(factory);
    }
    let nodes = graph.node_count();
    let mut sim = {
        let _s = ctx.spans.span("core.build");
        LsrpSimulation::builder(graph, dest)
            .initial_state(InitialState::Fresh)
            .engine_config(config)
            .build()
    };
    {
        let _s = ctx.spans.span("sim.warm");
        sim.run_to_quiescence(HORIZON);
    }
    let t0 = sim.now().seconds();
    let mut schedule = FaultSchedule::new();
    for e in &raw.events {
        schedule.push(t0 + e.at, e.fault.clone());
    }
    let monitors = if observers.monitors {
        standard_monitors(sim.timing(), nodes)
    } else {
        Vec::new()
    };
    Ready {
        before: sim.stats(),
        sim,
        schedule,
        monitors,
        report: None,
        skipped: 0,
        trace_path,
    }
}

fn run(ctx: &Ctx, ready: &mut Ready) {
    let Ready {
        sim,
        schedule,
        monitors,
        ..
    } = ready;
    ready.report = Some(if ctx.spans.enabled() {
        run_monitored_traced(ctx, sim, schedule, monitors, &mut ready.skipped)
    } else {
        run_monitored(sim, schedule, HORIZON, monitors)
    });
}

fn idle(sim: &LsrpSimulation) -> bool {
    !sim.engine().any_enabled_non_maintenance() && sim.engine().inflight_messages() == 0
}

/// `lsrp_analysis::run_monitored`, event for event, driven from here so
/// that `step`, every monitor callback and `Fault::apply_lsrp` are timed
/// apart. The fingerprint check holds the two loops together.
fn run_monitored_traced(
    ctx: &Ctx,
    sim: &mut LsrpSimulation,
    schedule: &FaultSchedule,
    monitors: &mut [Box<dyn Monitor>],
    skipped: &mut u64,
) -> MonitorReport {
    let spans = ctx.spans;
    let mut violations: Vec<Violation> = Vec::new();
    let mut events = 0u64;
    // Steps up to `until`; false when the run went quiescent first.
    let mut step_through = |sim: &mut LsrpSimulation,
                            until: f64,
                            monitors: &mut [Box<dyn Monitor>],
                            violations: &mut Vec<Violation>|
     -> bool {
        loop {
            match sim.engine().next_event_time() {
                Some(t) if t.seconds() <= until => {
                    spans.hot("sim.run_call", || sim.engine_mut().step());
                    events += 1;
                    for m in &mut *monitors {
                        spans.hot("analysis.monitor", || m.on_event(sim, violations));
                    }
                    if events.is_multiple_of(256) && idle(sim) {
                        return false;
                    }
                }
                _ => return true,
            }
        }
    };
    let _ = sim.route_cursor();
    for ev in &schedule.events {
        step_through(sim, ev.at, monitors, &mut violations);
        if ev.at > sim.now().seconds() {
            spans.hot("sim.run_call", || sim.run_until(ev.at));
        }
        for m in &mut *monitors {
            spans.hot("analysis.monitor", || {
                m.on_fault(SimTime::new(ev.at), &ev.fault, sim, &mut violations);
            });
        }
        if spans
            .hot("faults.apply", || ev.fault.apply_lsrp(sim))
            .is_err()
        {
            *skipped += 1;
        }
    }
    loop {
        if idle(sim) || !step_through(sim, HORIZON, monitors, &mut violations) {
            break;
        }
        if sim
            .engine()
            .next_event_time()
            .is_none_or(|t| t.seconds() > HORIZON)
        {
            break;
        }
    }
    let quiescent = idle(sim);
    for m in monitors {
        spans.hot("analysis.monitor", || m.finish(sim, &mut violations));
    }
    MonitorReport {
        violations,
        end: sim.now(),
        quiescent,
        events,
    }
}

/// Re-reads the streamed trace. The untraced run parses it frame by frame
/// with the reader's own parser, so that the check does not set the
/// process's peak memory; the traced run calls `read_trace` on the whole
/// file (timed as `trace.read_s`) and renders it.
fn check_trace(ctx: &Ctx, path: &Path, fp: &mut Fingerprint, layers: &mut Layers) -> bool {
    let file = BufReader::new(File::open(path).expect("the trace file is readable"));
    let (mut bytes, mut lines, mut parsed) = (0u64, 0usize, 0usize);
    let (mut first, mut last) = (None, None);
    for line in file.lines() {
        let line = line.expect("the trace is UTF-8 text");
        bytes += line.len() as u64 + 1;
        lines += 1;
        fp.bytes(line.as_bytes());
        if let Ok(frame) = json::parse(&line) {
            parsed += 1;
            last = kind(&frame).map(str::to_string);
            first = first.or_else(|| last.clone());
        }
    }
    layers.insert("trace.bytes", bytes as f64);
    layers.insert("trace.frames", lines as f64);
    let mut ok =
        parsed == lines && first.as_deref() == Some("hdr") && last.as_deref() == Some("end");
    if ctx.spans.enabled() {
        let frames = {
            let _s = ctx.spans.span("trace.read");
            read_trace(path)
        };
        let html = frames.as_ref().ok().map(|frames| {
            let _s = ctx.spans.span("viz.render");
            lsrp_viz::render_html(frames)
        });
        ok &= frames.is_ok_and(|f| f.len() == lines);
        ok &= matches!(html, Some(Ok(_)));
        let html_bytes = html.and_then(Result::ok).map_or(0, |h| h.len());
        layers.insert("viz.html_bytes", html_bytes as f64);
    }
    ok
}

/// Monitor violations are counted, not failed: on a fault process this
/// long the wave-order monitor (a best-effort detector by its own account)
/// reports a few inversions on most seeds. The count is seed-determined and
/// part of the fingerprint.
fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
    graph_shape(layers, ready.sim.graph());
    sim_counts(layers, &ready.before, &ready.sim.stats());
    layers.insert("faults.events", ready.schedule.len() as f64);
    layers.insert("faults.skipped", ready.skipped as f64);
    let report = ready.report.expect("the timed phase ran");
    layers.insert("analysis.violations", report.violations.len() as f64);
    let routes_ok = routes_match_oracle(ctx, &ready.sim);
    let mut fp = sim_fingerprint(&ready.sim);
    fp.u64(report.events).u64(report.violations.len() as u64);
    // Dropping the simulation writes the trace's `end` frame.
    drop(ready.sim);
    let trace_ok = ready
        .trace_path
        .is_none_or(|path| check_trace(ctx, &path, &mut fp, layers));
    Verdict::single(
        &[
            ("quiescent", report.quiescent),
            ("routes match the Dijkstra oracle", routes_ok),
            ("the trace re-reads frame for frame", trace_ok),
        ],
        fp.finish(),
    )
}

pub struct ChaosObserved;

impl Workload for ChaosObserved {
    const NAME: &'static str = "chaos_observed";
    type Ready = Ready;

    fn setup(ctx: &Ctx) -> Ready {
        setup(ctx, ALL)
    }

    fn run(ctx: &Ctx, ready: &mut Ready) {
        run(ctx, ready);
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        check(ctx, ready, layers)
    }

    /// Monitors and the sink only run inside the engine loop, so besides
    /// their spans they are measured by leaving each out on equal inputs.
    fn layers(ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        if let Some(&bytes) = layers.get("trace.bytes") {
            layers.insert("trace.mb_per_s", bytes / 1e6 / base_run_s);
        }
        let off = Spans::off();
        let untraced = Ctx {
            spans: &off,
            ..*ctx
        };
        let without = |observers: Observers| -> f64 {
            let mut ready = setup(&untraced, observers);
            let t0 = Instant::now();
            run(&untraced, &mut ready);
            t0.elapsed().as_secs_f64()
        };
        let _s = ctx.spans.span("ablations");
        let no_monitors = without(Observers {
            monitors: false,
            ..ALL
        });
        layers.insert("analysis.monitor_frac", 1.0 - no_monitors / base_run_s);
        let no_stream = without(Observers {
            streaming: false,
            ..ALL
        });
        layers.insert("trace.sink_frac", 1.0 - no_stream / base_run_s);
    }
}
