//! Drives one workload: repeats set-up and the timed phase on fresh
//! simulations, checks every repetition, and turns the samples into the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::{self, median, spread, timed, Spread};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Spans;

/// Fewest repetitions an untraced run reports from, however slow the host.
const MIN_REPS: usize = 3;

/// What a workload sees of the invocation.
pub struct Ctx<'a> {
    /// Drives every generated input.
    pub seed: u64,
    /// Sub-second sizes, for the package's own tests.
    pub smoke: bool,
    /// Worker threads for the workloads that use any: `min(2, nproc)`.
    pub jobs: usize,
    pub spans: &'a Spans,
    /// Where trace files and span dumps go.
    pub out_dir: &'a Path,
}

/// Per-layer values a workload reports, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The outcome of checking one repetition.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations attempted: one per simulation run (a repetition, or one
    /// campaign cell).
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Hash of everything that must repeat for the same inputs.
    pub fingerprint: u64,
}

impl Verdict {
    /// A single-simulation verdict: fails once if any named check is false.
    pub fn single(checks: &[(&str, bool)], fingerprint: u64) -> Self {
        let broken: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
        Verdict {
            attempted: 1,
            failures: if broken.is_empty() {
                Vec::new()
            } else {
                vec![broken.join(", ")]
            },
            fingerprint,
        }
    }
}

/// One benchmark workload. `setup` is everything before the timed phase
/// and runs afresh for every repetition; `run` is the timed phase; `check`
/// consumes the finished simulation, outside both clocks.
pub trait Workload {
    const NAME: &'static str;
    /// Built, warmed inputs of one repetition.
    type Ready;

    /// Runs once per invocation, before any repetition: the fingerprint a
    /// twin run on the same inputs produced, which every repetition must
    /// match. May leave per-layer values (the twin's timing).
    fn reference(_ctx: &Ctx, _layers: &mut Layers) -> Option<u64> {
        None
    }

    fn setup(ctx: &Ctx) -> Self::Ready;

    fn run(ctx: &Ctx, ready: &mut Self::Ready);

    fn check(ctx: &Ctx, ready: Self::Ready, layers: &mut Layers) -> Verdict;

    /// Traced run only: ablations and micro-measurements of the layers
    /// this workload leans on. `base_run_s` is the untraced `run_s`.
    fn layers(_ctx: &Ctx, _base_run_s: f64, _layers: &mut Layers) {}
}

/// Timings of one repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    sys_s: f64,
}

/// Everything one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced repetitions, and the spread of their timed phases.
    pub reps: usize,
    pub run_s: Spread,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Options of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Repetitions, their checks and the first fingerprint seen.
struct Reps {
    samples: Vec<Rep>,
    attempted: u64,
    failures: Vec<String>,
    expected: Option<u64>,
}

impl Reps {
    fn one<W: Workload>(&mut self, ctx: &Ctx, layers: &mut Layers) {
        let (mut ready, setup) = timed(|| {
            let _s = ctx.spans.span("setup");
            W::setup(ctx)
        });
        let ((), run) = timed(|| {
            let _s = ctx.spans.span("run");
            W::run(ctx, &mut ready);
        });
        let verdict = {
            let _s = ctx.spans.span("check");
            W::check(ctx, ready, layers)
        };
        self.attempted += verdict.attempted;
        self.failures.extend(verdict.failures);
        match self.expected {
            None => self.expected = Some(verdict.fingerprint),
            Some(want) if want != verdict.fingerprint => self.failures.push(format!(
                "fingerprint {:016x} differs from the expected {want:016x}",
                verdict.fingerprint
            )),
            Some(_) => {}
        }
        self.samples.push(Rep {
            setup_s: setup.wall_s,
            run_s: run.wall_s,
            cpu_s: run.cpu_s,
            sys_s: run.sys_s,
        });
    }
}

/// Runs workload `W` as the options ask and reports its metrics.
pub fn drive<W: Workload>(opts: &Options) -> Outcome {
    std::fs::create_dir_all(&opts.out_dir).expect("the output directory can be created");
    let off = Spans::off();
    let ctx = Ctx {
        seed: opts.seed,
        smoke: opts.smoke,
        jobs: jobs(),
        spans: &off,
        out_dir: &opts.out_dir,
    };
    let mut layers = Layers::new();
    let started = Instant::now();
    let mut reps = Reps {
        samples: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        expected: W::reference(&ctx, &mut layers),
    };

    // Untraced repetitions: all of the measuring time, or in a traced
    // invocation the part not kept for the traced repetition and ablations.
    let budget = if opts.traced {
        opts.seconds * 0.4
    } else {
        opts.seconds
    };
    let min_reps = if opts.traced { 2 } else { MIN_REPS };
    let mut first_rep_rss_mib = 0.0;
    while reps.samples.len() < min_reps || started.elapsed().as_secs_f64() < budget {
        reps.one::<W>(&ctx, &mut layers);
        if reps.samples.len() == 1 {
            first_rep_rss_mib = clock::peak_rss_mib();
        }
    }
    // Everything the untraced repetitions are reported through.
    let untraced = reps.samples.len();
    let of = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.samples.iter().map(f).collect() };
    let run = spread(&of(|r| r.run_s));
    let cpu_s = median(&of(|r| r.cpu_s));
    let setup_s = median(&of(|r| r.setup_s));
    // Threads only show in process CPU time; a sequential workload reads 1.
    let cpu_per_wall = median(&of(|r| r.cpu_s / r.run_s));
    let sys_s = median(&of(|r| r.sys_s));

    let metrics = if opts.traced {
        let spans = Spans::on();
        let traced_ctx = Ctx {
            spans: &spans,
            ..ctx
        };
        reps.one::<W>(&traced_ctx, &mut layers);
        let traced_rep = *reps.samples.last().expect("the traced repetition ran");
        {
            let _s = spans.span("layers");
            W::layers(&traced_ctx, run.min, &mut layers);
        }
        let path = opts.out_dir.join(format!("spans-{}.json", W::NAME));
        std::fs::write(&path, spans.to_json(W::NAME, opts.seed))
            .expect("the span dump can be written");

        layers.insert("bench.run_s_median", run.median);
        layers.insert("bench.run_s_max", run.max);
        layers.insert("bench.reps", untraced as f64);
        layers.insert(
            "bench.trace_overhead_frac",
            traced_rep.run_s / run.min - 1.0,
        );
        if let Some(&events) = layers.get("sim.events") {
            layers.insert("sim.events_per_s", events / run.min);
            layers.insert("sim.us_per_event", run.min * 1e6 / events);
        }
        layers.insert("sim.run_calls", spans.count("sim.run_call") as f64);
        layers.insert("sim.regions.cpu_per_wall", cpu_per_wall);
        layers.insert("sim.regions.sys_s", sys_s);
        PER_LAYER
            .iter()
            .map(|m| {
                let from_span = m
                    .name
                    .strip_suffix("_s")
                    .filter(|stem| spans.count(stem) > 0)
                    .map(|stem| spans.total_s(stem));
                let value = layers.get(m.name).copied().or(from_span).unwrap_or(0.0);
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "run_s" => run.min,
                    "cpu_s" => cpu_s,
                    "setup_s" => setup_s,
                    // Later repetitions only add allocator fragmentation,
                    // by an amount that depends on how many fit.
                    "peak_rss_mb" => first_rep_rss_mib,
                    other => unreachable!("{other} has no measurement"),
                };
                (m.name, value, m.unit)
            })
            .collect()
    };

    Outcome {
        workload: W::NAME,
        attempted: reps.attempted,
        failures: reps.failures,
        metrics,
        reps: untraced,
        run_s: run,
    }
}
