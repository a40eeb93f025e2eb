//! The campaign compiler: expands a parsed [`Scenario`] into concrete
//! cells, runs them on the deterministic sharded runner and renders the
//! exact report the hand-coded experiment paths produced.
//!
//! Every cell is a pure function of its spec, and [`run_sharded`]
//! merges shard results back in cell-index order — so the rendered
//! report is byte-identical for any `--jobs` value, and byte-identical
//! to the legacy serial loops the scenario files replaced.
//!
//! What each cell kind reports is declared once, as a `Report`: its
//! fields in report order (column key, header, expectation metric and
//! how the value is read), its expectation variables and its sweep
//! axes. The schema checks a file's `columns`, `expect` and `[sweep]`
//! against that declaration, and `Report::tabulate` runs, renders and
//! judges every kind from it.

use std::fmt::Write as _;
use std::sync::Arc;

use lsrp_analysis::table::fmt_f64;
use lsrp_analysis::{
    minimize_run, run_campaign, run_sharded, AvailabilityTrace, CampaignConfig, ChaosConfig,
    RecoveryMetrics, ReproCase, Table, Target, TrafficConfig, TrafficMode, WorkloadSpec,
};
use lsrp_graph::{Graph, NodeId};
use lsrp_sim::EngineConfig;

use crate::cells::{
    corner, grid_fits, live_hijack_cell, multi_recovery_cell, recovery_cell, recurring_cell,
    region, region_case_cell, snapshot_hijack_cell, EngineModel, LiveHijackOutcome, LiveHijackSpec,
    Protocol, RecoveryCellSpec, RecurringCellSpec, RecurringMetrics,
};
use crate::schema::{
    CampaignScenario, CongestionSection, Expectation, HijackMode, HijackScenario, Plane,
    RecoveryScenario, ReportSection, Rhs, Scenario, ScenarioBody, SeedMode, Sweep, SweepValue,
    TrafficScenario, WorkloadSection,
};
use crate::spec::{check, DestinationsSpec};
use crate::toml::fmt_float;

// ---------------------------------------------------------------------
// What each cell kind reports
// ---------------------------------------------------------------------

/// One reported value: the text its column shows and the number an
/// expectation compares.
enum Val {
    /// A count.
    Count(u64),
    /// A real, shown by [`fmt_f64`].
    Real(f64),
    /// A real, shown with this many decimals.
    Fixed(f64, usize),
    /// A flag, compared as 1 or 0.
    Flag(bool),
    /// Text no expectation compares.
    Text(String),
}

use Val::{Count, Fixed, Flag, Real, Text};

impl Val {
    fn show(self) -> String {
        match self {
            Count(n) => n.to_string(),
            Real(x) => fmt_f64(x),
            Fixed(x, decimals) => format!("{x:.decimals$}"),
            Flag(b) => b.to_string(),
            Text(s) => s,
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn number(&self) -> f64 {
        match self {
            Count(n) => *n as f64,
            Real(x) | Fixed(x, _) => *x,
            Flag(b) => f64::from(u8::from(*b)),
            Text(_) => f64::NAN,
        }
    }
}

/// One field of a cell kind's result.
pub(crate) struct Field<C, R> {
    /// Column key and header, if `[report] columns` can show the field.
    column: Option<(&'static str, &'static str)>,
    /// Metric name, if an `expect` entry can compare the field.
    metric: Option<&'static str>,
    /// Reads the field from a cell and its result.
    read: fn(&C, &R) -> Val,
}

/// A field shown as a column, never compared.
const fn col<C, R>(
    key: &'static str,
    header: &'static str,
    read: fn(&C, &R) -> Val,
) -> Field<C, R> {
    Field {
        column: Some((key, header)),
        metric: None,
        read,
    }
}

/// A field compared by expectations, never shown.
const fn metric<C, R>(name: &'static str, read: fn(&C, &R) -> Val) -> Field<C, R> {
    Field {
        column: None,
        metric: Some(name),
        read,
    }
}

/// A field both shown as a column and compared as a metric.
const fn both<C, R>(
    key: &'static str,
    header: &'static str,
    name: &'static str,
    read: fn(&C, &R) -> Val,
) -> Field<C, R> {
    Field {
        column: Some((key, header)),
        metric: Some(name),
        read,
    }
}

/// The inputs a sweep binding can set on a cell; each kind fills the
/// ones it has from its fixed fields first.
#[derive(Debug, Clone, Copy, Default)]
struct Point {
    protocol: Option<Protocol>,
    width: Option<u32>,
    p: Option<usize>,
    loss: Option<f64>,
    period: Option<f64>,
}

/// An expectation variable: its name and how it is read from a cell.
type Var<C> = (&'static str, fn(&C) -> f64);

/// A sweep axis: its name and how one of its values sets a [`Point`].
type Axis = (
    &'static str,
    fn(&mut Point, &SweepValue) -> Result<(), String>,
);

fn int(v: &SweepValue) -> Result<i64, String> {
    match v {
        SweepValue::Int(i) => Ok(*i),
        other => Err(format!("needs integer values, got {other}")),
    }
}

fn number(v: &SweepValue) -> Result<f64, String> {
    match v {
        SweepValue::Float(x) => Ok(*x),
        #[allow(clippy::cast_precision_loss)]
        SweepValue::Int(i) => Ok(*i as f64),
        other => Err(format!("needs number values, got {other}")),
    }
}

const PROTOCOL: Axis = ("protocol", |pt, v| {
    let SweepValue::Str(s) = v else {
        return Err(format!("needs protocol names, got {v}"));
    };
    pt.protocol = Some(Protocol::parse(s).map_err(|e| format!("has an {e}"))?);
    Ok(())
});
const WIDTH: Axis = ("width", |pt, v| {
    let w = u32::try_from(int(v)?).ok().filter(|&w| w >= 2);
    pt.width = Some(w.ok_or_else(|| format!("value {v} must be at least 2"))?);
    Ok(())
});
const P: Axis = ("p", |pt, v| {
    pt.p = Some(usize::try_from(int(v)?).map_err(|_| format!("value {v} is out of range"))?);
    Ok(())
});
const LOSS: Axis = ("loss", |pt, v| {
    pt.loss = Some(check::loss(number(v)?)?);
    Ok(())
});
const PERIOD: Axis = ("period", |pt, v| {
    pt.period = Some(number(v)?);
    Ok(())
});

/// What one cell kind reports, declared once: the schema validates a
/// file against it and [`Report::tabulate`] renders and judges from it.
pub(crate) struct Report<C: 'static, R: 'static> {
    /// Every field, in report order.
    fields: &'static [Field<C, R>],
    /// The per-cell variables an expectation's right-hand side can name.
    vars: &'static [Var<C>],
    /// The sweep axes, in the order they are listed.
    axes: &'static [Axis],
    /// How an expectation failure names the cell.
    label: fn(&C) -> String,
}

/// The names a cell kind declares, for the parse-time checks.
pub(crate) struct Vocabulary {
    /// Column keys.
    pub(crate) columns: Vec<&'static str>,
    /// Expectation metrics.
    pub(crate) metrics: Vec<&'static str>,
    /// Expectation variables.
    pub(crate) vars: Vec<&'static str>,
    /// Sweep axes.
    pub(crate) axes: Vec<&'static str>,
}

/// Single-plane recovery cells, one per `(protocol, width, p, loss)`.
pub(crate) const RECOVERY: Report<RCell, RecoveryMetrics> = Report {
    fields: &[
        col("protocol", "protocol", |_, m| Text(m.protocol.to_string())),
        col("grid_n", "n (grid)", |c, _| {
            Count(u64::from(c.width * c.width))
        }),
        col("p", "perturbation p", |c, _| Count(c.p as u64)),
        both(
            "stab_time",
            "stabilization time",
            "stabilization_time",
            |_, m| Real(m.stabilization_time),
        ),
        both(
            "range",
            "contamination range",
            "contamination_range",
            |_, m| Count(m.contamination_range as u64),
        ),
        both(
            "contaminated",
            "contaminated nodes",
            "contaminated",
            |_, m| Count(m.contaminated.len() as u64),
        ),
        metric("max_contamination", |_, m| {
            Count(m.contaminated.len() as u64)
        }),
        metric("perturbed", |_, m| Count(m.perturbation_size as u64)),
        both("messages", "messages", "messages", |_, m| Count(m.messages)),
        both("flaps", "healthy-node route flaps", "flaps", |_, m| {
            Count(m.healthy_route_flaps)
        }),
        both("actions", "protocol actions", "actions", |_, m| {
            Count(m.actions)
        }),
        both(
            "routes_correct",
            "routes correct",
            "routes_correct",
            |_, m| Flag(m.routes_correct),
        ),
        metric("quiescent", |_, m| Flag(m.quiescent)),
        col("loss", "loss rate", |c, _| {
            Text(format!("{:.0}%", c.loss * 100.0))
        }),
    ],
    vars: &[
        ("width", |c| f64::from(c.width)),
        ("p", |c| c.p as f64),
        ("loss", |c| c.loss),
    ],
    axes: &[PROTOCOL, WIDTH, P, LOSS],
    label: |c| c.describe(Plane::Single),
};

/// Multi-plane recovery cells: stabilization time, messages delivered,
/// adverts delivered and acting nodes over every destination tree.
pub(crate) const MULTI: Report<RCell, (f64, u64, u64, usize)> = Report {
    fields: &[
        col("grid_n", "n (grid)", |c, _| {
            Count(u64::from(c.width * c.width))
        }),
        col("trees", "destination trees", |c, _| Count(c.trees as u64)),
        col("p", "perturbation p", |c, _| Count(c.p as u64)),
        both(
            "stab_time",
            "stabilization time",
            "stabilization_time",
            |_, m| Real(m.0),
        ),
        both(
            "messages_delivered",
            "messages delivered",
            "messages_delivered",
            |_, m| Count(m.1),
        ),
        both(
            "adverts_delivered",
            "adverts delivered",
            "adverts_delivered",
            |_, m| Count(m.2),
        ),
        both("acting", "acting nodes", "acting", |_, m| Count(m.3 as u64)),
    ],
    vars: &[
        ("width", |c| f64::from(c.width)),
        ("p", |c| c.p as f64),
        ("trees", |c| c.trees as f64),
    ],
    axes: &[WIDTH, P],
    label: |c| c.describe(Plane::Multi),
};

/// `[[fault.region]]` cases: one row per case label, every region of the
/// case corrupted in the same run.
pub(crate) const REGION_CASES: Report<RegionCase, RecoveryMetrics> = Report {
    fields: &[
        col("case", "scenario", |c, _| Text(c.0.clone())),
        both("perturbed", "total perturbed", "perturbed", |_, m| {
            Count(m.perturbation_size as u64)
        }),
        both(
            "stab_time",
            "stabilization time",
            "stabilization_time",
            |_, m| Real(m.stabilization_time),
        ),
        both(
            "range",
            "contamination range",
            "contamination_range",
            |_, m| Count(m.contamination_range as u64),
        ),
        both(
            "contaminated",
            "contaminated nodes",
            "contaminated",
            |_, m| Count(m.contaminated.len() as u64),
        ),
        metric("max_contamination", |_, m| {
            Count(m.contaminated.len() as u64)
        }),
        both("messages", "messages", "messages", |_, m| Count(m.messages)),
        both("actions", "protocol actions", "actions", |_, m| {
            Count(m.actions)
        }),
        metric("flaps", |_, m| Count(m.healthy_route_flaps)),
        both(
            "routes_correct",
            "routes correct",
            "routes_correct",
            |_, m| Flag(m.routes_correct),
        ),
        metric("quiescent", |_, m| Flag(m.quiescent)),
    ],
    vars: &[("regions", |c| c.1.len() as f64)],
    axes: &[],
    label: |c| c.0.clone(),
};

/// `[[fault.recurring]]` cells: one row per resolved period.
pub(crate) const RECURRING: Report<RecurringCellSpec, RecurringMetrics> = Report {
    fields: &[
        col("period", "interval", |c, _| Real(c.period)),
        both(
            "range",
            "contamination range",
            "contamination_range",
            |_, m| Count(m.contamination_range as u64),
        ),
        both(
            "contaminated",
            "contaminated nodes",
            "contaminated",
            |_, m| Count(m.contaminated as u64),
        ),
        both(
            "routes_correct",
            "routes correct",
            "routes_correct",
            |_, m| Flag(m.routes_correct),
        ),
        metric("quiescent", |_, m| Flag(m.quiescent)),
    ],
    vars: &[("period", |c| c.period)],
    axes: &[PERIOD],
    label: |c| format!("period={}", fmt_f64(c.period)),
};

/// Snapshot hijack cells (E13): availability sampled from frozen route
/// tables.
pub(crate) const SNAPSHOT: Report<HCell, AvailabilityTrace> = Report {
    fields: &[
        col("protocol", "protocol", |c, _| {
            Text(format!("{:?}", c.protocol))
        }),
        both(
            "min_avail",
            "min availability",
            "min_availability",
            |_, a| Fixed(a.min, 3),
        ),
        both(
            "degraded",
            "degraded seconds",
            "degraded_seconds",
            |_, a| Real(a.degraded_time),
        ),
        both(
            "lost_avail",
            "availability-seconds lost",
            "lost_availability",
            |_, a| Fixed(a.lost, 1),
        ),
    ],
    vars: &[("width", |c| f64::from(c.width)), ("p", |c| c.p as f64)],
    axes: &[PROTOCOL, P],
    label: |c| format!("protocol={} p={}", c.protocol.as_str(), c.p),
};

/// Live hijack cells (E20/E21): packets in flight while the repair waves
/// race them.
pub(crate) const LIVE: Report<HCell, LiveHijackOutcome> = Report {
    fields: &[
        col("p", "perturbation p", |c, _| Count(c.p as u64)),
        both(
            "delivered",
            "delivered fraction",
            "delivered_fraction",
            |_, o| Fixed(o.summary.delivered_fraction(), 4),
        ),
        both(
            "min_window",
            "min window availability",
            "min_window_availability",
            |_, o| Fixed(o.summary.min_window_availability, 4),
        ),
        both("lost", "packets lost", "lost", |_, o| {
            Count(o.summary.counts.injected - o.summary.counts.delivered)
        }),
        both("mean_stretch", "mean stretch", "mean_stretch", |_, o| {
            Fixed(o.summary.mean_stretch, 3)
        }),
        both("max_stretch", "max stretch", "max_stretch", |_, o| {
            Fixed(o.summary.max_stretch, 3)
        }),
        both("goodput", "goodput fraction", "goodput", |_, o| {
            Fixed(o.summary.goodput_fraction(), 4)
        }),
        both("queue_drops", "queue drops", "queue_drops", |_, o| {
            Count(o.summary.counts.queue_dropped)
        }),
        both("blackholed", "blackholed", "blackholed", |_, o| {
            Count(o.summary.counts.black_holed)
        }),
        both("peak_queue", "peak queue depth", "peak_queue", |_, o| {
            Count(o.summary.congestion.peak_port_occupancy)
        }),
        both("retransmitted", "retransmitted", "retransmitted", |_, o| {
            Count(o.summary.congestion.flow_retransmit_weight)
        }),
        both("timeouts", "flow timeouts", "timeouts", |_, o| {
            Count(o.summary.congestion.flow_timeouts)
        }),
        both("fct_mean", "mean FCT", "mean_fct", |_, o| {
            Fixed(o.summary.mean_fct, 1)
        }),
        both("fct_max", "max FCT", "max_fct", |_, o| {
            Fixed(o.summary.max_fct, 1)
        }),
    ],
    vars: &[("width", |c| f64::from(c.width)), ("p", |c| c.p as f64)],
    axes: &[P],
    label: |c| format!("p={}", c.p),
};

/// Chaos and traffic campaigns: one judged outcome, no columns.
pub(crate) const CAMPAIGN: Report<CampaignScenario, u64> = Report {
    fields: &[
        metric("violating", |_, bad| Count(*bad)),
        metric("runs", |c, _| Count(u64::from(c.runs))),
    ],
    vars: &[],
    axes: &[],
    label: |_| "campaign".to_string(),
};

impl<C, R> Report<C, R> {
    /// The declared names, for the parse-time checks.
    pub(crate) fn vocabulary(&self) -> Vocabulary {
        Vocabulary {
            columns: self
                .fields
                .iter()
                .filter_map(|f| f.column)
                .map(|c| c.0)
                .collect(),
            metrics: self.fields.iter().filter_map(|f| f.metric).collect(),
            vars: self.vars.iter().map(|v| v.0).collect(),
            axes: self.axes.iter().map(|a| a.0).collect(),
        }
    }

    /// One [`Point`] per sweep binding: `base` with the binding's axes
    /// applied.
    fn points(&self, base: Point, sweep: &Sweep) -> Result<Vec<Point>, String> {
        let mut points = Vec::new();
        for binding in sweep.expand() {
            let mut point = base;
            for (key, value) in &binding {
                let Some((_, set)) = self.axes.iter().find(|a| a.0 == key) else {
                    return Err(format!("unknown sweep axis '{key}'"));
                };
                set(&mut point, value).map_err(|e| format!("sweep axis '{key}' {e}"))?;
            }
            points.push(point);
        }
        Ok(points)
    }

    /// Judges every expectation against one cell's result. Parsing has
    /// checked each name against this declaration; a name it has not
    /// seen (a scenario edited in code) reads as NaN.
    fn judge(&self, expect: &[Expectation], cell: &C, result: &R, failures: &mut Vec<String>) {
        let metric = |name: &str| {
            let field = self.fields.iter().find(|f| f.metric == Some(name));
            field.map_or(f64::NAN, |f| (f.read)(cell, result).number())
        };
        for exp in expect {
            let lhs = metric(&exp.metric);
            let rhs = match &exp.rhs {
                Rhs::Number(x) => *x,
                Rhs::Bool(b) => f64::from(u8::from(*b)),
                Rhs::Var(name) => (self.vars.iter().find(|v| v.0 == name))
                    .map_or(f64::NAN, |(_, read)| read(cell)),
            };
            if !exp.op.holds(lhs, rhs) {
                failures.push(format!(
                    "{}: expectation '{exp}' failed ({} = {})",
                    (self.label)(cell),
                    exp.metric,
                    fmt_f64(lhs)
                ));
            }
        }
    }
}

impl<C: Send + Sync, R: Send> Report<C, R> {
    /// Runs `cells` over the sharded runner and tabulates them: one row
    /// of the report's columns per cell, every expectation judged
    /// against it. The first cell (in order) whose run fails fails the
    /// whole scenario.
    fn tabulate(
        &self,
        report: &ReportSection,
        title: String,
        cells: Vec<C>,
        run: impl Fn(&C) -> Result<R, String> + Send + Sync + 'static,
        expect: &[Expectation],
        jobs: usize,
    ) -> Result<ScenarioOutcome, String> {
        let columns: Vec<(&str, &Field<C, R>)> = (report.columns.iter())
            .filter_map(|key| {
                let header = |f: &Field<C, R>| Some(f.column.filter(|c| c.0 == key)?.1);
                self.fields.iter().find_map(|f| Some((header(f)?, f)))
            })
            .collect();
        let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
        let mut table = Table::new(title, &headers);
        let cells = Arc::new(cells);
        let shared = Arc::clone(&cells);
        let results = run_sharded(jobs, cells.len(), move |i| run(&shared[i]));
        let mut failures = Vec::new();
        for (cell, result) in cells.iter().zip(results) {
            let result = result?;
            let row: Vec<String> = columns
                .iter()
                .map(|c| (c.1.read)(cell, &result).show())
                .collect();
            table.row(&row);
            self.judge(expect, cell, &result, &mut failures);
        }
        Ok(ScenarioOutcome {
            result: ScenarioResult::Table(table),
            failures,
        })
    }
}

/// A scenario's rendered result.
#[derive(Debug, Clone)]
pub enum ScenarioResult {
    /// A report table (recovery/hijack kinds).
    Table(Table),
    /// Pre-rendered text (chaos/traffic campaigns).
    Text(String),
}

/// The outcome of running a scenario: the report plus any expectation
/// failures. Expectations are silent on pass so the report stays
/// byte-identical to the legacy path.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The rendered report.
    pub result: ScenarioResult,
    /// One message per failed expectation (empty on success).
    pub failures: Vec<String>,
}

impl ScenarioOutcome {
    /// Renders the report text (without expectation failures).
    pub fn report(&self) -> String {
        match &self.result {
            ScenarioResult::Table(t) => t.to_string(),
            ScenarioResult::Text(s) => s.clone(),
        }
    }

    /// Unwraps the table result.
    ///
    /// # Panics
    ///
    /// Panics if the scenario rendered text instead of a table.
    pub fn into_table(self) -> Table {
        match self.result {
            ScenarioResult::Table(t) => t,
            ScenarioResult::Text(_) => panic!("scenario rendered text, not a table"),
        }
    }
}

fn render_title(template: &str, subs: &[(&str, String)]) -> String {
    let mut out = template.to_string();
    for (k, v) in subs {
        out = out.replace(&format!("{{{k}}}"), v);
    }
    out
}

fn workload_spec(w: &WorkloadSection) -> WorkloadSpec {
    WorkloadSpec {
        kind: w.kind,
        mode: if w.exact {
            TrafficMode::Exact
        } else {
            TrafficMode::default()
        },
        flows: w.flows,
        rate: w.rate,
    }
}

// ---------------------------------------------------------------------
// Chaos / traffic lowering
// ---------------------------------------------------------------------

/// How a scenario run is executed: `jobs` worker shards fan cells out
/// across threads, and `regions` partitions the engine *inside* each
/// cell (the region-parallel executor). Both default to 1 — fully
/// sequential — and neither may change the rendered report: cell
/// sharding merges in cell-index order, and the region executor is
/// observationally byte-identical to the sequential engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker shards for the cell fan-out (the `--jobs` flag).
    pub jobs: usize,
    /// Region partitions for each cell's engine (the `--regions` flag).
    /// Applies to the engine-backed chaos/traffic lowerings; recovery
    /// and hijack cells stay sequential.
    pub regions: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            regions: 1,
        }
    }
}

impl ExecOptions {
    /// Sequential engines fanned over `jobs` cell shards — the
    /// historical `--jobs N` behavior.
    #[must_use]
    pub fn sharded(jobs: usize) -> Self {
        Self { jobs, regions: 1 }
    }

    /// Partitions each cell's engine into `regions` (clamped to ≥ 1).
    #[must_use]
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Applies the in-run knobs to a cell's engine config. The engine's
    /// window workers reuse the shard count only when the engine is
    /// actually partitioned, so sequential cells never pay for thread
    /// spawns.
    fn engine(self, base: EngineConfig) -> EngineConfig {
        if self.regions > 1 {
            base.with_regions(self.regions).with_jobs(self.jobs.max(1))
        } else {
            base
        }
    }
}

/// Installs a `[trace]` section's streaming sink on an engine config.
/// With no section this is a no-op, keeping the run byte-identical to
/// the pre-trace engine. The campaign loops hand the one-shot factory
/// only to run 0, so a traced campaign streams its first run.
fn install_trace(
    engine: &mut EngineConfig,
    c: &CampaignScenario,
    topology: &str,
) -> Result<(), String> {
    let Some(trace) = &c.trace else {
        return Ok(());
    };
    if c.destinations.is_some() {
        // Parse-time validation catches this for scenario files; the
        // flag-built CLI path lands here.
        return Err(
            "tracing is not supported on multi-destination campaigns (drop --destinations)"
                .to_string(),
        );
    }
    let factory = lsrp_trace::streaming_factory(trace.config(topology), engine.sink)
        .map_err(|e| format!("cannot open trace file '{}': {e}", trace.path))?;
    *engine = engine.clone().with_sink_factory(factory);
    Ok(())
}

/// Lowers and runs a `chaos` campaign, or a `traffic` one when `traffic`
/// is set, and returns the report with its violating-run count. Only a
/// single-destination chaos campaign appends a minimized repro per
/// violating run.
fn campaign_report(
    c: &CampaignScenario,
    traffic: Option<&TrafficScenario>,
    opts: ExecOptions,
) -> Result<(String, u64), String> {
    let (graph, natural_dest) = c.topology.build(c.topology_seed());
    let dest = c.destination.unwrap_or(natural_dest);
    if !graph.has_node(dest) {
        return Err(format!("destination {dest} is not in the topology"));
    }
    let topology = c.topology.to_string();
    let mut engine = EngineConfig::default();
    if let Some(t) = traffic {
        engine = engine.with_congestion(t.congestion.config());
    }
    let mut chaos = ChaosConfig {
        horizon: c.horizon,
        fault_window: c.faults.window,
        process: c.faults.process,
        engine: opts.engine(engine),
        ..ChaosConfig::default()
    };
    install_trace(&mut chaos.engine, c, &topology)?;
    let target = match c.destinations {
        Some(spec) => Target::Destinations(spec.resolve(&graph)?),
        None => Target::Destination(dest),
    };
    let config = match traffic {
        None => CampaignConfig::Chaos(chaos),
        Some(t) => CampaignConfig::Traffic(TrafficConfig {
            chaos,
            transport: t.congestion.cc,
            workload: workload_spec(&t.workload),
            duration: t.duration,
            ..TrafficConfig::default()
        }),
    };
    let seeds = c.seed..c.seed + u64::from(c.runs);
    let campaign = run_campaign(&graph, &topology, target, config, seeds, opts.jobs);
    let mut out = campaign.report();
    if let (Target::Destination(dest), CampaignConfig::Chaos(config)) =
        (&campaign.target, &campaign.config)
    {
        for run in campaign.violating() {
            let (minimized, violation) = minimize_run(&graph, *dest, config, run);
            let repro = ReproCase {
                topology: topology.clone(),
                topology_seed: c.topology_seed(),
                destination: *dest,
                seed: run.seed,
                schedule: minimized,
            };
            let _ = write!(
                out,
                "\nminimized repro for seed {} ({violation}):\n{}",
                run.seed,
                repro.to_text()
            );
        }
    }
    Ok((out, campaign.violating().count() as u64))
}

// ---------------------------------------------------------------------
// Recovery and hijack cells
// ---------------------------------------------------------------------

/// One resolved recovery cell (fixed fields + sweep binding applied).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RCell {
    protocol: Option<Protocol>,
    width: u32,
    p: usize,
    loss: f64,
    trees: usize,
    seed: u64,
    model: EngineModel,
}

impl RCell {
    fn describe(&self, plane: Plane) -> String {
        let mut s = String::new();
        if let Some(p) = self.protocol {
            let _ = write!(s, "protocol={} ", p.as_str());
        }
        let _ = write!(s, "width={} p={}", self.width, self.p);
        if plane == Plane::Multi {
            let _ = write!(s, " trees={}", self.trees);
        }
        if let EngineModel::Lossy { loss, .. } = self.model {
            let _ = write!(s, " loss={}", fmt_float(loss));
        }
        let _ = write!(s, " seed={}", self.seed);
        s
    }
}

fn expand_recovery(r: &RecoveryScenario) -> Result<Vec<RCell>, String> {
    let base = Point {
        protocol: r.protocol,
        width: r.width,
        p: r.p,
        ..Point::default()
    };
    let points = match r.plane {
        Plane::Single => RECOVERY.points(base, &r.sweep)?,
        Plane::Multi => MULTI.points(base, &r.sweep)?,
    };
    let lossy = r.engine.loss.is_some()
        || r.engine.syn_period.is_some()
        || points.iter().any(|pt| pt.loss.is_some());
    let mut cells = Vec::new();
    for pt in points {
        if pt.protocol.is_none() && r.plane == Plane::Single {
            return Err(
                "recovery cell needs a protocol (set [recovery] protocol or sweep it)".to_string(),
            );
        }
        let width = pt
            .width
            .ok_or("recovery cell needs a width (set [recovery] width or sweep it)")?;
        let p =
            pt.p.ok_or("recovery cell needs a p (set [recovery] p or sweep it)")?;
        let loss = pt.loss.or(r.engine.loss).unwrap_or(0.0);
        let seed = match r.seed_mode {
            SeedMode::Fixed => r.seed,
            SeedMode::PlusWidth => r.seed + u64::from(width),
        };
        let model = if let (Some(jitter), Some(rho)) = (r.engine.jitter, r.engine.clock_rho) {
            EngineModel::Harsh { jitter, rho }
        } else if lossy {
            EngineModel::Lossy {
                loss,
                syn_period: r.engine.syn_period.unwrap_or(5.0),
            }
        } else {
            EngineModel::Ideal
        };
        let n = (width * width) as usize;
        let trees = match r.destinations {
            None | Some(DestinationsSpec::AllPairs) => n,
            Some(DestinationsSpec::Count(c)) => (c as usize).min(n),
        };
        cells.push(RCell {
            protocol: pt.protocol,
            width,
            p,
            loss,
            trees,
            seed,
            model,
        });
    }
    grid_fits(cells.iter().map(|c| (c.width, corner(c.width), c.p)))
        .map_err(|(i, e)| format!("{}: {e}", cells[i].describe(r.plane)))?;
    Ok(cells)
}

/// One `[[fault.region]]` table row: the case label plus its concurrent
/// `(seed node, size)` regions.
pub(crate) type RegionCase = (String, Vec<(NodeId, usize)>);

/// Builds a `[[fault.region]]` scenario's topology and groups its
/// regions into `(case label, regions)` rows in first-appearance order,
/// applying the `[recovery]` `p` default size; every region must fit.
fn region_cases(r: &RecoveryScenario) -> Result<(Graph, NodeId, Vec<RegionCase>), String> {
    let spec = r
        .topology
        .as_ref()
        .ok_or("[[fault.region]] cases need a [topology] section")?;
    let (graph, dest) = spec.build(r.topology_seed.unwrap_or(r.seed));
    let mut cases: Vec<RegionCase> = Vec::new();
    for reg in &r.regions {
        let size = reg.size.or(r.p).ok_or_else(|| {
            format!(
                "[[fault.region]] '{}' needs a 'size' (or a [recovery] p default)",
                reg.case
            )
        })?;
        region(&graph, reg.seed_node, size, dest).map_err(|e| format!("{}: {e}", reg.case))?;
        match cases.iter_mut().find(|(c, _)| *c == reg.case) {
            Some((_, v)) => v.push((reg.seed_node, size)),
            None => cases.push((reg.case.clone(), vec![(reg.seed_node, size)])),
        }
    }
    Ok((graph, dest, cases))
}

/// Resolves the `[[fault.recurring]]` tables into one cell per resolved
/// period: every table's region is corrupted together at each
/// occurrence, and the sweep's `period` axis (when present) overrides
/// the per-table period.
fn expand_recurring(r: &RecoveryScenario) -> Result<Vec<RecurringCellSpec>, String> {
    let width = r
        .width
        .ok_or("[[fault.recurring]] needs a fixed [recovery] 'width'")?;
    let first = &r.recurring[0];
    for rec in &r.recurring[1..] {
        if rec.period != first.period
            || rec.jitter != first.jitter
            || rec.occurrences != first.occurrences
        {
            return Err(format!(
                "[[fault.recurring]] tables disagree on the schedule (seed_node {} vs {}): \
                 period, jitter and occurrences must match across tables",
                first.seed_node.raw(),
                rec.seed_node.raw()
            ));
        }
    }
    let mut regions = Vec::new();
    for rec in &r.recurring {
        let size = rec.size.or(r.p).ok_or_else(|| {
            format!(
                "[[fault.recurring]] seed_node {} needs a 'size' (or a [recovery] p default)",
                rec.seed_node.raw()
            )
        })?;
        regions.push((rec.seed_node, size));
    }
    grid_fits(regions.iter().map(|&(seed, size)| (width, seed, size)))
        .map_err(|(_, e)| format!("[[fault.recurring]]: {e}"))?;
    let base = Point {
        period: first.period,
        ..Point::default()
    };
    let mut cells = Vec::new();
    for pt in RECURRING.points(base, &r.sweep)? {
        let period = match pt.period {
            Some(p) if p > 0.0 => p,
            Some(p) => return Err(format!("recurring fault period must be positive, got {p}")),
            None => {
                return Err(
                    "recurring cell needs a period (set it on [[fault.recurring]] or sweep it)"
                        .to_string(),
                )
            }
        };
        if first.jitter >= period {
            return Err(format!(
                "recurring fault jitter {} must be smaller than the period {period} \
                 (a gap must stay positive)",
                first.jitter
            ));
        }
        cells.push(RecurringCellSpec {
            width,
            regions: regions.clone(),
            period,
            jitter: first.jitter,
            occurrences: first.occurrences,
            seed: r.seed,
        });
    }
    Ok(cells)
}

/// The `require_correct` gate of a recovery scenario: a cell that did not
/// settle to correct routes fails the whole run with an error naming it
/// (what a scenario file asks for must never panic the binary).
fn require_recovered(
    quiescent: bool,
    routes_correct: bool,
    cell: impl FnOnce() -> String,
) -> Result<(), String> {
    if quiescent && routes_correct {
        return Ok(());
    }
    Err(format!(
        "recovery cell did not recover (quiescent={quiescent}, routes_correct={routes_correct}): {}",
        cell()
    ))
}

fn run_recovery(
    r: &RecoveryScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    let title = render_title(&r.report.title, &r.title_subs());
    let require = r.require_correct;
    if !r.regions.is_empty() {
        let (graph, dest, cases) = region_cases(r)?;
        let (protocol, seed) = (r.protocol.unwrap_or(Protocol::Lsrp), r.seed);
        let run = move |(label, regions): &RegionCase| {
            let m = region_case_cell(protocol, &graph, dest, regions, seed);
            if require {
                require_recovered(m.quiescent, m.routes_correct, || label.clone())?;
            }
            Ok(m)
        };
        return REGION_CASES.tabulate(&r.report, title, cases, run, expect, jobs);
    }
    if !r.recurring.is_empty() {
        let run = move |c: &RecurringCellSpec| {
            let m = recurring_cell(c);
            let label = || (RECURRING.label)(c);
            require_recovered(m.quiescent, m.routes_correct || !require, label)?;
            Ok(m)
        };
        return RECURRING.tabulate(&r.report, title, expand_recurring(r)?, run, expect, jobs);
    }
    let cells = expand_recovery(r)?;
    match r.plane {
        Plane::Single => {
            let fault = r.fault;
            let run = move |c: &RCell| {
                let m = recovery_cell(&RecoveryCellSpec {
                    protocol: c.protocol.ok_or("recovery cell needs a protocol")?,
                    width: c.width,
                    p: c.p,
                    seed: c.seed,
                    fault,
                    model: c.model,
                });
                if require {
                    require_recovered(m.quiescent, m.routes_correct, || (RECOVERY.label)(c))?;
                }
                Ok(m)
            };
            RECOVERY.tabulate(&r.report, title, cells, run, expect, jobs)
        }
        Plane::Multi => {
            let run = |c: &RCell| Ok(multi_recovery_cell(c.width, c.p, c.trees, c.seed));
            MULTI.tabulate(&r.report, title, cells, run, expect, jobs)
        }
    }
}

/// One resolved hijack cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HCell {
    protocol: Protocol,
    width: u32,
    p: usize,
}

/// Resolves a hijack scenario's sweep; a live cell runs LSRP.
fn expand_hijack(h: &HijackScenario) -> Result<Vec<HCell>, String> {
    let base = Point {
        protocol: h.protocol,
        p: h.p,
        ..Point::default()
    };
    let (points, label) = match h.mode {
        HijackMode::Snapshot => (SNAPSHOT.points(base, &h.sweep)?, SNAPSHOT.label),
        HijackMode::Live => (LIVE.points(base, &h.sweep)?, LIVE.label),
    };
    let mut cells = Vec::new();
    for pt in points {
        let protocol = match (pt.protocol, h.mode) {
            (Some(protocol), _) => protocol,
            (None, HijackMode::Live) => Protocol::Lsrp,
            (None, HijackMode::Snapshot) => {
                return Err(
                    "snapshot hijack cell needs a protocol (set [hijack] protocol or sweep it)"
                        .to_string(),
                )
            }
        };
        let p =
            pt.p.ok_or("hijack cell needs a p (set [hijack] p or sweep it)")?;
        cells.push(HCell {
            protocol,
            width: h.width,
            p,
        });
    }
    grid_fits(cells.iter().map(|c| (c.width, corner(c.width), c.p)))
        .map_err(|(i, e)| format!("{}: {e}", label(&cells[i])))?;
    Ok(cells)
}

fn run_hijack(
    h: &HijackScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    let cells = expand_hijack(h)?;
    let title = render_title(&h.report.title, &h.title_subs());
    let seed = h.seed;
    match h.mode {
        HijackMode::Snapshot => {
            let sample_every = h.sample_every;
            let run = move |c: &HCell| {
                let trace = snapshot_hijack_cell(c.protocol, c.width, c.p, seed, sample_every);
                Ok(trace)
            };
            SNAPSHOT.tabulate(&h.report, title, cells, run, expect, jobs)
        }
        HijackMode::Live => {
            let (workload, duration) = (workload_spec(&h.workload), h.duration);
            let (prefault, window) = (h.prefault, h.window);
            let congestion = h.congestion.as_ref().map(CongestionSection::config);
            let transport = h.congestion.as_ref().and_then(|c| c.cc);
            let run = move |c: &HCell| {
                Ok(live_hijack_cell(&LiveHijackSpec {
                    width: c.width,
                    p: c.p,
                    seed,
                    workload,
                    duration,
                    prefault,
                    window,
                    congestion,
                    transport,
                }))
            };
            LIVE.tabulate(&h.report, title, cells, run, expect, jobs)
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Runs a scenario under the given execution options. The report is
/// byte-identical for any `jobs` and `regions` value.
///
/// # Errors
///
/// Returns a message when the scenario cannot be lowered (bad cell
/// resolution) or a campaign rejects its inputs.
pub fn run_scenario(s: &Scenario, opts: ExecOptions) -> Result<ScenarioOutcome, String> {
    let (c, traffic) = match &s.body {
        ScenarioBody::Chaos(c) => (c, None),
        ScenarioBody::Traffic(t) => (&t.base, Some(t)),
        ScenarioBody::Recovery(r) => return run_recovery(r, opts.jobs, &s.expect),
        ScenarioBody::Hijack(h) => return run_hijack(h, opts.jobs, &s.expect),
    };
    let (text, bad) = campaign_report(c, traffic, opts)?;
    let mut failures = Vec::new();
    CAMPAIGN.judge(&s.expect, c, &bad, &mut failures);
    Ok(ScenarioOutcome {
        result: ScenarioResult::Text(text),
        failures,
    })
}

/// `(seed node, size)` regions as `16+4, 48+4`: raw ids, as the file
/// writes them.
fn regions_text(regions: &[(NodeId, usize)]) -> String {
    let parts: Vec<String> = regions
        .iter()
        .map(|(n, size)| format!("{}+{size}", n.raw()))
        .collect();
    parts.join(", ")
}

/// Statically expands a scenario into one human-readable line per cell
/// (the `lsrp scenario expand` output). Also serves as the deep
/// validation pass behind `lsrp scenario check`: every sweep binding is
/// resolved against the fixed fields, and every region checked to fit
/// its topology, without running anything.
///
/// # Errors
///
/// Returns the same cell-resolution errors `run` would hit.
pub fn expand_list(s: &Scenario) -> Result<Vec<String>, String> {
    match &s.body {
        ScenarioBody::Chaos(c) => Ok(vec![format!(
            "chaos campaign: topology {} destination {} runs {} seed {} horizon {}",
            c.topology,
            c.destination
                .map_or_else(|| "auto".to_string(), |d| d.raw().to_string()),
            c.runs,
            c.seed,
            fmt_float(c.horizon)
        )]),
        ScenarioBody::Traffic(t) => Ok(vec![format!(
            "traffic campaign: topology {} runs {} seed {} duration {} flows {}",
            t.base.topology,
            t.base.runs,
            t.base.seed,
            fmt_float(t.duration),
            t.workload.flows
        )]),
        ScenarioBody::Recovery(r) if !r.regions.is_empty() => {
            let (_, _, cases) = region_cases(r)?;
            let spec = r
                .topology
                .as_ref()
                .map_or_else(String::new, ToString::to_string);
            let line = |(i, (label, regions)): (usize, &RegionCase)| {
                let regions = regions_text(regions);
                format!(
                    "case {i}: {label} — topology {spec} regions [{regions}] seed {}",
                    r.seed
                )
            };
            Ok(cases.iter().enumerate().map(line).collect())
        }
        ScenarioBody::Recovery(r) if !r.recurring.is_empty() => {
            let line = |(i, c): (usize, &RecurringCellSpec)| {
                let mut s = format!(
                    "cell {i}: width={} regions [{}] period={} occurrences={}",
                    c.width,
                    regions_text(&c.regions),
                    fmt_float(c.period),
                    c.occurrences
                );
                if c.jitter > 0.0 {
                    let _ = write!(s, " jitter={}", fmt_float(c.jitter));
                }
                let _ = write!(s, " seed={}", c.seed);
                s
            };
            Ok(expand_recurring(r)?.iter().enumerate().map(line).collect())
        }
        ScenarioBody::Recovery(r) => Ok(expand_recovery(r)?
            .iter()
            .enumerate()
            .map(|(i, c)| format!("cell {i}: {}", c.describe(r.plane)))
            .collect()),
        ScenarioBody::Hijack(h) => {
            let named = h.mode == HijackMode::Snapshot || h.protocol.is_some();
            let cells = expand_hijack(h)?;
            Ok(cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut s = format!("cell {i}: ");
                    if named {
                        let _ = write!(s, "protocol={} ", c.protocol.as_str());
                    }
                    let _ = write!(s, "width={} p={} seed={}", h.width, c.p, h.seed);
                    s
                })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_each_thing_once<C, R>(report: &Report<C, R>) {
        let v = report.vocabulary();
        for names in [v.columns, v.metrics, v.vars, v.axes] {
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{names:?}");
        }
    }

    #[test]
    fn every_declaration_names_each_column_metric_variable_and_axis_once() {
        names_each_thing_once(&RECOVERY);
        names_each_thing_once(&MULTI);
        names_each_thing_once(&REGION_CASES);
        names_each_thing_once(&RECURRING);
        names_each_thing_once(&SNAPSHOT);
        names_each_thing_once(&LIVE);
        names_each_thing_once(&CAMPAIGN);
    }
}
