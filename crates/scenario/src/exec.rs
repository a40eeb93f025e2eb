//! The campaign compiler: expands a parsed [`Scenario`] into concrete
//! cells, runs them on the deterministic sharded runner and renders the
//! exact report the hand-coded experiment paths produced.
//!
//! Every cell is a pure function of its spec, and [`run_sharded`]
//! merges shard results back in cell-index order — so the rendered
//! report is byte-identical for any `--jobs` value, and byte-identical
//! to the legacy serial loops the scenario files replaced.

use std::fmt::Write as _;

use lsrp_analysis::table::fmt_f64;
use lsrp_analysis::{
    minimize_run, run_campaign, run_sharded, CampaignConfig, ChaosConfig, ReproCase, Table, Target,
    TrafficConfig, TrafficMode, WorkloadSpec,
};
use lsrp_sim::EngineConfig;

use lsrp_graph::NodeId;

use crate::cells::{
    live_hijack_cell, multi_recovery_cell, recovery_cell, recurring_cell, region_case_cell,
    snapshot_hijack_cell, EngineModel, LiveHijackSpec, Protocol, RecoveryCellSpec,
    RecurringCellSpec,
};
use crate::schema::{
    Binding, CampaignScenario, Expectation, HijackMode, HijackScenario, Plane, RecoveryScenario,
    Rhs, Scenario, ScenarioBody, SeedMode, SweepValue, TrafficScenario, WorkloadSection,
};
use crate::spec::DestinationsSpec;

/// Column keys a single-plane recovery scenario may report.
pub const RECOVERY_COLUMNS: &[&str] = &[
    "protocol",
    "grid_n",
    "p",
    "stab_time",
    "range",
    "contaminated",
    "messages",
    "flaps",
    "actions",
    "routes_correct",
    "loss",
];

/// Column keys a `[[fault.region]]` multi-region recovery scenario may
/// report (one row per case).
pub const REGION_CASE_COLUMNS: &[&str] = &[
    "case",
    "perturbed",
    "stab_time",
    "range",
    "contaminated",
    "messages",
    "actions",
    "routes_correct",
];

/// Column keys a `[[fault.recurring]]` recovery scenario may report
/// (one row per resolved period).
pub const RECURRING_COLUMNS: &[&str] = &["period", "range", "contaminated", "routes_correct"];

/// Column keys a multi-plane recovery scenario may report.
pub const RECOVERY_MULTI_COLUMNS: &[&str] = &[
    "grid_n",
    "trees",
    "p",
    "stab_time",
    "messages_delivered",
    "adverts_delivered",
    "acting",
];

/// Column keys a live hijack scenario may report.
pub const HIJACK_LIVE_COLUMNS: &[&str] = &[
    "p",
    "delivered",
    "min_window",
    "lost",
    "mean_stretch",
    "max_stretch",
    "goodput",
    "queue_drops",
    "blackholed",
    "peak_queue",
    "retransmitted",
    "timeouts",
    "fct_mean",
    "fct_max",
];

/// Column keys a snapshot hijack scenario may report.
pub const HIJACK_SNAPSHOT_COLUMNS: &[&str] = &["protocol", "min_avail", "degraded", "lost_avail"];

/// The exact legacy header a column key renders as.
///
/// # Panics
///
/// Panics on a key outside the vocabulary (the schema validates keys at
/// parse time, so this is unreachable from a loaded scenario).
pub fn column_header(key: &str) -> &'static str {
    match key {
        "protocol" => "protocol",
        "grid_n" => "n (grid)",
        "p" => "perturbation p",
        "period" => "interval",
        "case" => "scenario",
        "perturbed" => "total perturbed",
        "stab_time" => "stabilization time",
        "range" => "contamination range",
        "contaminated" => "contaminated nodes",
        "messages" => "messages",
        "flaps" => "healthy-node route flaps",
        "actions" => "protocol actions",
        "routes_correct" => "routes correct",
        "loss" => "loss rate",
        "trees" => "destination trees",
        "messages_delivered" => "messages delivered",
        "adverts_delivered" => "adverts delivered",
        "acting" => "acting nodes",
        "delivered" => "delivered fraction",
        "min_window" => "min window availability",
        "lost" => "packets lost",
        "mean_stretch" => "mean stretch",
        "max_stretch" => "max stretch",
        "goodput" => "goodput fraction",
        "queue_drops" => "queue drops",
        "blackholed" => "blackholed",
        "peak_queue" => "peak queue depth",
        "retransmitted" => "retransmitted",
        "timeouts" => "flow timeouts",
        "fct_mean" => "mean FCT",
        "fct_max" => "max FCT",
        "min_avail" => "min availability",
        "degraded" => "degraded seconds",
        "lost_avail" => "availability-seconds lost",
        other => panic!("column key '{other}' escaped schema validation"),
    }
}

/// The expectation metrics a scenario body can evaluate.
pub fn expect_vocabulary(body: &ScenarioBody) -> &'static [&'static str] {
    match body {
        ScenarioBody::Chaos(_) | ScenarioBody::Traffic(_) => &["violating", "runs"],
        ScenarioBody::Recovery(r) if r.plane == Plane::Multi => &[
            "stabilization_time",
            "messages_delivered",
            "adverts_delivered",
            "acting",
        ],
        ScenarioBody::Recovery(r) if !r.recurring.is_empty() => &[
            "contamination_range",
            "contaminated",
            "routes_correct",
            "quiescent",
        ],
        ScenarioBody::Recovery(_) => &[
            "stabilization_time",
            "contamination_range",
            "max_contamination",
            "contaminated",
            "perturbed",
            "messages",
            "actions",
            "flaps",
            "routes_correct",
            "quiescent",
        ],
        ScenarioBody::Hijack(h) if h.mode == HijackMode::Snapshot => {
            &["min_availability", "degraded_seconds", "lost_availability"]
        }
        ScenarioBody::Hijack(_) => &[
            "delivered_fraction",
            "min_window_availability",
            "goodput",
            "lost",
            "queue_drops",
            "blackholed",
            "peak_queue",
            "retransmitted",
            "timeouts",
            "mean_fct",
            "max_fct",
            "mean_stretch",
            "max_stretch",
        ],
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

// ---------------------------------------------------------------------
// Binding helpers
// ---------------------------------------------------------------------

fn bind<'a>(binding: &'a Binding, key: &str) -> Option<&'a SweepValue> {
    binding.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn bind_usize(binding: &Binding, key: &str) -> Result<Option<usize>, String> {
    match bind(binding, key) {
        None => Ok(None),
        Some(SweepValue::Int(i)) => usize::try_from(*i)
            .map(Some)
            .map_err(|_| format!("sweep axis '{key}' value {i} is out of range")),
        Some(other) => Err(format!(
            "sweep axis '{key}' needs integer values, got {other}"
        )),
    }
}

fn bind_f64(binding: &Binding, key: &str) -> Result<Option<f64>, String> {
    match bind(binding, key) {
        None => Ok(None),
        Some(SweepValue::Float(x)) => Ok(Some(*x)),
        #[allow(clippy::cast_precision_loss)]
        Some(SweepValue::Int(i)) => Ok(Some(*i as f64)),
        Some(other) => Err(format!(
            "sweep axis '{key}' needs number values, got {other}"
        )),
    }
}

fn bind_protocol(binding: &Binding, key: &str) -> Result<Option<Protocol>, String> {
    match bind(binding, key) {
        None => Ok(None),
        Some(SweepValue::Str(s)) => Protocol::parse(s)
            .map(Some)
            .map_err(|e| format!("sweep axis '{key}': {e}")),
        Some(other) => Err(format!(
            "sweep axis '{key}' needs protocol names, got {other}"
        )),
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
// Expectation evaluation
// ---------------------------------------------------------------------

fn eval_expectations(
    expect: &[Expectation],
    metrics: &[(&str, f64)],
    vars: &[(&str, f64)],
    cell: &str,
    failures: &mut Vec<String>,
) {
    for exp in expect {
        let Some(&(_, lhs)) = metrics.iter().find(|(k, _)| *k == exp.metric) else {
            failures.push(format!(
                "{cell}: expectation '{exp}' — metric '{}' is not produced by this scenario",
                exp.metric
            ));
            continue;
        };
        let rhs = match &exp.rhs {
            Rhs::Number(x) => *x,
            Rhs::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Rhs::Var(name) => match vars.iter().find(|(k, _)| k == name) {
                Some(&(_, v)) => v,
                None => {
                    failures.push(format!(
                        "{cell}: expectation '{exp}' — unknown variable '{name}'"
                    ));
                    continue;
                }
            },
        };
        if !exp.op.holds(lhs, rhs) {
            failures.push(format!(
                "{cell}: expectation '{exp}' failed ({} = {})",
                exp.metric,
                fmt_f64(lhs)
            ));
        }
    }
}

fn bool_metric(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
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
// Recovery execution
// ---------------------------------------------------------------------

/// One resolved recovery cell (fixed fields + sweep binding applied).
#[derive(Debug, Clone, Copy)]
struct RCell {
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
            let _ = write!(s, " loss={}", crate::toml::fmt_float(loss));
        }
        let _ = write!(s, " seed={}", self.seed);
        s
    }
}

fn sweep_has(r: &RecoveryScenario, key: &str) -> bool {
    r.sweep.axes.iter().any(|(k, _)| k == key)
        || r.sweep
            .cases
            .iter()
            .any(|c| c.iter().any(|(k, _)| k == key))
}

fn expand_recovery(r: &RecoveryScenario) -> Result<Vec<RCell>, String> {
    let lossy = r.engine.loss.is_some() || r.engine.syn_period.is_some() || sweep_has(r, "loss");
    let mut cells = Vec::new();
    for binding in r.sweep.expand() {
        let protocol = bind_protocol(&binding, "protocol")?.or(r.protocol);
        if protocol.is_none() && r.plane == Plane::Single {
            return Err(
                "recovery cell needs a protocol (set [recovery] protocol or sweep it)".to_string(),
            );
        }
        let width = match bind_usize(&binding, "width")? {
            Some(w) => u32::try_from(w)
                .map_err(|_| format!("sweep axis 'width' value {w} is out of range"))?,
            None => r
                .width
                .ok_or("recovery cell needs a width (set [recovery] width or sweep it)")?,
        };
        let p = match bind_usize(&binding, "p")? {
            Some(p) => p,
            None => {
                r.p.ok_or("recovery cell needs a p (set [recovery] p or sweep it)")?
            }
        };
        let loss = bind_f64(&binding, "loss")?.or(r.engine.loss).unwrap_or(0.0);
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
            protocol,
            width,
            p,
            loss,
            trees,
            seed,
            model,
        });
    }
    Ok(cells)
}

fn recovery_col(key: &str, cell: &RCell, m: &lsrp_analysis::RecoveryMetrics) -> String {
    match key {
        "protocol" => m.protocol.to_string(),
        "grid_n" => format!("{}", cell.width * cell.width),
        "p" => cell.p.to_string(),
        "stab_time" => fmt_f64(m.stabilization_time),
        "range" => m.contamination_range.to_string(),
        "contaminated" => m.contaminated.len().to_string(),
        "messages" => m.messages.to_string(),
        "flaps" => m.healthy_route_flaps.to_string(),
        "actions" => m.actions.to_string(),
        "routes_correct" => m.routes_correct.to_string(),
        "loss" => format!("{:.0}%", cell.loss * 100.0),
        other => panic!("column key '{other}' escaped schema validation"),
    }
}

fn recovery_title_subs(r: &RecoveryScenario) -> Vec<(&'static str, String)> {
    let mut subs = Vec::new();
    if let Some(w) = r.width {
        subs.push(("width", w.to_string()));
    }
    if let Some(p) = r.p {
        subs.push(("p", p.to_string()));
    }
    let dests = match r.destinations {
        None | Some(DestinationsSpec::AllPairs) => "all-pairs".to_string(),
        Some(DestinationsSpec::Count(n)) => n.to_string(),
    };
    subs.push(("dests", dests));
    subs
}

/// One `[[fault.region]]` table row: the case label plus its concurrent
/// `(seed node, size)` regions.
type RegionCase = (String, Vec<(NodeId, usize)>);

/// Groups `[[fault.region]]` entries into `(case label, regions)` rows
/// in first-appearance order, applying the `[recovery]` `p` default
/// size.
fn region_cases(r: &RecoveryScenario) -> Result<Vec<RegionCase>, String> {
    let mut cases: Vec<RegionCase> = Vec::new();
    for reg in &r.regions {
        let size = reg.size.or(r.p).ok_or_else(|| {
            format!(
                "[[fault.region]] '{}' needs a 'size' (or a [recovery] p default)",
                reg.case
            )
        })?;
        match cases.iter_mut().find(|(c, _)| *c == reg.case) {
            Some((_, v)) => v.push((reg.seed_node, size)),
            None => cases.push((reg.case.clone(), vec![(reg.seed_node, size)])),
        }
    }
    Ok(cases)
}

/// Runs the `[[fault.region]]` path of a recovery scenario: one row per
/// case, each case corrupting all its regions concurrently in a single
/// run (E7, Lemmas 2–3).
fn run_region_cases(
    r: &RecoveryScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    let spec = r.topology.as_ref().expect("validated at parse time");
    let (graph, dest) = spec.build(r.topology_seed.unwrap_or(r.seed));
    let cases = region_cases(r)?;
    let protocol = r.protocol.unwrap_or(Protocol::Lsrp);
    let headers: Vec<&str> = r.report.columns.iter().map(|c| column_header(c)).collect();
    let title = render_title(&r.report.title, &recovery_title_subs(r));
    let mut table = Table::new(title, &headers);
    let mut failures = Vec::new();
    let seed = r.seed;
    let specs: Vec<Vec<(NodeId, usize)>> = cases.iter().map(|(_, v)| v.clone()).collect();
    let results = run_sharded(jobs, specs.len(), move |i| {
        region_case_cell(protocol, &graph, dest, &specs[i], seed)
    });
    for ((label, regions), m) in cases.iter().zip(&results) {
        if r.require_correct {
            require_recovered(m.quiescent, m.routes_correct, label)?;
        }
        let row: Vec<String> = r
            .report
            .columns
            .iter()
            .map(|key| match key.as_str() {
                "case" => label.clone(),
                "perturbed" => m.perturbation_size.to_string(),
                "stab_time" => fmt_f64(m.stabilization_time),
                "range" => m.contamination_range.to_string(),
                "contaminated" => m.contaminated.len().to_string(),
                "messages" => m.messages.to_string(),
                "actions" => m.actions.to_string(),
                "routes_correct" => m.routes_correct.to_string(),
                other => panic!("column key '{other}' escaped schema validation"),
            })
            .collect();
        table.row(&row);
        #[allow(clippy::cast_precision_loss)]
        let metrics: Vec<(&str, f64)> = vec![
            ("stabilization_time", m.stabilization_time),
            ("contamination_range", m.contamination_range as f64),
            ("max_contamination", m.contaminated.len() as f64),
            ("contaminated", m.contaminated.len() as f64),
            ("perturbed", m.perturbation_size as f64),
            ("messages", m.messages as f64),
            ("actions", m.actions as f64),
            ("flaps", m.healthy_route_flaps as f64),
            ("routes_correct", bool_metric(m.routes_correct)),
            ("quiescent", bool_metric(m.quiescent)),
        ];
        #[allow(clippy::cast_precision_loss)]
        let vars: Vec<(&str, f64)> = vec![("regions", regions.len() as f64)];
        eval_expectations(expect, &metrics, &vars, label, &mut failures);
    }
    Ok(ScenarioOutcome {
        result: ScenarioResult::Table(table),
        failures,
    })
}

/// Resolves the `[[fault.recurring]]` tables into one cell per resolved
/// period: every table's region is corrupted together at each
/// occurrence, and the sweep's `period` axis (when present) overrides
/// the per-table period.
fn expand_recurring(r: &RecoveryScenario) -> Result<Vec<RecurringCellSpec>, String> {
    let width = r.width.expect("validated at parse time");
    let first = &r.recurring[0];
    for rec in &r.recurring[1..] {
        if rec.period != first.period
            || rec.jitter != first.jitter
            || rec.occurrences != first.occurrences
        {
            return Err(format!(
                "[[fault.recurring]] tables disagree on the schedule (seed_node {} vs {}): \
                 period, jitter and occurrences must match across tables",
                first.seed_node, rec.seed_node
            ));
        }
    }
    let mut regions = Vec::new();
    for rec in &r.recurring {
        let size = rec.size.or(r.p).ok_or_else(|| {
            format!(
                "[[fault.recurring]] seed_node {} needs a 'size' (or a [recovery] p default)",
                rec.seed_node
            )
        })?;
        regions.push((rec.seed_node, size));
    }
    let mut cells = Vec::new();
    for binding in r.sweep.expand() {
        let period = match bind_f64(&binding, "period")?.or(first.period) {
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
fn require_recovered(quiescent: bool, routes_correct: bool, cell: &str) -> Result<(), String> {
    if quiescent && routes_correct {
        return Ok(());
    }
    Err(format!(
        "recovery cell did not recover (quiescent={quiescent}, routes_correct={routes_correct}): {cell}"
    ))
}

/// Runs the `[[fault.recurring]]` path of a recovery scenario: one row
/// per resolved period, each driving the recurring-corruption schedule
/// to quiescence (E10, Corollary 4).
fn run_recurring(
    r: &RecoveryScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    let cells = expand_recurring(r)?;
    let headers: Vec<&str> = r.report.columns.iter().map(|c| column_header(c)).collect();
    let title = render_title(&r.report.title, &recovery_title_subs(r));
    let mut table = Table::new(title, &headers);
    let mut failures = Vec::new();
    let specs = cells.clone();
    let results = run_sharded(jobs, specs.len(), move |i| recurring_cell(&specs[i]));
    for (cell, m) in cells.iter().zip(&results) {
        let correct = m.routes_correct || !r.require_correct;
        require_recovered(m.quiescent, correct, &format!("period={}", cell.period))?;
        let row: Vec<String> = r
            .report
            .columns
            .iter()
            .map(|key| match key.as_str() {
                "period" => fmt_f64(cell.period),
                "range" => m.contamination_range.to_string(),
                "contaminated" => m.contaminated.to_string(),
                "routes_correct" => m.routes_correct.to_string(),
                other => panic!("column key '{other}' escaped schema validation"),
            })
            .collect();
        table.row(&row);
        #[allow(clippy::cast_precision_loss)]
        let metrics: Vec<(&str, f64)> = vec![
            ("contamination_range", m.contamination_range as f64),
            ("contaminated", m.contaminated as f64),
            ("routes_correct", bool_metric(m.routes_correct)),
            ("quiescent", bool_metric(m.quiescent)),
        ];
        let vars: Vec<(&str, f64)> = vec![("period", cell.period)];
        let label = format!("period={}", fmt_f64(cell.period));
        eval_expectations(expect, &metrics, &vars, &label, &mut failures);
    }
    Ok(ScenarioOutcome {
        result: ScenarioResult::Table(table),
        failures,
    })
}

fn run_recovery(
    r: &RecoveryScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    if !r.regions.is_empty() {
        return run_region_cases(r, jobs, expect);
    }
    if !r.recurring.is_empty() {
        return run_recurring(r, jobs, expect);
    }
    let cells = expand_recovery(r)?;
    let headers: Vec<&str> = r.report.columns.iter().map(|c| column_header(c)).collect();
    let title = render_title(&r.report.title, &recovery_title_subs(r));
    let mut table = Table::new(title, &headers);
    let mut failures = Vec::new();
    match r.plane {
        Plane::Single => {
            let specs: Vec<RecoveryCellSpec> = cells
                .iter()
                .map(|c| RecoveryCellSpec {
                    protocol: c.protocol.expect("checked in expand_recovery"),
                    width: c.width,
                    p: c.p,
                    seed: c.seed,
                    fault: r.fault,
                    model: c.model,
                })
                .collect();
            let n_cells = specs.len();
            let results = run_sharded(jobs, n_cells, move |i| recovery_cell(&specs[i]));
            for (cell, m) in cells.iter().zip(&results) {
                if r.require_correct {
                    require_recovered(
                        m.quiescent,
                        m.routes_correct,
                        &cell.describe(Plane::Single),
                    )?;
                }
                let row: Vec<String> = r
                    .report
                    .columns
                    .iter()
                    .map(|key| recovery_col(key, cell, m))
                    .collect();
                table.row(&row);
                #[allow(clippy::cast_precision_loss)]
                let metrics: Vec<(&str, f64)> = vec![
                    ("stabilization_time", m.stabilization_time),
                    ("contamination_range", m.contamination_range as f64),
                    ("max_contamination", m.contaminated.len() as f64),
                    ("contaminated", m.contaminated.len() as f64),
                    ("perturbed", m.perturbation_size as f64),
                    ("messages", m.messages as f64),
                    ("actions", m.actions as f64),
                    ("flaps", m.healthy_route_flaps as f64),
                    ("routes_correct", bool_metric(m.routes_correct)),
                    ("quiescent", bool_metric(m.quiescent)),
                ];
                #[allow(clippy::cast_precision_loss)]
                let vars: Vec<(&str, f64)> = vec![
                    ("width", f64::from(cell.width)),
                    ("p", cell.p as f64),
                    ("loss", cell.loss),
                ];
                eval_expectations(
                    expect,
                    &metrics,
                    &vars,
                    &cell.describe(Plane::Single),
                    &mut failures,
                );
            }
        }
        Plane::Multi => {
            let args: Vec<(u32, usize, usize, u64)> = cells
                .iter()
                .map(|c| (c.width, c.p, c.trees, c.seed))
                .collect();
            let n_cells = args.len();
            let results = run_sharded(jobs, n_cells, move |i| {
                let (w, p, trees, seed) = args[i];
                multi_recovery_cell(w, p, trees, seed)
            });
            for (cell, (stab, messages, adverts, acting)) in cells.iter().zip(&results) {
                let row: Vec<String> = r
                    .report
                    .columns
                    .iter()
                    .map(|key| match key.as_str() {
                        "grid_n" => format!("{}", cell.width * cell.width),
                        "trees" => cell.trees.to_string(),
                        "p" => cell.p.to_string(),
                        "stab_time" => fmt_f64(*stab),
                        "messages_delivered" => messages.to_string(),
                        "adverts_delivered" => adverts.to_string(),
                        "acting" => acting.to_string(),
                        other => panic!("column key '{other}' escaped schema validation"),
                    })
                    .collect();
                table.row(&row);
                #[allow(clippy::cast_precision_loss)]
                let metrics: Vec<(&str, f64)> = vec![
                    ("stabilization_time", *stab),
                    ("messages_delivered", *messages as f64),
                    ("adverts_delivered", *adverts as f64),
                    ("acting", *acting as f64),
                ];
                #[allow(clippy::cast_precision_loss)]
                let vars: Vec<(&str, f64)> = vec![
                    ("width", f64::from(cell.width)),
                    ("p", cell.p as f64),
                    ("trees", cell.trees as f64),
                ];
                eval_expectations(
                    expect,
                    &metrics,
                    &vars,
                    &cell.describe(Plane::Multi),
                    &mut failures,
                );
            }
        }
    }
    Ok(ScenarioOutcome {
        result: ScenarioResult::Table(table),
        failures,
    })
}

// ---------------------------------------------------------------------
// Hijack execution
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct HCell {
    protocol: Option<Protocol>,
    p: usize,
}

fn expand_hijack(h: &HijackScenario) -> Result<Vec<HCell>, String> {
    let mut cells = Vec::new();
    for binding in h.sweep.expand() {
        let protocol = bind_protocol(&binding, "protocol")?.or(h.protocol);
        if protocol.is_none() && h.mode == HijackMode::Snapshot {
            return Err(
                "snapshot hijack cell needs a protocol (set [hijack] protocol or sweep it)"
                    .to_string(),
            );
        }
        let p = match bind_usize(&binding, "p")? {
            Some(p) => p,
            None => {
                h.p.ok_or("hijack cell needs a p (set [hijack] p or sweep it)")?
            }
        };
        cells.push(HCell { protocol, p });
    }
    Ok(cells)
}

/// Lowers a live-mode hijack scenario into the concrete cell specs the
/// sharded runner executes, in sweep order — exactly the cells a
/// scenario file compiles to.
///
/// # Errors
///
/// Returns a message when the scenario is not in live mode or a sweep
/// cell fails to resolve.
pub fn live_hijack_specs(h: &HijackScenario) -> Result<Vec<LiveHijackSpec>, String> {
    if h.mode != HijackMode::Live {
        return Err("live_hijack_specs wants a live-mode hijack scenario".to_string());
    }
    Ok(expand_hijack(h)?
        .iter()
        .map(|c| LiveHijackSpec {
            width: h.width,
            p: c.p,
            seed: h.seed,
            workload: workload_spec(&h.workload),
            duration: h.duration,
            prefault: h.prefault,
            window: h.window,
            congestion: h
                .congestion
                .as_ref()
                .map(super::schema::CongestionSection::config),
            transport: h.congestion.as_ref().and_then(|c| c.cc),
        })
        .collect())
}

fn run_hijack(
    h: &HijackScenario,
    jobs: usize,
    expect: &[Expectation],
) -> Result<ScenarioOutcome, String> {
    let cells = expand_hijack(h)?;
    let headers: Vec<&str> = h.report.columns.iter().map(|c| column_header(c)).collect();
    let mut subs = vec![("width", h.width.to_string())];
    if let Some(p) = h.p {
        subs.push(("p", p.to_string()));
    }
    let title = render_title(&h.report.title, &subs);
    let mut table = Table::new(title, &headers);
    let mut failures = Vec::new();
    match h.mode {
        HijackMode::Snapshot => {
            let args: Vec<(Protocol, usize)> = cells
                .iter()
                .map(|c| (c.protocol.expect("checked in expand_hijack"), c.p))
                .collect();
            let (w, seed, sample_every) = (h.width, h.seed, h.sample_every);
            let results = {
                let args = args.clone();
                run_sharded(jobs, args.len(), move |i| {
                    let (protocol, p) = args[i];
                    snapshot_hijack_cell(protocol, w, p, seed, sample_every)
                })
            };
            for ((protocol, p), a) in args.iter().zip(&results) {
                let row: Vec<String> = h
                    .report
                    .columns
                    .iter()
                    .map(|key| match key.as_str() {
                        "protocol" => format!("{protocol:?}"),
                        "min_avail" => format!("{:.3}", a.min),
                        "degraded" => fmt_f64(a.degraded_time),
                        "lost_avail" => format!("{:.1}", a.lost),
                        other => panic!("column key '{other}' escaped schema validation"),
                    })
                    .collect();
                table.row(&row);
                let metrics: Vec<(&str, f64)> = vec![
                    ("min_availability", a.min),
                    ("degraded_seconds", a.degraded_time),
                    ("lost_availability", a.lost),
                ];
                #[allow(clippy::cast_precision_loss)]
                let vars: Vec<(&str, f64)> = vec![("width", f64::from(h.width)), ("p", *p as f64)];
                eval_expectations(
                    expect,
                    &metrics,
                    &vars,
                    &format!("protocol={} p={p}", protocol.as_str()),
                    &mut failures,
                );
            }
        }
        HijackMode::Live => {
            let specs = live_hijack_specs(h)?;
            let results = {
                let specs = specs.clone();
                run_sharded(jobs, specs.len(), move |i| live_hijack_cell(&specs[i]))
            };
            for (cell, outcome) in specs.iter().zip(&results) {
                let s = &outcome.summary;
                let lost = s.counts.injected - s.counts.delivered;
                let row: Vec<String> = h
                    .report
                    .columns
                    .iter()
                    .map(|key| match key.as_str() {
                        "p" => cell.p.to_string(),
                        "delivered" => format!("{:.4}", s.delivered_fraction()),
                        "min_window" => format!("{:.4}", s.min_window_availability),
                        "lost" => lost.to_string(),
                        "mean_stretch" => format!("{:.3}", s.mean_stretch),
                        "max_stretch" => format!("{:.3}", s.max_stretch),
                        "goodput" => format!("{:.4}", s.goodput_fraction()),
                        "queue_drops" => s.counts.queue_dropped.to_string(),
                        "blackholed" => s.counts.black_holed.to_string(),
                        "peak_queue" => s.congestion.peak_port_occupancy.to_string(),
                        "retransmitted" => s.congestion.flow_retransmit_weight.to_string(),
                        "timeouts" => s.congestion.flow_timeouts.to_string(),
                        "fct_mean" => format!("{:.1}", s.mean_fct),
                        "fct_max" => format!("{:.1}", s.max_fct),
                        other => panic!("column key '{other}' escaped schema validation"),
                    })
                    .collect();
                table.row(&row);
                #[allow(clippy::cast_precision_loss)]
                let metrics: Vec<(&str, f64)> = vec![
                    ("delivered_fraction", s.delivered_fraction()),
                    ("min_window_availability", s.min_window_availability),
                    ("goodput", s.goodput_fraction()),
                    ("lost", lost as f64),
                    ("queue_drops", s.counts.queue_dropped as f64),
                    ("blackholed", s.counts.black_holed as f64),
                    ("peak_queue", s.congestion.peak_port_occupancy as f64),
                    ("retransmitted", s.congestion.flow_retransmit_weight as f64),
                    ("timeouts", s.congestion.flow_timeouts as f64),
                    ("mean_fct", s.mean_fct),
                    ("max_fct", s.max_fct),
                    ("mean_stretch", s.mean_stretch),
                    ("max_stretch", s.max_stretch),
                ];
                #[allow(clippy::cast_precision_loss)]
                let vars: Vec<(&str, f64)> =
                    vec![("width", f64::from(h.width)), ("p", cell.p as f64)];
                eval_expectations(
                    expect,
                    &metrics,
                    &vars,
                    &format!("p={}", cell.p),
                    &mut failures,
                );
            }
        }
    }
    Ok(ScenarioOutcome {
        result: ScenarioResult::Table(table),
        failures,
    })
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
    #[allow(clippy::cast_precision_loss)]
    let metrics: Vec<(&str, f64)> = vec![("violating", bad as f64), ("runs", f64::from(c.runs))];
    eval_expectations(&s.expect, &metrics, &[], "campaign", &mut failures);
    Ok(ScenarioOutcome {
        result: ScenarioResult::Text(text),
        failures,
    })
}

/// Statically expands a scenario into one human-readable line per cell
/// (the `lsrp scenario expand` output). Also serves as the deep
/// validation pass behind `lsrp scenario check`: every sweep binding is
/// resolved against the fixed fields without running anything.
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
                .map_or_else(|| "auto".to_string(), |d| d.to_string()),
            c.runs,
            c.seed,
            crate::toml::fmt_float(c.horizon)
        )]),
        ScenarioBody::Traffic(t) => Ok(vec![format!(
            "traffic campaign: topology {} runs {} seed {} duration {} flows {}",
            t.base.topology,
            t.base.runs,
            t.base.seed,
            crate::toml::fmt_float(t.duration),
            t.workload.flows
        )]),
        ScenarioBody::Recovery(r) => {
            if !r.regions.is_empty() {
                let spec = r.topology.as_ref().expect("validated at parse time");
                return Ok(region_cases(r)?
                    .iter()
                    .enumerate()
                    .map(|(i, (label, regions))| {
                        let parts: Vec<String> = regions
                            .iter()
                            .map(|(node, size)| format!("{node}+{size}"))
                            .collect();
                        format!(
                            "case {i}: {label} — topology {spec} regions [{}] seed {}",
                            parts.join(", "),
                            r.seed
                        )
                    })
                    .collect());
            }
            if !r.recurring.is_empty() {
                return Ok(expand_recurring(r)?
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let parts: Vec<String> = c
                            .regions
                            .iter()
                            .map(|(node, size)| format!("{node}+{size}"))
                            .collect();
                        let mut s = format!(
                            "cell {i}: width={} regions [{}] period={} occurrences={}",
                            c.width,
                            parts.join(", "),
                            crate::toml::fmt_float(c.period),
                            c.occurrences
                        );
                        if c.jitter > 0.0 {
                            let _ = write!(s, " jitter={}", crate::toml::fmt_float(c.jitter));
                        }
                        let _ = write!(s, " seed={}", c.seed);
                        s
                    })
                    .collect());
            }
            let cells = expand_recovery(r)?;
            Ok(cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("cell {i}: {}", c.describe(r.plane)))
                .collect())
        }
        ScenarioBody::Hijack(h) => {
            let cells = expand_hijack(h)?;
            Ok(cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut s = format!("cell {i}: ");
                    if let Some(p) = c.protocol {
                        let _ = write!(s, "protocol={} ", p.as_str());
                    }
                    let _ = write!(s, "width={} p={} seed={}", h.width, c.p, h.seed);
                    s
                })
                .collect())
        }
    }
}
