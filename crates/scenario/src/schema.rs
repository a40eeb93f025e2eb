//! The declarative scenario schema: typed sections parsed out of a
//! scenario file's [`crate::toml`] tree, with line/field diagnostics.
//!
//! A scenario file is one `[scenario]` header plus kind-specific
//! sections. Four kinds exist:
//!
//! - `chaos` — a randomized fault-process campaign (the `lsrp chaos`
//!   shape): `[topology]`, `[campaign]`, `[faults]`, optional `[trace]`.
//! - `traffic` — a chaos campaign with a live workload (the
//!   `lsrp traffic` shape): adds `[workload]` and `[congestion]`.
//! - `recovery` — an E6-family sweep of recovery cells over
//!   `(protocol, width, p, loss)`: `[recovery]`, `[engine]`,
//!   `[report]`, `[sweep]` / `[[case]]`; or the `[[fault.region]]`
//!   concurrent-regions and `[[fault.recurring]]` recurring-fault
//!   shapes.
//! - `hijack` — a prefix-hijack availability experiment, snapshot
//!   (E13) or live (E20/E21): `[hijack]`, `[workload]`,
//!   `[congestion]`, `[report]`, `[sweep]` / `[[case]]`.
//!
//! Every parse error names the offending line and field. Unknown
//! fields and sections are rejected, so a typo never silently falls
//! back to a default.

use std::fmt;

use lsrp_analysis::WorkloadKind;
use lsrp_faults::FaultProcess;
use lsrp_graph::NodeId;
use lsrp_sim::{CongAlgKind, CongestionConfig, DisciplineKind};

use crate::cells::{Protocol, RegionFault};
use crate::spec::{
    check, parse_cong_alg, parse_discipline, parse_workload, DestinationsSpec, TopologySpec,
};
use crate::toml::{self, Entry, Spanned, Table, Value};

/// A parsed scenario: name, kind-specific body and expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short identifier (used in reports and logs).
    pub name: String,
    /// Optional human-readable summary.
    pub description: Option<String>,
    /// The kind-specific configuration.
    pub body: ScenarioBody,
    /// Post-run checks (silent on pass; reported on failure).
    pub expect: Vec<Expectation>,
}

/// The kind-specific configuration of a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioBody {
    /// A randomized fault-process campaign.
    Chaos(CampaignScenario),
    /// A chaos campaign with a live traffic workload.
    Traffic(TrafficScenario),
    /// A sweep of region-perturbation recovery cells.
    Recovery(RecoveryScenario),
    /// A prefix-hijack availability experiment.
    Hijack(HijackScenario),
}

impl Scenario {
    /// The scenario's kind spelling (as written in the file).
    pub fn kind(&self) -> &'static str {
        match self.body {
            ScenarioBody::Chaos(_) => "chaos",
            ScenarioBody::Traffic(_) => "traffic",
            ScenarioBody::Recovery(_) => "recovery",
            ScenarioBody::Hijack(_) => "hijack",
        }
    }
}

/// The campaign core shared by the `chaos` and `traffic` kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignScenario {
    /// Topology under test.
    pub topology: TopologySpec,
    /// Seed for randomized topology generators; defaults to `seed`.
    pub topology_seed: Option<u64>,
    /// Destination override (`None` = the topology's natural one).
    pub destination: Option<NodeId>,
    /// Dense multi-destination plane (`None` = single tree).
    pub destinations: Option<DestinationsSpec>,
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Number of runs.
    pub runs: u32,
    /// Hard stop per run, simulated seconds.
    pub horizon: f64,
    /// The stochastic fault process.
    pub faults: FaultsSection,
    /// Structured trace export (`[trace]`); `None` keeps the run
    /// byte-identical to the pre-trace engine.
    pub trace: Option<TraceSection>,
}

impl CampaignScenario {
    /// A campaign over `topology` with every other field at its
    /// scenario-file default (the `lsrp chaos` flag defaults too).
    pub fn new(topology: TopologySpec) -> CampaignScenario {
        CampaignScenario {
            topology,
            topology_seed: None,
            destination: None,
            destinations: None,
            seed: 0,
            runs: 5,
            horizon: 100_000.0,
            faults: FaultsSection::default(),
            trace: None,
        }
    }

    /// The seed used to build randomized topologies.
    pub fn topology_seed(&self) -> u64 {
        self.topology_seed.unwrap_or(self.seed)
    }
}

/// The `[trace]` section: where and how a campaign's first run streams
/// its structured event trace (DESIGN.md §16). Only run 0 of a campaign
/// is traced — the sink is a one-shot factory — so the file captures one
/// complete, deterministic run regardless of `runs` or `--jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSection {
    /// Output file path.
    pub path: String,
    /// Event-class filter (`None` = all classes); validated against the
    /// `lsrp-trace` vocabulary at parse time.
    pub classes: Option<Vec<String>>,
    /// Ordered-event frames between `snap` frames (`None` = the
    /// `lsrp-trace` default).
    pub snapshot_every: Option<u64>,
}

impl TraceSection {
    /// A default-everything section writing JSONL to `path`.
    pub fn new(path: impl Into<String>) -> TraceSection {
        TraceSection {
            path: path.into(),
            classes: None,
            snapshot_every: None,
        }
    }

    /// Lowers to the `lsrp-trace` config, stamping the topology label.
    ///
    /// # Panics
    ///
    /// Panics on an invalid class list (validated at parse time, so this
    /// is unreachable from a loaded scenario).
    pub fn config(&self, topology: &str) -> lsrp_trace::TraceConfig {
        let mut cfg = lsrp_trace::TraceConfig::new(&self.path);
        if let Some(classes) = &self.classes {
            cfg.classes =
                lsrp_trace::EventClasses::from_names(classes).expect("validated at parse time");
        }
        if let Some(n) = self.snapshot_every {
            cfg.snapshot_every = n;
        }
        cfg.topology = Some(topology.to_string());
        cfg
    }
}

/// The `[faults]` section: a [`FaultProcess`] plus the fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSection {
    /// Event counts and outage bounds.
    pub process: FaultProcess,
    /// Faults land within this many seconds after initial convergence.
    pub window: f64,
}

impl Default for FaultsSection {
    fn default() -> Self {
        FaultsSection {
            process: FaultProcess::standard(),
            window: 600.0,
        }
    }
}

/// The `[workload]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSection {
    /// Traffic shape.
    pub kind: WorkloadKind,
    /// Number of flows.
    pub flows: usize,
    /// Packets per second per flow.
    pub rate: f64,
    /// Exact per-packet injection instead of aggregation.
    pub exact: bool,
}

impl Default for WorkloadSection {
    fn default() -> Self {
        WorkloadSection {
            kind: WorkloadKind::Poisson,
            flows: 64,
            rate: 25.0,
            exact: false,
        }
    }
}

/// The `[congestion]` section: data-plane limits plus the transport.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CongestionSection {
    /// Link serialization rate (weight/s); `None` = infinitely fast.
    pub link_rate: Option<f64>,
    /// Bounded egress queues (weight); `None` = unbounded.
    pub queue_cap: Option<u64>,
    /// Queue admission policy.
    pub discipline: DisciplineKind,
    /// Go-Back-N transport algorithm (`None` = fire-and-forget).
    pub cc: Option<CongAlgKind>,
}

impl CongestionSection {
    /// The engine-level congestion config this section lowers to.
    pub fn config(&self) -> CongestionConfig {
        CongestionConfig {
            link_rate: self.link_rate,
            queue_capacity: self.queue_cap,
            discipline: self.discipline,
        }
    }
}

/// The `traffic` kind: a campaign plus its offered workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficScenario {
    /// Topology, seeds, runs and fault process.
    pub base: CampaignScenario,
    /// The offered traffic.
    pub workload: WorkloadSection,
    /// Injection duration, simulated seconds.
    pub duration: f64,
    /// Data-plane limits and transport.
    pub congestion: CongestionSection,
}

impl TrafficScenario {
    /// `base` with the scenario-file traffic defaults (the `lsrp traffic`
    /// flag defaults too): the default workload for 600 s over
    /// unlimited links.
    pub fn new(base: CampaignScenario) -> TrafficScenario {
        TrafficScenario {
            base,
            workload: WorkloadSection::default(),
            duration: 600.0,
            congestion: CongestionSection::default(),
        }
    }
}

/// How a recovery cell's seed derives from the scenario seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Every cell uses the scenario seed.
    Fixed,
    /// Cell seed is `seed + width` (the E6 convention, so different
    /// grid sizes draw different corruption plans).
    PlusWidth,
}

/// Which control plane a recovery sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// One destination tree.
    Single,
    /// The dense multi-destination plane (one LSRP instance per tree).
    Multi,
}

/// The `[engine]` section of a recovery scenario: which link/clock
/// model the cells run under.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineSection {
    /// Jittered link delay bounds `(min, max)`.
    pub jitter: Option<(f64, f64)>,
    /// Adversarial alternating clock drift bound.
    pub clock_rho: Option<f64>,
    /// Fixed i.i.d. message-loss probability (swept via a `loss` axis
    /// instead when the sweep declares one).
    pub loss: Option<f64>,
    /// Periodic `SYN` refresh period; presence selects the lossy-model
    /// build even at zero loss.
    pub syn_period: Option<f64>,
}

/// The `[report]` section: table title and column keys.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSection {
    /// Table title; `{width}`, `{p}` and `{dests}` placeholders are
    /// substituted from the fixed fields at run time.
    pub title: String,
    /// Column keys (kind-specific vocabulary; see DESIGN.md §13).
    pub columns: Vec<String>,
}

/// The `recovery` kind: an E6-family sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryScenario {
    /// Fixed protocol (unless swept).
    pub protocol: Option<Protocol>,
    /// Fixed grid width (unless swept).
    pub width: Option<u32>,
    /// Fixed perturbation size (unless swept).
    pub p: Option<usize>,
    /// Explicit topology for `[[fault.region]]` cases; the classic
    /// sweep path builds a `width` × `width` grid instead.
    pub topology: Option<TopologySpec>,
    /// Seed for random topologies (defaults to the scenario seed).
    pub topology_seed: Option<u64>,
    /// Concurrent perturbed regions (`[[fault.region]]`); regions
    /// sharing a `case` label are corrupted in the same run, one table
    /// row per case. Empty for the classic single-region sweep.
    pub regions: Vec<FaultRegion>,
    /// Recurring perturbations (`[[fault.recurring]]`, Corollary 4 /
    /// Theorem 5): the same regions black-hole again every period.
    /// Empty for the one-shot paths.
    pub recurring: Vec<FaultRecurring>,
    /// Scenario seed.
    pub seed: u64,
    /// How cell seeds derive from the scenario seed.
    pub seed_mode: SeedMode,
    /// How the region is perturbed.
    pub fault: RegionFault,
    /// Single-tree or dense multi-destination plane.
    pub plane: Plane,
    /// Destination trees on the multi plane (`None` = all-pairs).
    pub destinations: Option<DestinationsSpec>,
    /// Assert quiescence + correct routes per cell.
    pub require_correct: bool,
    /// Link/clock model.
    pub engine: EngineSection,
    /// Table shape.
    pub report: ReportSection,
    /// The sweep axes.
    pub sweep: Sweep,
}

/// One concurrent perturbed region of a multi-region recovery case
/// (`[[fault.region]]`, E7 Lemmas 2–3): a contiguous patch grown from
/// `seed_node` away from the destination. Regions sharing a `case`
/// label are corrupted concurrently in the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRegion {
    /// The table row this region belongs to.
    pub case: String,
    /// Node the contiguous region grows from.
    pub seed_node: NodeId,
    /// Region size; defaults to the `[recovery]` `p`.
    pub size: Option<usize>,
}

/// One recurring perturbation (`[[fault.recurring]]`, Corollary 4 /
/// Theorem 5): a contiguous region grown from `seed_node` away from the
/// destination black-holes (`d := 0`) on every occurrence. All entries
/// of a scenario recur together in the same run; one table row per
/// resolved period.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecurring {
    /// Node the contiguous region grows from.
    pub seed_node: NodeId,
    /// Region size; defaults to the `[recovery]` `p`.
    pub size: Option<usize>,
    /// Seconds between occurrences; `None` defers to a `period` sweep
    /// axis.
    pub period: Option<f64>,
    /// Uniform jitter half-width on each gap (seconds); 0 keeps the
    /// schedule exactly periodic.
    pub jitter: f64,
    /// Number of occurrences.
    pub occurrences: u32,
}

/// Snapshot or live hijack measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HijackMode {
    /// Forwarding availability sampled from frozen route tables (E13).
    Snapshot,
    /// In-flight packets racing the recovery waves (E20/E21).
    Live,
}

/// The `hijack` kind: prefix-hijack availability experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct HijackScenario {
    /// Snapshot or live.
    pub mode: HijackMode,
    /// Grid width.
    pub width: u32,
    /// Fixed perturbation size (unless swept).
    pub p: Option<usize>,
    /// Fixed protocol for snapshot mode (unless swept).
    pub protocol: Option<Protocol>,
    /// Engine + workload seed.
    pub seed: u64,
    /// Clean streaming time before the hijack (live).
    pub prefault: f64,
    /// Availability window (live).
    pub window: f64,
    /// Sampling period (snapshot).
    pub sample_every: f64,
    /// Injection duration (live).
    pub duration: f64,
    /// The offered traffic (live).
    pub workload: WorkloadSection,
    /// Data-plane limits and transport (live; `None` = unlimited
    /// links, fire-and-forget probes).
    pub congestion: Option<CongestionSection>,
    /// Table shape.
    pub report: ReportSection,
    /// The sweep axes.
    pub sweep: Sweep,
}

/// A sweep-axis value.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepValue {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string (e.g. a protocol name).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl fmt::Display for SweepValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepValue::Int(i) => write!(f, "{i}"),
            SweepValue::Float(x) => write!(f, "{}", toml::fmt_float(*x)),
            SweepValue::Str(s) => write!(f, "{s}"),
            SweepValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One cell's variable bindings, in axis order.
pub type Binding = Vec<(String, SweepValue)>;

/// The sweep declaration: cartesian axes or explicit cases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sweep {
    /// `[sweep]` axes in declaration order; the cartesian product
    /// nests the first axis outermost.
    pub axes: Vec<(String, Vec<SweepValue>)>,
    /// `[[case]]` explicit bindings (mutually exclusive with axes).
    pub cases: Vec<Binding>,
}

impl Sweep {
    /// Expands to one [`Binding`] per cell. An empty sweep yields a
    /// single cell with no bindings.
    pub fn expand(&self) -> Vec<Binding> {
        if !self.cases.is_empty() {
            return self.cases.clone();
        }
        let mut out: Vec<Binding> = vec![Vec::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(out.len() * values.len());
            for prefix in &out {
                for v in values {
                    let mut b = prefix.clone();
                    b.push((name.clone(), v.clone()));
                    next.push(b);
                }
            }
            out = next;
        }
        out
    }

    /// Replaces (or appends) one axis, preserving declaration order —
    /// the hook the thin Rust wrappers use to re-parameterize a
    /// checked-in scenario file.
    pub fn set_axis(&mut self, name: &str, values: Vec<SweepValue>) {
        if let Some(axis) = self.axes.iter_mut().find(|(n, _)| n == name) {
            axis.1 = values;
        } else {
            self.axes.push((name.to_string(), values));
        }
    }
}

/// A comparison operator in an expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn as_str(self) -> &'static str {
        match self {
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Applies the comparison to two floats.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

/// The right-hand side of an expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    /// A literal number.
    Number(f64),
    /// A literal boolean (compared as 1/0).
    Bool(bool),
    /// A cell variable (e.g. `p`), resolved per cell.
    Var(String),
}

/// One `expect` entry: `metric op value`, evaluated per cell (or per
/// campaign for the chaos/traffic kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Metric name (kind-specific vocabulary).
    pub metric: String,
    /// Comparison.
    pub op: CmpOp,
    /// Literal or cell-variable right-hand side.
    pub rhs: Rhs,
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rhs = match &self.rhs {
            Rhs::Number(x) => toml::fmt_float(*x),
            Rhs::Bool(b) => b.to_string(),
            Rhs::Var(v) => v.clone(),
        };
        write!(f, "{} {} {}", self.metric, self.op.as_str(), rhs)
    }
}

impl Expectation {
    /// Parses `metric op value`.
    pub fn parse(s: &str) -> Result<Expectation, String> {
        let parts: Vec<&str> = s.split_whitespace().collect();
        let [metric, op, value] = parts.as_slice() else {
            return Err(format!(
                "expectation '{s}' must have the form 'metric op value' (e.g. 'goodput >= 0.9')"
            ));
        };
        let op = match *op {
            ">=" => CmpOp::Ge,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            "<" => CmpOp::Lt,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            other => {
                return Err(format!(
                    "expectation '{s}' has unknown operator '{other}' (try >=, <=, >, <, ==, !=)"
                ))
            }
        };
        let rhs = match *value {
            "true" => Rhs::Bool(true),
            "false" => Rhs::Bool(false),
            v => match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Rhs::Number(x),
                _ if v.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') => {
                    Rhs::Var(v.to_string())
                }
                _ => return Err(format!("expectation '{s}' has unparseable value '{v}'")),
            },
        };
        Ok(Expectation {
            metric: (*metric).to_string(),
            op,
            rhs,
        })
    }
}

// ---------------------------------------------------------------------
// Parsing machinery
// ---------------------------------------------------------------------

/// A typed field reader over one section's table: records every key it
/// reads so `finish()` can reject the rest as unknown.
struct Fields<'a> {
    section: &'a str,
    table: &'a Table,
    taken: Vec<String>,
}

impl<'a> Fields<'a> {
    fn new(section: &'a str, table: &'a Table) -> Self {
        Fields {
            section,
            table,
            taken: Vec::new(),
        }
    }

    fn raw(&mut self, key: &str) -> Option<&'a Entry> {
        self.taken.push(key.to_string());
        self.table.get(key)
    }

    fn scalar(&mut self, key: &str, want: &str) -> Result<Option<&'a Spanned>, String> {
        match self.raw(key) {
            None => Ok(None),
            Some(Entry::Value(sp)) => Ok(Some(sp)),
            Some(Entry::Table(t)) => Err(format!(
                "line {}: [{}] field '{key}' must be a {want}, got a table",
                t.line, self.section
            )),
            Some(Entry::Tables(ts)) => Err(format!(
                "line {}: [{}] field '{key}' must be a {want}, got an array of tables",
                ts.first().map_or(0, |t| t.line),
                self.section
            )),
        }
    }

    fn mismatch(&self, key: &str, want: &str, sp: &Spanned) -> String {
        format!(
            "line {}: [{}] field '{key}' must be a {want}, got {}",
            sp.line,
            self.section,
            sp.value.type_name()
        )
    }

    fn str(&mut self, key: &str) -> Result<Option<(String, usize)>, String> {
        match self.scalar(key, "string")? {
            None => Ok(None),
            Some(sp) => match &sp.value {
                Value::Str(s) => Ok(Some((s.clone(), sp.line))),
                _ => Err(self.mismatch(key, "string", sp)),
            },
        }
    }

    fn int(&mut self, key: &str) -> Result<Option<(i64, usize)>, String> {
        match self.scalar(key, "integer")? {
            None => Ok(None),
            Some(sp) => match &sp.value {
                Value::Int(i) => Ok(Some((*i, sp.line))),
                _ => Err(self.mismatch(key, "integer", sp)),
            },
        }
    }

    fn unsigned(&mut self, key: &str) -> Result<Option<(u64, usize)>, String> {
        match self.int(key)? {
            None => Ok(None),
            Some((i, line)) => u64::try_from(i)
                .map(|u| Some((u, line)))
                .map_err(|_| format!("line {line}: [{}] field '{key}' must be >= 0", self.section)),
        }
    }

    fn float(&mut self, key: &str) -> Result<Option<(f64, usize)>, String> {
        match self.scalar(key, "float")? {
            None => Ok(None),
            Some(sp) => match &sp.value {
                Value::Float(x) => Ok(Some((*x, sp.line))),
                #[allow(clippy::cast_precision_loss)]
                Value::Int(i) => Ok(Some((*i as f64, sp.line))),
                _ => Err(self.mismatch(key, "float", sp)),
            },
        }
    }

    fn boolean(&mut self, key: &str) -> Result<Option<(bool, usize)>, String> {
        match self.scalar(key, "boolean")? {
            None => Ok(None),
            Some(sp) => match &sp.value {
                Value::Bool(b) => Ok(Some((*b, sp.line))),
                _ => Err(self.mismatch(key, "boolean", sp)),
            },
        }
    }

    fn str_list(&mut self, key: &str) -> Result<Option<(Vec<String>, usize)>, String> {
        match self.scalar(key, "array of strings")? {
            None => Ok(None),
            Some(sp) => match &sp.value {
                Value::Array(items) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match &item.value {
                            Value::Str(s) => out.push(s.clone()),
                            other => {
                                return Err(format!(
                                    "line {}: [{}] field '{key}' must contain strings, got {}",
                                    item.line,
                                    self.section,
                                    other.type_name()
                                ))
                            }
                        }
                    }
                    Ok(Some((out, sp.line)))
                }
                _ => Err(self.mismatch(key, "array of strings", sp)),
            },
        }
    }

    /// Validates a parsed value with a `check::*` helper, prefixing the
    /// section/field context onto its plain message.
    fn checked<T>(&self, key: &str, line: usize, result: Result<T, String>) -> Result<T, String> {
        result.map_err(|msg| format!("line {line}: [{}] field '{key}' {msg}", self.section))
    }

    fn finish(self) -> Result<(), String> {
        for (key, entry) in &self.table.entries {
            if !self.taken.iter().any(|t| t == key) {
                let line = match entry {
                    Entry::Value(sp) => sp.line,
                    Entry::Table(t) => t.line,
                    Entry::Tables(ts) => ts.first().map_or(0, |t| t.line),
                };
                return Err(format!(
                    "line {line}: unknown field '{key}' in [{}]",
                    self.section
                ));
            }
        }
        Ok(())
    }
}

/// Rejects a workload heavier than 2^53 packets (see
/// [`check::workload_weight`]) over `nodes` nodes, `destinations`
/// destinations and `duration` seconds (set in `[duration_section]`),
/// naming the first field of its weight that the file sets.
fn check_workload(
    root: &Table,
    w: &WorkloadSection,
    (nodes, destinations, duration): (u64, u64, f64),
    duration_section: &'static str,
) -> Result<(), String> {
    let flows = check::workload_flows(w.kind, w.flows, nodes, destinations);
    let Err(msg) = check::workload_weight(flows, w.rate, duration, w.exact) else {
        return Ok(());
    };
    // The defaults are light, so the file sets one of these: `flows`,
    // or the `kind` that makes every node a source.
    let count = match w.kind {
        WorkloadKind::AllPairs => "kind",
        WorkloadKind::Poisson | WorkloadKind::Hotspot => "flows",
    };
    let fields = [
        ("workload", "rate"),
        (duration_section, "duration"),
        ("workload", count),
    ];
    let (section, key, line) = (fields.into_iter())
        .find_map(|(s, k)| Some((s, k, value_line(root, s, k)?)))
        .unwrap_or(("workload", "rate", 0));
    Err(format!("line {line}: [{section}] field '{key}' {msg}"))
}

/// The line of `[section] key = ...`, if the file sets it.
fn value_line(root: &Table, section: &str, key: &str) -> Option<usize> {
    let Entry::Table(table) = root.get(section)? else {
        return None;
    };
    let Entry::Value(spanned) = table.get(key)? else {
        return None;
    };
    Some(spanned.line)
}

/// Looks up a top-level section table, recording it as seen.
fn section<'a>(
    root: &'a Table,
    name: &str,
    seen: &mut Vec<&'static str>,
    stat: &'static str,
) -> Result<Option<&'a Table>, String> {
    seen.push(stat);
    match root.get(name) {
        None => Ok(None),
        Some(Entry::Table(t)) => Ok(Some(t)),
        Some(Entry::Value(sp)) => Err(format!(
            "line {}: '{name}' must be a [{name}] section, got {}",
            sp.line,
            sp.value.type_name()
        )),
        Some(Entry::Tables(ts)) => Err(format!(
            "line {}: [{name}] must be a single section, not an array of tables",
            ts.first().map_or(0, |t| t.line)
        )),
    }
}

fn sweep_value(section: &str, key: &str, sp: &Spanned) -> Result<SweepValue, String> {
    Ok(match &sp.value {
        Value::Int(i) => SweepValue::Int(*i),
        Value::Float(x) => SweepValue::Float(*x),
        Value::Str(s) => SweepValue::Str(s.clone()),
        Value::Bool(b) => SweepValue::Bool(*b),
        Value::Array(_) => {
            return Err(format!(
                "line {}: [{section}] axis '{key}' must not nest arrays",
                sp.line
            ))
        }
    })
}

/// Parses the `[sweep]` section and `[[case]]` tables; rejects files
/// declaring both.
fn parse_sweep(
    root: &Table,
    seen: &mut Vec<&'static str>,
    allowed_axes: &[&str],
    kind: &str,
) -> Result<Sweep, String> {
    let mut sweep = Sweep::default();
    if let Some(table) = section(root, "sweep", seen, "sweep")? {
        for (key, entry) in &table.entries {
            let values = match entry {
                Entry::Value(sp) => match &sp.value {
                    Value::Array(items) => items
                        .iter()
                        .map(|it| sweep_value("sweep", key, it))
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => vec![sweep_value("sweep", key, sp)?],
                },
                Entry::Table(t) => {
                    return Err(format!(
                        "line {}: [sweep] axis '{key}' must be a scalar or array, got a table",
                        t.line
                    ))
                }
                Entry::Tables(ts) => {
                    return Err(format!(
                        "line {}: [sweep] axis '{key}' must be a scalar or array, got an array of tables",
                        ts.first().map_or(0, |t| t.line)
                    ))
                }
            };
            if !allowed_axes.contains(&key.as_str()) {
                let line = match entry {
                    Entry::Value(sp) => sp.line,
                    Entry::Table(t) => t.line,
                    Entry::Tables(ts) => ts.first().map_or(0, |t| t.line),
                };
                return Err(format!(
                    "line {line}: unknown sweep axis '{key}' for kind '{kind}' (try {})",
                    allowed_axes.join(", ")
                ));
            }
            if values.is_empty() {
                return Err(format!("[sweep] axis '{key}' must list at least one value"));
            }
            sweep.axes.push((key.clone(), values));
        }
    }
    seen.push("case");
    if let Some(entry) = root.get("case") {
        let tables = match entry {
            Entry::Tables(ts) => ts,
            Entry::Table(t) => {
                return Err(format!(
                    "line {}: [case] must be an array of tables ([[case]])",
                    t.line
                ))
            }
            Entry::Value(sp) => {
                return Err(format!(
                    "line {}: 'case' must be [[case]] tables, got {}",
                    sp.line,
                    sp.value.type_name()
                ))
            }
        };
        if !sweep.axes.is_empty() {
            return Err(format!(
                "line {}: contradictory sweep axes: [sweep] and [[case]] are mutually exclusive",
                tables.first().map_or(0, |t| t.line)
            ));
        }
        for t in tables {
            let mut binding: Binding = Vec::new();
            for (key, entry) in &t.entries {
                let Entry::Value(sp) = entry else {
                    return Err(format!(
                        "line {}: [[case]] field '{key}' must be a scalar",
                        t.line
                    ));
                };
                if !allowed_axes.contains(&key.as_str()) {
                    return Err(format!(
                        "line {}: unknown sweep axis '{key}' for kind '{kind}' (try {})",
                        sp.line,
                        allowed_axes.join(", ")
                    ));
                }
                binding.push((key.clone(), sweep_value("case", key, sp)?));
            }
            sweep.cases.push(binding);
        }
    }
    Ok(sweep)
}

fn parse_faults(root: &Table, seen: &mut Vec<&'static str>) -> Result<FaultsSection, String> {
    let mut out = FaultsSection::default();
    let Some(table) = section(root, "faults", seen, "faults")? else {
        return Ok(out);
    };
    let mut f = Fields::new("faults", table);
    let count = |f: &mut Fields<'_>, key: &str, slot: &mut u32| -> Result<(), String> {
        if let Some((v, line)) = f.unsigned(key)? {
            *slot = u32::try_from(v)
                .map_err(|_| format!("line {line}: [faults] field '{key}' is out of range"))?;
        }
        Ok(())
    };
    count(&mut f, "link_flaps", &mut out.process.link_flaps)?;
    count(&mut f, "node_churn", &mut out.process.node_churn)?;
    count(&mut f, "partitions", &mut out.process.partitions)?;
    count(&mut f, "corruptions", &mut out.process.corruptions)?;
    count(&mut f, "weight_drifts", &mut out.process.weight_drifts)?;
    if let Some((v, line)) = f.float("min_outage")? {
        out.process.min_outage = f.checked("min_outage", line, check::positive(v))?;
    }
    if let Some((v, line)) = f.float("max_outage")? {
        out.process.max_outage = f.checked("max_outage", line, check::positive(v))?;
    }
    if let Some((v, line)) = f.float("window")? {
        out.window = f.checked("window", line, check::positive(v))?;
    }
    f.finish()?;
    Ok(out)
}

fn parse_workload_section(
    root: &Table,
    seen: &mut Vec<&'static str>,
) -> Result<WorkloadSection, String> {
    let mut out = WorkloadSection::default();
    let Some(table) = section(root, "workload", seen, "workload")? else {
        return Ok(out);
    };
    let mut f = Fields::new("workload", table);
    if let Some((s, line)) = f.str("kind")? {
        out.kind = f.checked("kind", line, parse_workload(&s))?;
    }
    if let Some((v, line)) = f.unsigned("flows")? {
        out.flows = f.checked("flows", line, check::flows(v as usize))?;
    }
    if let Some((v, line)) = f.float("rate")? {
        out.rate = f.checked("rate", line, check::positive(v))?;
    }
    if let Some((b, _)) = f.boolean("exact")? {
        out.exact = b;
    }
    f.finish()?;
    Ok(out)
}

fn parse_congestion(
    root: &Table,
    seen: &mut Vec<&'static str>,
) -> Result<Option<CongestionSection>, String> {
    let Some(table) = section(root, "congestion", seen, "congestion")? else {
        return Ok(None);
    };
    let mut out = CongestionSection::default();
    let mut f = Fields::new("congestion", table);
    if let Some((v, line)) = f.float("link_rate")? {
        out.link_rate = Some(f.checked("link_rate", line, check::positive(v))?);
    }
    if let Some((v, line)) = f.unsigned("queue_cap")? {
        out.queue_cap = Some(f.checked("queue_cap", line, check::queue_cap(v))?);
    }
    if let Some((s, line)) = f.str("discipline")? {
        out.discipline = f.checked("discipline", line, parse_discipline(&s))?;
    }
    if let Some((s, line)) = f.str("cc")? {
        out.cc = Some(f.checked("cc", line, parse_cong_alg(&s))?);
    }
    f.finish()?;
    let line = table.line;
    check::congestion_shape(
        out.link_rate,
        out.queue_cap,
        out.discipline != DisciplineKind::DropTail,
    )
    .map_err(|msg| format!("line {line}: [congestion] {msg}"))?;
    Ok(Some(out))
}

fn parse_campaign(root: &Table, seen: &mut Vec<&'static str>) -> Result<CampaignScenario, String> {
    let Some(topo_table) = section(root, "topology", seen, "topology")? else {
        return Err("missing required [topology] section".to_string());
    };
    let mut f = Fields::new("topology", topo_table);
    let Some((spec, line)) = f.str("spec")? else {
        return Err(format!(
            "line {}: [topology] needs a 'spec' field (e.g. spec = \"grid:8x8\")",
            topo_table.line
        ));
    };
    let mut c = CampaignScenario::new(f.checked("spec", line, TopologySpec::parse(&spec))?);
    c.topology_seed = f.unsigned("seed")?.map(|(v, _)| v);
    c.destination = f
        .unsigned("destination")?
        .map(|(v, line)| {
            u32::try_from(v)
                .map(NodeId::new)
                .map_err(|_| format!("line {line}: [topology] field 'destination' is out of range"))
        })
        .transpose()?;
    f.finish()?;

    if let Some(table) = section(root, "campaign", seen, "campaign")? {
        let mut f = Fields::new("campaign", table);
        if let Some((v, line)) = f.unsigned("runs")? {
            let v = u32::try_from(v)
                .map_err(|_| format!("line {line}: [campaign] field 'runs' is out of range"))?;
            c.runs = f.checked("runs", line, check::runs(v))?;
        }
        if let Some((v, _)) = f.unsigned("seed")? {
            c.seed = v;
        }
        if let Some((v, line)) = f.float("horizon")? {
            c.horizon = f.checked("horizon", line, check::positive(v))?;
        }
        if let Some((s, line)) = f.str("destinations")? {
            c.destinations = Some(f.checked("destinations", line, DestinationsSpec::parse(&s))?);
        }
        f.finish()?;
    }
    c.faults = parse_faults(root, seen)?;
    c.trace = parse_trace(root, seen)?;
    if c.trace.is_some() && c.destinations.is_some() {
        return Err(
            "[trace] is not supported on multi-destination campaigns (drop 'destinations' or the [trace] section)"
                .to_string(),
        );
    }
    Ok(c)
}

fn parse_trace(root: &Table, seen: &mut Vec<&'static str>) -> Result<Option<TraceSection>, String> {
    let Some(table) = section(root, "trace", seen, "trace")? else {
        return Ok(None);
    };
    let mut f = Fields::new("trace", table);
    let Some((path, _)) = f.str("path")? else {
        return Err(format!(
            "line {}: [trace] needs a 'path' field (the output file)",
            table.line
        ));
    };
    let mut out = TraceSection::new(path);
    if let Some((classes, line)) = f.str_list("classes")? {
        f.checked(
            "classes",
            line,
            lsrp_trace::EventClasses::from_names(&classes),
        )?;
        out.classes = Some(classes);
    }
    if let Some((v, _)) = f.unsigned("snapshot_every")? {
        out.snapshot_every = Some(v);
    }
    f.finish()?;
    Ok(Some(out))
}

fn parse_report(
    root: &Table,
    seen: &mut Vec<&'static str>,
    columns_vocab: &[&str],
    kind: &str,
) -> Result<ReportSection, String> {
    let Some(table) = section(root, "report", seen, "report")? else {
        return Err("missing required [report] section".to_string());
    };
    let mut f = Fields::new("report", table);
    let Some((title, _)) = f.str("title")? else {
        return Err(format!(
            "line {}: [report] needs a 'title' field",
            table.line
        ));
    };
    let Some((columns, cols_line)) = f.str_list("columns")? else {
        return Err(format!(
            "line {}: [report] needs a 'columns' field",
            table.line
        ));
    };
    f.finish()?;
    if columns.is_empty() {
        return Err(format!(
            "line {cols_line}: [report] 'columns' must list at least one column"
        ));
    }
    for c in &columns {
        if !columns_vocab.contains(&c.as_str()) {
            return Err(format!(
                "line {cols_line}: unknown column '{c}' for kind '{kind}' (try {})",
                columns_vocab.join(", ")
            ));
        }
    }
    Ok(ReportSection { title, columns })
}

fn parse_protocol_field(f: &mut Fields<'_>) -> Result<Option<Protocol>, String> {
    match f.str("protocol")? {
        None => Ok(None),
        Some((s, line)) => Ok(Some(f.checked("protocol", line, Protocol::parse(&s))?)),
    }
}

fn parse_recovery(root: &Table, seen: &mut Vec<&'static str>) -> Result<RecoveryScenario, String> {
    let Some(table) = section(root, "recovery", seen, "recovery")? else {
        return Err("missing required [recovery] section".to_string());
    };
    let mut f = Fields::new("recovery", table);
    let protocol = parse_protocol_field(&mut f)?;
    let width =
        f.unsigned("width")?
            .map(|(v, line)| {
                u32::try_from(v).ok().filter(|&w| w >= 2).ok_or_else(|| {
                    format!("line {line}: [recovery] field 'width' must be at least 2")
                })
            })
            .transpose()?;
    let p = f.unsigned("p")?.map(|(v, _)| v as usize);
    let seed = f.unsigned("seed")?.map_or(0, |(v, _)| v);
    let seed_mode = match f.str("seed_mode")? {
        None => SeedMode::Fixed,
        Some((s, line)) => match s.as_str() {
            "fixed" => SeedMode::Fixed,
            "plus-width" => SeedMode::PlusWidth,
            other => {
                return Err(format!(
                    "line {line}: [recovery] field 'seed_mode' must be 'fixed' or 'plus-width', got '{other}'"
                ))
            }
        },
    };
    let fault = match f.str("fault")? {
        None => RegionFault::CorruptPlan,
        Some((s, line)) => match s.as_str() {
            "corrupt-region" => RegionFault::CorruptPlan,
            "blackhole-region" => RegionFault::Blackhole,
            other => {
                return Err(format!(
                    "line {line}: [recovery] field 'fault' must be 'corrupt-region' or 'blackhole-region', got '{other}'"
                ))
            }
        },
    };
    let plane = match f.str("plane")? {
        None => Plane::Single,
        Some((s, line)) => match s.as_str() {
            "single" => Plane::Single,
            "multi" => Plane::Multi,
            other => {
                return Err(format!(
                "line {line}: [recovery] field 'plane' must be 'single' or 'multi', got '{other}'"
            ))
            }
        },
    };
    let destinations = match f.str("destinations")? {
        None => None,
        Some((s, line)) => {
            if plane != Plane::Multi {
                return Err(format!(
                    "line {line}: [recovery] field 'destinations' requires plane = \"multi\""
                ));
            }
            Some(f.checked("destinations", line, DestinationsSpec::parse(&s))?)
        }
    };
    let require_correct = f.boolean("require_correct")?.is_none_or(|(b, _)| b);
    f.finish()?;

    // Optional explicit topology + [[fault.region]] cases (E7).
    let mut topology = None;
    let mut topology_seed = None;
    if let Some(table) = section(root, "topology", seen, "topology")? {
        let mut f = Fields::new("topology", table);
        let Some((spec, line)) = f.str("spec")? else {
            return Err(format!(
                "line {}: [topology] needs a 'spec' field (e.g. spec = \"ring:64\")",
                table.line
            ));
        };
        topology = Some(f.checked("spec", line, TopologySpec::parse(&spec))?);
        topology_seed = f.unsigned("seed")?.map(|(v, _)| v);
        f.finish()?;
    }
    let (regions, recurring) = parse_fault_tables(root, seen)?;
    if !regions.is_empty() && !recurring.is_empty() {
        return Err(format!(
            "line {}: [[fault.region]] and [[fault.recurring]] are mutually exclusive",
            table.line
        ));
    }
    if !recurring.is_empty() {
        let line = table.line;
        if width.is_none() {
            return Err(format!(
                "line {line}: [[fault.recurring]] needs a fixed [recovery] 'width' (the run builds a width x width grid)"
            ));
        }
        if topology.is_some() {
            return Err(format!(
                "line {line}: [topology] does not apply to [[fault.recurring]] (the grid is built from 'width')"
            ));
        }
        if plane != Plane::Single {
            return Err(format!(
                "line {line}: [[fault.recurring]] runs on the single-tree plane"
            ));
        }
        if protocol.is_some_and(|p| p != Protocol::Lsrp) {
            return Err(format!(
                "line {line}: [[fault.recurring]] drives the LSRP simulation (set protocol = \"lsrp\" or omit it)"
            ));
        }
    }
    if !regions.is_empty() {
        let line = table.line;
        if topology.is_none() {
            return Err(format!(
                "line {line}: [[fault.region]] cases need a [topology] section"
            ));
        }
        if width.is_some() {
            return Err(format!(
                "line {line}: [recovery] 'width' does not apply to [[fault.region]] cases (set [topology] spec instead)"
            ));
        }
        if plane != Plane::Single {
            return Err(format!(
                "line {line}: [[fault.region]] cases run on the single-tree plane"
            ));
        }
    } else if recurring.is_empty() && topology.is_some() {
        return Err(format!(
            "line {}: [topology] on a recovery scenario needs [[fault.region]] cases (the sweep path builds a grid from 'width')",
            table.line
        ));
    }

    let mut engine = EngineSection::default();
    if let Some(table) = section(root, "engine", seen, "engine")? {
        let mut f = Fields::new("engine", table);
        if let Some((sp, line)) = f
            .scalar("jitter", "array of two floats")?
            .map(|sp| (sp, sp.line))
        {
            let Value::Array(items) = &sp.value else {
                return Err(f.mismatch("jitter", "array of two floats", sp));
            };
            let nums: Vec<f64> = items
                .iter()
                .map(|it| match it.value {
                    Value::Float(x) => Ok(x),
                    #[allow(clippy::cast_precision_loss)]
                    Value::Int(i) => Ok(i as f64),
                    _ => Err(format!(
                        "line {}: [engine] field 'jitter' must contain numbers",
                        it.line
                    )),
                })
                .collect::<Result<_, _>>()?;
            let [lo, hi] = nums.as_slice() else {
                return Err(format!(
                    "line {line}: [engine] field 'jitter' must be [min, max]"
                ));
            };
            if !(lo.is_finite() && hi.is_finite() && *lo > 0.0 && hi >= lo) {
                return Err(format!(
                    "line {line}: [engine] field 'jitter' needs 0 < min <= max"
                ));
            }
            engine.jitter = Some((*lo, *hi));
        }
        if let Some((v, line)) = f.float("clock_rho")? {
            if !(v.is_finite() && v >= 1.0) {
                return Err(format!(
                    "line {line}: [engine] field 'clock_rho' must be >= 1"
                ));
            }
            engine.clock_rho = Some(v);
        }
        if let Some((v, line)) = f.float("loss")? {
            engine.loss = Some(f.checked("loss", line, check::loss(v))?);
        }
        if let Some((v, line)) = f.float("syn_period")? {
            engine.syn_period = Some(f.checked("syn_period", line, check::positive(v))?);
        }
        f.finish()?;
        if engine.jitter.is_some() != engine.clock_rho.is_some() {
            return Err(format!(
                "line {}: [engine] 'jitter' and 'clock_rho' must be set together (the harsh model needs both)",
                table.line
            ));
        }
    }

    let vocab = if plane == Plane::Multi {
        crate::exec::RECOVERY_MULTI_COLUMNS
    } else if !regions.is_empty() {
        crate::exec::REGION_CASE_COLUMNS
    } else if !recurring.is_empty() {
        crate::exec::RECURRING_COLUMNS
    } else {
        crate::exec::RECOVERY_COLUMNS
    };
    let report = parse_report(root, seen, vocab, "recovery")?;
    let axes: &[&str] = if !recurring.is_empty() {
        &["period"]
    } else if plane == Plane::Multi {
        &["width", "p"]
    } else {
        &["protocol", "width", "p", "loss"]
    };
    let sweep = parse_sweep(root, seen, axes, "recovery")?;
    if !regions.is_empty() && (!sweep.axes.is_empty() || !sweep.cases.is_empty()) {
        return Err(
            "[[fault.region]] cases and a [sweep] cannot be combined (each case is already one row)"
                .to_string(),
        );
    }
    if !recurring.is_empty() {
        let swept = sweep.axes.iter().any(|(k, _)| k == "period")
            || sweep
                .cases
                .iter()
                .all(|c| c.iter().any(|(k, _)| k == "period"))
                && !sweep.cases.is_empty();
        if !swept {
            for rec in &recurring {
                if rec.period.is_none() {
                    return Err(format!(
                        "[[fault.recurring]] seed_node {} needs a 'period' (or sweep one with [sweep] period)",
                        rec.seed_node
                    ));
                }
            }
        }
    }
    Ok(RecoveryScenario {
        protocol,
        width,
        p,
        topology,
        topology_seed,
        regions,
        recurring,
        seed,
        seed_mode,
        fault,
        plane,
        destinations,
        require_correct,
        engine,
        report,
        sweep,
    })
}

/// Parses the `[[fault.region]]` and `[[fault.recurring]]` arrays:
/// each `region` entry is one concurrent perturbed region tagged with
/// the `case` (table row) it belongs to; each `recurring` entry is one
/// periodically re-perturbed region.
fn parse_fault_tables(
    root: &Table,
    seen: &mut Vec<&'static str>,
) -> Result<(Vec<FaultRegion>, Vec<FaultRecurring>), String> {
    seen.push("fault");
    let Some(entry) = root.get("fault") else {
        return Ok((Vec::new(), Vec::new()));
    };
    let Entry::Table(fault) = entry else {
        return Err("'fault' must hold [[fault.region]] or [[fault.recurring]] tables".to_string());
    };
    let mut regions = Vec::new();
    let mut recurring = Vec::new();
    for (key, entry) in &fault.entries {
        if key != "region" && key != "recurring" {
            return Err(format!(
                "unknown key '{key}' under [fault] (only [[fault.region]] and [[fault.recurring]] tables are recognized)"
            ));
        }
        let tables: &[Table] = match entry {
            Entry::Tables(ts) => ts,
            Entry::Table(t) => std::slice::from_ref(t),
            Entry::Value(sp) => {
                return Err(format!(
                    "line {}: 'fault.{key}' must be [[fault.{key}]] tables, got {}",
                    sp.line,
                    sp.value.type_name()
                ))
            }
        };
        for t in tables {
            if key == "region" {
                regions.push(parse_one_region(t)?);
            } else {
                recurring.push(parse_one_recurring(t)?);
            }
        }
    }
    Ok((regions, recurring))
}

fn region_size(f: &mut Fields<'_>, section: &str) -> Result<Option<usize>, String> {
    f.unsigned("size")?
        .map(|(v, line)| {
            if v == 0 {
                return Err(format!(
                    "line {line}: [[{section}]] field 'size' must be at least 1"
                ));
            }
            Ok(v as usize)
        })
        .transpose()
}

fn region_seed_node(f: &mut Fields<'_>, t: &Table, section: &str) -> Result<NodeId, String> {
    let Some((node, line)) = f.unsigned("seed_node")? else {
        return Err(format!(
            "line {}: [[{section}]] needs a 'seed_node'",
            t.line
        ));
    };
    u32::try_from(node)
        .map(NodeId::new)
        .map_err(|_| format!("line {line}: [[{section}]] field 'seed_node' is out of range"))
}

fn parse_one_region(t: &Table) -> Result<FaultRegion, String> {
    let mut f = Fields::new("fault.region", t);
    let Some((case, _)) = f.str("case")? else {
        return Err(format!(
            "line {}: [[fault.region]] needs a 'case' label (regions with the same label run concurrently)",
            t.line
        ));
    };
    let seed_node = region_seed_node(&mut f, t, "fault.region")?;
    let size = region_size(&mut f, "fault.region")?;
    f.finish()?;
    Ok(FaultRegion {
        case,
        seed_node,
        size,
    })
}

fn parse_one_recurring(t: &Table) -> Result<FaultRecurring, String> {
    let mut f = Fields::new("fault.recurring", t);
    let seed_node = region_seed_node(&mut f, t, "fault.recurring")?;
    let size = region_size(&mut f, "fault.recurring")?;
    let period = f
        .float("period")?
        .map(|(v, line)| f.checked("period", line, check::positive(v)))
        .transpose()?;
    let jitter = match f.float("jitter")? {
        None => 0.0,
        Some((v, line)) => {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "line {line}: [fault.recurring] field 'jitter' must be >= 0"
                ));
            }
            v
        }
    };
    let occurrences = match f.unsigned("occurrences")? {
        None => 5,
        Some((v, line)) => {
            let v = u32::try_from(v).map_err(|_| {
                format!("line {line}: [fault.recurring] field 'occurrences' is out of range")
            })?;
            if v == 0 {
                return Err(format!(
                    "line {line}: [fault.recurring] field 'occurrences' must be at least 1"
                ));
            }
            v
        }
    };
    f.finish()?;
    Ok(FaultRecurring {
        seed_node,
        size,
        period,
        jitter,
        occurrences,
    })
}

fn parse_hijack(root: &Table, seen: &mut Vec<&'static str>) -> Result<HijackScenario, String> {
    let Some(table) = section(root, "hijack", seen, "hijack")? else {
        return Err("missing required [hijack] section".to_string());
    };
    let mut f = Fields::new("hijack", table);
    let mode = match f.str("mode")? {
        None => HijackMode::Live,
        Some((s, line)) => match s.as_str() {
            "live" => HijackMode::Live,
            "snapshot" => HijackMode::Snapshot,
            other => {
                return Err(format!(
                    "line {line}: [hijack] field 'mode' must be 'live' or 'snapshot', got '{other}'"
                ))
            }
        },
    };
    let Some((width, width_line)) = f.unsigned("width")? else {
        return Err(format!(
            "line {}: [hijack] needs a 'width' field",
            table.line
        ));
    };
    let width = u32::try_from(width)
        .ok()
        .filter(|&w| w >= 2)
        .ok_or_else(|| format!("line {width_line}: [hijack] field 'width' must be at least 2"))?;
    let p = f.unsigned("p")?.map(|(v, _)| v as usize);
    let protocol = parse_protocol_field(&mut f)?;
    let seed = f.unsigned("seed")?.map_or(0, |(v, _)| v);
    let mut prefault = 30.0;
    if let Some((v, line)) = f.float("prefault")? {
        prefault = f.checked("prefault", line, check::positive(v))?;
    }
    let mut window = 10.0;
    if let Some((v, line)) = f.float("window")? {
        window = f.checked("window", line, check::positive(v))?;
    }
    let mut sample_every = 1.0;
    if let Some((v, line)) = f.float("sample_every")? {
        sample_every = f.checked("sample_every", line, check::positive(v))?;
    }
    let mut duration = 240.0;
    if let Some((v, line)) = f.float("duration")? {
        duration = f.checked("duration", line, check::positive(v))?;
    }
    f.finish()?;

    let workload = parse_workload_section(root, seen)?;
    if mode == HijackMode::Live {
        let nodes = u64::from(width) * u64::from(width);
        check_workload(root, &workload, (nodes, 1, duration), "hijack")?;
    }
    let congestion = parse_congestion(root, seen)?;
    let vocab = match mode {
        HijackMode::Live => crate::exec::HIJACK_LIVE_COLUMNS,
        HijackMode::Snapshot => crate::exec::HIJACK_SNAPSHOT_COLUMNS,
    };
    let report = parse_report(root, seen, vocab, "hijack")?;
    let axes: &[&str] = match mode {
        HijackMode::Live => &["p"],
        HijackMode::Snapshot => &["protocol", "p"],
    };
    let sweep = parse_sweep(root, seen, axes, "hijack")?;
    Ok(HijackScenario {
        mode,
        width,
        p,
        protocol,
        seed,
        prefault,
        window,
        sample_every,
        duration,
        workload,
        congestion,
        report,
        sweep,
    })
}

/// Parses a scenario file's text.
///
/// # Errors
///
/// Returns a `line N: ...` diagnostic naming the offending field for
/// syntax errors, unknown fields/sections, type mismatches, out-of-range
/// values and contradictory sweep declarations.
pub fn load_str(src: &str) -> Result<Scenario, String> {
    let root = toml::parse(src).map_err(|e| e.to_string())?;
    let mut seen: Vec<&'static str> = Vec::new();
    let Some(header) = section(&root, "scenario", &mut seen, "scenario")? else {
        return Err("missing required [scenario] section".to_string());
    };
    let mut f = Fields::new("scenario", header);
    let Some((name, _)) = f.str("name")? else {
        return Err(format!(
            "line {}: [scenario] needs a 'name' field",
            header.line
        ));
    };
    let Some((kind, kind_line)) = f.str("kind")? else {
        return Err(format!(
            "line {}: [scenario] needs a 'kind' field (chaos, traffic, recovery, hijack)",
            header.line
        ));
    };
    let description = f.str("description")?.map(|(s, _)| s);
    let expect_raw = f.str_list("expect")?;
    f.finish()?;

    let body = match kind.as_str() {
        "chaos" => ScenarioBody::Chaos(parse_campaign(&root, &mut seen)?),
        "traffic" => {
            let mut t = TrafficScenario::new(parse_campaign(&root, &mut seen)?);
            t.workload = parse_workload_section(&root, &mut seen)?;
            t.congestion = parse_congestion(&root, &mut seen)?.unwrap_or_default();
            seen.push("traffic");
            if let Some(table) = section(&root, "traffic", &mut seen, "traffic")? {
                let mut f = Fields::new("traffic", table);
                if let Some((v, line)) = f.float("duration")? {
                    t.duration = f.checked("duration", line, check::positive(v))?;
                }
                f.finish()?;
            }
            let nodes = t.base.topology.node_count();
            let destinations = t.base.destinations.map_or(1, |d| d.count(nodes));
            let weight = (nodes, destinations, t.duration);
            check_workload(&root, &t.workload, weight, "traffic")?;
            ScenarioBody::Traffic(t)
        }
        "recovery" => ScenarioBody::Recovery(parse_recovery(&root, &mut seen)?),
        "hijack" => ScenarioBody::Hijack(parse_hijack(&root, &mut seen)?),
        other => {
            return Err(format!(
                "line {kind_line}: unknown scenario kind '{other}' (try chaos, traffic, recovery, hijack)"
            ))
        }
    };

    // Reject sections that do not belong to this kind.
    for (key, entry) in &root.entries {
        if !seen.iter().any(|s| s == key) {
            let line = match entry {
                Entry::Value(sp) => sp.line,
                Entry::Table(t) => t.line,
                Entry::Tables(ts) => ts.first().map_or(0, |t| t.line),
            };
            return Err(format!(
                "line {line}: unknown section [{key}] for kind '{kind}'"
            ));
        }
    }

    let mut expect = Vec::new();
    if let Some((raw, line)) = expect_raw {
        let vocab = crate::exec::expect_vocabulary(&body);
        for s in raw {
            let e = Expectation::parse(&s).map_err(|msg| format!("line {line}: {msg}"))?;
            if !vocab.contains(&e.metric.as_str()) {
                return Err(format!(
                    "line {line}: unknown expectation metric '{}' for kind '{kind}' (try {})",
                    e.metric,
                    vocab.join(", ")
                ));
            }
            expect.push(e);
        }
    }

    Ok(Scenario {
        name,
        description,
        body,
        expect,
    })
}
