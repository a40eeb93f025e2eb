//! Chaos campaigns: seeded adversarial runs judged by online monitors.
//!
//! A *campaign* replays N independent chaos runs against one topology,
//! toward one destination or many, with or without a traffic workload
//! riding the same engine — all through [`run_campaign`].
//! Each run derives everything — the stochastic fault schedule (via
//! [`lsrp_faults::FaultProcess`]), the engine's link-delay and loss
//! randomness, and hence every monitor verdict — from a single `u64`
//! seed, so:
//!
//! * the same seed reproduces the same violations **byte for byte** (the
//!   campaign [`report`](Campaign::report) is deterministic text);
//! * a violating run can be handed to [`minimize_run`], which replays
//!   candidate subsequences under the original seed and ddmin-shrinks the
//!   schedule to a 1-minimal reproduction;
//! * the shrunken reproduction serializes as a [`ReproCase`] — a small
//!   text artifact embedding topology spec, seed and schedule — suitable
//!   for checking in as a regression test and replaying with
//!   [`replay_repro`].
//!
//! The run protocol: build the simulation with the run's seed, let it
//! reach its fault-free fixpoint (monitors must judge *recovery*, not
//! cold-start convergence), then drive the fault schedule one engine
//! event at a time through [`run_monitored`] with the
//! [`standard_monitors`] set. The multi-destination plane
//! ([`crate::multi_chaos`]) and traffic runs ([`crate::traffic`]) follow
//! the same settle, offset, drive, judge protocol with their own loops.

use std::fmt::Write as _;
use std::ops::Range;

use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::{FaultProcess, FaultSchedule, ScheduleParseError};
use lsrp_graph::{Graph, NodeId};
use lsrp_sim::EngineConfig;

use crate::monitor::{run_monitored, standard_monitors, MonitorReport, Violation};
use crate::multi_chaos::multi_chaos_run;
use crate::parallel::run_sharded;
use crate::traffic::{multi_traffic_run, traffic_run, TrafficConfig, TrafficSummary};

/// Everything one chaos run needs besides its seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The stochastic fault process generating each run's schedule.
    pub process: FaultProcess,
    /// Faults are drawn within this many seconds after initial
    /// convergence.
    pub fault_window: f64,
    /// Hard stop for each run (simulated seconds).
    pub horizon: f64,
    /// Link/clock configuration shared by all runs (the per-run seed is
    /// substituted in).
    pub engine: EngineConfig,
    /// Optional wave-timing override, applied *without* the builder's
    /// wave-speed validation. `None` uses the default (paper) timing.
    /// Setting a deliberately broken hierarchy (e.g. `hd_c >= hd_s`) is
    /// how the harness proves the wave-order monitor catches
    /// misconfiguration.
    pub timing: Option<lsrp_core::TimingConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            process: FaultProcess::standard(),
            fault_window: 600.0,
            horizon: 100_000.0,
            engine: EngineConfig::default(),
            timing: None,
        }
    }
}

/// What every run of a campaign routes toward.
#[derive(Debug, Clone)]
pub enum Target {
    /// One destination tree, judged by the [`standard_monitors`].
    Destination(NodeId),
    /// The dense multi-destination plane ([`lsrp_multi`]), judged on
    /// quiescence plus every tree's route correctness.
    Destinations(Vec<NodeId>),
}

/// What every run of a campaign drives.
#[derive(Debug, Clone)]
pub enum CampaignConfig {
    /// The fault process alone.
    Chaos(ChaosConfig),
    /// The fault process with a traffic workload riding the same engine.
    Traffic(TrafficConfig),
}

/// One completed campaign run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The run's seed (schedule generation and engine randomness).
    pub seed: u64,
    /// The generated fault schedule (absolute sim times).
    pub schedule: FaultSchedule,
    /// The monitored outcome. Multi-destination runs carry no online
    /// monitors, so their `violations` stay empty.
    pub report: MonitorReport,
    /// Multi-destination runs: whether every destination's route table
    /// was correct at the end (`None` on one destination).
    pub routes_correct: Option<bool>,
    /// Traffic runs: the data-plane verdict (`None` on chaos alone).
    /// Boxed so a chaos run stays small on its way through the sharded
    /// runner's channel: inline, it costs `campaign_sweep` 2 MiB of peak
    /// RSS.
    pub traffic: Option<Box<TrafficSummary>>,
}

impl CampaignRun {
    /// Whether the run failed: a monitor fired on one destination, or the
    /// multi-destination plane did not settle to correct routes.
    pub fn violating(&self) -> bool {
        match self.routes_correct {
            Some(correct) => !(self.report.quiescent && correct),
            None => !self.report.violations.is_empty(),
        }
    }
}

/// A finished campaign over one topology.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Topology spec string (opaque here; the CLI resolves it).
    pub topology: String,
    /// What every run routes toward.
    pub target: Target,
    /// What every run drives.
    pub config: CampaignConfig,
    /// All runs, in seed order.
    pub runs: Vec<CampaignRun>,
}

impl Campaign {
    /// The violating runs.
    pub fn violating(&self) -> impl Iterator<Item = &CampaignRun> {
        self.runs.iter().filter(|r| r.violating())
    }

    /// Renders the campaign as deterministic text: same topology, seeds
    /// and config produce the identical string, byte for byte, for every
    /// worker count.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let kind = match self.config {
            CampaignConfig::Chaos(_) => "chaos",
            CampaignConfig::Traffic(_) => "traffic",
        };
        let (plane, target) = match &self.target {
            Target::Destination(d) => ("", format!("destination {d}")),
            Target::Destinations(ds) => ("multi ", format!("destinations {}", ds.len())),
        };
        let _ = writeln!(
            out,
            "{plane}{kind} campaign: topology {} {target} runs {} violating {}",
            self.topology,
            self.runs.len(),
            self.violating().count()
        );
        for run in &self.runs {
            let _ = write!(
                out,
                "run seed={} faults={} events={} end={} quiescent={} ",
                run.seed,
                run.schedule.len(),
                run.report.events,
                run.report.end,
                run.report.quiescent,
            );
            let _ = match run.routes_correct {
                Some(correct) => write!(out, "routes_correct={correct}"),
                None => write!(out, "violations={}", run.report.violations.len()),
            };
            if let Some(traffic) = &run.traffic {
                let _ = write!(out, " {}", traffic.report_fragment());
            }
            out.push('\n');
            for v in &run.report.violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }
}

/// Builds the run's simulation, settles it to the fault-free fixpoint and
/// returns it (all randomness seeded by `seed`).
pub(crate) fn settled_sim(
    graph: &Graph,
    destination: NodeId,
    config: &ChaosConfig,
    seed: u64,
) -> LsrpSimulation {
    let mut builder = LsrpSimulation::builder(graph.clone(), destination)
        .engine_config(config.engine.clone().with_seed(seed));
    if let Some(timing) = config.timing {
        builder = builder.timing_unchecked(timing);
    }
    let mut sim = builder.build();
    sim.run_to_quiescence(config.horizon);
    sim
}

/// Replays `schedule` under `seed` with the standard monitor set and
/// returns the monitored outcome. This is the single entry point used by
/// campaigns, the minimizer and repro-case replay, which is what makes
/// their verdicts agree.
pub fn replay(
    graph: &Graph,
    destination: NodeId,
    config: &ChaosConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> MonitorReport {
    let mut sim = settled_sim(graph, destination, config, seed);
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, graph.node_count());
    run_monitored(&mut sim, schedule, config.horizon, &mut monitors)
}

/// Runs one seeded chaos run: generates the schedule from the fault
/// process (offset past initial convergence) and replays it.
pub(crate) fn chaos_run(
    graph: &Graph,
    destination: NodeId,
    config: &ChaosConfig,
    seed: u64,
) -> CampaignRun {
    // Settle once and keep the simulation: the schedule starts after the
    // fault-free fixpoint, and driving the *same* engine keeps one-shot
    // streaming sinks (see `EngineConfig::sink_factory`) attached to the
    // run they trace. Determinism makes this equivalent to re-building.
    let mut sim = settled_sim(graph, destination, config, seed);
    let t0 = sim.now().seconds();
    let schedule = config
        .process
        .generate(graph, destination, config.fault_window, seed)
        .shifted(t0);
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, graph.node_count());
    let report = run_monitored(&mut sim, &schedule, config.horizon, &mut monitors);
    CampaignRun {
        seed,
        schedule,
        report,
        routes_correct: None,
        traffic: None,
    }
}

/// Runs one campaign run per seed in `seeds` toward `target`, sharded
/// over `jobs` worker threads. Runs are keyed by seed and merged in seed
/// order, so the campaign and its [`Campaign::report`] are byte-identical
/// for every `jobs` value.
///
/// A one-shot streaming sink on the engine config
/// (`EngineConfig::sink_factory`) traces run 0 alone, whatever `jobs` is.
///
/// ```
/// # mod lsrp { pub mod analysis { pub use lsrp_analysis::*; } pub mod graph { pub use lsrp_graph::*; } }
/// use lsrp::analysis::chaos::{minimize_run, run_campaign, CampaignConfig, ChaosConfig, Target};
/// use lsrp::graph::{generators, NodeId};
///
/// let g = generators::grid(6, 6, 1);
/// let cfg = ChaosConfig::default();
/// let dest = NodeId::new(0);
/// let (target, config) = (Target::Destination(dest), CampaignConfig::Chaos(cfg.clone()));
/// let campaign = run_campaign(&g, "grid:6x6", target, config, 1..11, 1);
/// print!("{}", campaign.report());
/// for run in campaign.violating() {
///     let (minimal, violation) = minimize_run(&g, dest, &cfg, run);
///     println!("{violation}\n{}", minimal.to_text()); // check in as a regression test
/// }
/// ```
///
/// # Panics
///
/// Panics if `target` names no destination or a node outside `graph`.
pub fn run_campaign(
    graph: &Graph,
    topology: &str,
    target: Target,
    config: CampaignConfig,
    seeds: Range<u64>,
    jobs: usize,
) -> Campaign {
    // Every run but the first gets a factory-stripped config, so which
    // run is traced never depends on which worker builds first.
    let mut rest = config.clone();
    let (CampaignConfig::Chaos(chaos) | CampaignConfig::Traffic(TrafficConfig { chaos, .. })) =
        &mut rest;
    chaos.engine.sink_factory = None;
    let (g, t, first) = (graph.clone(), target.clone(), config.clone());
    let seeds: Vec<u64> = seeds.collect();
    let runs = run_sharded(jobs, seeds.len(), move |i| {
        let (cfg, seed) = (if i == 0 { &first } else { &rest }, seeds[i]);
        match (&t, cfg) {
            (Target::Destination(d), CampaignConfig::Chaos(c)) => chaos_run(&g, *d, c, seed),
            (Target::Destinations(ds), CampaignConfig::Chaos(c)) => {
                multi_chaos_run(&g, ds, c, seed)
            }
            (Target::Destination(d), CampaignConfig::Traffic(c)) => traffic_run(&g, *d, c, seed),
            (Target::Destinations(ds), CampaignConfig::Traffic(c)) => {
                multi_traffic_run(&g, ds, c, seed)
            }
        }
    });
    Campaign {
        topology: topology.to_string(),
        target,
        config,
        runs,
    }
}

/// Shrinks a violating run's schedule to a 1-minimal subsequence that
/// still reproduces a violation of the same kind as the run's first one.
///
/// Returns the minimized schedule and the violation it reproduces.
///
/// # Panics
///
/// Panics if `run` has no violations, or if its full schedule no longer
/// reproduces one (a seed/config mismatch with the original campaign).
pub fn minimize_run(
    graph: &Graph,
    destination: NodeId,
    config: &ChaosConfig,
    run: &CampaignRun,
) -> (FaultSchedule, Violation) {
    let kind = run
        .report
        .violations
        .first()
        .expect("minimize_run needs a violating run")
        .kind;
    let minimized = lsrp_faults::shrink_schedule(&run.schedule, |candidate| {
        replay(graph, destination, config, run.seed, candidate)
            .violations
            .iter()
            .any(|v| v.kind == kind)
    });
    let violation = replay(graph, destination, config, run.seed, &minimized)
        .violations
        .into_iter()
        .find(|v| v.kind == kind)
        .expect("shrinker only accepts reproducing candidates");
    (minimized, violation)
}

// ---------------------------------------------------------------------
// Repro cases.
// ---------------------------------------------------------------------

/// A self-contained, replayable reproduction of a violation: topology
/// spec, destination, seed and (usually minimized) fault schedule, with a
/// line-oriented text form for checking into a test suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCase {
    /// Topology spec string (e.g. `grid:4x4`); resolved by the caller.
    pub topology: String,
    /// Seed for the topology *generator* (random topologies only depend
    /// on it; it usually differs from the run seed in a campaign).
    pub topology_seed: u64,
    /// Destination node.
    pub destination: NodeId,
    /// The violating run's seed.
    pub seed: u64,
    /// The fault schedule to replay.
    pub schedule: FaultSchedule,
}

impl ReproCase {
    /// Serializes to the replayable text form.
    pub fn to_text(&self) -> String {
        format!(
            "# lsrp chaos repro\ntopology {}\ntopology-seed {}\ndestination {}\nseed {}\nschedule\n{}",
            self.topology,
            self.topology_seed,
            self.destination,
            self.seed,
            self.schedule.to_text()
        )
    }

    /// Parses the text form produced by [`ReproCase::to_text`].
    pub fn parse(text: &str) -> Result<ReproCase, ScheduleParseError> {
        let mut topology = None;
        let mut topology_seed = None;
        let mut destination = None;
        let mut seed = None;
        let mut schedule_lines = Vec::new();
        let mut in_schedule = false;
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let bad = |message: &str| ScheduleParseError {
                line: lineno,
                message: message.to_string(),
            };
            if in_schedule {
                schedule_lines.push(line);
                continue;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match trimmed.split_once(' ') {
                _ if trimmed == "schedule" => in_schedule = true,
                Some(("topology", v)) => topology = Some(v.trim().to_string()),
                Some(("topology-seed", v)) => {
                    topology_seed =
                        Some(v.trim().parse().map_err(|_| bad("invalid topology seed"))?);
                }
                Some(("destination", v)) => {
                    let raw = v.trim().strip_prefix('v').unwrap_or(v.trim());
                    destination = Some(NodeId::new(
                        raw.parse().map_err(|_| bad("invalid destination"))?,
                    ));
                }
                Some(("seed", v)) => {
                    seed = Some(v.trim().parse().map_err(|_| bad("invalid seed"))?);
                }
                _ => return Err(bad("expected topology/destination/seed/schedule")),
            }
        }
        let missing = |line: usize, message: &str| ScheduleParseError {
            line,
            message: message.to_string(),
        };
        Ok(ReproCase {
            topology: topology.ok_or_else(|| missing(1, "missing topology line"))?,
            topology_seed: topology_seed.unwrap_or(0),
            destination: destination.ok_or_else(|| missing(1, "missing destination line"))?,
            seed: seed.ok_or_else(|| missing(1, "missing seed line"))?,
            schedule: FaultSchedule::parse(&schedule_lines.join("\n"))?,
        })
    }
}

/// Replays a repro case against an already-resolved graph and returns the
/// monitored outcome.
pub fn replay_repro(graph: &Graph, config: &ChaosConfig, repro: &ReproCase) -> MonitorReport {
    replay(
        graph,
        repro.destination,
        config,
        repro.seed,
        &repro.schedule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn small_config() -> ChaosConfig {
        ChaosConfig {
            process: FaultProcess {
                link_flaps: 1,
                node_churn: 1,
                partitions: 0,
                corruptions: 2,
                weight_drifts: 0,
                min_outage: 20.0,
                max_outage: 60.0,
            },
            fault_window: 300.0,
            horizon: 100_000.0,
            engine: EngineConfig::default(),
            timing: None,
        }
    }

    /// A serial single-destination chaos campaign on `grid:3x3`.
    fn grid_campaign(seeds: Range<u64>) -> Campaign {
        let g = generators::grid(3, 3, 1);
        let (target, config) = (
            Target::Destination(v(0)),
            CampaignConfig::Chaos(small_config()),
        );
        run_campaign(&g, "grid:3x3", target, config, seeds, 1)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_report() {
        let a = grid_campaign(7..10);
        let b = grid_campaign(7..10);
        assert_eq!(a.report(), b.report());
        let c = grid_campaign(8..11);
        assert_ne!(a.report(), c.report(), "different seeds, different runs");
    }

    #[test]
    fn standard_chaos_on_a_grid_is_clean() {
        // LSRP under its own guarantees: the standard fault process on a
        // healthy grid must not trip any monitor.
        let campaign = grid_campaign(1..4);
        for run in &campaign.runs {
            assert!(run.report.quiescent, "seed {} did not settle", run.seed);
            assert!(
                !run.violating(),
                "seed {} violated: {:?}",
                run.seed,
                run.report.violations
            );
        }
    }

    #[test]
    fn repro_case_round_trips() {
        let g = generators::path(4, 1);
        let cfg = small_config();
        let run = chaos_run(&g, v(0), &cfg, 3);
        let repro = ReproCase {
            topology: "path:4".to_string(),
            topology_seed: 0,
            destination: v(0),
            seed: 3,
            schedule: run.schedule.clone(),
        };
        let parsed = ReproCase::parse(&repro.to_text()).expect("round trip");
        assert_eq!(parsed, repro);
        // And the parsed case replays to the original verdict.
        let replayed = replay_repro(&g, &cfg, &parsed);
        assert_eq!(replayed.violations, run.report.violations);
        assert_eq!(replayed.events, run.report.events);
    }

    #[test]
    fn repro_parse_rejects_garbage() {
        assert!(ReproCase::parse("topology grid:3x3\nseed 1\nschedule\n").is_err());
        assert!(ReproCase::parse("destination v0\nseed 1\nschedule\n").is_err());
        let err = ReproCase::parse("topology g\ndestination v0\nseed x\nschedule\n").unwrap_err();
        assert_eq!(err.line, 3);
    }
}
