//! Hand-rolled argument parsing for the `lsrp` binary.
//!
//! The value vocabulary (`--topology`, `--workload`, `--destinations`,
//! `--link-rate` range checks, ...) is shared with the scenario-file
//! loader through [`lsrp_scenario::spec`], so a spelling accepted on the
//! command line is accepted in a scenario file and vice versa. The
//! `chaos` and `traffic` flags fill in the [`Scenario`] value they run
//! as, with the scenario-file defaults.

use std::fmt;

use lsrp_graph::{Distance, NodeId};
use lsrp_scenario::schema::{CampaignScenario, TraceSection, TrafficScenario};
use lsrp_scenario::spec::{check, parse_cong_alg, parse_discipline, parse_workload};
use lsrp_scenario::{Protocol, Scenario, ScenarioBody};

pub use lsrp_scenario::{DestinationsSpec, TopologySpec};

/// A fault selector, e.g. `corrupt:9:1`, `fail-node:5`, `loop:8`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// `corrupt:NODE[:D]` — set `d.NODE := D` (default 0) and poison the
    /// neighborhood's mirrors.
    Corrupt(NodeId, Distance),
    /// `fail-node:NODE`
    FailNode(NodeId),
    /// `fail-edge:A:B`
    FailEdge(NodeId, NodeId),
    /// `join-edge:A:B:W`
    JoinEdge(NodeId, NodeId, u64),
    /// `weight:A:B:W`
    SetWeight(NodeId, NodeId, u64),
    /// `loop:LEN` — only valid with a `lollipop` topology; injects a
    /// corrupted-in loop on the ring.
    Loop,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run`: drive one protocol through the faults and report metrics.
    Run {
        /// Topology to build.
        topology: TopologySpec,
        /// Destination node (defaults to the topology's natural root).
        dest: Option<NodeId>,
        /// Protocol to run.
        protocol: Protocol,
        /// Faults to inject at time zero.
        faults: Vec<FaultSpec>,
        /// Engine seed.
        seed: u64,
        /// Print the per-node action timeline.
        timeline: bool,
    },
    /// `run <file.toml>`: compile and run a declarative scenario file.
    RunScenario {
        /// Path to the scenario file.
        path: String,
        /// Worker threads (the report is byte-identical for every value).
        jobs: usize,
        /// Region partitions for each cell's engine (byte-identical for
        /// every value; 1 is the sequential engine).
        regions: usize,
        /// Stream a structured event trace of the first run to this
        /// path (overrides the scenario's `[trace]` path if present).
        trace_out: Option<String>,
    },
    /// `scenario check`: parse and statically expand scenario files.
    ScenarioCheck {
        /// Paths to validate.
        paths: Vec<String>,
    },
    /// `scenario expand`: print one line per compiled cell.
    ScenarioExpand {
        /// Path to the scenario file.
        path: String,
    },
    /// `compare`: run the same scenario on all three protocols.
    Compare {
        /// Topology to build.
        topology: TopologySpec,
        /// Destination node.
        dest: Option<NodeId>,
        /// Faults to inject.
        faults: Vec<FaultSpec>,
        /// Engine seed.
        seed: u64,
    },
    /// `topo`: print topology statistics.
    Topo {
        /// Topology to build.
        topology: TopologySpec,
        /// Seed for random generators.
        seed: u64,
    },
    /// `chaos` or `traffic`: the flag-built campaign scenario, run
    /// exactly as `run FILE.toml` runs the equivalent file.
    Campaign {
        /// The `chaos` or `traffic` scenario the flags describe.
        scenario: Box<Scenario>,
        /// Worker threads (the report is byte-identical for every value).
        jobs: usize,
    },
    /// `viz <trace file>`: render a structured trace into a
    /// self-contained SVG/HTML visualization.
    Viz {
        /// Path to the JSONL trace file.
        input: String,
        /// Output path; defaults to the input with an `.html` extension.
        out: Option<String>,
    },
    /// `help`
    Help,
}

/// A parse failure, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

fn parse_u32(s: &str, what: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| err(format!("invalid {what}: {s}")))
}

fn parse_node(s: &str) -> Result<NodeId, ParseError> {
    let raw = s.strip_prefix('v').unwrap_or(s);
    Ok(NodeId::new(parse_u32(raw, "node id")?))
}

impl FaultSpec {
    /// Parses a `kind[:args]` fault selector.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        match (kind, rest.as_slice()) {
            ("corrupt", [node]) => Ok(FaultSpec::Corrupt(parse_node(node)?, Distance::ZERO)),
            ("corrupt", [node, d]) => {
                let dist = if *d == "inf" {
                    Distance::Infinite
                } else {
                    Distance::Finite(
                        d.parse()
                            .map_err(|_| err(format!("invalid distance: {d}")))?,
                    )
                };
                Ok(FaultSpec::Corrupt(parse_node(node)?, dist))
            }
            ("fail-node", [node]) => Ok(FaultSpec::FailNode(parse_node(node)?)),
            ("fail-edge", [a, b]) => Ok(FaultSpec::FailEdge(parse_node(a)?, parse_node(b)?)),
            ("join-edge", [a, b, w]) => Ok(FaultSpec::JoinEdge(
                parse_node(a)?,
                parse_node(b)?,
                w.parse().map_err(|_| err(format!("invalid weight: {w}")))?,
            )),
            ("weight", [a, b, w]) => Ok(FaultSpec::SetWeight(
                parse_node(a)?,
                parse_node(b)?,
                w.parse().map_err(|_| err(format!("invalid weight: {w}")))?,
            )),
            ("loop", []) => Ok(FaultSpec::Loop),
            _ => Err(err(format!(
                "unknown fault '{s}' (try corrupt:9:1, fail-node:5, fail-edge:0:1, \
                 join-edge:0:5:2, weight:0:1:3, loop)"
            ))),
        }
    }
}

/// Parses the `scenario check|expand` subcommands.
fn parse_scenario<I: Iterator<Item = String>>(mut args: I) -> Result<Command, ParseError> {
    let action = args
        .next()
        .ok_or_else(|| err("`lsrp scenario` wants an action: check or expand"))?;
    let rest: Vec<String> = args.collect();
    if rest.iter().any(|a| a.starts_with('-')) {
        return Err(err("`lsrp scenario` takes scenario files, not flags"));
    }
    match action.as_str() {
        "check" => {
            if rest.is_empty() {
                return Err(err(
                    "`lsrp scenario check` wants at least one scenario file",
                ));
            }
            Ok(Command::ScenarioCheck { paths: rest })
        }
        "expand" => match rest.as_slice() {
            [path] => Ok(Command::ScenarioExpand { path: path.clone() }),
            _ => Err(err(
                "`lsrp scenario expand` wants exactly one scenario file",
            )),
        },
        other => Err(err(format!(
            "unknown scenario action '{other}' (check, expand)"
        ))),
    }
}

/// Parses `run <file.toml> [--jobs N] [--regions N] [--trace-out PATH]`.
fn parse_run_scenario<I: Iterator<Item = String>>(
    path: String,
    mut args: I,
) -> Result<Command, ParseError> {
    let mut jobs = 1usize;
    let mut regions = 1usize;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" | "-j" => {
                let v = args
                    .next()
                    .ok_or_else(|| err("--jobs expects a job count"))?;
                jobs = v.parse().map_err(|_| err("invalid job count"))?;
                jobs = check::jobs(jobs).map_err(|e| err(format!("--jobs {e}")))?;
            }
            "--regions" => {
                let v = args
                    .next()
                    .ok_or_else(|| err("--regions expects a region count"))?;
                regions = v.parse().map_err(|_| err("invalid region count"))?;
                regions = check::regions(regions).map_err(|e| err(format!("--regions {e}")))?;
            }
            "--trace-out" => {
                let v = args
                    .next()
                    .ok_or_else(|| err("--trace-out expects a file path"))?;
                trace_out = Some(v);
            }
            other => {
                return Err(err(format!(
                    "unknown flag '{other}' (a scenario run takes only --jobs N, \
                     --regions N and --trace-out PATH)"
                )))
            }
        }
    }
    Ok(Command::RunScenario {
        path,
        jobs,
        regions,
        trace_out,
    })
}

/// Parses `viz <trace file> [-o OUT]`.
fn parse_viz<I: Iterator<Item = String>>(mut args: I) -> Result<Command, ParseError> {
    let mut input = None;
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" | "--out" => {
                let v = args.next().ok_or_else(|| err("-o expects a file path"))?;
                out = Some(v);
            }
            flag if flag.starts_with('-') => {
                return Err(err(format!(
                    "unknown flag '{flag}' (viz takes a trace file and -o OUT)"
                )))
            }
            _ if input.is_none() => input = Some(arg),
            _ => return Err(err("viz wants exactly one trace file")),
        }
    }
    let input = input.ok_or_else(|| err("viz wants a trace file (from --trace-out)"))?;
    Ok(Command::Viz { input, out })
}

impl Command {
    /// Parses the full argument list (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ParseError> {
        let mut args = args.into_iter().peekable();
        let sub = args.next().unwrap_or_else(|| "help".to_string());
        if sub == "help" || sub == "--help" || sub == "-h" {
            return Ok(Command::Help);
        }
        if sub == "scenario" {
            return parse_scenario(args);
        }
        if sub == "viz" {
            return parse_viz(args);
        }
        if sub == "run" {
            // `lsrp run <scenario.toml>`: a positional argument switches
            // to the declarative path.
            if args.peek().is_some_and(|a| !a.starts_with('-')) {
                let path = args.next().expect("peeked");
                return parse_run_scenario(path, args);
            }
        }

        let mut topology = None;
        let mut protocol = Protocol::Lsrp;
        let mut faults = Vec::new();
        let mut timeline = false;
        let mut jobs = 1usize;
        let mut discipline_set = false;
        // The campaign the flags describe; `run`, `compare` and `topo`
        // read `--dest` and `--seed` back out of it. Its topology is a
        // placeholder until the loop has seen `--topology`.
        let mut t = TrafficScenario::new(CampaignScenario::new(TopologySpec::Fig1));

        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| err(format!("{flag} expects a {what}")))
            };
            match flag.as_str() {
                "--topology" | "-t" => {
                    topology = Some(TopologySpec::parse(&value("topology")?).map_err(err)?);
                }
                "--dest" | "-d" => t.base.destination = Some(parse_node(&value("node id")?)?),
                "--protocol" | "-p" => {
                    protocol = Protocol::parse(&value("protocol")?).map_err(err)?
                }
                "--fault" | "-f" => faults.push(FaultSpec::parse(&value("fault")?)?),
                "--seed" | "-s" => {
                    t.base.seed = value("seed")?.parse().map_err(|_| err("invalid seed"))?
                }
                "--timeline" => timeline = true,
                "--runs" | "-n" => {
                    let n = value("run count")?
                        .parse()
                        .map_err(|_| err("invalid run count"))?;
                    t.base.runs = check::runs(n).map_err(|e| err(format!("--runs {e}")))?;
                }
                "--jobs" | "-j" => {
                    jobs = value("job count")?
                        .parse()
                        .map_err(|_| err("invalid job count"))?;
                    jobs = check::jobs(jobs).map_err(|e| err(format!("--jobs {e}")))?;
                }
                "--destinations" | "-D" => {
                    t.base.destinations =
                        Some(DestinationsSpec::parse(&value("destination count")?).map_err(err)?);
                }
                "--horizon" => {
                    let h: f64 = value("horizon")?
                        .parse()
                        .map_err(|_| err("invalid horizon"))?;
                    t.base.horizon =
                        check::positive(h).map_err(|e| err(format!("--horizon {e}")))?;
                }
                "--workload" | "-w" => {
                    t.workload.kind = parse_workload(&value("workload")?).map_err(err)?;
                }
                "--flows" => {
                    let n = value("flow count")?
                        .parse()
                        .map_err(|_| err("invalid flow count"))?;
                    t.workload.flows = check::flows(n).map_err(|e| err(format!("--flows {e}")))?;
                }
                "--duration" => {
                    let d: f64 = value("duration")?
                        .parse()
                        .map_err(|_| err("invalid duration"))?;
                    t.duration = check::positive(d).map_err(|e| err(format!("--duration {e}")))?;
                }
                "--exact" => t.workload.exact = true,
                "--link-rate" => {
                    let r: f64 = value("rate")?
                        .parse()
                        .map_err(|_| err("invalid link rate"))?;
                    t.congestion.link_rate =
                        Some(check::positive(r).map_err(|e| err(format!("--link-rate {e}")))?);
                }
                "--queue-cap" => {
                    let c: u64 = value("capacity")?
                        .parse()
                        .map_err(|_| err("invalid queue capacity"))?;
                    t.congestion.queue_cap =
                        Some(check::queue_cap(c).map_err(|e| err(format!("--queue-cap {e}")))?);
                }
                "--discipline" => {
                    t.congestion.discipline =
                        parse_discipline(&value("discipline")?).map_err(err)?;
                    discipline_set = true;
                }
                "--cc" => {
                    t.congestion.cc =
                        Some(parse_cong_alg(&value("congestion control")?).map_err(err)?);
                }
                "--trace-out" => t.base.trace = Some(TraceSection::new(value("file path")?)),
                other => return Err(err(format!("unknown flag '{other}'"))),
            }
        }

        let topology = topology.ok_or_else(|| err("--topology is required"))?;
        let campaign = sub == "chaos" || sub == "traffic";
        if t.base.destinations.is_some() && !campaign {
            return Err(err(
                "--destinations is only valid with `lsrp chaos` or `lsrp traffic`",
            ));
        }
        let c = &t.congestion;
        if (c.link_rate.is_some() || c.queue_cap.is_some() || discipline_set || c.cc.is_some())
            && sub != "traffic"
        {
            return Err(err(
                "--link-rate/--queue-cap/--discipline/--cc are only valid with `lsrp traffic`",
            ));
        }
        if t.base.trace.is_some() && !campaign {
            return Err(err(
                "--trace-out is only valid with `lsrp chaos`, `lsrp traffic` or a scenario run",
            ));
        }
        check::congestion_shape(c.link_rate, c.queue_cap, discipline_set).map_err(err)?;
        let (dest, seed) = (t.base.destination, t.base.seed);
        match sub.as_str() {
            "run" => Ok(Command::Run {
                topology,
                dest,
                protocol,
                faults,
                seed,
                timeline,
            }),
            "compare" => Ok(Command::Compare {
                topology,
                dest,
                faults,
                seed,
            }),
            "topo" => Ok(Command::Topo { topology, seed }),
            "chaos" | "traffic" => {
                t.base.topology = topology;
                let body = if sub == "chaos" {
                    ScenarioBody::Chaos(t.base)
                } else {
                    ScenarioBody::Traffic(t)
                };
                let scenario = Box::new(Scenario {
                    name: sub.clone(),
                    description: None,
                    body,
                    expect: Vec::new(),
                });
                Ok(Command::Campaign { scenario, jobs })
            }
            other => Err(err(format!(
                "unknown command '{other}' (run, scenario, compare, topo, chaos, traffic, viz, help)"
            ))),
        }
    }
}

/// The help text.
pub const HELP: &str = "\
lsrp — drive LSRP (and baselines) through fault scenarios

USAGE:
  lsrp run     FILE.toml [--jobs N] [--regions N] [--trace-out PATH]
  lsrp run     --topology SPEC [--protocol lsrp|dbf|dual|pv] [--dest N]
               [--fault SPEC]... [--seed N] [--timeline]
  lsrp scenario check FILE.toml...
  lsrp scenario expand FILE.toml
  lsrp compare --topology SPEC [--dest N] [--fault SPEC]... [--seed N]
  lsrp topo    --topology SPEC [--seed N]
  lsrp chaos   --topology SPEC [--dest N] [--seed N] [--runs N] [--jobs N]
               [--horizon T] [--destinations N|all-pairs] [--trace-out PATH]
  lsrp traffic --topology SPEC [--dest N] [--seed N] [--runs N] [--jobs N]
               [--horizon T] [--destinations N|all-pairs]
               [--workload poisson|all-pairs|hotspot] [--flows N]
               [--duration T] [--exact] [--link-rate R] [--queue-cap C]
               [--discipline drop-tail|ecn|pause] [--cc fixed|aimd]
               [--trace-out PATH]
  lsrp viz     TRACE [-o OUT.html|OUT.svg]

TOPOLOGIES:  grid:8x8  ring:32  path:16  er:40:0.1  geo:60:0.18
             ba:50:2  lollipop:2:8  waxman:1000:0.05:0.7  cliques:8:6
             fattree:8  fig1
FAULTS:      corrupt:NODE[:D|inf]  fail-node:N  fail-edge:A:B
             join-edge:A:B:W  weight:A:B:W  loop  (lollipop only)

`run FILE.toml` compiles a declarative scenario file (see DESIGN.md §13
and the checked-in `scenarios/` corpus) into concrete experiment cells,
fans them out over `--jobs` worker threads and prints the report —
byte-identical for every `--jobs` value, and byte-identical to the
hand-coded experiment the file replaced. `--regions N` additionally
partitions the engine *inside* each chaos/traffic cell into up to N
regions — at most one per node, and one under the PFC pause discipline
— executed concurrently in conservative time windows (DESIGN.md §15);
the report stays byte-identical for every region count. `scenario
check` parses and statically expands files without running them;
`scenario expand` prints one line per compiled cell.

`chaos` replays seeded random fault campaigns (link flaps, node churn,
partition-and-heal, state corruption) with online invariant monitors
(convergence, contamination radius, wave-speed order, loop freedom);
violating schedules are delta-minimized and printed as replayable repro
cases. With `--destinations N` (the N lowest node ids) or
`--destinations all-pairs`, the campaign instead drives the dense
multi-destination plane — one LSRP instance per destination over batched
adverts — and judges quiescence plus per-tree route correctness.

`traffic` runs the same chaos campaigns with live packet forwarding on
the same engine: seeded workloads (Poisson flows, all-pairs probes, or a
hotspot pattern) inject packets that hop against the live route tables
while faults land. By default flows are sampled as weighted probes, so
millions of represented packets per run stay cheap; `--exact` injects
one probe per packet instead. Each run reports delivery fractions,
per-fate drop counts, the worst availability window, the worst routable
fraction, and path stretch against shortest paths.

With `--link-rate R` the data plane turns congestion-realistic: links
serialize at R weighted packets per second, `--queue-cap C` bounds each
egress port at C weighted packets under the chosen `--discipline`
(drop-tail drops, ecn marks early, pause backpressures upstream), and
queue drops, ECN marks, pause frames and peak queue depth join the
report. `--cc` additionally promotes every workload flow to a stateful
Go-Back-N transfer with retransmit timers and exponential backoff under
fixed-window or AIMD congestion control, adding weighted goodput,
retransmissions, timeouts and flow-completion times.

`--trace-out PATH` (on `chaos`, `traffic`, and scenario runs) streams a
versioned structured event log of the campaign's first run to PATH:
wave fronts, route deltas, queue depths, packet and flow fates, in JSONL
(DESIGN.md §16). The trace is byte-identical for every
`--jobs`/`--regions` value, and omitting it keeps every report
byte-identical to the untraced engine. `viz` renders a trace into a self-contained HTML page — wave
heatmap over the topology, availability/goodput/queue time series,
route-flap strip — or just the heatmap SVG with `-o out.svg`.

EXAMPLES:
  lsrp run scenarios/e21_congested_recovery.toml --jobs 4
  lsrp scenario check scenarios/*.toml
  lsrp run --topology fig1 --protocol lsrp --fault corrupt:9:1 --timeline
  lsrp compare --topology grid:12x12 --fault corrupt:13:0
  lsrp run --topology lollipop:2:16 --fault loop --timeline
  lsrp chaos --topology grid:6x6 --runs 10 --seed 1
  lsrp run scenarios/flap_storm.toml --trace-out storm.jsonl
  lsrp viz storm.jsonl -o storm.html
  lsrp chaos --topology grid:6x6 --destinations all-pairs --runs 5 --jobs 4
  lsrp traffic --topology grid:6x6 --runs 5 --workload hotspot --jobs 4
  lsrp traffic --topology grid:4x4 --destinations 4 --workload all-pairs
  lsrp traffic --topology grid:6x6 --workload hotspot --link-rate 400
               --queue-cap 1500 --cc aimd
";

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_analysis::WorkloadKind;
    use lsrp_sim::{CongAlgKind, DisciplineKind};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The scenario body and job count a `chaos`/`traffic` invocation
    /// parses to.
    fn campaign(s: &str) -> (ScenarioBody, usize) {
        match Command::parse(argv(s)).unwrap() {
            Command::Campaign { scenario, jobs } => (scenario.body, jobs),
            other => panic!("wrong command: {other:?}"),
        }
    }

    /// The traffic scenario a `traffic` invocation parses to.
    fn traffic(s: &str) -> TrafficScenario {
        match campaign(s).0 {
            ScenarioBody::Traffic(t) => t,
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_run() {
        let c = Command::parse(argv(
            "run --topology grid:8x8 --protocol dbf --dest 3 --fault corrupt:9:1 --fault fail-node:5 --seed 7 --timeline",
        ))
        .unwrap();
        match c {
            Command::Run {
                topology,
                dest,
                protocol,
                faults,
                seed,
                timeline,
            } => {
                assert_eq!(topology, TopologySpec::Grid(8, 8));
                assert_eq!(dest, Some(NodeId::new(3)));
                assert_eq!(protocol, Protocol::Dbf);
                assert_eq!(faults.len(), 2);
                assert_eq!(seed, 7);
                assert!(timeline);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_a_scenario_run() {
        let c = Command::parse(argv("run scenarios/e6_scaling.toml --jobs 4")).unwrap();
        assert_eq!(
            c,
            Command::RunScenario {
                path: "scenarios/e6_scaling.toml".to_string(),
                jobs: 4,
                regions: 1,
                trace_out: None,
            }
        );
        let c = Command::parse(argv("run x.toml")).unwrap();
        assert_eq!(
            c,
            Command::RunScenario {
                path: "x.toml".to_string(),
                jobs: 1,
                regions: 1,
                trace_out: None,
            }
        );
        let c = Command::parse(argv("run x.toml --regions 4 --jobs 2")).unwrap();
        assert_eq!(
            c,
            Command::RunScenario {
                path: "x.toml".to_string(),
                jobs: 2,
                regions: 4,
                trace_out: None,
            }
        );
        let c = Command::parse(argv("run x.toml --trace-out t.jsonl")).unwrap();
        assert_eq!(
            c,
            Command::RunScenario {
                path: "x.toml".to_string(),
                jobs: 1,
                regions: 1,
                trace_out: Some("t.jsonl".to_string()),
            }
        );
        assert!(Command::parse(argv("run x.toml --jobs 0")).is_err());
        assert!(Command::parse(argv("run x.toml --regions 0")).is_err());
        assert!(Command::parse(argv("run x.toml --regions")).is_err());
        assert!(Command::parse(argv("run x.toml --trace-out")).is_err());
        assert!(Command::parse(argv("run x.toml --timeline")).is_err());
    }

    #[test]
    fn parses_viz() {
        let c = Command::parse(argv("viz t.jsonl -o out.html")).unwrap();
        assert_eq!(
            c,
            Command::Viz {
                input: "t.jsonl".to_string(),
                out: Some("out.html".to_string()),
            }
        );
        let c = Command::parse(argv("viz t.bin")).unwrap();
        assert_eq!(
            c,
            Command::Viz {
                input: "t.bin".to_string(),
                out: None,
            }
        );
        assert!(Command::parse(argv("viz")).is_err());
        assert!(Command::parse(argv("viz a b")).is_err());
        assert!(Command::parse(argv("viz t.jsonl --bogus")).is_err());
    }

    #[test]
    fn trace_out_rejected_off_campaigns() {
        assert!(
            Command::parse(argv("topo --topology ring:8 --trace-out t.jsonl")).is_err(),
            "--trace-out must be chaos/traffic/scenario-run only"
        );
        match campaign("chaos --topology grid:4x4 --runs 1 --trace-out t.jsonl").0 {
            ScenarioBody::Chaos(c) => assert_eq!(c.trace, Some(TraceSection::new("t.jsonl"))),
            other => panic!("wrong body: {other:?}"),
        }
        // A multi-destination campaign parses, but refuses to trace when
        // it runs, before it creates the trace file.
        let path = std::env::temp_dir().join("lsrp-cli-multi-trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let cmd = Command::parse(argv(&format!(
            "chaos --topology grid:3x3 --destinations 2 --trace-out {}",
            path.display()
        )))
        .unwrap();
        let e = crate::driver::run_command(&cmd).unwrap_err();
        assert!(
            e.0.contains("tracing is not supported on multi-destination campaigns"),
            "{e:?}"
        );
        assert!(!path.exists(), "a refused trace must not create its file");
    }

    #[test]
    fn parses_scenario_check_and_expand() {
        let c = Command::parse(argv("scenario check a.toml b.toml")).unwrap();
        assert_eq!(
            c,
            Command::ScenarioCheck {
                paths: vec!["a.toml".to_string(), "b.toml".to_string()],
            }
        );
        let c = Command::parse(argv("scenario expand a.toml")).unwrap();
        assert_eq!(
            c,
            Command::ScenarioExpand {
                path: "a.toml".to_string(),
            }
        );
        assert!(Command::parse(argv("scenario")).is_err());
        assert!(Command::parse(argv("scenario check")).is_err());
        assert!(Command::parse(argv("scenario expand a.toml b.toml")).is_err());
        assert!(Command::parse(argv("scenario validate a.toml")).is_err());
    }

    #[test]
    fn parses_every_topology_kind() {
        for (s, expect) in [
            ("ring:32", TopologySpec::Ring(32)),
            ("path:16", TopologySpec::Path(16)),
            ("er:40:0.1", TopologySpec::ErdosRenyi(40, 0.1)),
            ("geo:60:0.18", TopologySpec::Geometric(60, 0.18)),
            ("ba:50:2", TopologySpec::PreferentialAttachment(50, 2)),
            ("lollipop:2:8", TopologySpec::Lollipop(2, 8)),
            (
                "waxman:1000:0.05:0.7",
                TopologySpec::Waxman(1000, 0.05, 0.7),
            ),
            ("cliques:8:6", TopologySpec::RingOfCliques(8, 6)),
            ("fattree:8", TopologySpec::FatTree(8)),
            ("fig1", TopologySpec::Fig1),
        ] {
            assert_eq!(TopologySpec::parse(s).unwrap(), expect, "{s}");
        }
        assert!(TopologySpec::parse("mesh:3").is_err());
        assert!(TopologySpec::parse("grid:8").is_err());
    }

    #[test]
    fn parses_every_fault_kind() {
        use FaultSpec::*;
        let v = |i| NodeId::new(i);
        for (s, expect) in [
            ("corrupt:9", Corrupt(v(9), Distance::ZERO)),
            ("corrupt:v9:4", Corrupt(v(9), Distance::Finite(4))),
            ("corrupt:9:inf", Corrupt(v(9), Distance::Infinite)),
            ("fail-node:5", FailNode(v(5))),
            ("fail-edge:0:1", FailEdge(v(0), v(1))),
            ("join-edge:0:5:2", JoinEdge(v(0), v(5), 2)),
            ("weight:0:1:3", SetWeight(v(0), v(1), 3)),
            ("loop", Loop),
        ] {
            assert_eq!(FaultSpec::parse(s).unwrap(), expect, "{s}");
        }
        assert!(FaultSpec::parse("nuke:1").is_err());
    }

    #[test]
    fn parses_chaos_destinations() {
        let destinations = |s: &str| match campaign(s).0 {
            ScenarioBody::Chaos(c) => c.destinations,
            other => panic!("wrong body: {other:?}"),
        };
        assert_eq!(
            destinations("chaos --topology grid:4x4 --destinations all-pairs --runs 2"),
            Some(DestinationsSpec::AllPairs)
        );
        assert_eq!(
            destinations("chaos --topology grid:4x4 -D 5"),
            Some(DestinationsSpec::Count(5))
        );
        assert!(Command::parse(argv("chaos --topology grid:4x4 --destinations 0")).is_err());
        assert!(Command::parse(argv("chaos --topology grid:4x4 --destinations x")).is_err());
        // Only chaos and traffic understand the flag.
        assert!(Command::parse(argv("run --topology grid:4x4 --destinations 3")).is_err());
    }

    #[test]
    fn parses_traffic_flags() {
        let s = "traffic --topology grid:4x4 --workload hotspot --flows 8 --duration 90 --exact --jobs 2";
        let t = traffic(s);
        assert_eq!(t.workload.kind, WorkloadKind::Hotspot);
        assert_eq!(t.workload.flows, 8);
        assert_eq!(t.duration, 90.0);
        assert!(t.workload.exact);
        assert_eq!(campaign(s).1, 2);
        assert_eq!(t.base.destinations, None);
        let t = traffic("traffic --topology grid:4x4 --destinations 3 --workload all-pairs");
        assert_eq!(t.workload.kind, WorkloadKind::AllPairs);
        assert_eq!(t.base.destinations, Some(DestinationsSpec::Count(3)));
        assert!(!t.workload.exact);
        assert!(Command::parse(argv("traffic --topology grid:4x4 --workload bursty")).is_err());
        assert!(Command::parse(argv("traffic --topology grid:4x4 --flows 0")).is_err());
        assert!(Command::parse(argv("traffic --topology grid:4x4 --duration -3")).is_err());
    }

    #[test]
    fn parses_congestion_flags() {
        let c = traffic(
            "traffic --topology grid:4x4 --link-rate 400 --queue-cap 1500 --discipline ecn --cc aimd",
        )
        .congestion;
        assert_eq!(c.link_rate, Some(400.0));
        assert_eq!(c.queue_cap, Some(1500));
        assert_eq!(c.discipline, DisciplineKind::Ecn { mark_at: 0.5 });
        assert_eq!(
            c.cc,
            Some(CongAlgKind::Aimd {
                initial: 4,
                max: 64
            })
        );
        // The lane stays off by default, and --cc works on its own.
        let c = traffic("traffic --topology grid:4x4 --cc fixed").congestion;
        assert_eq!(c.link_rate, None);
        assert_eq!(c.queue_cap, None);
        assert_eq!(c.cc, Some(CongAlgKind::FixedWindow { window: 8 }));
    }

    #[test]
    fn rejects_bad_congestion_flags() {
        assert!(Command::parse(argv("traffic --topology grid:4x4 --link-rate 0")).is_err());
        assert!(Command::parse(argv("traffic --topology grid:4x4 --link-rate -2")).is_err());
        assert!(Command::parse(argv(
            "traffic --topology grid:4x4 --link-rate 10 --queue-cap 0"
        ))
        .is_err());
        assert!(Command::parse(argv(
            "traffic --topology grid:4x4 --link-rate 10 --discipline red"
        ))
        .is_err());
        assert!(Command::parse(argv("traffic --topology grid:4x4 --cc cubic")).is_err());
        // Queue knobs without a finite rate are dead configuration.
        assert!(Command::parse(argv("traffic --topology grid:4x4 --queue-cap 100")).is_err());
        assert!(Command::parse(argv("traffic --topology grid:4x4 --discipline ecn")).is_err());
        // The flags belong to `traffic` alone.
        assert!(Command::parse(argv("chaos --topology grid:4x4 --link-rate 10")).is_err());
        assert!(Command::parse(argv("run --topology grid:4x4 --cc aimd")).is_err());
    }

    #[test]
    fn helpful_errors() {
        assert!(Command::parse(argv("run"))
            .unwrap_err()
            .0
            .contains("--topology"));
        assert!(Command::parse(argv("run --topology")).is_err());
        assert!(Command::parse(argv("frobnicate --topology fig1")).is_err());
        assert_eq!(Command::parse(argv("help")).unwrap(), Command::Help);
        assert_eq!(Command::parse(Vec::new()).unwrap(), Command::Help);
    }
}
