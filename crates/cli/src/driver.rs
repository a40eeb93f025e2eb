//! Scenario driver: builds topologies and protocols from parsed args,
//! injects faults, runs and reports.
//!
//! The `chaos` and `traffic` subcommands run the scenario value their
//! flags describe through [`run_scenario`], the same path as
//! `lsrp run FILE.toml` — a flag invocation and the equivalent scenario
//! file produce byte-identical reports.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;

use lsrp_analysis::{measure_recovery, table::fmt_f64, timeline, RoutingSimulation, Table};
use lsrp_baselines::{
    BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
    PvSimulation,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::loops::loop_plan;
use lsrp_faults::{CorruptionKind, Fault, FaultPlan};
use lsrp_graph::{generators, topologies, Graph, NodeId};
use lsrp_scenario::schema::{ScenarioBody, TraceSection};
use lsrp_scenario::{
    expand_list, load_str, run_scenario, ExecOptions, Protocol, Scenario, ScenarioResult,
    ALL_PROTOCOLS,
};
use lsrp_sim::EngineConfig;

use crate::args::{Command, FaultSpec, ParseError, TopologySpec, HELP};

fn build_protocol(
    choice: Protocol,
    topo: &TopologySpec,
    graph: Graph,
    dest: NodeId,
    seed: u64,
) -> Box<dyn RoutingSimulation> {
    let engine = EngineConfig::default().with_seed(seed);
    match choice {
        Protocol::Lsrp => {
            let initial = if *topo == TopologySpec::Fig1 {
                // Start from the figure's chosen tree (v7/v8 via v9).
                InitialState::Table(topologies::fig1_route_table())
            } else {
                InitialState::Legitimate
            };
            Box::new(
                LsrpSimulation::builder(graph, dest)
                    .initial_state(initial)
                    .engine_config(engine)
                    .build(),
            )
        }
        Protocol::Dbf => {
            let config = DbfConfig::for_graph(&graph, dest);
            Box::new(DbfSimulation::new(graph, dest, None, config, engine))
        }
        Protocol::Dual => {
            let config = DualConfig::for_graph(&graph, dest);
            Box::new(DualSimulation::new(graph, dest, None, config, engine))
        }
        Protocol::Pv => {
            let config = PvConfig::for_graph(&graph, dest);
            Box::new(PvSimulation::new(graph, dest, None, config, engine))
        }
    }
}

/// The nodes a fault spec perturbs, checked against `graph` — the
/// topology the faults before it left — which then takes the fault too,
/// so the next spec is checked against the graph it will meet.
fn perturbed_by(
    graph: &mut Graph,
    spec: &FaultSpec,
    topo: &TopologySpec,
) -> Result<BTreeSet<NodeId>, ParseError> {
    let check_node = |n: NodeId| {
        graph
            .has_node(n)
            .then_some(n)
            .ok_or_else(|| ParseError(format!("{} is not in the topology", n.raw())))
    };
    let check_edge = |a: NodeId, b: NodeId| {
        graph.has_edge(a, b).then_some(()).ok_or_else(|| {
            let (a, b) = (a.raw(), b.raw());
            ParseError(format!("edge ({a}, {b}) is not in the topology"))
        })
    };
    let perturbed = match *spec {
        FaultSpec::Corrupt(node, _) => BTreeSet::from([check_node(node)?]),
        FaultSpec::FailNode(node) => {
            check_node(node)?;
            graph.neighbors(node).map(|(k, _)| k).collect()
        }
        FaultSpec::FailEdge(a, b) => {
            check_edge(a, b)?;
            BTreeSet::from([a, b])
        }
        FaultSpec::JoinEdge(a, b, _) => {
            check_node(a)?;
            check_node(b)?;
            BTreeSet::from([a, b])
        }
        FaultSpec::SetWeight(a, b, w) => {
            check_edge(a, b)?;
            if w == 0 {
                return Err(ParseError(format!(
                    "edge ({}, {}) cannot take weight 0: weights are positive",
                    a.raw(),
                    b.raw()
                )));
            }
            BTreeSet::from([a, b])
        }
        FaultSpec::Loop => {
            let TopologySpec::Lollipop(tail, ring_len) = *topo else {
                return Err(ParseError(
                    "--fault loop requires a lollipop topology".to_string(),
                ));
            };
            let cycle = loop_cycle(tail, ring_len);
            for hop in cycle.windows(2) {
                check_edge(hop[0], hop[1])?;
            }
            cycle.into_iter().collect()
        }
    };
    // The run applies what `lower` makes and expects every change to
    // succeed; only a join (self-loop, weight 0, existing edge) can be
    // refused here.
    match *spec {
        FaultSpec::FailNode(node) => graph.remove_node(node),
        FaultSpec::FailEdge(a, b) => graph.remove_edge(a, b),
        FaultSpec::JoinEdge(a, b, w) => graph.add_edge(a, b, w),
        FaultSpec::SetWeight(a, b, w) => graph.set_weight(a, b, w),
        FaultSpec::Corrupt(..) | FaultSpec::Loop => Ok(()),
    }
    .map_err(|e| ParseError(e.to_string()))?;
    Ok(perturbed)
}

/// The cycle `--fault loop` closes on a lollipop's ring, each node's
/// parent the next; `cycle_assignment` reads the weights of its hops.
fn loop_cycle(tail: u32, ring_len: u32) -> Vec<NodeId> {
    let mut ring = generators::lollipop_ring(tail, ring_len);
    ring.rotate_left(1);
    ring
}

/// The faults one spec lowers to on `sim`, as the specs before it left
/// it (validated by [`perturbed_by`] in order): a corruption or a loop
/// is forged into the neighbours' mirrors too.
fn lower(spec: &FaultSpec, sim: &dyn RoutingSimulation, topo: &TopologySpec) -> FaultPlan {
    let graph = sim.graph();
    let fault = match *spec {
        FaultSpec::Corrupt(node, d) => {
            let corruption = [(node, CorruptionKind::Distance(d))];
            return FaultPlan::forged_routes(graph, corruption, |n| sim.advert(n));
        }
        FaultSpec::Loop => {
            let TopologySpec::Lollipop(tail, ring_len) = *topo else {
                unreachable!("validated against the topology");
            };
            let cycle = loop_cycle(tail, ring_len);
            return loop_plan(graph, &cycle, 1, |n| sim.advert(n));
        }
        FaultSpec::FailNode(node) => Fault::FailNode(node),
        FaultSpec::FailEdge(a, b) => Fault::FailEdge(a, b),
        FaultSpec::JoinEdge(a, b, w) => Fault::JoinEdge(a, b, w),
        FaultSpec::SetWeight(a, b, w) => Fault::SetWeight(a, b, w),
    };
    FaultPlan::new().with(fault)
}

fn run_one(
    choice: Protocol,
    topo: &TopologySpec,
    dest: Option<NodeId>,
    faults: &[FaultSpec],
    seed: u64,
    want_timeline: bool,
    out: &mut String,
) -> Result<(), ParseError> {
    let (graph, natural_dest) = topo.build(seed);
    let dest = dest.unwrap_or(natural_dest);
    if !graph.has_node(dest) {
        return Err(ParseError(format!(
            "destination {} is not in the topology",
            dest.raw()
        )));
    }
    let mut perturbed = BTreeSet::new();
    let mut faulted = graph.clone();
    for f in faults {
        perturbed.extend(perturbed_by(&mut faulted, f, topo)?);
    }

    let mut sim = build_protocol(choice, topo, graph, dest, seed);
    sim.run_to_quiescence(1_000_000.0);
    let metrics = measure_recovery(sim.as_mut(), &perturbed, 5_000_000.0, |s| {
        for f in faults {
            let plan = lower(f, s, topo);
            s.apply_plan(&plan).expect("validated");
        }
    });

    let mut t = Table::new(
        format!("{:?} on {:?} (destination {})", choice, topo, dest.raw()),
        &["metric", "value"],
    );
    t.row(&[
        "perturbed nodes".to_string(),
        format!("{}", perturbed.len()),
    ]);
    t.row(&[
        "stabilization time".to_string(),
        fmt_f64(metrics.stabilization_time),
    ]);
    t.row(&[
        "contaminated nodes".to_string(),
        metrics.contaminated.len().to_string(),
    ]);
    t.row(&[
        "contamination range".to_string(),
        metrics.contamination_range.to_string(),
    ]);
    t.row(&["actions".to_string(), metrics.actions.to_string()]);
    t.row(&["messages".to_string(), metrics.messages.to_string()]);
    t.row(&[
        "healthy route flaps".to_string(),
        metrics.healthy_route_flaps.to_string(),
    ]);
    t.row(&["quiescent".to_string(), metrics.quiescent.to_string()]);
    t.row(&[
        "routes correct".to_string(),
        metrics.routes_correct.to_string(),
    ]);
    let _ = write!(out, "{t}");
    if want_timeline {
        let _ = write!(
            out,
            "\ntimeline:\n{}",
            timeline::render_timeline(sim.trace())
        );
    }
    Ok(())
}

/// Reads and parses a scenario file, prefixing errors with the path.
fn load_scenario_file(path: &str) -> Result<Scenario, ParseError> {
    let src = fs::read_to_string(path).map_err(|e| ParseError(format!("{path}: {e}")))?;
    load_str(&src).map_err(|e| ParseError(format!("{path}: {e}")))
}

/// Applies `--trace-out PATH` to a loaded scenario: overrides the
/// `[trace]` path when the file has one, otherwise attaches a default
/// JSONL trace section. Only chaos and traffic scenarios stream traces.
fn set_trace_out(s: &mut Scenario, path: &str) -> Result<(), String> {
    let base =
        match &mut s.body {
            ScenarioBody::Chaos(c) => c,
            ScenarioBody::Traffic(t) => &mut t.base,
            _ => return Err(
                "--trace-out needs a chaos or traffic scenario (other kinds have no event stream)"
                    .to_string(),
            ),
        };
    match &mut base.trace {
        Some(trace) => trace.path = path.to_string(),
        None => base.trace = Some(TraceSection::new(path)),
    }
    Ok(())
}

/// Runs a scenario, from a file or from `chaos`/`traffic` flags, and
/// appends its report to `out`. Failed expectations print the report and
/// return an error, so the exit code goes nonzero.
fn run_loaded(s: &Scenario, opts: ExecOptions, out: &mut String) -> Result<(), ParseError> {
    let outcome = run_scenario(s, opts).map_err(ParseError)?;
    match &outcome.result {
        // A table report matches the experiments binary's
        // `println!("{table}")` framing.
        ScenarioResult::Table(t) => {
            let _ = writeln!(out, "{t}");
        }
        ScenarioResult::Text(text) => out.push_str(text),
    }
    if !outcome.failures.is_empty() {
        // The report still belongs on stdout; the failures ride
        // the error path so the exit code goes nonzero.
        print!("{out}");
        let mut msg = format!(
            "{}: {} expectation(s) failed",
            s.name,
            outcome.failures.len()
        );
        for f in &outcome.failures {
            let _ = write!(msg, "\n  {f}");
        }
        return Err(ParseError(msg));
    }
    Ok(())
}

/// `viz` output default: the input path with its extension swapped.
fn default_viz_out(input: &str, ext: &str) -> String {
    match input.rsplit_once('.') {
        Some((stem, old)) if !old.contains('/') => format!("{stem}.{ext}"),
        _ => format!("{input}.{ext}"),
    }
}

/// Executes a parsed command; returns the report text.
///
/// # Errors
///
/// Returns a [`ParseError`]-style message for semantic errors (unknown
/// nodes, fault/topology mismatches, unreadable or invalid scenario
/// files, failed scenario expectations).
pub fn run_command(cmd: &Command) -> Result<String, ParseError> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(HELP),
        Command::Viz { input, out: dest } => {
            let html = dest.as_deref().is_none_or(|p| !p.ends_with(".svg"));
            let target = dest
                .clone()
                .unwrap_or_else(|| default_viz_out(input, "html"));
            let rendered = if html {
                lsrp_viz::render_html_file(input)
            } else {
                lsrp_viz::render_svg_file(input)
            }
            .map_err(|e| ParseError(format!("{input}: {e}")))?;
            fs::write(&target, rendered)
                .map_err(|e| ParseError(format!("cannot write '{target}': {e}")))?;
            let _ = writeln!(out, "wrote {target}");
        }
        Command::Topo { topology, seed } => {
            let (g, dest) = topology.build(*seed);
            let mut t = Table::new(format!("{topology:?}"), &["metric", "value"]);
            t.row(&["nodes".to_string(), g.node_count().to_string()]);
            t.row(&["edges".to_string(), g.edge_count().to_string()]);
            t.row(&["connected".to_string(), g.is_connected().to_string()]);
            t.row(&[
                "hop diameter".to_string(),
                g.hop_diameter().map_or("-".into(), |d| d.to_string()),
            ]);
            t.row(&["natural destination".to_string(), dest.to_string()]);
            let max_deg = g.nodes().map(|n| g.degree(n)).max().unwrap_or(0);
            t.row(&["max degree".to_string(), max_deg.to_string()]);
            let _ = write!(out, "{t}");
        }
        Command::Run {
            topology,
            dest,
            protocol,
            faults,
            seed,
            timeline,
        } => run_one(
            *protocol, topology, *dest, faults, *seed, *timeline, &mut out,
        )?,
        Command::RunScenario {
            path,
            jobs,
            regions,
            trace_out,
        } => {
            let mut s = load_scenario_file(path)?;
            if let Some(trace_path) = trace_out {
                set_trace_out(&mut s, trace_path).map_err(ParseError)?;
            }
            let opts = ExecOptions::sharded(*jobs).with_regions(*regions);
            run_loaded(&s, opts, &mut out)?;
        }
        Command::Campaign { scenario, jobs } => {
            run_loaded(scenario, ExecOptions::sharded(*jobs), &mut out)?;
        }
        Command::ScenarioCheck { paths } => {
            for path in paths {
                let s = load_scenario_file(path)?;
                let cells = expand_list(&s).map_err(|e| ParseError(format!("{path}: {e}")))?;
                let _ = writeln!(out, "{path}: ok ({}, {} cells)", s.name, cells.len());
            }
        }
        Command::ScenarioExpand { path } => {
            let s = load_scenario_file(path)?;
            let cells = expand_list(&s).map_err(|e| ParseError(format!("{path}: {e}")))?;
            for line in cells {
                let _ = writeln!(out, "{line}");
            }
        }
        Command::Compare {
            topology,
            dest,
            faults,
            seed,
        } => {
            for p in ALL_PROTOCOLS {
                run_one(p, topology, *dest, faults, *seed, false, &mut out)?;
                out.push('\n');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn run(s: &str) -> Result<String, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        run_command(&Command::parse(args)?)
    }

    #[test]
    fn topo_reports_statistics() {
        let out = run("topo --topology grid:4x4").unwrap();
        assert!(out.contains("| nodes"));
        assert!(out.contains("16"));
        assert!(out.contains("true"));
    }

    #[test]
    fn fig1_run_reproduces_ideal_containment() {
        let out = run("run --topology fig1 --fault corrupt:9:1 --timeline").unwrap();
        let squashed: String = out.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(squashed.contains("routes correct | true"), "{out}");
        assert!(squashed.contains("contaminated nodes | 0"), "{out}");
        assert!(squashed.contains("healthy route flaps | 0"), "{out}");
        assert!(out.contains("C1@8"), "{out}");
    }

    #[test]
    fn dbf_routes_every_node_of_a_graph_deeper_than_its_default_infinity() {
        // The far corner of a 34x34 grid is 66 hops out, past the default
        // 64 of DBF's and DUAL's bounded infinity and of PV's path limit.
        let out = run("compare --topology grid:34x34 --fault corrupt:7:0").unwrap();
        let squashed: String = out.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(
            squashed.matches("routes correct | true").count(),
            4,
            "{out}"
        );
    }

    #[test]
    fn compare_runs_all_three() {
        let out = run("compare --topology grid:6x6 --fault corrupt:7:0").unwrap();
        assert!(out.contains("Lsrp on"));
        assert!(out.contains("Dbf on"));
        assert!(out.contains("Dual on"));
    }

    #[test]
    fn loop_fault_requires_lollipop() {
        let e = run("run --topology grid:4x4 --fault loop").unwrap_err();
        assert!(e.0.contains("lollipop"));
        let out = run("run --topology lollipop:2:8 --fault loop").unwrap();
        let squashed: String = out.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(squashed.contains("routes correct | true"), "{out}");
    }

    #[test]
    fn semantic_errors_are_reported() {
        assert!(run("run --topology path:4 --fault corrupt:99").is_err());
        assert!(run("run --topology path:4 --dest 99").is_err());
        assert!(run("run --topology path:4 --fault fail-edge:0:3").is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("chaos"));
        assert!(out.contains("scenario check"));
    }

    #[test]
    fn chaos_campaign_on_a_grid_reports_clean_runs() {
        let out = run("chaos --topology grid:3x3 --runs 2 --seed 1").unwrap();
        assert!(
            out.contains("chaos campaign: topology grid:3x3 destination 0 runs 2 violating 0"),
            "{out}"
        );
        assert!(out.contains("run seed=1"), "{out}");
        assert!(out.contains("run seed=2"), "{out}");
        assert!(!out.contains("minimized repro"), "{out}");
    }

    #[test]
    fn chaos_report_is_reproducible() {
        let a = run("chaos --topology grid:3x3 --runs 2 --seed 9").unwrap();
        let b = run("chaos --topology grid:3x3 --runs 2 --seed 9").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_rejects_bad_flags() {
        assert!(run("chaos --topology grid:3x3 --runs 0").is_err());
        assert!(run("chaos --topology grid:3x3 --horizon -5").is_err());
        assert!(run("chaos --topology grid:3x3 --dest 99").is_err());
        assert!(run("chaos --topology grid:3x3 --jobs 0").is_err());
    }

    #[test]
    fn chaos_parallel_report_is_byte_identical_to_serial() {
        let serial = run("chaos --topology grid:3x3 --runs 4 --seed 5 --jobs 1").unwrap();
        for jobs in [2, 4] {
            let parallel = run(&format!(
                "chaos --topology grid:3x3 --runs 4 --seed 5 --jobs {jobs}"
            ))
            .unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn multi_chaos_campaign_reports_clean_runs() {
        let out =
            run("chaos --topology grid:3x3 --destinations all-pairs --runs 2 --seed 1").unwrap();
        assert!(
            out.contains(
                "multi chaos campaign: topology grid:3x3 destinations 9 runs 2 violating 0"
            ),
            "{out}"
        );
        assert!(out.contains("routes_correct=true"), "{out}");
        let counted = run("chaos --topology grid:3x3 --destinations 3 --runs 1 --seed 1").unwrap();
        assert!(counted.contains("destinations 3"), "{counted}");
    }

    #[test]
    fn multi_chaos_parallel_report_is_byte_identical_to_serial() {
        let serial =
            run("chaos --topology grid:3x3 --destinations 4 --runs 3 --seed 5 --jobs 1").unwrap();
        for jobs in [2, 4] {
            let parallel = run(&format!(
                "chaos --topology grid:3x3 --destinations 4 --runs 3 --seed 5 --jobs {jobs}"
            ))
            .unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn multi_chaos_rejects_too_many_destinations() {
        let e = run("chaos --topology grid:3x3 --destinations 99 --runs 1").unwrap_err();
        assert!(e.0.contains("exceeds"), "{e:?}");
    }

    #[test]
    fn traffic_campaign_reports_delivery() {
        let out =
            run("traffic --topology grid:3x3 --runs 1 --seed 3 --flows 8 --duration 80").unwrap();
        assert!(
            out.contains("traffic campaign: topology grid:3x3 destination 0 runs 1"),
            "{out}"
        );
        assert!(out.contains("injected="), "{out}");
        assert!(out.contains("mean_stretch="), "{out}");
    }

    #[test]
    fn traffic_parallel_report_is_byte_identical_to_serial() {
        let base = "traffic --topology grid:3x3 --runs 2 --seed 5 --flows 8 --duration 80";
        let serial = run(&format!("{base} --jobs 1")).unwrap();
        for jobs in [2, 4] {
            let parallel = run(&format!("{base} --jobs {jobs}")).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn congested_traffic_campaign_reports_the_congestion_lane() {
        let out = run(
            "traffic --topology grid:3x3 --runs 1 --seed 3 --flows 6 --duration 80 \
             --link-rate 200 --queue-cap 2000 --cc aimd",
        )
        .unwrap();
        assert!(out.contains("qdrop="), "{out}");
        assert!(out.contains("qpeak="), "{out}");
        assert!(out.contains("goodput="), "{out}");
        assert!(out.contains("fct_mean="), "{out}");
    }

    #[test]
    fn congested_traffic_parallel_report_is_byte_identical_to_serial() {
        let base = "traffic --topology grid:3x3 --runs 2 --seed 5 --flows 6 --duration 80 \
                    --link-rate 200 --queue-cap 2000 --discipline ecn --cc aimd";
        let serial = run(&format!("{base} --jobs 1")).unwrap();
        for jobs in [2, 4] {
            let parallel = run(&format!("{base} --jobs {jobs}")).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn multi_traffic_campaign_reports_per_tree_verdicts() {
        let out = run(
            "traffic --topology grid:3x3 --destinations 2 --runs 1 --seed 2 \
             --flows 6 --duration 80 --workload all-pairs",
        )
        .unwrap();
        assert!(
            out.contains("multi traffic campaign: topology grid:3x3 destinations 2 runs 1"),
            "{out}"
        );
        assert!(out.contains("routes_correct=true"), "{out}");
        assert!(out.contains("injected="), "{out}");
    }

    #[test]
    fn traffic_rejects_bad_flags() {
        assert!(run("traffic --topology grid:3x3 --flows 0").is_err());
        assert!(run("traffic --topology grid:3x3 --duration -1").is_err());
        assert!(run("traffic --topology grid:3x3 --workload bursty").is_err());
        assert!(run("traffic --topology grid:3x3 --dest 99 --runs 1").is_err());
        assert!(run("traffic --topology grid:3x3 --destinations 99 --runs 1").is_err());
    }

    // -----------------------------------------------------------------
    // Scenario subcommands
    // -----------------------------------------------------------------

    /// Writes a scenario to a temp file and returns its path.
    fn temp_scenario(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lsrp-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(&path, body).unwrap();
        path
    }

    const CHAOS_SCENARIO: &str = r#"
[scenario]
name = "cli-chaos"
kind = "chaos"
expect = ["violating == 0"]

[topology]
spec = "grid:3x3"

[campaign]
seed = 5
runs = 2
"#;

    #[test]
    fn scenario_run_matches_the_flag_invocation() {
        let path = temp_scenario("chaos.toml", CHAOS_SCENARIO);
        let via_flags = run("chaos --topology grid:3x3 --runs 2 --seed 5").unwrap();
        let via_file = run(&format!("run {}", path.display())).unwrap();
        assert_eq!(via_flags, via_file);
    }

    #[test]
    fn scenario_run_is_byte_identical_across_jobs() {
        let path = temp_scenario("chaos_jobs.toml", CHAOS_SCENARIO);
        let serial = run(&format!("run {} --jobs 1", path.display())).unwrap();
        for jobs in [2, 4] {
            let parallel = run(&format!("run {} --jobs {jobs}", path.display())).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn scenario_run_is_byte_identical_across_regions() {
        // The CI determinism job in yaml form: the region-parallel
        // engine inside each cell may not change a byte of the report.
        let path = temp_scenario("chaos_regions.toml", CHAOS_SCENARIO);
        let serial = run(&format!("run {}", path.display())).unwrap();
        for (regions, jobs) in [(2, 1), (4, 4)] {
            let par = run(&format!(
                "run {} --regions {regions} --jobs {jobs}",
                path.display()
            ))
            .unwrap();
            assert_eq!(serial, par, "regions={regions} jobs={jobs}");
        }
    }

    const CONGESTED_SCENARIO: &str = r#"
[scenario]
name = "cli-congested"
kind = "traffic"

[topology]
spec = "grid:3x3"

[campaign]
seed = 5
runs = 2

[workload]
flows = 6

[traffic]
duration = 80.0

[congestion]
link_rate = 200.0
queue_cap = 2000
discipline = "ecn"
cc = "aimd"
"#;

    #[test]
    fn congested_scenario_run_is_byte_identical_across_regions() {
        let path = temp_scenario("congested_regions.toml", CONGESTED_SCENARIO);
        let serial = run(&format!("run {}", path.display())).unwrap();
        let par = run(&format!("run {} --regions 4 --jobs 4", path.display())).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn scenario_check_and_expand_report_cells() {
        let path = temp_scenario("check.toml", CHAOS_SCENARIO);
        let out = run(&format!("scenario check {}", path.display())).unwrap();
        assert!(out.contains("ok (cli-chaos, 1 cells)"), "{out}");
        let out = run(&format!("scenario expand {}", path.display())).unwrap();
        assert!(out.contains("chaos campaign: topology grid:3x3"), "{out}");
    }

    #[test]
    fn scenario_errors_name_the_file() {
        let e = run("run no-such-scenario.toml").unwrap_err();
        assert!(e.0.contains("no-such-scenario.toml"), "{e:?}");
        let path = temp_scenario("bad.toml", "[scenario]\nname = \"x\"\n");
        let e = run(&format!("scenario check {}", path.display())).unwrap_err();
        assert!(e.0.contains("bad.toml"), "{e:?}");
    }

    #[test]
    fn scenario_expectation_failures_exit_nonzero() {
        let failing = CHAOS_SCENARIO.replace("violating == 0", "violating >= 1");
        let path = temp_scenario("failing.toml", &failing);
        let e = run(&format!("run {}", path.display())).unwrap_err();
        assert!(e.0.contains("expectation"), "{e:?}");
    }
}
