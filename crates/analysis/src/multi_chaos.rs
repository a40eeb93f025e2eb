//! Chaos campaigns against the dense multi-destination plane.
//!
//! The single-destination campaigns in [`crate::chaos`] judge one routing
//! computation with the full online-monitor set. This module drives the
//! same seeded fault schedules against a [`MultiLsrpSimulation`] — every
//! node running one LSRP instance per destination over the batched wire —
//! and judges the outcomes every tree must satisfy: the network goes
//! quiescent, and *every* destination's route table is correct afterward.
//!
//! Determinism contract: a run is a pure function of `(graph,
//! destinations, config, seed)`, so [`MultiChaosCampaign::report`] is
//! byte-identical across repetitions and across worker counts
//! ([`multi_chaos_campaign_with_jobs`] merges in seed order).
//!
//! Fault mapping: topology faults apply verbatim (they perturb every
//! tree at once). State corruptions target the named node's instance
//! toward a destination chosen round-robin by fault index — except
//! distance corruptions with an explicit value, which keep it — so a
//! schedule exercises different trees deterministically.

use std::fmt::Write as _;

use lsrp_faults::{CorruptionKind, Fault, FaultSchedule};
use lsrp_graph::{Distance, Graph, NodeId};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};

use crate::chaos::ChaosConfig;
use crate::parallel::run_sharded;

/// One completed multi-destination chaos run.
#[derive(Debug, Clone)]
pub struct MultiChaosRun {
    /// The run's seed (schedule generation and engine randomness).
    pub seed: u64,
    /// The generated fault schedule (absolute sim times).
    pub schedule: FaultSchedule,
    /// Whether the network reached quiescence before the horizon.
    pub quiescent: bool,
    /// Whether every destination's route table was correct at the end.
    pub routes_correct: bool,
    /// Engine events processed after the fault-free fixpoint.
    pub events: u64,
    /// Simulated end time.
    pub end: f64,
}

impl MultiChaosRun {
    /// Whether the run failed either verdict.
    pub fn violating(&self) -> bool {
        !(self.quiescent && self.routes_correct)
    }
}

/// A finished multi-destination campaign over one topology.
#[derive(Debug, Clone)]
pub struct MultiChaosCampaign {
    /// Topology spec string (opaque here; the CLI resolves it).
    pub topology: String,
    /// The destinations every run routes toward.
    pub destinations: Vec<NodeId>,
    /// All runs, in seed order.
    pub runs: Vec<MultiChaosRun>,
}

impl MultiChaosCampaign {
    /// The violating runs.
    pub fn violating(&self) -> impl Iterator<Item = &MultiChaosRun> {
        self.runs.iter().filter(|r| r.violating())
    }

    /// Renders the campaign as deterministic text: same topology, seeds
    /// and config produce the identical string, byte for byte.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let bad = self.violating().count();
        let _ = writeln!(
            out,
            "multi chaos campaign: topology {} destinations {} runs {} violating {}",
            self.topology,
            self.destinations.len(),
            self.runs.len(),
            bad
        );
        for run in &self.runs {
            let _ = writeln!(
                out,
                "run seed={} faults={} events={} end={:.6}s quiescent={} routes_correct={}",
                run.seed,
                run.schedule.len(),
                run.events,
                run.end,
                run.quiescent,
                run.routes_correct
            );
        }
        out
    }
}

/// Applies one fault to the multi-destination plane. `ordinal` is the
/// fault's index within its schedule; it picks which tree a state
/// corruption lands on.
///
/// Node churn of a configured *destination* is skipped: the fault process
/// already excludes the destination from churn in the single-destination
/// campaigns (a fail-stopped destination has no recovery obligation to
/// judge), and with many destinations the same contract applies to each.
pub(crate) fn apply_multi(fault: &Fault, sim: &mut MultiLsrpSimulation, ordinal: usize) {
    let dests = sim.destinations();
    if let Fault::FailNode(v) = fault {
        if dests.contains(v) {
            return;
        }
    }
    match fault {
        Fault::Corrupt { node, kind } => {
            if dests.is_empty() || !sim.graph().has_node(*node) {
                return;
            }
            let dest = dests[ordinal % dests.len()];
            match *kind {
                CorruptionKind::Distance(d) => sim.corrupt_instance_distance(*node, dest, d),
                // Other corruption kinds have no per-instance surface on
                // the harness; model them as a zero-distance corruption of
                // the chosen tree (the strongest single-instance fault).
                _ => sim.corrupt_instance_distance(*node, dest, Distance::ZERO),
            }
        }
        Fault::FailNode(v) => {
            let _ = sim.fail_node(*v);
        }
        Fault::JoinNode { node, edges } => {
            let _ = sim.join_node(*node, edges);
        }
        Fault::FailEdge(a, b) => {
            let _ = sim.fail_edge(*a, *b);
        }
        Fault::JoinEdge(a, b, w) => {
            let _ = sim.join_edge(*a, *b, *w);
        }
        Fault::SetWeight(a, b, w) => {
            let _ = sim.set_weight(*a, *b, *w);
        }
    }
}

/// Runs one seeded chaos run against the dense plane: settle to the
/// fault-free fixpoint, generate the schedule from the fault process
/// (offset past convergence), drive it, and judge the outcome.
///
/// # Panics
///
/// Panics if `destinations` is empty or names nodes outside `graph`.
pub fn multi_chaos_run(
    graph: &Graph,
    destinations: &[NodeId],
    config: &ChaosConfig,
    seed: u64,
) -> MultiChaosRun {
    let primary = *destinations.iter().min().expect("need destinations");
    let mut sim = MultiLsrpSimulation::builder(graph.clone(), destinations.to_vec())
        .engine_config(config.engine.clone().with_seed(seed))
        .build();
    sim.run_to_quiescence(config.horizon);
    let t0 = sim.now().seconds();
    let schedule = config
        .process
        .generate(graph, primary, config.fault_window, seed)
        .shifted(t0);
    let mut events = 0u64;
    for (i, ev) in schedule.events.iter().enumerate() {
        if ev.at > sim.now().seconds() {
            events += sim.run_until(ev.at).events;
        }
        apply_multi(&ev.fault, &mut sim, i);
    }
    let tail = sim.run_to_quiescence(config.horizon);
    events += tail.events;
    MultiChaosRun {
        seed,
        schedule,
        quiescent: tail.quiescent,
        routes_correct: sim.all_routes_correct(),
        events,
        end: sim.now().seconds(),
    }
}

/// Runs a campaign of `runs` multi-destination chaos runs with seeds
/// `base_seed..`, sharded over `jobs` worker threads. Runs are keyed by
/// seed and merged in seed order, so the campaign report is
/// byte-identical for every `jobs` value.
pub fn multi_chaos_campaign_with_jobs(
    graph: &Graph,
    destinations: &[NodeId],
    topology: &str,
    config: &ChaosConfig,
    base_seed: u64,
    runs: u32,
    jobs: usize,
) -> MultiChaosCampaign {
    let g = graph.clone();
    let dests = destinations.to_vec();
    let cfg = config.clone();
    let run_results = run_sharded(jobs, runs as usize, move |i| {
        multi_chaos_run(&g, &dests, &cfg, base_seed + i as u64)
    });
    MultiChaosCampaign {
        topology: topology.to_string(),
        destinations: destinations.to_vec(),
        runs: run_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_faults::FaultProcess;
    use lsrp_graph::generators;

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
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn standard_chaos_leaves_every_tree_correct() {
        let g = generators::grid(3, 3, 1);
        let dests: Vec<NodeId> = g.nodes().collect();
        let campaign =
            multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &small_config(), 1, 3, 1);
        for run in &campaign.runs {
            assert!(run.quiescent, "seed {} did not settle", run.seed);
            assert!(run.routes_correct, "seed {} left a bad tree", run.seed);
            assert!(run.events > 0, "seed {} processed no events", run.seed);
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_report() {
        let g = generators::grid(3, 3, 1);
        let dests: Vec<NodeId> = g.nodes().step_by(2).collect();
        let cfg = small_config();
        let a = multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &cfg, 7, 3, 1);
        let b = multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &cfg, 7, 3, 1);
        assert_eq!(a.report(), b.report());
        let c = multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &cfg, 8, 3, 1);
        assert_ne!(a.report(), c.report(), "different seeds, different runs");
    }

    #[test]
    fn parallel_campaign_report_is_byte_identical_to_serial() {
        let g = generators::grid(3, 3, 1);
        let dests: Vec<NodeId> = g.nodes().collect();
        let cfg = small_config();
        let serial = multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &cfg, 11, 4, 1);
        for jobs in [2, 4, 7] {
            let parallel =
                multi_chaos_campaign_with_jobs(&g, &dests, "grid:3x3", &cfg, 11, 4, jobs);
            assert_eq!(serial.report(), parallel.report(), "jobs={jobs}");
        }
    }
}
