//! Chaos runs against the dense multi-destination plane.
//!
//! Single-destination runs judge one routing computation with the full
//! online-monitor set. A [`Target::Destinations`] campaign drives the
//! same seeded fault schedules against a [`MultiLsrpSimulation`] — every
//! node running one LSRP instance per destination over the batched wire —
//! and judges the outcomes every tree must satisfy: the network goes
//! quiescent, and *every* destination's route table is correct afterward.
//!
//! Determinism contract: a run is a pure function of `(graph,
//! destinations, config, seed)`, so the campaign report is byte-identical
//! across repetitions and across worker counts ([`run_campaign`] merges
//! in seed order).
//!
//! Fault mapping: topology faults apply verbatim (they perturb every
//! tree at once). State corruptions target the named node's instance
//! toward a destination chosen round-robin by fault index — except
//! distance corruptions with an explicit value, which keep it — so a
//! schedule exercises different trees deterministically.
//!
//! [`Target::Destinations`]: crate::chaos::Target::Destinations
//! [`run_campaign`]: crate::chaos::run_campaign

use lsrp_faults::{CorruptionKind, Fault};
use lsrp_graph::{Distance, Graph, NodeId};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};

use crate::chaos::{CampaignRun, ChaosConfig};
use crate::monitor::MonitorReport;

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
pub(crate) fn multi_chaos_run(
    graph: &Graph,
    destinations: &[NodeId],
    config: &ChaosConfig,
    seed: u64,
) -> CampaignRun {
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
    CampaignRun {
        seed,
        schedule,
        report: MonitorReport {
            violations: Vec::new(),
            end: sim.now(),
            quiescent: tail.quiescent,
            events,
        },
        routes_correct: Some(sim.all_routes_correct()),
        traffic: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_campaign, Campaign, CampaignConfig, Target};
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

    /// A multi-destination chaos campaign on `grid:3x3` toward every
    /// `step`-th node.
    fn grid_campaign(step: usize, seeds: std::ops::Range<u64>, jobs: usize) -> Campaign {
        let g = generators::grid(3, 3, 1);
        let target = Target::Destinations(g.nodes().step_by(step).collect());
        let config = CampaignConfig::Chaos(small_config());
        run_campaign(&g, "grid:3x3", target, config, seeds, jobs)
    }

    #[test]
    fn standard_chaos_leaves_every_tree_correct() {
        let campaign = grid_campaign(1, 1..4, 1);
        for run in &campaign.runs {
            assert!(run.report.quiescent, "seed {} did not settle", run.seed);
            assert_eq!(run.routes_correct, Some(true), "seed {}", run.seed);
            assert!(run.report.events > 0, "seed {}: no events", run.seed);
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_report() {
        let a = grid_campaign(2, 7..10, 1);
        let b = grid_campaign(2, 7..10, 1);
        assert_eq!(a.report(), b.report());
        let c = grid_campaign(2, 8..11, 1);
        assert_ne!(a.report(), c.report(), "different seeds, different runs");
    }

    #[test]
    fn parallel_campaign_report_is_byte_identical_to_serial() {
        let serial = grid_campaign(1, 11..15, 1);
        for jobs in [2, 4, 7] {
            let parallel = grid_campaign(1, 11..15, jobs);
            assert_eq!(serial.report(), parallel.report(), "jobs={jobs}");
        }
    }
}
