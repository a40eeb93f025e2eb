//! The dense multi-destination plane's fault mapping.
//!
//! Single-destination runs judge one routing computation with the full
//! online-monitor set. A [`Target::Destinations`] campaign drives the
//! same seeded fault schedules, through the same run body and loop,
//! against a [`MultiLsrpSimulation`] — every node running one LSRP
//! instance per destination over the batched wire — and judges the
//! outcomes every tree must satisfy: the network goes quiescent, and
//! *every* destination's route table is correct afterward. What differs
//! is how a fault lands, which is this module's `apply_multi`.
//!
//! Fault mapping: topology faults apply verbatim (they perturb every
//! tree at once). State corruptions target the named node's instance
//! toward a destination chosen round-robin by fault index — except
//! distance corruptions with an explicit value, which keep it — so a
//! schedule exercises different trees deterministically.
//!
//! [`Target::Destinations`]: crate::chaos::Target::Destinations

use lsrp_faults::{CorruptionKind, Fault};
use lsrp_graph::Distance;
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};

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
        _ => {
            let _ = fault.apply(sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::chaos::{run_campaign, Campaign, CampaignConfig, ChaosConfig, Target};
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
