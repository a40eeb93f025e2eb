//! Recovery measurement: stabilization time, contamination, overhead.

use std::collections::BTreeSet;

use lsrp_graph::contamination::{contaminated_nodes, range_of_contamination};
use lsrp_graph::NodeId;

use crate::sim_trait::RoutingSimulation;

/// Everything the paper's analysis talks about, measured for one recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Protocol name.
    pub protocol: &'static str,
    /// `|perturbed|` — the perturbation size of the injected fault.
    pub perturbation_size: usize,
    /// Time from fault injection to the last protocol-variable change
    /// (0 when nothing ever changed).
    pub stabilization_time: f64,
    /// Time from fault injection to the last effective event (includes
    /// final mirror refreshes).
    pub settle_time: f64,
    /// Healthy nodes that executed at least one non-maintenance action.
    pub contaminated: BTreeSet<NodeId>,
    /// Max hop distance from a contaminated node to the perturbed set.
    pub contamination_range: usize,
    /// Non-maintenance action executions during recovery.
    pub actions: u64,
    /// Messages sent during recovery.
    pub messages: u64,
    /// Route flaps: next-hop changes at *healthy* (non-perturbed) nodes
    /// during recovery — the §I/§IV-B instability measure ("route
    /// flapping, a severe kind of routing instability"). A healthy node
    /// whose parent changes and later changes back counts twice.
    pub healthy_route_flaps: u64,
    /// Whether the run settled before the horizon.
    pub quiescent: bool,
    /// Whether the final routes match Dijkstra ground truth.
    pub routes_correct: bool,
}

/// Runs one recovery experiment: from the simulation's current (steady)
/// state, clears the trace, lets `inject` apply the fault, runs to
/// quiescence and collects [`RecoveryMetrics`] against the declared
/// `perturbed` node set.
///
/// ```
/// use std::collections::BTreeSet;
/// use lsrp_analysis::measure_recovery;
/// use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
/// use lsrp_graph::{generators, Distance, NodeId};
///
/// let victim = NodeId::new(4);
/// let mut sim = LsrpSimulation::builder(generators::grid(3, 3, 1), NodeId::new(0)).build();
/// let m = measure_recovery(&mut sim, &BTreeSet::from([victim]), 10_000.0, |s| {
///     s.corrupt_distance(victim, Distance::ZERO);
/// });
/// assert!(m.routes_correct);
/// assert_eq!(m.contamination_range, 0); // ideal containment
/// ```
pub fn measure_recovery<S: RoutingSimulation + ?Sized>(
    sim: &mut S,
    perturbed: &BTreeSet<NodeId>,
    horizon: f64,
    inject: impl FnOnce(&mut S),
) -> RecoveryMetrics {
    sim.reset_trace();
    let sent0 = sim.stats().messages_sent;
    let t0 = sim.now();
    inject(sim);
    // Step event by event so healthy nodes' next-hop changes (route
    // flaps) can be counted, then fall through to quiescence detection.
    // Flaps come from the engine's route-delta log — O(changes) per event
    // instead of rebuilding and diffing the full table — against a parent
    // snapshot taken right after injection. The measurement owns the log
    // for its duration: it trims behind itself every step.
    let mut parents: std::collections::BTreeMap<NodeId, NodeId> = sim
        .route_table()
        .iter()
        .map(|(v, e)| (v, e.parent))
        .collect();
    let mut cursor = sim.route_cursor();
    let mut healthy_route_flaps = 0u64;
    // Routes cannot flap once protocol variables stop changing; a long
    // quiet gap ends the stepping phase even when periodic maintenance
    // keeps the event queue non-empty forever.
    const FLAP_SETTLE: f64 = 1_000.0;
    while let Some(t) = sim.step() {
        let last_change = sim
            .trace()
            .last_var_change_since(t0)
            .map_or(t0.seconds(), lsrp_sim::SimTime::seconds);
        if t.seconds() > horizon || t.seconds() > last_change + FLAP_SETTLE {
            break;
        }
        let deltas = sim.route_deltas_since(cursor);
        let consumed = deltas.len();
        for delta in deltas {
            // Removals keep the snapshot entry, exactly like the old
            // full-table diff (a downed node simply stops appearing).
            let Some(new) = delta.new else { continue };
            match parents.get_mut(&delta.node) {
                Some(old) if *old != new.route.parent => {
                    if !perturbed.contains(&delta.node) {
                        healthy_route_flaps += 1;
                    }
                    *old = new.route.parent;
                }
                Some(_) => {}
                None => {
                    parents.insert(delta.node, new.route.parent);
                }
            }
        }
        cursor = cursor.advanced(consumed);
        sim.trim_route_deltas(cursor);
    }
    let report = sim.run_to_quiescence(horizon);
    let acted = sim.trace().acted_nodes_since(t0);
    let contaminated = contaminated_nodes(perturbed, &acted);
    let contamination_range = range_of_contamination(sim.graph(), perturbed, &contaminated);
    let stabilization_time = sim
        .trace()
        .last_var_change_since(t0)
        .map_or(0.0, |t| t - t0);
    RecoveryMetrics {
        protocol: sim.name(),
        perturbation_size: perturbed.len(),
        stabilization_time,
        settle_time: report.last_effective.since(t0),
        contaminated,
        contamination_range,
        actions: sim.trace().total_actions(),
        messages: sim.stats().messages_sent - sent0,
        healthy_route_flaps,
        quiescent: report.quiescent,
        routes_correct: sim.routes_correct(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::{generators, Distance};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn single_corruption_metrics_on_lsrp() {
        let mut sim = LsrpSimulation::builder(generators::grid(5, 5, 1), v(0)).build();
        let perturbed = BTreeSet::from([v(12)]);
        let m = measure_recovery(&mut sim, &perturbed, 10_000.0, |s| {
            s.corrupt_distance(v(12), Distance::ZERO);
        });
        assert_eq!(m.protocol, "LSRP");
        assert_eq!(m.perturbation_size, 1);
        assert!(m.quiescent);
        assert!(m.routes_correct);
        assert!(m.stabilization_time > 0.0);
        assert!(m.settle_time >= m.stabilization_time);
        // Ideal containment: nothing outside the perturbed node acts.
        assert!(
            m.contaminated.is_empty(),
            "contaminated: {:?}",
            m.contaminated
        );
        assert_eq!(m.contamination_range, 0);
        assert!(m.actions >= 2); // C1 + C2
        assert!(m.messages > 0);
    }

    #[test]
    fn healthy_route_flaps_are_counted() {
        // The Figure-2 scenario on DBF: v6 flaps into the corrupted
        // subtree and back (2 flaps); under LSRP no healthy node moves.
        use lsrp_baselines::{BaselineSimulation, DbfConfig, DbfSimulation};
        use lsrp_graph::topologies::{fig1_route_table, paper_fig1, FIG1_DESTINATION};
        let inject = |s: &mut dyn crate::RoutingSimulation| {
            s.corrupt_distance(v(9), Distance::Finite(1));
            s.poison_mirror(v(7), v(9), Distance::Finite(1));
            s.poison_mirror(v(8), v(9), Distance::Finite(1));
        };
        let perturbed = BTreeSet::from([v(9)]);

        let mut dbf = DbfSimulation::new(
            paper_fig1(),
            FIG1_DESTINATION,
            Some(fig1_route_table()),
            DbfConfig::for_graph(&paper_fig1(), FIG1_DESTINATION),
            lsrp_sim::EngineConfig::default(),
        );
        let m = measure_recovery(
            &mut dbf as &mut dyn crate::RoutingSimulation,
            &perturbed,
            100_000.0,
            |s| inject(s),
        );
        assert!(
            m.healthy_route_flaps >= 2,
            "flaps: {}",
            m.healthy_route_flaps
        );

        let mut lsrp = lsrp_core::LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
            .initial_state(lsrp_core::InitialState::Table(fig1_route_table()))
            .build();
        let m = measure_recovery(
            &mut lsrp as &mut dyn crate::RoutingSimulation,
            &perturbed,
            100_000.0,
            |s| inject(s),
        );
        assert_eq!(m.healthy_route_flaps, 0);
    }

    #[test]
    fn no_fault_means_zero_metrics() {
        let mut sim = LsrpSimulation::builder(generators::path(4, 1), v(0)).build();
        let m = measure_recovery(&mut sim, &BTreeSet::new(), 1_000.0, |_| {});
        assert_eq!(m.stabilization_time, 0.0);
        assert_eq!(m.actions, 0);
        assert_eq!(m.contamination_range, 0);
        assert!(m.quiescent);
    }
}
