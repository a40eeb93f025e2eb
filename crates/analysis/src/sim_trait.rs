//! The unified simulation interface experiments are written against.

use lsrp_faults::{CorruptionKind, Fault, FaultPlan};
use lsrp_graph::{Distance, Graph, GraphError, NodeId, RouteTable};
use lsrp_sim::{
    EngineStats, HarnessProtocol, Mirror, RouteCursor, RouteDelta, RouteView, RunReport,
    SimHarness, SimTime, Trace,
};

/// The operations every routing-protocol simulation exposes to the
/// measurement harness.
///
/// Implemented once, for every [`SimHarness`]: any protocol with a
/// [`HarnessProtocol`] impl (LSRP, DBF, DUAL-lite, PV, multi-destination
/// LSRP) gets this interface for free.
pub trait RoutingSimulation {
    /// Short protocol name for tables ("LSRP", "DBF", "DUAL").
    fn name(&self) -> &'static str;

    /// The destination node.
    fn destination(&self) -> NodeId;

    /// The current topology.
    fn graph(&self) -> &Graph;

    /// The current `(d, p)` table.
    fn route_table(&self) -> RouteTable;

    /// The engine-maintained dense route view (always current; see
    /// [`lsrp_sim::view`]).
    fn route_view(&self) -> &RouteView;

    /// Turns route-delta logging on (idempotent) and returns the current
    /// change cursor — the entry point for O(changes) measurement.
    fn route_cursor(&mut self) -> RouteCursor;

    /// Every route delta recorded after `cursor`, oldest first. Continue
    /// from `cursor.advanced(slice.len())`.
    ///
    /// # Panics
    ///
    /// Panics for cursors that were trimmed past.
    fn route_deltas_since(&self, cursor: RouteCursor) -> &[RouteDelta];

    /// Discards route deltas every consumer has advanced past.
    fn trim_route_deltas(&mut self, cursor: RouteCursor);

    /// Nodes currently involved in a containment wave (`ghost.v` for LSRP;
    /// *active* nodes for DUAL; empty for protocols without containment).
    fn containment_set(&self) -> std::collections::BTreeSet<NodeId> {
        std::collections::BTreeSet::new()
    }

    /// Whether routes match Dijkstra ground truth on the current topology.
    fn routes_correct(&self) -> bool;

    /// The execution trace.
    fn trace(&self) -> &Trace;

    /// Clears the trace (before the measured phase).
    fn reset_trace(&mut self);

    /// The engine's cumulative counters — the message ledger; a phase's
    /// count is the difference of two reads.
    fn stats(&self) -> EngineStats;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Processes one event; `None` when the queue is empty.
    fn step(&mut self) -> Option<SimTime>;

    /// Runs until settled or `horizon`.
    fn run_to_quiescence(&mut self, horizon: f64) -> RunReport;

    /// Runs all events up to time `t`.
    fn run_until(&mut self, t: f64);

    /// Overwrites node `v`'s state as `kind` says
    /// ([`HarnessProtocol::corrupt`]).
    fn corrupt(&mut self, v: NodeId, kind: &CorruptionKind);

    /// What `v` advertises: its route and containment flag, as a
    /// neighbour mirrors them.
    fn advert(&self, v: NodeId) -> Mirror;

    /// Applies one fault ([`Fault::apply`]).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from topology faults the topology does
    /// not admit.
    fn apply(&mut self, fault: &Fault) -> Result<(), GraphError>;

    /// Applies a plan's faults in order.
    ///
    /// # Errors
    ///
    /// Stops at and propagates the first topology error.
    fn apply_plan(&mut self, plan: &FaultPlan) -> Result<(), GraphError> {
        plan.faults.iter().try_for_each(|f| self.apply(f))
    }

    /// Corrupts a node's advertised distance in place.
    fn corrupt_distance(&mut self, v: NodeId, d: Distance) {
        self.corrupt(v, &CorruptionKind::Distance(d));
    }

    /// Poisons `at`'s mirror of `about` with an advertised distance (the
    /// "neighbors have learned the corrupted value" setup), keeping
    /// `about`'s current parent and containment flag.
    fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance);

    /// Overwrites a node's route `(d, p)` in place (loop injection).
    fn inject_route(&mut self, v: NodeId, d: Distance, p: NodeId) {
        self.corrupt(v, &CorruptionKind::Route { d, p });
    }
}

impl<P: HarnessProtocol> RoutingSimulation for SimHarness<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn destination(&self) -> NodeId {
        SimHarness::destination(self)
    }

    fn graph(&self) -> &Graph {
        SimHarness::graph(self)
    }

    fn route_table(&self) -> RouteTable {
        SimHarness::route_table(self)
    }

    fn route_view(&self) -> &RouteView {
        SimHarness::route_view(self)
    }

    fn route_cursor(&mut self) -> RouteCursor {
        SimHarness::route_cursor(self)
    }

    fn route_deltas_since(&self, cursor: RouteCursor) -> &[RouteDelta] {
        SimHarness::route_deltas_since(self, cursor)
    }

    fn trim_route_deltas(&mut self, cursor: RouteCursor) {
        SimHarness::trim_route_deltas(self, cursor);
    }

    fn containment_set(&self) -> std::collections::BTreeSet<NodeId> {
        SimHarness::containment_set(self)
    }

    fn routes_correct(&self) -> bool {
        SimHarness::routes_correct(self)
    }

    fn trace(&self) -> &Trace {
        SimHarness::trace(self)
    }

    fn reset_trace(&mut self) {
        SimHarness::reset_trace(self);
    }

    fn stats(&self) -> EngineStats {
        SimHarness::stats(self)
    }

    fn now(&self) -> SimTime {
        SimHarness::now(self)
    }

    fn step(&mut self) -> Option<SimTime> {
        SimHarness::step(self)
    }

    fn run_to_quiescence(&mut self, horizon: f64) -> RunReport {
        SimHarness::run_to_quiescence(self, horizon)
    }

    fn run_until(&mut self, t: f64) {
        SimHarness::run_until(self, t);
    }

    fn corrupt(&mut self, v: NodeId, kind: &CorruptionKind) {
        SimHarness::corrupt(self, v, kind);
    }

    fn advert(&self, v: NodeId) -> Mirror {
        SimHarness::advert(self, v)
    }

    fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance) {
        SimHarness::poison_mirror(self, at, about, d);
    }

    fn apply(&mut self, fault: &Fault) -> Result<(), GraphError> {
        fault.apply(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_baselines::{
        BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
        PvSimulation,
    };
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::generators;
    use lsrp_sim::EngineConfig;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn all_sims() -> Vec<Box<dyn RoutingSimulation>> {
        let g = generators::grid(4, 4, 1);
        vec![
            Box::new(LsrpSimulation::builder(g.clone(), v(0)).build()),
            Box::new(DbfSimulation::new(
                g.clone(),
                v(0),
                None,
                DbfConfig::for_graph(&g, v(0)),
                EngineConfig::default(),
            )),
            Box::new(DualSimulation::new(
                g.clone(),
                v(0),
                None,
                DualConfig::default(),
                EngineConfig::default(),
            )),
            Box::new(PvSimulation::new(
                g.clone(),
                v(0),
                None,
                PvConfig::for_graph(&g, v(0)),
                EngineConfig::default(),
            )),
        ]
    }

    #[test]
    fn all_protocols_recover_from_the_same_corruption_via_the_trait() {
        for mut sim in all_sims() {
            sim.corrupt_distance(v(10), Distance::ZERO);
            sim.poison_mirror(v(11), v(10), Distance::ZERO);
            let report = sim.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent, "{} did not settle", sim.name());
            assert!(sim.routes_correct(), "{} wrong routes", sim.name());
        }
    }

    #[test]
    fn every_corruption_kind_lands_through_the_trait_and_recovers() {
        // A mirror forged too large: path vector has no periodic refresh,
        // so a neighbour would keep a forged shortcut forever.
        let forged = Mirror {
            d: Distance::Finite(9),
            p: v(10),
            ghost: true,
        };
        let kinds = [
            (v(10), CorruptionKind::Distance(Distance::ZERO)),
            (v(10), CorruptionKind::Parent(v(14))),
            (
                v(10),
                CorruptionKind::Route {
                    d: Distance::Finite(1),
                    p: v(11),
                },
            ),
            (v(10), CorruptionKind::Ghost(true)),
            (v(10), CorruptionKind::Timestamp(1.0e6)),
            (
                v(11),
                CorruptionKind::MirrorOf {
                    about: v(10),
                    mirror: forged,
                },
            ),
        ];
        for (node, kind) in kinds {
            let mut sims = all_sims();
            // Plain DBF keeps a forged mirror (`Parent` and `Route` plant
            // one) until a periodic refresh overwrites it.
            let g = generators::grid(4, 4, 1);
            let refreshed = DbfConfig {
                syn_period: Some(50.0),
                ..DbfConfig::for_graph(&g, v(0))
            };
            sims[1] = Box::new(DbfSimulation::new(
                g,
                v(0),
                None,
                refreshed,
                EngineConfig::default(),
            ));
            for mut sim in sims {
                sim.apply(&Fault::Corrupt { node, kind }).unwrap();
                if sim.name() == "LSRP" && kind == CorruptionKind::Ghost(true) {
                    assert!(sim.containment_set().contains(&v(10)), "{kind:?}");
                }
                sim.run_until(10_000.0);
                assert!(sim.routes_correct(), "{} {kind:?}", sim.name());
            }
        }
    }

    #[test]
    fn trait_exposes_consistent_views() {
        for sim in all_sims() {
            assert_eq!(sim.destination(), v(0));
            assert_eq!(sim.graph().node_count(), 16);
            assert_eq!(sim.route_table().len(), 16);
            assert!(sim.routes_correct());
        }
    }

    #[test]
    fn topology_faults_via_the_trait() {
        for mut sim in all_sims() {
            sim.apply(&Fault::FailEdge(v(0), v(1))).unwrap();
            sim.apply(&Fault::JoinEdge(v(0), v(5), 2)).unwrap();
            sim.apply(&Fault::SetWeight(v(0), v(5), 3)).unwrap();
            let report = sim.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent, "{}", sim.name());
            assert!(sim.routes_correct(), "{}", sim.name());
        }
    }
}
