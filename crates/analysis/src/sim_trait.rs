//! The unified simulation interface experiments are written against.

use lsrp_graph::{Distance, Graph, GraphError, NodeId, RouteTable, Weight};
use lsrp_sim::{
    EngineStats, HarnessProtocol, RouteCursor, RouteDelta, RouteView, RunReport, SimHarness,
    SimTime, Trace,
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

    /// Corrupts a node's advertised distance in place.
    fn corrupt_distance(&mut self, v: NodeId, d: Distance);

    /// Poisons `at`'s mirror of `about` with an advertised distance (the
    /// "neighbors have learned the corrupted value" setup).
    fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance);

    /// Overwrites a node's route `(d, p)` in place (loop injection).
    fn inject_route(&mut self, v: NodeId, d: Distance, p: NodeId);

    /// Fail-stops a node.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for unknown nodes.
    fn fail_node(&mut self, v: NodeId) -> Result<(), GraphError>;

    /// Fail-stops an edge.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for unknown edges.
    fn fail_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError>;

    /// Joins an edge.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for invalid joins.
    fn join_edge(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError>;

    /// Joins (or rejoins) a node with the given edges to live neighbors.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for invalid joins.
    fn join_node(&mut self, v: NodeId, edges: &[(NodeId, Weight)]) -> Result<(), GraphError>;

    /// Changes an edge weight.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for unknown edges.
    fn set_weight(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError>;
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

    fn corrupt_distance(&mut self, v: NodeId, d: Distance) {
        SimHarness::corrupt_distance(self, v, d);
    }

    fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance) {
        SimHarness::poison_mirror(self, at, about, d);
    }

    fn inject_route(&mut self, v: NodeId, d: Distance, p: NodeId) {
        SimHarness::inject_route(self, v, d, p);
    }

    fn fail_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        SimHarness::fail_node(self, v)
    }

    fn fail_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        SimHarness::fail_edge(self, a, b)
    }

    fn join_edge(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        SimHarness::join_edge(self, a, b, w)
    }

    fn join_node(&mut self, v: NodeId, edges: &[(NodeId, Weight)]) -> Result<(), GraphError> {
        SimHarness::join_node(self, v, edges)
    }

    fn set_weight(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        SimHarness::set_weight(self, a, b, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_baselines::{
        BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation,
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
                g,
                v(0),
                None,
                DualConfig::default(),
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
            sim.fail_edge(v(0), v(1)).unwrap();
            sim.join_edge(v(0), v(5), 2).unwrap();
            sim.set_weight(v(0), v(5), 3).unwrap();
            let report = sim.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent, "{}", sim.name());
            assert!(sim.routes_correct(), "{}", sim.name());
        }
    }
}
