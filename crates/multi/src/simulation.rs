//! The multi-destination simulation facade.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use lsrp_core::{LsrpState, Mirror, TimingConfig};
use lsrp_graph::{Distance, Graph, NodeId, RouteTable};
use lsrp_sim::{CorruptionKind, Engine, EngineConfig, HarnessProtocol, SimHarness};

use crate::dest::DestTable;
use crate::node::MultiLsrpNode;

/// Metadata carried by the multi-destination harness: the configured
/// destination list, the shared wave timing, the interned destination
/// table, and a scratch route table reused by per-destination snapshots.
#[derive(Debug, Clone)]
pub struct MultiMeta {
    /// The destinations configured at build time (failed destinations are
    /// filtered out by [`MultiLsrpSimulationExt::destinations`]).
    pub destinations: Vec<NodeId>,
    /// The shared wave timing.
    pub timing: TimingConfig,
    dest_table: Arc<DestTable>,
    /// Reused by [`MultiLsrpSimulationExt::routes_correct_for`] and
    /// friends so repeated correctness checks refill one table instead of
    /// rebuilding a fresh one per call.
    scratch: RefCell<RouteTable>,
}

impl MultiMeta {
    pub(crate) fn new(destinations: Vec<NodeId>, timing: TimingConfig) -> Self {
        let dest_table = DestTable::new(destinations.iter().copied());
        MultiMeta {
            destinations,
            timing,
            dest_table,
            scratch: RefCell::new(RouteTable::new()),
        }
    }

    /// The interned destination table shared by every node.
    pub fn dest_table(&self) -> &Arc<DestTable> {
        &self.dest_table
    }
}

impl HarnessProtocol for MultiLsrpNode {
    const NAME: &'static str = "LSRP-MULTI";
    type Meta = MultiMeta;

    fn corrupt(&mut self, kind: &CorruptionKind, dest: NodeId) {
        if let Some(i) = self.instance_mut(dest) {
            i.corrupt(kind, dest);
        }
    }
}

/// Builder for [`MultiLsrpSimulation`].
#[derive(Debug, Clone)]
pub struct MultiLsrpSimulationBuilder {
    graph: Graph,
    destinations: Vec<NodeId>,
    timing: TimingConfig,
    engine: EngineConfig,
}

impl MultiLsrpSimulationBuilder {
    /// Sets wave timing (shared by all instances).
    #[must_use]
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the engine configuration.
    #[must_use]
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Shortcut for the engine seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Builds the simulation, every instance starting at its canonical
    /// legitimate state with consistent mirrors.
    ///
    /// # Panics
    ///
    /// Panics if a destination is not a node of the graph, the destination
    /// list is empty, or the timing violates the wave-speed constraints.
    pub fn build(self) -> MultiLsrpSimulation {
        assert!(
            !self.destinations.is_empty(),
            "need at least one destination"
        );
        for &d in &self.destinations {
            assert!(
                self.graph.has_node(d),
                "destination {d} is not in the graph"
            );
        }
        self.timing
            .validate(self.engine.clocks.rho(), self.engine.link.delay_max)
            .expect("LSRP timing must satisfy the wave-speed constraints");

        let meta = MultiMeta::new(self.destinations, self.timing);
        let dest_table = Arc::clone(meta.dest_table());
        // Per destination (in DestId order): the legitimate table, used
        // for states and consistent mirrors. The prepared states are
        // consumed on first spawn — a node (re)joining later starts
        // *fresh*, so it recomputes, broadcasts, and its neighbors learn
        // it exists (matching the single-destination builder).
        let tables: Vec<RouteTable> = dest_table
            .nodes()
            .iter()
            .map(|&d| RouteTable::legitimate(&self.graph, d))
            .collect();
        let mut prepared: BTreeMap<NodeId, Vec<LsrpState>> = self
            .graph
            .nodes()
            .map(|id| {
                let states = dest_table
                    .iter()
                    .map(|(di, dest)| legitimate_state(&self.graph, id, dest, &tables[di.index()]))
                    .collect();
                (id, states)
            })
            .collect();
        let timing = self.timing;
        let engine = Engine::new(self.graph, self.engine, move |id, neighbors| {
            let states: Vec<LsrpState> = prepared.remove(&id).unwrap_or_else(|| {
                dest_table
                    .iter()
                    .map(|(_, dest)| LsrpState::fresh(id, dest, neighbors.iter().copied()))
                    .collect()
            });
            MultiLsrpNode::new(id, timing, Arc::clone(&dest_table), states)
        });
        let settle = match timing.syn_period {
            Some(p) => 2.0 * p + 1.0,
            None => 0.0,
        };
        // The harness's single destination is the primary (lowest id); the
        // full list lives in the metadata.
        let primary = meta
            .dest_table()
            .primary()
            .expect("destination list is non-empty");
        MultiLsrpSimulation::from_parts(engine, primary, settle, meta)
    }
}

/// A running multi-destination LSRP network.
///
/// The harness's single-destination surface (`destination()`,
/// `route_table()`, `corrupt_distance()`, …) targets the *primary*
/// destination — the lowest configured id; the per-destination surface
/// lives on [`MultiLsrpSimulationExt`].
pub type MultiLsrpSimulation = SimHarness<MultiLsrpNode>;

/// Multi-destination operations of [`MultiLsrpSimulation`].
pub trait MultiLsrpSimulationExt {
    /// Starts building a simulation routing toward every destination in
    /// `destinations`.
    fn builder(graph: Graph, destinations: Vec<NodeId>) -> MultiLsrpSimulationBuilder;

    /// The destinations being routed toward (failed ones excluded).
    fn destinations(&self) -> Vec<NodeId>;

    /// The shared wave timing.
    fn timing(&self) -> &TimingConfig;

    /// The route table toward one destination.
    ///
    /// The primary destination is served straight from the engine's dense
    /// [`lsrp_sim::RouteView`] (maintained incrementally, no per-node
    /// walk); other destinations are snapshot through the cached scratch
    /// table in [`MultiMeta`].
    fn route_table_for(&self, dest: NodeId) -> RouteTable;

    /// Whether the table toward `dest` matches Dijkstra ground truth.
    fn routes_correct_for(&self, dest: NodeId) -> bool;

    /// Whether *every* destination's table is correct.
    fn all_routes_correct(&self) -> bool;

    /// Corrupts the distance of `node`'s instance toward `dest`.
    fn corrupt_instance_distance(&mut self, node: NodeId, dest: NodeId, d: Distance);

    /// Corrupts the *entire* routing state of `node`: every instance's
    /// distance and parent set to arbitrary values via `f(dest)`.
    fn corrupt_all_instances(&mut self, node: NodeId, f: impl FnMut(NodeId) -> (Distance, NodeId));
}

impl MultiLsrpSimulationExt for MultiLsrpSimulation {
    fn builder(graph: Graph, destinations: Vec<NodeId>) -> MultiLsrpSimulationBuilder {
        let engine = EngineConfig::default();
        MultiLsrpSimulationBuilder {
            graph,
            destinations,
            timing: TimingConfig::paper_example(engine.link.delay_max),
            engine,
        }
    }

    fn destinations(&self) -> Vec<NodeId> {
        self.meta()
            .destinations
            .iter()
            .copied()
            .filter(|&d| self.graph().has_node(d))
            .collect()
    }

    fn timing(&self) -> &TimingConfig {
        &self.meta().timing
    }

    fn route_table_for(&self, dest: NodeId) -> RouteTable {
        if dest == self.destination() {
            // The facade `route_entry()` reports the primary destination
            // (satellite fix above), so the engine's view *is* this table.
            return self.engine().route_table();
        }
        let mut t = self.meta().scratch.borrow_mut();
        fill_table(self, dest, &mut t);
        t.clone()
    }

    fn routes_correct_for(&self, dest: NodeId) -> bool {
        let mut t = self.meta().scratch.borrow_mut();
        fill_table(self, dest, &mut t);
        t.is_correct(self.graph(), dest)
    }

    fn all_routes_correct(&self) -> bool {
        self.destinations()
            .iter()
            .all(|&d| self.routes_correct_for(d))
    }

    fn corrupt_instance_distance(&mut self, node: NodeId, dest: NodeId, d: Distance) {
        let kind = CorruptionKind::Distance(d);
        self.engine_mut()
            .with_node_mut(node, |n| n.corrupt(&kind, dest));
    }

    fn corrupt_all_instances(
        &mut self,
        node: NodeId,
        mut f: impl FnMut(NodeId) -> (Distance, NodeId),
    ) {
        let dests = self.destinations();
        self.engine_mut().with_node_mut(node, |n| {
            for dest in dests {
                let (d, p) = f(dest);
                n.corrupt(&CorruptionKind::Route { d, p }, dest);
            }
        });
    }
}

/// `id`'s instance toward `dest` at the legitimate state `table`, with
/// mirrors consistent with it (both builders' prepared states).
pub(crate) fn legitimate_state(
    graph: &Graph,
    id: NodeId,
    dest: NodeId,
    table: &RouteTable,
) -> LsrpState {
    let mut s = LsrpState::fresh(id, dest, graph.neighbors(id));
    if let Some(e) = table.entry(id) {
        s.d = e.distance;
        s.p = e.parent;
    }
    s.neighbors.fill(|k| {
        table.entry(k).map_or(Mirror::unknown(k), |e| Mirror {
            d: e.distance,
            p: e.parent,
            ghost: false,
        })
    });
    s
}

/// Refills `out` with the current per-node entries toward `dest` in one
/// dense pass over the engine's slots.
fn fill_table(sim: &MultiLsrpSimulation, dest: NodeId, out: &mut RouteTable) {
    out.clear();
    out.extend(sim.graph().nodes().filter_map(|v| {
        sim.engine()
            .node(v)
            .and_then(|n| n.route_entry_for(dest))
            .map(|e| (v, e))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn all_pairs_tables_start_correct_and_quiet() {
        let g = generators::grid(3, 3, 1);
        let dests: Vec<NodeId> = g.nodes().collect();
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        let report = sim.run_to_quiescence(1_000.0);
        assert!(report.quiescent);
        assert_eq!(sim.engine().trace().total_actions(), 0);
        assert!(sim.all_routes_correct());
    }

    #[test]
    fn corruption_in_one_tree_leaves_others_untouched() {
        let g = generators::grid(4, 4, 1);
        let dests = vec![v(0), v(15)];
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.corrupt_instance_distance(v(5), v(0), Distance::ZERO);
        let report = sim.run_to_quiescence(10_000.0);
        assert!(report.quiescent);
        assert!(sim.all_routes_correct());
        // Only the v0-instance acted: every executed protocol action
        // carries the v0 instance tag (maintenance records — the batch
        // FLUSH — are transport, not protocol steps).
        for r in sim
            .engine()
            .trace()
            .actions
            .iter()
            .filter(|r| !r.maintenance)
        {
            assert_eq!(r.action.instance, v(0).raw() + 1, "{r:?}");
        }
    }

    #[test]
    fn snapshot_paths_match_the_naive_rebuild() {
        // Satellite: route_table_for serves the primary from the engine's
        // RouteView and the rest through the cached scratch table; both
        // must equal a per-node rebuild.
        let g = generators::grid(4, 4, 1);
        let dests = vec![v(0), v(7), v(15)];
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.corrupt_all_instances(v(5), |_| (Distance::ZERO, v(5)));
        assert!(sim.run_to_quiescence(100_000.0).quiescent);
        for d in sim.destinations() {
            let naive: RouteTable = sim
                .graph()
                .nodes()
                .filter_map(|n| {
                    sim.engine()
                        .node(n)
                        .and_then(|node| node.route_entry_for(d))
                        .map(|e| (n, e))
                })
                .collect();
            assert_eq!(sim.route_table_for(d), naive, "dest {d}");
            assert_eq!(
                sim.routes_correct_for(d),
                naive.is_correct(sim.graph(), d),
                "dest {d}"
            );
        }
    }

    #[test]
    fn scans_are_o_dirty_not_o_destinations() {
        // Acceptance pin: a single-instance corruption on a node routing
        // toward many destinations must not evaluate (or execute) the
        // other instances' guards. With no other activity, the recovery
        // work is *identical* whatever the destination count, so the
        // instance-evaluation ledger must match exactly between a 4- and
        // a 16-destination run of the same fault.
        let evals_after_recovery = |dests: Vec<NodeId>| {
            let g = generators::grid(4, 4, 1);
            let mut sim = MultiLsrpSimulation::builder(g, dests).build();
            assert!(sim.run_to_quiescence(10_000.0).quiescent);
            let total = |s: &MultiLsrpSimulation| -> u64 {
                s.graph()
                    .nodes()
                    .map(|n| s.engine().node(n).unwrap().instance_evals())
                    .sum()
            };
            let baseline = total(&sim);
            sim.corrupt_instance_distance(v(5), v(0), Distance::ZERO);
            assert!(sim.run_to_quiescence(10_000.0).quiescent);
            assert!(sim.all_routes_correct());
            // No foreign-tag protocol action executed anywhere.
            for r in sim
                .engine()
                .trace()
                .actions
                .iter()
                .filter(|r| !r.maintenance)
            {
                assert_eq!(r.action.instance, v(0).raw() + 1, "{r:?}");
            }
            total(&sim) - baseline
        };
        let few = evals_after_recovery(vec![v(0), v(3), v(12), v(15)]);
        let many = evals_after_recovery((0..16).map(v).collect());
        assert_eq!(
            few, many,
            "recovery cost must depend on dirty instances, not the destination count"
        );
        assert!(few > 0, "the corrupted tree did recover");
    }

    #[test]
    fn batching_ledger_counts_messages_and_adverts() {
        let g = generators::grid(4, 4, 1);
        let dests: Vec<NodeId> = (0..16).map(v).collect();
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.corrupt_all_instances(v(5), |_| (Distance::ZERO, v(5)));
        assert!(sim.run_to_quiescence(100_000.0).quiescent);
        assert!(sim.all_routes_correct());
        let stats = sim.stats();
        assert!(
            stats.adverts_sent > stats.messages_sent,
            "all-instance recovery batches several adverts per wire message \
             (adverts {} vs messages {})",
            stats.adverts_sent,
            stats.messages_sent
        );
        assert!(stats.adverts_delivered > stats.messages_delivered);
    }

    #[test]
    fn full_node_corruption_recovers_every_tree() {
        let g = generators::grid(4, 4, 1);
        let dests: Vec<NodeId> = vec![v(0), v(3), v(12), v(15)];
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.corrupt_all_instances(v(5), |_| (Distance::ZERO, v(5)));
        let report = sim.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(sim.all_routes_correct());
    }

    #[test]
    fn fail_stop_heals_all_remaining_trees() {
        let g = generators::grid(4, 4, 1);
        let dests: Vec<NodeId> = vec![v(0), v(15), v(5)];
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.fail_node(v(5)).unwrap();
        assert_eq!(sim.destinations(), vec![v(0), v(15)]);
        let report = sim.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(sim.all_routes_correct());
    }

    #[test]
    fn link_churn_updates_every_tree() {
        let g = generators::grid(3, 3, 1);
        let dests: Vec<NodeId> = g.nodes().collect();
        let mut sim = MultiLsrpSimulation::builder(g, dests).build();
        sim.fail_edge(v(0), v(1)).unwrap();
        sim.join_edge(v(0), v(4), 1).unwrap();
        let report = sim.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(sim.all_routes_correct());
    }

    #[test]
    #[should_panic(expected = "need at least one destination")]
    fn empty_destinations_rejected() {
        let _ = MultiLsrpSimulation::builder(generators::path(2, 1), vec![]).build();
    }
}
