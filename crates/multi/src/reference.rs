//! The pre-dense multi-destination plane, preserved as a behavioral
//! oracle.
//!
//! [`ReferenceMultiNode`] is the architecture the dense plane replaced:
//! every node keeps a `BTreeMap<NodeId, LsrpNode>` of per-destination
//! instances, every advert travels as its own wire message, and guard
//! evaluation rescans *all* instances on every event. It is kept (not as a
//! museum piece, but as an executable specification) so the equivalence
//! suite can run the old semantics against the new plane across seeds ×
//! topologies × fault schedules and assert identical quiescence verdicts
//! and final per-destination route tables — and so benchmarks can quote
//! the batching win in delivered messages against a live baseline.

use std::collections::BTreeMap;

use lsrp_core::{LsrpMsg, LsrpNode, LsrpState, TimingConfig};
use lsrp_graph::{Distance, Graph, NodeId, RouteEntry, RouteTable, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, ForgedAdvert, HarnessProtocol,
    ProtocolNode, SimHarness,
};

use crate::node::{dest_of_tag, instance_tag};
use crate::simulation::{legitimate_state, MultiMeta};

/// One destination's advert as its own wire message (the pre-batching
/// format: one engine delivery per destination per neighbor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceMsg {
    /// Which destination's routing computation this belongs to.
    pub dest: NodeId,
    /// The inner LSRP payload.
    pub msg: LsrpMsg,
}

/// One node of the pre-dense plane: per-destination instances in a
/// `BTreeMap`, full scans, unbatched sends.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceMultiNode {
    id: NodeId,
    instances: BTreeMap<NodeId, LsrpNode>,
}

impl ReferenceMultiNode {
    /// Creates a node with one instance per destination.
    pub fn new(
        id: NodeId,
        timing: TimingConfig,
        states: impl IntoIterator<Item = (NodeId, LsrpState)>,
    ) -> Self {
        let instances = states
            .into_iter()
            .map(|(dest, state)| {
                assert_eq!(state.id, id, "instance state must belong to this node");
                assert_eq!(state.dest, dest, "instance keyed by its destination");
                (dest, LsrpNode::new(state, timing))
            })
            .collect();
        ReferenceMultiNode { id, instances }
    }

    /// Mutable instance access (state-corruption surface).
    pub fn instance_mut(&mut self, dest: NodeId) -> Option<&mut LsrpNode> {
        self.instances.get_mut(&dest)
    }

    /// The route entry toward `dest`.
    pub fn route_entry_for(&self, dest: NodeId) -> Option<RouteEntry> {
        self.instances.get(&dest).map(LsrpNode::route_entry)
    }
}

impl ProtocolNode for ReferenceMultiNode {
    type Msg = ReferenceMsg;

    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut out = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut out);
        out
    }

    fn enabled_actions_into(&self, now_local: f64, out: &mut EnabledSet) {
        // The full scan the dense plane eliminated: every instance,
        // every evaluation.
        let mut inner = EnabledSet::none();
        for (&dest, node) in &self.instances {
            inner.clear();
            node.enabled_actions_into(now_local, &mut inner);
            let tag = instance_tag(dest);
            for (id, hold, fingerprint) in inner.entries() {
                let tagged = id.for_instance(tag);
                match fingerprint {
                    Some(fp) => {
                        out.enable_with_fingerprint(tagged, hold, fp);
                    }
                    None => {
                        out.enable(tagged, hold);
                    }
                }
            }
            if let Some(w) = inner.wakeup_local {
                out.wake_at(w);
            }
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<ReferenceMsg>) {
        let dest = dest_of_tag(action.instance);
        let node = self
            .instances
            .get_mut(&dest)
            .expect("engine only fires actions we reported");
        let mut inner_fx = Effects::detached();
        node.execute(action.for_instance(0), now_local, &mut inner_fx);
        inner_fx.merge_into(fx, |msg| ReferenceMsg { dest, msg });
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &ReferenceMsg,
        now_local: f64,
        fx: &mut Effects<ReferenceMsg>,
    ) {
        let Some(node) = self.instances.get_mut(&msg.dest) else {
            return; // unknown destination (e.g. mismatched configuration)
        };
        let dest = msg.dest;
        let mut inner_fx = Effects::detached();
        node.on_receive(from, &msg.msg, now_local, &mut inner_fx);
        inner_fx.merge_into(fx, |m| ReferenceMsg { dest, msg: m });
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        now_local: f64,
        fx: &mut Effects<ReferenceMsg>,
    ) {
        for (&dest, node) in &mut self.instances {
            let mut inner_fx = Effects::detached();
            node.on_neighbors_changed(neighbors, now_local, &mut inner_fx);
            inner_fx.merge_into(fx, |m| ReferenceMsg { dest, msg: m });
        }
    }

    fn route_entry(&self) -> RouteEntry {
        // BTreeMap iteration is id-ascending, so "first instance" is the
        // primary (lowest-id) destination — same facade as the dense plane.
        self.instances
            .values()
            .next()
            .map_or_else(|| RouteEntry::no_route(self.id), LsrpNode::route_entry)
    }

    fn route_entry_toward(&self, dest: NodeId) -> Option<RouteEntry> {
        self.route_entry_for(dest)
    }

    fn in_containment(&self) -> bool {
        self.instances.values().any(|n| n.state().ghost)
    }

    fn action_name(action: ActionId) -> &'static str {
        LsrpNode::action_name(action.for_instance(0))
    }

    fn is_maintenance(action: ActionId) -> bool {
        LsrpNode::is_maintenance(action.for_instance(0))
    }
}

impl HarnessProtocol for ReferenceMultiNode {
    const NAME: &'static str = "LSRP-MULTI-REF";
    type Meta = MultiMeta;

    fn corrupt_distance(&mut self, d: Distance, dest: NodeId) {
        if let Some(i) = self.instance_mut(dest) {
            i.corrupt_distance(d, dest);
        }
    }

    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, dest: NodeId) {
        if let Some(i) = self.instance_mut(dest) {
            i.poison_mirror(about, advert, dest);
        }
    }

    fn inject_route(&mut self, d: Distance, p: NodeId, dest: NodeId) {
        if let Some(i) = self.instance_mut(dest) {
            i.inject_route(d, p, dest);
        }
    }
}

/// A running pre-dense multi-destination network (the oracle half of the
/// equivalence suite).
pub type ReferenceMultiSimulation = SimHarness<ReferenceMultiNode>;

/// The oracle's facade: the subset of [`crate::MultiLsrpSimulationExt`]
/// the equivalence suite and baseline benchmarks need.
pub trait ReferenceMultiSimulationExt {
    /// Builds a simulation routing toward every destination, each instance
    /// starting at its canonical legitimate state with consistent mirrors
    /// (the same start the dense builder produces).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the dense builder (empty or
    /// out-of-graph destinations, invalid timing).
    fn reference(graph: Graph, destinations: Vec<NodeId>, engine: EngineConfig) -> Self;

    /// The destinations being routed toward (failed ones excluded).
    fn destinations(&self) -> Vec<NodeId>;

    /// The route table toward one destination (per-call rebuild — the
    /// pre-dense behavior).
    fn route_table_for(&self, dest: NodeId) -> RouteTable;

    /// Whether *every* destination's table is correct.
    fn all_routes_correct(&self) -> bool;

    /// Corrupts the distance of `node`'s instance toward `dest`.
    fn corrupt_instance_distance(&mut self, node: NodeId, dest: NodeId, d: Distance);

    /// Corrupts every instance of `node` via `f(dest)`.
    fn corrupt_all_instances(&mut self, node: NodeId, f: impl FnMut(NodeId) -> (Distance, NodeId));
}

impl ReferenceMultiSimulationExt for ReferenceMultiSimulation {
    fn reference(graph: Graph, destinations: Vec<NodeId>, engine: EngineConfig) -> Self {
        assert!(!destinations.is_empty(), "need at least one destination");
        for &d in &destinations {
            assert!(graph.has_node(d), "destination {d} is not in the graph");
        }
        let timing = TimingConfig::paper_example(engine.link.delay_max);
        timing
            .validate(engine.clocks.rho(), engine.link.delay_max)
            .expect("LSRP timing must satisfy the wave-speed constraints");
        let tables: BTreeMap<NodeId, RouteTable> = destinations
            .iter()
            .map(|&d| (d, RouteTable::legitimate(&graph, d)))
            .collect();
        let dests = destinations.clone();
        // Prepared states are consumed on first spawn; a node (re)joining
        // later starts fresh so it recomputes and announces itself — the
        // same rejoin semantics as the dense builder.
        let mut prepared: BTreeMap<NodeId, Vec<(NodeId, LsrpState)>> = graph
            .nodes()
            .map(|id| {
                let states = dests
                    .iter()
                    .map(|&dest| (dest, legitimate_state(&graph, id, dest, &tables[&dest])))
                    .collect();
                (id, states)
            })
            .collect();
        let engine = Engine::new(graph, engine, move |id, neighbors| {
            let states: Vec<(NodeId, LsrpState)> = prepared.remove(&id).unwrap_or_else(|| {
                dests
                    .iter()
                    .map(|&dest| (dest, LsrpState::fresh(id, dest, neighbors.iter().copied())))
                    .collect()
            });
            ReferenceMultiNode::new(id, timing, states)
        });
        let settle = match timing.syn_period {
            Some(p) => 2.0 * p + 1.0,
            None => 0.0,
        };
        let primary = *destinations
            .iter()
            .min()
            .expect("destination list is non-empty");
        let meta = MultiMeta::new(destinations, timing);
        ReferenceMultiSimulation::from_parts(engine, primary, settle, meta)
    }

    fn destinations(&self) -> Vec<NodeId> {
        self.meta()
            .destinations
            .iter()
            .copied()
            .filter(|&d| self.graph().has_node(d))
            .collect()
    }

    fn route_table_for(&self, dest: NodeId) -> RouteTable {
        self.graph()
            .nodes()
            .filter_map(|v| {
                self.engine()
                    .node(v)
                    .and_then(|n| n.route_entry_for(dest))
                    .map(|e| (v, e))
            })
            .collect()
    }

    fn all_routes_correct(&self) -> bool {
        ReferenceMultiSimulationExt::destinations(self)
            .iter()
            .all(|&d| self.route_table_for(d).is_correct(self.graph(), d))
    }

    fn corrupt_instance_distance(&mut self, node: NodeId, dest: NodeId, d: Distance) {
        self.engine_mut().with_node_mut(node, |n| {
            if let Some(i) = n.instance_mut(dest) {
                i.state_mut().d = d;
            }
        });
    }

    fn corrupt_all_instances(
        &mut self,
        node: NodeId,
        mut f: impl FnMut(NodeId) -> (Distance, NodeId),
    ) {
        let dests = ReferenceMultiSimulationExt::destinations(self);
        self.engine_mut().with_node_mut(node, |n| {
            for dest in dests {
                if let Some(i) = n.instance_mut(dest) {
                    let (d, p) = f(dest);
                    let s = i.state_mut();
                    s.d = d;
                    s.p = p;
                }
            }
        });
    }
}
