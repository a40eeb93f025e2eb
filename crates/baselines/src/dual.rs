//! DUAL-lite: a diffusing-update loop-free distance-vector protocol in the
//! style of DUAL (Garcia-Luna-Aceves, ToN 1993), the paper's second
//! comparator class.
//!
//! Implemented faithfully in spirit for a single destination:
//!
//! * **Feasibility (Source Node Condition):** a node only switches its
//!   successor to a neighbor whose advertised distance is strictly below
//!   the node's *feasible distance* `fd` — the classic loop-avoidance
//!   invariant.
//! * **Diffusing computations:** when the route through the current
//!   successor worsens and no feasible successor exists, the node freezes
//!   (goes *active*), queries all neighbors, and only re-routes once every
//!   neighbor has replied; queries received from one's own successor while
//!   active are answered after the local diffusion completes, which is how
//!   the computation diffuses.
//!
//! Simplifications versus full EIGRP-DUAL (documented per DESIGN.md §2):
//! one destination; no split horizon; a single outstanding diffusion per
//! node (re-evaluation is deferred until it completes); and a
//! stuck-in-active timeout (real routers have the same escape hatch),
//! which also rescues the protocol from corrupted active states.
//!
//! The paper's claims reproduced against this protocol: corrupted-small
//! distances are *feasible* and therefore propagate globally exactly as in
//! plain distance-vector routing, and breaking an existing loop costs a
//! diffusing computation that walks the loop, i.e. time proportional to
//! loop length (experiment E9).

use std::collections::BTreeSet;

use lsrp_graph::{Distance, Graph, NodeId, RouteTable, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, ForgedAdvert, HarnessProtocol,
    NeighborTable, ProtocolNode, SimHarness,
};

use crate::{clamped_offer, BaselineSimulation};

/// Configuration for [`DualNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualConfig {
    /// Guard hold-time of the local-computation action (comparable to
    /// LSRP's `hd_S` and DBF's hold).
    pub hold: f64,
    /// Bounded infinity (distances at or above collapse to `∞`).
    pub infinity: u64,
    /// Stuck-in-active timeout, in local-clock seconds.
    pub active_timeout: f64,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            hold: 17.0,
            infinity: 64,
            active_timeout: 600.0,
        }
    }
}

/// DUAL-lite messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualMsg {
    /// Advertise a new distance.
    Update(Distance),
    /// Start/propagate a diffusing computation; carries the sender's
    /// (worsened) distance.
    Query(Distance),
    /// Answer a query; carries the sender's distance.
    Reply(Distance),
}

/// The local computation action.
pub const D1: ActionId = ActionId::plain(0);

/// Bookkeeping of an in-progress diffusing computation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActiveState {
    /// Neighbors whose reply is still outstanding.
    pub pending: BTreeSet<NodeId>,
    /// Local-clock time the diffusion started (for the SIA timeout).
    pub started_local_ms: u64,
}

/// One DUAL-lite node. Fields are public: the fault model includes
/// arbitrary state corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct DualNode {
    /// Node id.
    pub id: NodeId,
    /// Destination id.
    pub dest: NodeId,
    /// Current distance.
    pub d: Distance,
    /// Feasible distance (the loop-avoidance watermark).
    pub fd: Distance,
    /// Current successor (self when routeless).
    pub succ: NodeId,
    /// Neighbor weights and mirrors of their advertised distances.
    pub neighbors: NeighborTable<Distance>,
    /// `Some` while a diffusing computation is in progress.
    pub active: Option<ActiveState>,
    /// Queries owed a reply once we are passive with a settled route.
    pub owed_replies: BTreeSet<NodeId>,
    config: DualConfig,
}

impl DualNode {
    /// Creates a passive node with the given initial route and nothing
    /// heard.
    pub fn new(
        id: NodeId,
        dest: NodeId,
        d: Distance,
        succ: NodeId,
        neighbors: &[(NodeId, Weight)],
        config: DualConfig,
    ) -> Self {
        DualNode {
            id,
            dest,
            d,
            fd: d,
            succ,
            neighbors: NeighborTable::new(neighbors.iter().copied()),
            active: None,
            owed_replies: BTreeSet::new(),
            config,
        }
    }

    /// The clamped distance neighbor `k` offers.
    pub fn offer(&self, k: NodeId) -> Distance {
        self.neighbors.get(k).map_or(Distance::Infinite, |n| {
            clamped_offer(n, self.config.infinity)
        })
    }

    /// Best neighbor satisfying the Source Node Condition
    /// (`advertised < fd`), by offered distance then id.
    fn best_feasible(&self) -> Option<(Distance, NodeId)> {
        self.neighbors
            .rows()
            .iter()
            .filter(|n| n.heard.unwrap_or(Distance::Infinite) < self.fd)
            .map(|n| (clamped_offer(n, self.config.infinity), n.id))
            .filter(|(o, _)| !o.is_infinite())
            .min()
    }

    /// Best neighbor regardless of feasibility.
    fn best_any(&self) -> Option<(Distance, NodeId)> {
        self.neighbors
            .rows()
            .iter()
            .map(|n| (clamped_offer(n, self.config.infinity), n.id))
            .filter(|(o, _)| !o.is_infinite())
            .min()
    }

    /// Whether the passive local computation has anything to do.
    fn needs_work(&self) -> bool {
        if self.active.is_some() {
            return false;
        }
        if self.id == self.dest {
            return self.d != Distance::ZERO || self.succ != self.id;
        }
        if !self.owed_replies.is_empty() {
            return true;
        }
        // Re-route if a feasible successor strictly improves on the
        // current distance, or if the route via the current successor no
        // longer matches our advertised distance.
        if let Some((o, k)) = self.best_feasible() {
            if o < self.d || (self.d != self.offer(self.succ) && k == self.succ) {
                return true;
            }
        }
        self.d != self.offer(self.succ) && self.d != Distance::Infinite
            || (self.d.is_infinite() && self.best_feasible().is_some())
    }

    fn finish_diffusion(&mut self, fx: &mut Effects<DualMsg>) {
        // Feasible distance resets: choose the best route freely.
        self.active = None;
        self.fd = Distance::Infinite;
        let (d, succ) = match self.best_any() {
            Some((o, k)) => (o, k),
            None => (Distance::Infinite, self.id),
        };
        if self.id == self.dest {
            self.set_route(Distance::ZERO, self.id, Distance::ZERO, fx);
        } else {
            self.set_route(d, succ, d, fx);
        }
        self.flush_owed(fx);
        fx.broadcast(DualMsg::Update(self.d));
    }

    fn set_route(&mut self, d: Distance, succ: NodeId, fd: Distance, fx: &mut Effects<DualMsg>) {
        if self.d != d || self.succ != succ {
            fx.note_var_change();
        }
        self.d = d;
        self.succ = succ;
        self.fd = fd;
    }

    fn flush_owed(&mut self, fx: &mut Effects<DualMsg>) {
        let owed = std::mem::take(&mut self.owed_replies);
        for k in owed {
            if self.neighbors.get(k).is_some() {
                fx.send_to(k, DualMsg::Reply(self.d));
            }
        }
    }

    fn go_active(&mut self, now_local: f64, fx: &mut Effects<DualMsg>) {
        // Freeze on the (worsened) route via the current successor and
        // diffuse a query.
        let via_succ = self.offer(self.succ);
        if self.d != via_succ {
            fx.note_var_change();
        }
        self.d = via_succ;
        self.fd = self.fd.min(via_succ);
        let pending: BTreeSet<NodeId> = self.neighbors.rows().iter().map(|n| n.id).collect();
        if pending.is_empty() {
            // No one to ask: equivalent to an instantly-finished diffusion.
            self.active = Some(ActiveState::default());
            self.finish_diffusion(fx);
            return;
        }
        self.active = Some(ActiveState {
            pending,
            started_local_ms: (now_local * 1_000.0) as u64,
        });
        fx.broadcast(DualMsg::Query(self.d));
    }
}

impl ProtocolNode for DualNode {
    type Msg = DualMsg;

    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut set);
        set
    }

    fn enabled_actions_into(&self, now_local: f64, set: &mut EnabledSet) {
        match &self.active {
            Some(a) => {
                // Stuck-in-active escape: wake up at the timeout.
                let deadline = a.started_local_ms as f64 / 1_000.0 + self.config.active_timeout;
                if now_local >= deadline {
                    set.enable(D1, 0.0);
                } else {
                    set.wake_at(deadline);
                }
            }
            None => {
                if self.needs_work() {
                    set.enable(D1, self.config.hold);
                }
            }
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<DualMsg>) {
        debug_assert_eq!(action, D1);
        if self.active.is_some() {
            // Only reachable via the SIA timeout.
            self.finish_diffusion(fx);
            return;
        }
        if self.id == self.dest {
            self.set_route(Distance::ZERO, self.id, Distance::ZERO, fx);
            self.flush_owed(fx);
            fx.broadcast(DualMsg::Update(self.d));
            return;
        }
        match self.best_feasible() {
            Some((o, k)) if o <= self.d || self.d.is_infinite() => {
                // A feasible successor no worse than the current route.
                let fd = self.fd.min(o);
                let changed = self.d != o;
                self.set_route(o, k, fd, fx);
                self.flush_owed(fx);
                if changed {
                    fx.broadcast(DualMsg::Update(self.d));
                }
            }
            _ => {
                if self.best_any().is_none() {
                    // Nothing reachable at all: withdraw.
                    let changed = !self.d.is_infinite();
                    self.set_route(Distance::Infinite, self.id, Distance::Infinite, fx);
                    self.flush_owed(fx);
                    if changed {
                        fx.broadcast(DualMsg::Update(self.d));
                    }
                } else {
                    self.go_active(now_local, fx);
                }
            }
        }
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &DualMsg,
        _now_local: f64,
        fx: &mut Effects<DualMsg>,
    ) {
        if self.neighbors.get(from).is_none() {
            return;
        }
        let (DualMsg::Update(d) | DualMsg::Query(d) | DualMsg::Reply(d)) = *msg;
        if self.neighbors.record(from, &d) {
            fx.note_mirror_change();
        }
        match *msg {
            DualMsg::Update(_) => {}
            DualMsg::Query(_) => {
                if self.id == self.dest {
                    fx.send_to(from, DualMsg::Reply(Distance::ZERO));
                } else if self.active.is_some() {
                    // An *active* node replies immediately with its frozen
                    // distance, whoever asks — this is what keeps chained
                    // diffusing computations deadlock-free in DUAL.
                    fx.send_to(from, DualMsg::Reply(self.d));
                } else if from == self.succ {
                    // Passive, and our own route is in question: answer
                    // only once we have settled (this is what diffuses the
                    // computation).
                    self.owed_replies.insert(from);
                } else {
                    fx.send_to(from, DualMsg::Reply(self.d));
                }
            }
            DualMsg::Reply(_) => {
                let finished = match &mut self.active {
                    Some(a) => {
                        a.pending.remove(&from);
                        a.pending.is_empty()
                    }
                    None => false,
                };
                if finished {
                    self.finish_diffusion(fx);
                }
            }
        }
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        fx: &mut Effects<DualMsg>,
    ) {
        let joined = self.neighbors.reconcile(neighbors).joined;
        let table = &self.neighbors;
        self.owed_replies.retain(|&k| table.get(k).is_some());
        let finished = match &mut self.active {
            Some(a) => {
                a.pending.retain(|&k| table.get(k).is_some());
                a.pending.is_empty()
            }
            None => false,
        };
        if finished {
            self.finish_diffusion(fx);
        }
        if joined {
            fx.broadcast(DualMsg::Update(self.d));
        }
    }

    fn route_entry(&self) -> lsrp_graph::RouteEntry {
        lsrp_graph::RouteEntry::new(self.d, self.succ)
    }

    fn in_containment(&self) -> bool {
        // Active nodes are frozen, the closest analogue for metrics.
        self.active.is_some()
    }

    fn action_name(_action: ActionId) -> &'static str {
        "D1"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

impl HarnessProtocol for DualNode {
    const NAME: &'static str = "DUAL";
    type Meta = ();

    fn corrupt_distance(&mut self, d: Distance, _dest: NodeId) {
        // Keep `fd` consistent with the corrupted value, the worst case
        // for containment: the corruption is feasible.
        self.d = d;
        self.fd = d;
    }

    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, _dest: NodeId) {
        self.neighbors.record(about, &advert.d);
    }

    fn inject_route(&mut self, d: Distance, p: NodeId, _dest: NodeId) {
        self.d = d;
        self.succ = p;
        self.fd = d;
    }
}

/// Convenience facade mirroring `lsrp_core::LsrpSimulation` for
/// DUAL-lite.
pub type DualSimulation = SimHarness<DualNode>;

impl BaselineSimulation for DualSimulation {
    type Config = DualConfig;

    /// Builds a DUAL network starting from the given route table (or the
    /// canonical legitimate one), with consistent mirrors and `fd = d`.
    fn new(
        graph: Graph,
        destination: NodeId,
        initial: Option<RouteTable>,
        config: DualConfig,
        engine_config: EngineConfig,
    ) -> Self {
        assert!(
            graph.has_node(destination),
            "destination {destination} is not in the graph"
        );
        let table = initial.unwrap_or_else(|| RouteTable::legitimate(&graph, destination));
        let engine = Engine::new(graph, engine_config, move |id, neighbors| {
            let entry = table
                .entry(id)
                .unwrap_or_else(|| lsrp_graph::RouteEntry::no_route(id));
            let mut node = DualNode::new(
                id,
                destination,
                entry.distance,
                entry.parent,
                neighbors,
                config,
            );
            node.neighbors
                .fill(|k| table.entry(k).map_or(Distance::Infinite, |e| e.distance));
            node
        });
        DualSimulation::from_parts(engine, destination, 0.0, ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::generators;
    use lsrp_sim::SimTime;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sim(graph: Graph, dest: NodeId) -> DualSimulation {
        DualSimulation::new(
            graph,
            dest,
            None,
            DualConfig::default(),
            EngineConfig::default(),
        )
    }

    #[test]
    fn legitimate_start_is_quiescent() {
        let mut s = sim(generators::grid(4, 4, 1), v(0));
        let report = s.run_to_quiescence(1_000.0);
        assert!(report.quiescent);
        assert_eq!(s.engine().trace().total_actions(), 0);
        assert!(s.routes_correct());
    }

    #[test]
    fn cold_start_converges() {
        let g = generators::grid(4, 4, 1);
        let table: RouteTable = g
            .nodes()
            .map(|n| {
                let e = if n == v(0) {
                    lsrp_graph::RouteEntry::new(Distance::ZERO, v(0))
                } else {
                    lsrp_graph::RouteEntry::no_route(n)
                };
                (n, e)
            })
            .collect();
        let mut s = DualSimulation::new(
            g,
            v(0),
            Some(table),
            DualConfig::default(),
            EngineConfig::default(),
        );
        let report = s.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
    }

    #[test]
    fn link_failure_triggers_diffusing_recovery() {
        // Ring: failing one destination edge forces the stranded arc to
        // re-route the long way around — via diffusing computations, and
        // without ever counting to infinity.
        let mut s = sim(generators::ring(8, 1), v(0));
        s.engine_mut().fail_edge(v(0), v(1)).unwrap();
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        let t = s.route_table();
        assert_eq!(t.entry(v(1)).unwrap().distance, Distance::Finite(7));
    }

    #[test]
    fn disconnection_withdraws_without_count_to_infinity() {
        let mut s = sim(generators::path(5, 1), v(0));
        s.engine_mut().fail_edge(v(0), v(1)).unwrap();
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        for node in [1, 2, 3, 4] {
            assert!(s
                .route_table()
                .entry(v(node))
                .unwrap()
                .distance
                .is_infinite());
        }
        // DUAL withdraws in O(diameter) actions, unlike DBF's count-up.
        assert!(s.engine().trace().total_actions() < 30);
    }

    #[test]
    fn corrupted_small_distance_is_feasible_and_propagates() {
        // The paper's §I/§IV-B claim about DUAL: a corrupted-small value
        // passes the feasibility check and contaminates downstream nodes.
        let mut s = sim(generators::path(6, 1), v(0));
        s.corrupt_distance(v(1), Distance::ZERO);
        s.poison_mirror(v(2), v(1), Distance::ZERO);
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        let acted = s.engine().trace().acted_nodes_since(SimTime::ZERO);
        for node in [2, 3, 4, 5] {
            assert!(
                acted.contains(&v(node)),
                "v{node} must be contaminated; acted = {acted:?}"
            );
        }
    }

    #[test]
    fn weight_increase_goes_active_then_settles() {
        let mut s = sim(generators::path(4, 1), v(0));
        s.engine_mut().set_weight(v(0), v(1), 10).unwrap();
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        assert_eq!(
            s.route_table().entry(v(3)).unwrap().distance,
            Distance::Finite(12)
        );
    }

    #[test]
    fn stuck_in_active_times_out() {
        let cfg = DualConfig {
            active_timeout: 50.0,
            ..DualConfig::default()
        };
        let mut s = DualSimulation::new(
            generators::path(3, 1),
            v(0),
            None,
            cfg,
            EngineConfig::default(),
        );
        // Corrupt v1 straight into a bogus active state whose pending set
        // names a neighbor that will never reply (v0 is not even queried).
        s.engine_mut().with_node_mut(v(1), |n| {
            n.active = Some(ActiveState {
                pending: BTreeSet::from([v(0)]),
                started_local_ms: 0,
            });
        });
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        assert!(report.last_effective >= SimTime::new(50.0));
    }
}
