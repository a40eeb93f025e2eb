//! Distributed Bellman-Ford ("existing distance-vector routing
//! protocols", §IV-B).
//!
//! Each node keeps `(d.v, p.v)` and mirrors of its neighbors' advertised
//! distances. One guarded action recomputes the route from the mirrors:
//!
//! ```text
//! B1 :: (d.v, p.v) ≠ bellman_ford(mirrors)  --hold-->
//!       (d.v, p.v) := bellman_ford(mirrors); broadcast d.v
//! ```
//!
//! `bellman_ford` picks the neighbor minimizing `d.k.v + w.v.k` (ties by
//! id); distances at or above the RIP-style `infinity` bound collapse to
//! `∞` so count-to-infinity terminates. The destination pins `(0, self)`.
//!
//! This is exactly the dynamics of the paper's Figure 2: a corrupted-small
//! distance is adopted by downstream neighbors at the same speed at which
//! its owner corrects it, so the corruption races ahead until it falls off
//! the leaves of the routing tree.

use lsrp_graph::shortest_path::ShortestPaths;
use lsrp_graph::{Distance, Graph, NodeId, RouteTable, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, ForgedAdvert, HarnessProtocol,
    NeighborTable, ProtocolNode, SimHarness,
};

use crate::{clamped_offer, BaselineSimulation};

/// Configuration for [`DbfNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbfConfig {
    /// Guard hold-time of the update action — comparable to LSRP's `hd_S`
    /// (both model a BGP-MRAI-style advertisement interval).
    pub hold: f64,
    /// RIP-style bounded infinity: any computed distance `>= infinity`
    /// becomes `∞`. RIP uses 16 hops; we default to 64 (weighted metrics).
    pub infinity: u64,
    /// Optional periodic re-advertisement (like RIP's 30s updates);
    /// required for recovery from mirror corruption.
    pub syn_period: Option<f64>,
}

impl Default for DbfConfig {
    fn default() -> Self {
        DbfConfig {
            hold: 17.0, // LSRP's paper-example hd_S, for fair comparisons
            infinity: 64,
            syn_period: None,
        }
    }
}

impl DbfConfig {
    /// The default configuration with the bounded infinity raised just
    /// past the farthest node's true distance from `destination` (and
    /// left alone where the default already clears it). DBF clamps any
    /// distance `>= infinity` to `∞`, so under the default 64 every node
    /// 64 or more from the destination (a 33x33 grid has some) would be
    /// routeless in DBF's own legitimate state.
    pub fn for_graph(graph: &Graph, destination: NodeId) -> Self {
        let farthest = ShortestPaths::dijkstra(graph, destination)
            .iter()
            .filter_map(|(_, d)| d.as_finite())
            .max()
            .unwrap_or(0);
        let default = DbfConfig::default();
        DbfConfig {
            infinity: default.infinity.max(farthest + 1),
            ..default
        }
    }
}

/// The message: the sender's advertised distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbfMsg {
    /// Advertised distance to the destination.
    pub d: Distance,
}

/// Action tag of the single update action.
pub const B1: ActionId = ActionId::plain(0);
/// Action tag of the periodic re-advertisement.
pub const SYN: ActionId = ActionId::plain(1);

/// One distributed Bellman-Ford node.
#[derive(Debug, Clone, PartialEq)]
pub struct DbfNode {
    /// Node id.
    pub id: NodeId,
    /// Destination id.
    pub dest: NodeId,
    /// Current distance (`d.v`).
    pub d: Distance,
    /// Current next-hop (`p.v`); self when routeless.
    pub p: NodeId,
    /// Local-clock time of the last broadcast.
    pub t_last: f64,
    /// Neighbor weights and mirrors of their advertised distances.
    pub neighbors: NeighborTable<Distance>,
    config: DbfConfig,
}

impl DbfNode {
    /// Creates a node with the given initial route and nothing heard.
    pub fn new(
        id: NodeId,
        dest: NodeId,
        d: Distance,
        p: NodeId,
        neighbors: &[(NodeId, Weight)],
        config: DbfConfig,
    ) -> Self {
        DbfNode {
            id,
            dest,
            d,
            p,
            t_last: 0.0,
            neighbors: NeighborTable::new(neighbors.iter().copied()),
            config,
        }
    }

    /// The distance neighbor `k` offers (`∞` if unheard or not a
    /// neighbor), clamped by the bounded infinity.
    pub fn offer(&self, k: NodeId) -> Distance {
        self.neighbors.get(k).map_or(Distance::Infinite, |n| {
            clamped_offer(n, self.config.infinity)
        })
    }

    /// The Bellman-Ford target `(d, p)` given current mirrors. Ties keep
    /// the current next-hop (standard distance-vector behavior — switching
    /// on equal cost would flap routes).
    pub fn target(&self) -> (Distance, NodeId) {
        if self.id == self.dest {
            return (Distance::ZERO, self.id);
        }
        let best = self
            .neighbors
            .rows()
            .iter()
            .map(|n| (clamped_offer(n, self.config.infinity), n.id))
            .min()
            .filter(|(o, _)| !o.is_infinite());
        match best {
            Some((o, _)) if self.offer(self.p) == o => (o, self.p),
            Some((o, k)) => (o, k),
            None => (Distance::Infinite, self.id),
        }
    }
}

impl ProtocolNode for DbfNode {
    type Msg = DbfMsg;

    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut set);
        set
    }

    fn enabled_actions_into(&self, now_local: f64, set: &mut EnabledSet) {
        if self.target() != (self.d, self.p) {
            set.enable(B1, self.config.hold);
        }
        if let Some(period) = self.config.syn_period {
            if self.t_last + period <= now_local || self.t_last > now_local {
                set.enable(SYN, 0.0);
            } else {
                set.wake_at(self.t_last + period);
            }
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<DbfMsg>) {
        match action {
            B1 => {
                let (d, p) = self.target();
                if (d, p) != (self.d, self.p) {
                    self.d = d;
                    self.p = p;
                    fx.note_var_change();
                }
                self.t_last = now_local;
                fx.broadcast(DbfMsg { d: self.d });
            }
            SYN => {
                self.t_last = now_local;
                fx.broadcast(DbfMsg { d: self.d });
            }
            other => unreachable!("unknown DBF action {other}"),
        }
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &DbfMsg,
        _now_local: f64,
        fx: &mut Effects<DbfMsg>,
    ) {
        if self.neighbors.record(from, &msg.d) {
            fx.note_mirror_change();
        }
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        now_local: f64,
        fx: &mut Effects<DbfMsg>,
    ) {
        if self.neighbors.reconcile(neighbors).joined {
            self.t_last = now_local;
            fx.broadcast(DbfMsg { d: self.d });
        }
    }

    fn route_entry(&self) -> lsrp_graph::RouteEntry {
        lsrp_graph::RouteEntry::new(self.d, self.p)
    }

    fn action_name(action: ActionId) -> &'static str {
        match action {
            B1 => "B1",
            SYN => "SYN",
            _ => "?",
        }
    }

    fn is_maintenance(action: ActionId) -> bool {
        action == SYN
    }
}

impl HarnessProtocol for DbfNode {
    const NAME: &'static str = "DBF";
    type Meta = ();

    fn corrupt_distance(&mut self, d: Distance, _dest: NodeId) {
        self.d = d;
    }

    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, _dest: NodeId) {
        self.neighbors.record(about, &advert.d);
    }

    fn inject_route(&mut self, d: Distance, p: NodeId, _dest: NodeId) {
        self.d = d;
        self.p = p;
        // Make the injected parent look attractive so plain DBF keeps
        // the loop until values count up past it.
        self.neighbors.record(
            p,
            &d.plus(0).as_finite().map_or(Distance::Infinite, |x| {
                Distance::Finite(x.saturating_sub(1))
            }),
        );
    }
}

/// Convenience facade mirroring `lsrp_core::LsrpSimulation` for DBF: the
/// generic harness specialized to [`DbfNode`] (construct it via
/// [`BaselineSimulation::new`]).
pub type DbfSimulation = SimHarness<DbfNode>;

impl BaselineSimulation for DbfSimulation {
    type Config = DbfConfig;

    /// Builds a DBF network starting from the given route table (or the
    /// canonical legitimate one when `None`), with consistent mirrors.
    fn new(
        graph: Graph,
        destination: NodeId,
        initial: Option<RouteTable>,
        config: DbfConfig,
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
            let mut node = DbfNode::new(
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
        DbfSimulation::from_parts(engine, destination, 0.0, ())
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

    fn sim(graph: Graph, dest: NodeId) -> DbfSimulation {
        DbfSimulation::new(
            graph,
            dest,
            None,
            DbfConfig::default(),
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
    fn for_graph_lifts_infinity_past_the_farthest_node_only_when_needed() {
        assert_eq!(
            DbfConfig::for_graph(&generators::grid(4, 4, 1), v(0)),
            DbfConfig::default()
        );
        // A 70-hop path: under the default clamp the last six nodes have
        // no route even in the legitimate state.
        let far = generators::path(70, 1);
        let config = DbfConfig::for_graph(&far, v(0));
        assert_eq!(config.infinity, 70);
        assert_eq!(config.hold, DbfConfig::default().hold);
        let mut s = DbfSimulation::new(far, v(0), None, config, EngineConfig::default());
        assert!(s.run_to_quiescence(1_000.0).quiescent);
        assert!(s.routes_correct());
    }

    #[test]
    fn cold_start_converges() {
        let table: RouteTable = generators::grid(4, 4, 1)
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
        let mut s = DbfSimulation::new(
            generators::grid(4, 4, 1),
            v(0),
            Some(table),
            DbfConfig::default(),
            EngineConfig::default(),
        );
        let report = s.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
    }

    #[test]
    fn corruption_propagates_to_descendants() {
        // On a path 0-1-2-3-4, corrupting d.v1 small drags v2, v3, v4 along
        // (the Figure 2 effect), then everything recovers.
        let mut s = sim(generators::path(5, 1), v(0));
        s.corrupt_distance(v(1), Distance::ZERO);
        s.poison_mirror(v(2), v(1), Distance::ZERO);
        let report = s.run_to_quiescence(10_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        let acted = s.engine().trace().acted_nodes_since(SimTime::ZERO);
        assert!(acted.contains(&v(2)), "v2 adopts the corrupted value");
        assert!(acted.contains(&v(3)), "and passes it to v3");
        assert!(acted.contains(&v(4)), "and to v4");
    }

    #[test]
    fn fail_stop_counts_to_bounded_infinity() {
        // Cutting the only route makes the stranded side count up to the
        // infinity bound and then withdraw.
        let cfg = DbfConfig {
            infinity: 16,
            ..DbfConfig::default()
        };
        let mut s = DbfSimulation::new(
            generators::path(4, 1),
            v(0),
            None,
            cfg,
            EngineConfig::default(),
        );
        s.engine_mut().fail_edge(v(0), v(1)).unwrap();
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        let t = s.route_table();
        for node in [1, 2, 3] {
            assert!(t.entry(v(node)).unwrap().distance.is_infinite());
        }
        // Count-to-infinity: many actions despite the tiny network.
        assert!(s.engine().trace().total_actions() > 10);
    }

    #[test]
    fn destination_is_pinned() {
        let mut s = sim(generators::path(3, 1), v(0));
        s.corrupt_distance(v(0), Distance::Finite(9));
        let report = s.run_to_quiescence(10_000.0);
        assert!(report.quiescent);
        assert_eq!(
            s.route_table().entry(v(0)).unwrap().distance,
            Distance::ZERO
        );
        assert!(s.routes_correct());
    }

    #[test]
    fn offers_clamp_at_infinity_bound() {
        let cfg = DbfConfig {
            infinity: 10,
            ..DbfConfig::default()
        };
        let mut n = DbfNode::new(v(1), v(0), Distance::Finite(3), v(0), &[(v(0), 5)], cfg);
        n.neighbors.record(v(0), &Distance::Finite(6));
        assert!(n.offer(v(0)).is_infinite(), "6 + 5 >= 10 clamps to ∞");
        n.neighbors.record(v(0), &Distance::Finite(4));
        assert_eq!(n.offer(v(0)), Distance::Finite(9));
    }
}
