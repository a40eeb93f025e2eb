//! Path-vector routing ("BGP-lite"): the protocol family of the paper's
//! opening example ("inter-domain routing in the Internet by the Border
//! Gateway Protocol, where faults at some edge routers can propagate
//! across the whole Internet").
//!
//! Each node advertises its full path to the destination; a node only
//! adopts a route whose path does not contain itself, which prevents
//! steady-state loops by construction (like BGP's AS-path check). The
//! update action runs under an MRAI-style hold, comparable to LSRP's
//! `hd_S`.
//!
//! What it does *not* prevent — and what the experiments show — is fault
//! propagation: a corrupted-short path is adopted and re-advertised by the
//! whole downstream network (path exploration), with recovery churning
//! through ever-longer candidate paths exactly like the BGP convergence
//! pathologies of the paper's citations \[1\]\[7\].

use std::collections::BTreeMap;

use lsrp_graph::{Distance, Graph, NodeId, RouteTable, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, ForgedAdvert, HarnessProtocol, Neighbor,
    NeighborTable, ProtocolNode, SimHarness,
};

use crate::BaselineSimulation;

/// Configuration for [`PvNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvConfig {
    /// MRAI-style hold of the update action.
    pub hold: f64,
    /// Maximum advertised path length (like BGP's practical AS-path
    /// limits); longer candidates count as unreachable.
    pub max_path: usize,
}

impl Default for PvConfig {
    fn default() -> Self {
        PvConfig {
            hold: 17.0,
            max_path: 64,
        }
    }
}

/// An advertised route: total weighted distance plus the node path to the
/// destination (most-recent hop first, destination last).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvRoute {
    /// Weighted distance of the advertised path.
    pub d: Distance,
    /// The advertiser's node path to the destination (excluding the
    /// advertiser itself).
    pub path: Vec<NodeId>,
}

impl PvRoute {
    /// The unreachable route.
    pub fn none() -> Self {
        PvRoute {
            d: Distance::Infinite,
            path: Vec::new(),
        }
    }
}

/// The message: the sender's current route.
pub type PvMsg = PvRoute;

/// The single update action.
pub const P1: ActionId = ActionId::plain(0);

/// One path-vector node.
#[derive(Debug, Clone, PartialEq)]
pub struct PvNode {
    /// Node id.
    pub id: NodeId,
    /// Destination id.
    pub dest: NodeId,
    /// Current route (distance + path).
    pub route: PvRoute,
    /// Neighbor weights and mirrors of their advertised routes.
    pub neighbors: NeighborTable<PvRoute>,
    config: PvConfig,
}

impl PvNode {
    /// Creates a node with the given initial route and nothing heard.
    pub fn new(
        id: NodeId,
        dest: NodeId,
        route: PvRoute,
        neighbors: &[(NodeId, Weight)],
        config: PvConfig,
    ) -> Self {
        PvNode {
            id,
            dest,
            route,
            neighbors: NeighborTable::new(neighbors.iter().copied()),
            config,
        }
    }

    /// The route neighbor `n` offers: its advertised route extended by
    /// the connecting edge — `None` when unusable (unknown, too long, or
    /// its path already contains us: the loop-prevention check).
    fn offer(&self, n: &Neighbor<PvRoute>) -> Option<PvRoute> {
        let adv = n.heard.as_ref()?;
        let d = adv.d.plus(n.weight);
        if d.is_infinite()
            || adv.path.len() + 1 > self.config.max_path
            || adv.path.contains(&self.id)
            || n.id == self.id
        {
            return None;
        }
        let mut path = Vec::with_capacity(adv.path.len() + 1);
        path.push(n.id);
        path.extend_from_slice(&adv.path);
        Some(PvRoute { d, path })
    }

    /// The best available route (shortest distance, ties by shorter path
    /// then lower next-hop id).
    fn target(&self) -> PvRoute {
        if self.id == self.dest {
            return PvRoute {
                d: Distance::ZERO,
                path: Vec::new(),
            };
        }
        self.neighbors
            .rows()
            .iter()
            .filter_map(|n| self.offer(n))
            .min_by(|a, b| {
                a.d.cmp(&b.d)
                    .then(a.path.len().cmp(&b.path.len()))
                    .then(a.path.first().cmp(&b.path.first()))
            })
            .unwrap_or_else(PvRoute::none)
    }
}

impl ProtocolNode for PvNode {
    type Msg = PvMsg;

    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut set);
        set
    }

    fn enabled_actions_into(&self, _now_local: f64, set: &mut EnabledSet) {
        if self.target() != self.route {
            set.enable(P1, self.config.hold);
        }
    }

    fn execute(&mut self, action: ActionId, _now_local: f64, fx: &mut Effects<PvMsg>) {
        debug_assert_eq!(action, P1);
        let t = self.target();
        if t != self.route {
            self.route = t;
            fx.note_var_change();
        }
        fx.broadcast(self.route.clone());
    }

    fn on_receive(&mut self, from: NodeId, msg: &PvMsg, _now_local: f64, fx: &mut Effects<PvMsg>) {
        if self.neighbors.record(from, msg) {
            fx.note_mirror_change();
        }
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        fx: &mut Effects<PvMsg>,
    ) {
        if self.neighbors.reconcile(neighbors).joined {
            fx.broadcast(self.route.clone());
        }
    }

    fn route_entry(&self) -> lsrp_graph::RouteEntry {
        let parent = self.route.path.first().copied().unwrap_or(self.id);
        lsrp_graph::RouteEntry::new(self.route.d, parent)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "P1"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

impl HarnessProtocol for PvNode {
    const NAME: &'static str = "PV";
    type Meta = ();

    fn corrupt_distance(&mut self, d: Distance, dest: NodeId) {
        // A bogus short route claiming direct adjacency to the
        // destination (the classic hijack).
        self.route = PvRoute {
            d,
            path: if self.id == dest {
                Vec::new()
            } else {
                vec![dest]
            },
        };
    }

    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, dest: NodeId) {
        self.neighbors.record(
            about,
            &PvRoute {
                d: advert.d,
                path: if about == dest {
                    Vec::new()
                } else {
                    vec![dest]
                },
            },
        );
    }

    fn inject_route(&mut self, d: Distance, p: NodeId, dest: NodeId) {
        // A path-vector "loop injection": the route claims to go through
        // `p` straight to the destination. The path check then prevents
        // *new* loops, but the injected parent pointers themselves stand
        // until updates flush them.
        self.route = PvRoute {
            d,
            path: if p == dest { vec![dest] } else { vec![p, dest] },
        };
    }
}

/// Convenience facade for path-vector networks.
pub type PvSimulation = SimHarness<PvNode>;

impl BaselineSimulation for PvSimulation {
    type Config = PvConfig;

    /// Builds a path-vector network at the legitimate state implied by the
    /// given route table (paths reconstructed by following parents), with
    /// consistent mirrors.
    fn new(
        graph: Graph,
        destination: NodeId,
        initial: Option<RouteTable>,
        config: PvConfig,
        engine_config: EngineConfig,
    ) -> Self {
        assert!(
            graph.has_node(destination),
            "destination {destination} is not in the graph"
        );
        let table = initial.unwrap_or_else(|| RouteTable::legitimate(&graph, destination));
        // Reconstruct each node's full path by walking parents.
        let mut paths: BTreeMap<NodeId, PvRoute> = BTreeMap::new();
        for v in graph.nodes() {
            let Some(e) = table.entry(v) else {
                paths.insert(v, PvRoute::none());
                continue;
            };
            if v == destination {
                paths.insert(
                    v,
                    PvRoute {
                        d: Distance::ZERO,
                        path: Vec::new(),
                    },
                );
                continue;
            }
            if e.distance.is_infinite() {
                paths.insert(v, PvRoute::none());
                continue;
            }
            let mut path = Vec::new();
            let mut at = v;
            let mut ok = false;
            for _ in 0..graph.node_count() {
                let Some(entry) = table.entry(at) else { break };
                if at == destination {
                    ok = true;
                    break;
                }
                path.push(entry.parent);
                at = entry.parent;
            }
            if at == destination {
                ok = true;
            }
            paths.insert(
                v,
                if ok {
                    PvRoute {
                        d: e.distance,
                        path,
                    }
                } else {
                    PvRoute::none()
                },
            );
        }
        let engine = Engine::new(graph, engine_config, move |id, neighbors| {
            let route = paths.get(&id).cloned().unwrap_or_else(PvRoute::none);
            let mut node = PvNode::new(id, destination, route, neighbors, config);
            node.neighbors
                .fill(|k| paths.get(&k).cloned().unwrap_or_else(PvRoute::none));
            node
        });
        PvSimulation::from_parts(engine, destination, 0.0, ())
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

    fn sim(graph: Graph, dest: NodeId) -> PvSimulation {
        PvSimulation::new(
            graph,
            dest,
            None,
            PvConfig::default(),
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
    fn paths_are_consistent_at_start() {
        let s = sim(generators::path(4, 2), v(0));
        let n3 = s.engine().node(v(3)).unwrap();
        assert_eq!(n3.route.d, Distance::Finite(6));
        assert_eq!(n3.route.path, vec![v(2), v(1), v(0)]);
    }

    #[test]
    fn hijack_propagates_then_recovers() {
        let mut s = sim(generators::path(6, 1), v(0));
        s.corrupt_distance(v(1), Distance::ZERO);
        s.poison_mirror(v(2), v(1), Distance::ZERO);
        let report = s.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(s.routes_correct());
        let acted = s.engine().trace().acted_nodes_since(SimTime::ZERO);
        for node in [2, 3, 4, 5] {
            assert!(acted.contains(&v(node)), "v{node} must be contaminated");
        }
    }

    #[test]
    fn loop_prevention_rejects_paths_through_self() {
        let mut n = PvNode::new(
            v(1),
            v(0),
            PvRoute::none(),
            &[(v(2), 1)],
            PvConfig::default(),
        );
        // v2 advertises a path THROUGH v1: must be rejected.
        n.neighbors.record(
            v(2),
            &PvRoute {
                d: Distance::Finite(3),
                path: vec![v(1), v(0)],
            },
        );
        assert_eq!(n.target(), PvRoute::none());
        // A clean path is accepted.
        n.neighbors.record(
            v(2),
            &PvRoute {
                d: Distance::Finite(3),
                path: vec![v(3), v(0)],
            },
        );
        let t = n.target();
        assert_eq!(t.d, Distance::Finite(4));
        assert_eq!(t.path, vec![v(2), v(3), v(0)]);
    }

    #[test]
    fn disconnection_withdraws_without_counting() {
        // Path exploration is bounded by the path-containment check: no
        // count-to-infinity, unlike plain DBF.
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
    }

    #[test]
    fn never_loops_at_rest() {
        // After any single corruption, the settled table is loop-free by
        // the path check.
        for seed in 0..5 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let graph = generators::connected_erdos_renyi(14, 0.1, 3, &mut rng);
            let mut s = PvSimulation::new(
                graph.clone(),
                v(0),
                None,
                PvConfig::default(),
                EngineConfig::default().with_seed(seed),
            );
            let victim = v(rng.gen_range(1..14));
            s.corrupt_distance(victim, Distance::ZERO);
            let ns: Vec<NodeId> = graph.neighbors(victim).map(|(k, _)| k).collect();
            for k in ns {
                s.poison_mirror(k, victim, Distance::ZERO);
            }
            let report = s.run_to_quiescence(1_000_000.0);
            assert!(report.quiescent);
            assert!(s.routes_correct(), "seed {seed}");
            assert!(!s.route_table().has_routing_loop(v(0)));
        }
    }
}
