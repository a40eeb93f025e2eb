//! High-level simulation facade: build an LSRP network, run it, poke it
//! with faults, and inspect the outcome.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsrp_graph::{Distance, Graph, NodeId, RouteTable};
use lsrp_sim::{Engine, EngineConfig, SimHarness};

use crate::legitimacy;
use crate::protocol::LsrpNode;
use crate::state::{LsrpState, Mirror};
use crate::timing::TimingConfig;

/// A running LSRP network: the generic harness specialized to LSRP, with
/// the wave timing as its metadata. LSRP-specific conveniences live in
/// [`LsrpSimulationExt`].
pub type LsrpSimulation = SimHarness<LsrpNode>;

/// How node states are initialized.
#[derive(Debug, Clone)]
pub enum InitialState {
    /// Start at a canonical legitimate state (Dijkstra distances, smallest-
    /// id parents, consistent mirrors). The usual baseline for fault
    /// injection.
    Legitimate,
    /// Start at a *specific* legitimate (or deliberately illegitimate)
    /// route table with consistent mirrors — e.g. the paper's Figure 1
    /// chosen tree.
    Table(RouteTable),
    /// Cold start: the destination knows itself, everyone else has no
    /// route; mirrors are consistent (as after a hello exchange).
    Fresh,
    /// Fully arbitrary state — random distances, parents, containment
    /// flags, timestamps and mirrors — the Theorem 1 setting. Pair with a
    /// `SYN` period so corrupted mirrors self-stabilize.
    Arbitrary {
        /// Seed for the randomized state (independent of the engine seed).
        seed: u64,
    },
}

/// Builder for [`LsrpSimulation`].
#[derive(Debug, Clone)]
pub struct LsrpSimulationBuilder {
    graph: Graph,
    destination: NodeId,
    timing: TimingConfig,
    timing_unchecked: bool,
    engine: EngineConfig,
    initial: InitialState,
}

impl LsrpSimulationBuilder {
    /// Sets wave timing (default: [`TimingConfig::paper_example`] with the
    /// engine's max link delay as `u`).
    #[must_use]
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Sets wave timing *without* `build()`'s wave-speed validation.
    ///
    /// This exists for the adversarial harness: deliberately
    /// misconfigured waves (e.g. a containment hold time at or above the
    /// stabilization hold time) break the paper's containment guarantees,
    /// and the invariant monitors are expected to catch that. Production
    /// configurations should go through [`timing`](Self::timing).
    #[must_use]
    pub fn timing_unchecked(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self.timing_unchecked = true;
        self
    }

    /// Sets the engine configuration (links, clocks, seed).
    #[must_use]
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Sets the initial protocol state.
    #[must_use]
    pub fn initial_state(mut self, initial: InitialState) -> Self {
        self.initial = initial;
        self
    }

    /// Shortcut for setting the engine seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the timing violates the wave-speed constraints for the
    /// configured clock drift and link delay, or if the destination is not
    /// a node of the graph.
    pub fn build(self) -> LsrpSimulation {
        assert!(
            self.graph.has_node(self.destination),
            "destination {} is not in the graph",
            self.destination
        );
        if !self.timing_unchecked {
            self.timing
                .validate(self.engine.clocks.rho(), self.engine.link.delay_max)
                .expect("LSRP timing must satisfy the wave-speed constraints");
        }

        let mut states = initial_states(&self.graph, self.destination, &self.initial);
        let timing = self.timing;
        let destination = self.destination;
        let engine = Engine::new(self.graph, self.engine, move |id, neighbors| {
            // Prepared states were built from this same graph; a node
            // (re)joining later starts fresh.
            let state = states
                .remove(&id)
                .unwrap_or_else(|| LsrpState::fresh(id, destination, neighbors.iter().copied()));
            LsrpNode::new(state, timing)
        });
        // Settle window for quiescence detection: zero without a `SYN`
        // period (the event queue drains), else long enough that periodic
        // refreshes changing nothing cannot keep the run alive.
        let settle = match timing.syn_period {
            Some(p) => 2.0 * p + 1.0,
            None => 0.0,
        };
        LsrpSimulation::from_parts(engine, destination, settle, timing)
    }
}

fn initial_states(
    graph: &Graph,
    destination: NodeId,
    initial: &InitialState,
) -> BTreeMap<NodeId, LsrpState> {
    let table = match initial {
        InitialState::Legitimate => Some(RouteTable::legitimate(graph, destination)),
        InitialState::Table(t) => Some(t.clone()),
        InitialState::Fresh => None,
        InitialState::Arbitrary { seed } => {
            return arbitrary_states(graph, destination, *seed);
        }
    };
    let mut states = BTreeMap::new();
    for v in graph.nodes() {
        let mut s = LsrpState::fresh(v, destination, graph.neighbors(v));
        if let Some(t) = &table {
            if let Some(e) = t.entry(v) {
                s.d = e.distance;
                s.p = e.parent;
            }
        }
        states.insert(v, s);
    }
    // Consistent mirrors: every node knows its neighbors' actual values.
    let snapshot: BTreeMap<NodeId, Mirror> = states
        .iter()
        .map(|(&v, s)| {
            (
                v,
                Mirror {
                    d: s.d,
                    p: s.p,
                    ghost: s.ghost,
                },
            )
        })
        .collect();
    for s in states.values_mut() {
        s.neighbors.fill(|k| snapshot[&k]);
    }
    states
}

fn arbitrary_states(graph: &Graph, destination: NodeId, seed: u64) -> BTreeMap<NodeId, LsrpState> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<NodeId> = graph.nodes().collect();
    let max_d = (graph.node_count() as u64) * 2 + 4;
    let random_distance = |rng: &mut StdRng| -> Distance {
        if rng.gen_bool(0.1) {
            Distance::Infinite
        } else {
            Distance::Finite(rng.gen_range(0..=max_d))
        }
    };
    let mut states = BTreeMap::new();
    for v in graph.nodes() {
        let mut s = LsrpState::fresh(v, destination, graph.neighbors(v));
        let degree = s.neighbors.rows().len();
        s.d = random_distance(&mut rng);
        s.p = {
            let roll: f64 = rng.gen();
            if roll < 0.7 && degree > 0 {
                s.neighbors.rows()[rng.gen_range(0..degree)].id
            } else if roll < 0.9 {
                v
            } else {
                all[rng.gen_range(0..all.len())]
            }
        };
        s.ghost = rng.gen_bool(0.15);
        s.t_last = rng.gen_range(0.0..1_000.0);
        s.neighbors.fill(|k| Mirror {
            d: random_distance(&mut rng),
            p: if rng.gen_bool(0.5) { v } else { k },
            ghost: rng.gen_bool(0.15),
        });
        states.insert(v, s);
    }
    states
}

/// LSRP-specific conveniences on [`LsrpSimulation`] (the generic
/// [`SimHarness`] methods — running, route tables, fault injection — are
/// inherent; import this trait for the LSRP-only extras).
pub trait LsrpSimulationExt {
    /// Starts building a simulation of `graph` routing toward
    /// `destination`.
    fn builder(graph: Graph, destination: NodeId) -> LsrpSimulationBuilder;

    /// The wave timing in use.
    fn timing(&self) -> &TimingConfig;

    /// Whether the legitimate-state predicate `L` holds right now.
    fn is_legitimate(&self) -> bool;
}

impl LsrpSimulationExt for LsrpSimulation {
    fn builder(graph: Graph, destination: NodeId) -> LsrpSimulationBuilder {
        let engine = EngineConfig::default();
        LsrpSimulationBuilder {
            graph,
            destination,
            timing: TimingConfig::paper_example(engine.link.delay_max),
            timing_unchecked: false,
            engine,
            initial: InitialState::Legitimate,
        }
    }

    fn timing(&self) -> &TimingConfig {
        self.meta()
    }

    fn is_legitimate(&self) -> bool {
        legitimacy::is_legitimate(self.engine())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::generators;
    use lsrp_sim::CorruptionKind;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn legitimate_start_is_immediately_quiescent() {
        let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), v(0)).build();
        let report = sim.run_to_quiescence(1_000.0);
        assert!(report.quiescent);
        assert_eq!(sim.engine().trace().total_actions(), 0);
        assert!(sim.is_legitimate());
        assert!(sim.routes_correct());
    }

    #[test]
    fn fresh_start_converges_to_shortest_paths() {
        let mut sim = LsrpSimulation::builder(generators::grid(5, 5, 1), v(12))
            .initial_state(InitialState::Fresh)
            .build();
        let report = sim.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(sim.routes_correct());
        assert!(sim.is_legitimate());
    }

    #[test]
    fn fresh_start_weighted_graph_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = generators::connected_erdos_renyi(24, 0.1, 5, &mut rng);
        let mut sim = LsrpSimulation::builder(g, v(3))
            .initial_state(InitialState::Fresh)
            .seed(11)
            .build();
        let report = sim.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        assert!(sim.routes_correct());
    }

    #[test]
    fn a_mirror_about_a_non_neighbor_is_not_written_nor_promoted_by_a_join() {
        // What a ddmin replay can produce: the JoinEdge dropped, the
        // MirrorOf that followed it kept.
        let forged = Mirror {
            d: Distance::ZERO,
            p: v(8),
            ghost: true,
        };
        let mut sim = LsrpSimulation::builder(generators::grid(3, 3, 1), v(0)).build();
        let before = sim.engine().node(v(4)).unwrap().clone();
        // v8 is two hops from v4.
        let forge = CorruptionKind::MirrorOf {
            about: v(8),
            mirror: forged,
        };
        sim.corrupt(v(4), &forge);
        sim.poison_mirror(v(4), v(8), Distance::ZERO);
        assert_eq!(sim.engine().node(v(4)).unwrap(), &before);
        // The edge appearing later starts unheard on v4's side.
        sim.join_edge(v(4), v(8), 1).unwrap();
        let row = *sim
            .engine()
            .node(v(4))
            .unwrap()
            .state()
            .neighbors
            .get(v(8))
            .unwrap();
        assert_eq!((row.weight, row.heard), (1, None));
        // About a real neighbor the write lands.
        sim.corrupt(v(4), &forge);
        assert_eq!(
            sim.engine().node(v(4)).unwrap().state().mirror(v(8)),
            forged
        );
    }

    #[test]
    #[should_panic(expected = "destination v9 is not in the graph")]
    fn missing_destination_panics() {
        let _ = LsrpSimulation::builder(generators::path(3, 1), v(9)).build();
    }

    #[test]
    #[should_panic(expected = "wave-speed constraints")]
    fn invalid_timing_panics() {
        let bad = TimingConfig {
            hd_s: 1.0,
            hd_c: 1.0,
            hd_sc: 0.0,
            hd_c2: 0.0,
            syn_period: None,
        };
        let _ = LsrpSimulation::builder(generators::path(3, 1), v(0))
            .timing(bad)
            .build();
    }
}
