//! The generic simulation harness: one wrapper for every protocol.
//!
//! Each protocol crate used to ship its own engine-wrapper struct
//! (`LsrpSimulation`, `DbfSimulation`, …) re-implementing the same dozen
//! delegating methods. [`SimHarness`] implements them once, generically;
//! protocols plug in through [`HarnessProtocol`], a small extension of
//! [`ProtocolNode`] that adds one fault hook: [`HarnessProtocol::corrupt`]
//! lands a [`CorruptionKind`], the one vocabulary of state corruption.
//! Protocol crates expose their old names as type aliases (`type
//! LsrpSimulation = SimHarness<LsrpNode>`) plus extension traits for
//! protocol-specific conveniences.

use std::collections::BTreeSet;
use std::fmt;

use lsrp_graph::{Distance, Graph, GraphError, NodeId, RouteTable, Weight};

use crate::engine::{Engine, EngineStats, RunReport};
use crate::node::ProtocolNode;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::view::{RouteCursor, RouteDelta, RouteView};

/// A node's routing state `(d, p, ghost)` as a neighbour mirrors it: what
/// a node advertises, and what a mirror corruption forges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mirror {
    /// Mirrored distance `d.k.v`.
    pub d: Distance,
    /// Mirrored parent `p.k.v`.
    pub p: NodeId,
    /// Mirrored containment flag `ghost.k.v`.
    pub ghost: bool,
}

impl Mirror {
    /// The default mirror for a neighbor `k` nothing has been heard from:
    /// no route, not in containment. Inlined: LSRP's guards read it for
    /// every unheard row, from another crate.
    #[inline]
    pub fn unknown(k: NodeId) -> Self {
        Mirror {
            d: Distance::Infinite,
            p: k,
            ghost: false,
        }
    }
}

/// In-place corruption of one node's state (the paper's transient fault:
/// any variable, the neighbor mirrors included, set to any value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptionKind {
    /// Overwrite `d.v`.
    Distance(Distance),
    /// Overwrite `p.v`.
    Parent(NodeId),
    /// Overwrite `d.v` and `p.v` together: a consistent-looking but wrong
    /// route.
    Route {
        /// The forged distance.
        d: Distance,
        /// The forged parent.
        p: NodeId,
    },
    /// Overwrite `ghost.v`.
    Ghost(bool),
    /// Overwrite the broadcast timestamp `t.v` (local-clock seconds).
    Timestamp(f64),
    /// Overwrite `v`'s mirror of `about`.
    MirrorOf {
        /// The neighbor whose mirror is corrupted.
        about: NodeId,
        /// The forged mirror content.
        mirror: Mirror,
    },
}

impl CorruptionKind {
    /// What a node advertising `before` advertises once this corruption
    /// lands on it.
    pub fn advertised(&self, before: Mirror) -> Mirror {
        match *self {
            CorruptionKind::Distance(d) => Mirror { d, ..before },
            CorruptionKind::Parent(p) => Mirror { p, ..before },
            CorruptionKind::Route { d, p } => Mirror { d, p, ..before },
            CorruptionKind::Ghost(ghost) => Mirror { ghost, ..before },
            CorruptionKind::Timestamp(_) | CorruptionKind::MirrorOf { .. } => before,
        }
    }
}

/// A [`ProtocolNode`] that can run under [`SimHarness`]: adds the fault
/// hook the unified measurement interface needs.
pub trait HarnessProtocol: ProtocolNode {
    /// Protocol name, for reports ("LSRP", "DBF", …).
    const NAME: &'static str;

    /// Extra per-simulation data the protocol's facade carries (timing
    /// config for LSRP, `()` for the baselines).
    type Meta: fmt::Debug;

    /// Overwrites the node's variables as `kind` says. Kinds naming a
    /// variable the protocol lacks are no-ops; `dest` is the harness's
    /// destination, so multi-instance protocols can pick the instance.
    fn corrupt(&mut self, kind: &CorruptionKind, dest: NodeId);
}

/// A protocol simulation: an [`Engine`] plus the destination it routes to,
/// its quiescence settle window, and protocol metadata.
pub struct SimHarness<P: HarnessProtocol> {
    engine: Engine<P>,
    destination: NodeId,
    settle: f64,
    meta: P::Meta,
}

impl<P: HarnessProtocol> fmt::Debug for SimHarness<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHarness")
            .field("protocol", &P::NAME)
            .field("destination", &self.destination)
            .field("engine", &self.engine)
            .field("meta", &self.meta)
            .finish()
    }
}

impl<P: HarnessProtocol> SimHarness<P> {
    /// Assembles a harness from a built engine (called by each protocol's
    /// builder/constructor).
    pub fn from_parts(engine: Engine<P>, destination: NodeId, settle: f64, meta: P::Meta) -> Self {
        SimHarness {
            engine,
            destination,
            settle,
            meta,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine (fault injection between
    /// runs).
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// The destination all routes lead to.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// Protocol-specific metadata (e.g. LSRP's timing config).
    pub fn meta(&self) -> &P::Meta {
        &self.meta
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The current route table.
    pub fn route_table(&self) -> RouteTable {
        self.engine.route_table()
    }

    /// The engine-maintained dense route view.
    pub fn route_view(&self) -> &RouteView {
        self.engine.route_view()
    }

    /// Turns route-delta logging on (idempotent) and returns the current
    /// change cursor (see [`crate::view`]).
    pub fn route_cursor(&mut self) -> RouteCursor {
        self.engine.route_cursor()
    }

    /// Every route delta recorded after `cursor`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics for cursors that were trimmed past.
    pub fn route_deltas_since(&self, cursor: RouteCursor) -> &[RouteDelta] {
        self.engine.route_deltas_since(cursor)
    }

    /// Discards route deltas every consumer has advanced past.
    pub fn trim_route_deltas(&mut self, cursor: RouteCursor) {
        self.engine.trim_route_deltas(cursor);
    }

    /// Whether every node's `(d, p)` is correct for the current topology.
    pub fn routes_correct(&self) -> bool {
        self.route_table()
            .is_correct(self.engine.graph(), self.destination)
    }

    /// Nodes currently involved in a containment wave.
    pub fn containment_set(&self) -> BTreeSet<NodeId> {
        self.engine
            .graph()
            .nodes()
            .filter(|&v| self.engine.node(v).is_some_and(P::in_containment))
            .collect()
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        self.engine.trace()
    }

    /// Clears the trace.
    pub fn reset_trace(&mut self) {
        self.engine.reset_trace();
    }

    /// Always-on engine health statistics.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Processes exactly one event; `None` when the queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        self.engine.step()
    }

    /// Runs until quiescent or `horizon`, using the protocol's settle
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted (a livelock in the protocol
    /// under test).
    pub fn run_to_quiescence(&mut self, horizon: f64) -> RunReport {
        self.engine
            .run_to_quiescence(SimTime::new(horizon), self.settle)
            .unwrap_or_else(|e| panic!("{} must not livelock: {e}", P::NAME))
    }

    /// Runs until simulated time `until`.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted.
    pub fn run_until(&mut self, until: f64) -> RunReport {
        self.engine
            .run_until(SimTime::new(until))
            .unwrap_or_else(|e| panic!("{} must not livelock: {e}", P::NAME))
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    /// Overwrites `v`'s state as `kind` says (one driver mutation; a no-op
    /// for a node that is down).
    pub fn corrupt(&mut self, v: NodeId, kind: &CorruptionKind) {
        let dest = self.destination;
        self.engine.with_node_mut(v, |n| n.corrupt(kind, dest));
    }

    /// What `v` advertises: its route and containment flag, as a
    /// neighbour mirrors them ([`Mirror::unknown`] for a node that is
    /// down).
    pub fn advert(&self, v: NodeId) -> Mirror {
        self.engine.node(v).map_or(Mirror::unknown(v), |n| {
            let route = n.route_entry();
            Mirror {
                d: route.distance,
                p: route.parent,
                ghost: n.in_containment(),
            }
        })
    }

    /// Corrupts `v`'s distance variable.
    pub fn corrupt_distance(&mut self, v: NodeId, d: Distance) {
        self.corrupt(v, &CorruptionKind::Distance(d));
    }

    /// Plants a forged advertisement about `about` (with distance `d`) in
    /// `at`'s mirrors. The advertisement carries `about`'s *current*
    /// public parent and containment flag, so it is maximally plausible.
    pub fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance) {
        let mirror = Mirror {
            d,
            ..self.advert(about)
        };
        self.corrupt(at, &CorruptionKind::MirrorOf { about, mirror });
    }

    /// Fail-stops a node.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for unknown nodes.
    pub fn fail_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        self.engine.fail_node(v)
    }

    /// Joins a new node with the given edges.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the node exists or an edge is invalid.
    pub fn join_node(&mut self, v: NodeId, edges: &[(NodeId, Weight)]) -> Result<(), GraphError> {
        self.engine.join_node(v, edges)
    }

    /// Fail-stops an edge.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for unknown edges.
    pub fn fail_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        self.engine.fail_edge(a, b)
    }

    /// Joins an edge.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] on invalid endpoints/weight.
    pub fn join_edge(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        self.engine.join_edge(a, b, w)
    }

    /// Changes an edge weight.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for unknown edges or zero weight.
    pub fn set_weight(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        self.engine.set_weight(a, b, w)
    }
}
