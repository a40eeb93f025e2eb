//! The generic simulation harness: one wrapper for every protocol.
//!
//! Each protocol crate used to ship its own engine-wrapper struct
//! (`LsrpSimulation`, `DbfSimulation`, …) re-implementing the same dozen
//! delegating methods. [`SimHarness`] implements them once, generically;
//! protocols plug in through [`HarnessProtocol`], a small extension of
//! [`ProtocolNode`] that adds the protocol-specific fault hooks (state
//! corruption, mirror poisoning, route injection). Protocol crates expose
//! their old names as type aliases (`type LsrpSimulation =
//! SimHarness<LsrpNode>`) plus extension traits for protocol-specific
//! conveniences.

use std::collections::BTreeSet;
use std::fmt;

use lsrp_graph::{Distance, Graph, GraphError, NodeId, RouteTable, Weight};

use crate::engine::{Engine, EngineStats, RunReport};
use crate::node::ProtocolNode;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::view::{RouteCursor, RouteDelta, RouteView};

/// A forged route advertisement, as planted into a node's mirror of a
/// neighbor by the *mirror poisoning* fault class.
///
/// The harness forges the advertisement from the poisoned-about node's
/// current public state (parent, containment flag) with the attacker's
/// distance substituted — each protocol maps it onto whatever its mirrors
/// store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForgedAdvert {
    /// The advertised (forged) distance.
    pub d: Distance,
    /// The advertised parent.
    pub parent: NodeId,
    /// The advertised containment flag (protocols without containment
    /// ignore it).
    pub ghost: bool,
}

/// A [`ProtocolNode`] that can run under [`SimHarness`]: adds the
/// protocol-specific fault hooks the unified measurement interface needs.
///
/// All hooks receive the harness's destination so multi-instance protocols
/// can pick the right instance.
pub trait HarnessProtocol: ProtocolNode {
    /// Protocol name, for reports ("LSRP", "DBF", …).
    const NAME: &'static str;

    /// Extra per-simulation data the protocol's facade carries (timing
    /// config for LSRP, `()` for the baselines).
    type Meta: fmt::Debug;

    /// Overwrites the node's distance variable (state corruption).
    fn corrupt_distance(&mut self, d: Distance, dest: NodeId);

    /// Plants a forged advertisement in the node's mirror of `about`.
    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, dest: NodeId);

    /// Overwrites the node's route `(d, p)` jointly (fault classes that
    /// install a consistent-looking but wrong route).
    fn inject_route(&mut self, d: Distance, p: NodeId, dest: NodeId);
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

    /// Corrupts `v`'s distance variable.
    pub fn corrupt_distance(&mut self, v: NodeId, d: Distance) {
        let dest = self.destination;
        self.engine
            .with_node_mut(v, |n| n.corrupt_distance(d, dest));
    }

    /// Plants a forged advertisement about `about` (with distance `d`) in
    /// `at`'s mirrors. The advertisement carries `about`'s *current*
    /// public parent and containment flag, so it is maximally plausible.
    pub fn poison_mirror(&mut self, at: NodeId, about: NodeId, d: Distance) {
        let dest = self.destination;
        let advert = self.engine.node(about).map_or(
            ForgedAdvert {
                d,
                parent: about,
                ghost: false,
            },
            |n| ForgedAdvert {
                d,
                parent: n.route_entry().parent,
                ghost: n.in_containment(),
            },
        );
        self.engine
            .with_node_mut(at, |n| n.poison_mirror(about, advert, dest));
    }

    /// Installs the route `(d, p)` at `v`.
    pub fn inject_route(&mut self, v: NodeId, d: Distance, p: NodeId) {
        let dest = self.destination;
        self.engine.with_node_mut(v, |n| n.inject_route(d, p, dest));
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
