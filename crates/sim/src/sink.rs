//! Pluggable trace sinks: where the engine's observability stream goes.
//!
//! Analysis code (monitors, measurements, timelines) wants the full
//! [`Trace`] — per-action records, per-node counters, variable-change
//! times. Benchmarks and throughput runs want nothing recorded. The
//! engine therefore writes its observability stream through a
//! [`TraceSink`], built from one of two [`SinkKind`]s:
//!
//! * [`FullTrace`] (an alias for [`Trace`]) — everything; the default, and
//!   what every monitor and measurement in `lsrp-analysis` consumes.
//! * [`CountsOnly`] — records nothing; no allocation on the hot path.
//!
//! Counts are never kept by a sink. Event counts by kind, message totals
//! and peak queue depth live in [`EngineStats`], the engine's one ledger,
//! which it maintains whatever the sink — hence the name [`CountsOnly`]:
//! the counts are all there is. A sink only consumes: the engine hands it
//! ordered records as they happen and the final [`EngineStats`] once, via
//! [`TraceSink::close`].

use lsrp_graph::{Graph, NodeId};

use crate::engine::EngineStats;
use crate::flow::FlowRecord;
use crate::time::SimTime;
use crate::trace::{ActionRecord, Trace};
use crate::traffic::PacketRecord;
use crate::view::ViewEntry;

/// What kind of driver mutation a [`TraceSink::record_marker`] marks.
///
/// Markers are emitted from the engine's *driver* context — fault
/// injection, topology churn, protocol-state mutation — which is
/// deterministic and region-invariant, so streaming sinks can anchor
/// wave epochs and fault annotations on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// A node fail-stopped ([`crate::engine::Engine::fail_node`]).
    FailNode,
    /// A node rejoined ([`crate::engine::Engine::join_node`]).
    JoinNode,
    /// An edge went down ([`crate::engine::Engine::fail_edge`]).
    FailEdge,
    /// An edge came up ([`crate::engine::Engine::join_edge`]).
    JoinEdge,
    /// An edge weight changed ([`crate::engine::Engine::set_weight`]).
    SetWeight,
    /// Protocol state was mutated in place
    /// ([`crate::engine::Engine::with_node_mut`] — corruption, route
    /// injection, mirror poisoning).
    Mutate,
    /// The sink was reset mid-run ([`crate::engine::Engine::reset_trace`]).
    Reset,
}

impl MarkerKind {
    /// The wire spelling used by structured trace streams.
    pub fn as_str(self) -> &'static str {
        match self {
            MarkerKind::FailNode => "fail_node",
            MarkerKind::JoinNode => "join_node",
            MarkerKind::FailEdge => "fail_edge",
            MarkerKind::JoinEdge => "join_edge",
            MarkerKind::SetWeight => "set_weight",
            MarkerKind::Mutate => "mutate",
            MarkerKind::Reset => "reset",
        }
    }
}

/// A consumer of the engine's observability stream.
///
/// The engine calls these hooks from its hot path; implementations decide
/// what to retain. `Send` is required so whole engines can run inside
/// worker threads of the parallel campaign executor.
pub trait TraceSink: Send {
    /// An action executed.
    fn record_action(&mut self, rec: ActionRecord);

    /// A receive handler changed a protocol variable at `time` on `node`.
    fn record_receive_change(&mut self, time: SimTime, node: NodeId);

    /// Clears everything recorded so far.
    fn reset(&mut self);

    /// The full trace, if this sink keeps one (only [`FullTrace`] does).
    fn trace(&self) -> Option<&Trace> {
        None
    }

    // -----------------------------------------------------------------
    // Streaming hooks. All default to no-ops so the two built-in
    // sinks — and the zero-trace fast path — are untouched; a streaming
    // sink (e.g. `lsrp-trace`'s `StreamingSink`) overrides them. Every
    // hook below is fed exclusively from region-invariant engine points
    // (the ordered ObsOps merge, or the serial driver context), so the
    // emitted stream is byte-identical for every `--regions` value.
    // -----------------------------------------------------------------

    /// Called once when the sink is installed into an engine, before any
    /// events run: the topology and the engine seed, for header frames.
    fn attach(&mut self, graph: &Graph, seed: u64) {
        let _ = (graph, seed);
    }

    /// A driver mutation landed at `time` (see [`MarkerKind`]). `a`/`b`
    /// identify the touched node(s) where applicable.
    fn record_marker(
        &mut self,
        time: SimTime,
        kind: MarkerKind,
        a: Option<NodeId>,
        b: Option<NodeId>,
    ) {
        let _ = (time, kind, a, b);
    }

    /// `node`'s route-view entry changed at `time` (`None` = node down).
    /// Updates arrive deduplicated: the engine forwards only those that
    /// changed its [`crate::view::RouteView`], so each call is a delta.
    fn record_view_update(&mut self, time: SimTime, node: NodeId, entry: Option<ViewEntry>) {
        let _ = (time, node, entry);
    }

    /// A packet completed (delivered, dropped or expired).
    fn record_packet_done(&mut self, rec: &PacketRecord) {
        let _ = rec;
    }

    /// A Go-Back-N flow finished (or was aborted).
    fn record_flow_done(&mut self, rec: &FlowRecord) {
        let _ = rec;
    }

    /// A bounded egress port's occupancy changed: `occupancy` is the
    /// post-transition weighted depth of the `from -> to` port;
    /// `dropped` is set when the transition was an admission drop.
    /// Only emitted when [`TraceSink::wants_queue_samples`] returned
    /// `true` at installation time.
    fn record_queue_sample(
        &mut self,
        time: SimTime,
        from: NodeId,
        to: NodeId,
        occupancy: u64,
        dropped: bool,
    ) {
        let _ = (time, from, to, occupancy, dropped);
    }

    /// Whether the engine should thread per-port queue transitions
    /// through the ordered observability stream. Queried once at sink
    /// installation; `false` (the default) keeps the congestion lane's
    /// hot path free of extra observability records.
    fn wants_queue_samples(&self) -> bool {
        false
    }

    /// Retained-state footprint in bytes, if this sink accounts one
    /// (streaming sinks do, so bounded-memory tests can assert it
    /// stays flat as the event stream grows).
    fn footprint(&self) -> Option<usize> {
        None
    }

    /// The run is over: called once, when the engine drops, with its
    /// final [`EngineStats`] (every message since the engine was built).
    fn close(&mut self, stats: &EngineStats) {
        let _ = stats;
    }
}

/// The full-fidelity sink: [`Trace`] itself.
pub type FullTrace = Trace;

impl TraceSink for Trace {
    fn record_action(&mut self, rec: ActionRecord) {
        Trace::record_action(self, rec);
    }

    fn record_receive_change(&mut self, time: SimTime, _node: NodeId) {
        self.last_var_change = Some(time);
    }

    fn reset(&mut self) {
        Trace::reset(self);
    }

    fn trace(&self) -> Option<&Trace> {
        Some(self)
    }
}

/// A sink that records nothing: the run's counts are the engine's
/// [`EngineStats`], which it keeps whatever the sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountsOnly;

impl TraceSink for CountsOnly {
    fn record_action(&mut self, _rec: ActionRecord) {}
    fn record_receive_change(&mut self, _time: SimTime, _node: NodeId) {}
    fn reset(&mut self) {}
}

/// Which sink an engine is configured with (see
/// [`crate::EngineConfig::sink`]).
///
/// Sink choice never affects simulation behavior — event order, RNG
/// draws, route tables and [`crate::engine::EngineStats`] are identical
/// across kinds; only what is *recorded* differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SinkKind {
    /// Full [`Trace`] (the default; required by analysis and monitors).
    #[default]
    Full,
    /// Record nothing ([`CountsOnly`]): only [`EngineStats`] counts.
    CountsOnly,
}

impl SinkKind {
    /// Builds a fresh sink of this kind.
    pub fn build(self) -> Box<dyn TraceSink> {
        match self {
            SinkKind::Full => Box::new(Trace::new()),
            SinkKind::CountsOnly => Box::new(CountsOnly),
        }
    }
}

/// A shared sink constructor carried by [`crate::EngineConfig`]:
/// lets callers inject a custom [`TraceSink`] (e.g. a file-backed
/// streaming sink) into an engine built deep inside a campaign, without
/// the `sim` crate depending on the sink's crate.
///
/// The closure returns `None` when it declines to produce a sink (the
/// usual pattern is a one-shot factory that arms exactly one engine);
/// the engine then falls back to [`EngineConfig::sink`]'s kind.
///
/// Equality is pointer identity ([`std::sync::Arc::ptr_eq`]) — two
/// configs compare equal only when they share the same factory object —
/// so [`crate::EngineConfig`] keeps its derived `PartialEq`.
///
/// [`EngineConfig::sink`]: crate::EngineConfig
#[derive(Clone)]
pub struct SinkFactory(pub std::sync::Arc<dyn Fn() -> Option<Box<dyn TraceSink>> + Send + Sync>);

impl SinkFactory {
    /// Wraps a sink constructor.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn() -> Option<Box<dyn TraceSink>> + Send + Sync + 'static,
    {
        SinkFactory(std::sync::Arc::new(f))
    }

    /// Invokes the factory.
    pub fn build(&self) -> Option<Box<dyn TraceSink>> {
        (self.0)()
    }
}

impl std::fmt::Debug for SinkFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkFactory(..)")
    }
}

impl PartialEq for SinkFactory {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ActionId;

    fn rec(maintenance: bool, var_changed: bool) -> ActionRecord {
        ActionRecord {
            time: SimTime::new(1.0),
            node: NodeId::new(3),
            action: ActionId::plain(0),
            name: "A",
            maintenance,
            var_changed,
        }
    }

    #[test]
    fn full_trace_sink_matches_trace_semantics() {
        let mut t = Trace::new();
        TraceSink::record_action(&mut t, rec(false, true));
        assert_eq!(t.actions.len(), 1);
        assert_eq!(t.total_actions(), 1);
        assert!(TraceSink::trace(&t).is_some());
        TraceSink::reset(&mut t);
        assert!(t.actions.is_empty());
    }

    #[test]
    fn kinds_build_the_right_sink() {
        assert!(SinkKind::Full.build().trace().is_some());
        let mut counts = SinkKind::CountsOnly.build();
        counts.record_action(rec(false, true));
        assert!(counts.trace().is_none() && counts.footprint().is_none());
    }
}
