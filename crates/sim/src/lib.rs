//! Discrete-event message-passing simulator implementing the paper's system
//! and computation model (§II).
//!
//! The model this engine realizes:
//!
//! * **Nodes with local clocks.** Each node has a clock; the ratio of clock
//!   speeds between any two neighbors is bounded by `rho`
//!   ([`ClockConfig`]). Guard hold-times elapse on the *local* clock.
//! * **Guarded actions with hold-times.** A protocol is a set of actions
//!   `guard --hold--> statement`. An action executes at time `t` only if its
//!   guard was continuously enabled from `t - hold` to `t` (measured on the
//!   node's clock); the statement runs atomically and may broadcast
//!   messages. The engine re-evaluates guards after every local state
//!   change and tracks continuous enablement exactly.
//! * **Reliable FIFO links with bounded delay.** Message delay is drawn
//!   uniformly from `[delay_min, delay_max]` per message
//!   ([`LinkConfig`]), with per-directed-edge FIFO ordering enforced (see
//!   DESIGN.md for why mirror convergence needs it). As adversarial
//!   ablations, links can also lose messages (i.i.d. or Gilbert–Elliott
//!   bursty loss, [`LossModel`]) and duplicate them
//!   ([`LinkConfig::duplicate_probability`]).
//! * **Dynamic topology.** Nodes and edges can fail-stop and join at
//!   runtime; in-flight messages on dead links are lost; nodes observe
//!   neighbor-set changes (the usual link-layer detection assumption).
//!
//! Protocols implement [`ProtocolNode`]; the engine ([`Engine`]) owns a
//! topology, a node instance per up node, the event queue and an execution
//! [`Trace`] used by the analysis crate to measure stabilization time and
//! contamination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod congestion;
pub mod effects;
pub mod engine;
pub mod flow;
mod guards;
pub mod harness;
pub mod neighbors;
pub mod node;
#[cfg(test)]
mod oracle;
pub(crate) mod rng;
pub mod sched;
pub mod sink;
pub mod slots;
pub mod time;
pub mod trace;
pub mod traffic;
pub mod view;

#[doc(hidden)]
pub mod test_support {
    //! Helpers for unit-testing `ProtocolNode` implementations outside the
    //! engine (constructing an [`crate::Effects`] directly).

    /// Creates an empty effects collector.
    pub fn effects<M>() -> crate::Effects<M> {
        crate::Effects::new()
    }
}

pub use crate::clock::{Clock, ClockConfig};
pub use crate::config::{EngineConfig, GilbertElliott, LinkConfig, LossModel};
pub use crate::congestion::{CongestionConfig, CongestionCounts, DisciplineKind};
pub use crate::effects::{Effects, SendBatch};
pub use crate::engine::{Engine, EngineError, EngineStats, EventCounts, RunReport};
pub use crate::flow::{CongAlgKind, FlowConfig, FlowRecord, FlowTag};
pub use crate::harness::{CorruptionKind, HarnessProtocol, Mirror, SimHarness};
pub use crate::neighbors::{Neighbor, NeighborTable, Reconciled};
pub use crate::node::{ActionId, EnabledSet, ProtocolNode};
pub use crate::sched::{EventKey, EventQueue, SchedulerKind};
pub use crate::sink::{CountsOnly, FullTrace, MarkerKind, SinkFactory, SinkKind, TraceSink};
pub use crate::slots::{EdgeSlots, NodeSlots, RegionMap};
pub use crate::time::SimTime;
pub use crate::trace::{ActionRecord, Trace};
pub use crate::traffic::{Packet, PacketRecord, PacketStatus, TrafficCounts};
pub use crate::view::{RouteCursor, RouteDelta, RouteView, ViewEntry};
