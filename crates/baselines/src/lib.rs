//! Baseline distance-vector routing protocols for comparison against LSRP.
//!
//! The paper argues against two families:
//!
//! * **Existing distance-vector protocols** ("based on the distributed
//!   Bellman-Ford algorithm", §IV-B) — reproduced here as [`DbfNode`]:
//!   textbook distributed Bellman-Ford over the same simulator substrate
//!   (mirrors, bounded-delay FIFO links, guard hold-times), with RIP-style
//!   bounded infinity so count-to-infinity terminates. Figure 2's
//!   fault-propagation example is reproduced against this protocol.
//! * **Path-vector routing** — [`PvNode`], a BGP-lite with full-path
//!   advertisements and the AS-path-style loop check under an MRAI-style
//!   hold; this is the protocol family of the paper's opening BGP
//!   example, and it exhibits the same global fault propagation.
//! * **Loop-free distance-vector protocols (DUAL, LPA)** — represented by
//!   [`DualNode`], a faithful-in-spirit "DUAL-lite": the Source Node
//!   Condition feasibility check, passive/active states and diffusing
//!   query/reply computations, for a single destination. The paper's
//!   claims about DUAL (fault propagation is global under corruption;
//!   breaking an existing loop takes time proportional to its length) are
//!   exercised against it. Deviations from full EIGRP-DUAL are documented
//!   on the type.
//!
//! Both implement [`lsrp_sim::ProtocolNode`], so every measurement
//! (stabilization time, contamination, message counts) is collected by the
//! same machinery as for LSRP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lsrp_graph::{Distance, Graph, NodeId, RouteTable};
use lsrp_sim::{EngineConfig, Neighbor};

pub mod dbf;
pub mod dual;
pub mod pathvector;

/// Uniform constructor for the baseline simulations.
///
/// Every baseline harness (`DbfSimulation`, `DualSimulation`,
/// `PvSimulation`) is a [`lsrp_sim::SimHarness`] type alias; this trait
/// gives them the common `new(graph, destination, initial, config,
/// engine_config)` entry point the CLI and analysis crates construct them
/// through.
pub trait BaselineSimulation {
    /// Protocol-specific tuning knobs.
    type Config: Default;

    /// Builds a network starting from the given route table (or the
    /// canonical legitimate one when `initial` is `None`).
    fn new(
        graph: Graph,
        destination: NodeId,
        initial: Option<RouteTable>,
        config: Self::Config,
        engine_config: EngineConfig,
    ) -> Self;
}

/// The distance neighbor `n` offers (`∞` if unheard), collapsed to `∞`
/// at DBF's and DUAL's bounded `infinity`.
fn clamped_offer(n: &Neighbor<Distance>, infinity: u64) -> Distance {
    let o = n.heard.unwrap_or(Distance::Infinite).plus(n.weight);
    match o.as_finite() {
        Some(v) if v >= infinity => Distance::Infinite,
        _ => o,
    }
}

pub use crate::dbf::{DbfConfig, DbfMsg, DbfNode, DbfSimulation};
pub use crate::dual::{DualConfig, DualMsg, DualNode, DualSimulation};
pub use crate::pathvector::{PvConfig, PvNode, PvRoute, PvSimulation};
