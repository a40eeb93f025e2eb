//! Multi-destination LSRP: a full routing table, locally stabilizing per
//! destination.
//!
//! The paper presents LSRP for a single destination (§IV-A) and notes that
//! a routing protocol runs one such computation per destination. This
//! crate provides that composition: a [`MultiLsrpNode`] multiplexes one
//! independent [`lsrp_core::LsrpNode`] instance per destination over the
//! shared links (each message carries its destination tag), so a network
//! maintains an entire shortest-path routing table with all of LSRP's
//! guarantees holding *per destination*:
//!
//! * a perturbation of size `p` affecting one destination's tree is
//!   contained within `O(p)` hops of that tree's perturbed region;
//! * a corrupted node perturbs each destination's instance independently —
//!   recovery of different trees proceeds concurrently;
//! * loop freedom and constant-time loop breakage hold tree by tree.
//!
//! # Example
//!
//! ```
//! use lsrp_graph::{generators, NodeId};
//! use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};
//!
//! let graph = generators::grid(3, 3, 1);
//! let destinations: Vec<NodeId> = graph.nodes().collect();
//! let mut sim = MultiLsrpSimulation::builder(graph, destinations).build();
//! let report = sim.run_to_quiescence(10_000.0);
//! assert!(report.quiescent);
//! assert!(sim.all_routes_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dest;
pub mod node;
#[cfg(test)]
mod reference;
pub mod simulation;

pub use crate::dest::{DestId, DestTable};
pub use crate::node::{dest_of_tag, instance_tag, MultiLsrpNode, MultiMsg, FLUSH};
pub use crate::simulation::{
    MultiLsrpSimulation, MultiLsrpSimulationBuilder, MultiLsrpSimulationExt, MultiMeta,
};
