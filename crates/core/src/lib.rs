//! # lsrp-core — the LSRP protocol
//!
//! The paper's primary contribution: **L**ocally **S**tabilizing shortest
//! path **R**outing **P**rotocol (Arora & Zhang, DSN 2003).
//!
//! LSRP computes and maintains a shortest path tree toward a destination
//! under *arbitrary* state corruption and topology churn, with
//! **local stabilization**: recovery time and the set of affected nodes
//! scale with the size of the perturbation, not the size of the network.
//! It does so by layering three diffusing waves with strictly increasing
//! speeds (stabilization → containment → super-containment), enforced by
//! guard hold-times ([`TimingConfig`]), plus loop freedom during
//! stabilization and constant-time breakage of corrupted loops.
//!
//! # Quick example
//!
//! ```
//! use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
//! use lsrp_graph::{generators, Distance, NodeId};
//!
//! let dest = NodeId::new(0);
//! let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), dest).build();
//!
//! // Corrupt one node's distance; LSRP contains and repairs it locally.
//! sim.corrupt_distance(NodeId::new(5), Distance::Finite(0));
//! let report = sim.run_to_quiescence(1_000.0);
//! assert!(report.quiescent);
//! assert!(sim.routes_correct());
//! ```
//!
//! Module map: [`state`] (node variables and the neighbor table),
//! [`predicates`] (the guards `MP/SP/SW/CW/PS/SCW`, evaluated from one
//! pass over that table), [`protocol`] (the actions `S1..SC`, `SYN`),
//! [`timing`] (wave-speed constraints), [`legitimacy`] (the predicate `L`),
//! [`builder`] (the [`LsrpSimulation`] facade).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod legitimacy;
#[cfg(test)]
mod oracle;
pub mod predicates;
pub mod protocol;
pub mod state;
pub mod timing;

pub use crate::builder::{InitialState, LsrpSimulation, LsrpSimulationBuilder, LsrpSimulationExt};
pub use crate::protocol::{actions, LsrpNode};
pub use crate::state::{LsrpMsg, LsrpState, Mirror, Neighbor, NeighborExt};
pub use crate::timing::{InvalidTiming, TimingConfig};
