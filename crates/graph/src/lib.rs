//! Weighted undirected graphs and shortest-path machinery for the LSRP
//! reproduction.
//!
//! This crate is the topology substrate of the repository: it models the
//! *system* `G = (V, E, W)` of the paper (a connected undirected graph with a
//! positive edge-weight function), provides deterministic topology
//! generators (including reconstructions of the paper's example networks),
//! shortest-path computations, and the paper's protocol-independent concepts
//! from §III: *dependent sets*, *perturbation size*, *perturbed regions* and
//! *range of contamination*.
//!
//! # Quick example
//!
//! ```
//! use lsrp_graph::{Graph, NodeId};
//! use lsrp_graph::shortest_path::ShortestPaths;
//!
//! let mut g = Graph::new();
//! let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
//! g.add_edge(a, b, 1).unwrap();
//! g.add_edge(b, c, 2).unwrap();
//! let sp = ShortestPaths::dijkstra(&g, a);
//! assert_eq!(sp.distance(c).as_finite(), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concepts;
pub mod contamination;
pub mod generators;
pub mod graph;
pub mod id;
#[cfg(test)]
mod oracle;
pub mod partition;
pub mod regions;
pub mod shortest_path;
pub mod spt;
pub mod topologies;

pub use crate::graph::{Graph, GraphError};
pub use crate::id::{Distance, NodeId, Weight};
pub use crate::spt::{RouteEntry, RouteTable};
