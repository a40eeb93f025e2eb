//! The system graph `G = (V, E, W)`: a mutable, undirected, positively
//! weighted graph.
//!
//! Topology changes (fail-stop, join, weight change — the paper's fault
//! model in §II) are plain mutations of this structure; the simulator owns a
//! `Graph` and applies faults to it at runtime.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::id::{NodeId, Weight};

/// Errors returned by [`Graph`] mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// Attempted to add an edge from a node to itself.
    SelfLoop(NodeId),
    /// Attempted to add an edge with weight zero (the weight function is
    /// positive).
    ZeroWeight(NodeId, NodeId),
    /// The referenced node does not exist.
    MissingNode(NodeId),
    /// The referenced edge does not exist.
    MissingEdge(NodeId, NodeId),
    /// The edge already exists (use [`Graph::set_weight`] to change it).
    DuplicateEdge(NodeId, NodeId),
    /// The node already exists (joins require a fresh id).
    DuplicateNode(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v} is not allowed"),
            GraphError::ZeroWeight(a, b) => {
                write!(f, "edge ({a}, {b}) must have positive weight")
            }
            GraphError::MissingNode(v) => write!(f, "node {v} does not exist"),
            GraphError::MissingEdge(a, b) => write!(f, "edge ({a}, {b}) does not exist"),
            GraphError::DuplicateEdge(a, b) => write!(f, "edge ({a}, {b}) already exists"),
            GraphError::DuplicateNode(v) => write!(f, "node {v} already exists"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph with positive integer edge weights.
///
/// Node and edge iteration order is deterministic (sorted by id), which keeps
/// every simulation in this repository reproducible from a seed.
///
/// Storage is dense by raw node id, like the engine's `NodeSlots`: slot `i`
/// holds node `i`'s row (its `(neighbor, weight)` pairs, sorted by neighbor
/// and binary-searched), or `None` when no such node exists. The slot vector
/// never ends in `None`, so the derived equality is structural and the
/// largest id is the last slot. Sparse ids work; they only waste capacity.
///
/// ```
/// use lsrp_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), lsrp_graph::GraphError> {
/// let mut g = Graph::new();
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// g.add_edge(a, b, 3)?;
/// assert_eq!(g.weight(b, a), Some(3));
/// g.remove_node(a)?; // fail-stop: drops incident edges too
/// assert_eq!(g.edge_count(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Option<Row>>,
    nodes: usize,
}

/// One node's edges: `(neighbor, weight)`, sorted by neighbor.
type Row = Vec<(NodeId, Weight)>;

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    fn row(&self, v: NodeId) -> Option<&Row> {
        self.adj.get(v.raw() as usize)?.as_ref()
    }

    fn row_mut(&mut self, v: NodeId) -> &mut Row {
        self.adj[v.raw() as usize]
            .as_mut()
            .expect("endpoint exists")
    }

    /// Position of `b` in `a`'s row, if the edge exists.
    fn find(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.row(a)?.binary_search_by_key(&b, |&(n, _)| n).ok()
    }

    /// Adds an isolated node; does nothing if the node already exists.
    pub fn add_node(&mut self, v: NodeId) {
        let i = v.raw() as usize;
        if i >= self.adj.len() {
            self.adj.resize_with(i + 1, || None);
        }
        if self.adj[i].is_none() {
            self.adj[i] = Some(Vec::new());
            self.nodes += 1;
        }
    }

    /// Inserts `b` into `a`'s row at its sorted place (the edge is absent).
    fn insert_half(&mut self, a: NodeId, b: NodeId, weight: Weight) {
        self.add_node(a);
        let row = self.row_mut(a);
        let at = row.partition_point(|&(n, _)| n < b);
        row.insert(at, (b, weight));
    }

    /// Adds an undirected edge with the given positive weight, creating the
    /// endpoints as needed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `a == b`,
    /// [`GraphError::ZeroWeight`] if `weight == 0`, and
    /// [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight(a, b));
        }
        if self.has_edge(a, b) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        self.insert_half(a, b, weight);
        self.insert_half(b, a, weight);
        Ok(())
    }

    /// Changes the weight of an existing edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if the edge does not exist and
    /// [`GraphError::ZeroWeight`] if `weight == 0`.
    pub fn set_weight(&mut self, a: NodeId, b: NodeId, weight: Weight) -> Result<(), GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight(a, b));
        }
        let (Some(i), Some(j)) = (self.find(a, b), self.find(b, a)) else {
            return Err(GraphError::MissingEdge(a, b));
        };
        self.row_mut(a)[i].1 = weight;
        self.row_mut(b)[j].1 = weight;
        Ok(())
    }

    /// Removes an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if the edge does not exist.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        let (Some(i), Some(j)) = (self.find(a, b), self.find(b, a)) else {
            return Err(GraphError::MissingEdge(a, b));
        };
        self.row_mut(a).remove(i);
        self.row_mut(b).remove(j);
        Ok(())
    }

    /// Removes a node and all its incident edges (the paper's *fail-stop*).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if the node does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        let neighbors = self
            .adj
            .get_mut(v.raw() as usize)
            .and_then(Option::take)
            .ok_or(GraphError::MissingNode(v))?;
        self.nodes -= 1;
        for (n, _) in neighbors {
            let j = self.find(n, v).expect("edges are symmetric");
            self.row_mut(n).remove(j);
        }
        while matches!(self.adj.last(), Some(None)) {
            self.adj.pop();
        }
        Ok(())
    }

    /// Returns `true` if the node exists.
    pub fn has_node(&self, v: NodeId) -> bool {
        self.row(v).is_some()
    }

    /// Returns `true` if the edge exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a, b).is_some()
    }

    /// Returns the weight of edge `(a, b)`, if present.
    pub fn weight(&self, a: NodeId, b: NodeId) -> Option<Weight> {
        let row = self.row(a)?;
        row.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| row[i].1)
    }

    /// Iterates over all nodes in ascending id order. The iterator's
    /// `size_hint` is exact, so collecting it allocates once.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        Nodes {
            slots: self.adj.iter().enumerate(),
            left: self.nodes,
        }
    }

    /// Iterates over the neighbors of `v` (with edge weights) in ascending
    /// id order. Yields nothing for an unknown node.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.row(v).map_or(&[][..], Vec::as_slice).iter().copied()
    }

    /// Iterates over undirected edges as `(a, b, w)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, w)| (a, b, w))
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().flatten().map(Vec::len).sum::<usize>() / 2
    }

    /// Degree of `v` (0 for an unknown node).
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).map_or(0, Vec::len)
    }

    /// Hop distances from every node of `sources` present in the graph, by
    /// raw id; `usize::MAX` marks an unreached id.
    fn bfs(&self, sources: impl IntoIterator<Item = NodeId>) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut queue = VecDeque::new();
        for s in sources {
            if self.has_node(s) && dist[s.raw() as usize] != 0 {
                dist[s.raw() as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.raw() as usize] + 1;
            for (n, _) in self.neighbors(v) {
                let slot = &mut dist[n.raw() as usize];
                if *slot == usize::MAX {
                    *slot = d;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// The reached ids of a [`Self::bfs`] result with their distances, in
    /// ascending id order.
    fn reached(dist: Vec<usize>) -> impl Iterator<Item = (NodeId, usize)> {
        dist.into_iter()
            .enumerate()
            .filter(|&(_, d)| d != usize::MAX)
            .map(|(i, d)| (NodeId::new(i as u32), d))
    }

    /// Returns the set of nodes reachable from `from` (including `from`),
    /// or an empty set if `from` does not exist.
    pub fn component_of(&self, from: NodeId) -> BTreeSet<NodeId> {
        Self::reached(self.bfs([from])).map(|(v, _)| v).collect()
    }

    /// Returns `true` when the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        match self.nodes().next() {
            Some(first) => Self::reached(self.bfs([first])).count() == self.nodes,
            None => false,
        }
    }

    /// Hop (unweighted) distances from `from` to every reachable node.
    pub fn hop_distances(&self, from: NodeId) -> BTreeMap<NodeId, usize> {
        Self::reached(self.bfs([from])).collect()
    }

    /// Hop distances from any node of `sources` (multi-source BFS).
    pub fn hop_distances_from_set(&self, sources: &BTreeSet<NodeId>) -> BTreeMap<NodeId, usize> {
        Self::reached(self.bfs(sources.iter().copied())).collect()
    }

    /// The hop diameter of the graph (longest shortest hop path), or `None`
    /// for an empty or disconnected graph.
    pub fn hop_diameter(&self) -> Option<usize> {
        if !self.is_connected() {
            return None;
        }
        let mut diameter = 0;
        for v in self.nodes() {
            let ecc = Self::reached(self.bfs([v])).map(|(_, d)| d).max();
            diameter = diameter.max(ecc.unwrap_or(0));
        }
        Some(diameter)
    }

    /// Largest node id present, used by generators to mint fresh ids.
    pub fn max_node_id(&self) -> Option<NodeId> {
        self.adj.len().checked_sub(1).map(|i| NodeId::new(i as u32))
    }
}

/// [`Graph::nodes`]: the occupied slots, with an exact `size_hint`.
struct Nodes<'a> {
    slots: std::iter::Enumerate<std::slice::Iter<'a, Option<Row>>>,
    left: usize,
}

impl Iterator for Nodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let (i, _) = self.slots.find(|(_, row)| row.is_some())?;
        self.left -= 1;
        Some(NodeId::new(i as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn triangle() -> Graph {
        let mut g = Graph::new();
        g.add_edge(v(0), v(1), 1).unwrap();
        g.add_edge(v(1), v(2), 2).unwrap();
        g.add_edge(v(0), v(2), 4).unwrap();
        g
    }

    #[test]
    fn add_edge_is_symmetric() {
        let g = triangle();
        assert_eq!(g.weight(v(0), v(1)), Some(1));
        assert_eq!(g.weight(v(1), v(0)), Some(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn rejects_self_loop_zero_weight_and_duplicates() {
        let mut g = triangle();
        assert_eq!(g.add_edge(v(0), v(0), 1), Err(GraphError::SelfLoop(v(0))));
        assert_eq!(
            g.add_edge(v(0), v(3), 0),
            Err(GraphError::ZeroWeight(v(0), v(3)))
        );
        assert_eq!(
            g.add_edge(v(0), v(1), 5),
            Err(GraphError::DuplicateEdge(v(0), v(1)))
        );
    }

    #[test]
    fn error_display_names_the_offender() {
        assert_eq!(
            GraphError::DuplicateNode(v(7)).to_string(),
            "node v7 already exists"
        );
        assert_eq!(
            GraphError::DuplicateEdge(v(1), v(2)).to_string(),
            "edge (v1, v2) already exists"
        );
    }

    #[test]
    fn set_weight_updates_both_directions() {
        let mut g = triangle();
        g.set_weight(v(0), v(1), 9).unwrap();
        assert_eq!(g.weight(v(1), v(0)), Some(9));
        assert_eq!(
            g.set_weight(v(0), v(3), 1),
            Err(GraphError::MissingEdge(v(0), v(3)))
        );
    }

    #[test]
    fn remove_node_drops_incident_edges() {
        let mut g = triangle();
        g.remove_node(v(1)).unwrap();
        assert!(!g.has_node(v(1)));
        assert!(!g.has_edge(v(0), v(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.remove_node(v(1)), Err(GraphError::MissingNode(v(1))));
    }

    #[test]
    fn remove_edge_can_disconnect() {
        let mut g = Graph::new();
        g.add_edge(v(0), v(1), 1).unwrap();
        assert!(g.is_connected());
        g.remove_edge(v(0), v(1)).unwrap();
        assert!(!g.is_connected());
        assert_eq!(
            g.remove_edge(v(0), v(1)),
            Err(GraphError::MissingEdge(v(0), v(1)))
        );
    }

    #[test]
    fn neighbors_and_edges_are_sorted() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(v(0)).map(|(k, _)| k).collect();
        assert_eq!(n, vec![v(1), v(2)]);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(v(0), v(1), 1), (v(0), v(2), 4), (v(1), v(2), 2)]);
    }

    #[test]
    fn hop_distances_and_diameter() {
        let mut g = Graph::new();
        for i in 0..4 {
            g.add_edge(v(i), v(i + 1), 7).unwrap();
        }
        let d = g.hop_distances(v(0));
        assert_eq!(d[&v(4)], 4);
        assert_eq!(g.hop_diameter(), Some(4));
    }

    #[test]
    fn multi_source_bfs() {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_edge(v(i), v(i + 1), 1).unwrap();
        }
        let sources = BTreeSet::from([v(0), v(6)]);
        let d = g.hop_distances_from_set(&sources);
        assert_eq!(d[&v(3)], 3);
        assert_eq!(d[&v(5)], 1);
    }

    #[test]
    fn component_of_unknown_node_is_empty() {
        let g = triangle();
        assert!(g.component_of(v(42)).is_empty());
        assert_eq!(g.hop_distances(v(42)).len(), 0);
    }

    #[test]
    fn empty_graph_is_not_connected() {
        let g = Graph::new();
        assert!(!g.is_connected());
        assert_eq!(g.hop_diameter(), None);
    }

    #[test]
    fn isolated_node_counts() {
        let mut g = Graph::new();
        g.add_node(v(5));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.degree(v(5)), 0);
        assert!(g.is_connected()); // single node is trivially connected
    }
}
