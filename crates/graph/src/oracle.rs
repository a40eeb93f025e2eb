//! Test-only oracle: the B-tree `Graph` and `RouteTable` the dense layout
//! replaced, kept verbatim, and seeded operation sequences that drive both
//! representations side by side and compare every answer after every step.
//!
//! The oracle's `RouteTable::legitimate` and `incorrect_nodes` take the
//! real [`crate::Graph`], because `ShortestPaths` runs on it; the table
//! logic itself is unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::GraphError;
use crate::id::{Distance, NodeId, Weight};
use crate::shortest_path::ShortestPaths;
use crate::spt::RouteEntry;

/// The B-tree graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: BTreeMap<NodeId, BTreeMap<NodeId, Weight>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds an isolated node; does nothing if the node already exists.
    pub fn add_node(&mut self, v: NodeId) {
        self.adj.entry(v).or_default();
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
        self.adj.entry(a).or_default().insert(b, weight);
        self.adj.entry(b).or_default().insert(a, weight);
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
        if !self.has_edge(a, b) {
            return Err(GraphError::MissingEdge(a, b));
        }
        self.adj
            .get_mut(&a)
            .expect("endpoint exists")
            .insert(b, weight);
        self.adj
            .get_mut(&b)
            .expect("endpoint exists")
            .insert(a, weight);
        Ok(())
    }

    /// Removes an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if the edge does not exist.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        if !self.has_edge(a, b) {
            return Err(GraphError::MissingEdge(a, b));
        }
        self.adj.get_mut(&a).expect("endpoint exists").remove(&b);
        self.adj.get_mut(&b).expect("endpoint exists").remove(&a);
        Ok(())
    }

    /// Removes a node and all its incident edges (the paper's *fail-stop*).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if the node does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        let neighbors = self.adj.remove(&v).ok_or(GraphError::MissingNode(v))?;
        for n in neighbors.keys() {
            self.adj.get_mut(n).expect("neighbor exists").remove(&v);
        }
        Ok(())
    }

    /// Returns `true` if the node exists.
    pub fn has_node(&self, v: NodeId) -> bool {
        self.adj.contains_key(&v)
    }

    /// Returns `true` if the edge exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.get(&a).is_some_and(|n| n.contains_key(&b))
    }

    /// Returns the weight of edge `(a, b)`, if present.
    pub fn weight(&self, a: NodeId, b: NodeId) -> Option<Weight> {
        self.adj.get(&a).and_then(|n| n.get(&b)).copied()
    }

    /// Iterates over all nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates over the neighbors of `v` (with edge weights) in ascending
    /// id order. Yields nothing for an unknown node.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.adj
            .get(&v)
            .into_iter()
            .flat_map(|n| n.iter().map(|(&k, &w)| (k, w)))
    }

    /// Iterates over undirected edges as `(a, b, w)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.adj.iter().flat_map(|(&a, n)| {
            n.iter()
                .filter(move |(&b, _)| a < b)
                .map(move |(&b, &w)| (a, b, w))
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(BTreeMap::len).sum::<usize>() / 2
    }

    /// Degree of `v` (0 for an unknown node).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj.get(&v).map_or(0, BTreeMap::len)
    }

    /// Returns the set of nodes reachable from `from` (including `from`),
    /// or an empty set if `from` does not exist.
    pub fn component_of(&self, from: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        if !self.has_node(from) {
            return seen;
        }
        let mut queue = VecDeque::from([from]);
        seen.insert(from);
        while let Some(v) = queue.pop_front() {
            for (n, _) in self.neighbors(v) {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen
    }

    /// Returns `true` when the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        match self.nodes().next() {
            Some(first) => self.component_of(first).len() == self.node_count(),
            None => false,
        }
    }

    /// Hop (unweighted) distances from `from` to every reachable node.
    pub fn hop_distances(&self, from: NodeId) -> BTreeMap<NodeId, usize> {
        let mut dist = BTreeMap::new();
        if !self.has_node(from) {
            return dist;
        }
        dist.insert(from, 0);
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for (n, _) in self.neighbors(v) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(n) {
                    e.insert(d + 1);
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Hop distances from any node of `sources` (multi-source BFS).
    pub fn hop_distances_from_set(&self, sources: &BTreeSet<NodeId>) -> BTreeMap<NodeId, usize> {
        let mut dist = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &s in sources {
            if self.has_node(s) {
                dist.insert(s, 0);
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for (n, _) in self.neighbors(v) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(n) {
                    e.insert(d + 1);
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// The hop diameter of the graph (longest shortest hop path), or `None`
    /// for an empty or disconnected graph.
    pub fn hop_diameter(&self) -> Option<usize> {
        if !self.is_connected() {
            return None;
        }
        let mut diameter = 0;
        for v in self.nodes() {
            let ecc = self.hop_distances(v).into_values().max().unwrap_or(0);
            diameter = diameter.max(ecc);
        }
        Some(diameter)
    }

    /// Largest node id present, used by generators to mint fresh ids.
    pub fn max_node_id(&self) -> Option<NodeId> {
        self.adj.keys().next_back().copied()
    }
}

/// The B-tree route table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    entries: BTreeMap<NodeId, RouteEntry>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Builds the canonical legitimate table for `graph` rooted at
    /// `destination`: every node gets its true shortest distance and the
    /// smallest-id legitimate parent (deterministic tie-breaking).
    pub fn legitimate(graph: &crate::Graph, destination: NodeId) -> Self {
        let sp = ShortestPaths::dijkstra(graph, destination);
        let mut entries = BTreeMap::new();
        for v in graph.nodes() {
            let d = sp.distance(v);
            let parent = if v == destination || d.is_infinite() {
                v
            } else {
                sp.parents(graph, v)
                    .into_iter()
                    .next()
                    .expect("reachable non-destination node has a parent")
            };
            entries.insert(v, RouteEntry::new(d, parent));
        }
        RouteTable { entries }
    }

    /// Inserts or replaces the entry for `v`.
    pub fn insert(&mut self, v: NodeId, entry: RouteEntry) {
        self.entries.insert(v, entry);
    }

    /// Removes the entry for `v` (e.g. after a fail-stop).
    pub fn remove(&mut self, v: NodeId) -> Option<RouteEntry> {
        self.entries.remove(&v)
    }

    /// Empties the table (scratch-table reuse: consumers that snapshot
    /// per-destination tables repeatedly refill one table instead of
    /// building a new one per call).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Returns the entry of `v`, if present.
    pub fn entry(&self, v: NodeId) -> Option<RouteEntry> {
        self.entries.get(&v).copied()
    }

    /// Iterates over `(node, entry)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, RouteEntry)> + '_ {
        self.entries.iter().map(|(&v, &e)| (v, e))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Checks that this table is a *correct* shortest-path routing state for
    /// `graph` rooted at `destination` (the problem specification of §IV-A):
    /// every node's distance is the true shortest distance and its parent is
    /// on some shortest path (ties allowed). Returns the set of offending
    /// nodes (empty means correct).
    pub fn incorrect_nodes(&self, graph: &crate::Graph, destination: NodeId) -> BTreeSet<NodeId> {
        let sp = ShortestPaths::dijkstra(graph, destination);
        let mut bad = BTreeSet::new();
        for v in graph.nodes() {
            match self.entry(v) {
                Some(e) => {
                    if e.distance != sp.distance(v) || !sp.is_legitimate_parent(graph, v, e.parent)
                    {
                        bad.insert(v);
                    }
                }
                None => {
                    bad.insert(v);
                }
            }
        }
        bad
    }

    /// Convenience wrapper around [`Self::incorrect_nodes`].
    pub fn is_correct(&self, graph: &crate::Graph, destination: NodeId) -> bool {
        self.incorrect_nodes(graph, destination).is_empty()
    }

    /// Detects routing loops: follows parent pointers from every node and
    /// returns each distinct cycle found (as the sorted set of nodes on the
    /// cycle). A node pointing at itself is not a loop (it is the "no
    /// route" / destination convention); a parent outside the table ends
    /// the walk.
    pub fn find_loops(&self) -> Vec<BTreeSet<NodeId>> {
        let mut loops: Vec<BTreeSet<NodeId>> = Vec::new();
        let mut classified: BTreeMap<NodeId, bool> = BTreeMap::new(); // v -> on_some_loop
        for (start, _) in self.iter() {
            if classified.contains_key(&start) {
                continue;
            }
            // Walk parent pointers, recording the path.
            let mut path: Vec<NodeId> = Vec::new();
            let mut on_path: BTreeSet<NodeId> = BTreeSet::new();
            let mut cur = start;
            let outcome_loop: Option<BTreeSet<NodeId>> = loop {
                if let Some(&known) = classified.get(&cur) {
                    // Joins an already classified walk; nothing new loops
                    // unless `known` marks a loop that includes cur only —
                    // either way the current path is not on a new loop.
                    let _ = known;
                    break None;
                }
                if on_path.contains(&cur) {
                    // Found a fresh cycle: the suffix of `path` from `cur`.
                    let pos = path.iter().position(|&x| x == cur).expect("on path");
                    break Some(path[pos..].iter().copied().collect());
                }
                path.push(cur);
                on_path.insert(cur);
                let next = match self.entry(cur) {
                    Some(e) if e.parent != cur => e.parent,
                    _ => break None, // self-parent or missing: no loop here
                };
                cur = next;
            };
            let loop_members = outcome_loop.clone().unwrap_or_default();
            for v in path {
                classified.insert(v, loop_members.contains(&v));
            }
            if let Some(l) = outcome_loop {
                loops.push(l);
            }
        }
        loops
    }

    /// Returns `true` when the parent graph contains at least one loop.
    pub fn has_loop(&self) -> bool {
        !self.find_loops().is_empty()
    }

    /// Detects *routing* loops with respect to a destination: parent
    /// cycles along which a packet could actually circulate. Two kinds of
    /// parent pointers cannot trap traffic and are ignored:
    ///
    /// * the destination's own (a packet reaching the destination is
    ///   delivered);
    /// * those of routeless nodes (`d = ∞` means "no route" — the node
    ///   drops packets instead of forwarding; the protocol itself always
    ///   pairs `d := ∞` with `p := self`, so a routeless node with a
    ///   dangling parent pointer only arises from state corruption).
    pub fn find_routing_loops(&self, destination: NodeId) -> Vec<BTreeSet<NodeId>> {
        let mut scrubbed = self.clone();
        let sinks: Vec<(NodeId, RouteEntry)> = self
            .iter()
            .filter(|&(v, e)| v == destination || e.distance == Distance::Infinite)
            .collect();
        for (v, e) in sinks {
            scrubbed.insert(v, RouteEntry::new(e.distance, v));
        }
        scrubbed.find_loops()
    }

    /// Convenience wrapper around [`Self::find_routing_loops`].
    pub fn has_routing_loop(&self, destination: NodeId) -> bool {
        !self.find_routing_loops(destination).is_empty()
    }
}

impl FromIterator<(NodeId, RouteEntry)> for RouteTable {
    fn from_iter<I: IntoIterator<Item = (NodeId, RouteEntry)>>(iter: I) -> Self {
        RouteTable {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(NodeId, RouteEntry)> for RouteTable {
    fn extend<I: IntoIterator<Item = (NodeId, RouteEntry)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Dense = crate::Graph;
    type DenseTable = crate::RouteTable;

    const COMPACT: u32 = 48;
    const SPARSE: u32 = 10_000;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// An id to operate on: mostly a present node (so edges and removals
    /// hit), otherwise a fresh compact id or, rarely, a sparse one.
    fn pick(rng: &mut StdRng, present: &[NodeId]) -> NodeId {
        match rng.gen_range(0..20) {
            0 => v(rng.gen_range(0..=SPARSE)),
            1..=6 => v(rng.gen_range(0..COMPACT)),
            _ if !present.is_empty() => present[rng.gen_range(0..present.len())],
            _ => v(rng.gen_range(0..COMPACT)),
        }
    }

    /// The ids every comparison probes: present nodes, their neighbours'
    /// neighbours by construction, and a few absent ids around the edges.
    fn probes(oracle: &Graph, rng: &mut StdRng) -> Vec<NodeId> {
        let mut ids: BTreeSet<NodeId> = oracle.nodes().collect();
        let top = oracle.max_node_id().map_or(0, NodeId::raw);
        ids.extend([v(0), v(top + 1), v(top + 2), v(SPARSE + 1)]);
        for _ in 0..4 {
            ids.insert(v(rng.gen_range(0..=SPARSE)));
        }
        ids.into_iter().collect()
    }

    /// The dense `nodes()` iterator reports its exact remaining length at
    /// every step, and yields what the oracle yields.
    fn assert_nodes_exact(dense: &Dense, oracle: &Graph) {
        let want: Vec<NodeId> = oracle.nodes().collect();
        let mut it = dense.nodes();
        let mut got = Vec::new();
        loop {
            let left = want.len() - got.len();
            assert_eq!(it.size_hint(), (left, Some(left)), "nodes() size_hint");
            match it.next() {
                Some(n) => got.push(n),
                None => break,
            }
        }
        assert_eq!(got, want, "nodes() order");
    }

    fn assert_same_graph(dense: &Dense, oracle: &Graph, rng: &mut StdRng) {
        assert_nodes_exact(dense, oracle);
        assert_eq!(dense.node_count(), oracle.node_count());
        assert_eq!(dense.edge_count(), oracle.edge_count());
        assert_eq!(dense.max_node_id(), oracle.max_node_id());
        assert!(dense.edges().eq(oracle.edges()), "edges() order");
        assert_eq!(dense.is_connected(), oracle.is_connected());
        let ids = probes(oracle, rng);
        for &a in &ids {
            assert_eq!(dense.has_node(a), oracle.has_node(a), "has_node({a})");
            assert_eq!(dense.degree(a), oracle.degree(a), "degree({a})");
            assert!(dense.neighbors(a).eq(oracle.neighbors(a)), "neighbors({a})");
            let b = ids[rng.gen_range(0..ids.len())];
            assert_eq!(dense.has_edge(a, b), oracle.has_edge(a, b));
            assert_eq!(dense.weight(a, b), oracle.weight(a, b));
        }
        let from = ids[rng.gen_range(0..ids.len())];
        assert_eq!(dense.component_of(from), oracle.component_of(from));
        assert_eq!(dense.hop_distances(from), oracle.hop_distances(from));
        let sources: BTreeSet<NodeId> = (0..3).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
        assert_eq!(
            dense.hop_distances_from_set(&sources),
            oracle.hop_distances_from_set(&sources)
        );
        if oracle.node_count() <= 40 {
            assert_eq!(dense.hop_diameter(), oracle.hop_diameter());
        }
        // Structural equality: the same nodes and edges built in another
        // order (descending ids, so the vector grows from its far end)
        // compare equal whatever the first graph's history was.
        let mut rebuilt = Dense::new();
        for n in oracle.nodes().collect::<Vec<_>>().into_iter().rev() {
            rebuilt.add_node(n);
        }
        for (a, b, w) in oracle.edges().collect::<Vec<_>>().into_iter().rev() {
            rebuilt.add_edge(b, a, w).unwrap();
        }
        assert_eq!(&rebuilt, dense, "rebuilt graph is equal");
    }

    #[test]
    fn dense_graph_answers_like_the_btree_oracle_over_seeded_operation_sequences() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut dense, mut oracle) = (Dense::new(), Graph::new());
            for step in 0..200 {
                let present: Vec<NodeId> = oracle.nodes().collect();
                let a = pick(&mut rng, &present);
                let b = pick(&mut rng, &present);
                let w: Weight = rng.gen_range(0..=4); // zero is rejected
                let (dense_before, oracle_before) = (dense.clone(), oracle.clone());
                let op = rng.gen_range(0..100);
                let (got, want) = match op {
                    0..=9 => {
                        dense.add_node(a);
                        oracle.add_node(a);
                        (Ok(()), Ok(()))
                    }
                    10..=49 => (dense.add_edge(a, b, w), oracle.add_edge(a, b, w)),
                    50..=64 => (dense.set_weight(a, b, w), oracle.set_weight(a, b, w)),
                    65..=79 => (dense.remove_edge(a, b), oracle.remove_edge(a, b)),
                    80..=91 => (dense.remove_node(a), oracle.remove_node(a)),
                    _ => {
                        // Fail-stop the largest id: the dense vector must
                        // shrink past every trailing gap.
                        let top = oracle.max_node_id().unwrap_or(a);
                        (dense.remove_node(top), oracle.remove_node(top))
                    }
                };
                assert_eq!(got, want, "seed {seed} step {step} op {op}");
                assert_eq!(
                    dense == dense_before,
                    oracle == oracle_before,
                    "seed {seed} step {step}: PartialEq"
                );
                assert_same_graph(&dense, &oracle, &mut rng);
            }
        }
    }

    fn random_entry(rng: &mut StdRng, ids: &[NodeId]) -> RouteEntry {
        let distance = match rng.gen_range(0..4) {
            0 => Distance::Infinite,
            _ => Distance::Finite(rng.gen_range(0..6)),
        };
        RouteEntry::new(distance, ids[rng.gen_range(0..ids.len())])
    }

    fn assert_same_table(dense: &DenseTable, oracle: &RouteTable, ids: &[NodeId]) {
        assert!(dense.iter().eq(oracle.iter()), "iter() order");
        assert_eq!(dense.len(), oracle.len());
        assert_eq!(dense.is_empty(), oracle.is_empty());
        for &n in ids {
            assert_eq!(dense.entry(n), oracle.entry(n), "entry({n})");
        }
        assert_eq!(dense.find_loops(), oracle.find_loops());
        assert_eq!(dense.has_loop(), oracle.has_loop());
        for &d in &ids[..3] {
            assert_eq!(dense.find_routing_loops(d), oracle.find_routing_loops(d));
            assert_eq!(dense.has_routing_loop(d), oracle.has_routing_loop(d));
        }
        let rebuilt: DenseTable = oracle
            .iter()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        assert_eq!(&rebuilt, dense, "rebuilt table is equal");
    }

    #[test]
    fn dense_route_table_answers_like_the_btree_oracle_over_seeded_operation_sequences() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Parents range over table ids and absent ids, so walks end at
            // holes and past the table's end as well as in loops. Every
            // third seed adds far sparse ids (and a ~10k-slot table).
            let mut ids: Vec<NodeId> = (0..24).map(v).collect();
            if seed % 3 == 0 {
                ids.extend((0..6).map(|_| v(rng.gen_range(0..=SPARSE))));
            }
            let (mut dense, mut oracle) = (DenseTable::new(), RouteTable::new());
            for step in 0..300 {
                let n = ids[rng.gen_range(0..ids.len())];
                let (dense_before, oracle_before) = (dense.clone(), oracle.clone());
                match rng.gen_range(0..100) {
                    0..=59 => {
                        let e = random_entry(&mut rng, &ids);
                        dense.insert(n, e);
                        oracle.insert(n, e);
                    }
                    60..=84 => assert_eq!(dense.remove(n), oracle.remove(n)),
                    85..=94 => {
                        let top = oracle.iter().last().map_or(n, |(t, _)| t);
                        assert_eq!(dense.remove(top), oracle.remove(top));
                    }
                    95..=97 => {
                        let batch: Vec<(NodeId, RouteEntry)> = (0..4)
                            .map(|_| {
                                (
                                    ids[rng.gen_range(0..ids.len())],
                                    random_entry(&mut rng, &ids),
                                )
                            })
                            .collect();
                        dense.extend(batch.iter().copied());
                        oracle.extend(batch);
                    }
                    _ => {
                        dense.clear();
                        oracle.clear();
                    }
                }
                assert_eq!(
                    dense == dense_before,
                    oracle == oracle_before,
                    "seed {seed} step {step}: PartialEq"
                );
                assert_same_table(&dense, &oracle, &ids);
            }
        }
    }

    #[test]
    fn legitimate_tables_and_their_checks_match_the_oracle() {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = crate::generators::grid(5, 5, 3);
            // Knock nodes out (the largest among them) and join a sparse
            // one, so tables have holes and a far tail.
            for _ in 0..3 {
                let _ = g.remove_node(v(rng.gen_range(0..25)));
            }
            g.remove_node(v(24)).ok();
            g.add_edge(v(rng.gen_range(0..24)), v(SPARSE), 2).ok();
            for d in [v(0), v(12), v(SPARSE), v(SPARSE + 1)] {
                let (mut dense, mut oracle) =
                    (DenseTable::legitimate(&g, d), RouteTable::legitimate(&g, d));
                let ids: Vec<NodeId> = g.nodes().collect();
                assert_same_table(&dense, &oracle, &ids);
                let n = ids[rng.gen_range(0..ids.len())];
                let e = random_entry(&mut rng, &ids);
                dense.insert(n, e);
                oracle.insert(n, e);
                assert_eq!(dense.incorrect_nodes(&g, d), oracle.incorrect_nodes(&g, d));
                assert_eq!(dense.is_correct(&g, d), oracle.is_correct(&g, d));
                assert_eq!(dense.remove(n), oracle.remove(n));
                assert_eq!(dense.incorrect_nodes(&g, d), oracle.incorrect_nodes(&g, d));
            }
        }
    }
}
