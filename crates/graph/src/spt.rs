//! Route tables (the problem-specific variables `d.v`, `p.v`) and
//! shortest-path-tree validation.
//!
//! A [`RouteTable`] is the protocol-independent projection of a system state
//! onto its *problem-specific variables* (§III-A of the paper): per node, the
//! distance to the destination and the chosen next-hop. Both LSRP and the
//! baseline protocols expose their state as a `RouteTable` so that
//! legitimacy checks, loop monitoring and perturbation accounting are shared.

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::Graph;
use crate::id::{Distance, NodeId};
use crate::shortest_path::ShortestPaths;

/// The problem-specific variables of one node: `(d.v, p.v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteEntry {
    /// Distance to the destination (`d.v`).
    pub distance: Distance,
    /// Chosen next-hop / parent in the shortest-path tree (`p.v`). A node
    /// with no route points at itself, as does the destination.
    pub parent: NodeId,
}

impl RouteEntry {
    /// Creates a route entry.
    pub fn new(distance: Distance, parent: NodeId) -> Self {
        RouteEntry { distance, parent }
    }

    /// The "no route" entry for node `v`: infinite distance, self parent.
    pub fn no_route(v: NodeId) -> Self {
        RouteEntry::new(Distance::Infinite, v)
    }
}

impl fmt::Display for RouteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(d={}, p={})", self.distance, self.parent)
    }
}

/// A destination-rooted routing state: one [`RouteEntry`] per up node.
///
/// Entries are stored densely by raw node id (`None` for ids without an
/// entry). The vector never ends in `None`, so the derived equality is
/// structural; iteration is in ascending id order.
///
/// ```
/// use lsrp_graph::{generators, NodeId, RouteTable};
///
/// let g = generators::grid(3, 3, 1);
/// let dest = NodeId::new(0);
/// let table = RouteTable::legitimate(&g, dest);
/// assert!(table.is_correct(&g, dest));
/// assert!(!table.has_routing_loop(dest));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    entries: Vec<Option<RouteEntry>>,
    len: usize,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Builds the canonical legitimate table for `graph` rooted at
    /// `destination`: every node gets its true shortest distance and the
    /// smallest-id legitimate parent (deterministic tie-breaking).
    pub fn legitimate(graph: &Graph, destination: NodeId) -> Self {
        let sp = ShortestPaths::dijkstra(graph, destination);
        let mut table = RouteTable::new();
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
            table.insert(v, RouteEntry::new(d, parent));
        }
        table
    }

    /// Inserts or replaces the entry for `v`.
    pub fn insert(&mut self, v: NodeId, entry: RouteEntry) {
        let i = v.raw() as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        if self.entries[i].replace(entry).is_none() {
            self.len += 1;
        }
    }

    /// Removes the entry for `v` (e.g. after a fail-stop).
    pub fn remove(&mut self, v: NodeId) -> Option<RouteEntry> {
        let old = self.entries.get_mut(v.raw() as usize)?.take()?;
        self.len -= 1;
        while matches!(self.entries.last(), Some(None)) {
            self.entries.pop();
        }
        Some(old)
    }

    /// Empties the table (scratch-table reuse: consumers that snapshot
    /// per-destination tables repeatedly refill one table instead of
    /// building a new one per call).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Returns the entry of `v`, if present.
    pub fn entry(&self, v: NodeId) -> Option<RouteEntry> {
        self.entries.get(v.raw() as usize).copied().flatten()
    }

    /// Iterates over `(node, entry)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, RouteEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((NodeId::new(i as u32), (*e)?)))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Checks that this table is a *correct* shortest-path routing state for
    /// `graph` rooted at `destination` (the problem specification of §IV-A):
    /// every node's distance is the true shortest distance and its parent is
    /// on some shortest path (ties allowed). Returns the set of offending
    /// nodes (empty means correct).
    pub fn incorrect_nodes(&self, graph: &Graph, destination: NodeId) -> BTreeSet<NodeId> {
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
    pub fn is_correct(&self, graph: &Graph, destination: NodeId) -> bool {
        self.incorrect_nodes(graph, destination).is_empty()
    }

    /// Detects routing loops: follows parent pointers from every node and
    /// returns each distinct cycle found (as the sorted set of nodes on the
    /// cycle). A node pointing at itself is not a loop (it is the "no
    /// route" / destination convention); a parent outside the table ends
    /// the walk.
    pub fn find_loops(&self) -> Vec<BTreeSet<NodeId>> {
        const FRESH: u8 = 0;
        const ON_PATH: u8 = 1;
        const CLASSIFIED: u8 = 2;
        // Walk state by raw id. A parent outside the table's id range
        // ends its walk at once, so it never needs a state of its own.
        let mut state = vec![FRESH; self.entries.len()];
        let mut loops: Vec<BTreeSet<NodeId>> = Vec::new();
        let mut path: Vec<NodeId> = Vec::new();
        for (start, _) in self.iter() {
            if state[start.raw() as usize] == CLASSIFIED {
                continue;
            }
            // Walk parent pointers, recording the path.
            path.clear();
            let mut cur = start;
            let outcome_loop: Option<BTreeSet<NodeId>> = loop {
                match state.get_mut(cur.raw() as usize) {
                    // Joins an already classified walk: the current path
                    // is not on a new loop.
                    Some(&mut CLASSIFIED) => break None,
                    Some(&mut ON_PATH) => {
                        // Found a fresh cycle: the suffix of `path` from `cur`.
                        let pos = path.iter().position(|&x| x == cur).expect("on path");
                        break Some(path[pos..].iter().copied().collect());
                    }
                    Some(fresh) => *fresh = ON_PATH,
                    None => {}
                }
                path.push(cur);
                let next = match self.entry(cur) {
                    Some(e) if e.parent != cur => e.parent,
                    _ => break None, // self-parent or missing: no loop here
                };
                cur = next;
            };
            for v in &path {
                if let Some(s) = state.get_mut(v.raw() as usize) {
                    *s = CLASSIFIED;
                }
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
        let mut table = RouteTable::new();
        table.extend(iter);
        table
    }
}

impl Extend<(NodeId, RouteEntry)> for RouteTable {
    fn extend<I: IntoIterator<Item = (NodeId, RouteEntry)>>(&mut self, iter: I) {
        for (v, e) in iter {
            self.insert(v, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn legitimate_table_is_correct() {
        let g = generators::grid(4, 4, 1);
        let t = RouteTable::legitimate(&g, v(0));
        assert!(t.is_correct(&g, v(0)));
        assert_eq!(t.entry(v(0)).unwrap().parent, v(0));
        assert_eq!(t.entry(v(15)).unwrap().distance, Distance::Finite(6));
    }

    #[test]
    fn incorrect_distance_is_flagged() {
        let g = generators::path(3, 1);
        let mut t = RouteTable::legitimate(&g, v(0));
        t.insert(v(2), RouteEntry::new(Distance::Finite(7), v(1)));
        assert_eq!(t.incorrect_nodes(&g, v(0)), BTreeSet::from([v(2)]));
    }

    #[test]
    fn incorrect_parent_is_flagged_even_with_right_distance() {
        // Square: 0-1, 0-2, 1-3, 2-3. v3 may parent v1 or v2, but not v0.
        let mut g = Graph::new();
        g.add_edge(v(0), v(1), 1).unwrap();
        g.add_edge(v(0), v(2), 1).unwrap();
        g.add_edge(v(1), v(3), 1).unwrap();
        g.add_edge(v(2), v(3), 1).unwrap();
        let mut t = RouteTable::legitimate(&g, v(0));
        t.insert(v(3), RouteEntry::new(Distance::Finite(2), v(2)));
        assert!(
            t.is_correct(&g, v(0)),
            "equal-cost alternative parent is legitimate"
        );
        t.insert(v(3), RouteEntry::new(Distance::Finite(2), v(0)));
        assert!(
            !t.is_correct(&g, v(0)),
            "v0 is adjacent but not on a shortest path of length 2"
        );
    }

    #[test]
    fn missing_entry_is_flagged() {
        let g = generators::path(3, 1);
        let mut t = RouteTable::legitimate(&g, v(0));
        t.remove(v(1));
        assert_eq!(t.incorrect_nodes(&g, v(0)), BTreeSet::from([v(1)]));
    }

    #[test]
    fn finds_a_simple_loop() {
        let mut t = RouteTable::new();
        t.insert(v(1), RouteEntry::new(Distance::Finite(1), v(2)));
        t.insert(v(2), RouteEntry::new(Distance::Finite(2), v(3)));
        t.insert(v(3), RouteEntry::new(Distance::Finite(3), v(1)));
        t.insert(v(4), RouteEntry::new(Distance::Finite(4), v(1))); // tail into loop
        let loops = t.find_loops();
        assert_eq!(loops, vec![BTreeSet::from([v(1), v(2), v(3)])]);
        assert!(t.has_loop());
    }

    #[test]
    fn self_parent_is_not_a_loop() {
        let mut t = RouteTable::new();
        t.insert(v(0), RouteEntry::new(Distance::ZERO, v(0)));
        t.insert(v(1), RouteEntry::no_route(v(1)));
        t.insert(v(2), RouteEntry::new(Distance::Finite(1), v(0)));
        assert!(!t.has_loop());
    }

    #[test]
    fn routing_loops_ignore_cycles_through_the_destination() {
        let mut t = RouteTable::new();
        // Destination v0's parent pointer is corrupted into a 2-cycle.
        t.insert(v(0), RouteEntry::new(Distance::Finite(3), v(1)));
        t.insert(v(1), RouteEntry::new(Distance::Finite(1), v(0)));
        // A genuine loop elsewhere.
        t.insert(v(5), RouteEntry::new(Distance::Finite(1), v(6)));
        t.insert(v(6), RouteEntry::new(Distance::Finite(1), v(5)));
        assert_eq!(t.find_loops().len(), 2);
        let routing = t.find_routing_loops(v(0));
        assert_eq!(routing, vec![BTreeSet::from([v(5), v(6)])]);
        assert!(t.has_routing_loop(v(0)));
        // With only the destination-cycle present, no routing loop exists.
        t.remove(v(5));
        t.remove(v(6));
        assert!(t.has_loop());
        assert!(!t.has_routing_loop(v(0)));
    }

    #[test]
    fn two_disjoint_loops_are_both_found() {
        let mut t = RouteTable::new();
        t.insert(v(1), RouteEntry::new(Distance::Finite(1), v(2)));
        t.insert(v(2), RouteEntry::new(Distance::Finite(1), v(1)));
        t.insert(v(5), RouteEntry::new(Distance::Finite(1), v(6)));
        t.insert(v(6), RouteEntry::new(Distance::Finite(1), v(7)));
        t.insert(v(7), RouteEntry::new(Distance::Finite(1), v(5)));
        let loops = t.find_loops();
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn legitimate_on_disconnected_graph_uses_no_route() {
        let mut g = generators::path(3, 1);
        g.add_node(v(9));
        let t = RouteTable::legitimate(&g, v(0));
        assert_eq!(t.entry(v(9)).unwrap(), RouteEntry::no_route(v(9)));
        assert!(t.is_correct(&g, v(0)));
    }

    #[test]
    fn from_iterator_collects() {
        let t: RouteTable = (0..3).map(|i| (v(i), RouteEntry::no_route(v(i)))).collect();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
