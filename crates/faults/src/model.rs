//! The indexed topology model behind [`crate::process::FaultProcess`].
//!
//! A fault process only ever removes and re-adds nodes and edges of the
//! graph it was given, so both universes are fixed: nodes are ranked once
//! in [`Graph::nodes`] order and edges once in [`Graph::edges`] order, and
//! the evolving topology is a few flag arrays over those ranks. Each
//! candidate set the generator draws from is a [`RankSet`] — a Fenwick
//! tree over one flag array — so "the `k`-th candidate in canonical order"
//! costs `O(log n)` instead of a scan that collects every candidate.

use rand::rngs::StdRng;
use rand::Rng;

use lsrp_graph::{Graph, NodeId, Weight};

#[cfg(test)]
thread_local! {
    /// Fenwick steps plus adjacency entries visited on this thread.
    pub(crate) static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one step towards `STEPS`; nothing outside tests.
fn visit() {
    #[cfg(test)]
    STEPS.with(|c| c.set(c.get() + 1));
}

/// A subset of the ranks `0..n` that counts its members and finds the
/// `k`-th smallest in `O(log n)`.
#[derive(Debug)]
pub(crate) struct RankSet {
    member: Vec<bool>,
    /// Fenwick tree over `member`, 1-indexed.
    tree: Vec<u32>,
    count: usize,
}

impl RankSet {
    pub(crate) fn new(member: Vec<bool>) -> Self {
        let n = member.len();
        let mut tree = vec![0u32; n + 1];
        for i in 1..=n {
            tree[i] += u32::from(member[i - 1]);
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        let count = member.iter().filter(|&&m| m).count();
        RankSet {
            member,
            tree,
            count,
        }
    }

    pub(crate) fn set(&mut self, rank: usize, on: bool) {
        if self.member[rank] == on {
            return;
        }
        self.member[rank] = on;
        let mut i = rank + 1;
        while i < self.tree.len() {
            visit();
            if on {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
        if on {
            self.count += 1;
        } else {
            self.count -= 1;
        }
    }

    /// The `k`-th smallest member, `k < count`.
    fn select(&self, mut k: usize) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0;
        let mut step = n.checked_ilog2().map_or(0, |b| 1usize << b);
        while step > 0 {
            visit();
            let next = pos + step;
            if next <= n && self.tree[next] as usize <= k {
                pos = next;
                k -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        pos
    }

    /// A uniformly random member, as `slice.choose(rng)` over the members
    /// in ascending order would pick it: one `gen_range(0..count)`, and no
    /// draw at all from an empty set.
    pub(crate) fn choose(&self, rng: &mut StdRng) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        Some(self.select(rng.gen_range(0..self.count)))
    }
}

/// The evolving topology, indexed by node and edge rank.
#[derive(Debug)]
pub(crate) struct Model {
    /// Node rank → id, ascending.
    nodes: Vec<NodeId>,
    /// Edge rank → endpoint ranks `(a, b)` with `a < b`, in
    /// [`Graph::edges`] order.
    ends: Vec<(u32, u32)>,
    /// Current cost of each edge; for an absent edge, what it last was.
    weight: Vec<Weight>,
    /// CSR adjacency of the original graph: node rank → `(neighbor, edge)`
    /// ranks, neighbors ascending.
    adj_start: Vec<u32>,
    adj: Vec<(u32, u32)>,
    live: Vec<bool>,
    live_count: usize,
    present: Vec<bool>,
    /// Present incident edges per node.
    degree: Vec<u32>,
    drifting: Vec<bool>,
    /// Live nodes other than the destination.
    victims: RankSet,
    /// Present edges whose endpoints both have degree > 1.
    flappable: RankSet,
    /// Present edges with no weight restore pending.
    driftable: RankSet,
    destination: u32,
    /// Region membership: `stamp[v] == epoch` while a cut is being grown.
    stamp: Vec<u32>,
    epoch: u32,
}

impl Model {
    pub(crate) fn new(graph: &Graph, destination: NodeId) -> Self {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let rank = |v: NodeId| nodes.binary_search(&v).expect("endpoint is a node") as u32;
        let mut ends = Vec::new();
        let mut weight = Vec::new();
        let mut degree = vec![0u32; nodes.len()];
        for (a, b, w) in graph.edges() {
            let (a, b) = (rank(a), rank(b));
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            ends.push((a, b));
            weight.push(w);
        }
        let mut adj_start = vec![0u32; nodes.len() + 1];
        for (v, d) in degree.iter().enumerate() {
            adj_start[v + 1] = adj_start[v] + d;
        }
        // Filling in edge order leaves each node's neighbors ascending:
        // its smaller neighbors arrive first (edges sort by their smaller
        // endpoint), then its larger ones in order.
        let mut fill = adj_start.clone();
        let mut adj = vec![(0u32, 0u32); 2 * ends.len()];
        for (e, &(a, b)) in ends.iter().enumerate() {
            for (x, y) in [(a, b), (b, a)] {
                adj[fill[x as usize] as usize] = (y, e as u32);
                fill[x as usize] += 1;
            }
        }
        let destination = rank(destination);
        let victims = RankSet::new((0..nodes.len() as u32).map(|v| v != destination).collect());
        let flappable = RankSet::new(
            ends.iter()
                .map(|&(a, b)| degree[a as usize] > 1 && degree[b as usize] > 1)
                .collect(),
        );
        let driftable = RankSet::new(vec![true; ends.len()]);
        Model {
            live: vec![true; nodes.len()],
            live_count: nodes.len(),
            present: vec![true; ends.len()],
            drifting: vec![false; ends.len()],
            stamp: vec![0; nodes.len()],
            epoch: 0,
            destination,
            nodes,
            ends,
            weight,
            adj_start,
            adj,
            degree,
            victims,
            flappable,
            driftable,
        }
    }

    pub(crate) fn node(&self, v: u32) -> NodeId {
        self.nodes[v as usize]
    }

    /// Every node of the original graph, ascending.
    pub(crate) fn original_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    pub(crate) fn live_count(&self) -> usize {
        self.live_count
    }

    pub(crate) fn is_live(&self, v: u32) -> bool {
        self.live[v as usize]
    }

    pub(crate) fn is_present(&self, e: u32) -> bool {
        self.present[e as usize]
    }

    /// Edge `e` as the `(a, b, w)` triple [`Graph::edges`] yields.
    pub(crate) fn edge(&self, e: u32) -> (NodeId, NodeId, Weight) {
        let (a, b) = self.ends[e as usize];
        (self.node(a), self.node(b), self.weight[e as usize])
    }

    pub(crate) fn ends(&self, e: u32) -> (u32, u32) {
        self.ends[e as usize]
    }

    /// The present edges at `v` as `(neighbor, edge)`, neighbors ascending.
    pub(crate) fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (self.adj_start[v as usize], self.adj_start[v as usize + 1]);
        self.adj[lo as usize..hi as usize]
            .iter()
            .copied()
            .filter(|&(_, e)| {
                visit();
                self.present[e as usize]
            })
    }

    pub(crate) fn choose_victim(&self, rng: &mut StdRng) -> Option<u32> {
        self.victims.choose(rng).map(|v| v as u32)
    }

    pub(crate) fn choose_flappable(&self, rng: &mut StdRng) -> Option<u32> {
        self.flappable.choose(rng).map(|e| e as u32)
    }

    pub(crate) fn choose_driftable(&self, rng: &mut StdRng) -> Option<u32> {
        self.driftable.choose(rng).map(|e| e as u32)
    }

    fn is_flappable(&self, e: usize) -> bool {
        let (a, b) = self.ends[e];
        self.present[e] && self.degree[a as usize] > 1 && self.degree[b as usize] > 1
    }

    /// Removes edge `e` from the topology.
    pub(crate) fn remove_edge(&mut self, e: u32) {
        self.set_present(e as usize, false);
    }

    /// Re-adds edge `e` at cost `w`.
    pub(crate) fn add_edge(&mut self, e: u32, w: Weight) {
        self.weight[e as usize] = w;
        self.set_present(e as usize, true);
    }

    fn set_present(&mut self, e: usize, on: bool) {
        debug_assert_ne!(self.present[e], on, "edge toggles alternate");
        self.present[e] = on;
        let (a, b) = self.ends[e];
        for x in [a as usize, b as usize] {
            if on {
                self.degree[x] += 1;
            } else {
                self.degree[x] -= 1;
            }
        }
        self.flappable.set(e, self.is_flappable(e));
        self.driftable.set(e, on && !self.drifting[e]);
        // A degree crossing 1 ↔ 2 flips whether the node's other edges can
        // flap without isolating it.
        let crossed = if on { 2 } else { 1 };
        for x in [a as usize, b as usize] {
            if self.degree[x] != crossed {
                continue;
            }
            for i in self.adj_start[x]..self.adj_start[x + 1] {
                visit();
                let f = self.adj[i as usize].1 as usize;
                if self.present[f] {
                    self.flappable.set(f, self.is_flappable(f));
                }
            }
        }
    }

    /// Crashes node `v`, dropping its present edges; returns them as
    /// `(neighbor, edge, weight)`, neighbors ascending.
    pub(crate) fn remove_node(&mut self, v: u32) -> Vec<(u32, u32, Weight)> {
        let edges: Vec<(u32, u32, Weight)> = self
            .neighbors(v)
            .map(|(n, e)| (n, e, self.weight[e as usize]))
            .collect();
        for &(_, e, _) in &edges {
            self.remove_edge(e);
        }
        self.live[v as usize] = false;
        self.live_count -= 1;
        self.victims.set(v as usize, false);
        edges
    }

    /// Brings the crashed node `v` back with no edges. The destination
    /// never crashes, so every node that rejoins is a victim candidate.
    pub(crate) fn add_node(&mut self, v: u32) {
        self.live[v as usize] = true;
        self.live_count += 1;
        self.victims.set(v as usize, true);
    }

    /// Re-costs edge `e`.
    pub(crate) fn set_weight(&mut self, e: u32, w: Weight) {
        self.weight[e as usize] = w;
    }

    /// Records whether a weight restore is owed on `e` (up or not), which
    /// bars it from drifting again.
    pub(crate) fn set_drifting(&mut self, e: u32, on: bool) {
        let e = e as usize;
        self.drifting[e] = on;
        self.driftable.set(e, self.present[e] && !on);
    }

    /// Grows a connected region of up to `target` nodes from `seed`,
    /// never absorbing the destination, and returns the present edges that
    /// leave it, in edge-rank order.
    pub(crate) fn cut_around(&mut self, seed: u32, target: usize) -> Vec<u32> {
        let destination = self.destination;
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamp[seed as usize] = epoch;
        let mut region = vec![seed];
        let mut frontier = vec![seed];
        while region.len() < target {
            let Some(v) = frontier.pop() else { break };
            let (lo, hi) = (self.adj_start[v as usize], self.adj_start[v as usize + 1]);
            for &(n, e) in &self.adj[lo as usize..hi as usize] {
                if region.len() == target {
                    break;
                }
                visit();
                if self.present[e as usize] && n != destination && self.stamp[n as usize] != epoch {
                    self.stamp[n as usize] = epoch;
                    region.push(n);
                    frontier.push(n);
                }
            }
        }
        // Each cut edge has exactly one endpoint inside, so it is seen once.
        let mut cut: Vec<u32> = region
            .iter()
            .flat_map(|&v| self.neighbors(v))
            .filter(|&(n, _)| self.stamp[n as usize] != epoch)
            .map(|(_, e)| e)
            .collect();
        cut.sort_unstable();
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rank_set_selects_in_ascending_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 64, 100] {
            let mut member: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut set = RankSet::new(member.clone());
            for round in 0..3 {
                let want: Vec<usize> = (0..n).filter(|&i| member[i]).collect();
                assert_eq!(set.count, want.len());
                let got: Vec<usize> = (0..want.len()).map(|k| set.select(k)).collect();
                assert_eq!(got, want, "n={n} round={round}");
                for (i, m) in member.iter_mut().enumerate() {
                    if rng.gen_bool(0.3) {
                        *m = !*m;
                        set.set(i, *m);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_rank_set_draws_nothing() {
        let set = RankSet::new(vec![false; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut untouched = rng.clone();
        assert_eq!(set.choose(&mut rng), None);
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }
}
