//! Deterministic topology generators for experiments and tests.
//!
//! All random generators take an explicit RNG so that every experiment in
//! the repository is reproducible from a seed. Node ids are dense from 0.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Graph;
use crate::id::{NodeId, Weight};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A path `v0 - v1 - ... - v(n-1)` with uniform edge weight.
///
/// # Panics
///
/// Panics if `n == 0` or `weight == 0`.
pub fn path(n: u32, weight: Weight) -> Graph {
    assert!(n > 0, "path needs at least one node");
    let mut g = Graph::new();
    g.add_node(v(0));
    for i in 1..n {
        g.add_edge(v(i - 1), v(i), weight).expect("fresh edge");
    }
    g
}

/// A ring of `n >= 3` nodes with uniform edge weight.
///
/// # Panics
///
/// Panics if `n < 3` or `weight == 0`.
pub fn ring(n: u32, weight: Weight) -> Graph {
    assert!(n >= 3, "ring needs at least three nodes");
    let mut g = path(n, weight);
    g.add_edge(v(n - 1), v(0), weight).expect("fresh edge");
    g
}

/// A star: `v0` in the middle, `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n < 2` or `weight == 0`.
pub fn star(n: u32, weight: Weight) -> Graph {
    assert!(n >= 2, "star needs at least two nodes");
    let mut g = Graph::new();
    for i in 1..n {
        g.add_edge(v(0), v(i), weight).expect("fresh edge");
    }
    g
}

/// A complete graph on `n` nodes.
///
/// # Panics
///
/// Panics if `n < 2` or `weight == 0`.
pub fn complete(n: u32, weight: Weight) -> Graph {
    assert!(n >= 2, "complete graph needs at least two nodes");
    let mut g = Graph::new();
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(v(a), v(b), weight).expect("fresh edge");
        }
    }
    g
}

/// A `width x height` grid with uniform edge weight; node `(x, y)` has id
/// `y * width + x`. Grids are the paper's go-to dense-ish topology for
/// locality experiments (perturbation regions are geometric).
///
/// # Panics
///
/// Panics if either dimension is zero or `weight == 0`.
pub fn grid(width: u32, height: u32, weight: Weight) -> Graph {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    let id = |x: u32, y: u32| v(y * width + x);
    let mut g = Graph::new();
    g.add_node(id(0, 0));
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                g.add_edge(id(x, y), id(x + 1, y), weight)
                    .expect("fresh edge");
            }
            if y + 1 < height {
                g.add_edge(id(x, y), id(x, y + 1), weight)
                    .expect("fresh edge");
            }
        }
    }
    g
}

/// A balanced `arity`-ary tree with `depth` levels below the root (so
/// `(arity^(depth+1) - 1) / (arity - 1)` nodes). The root is `v0`.
/// Trees maximize fault propagation depth (worst case for DBF).
///
/// # Panics
///
/// Panics if `arity < 2` or `weight == 0`.
pub fn balanced_tree(arity: u32, depth: u32, weight: Weight) -> Graph {
    assert!(arity >= 2, "tree arity must be at least 2");
    let mut g = Graph::new();
    g.add_node(v(0));
    let mut next = 1u32;
    let mut frontier = vec![v(0)];
    for _ in 0..depth {
        let mut new_frontier = Vec::new();
        for parent in frontier {
            for _ in 0..arity {
                let child = v(next);
                next += 1;
                g.add_edge(parent, child, weight).expect("fresh edge");
                new_frontier.push(child);
            }
        }
        frontier = new_frontier;
    }
    g
}

/// A uniformly random spanning tree on `n` nodes (random attachment),
/// with edge weights drawn uniformly from `1..=max_weight`.
///
/// # Panics
///
/// Panics if `n == 0` or `max_weight == 0`.
pub fn random_tree<R: Rng>(n: u32, max_weight: Weight, rng: &mut R) -> Graph {
    assert!(n > 0, "tree needs at least one node");
    assert!(max_weight > 0, "weights must be positive");
    let mut g = Graph::new();
    g.add_node(v(0));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        let w = rng.gen_range(1..=max_weight);
        g.add_edge(v(parent), v(i), w).expect("fresh edge");
    }
    g
}

/// A connected Erdős–Rényi-style graph: a random spanning tree plus each
/// remaining pair independently with probability `p`. Weights uniform in
/// `1..=max_weight`.
///
/// # Panics
///
/// Panics if `n == 0`, `max_weight == 0`, or `p` is not in `[0, 1]`.
pub fn connected_erdos_renyi<R: Rng>(n: u32, p: f64, max_weight: Weight, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut g = random_tree(n, max_weight, rng);
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(v(a), v(b)) && rng.gen_bool(p) {
                let w = rng.gen_range(1..=max_weight);
                g.add_edge(v(a), v(b), w).expect("fresh edge");
            }
        }
    }
    g
}

/// A connected random geometric graph: `n` points uniform in the unit
/// square, edges between points within `radius`, patched to connectivity by
/// linking each stranded component to its nearest neighbor component. This
/// mimics the wireless-sensor-network topologies of §VI-A (dense local
/// connectivity).
///
/// Weights are 1 (hop metric, as in sensor networks).
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn random_geometric<R: Rng>(n: u32, radius: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "geometric graph needs at least one node");
    assert!(radius > 0.0, "radius must be positive");
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(v(i));
    }
    let r2 = radius * radius;
    let d2 = |a: (f64, f64), b: (f64, f64)| {
        let dx = a.0 - b.0;
        let dy = a.1 - b.1;
        dx * dx + dy * dy
    };
    for a in 0..n as usize {
        for b in (a + 1)..n as usize {
            if d2(points[a], points[b]) <= r2 {
                g.add_edge(v(a as u32), v(b as u32), 1).expect("fresh edge");
            }
        }
    }
    // Patch connectivity: repeatedly connect the component containing v0 to
    // the geometrically closest outside node.
    loop {
        let comp = g.component_of(v(0));
        if comp.len() == n as usize {
            break;
        }
        let mut best: Option<(NodeId, NodeId, f64)> = None;
        for &a in &comp {
            for b in g.nodes() {
                if comp.contains(&b) {
                    continue;
                }
                let d = d2(points[a.raw() as usize], points[b.raw() as usize]);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        let (a, b, _) = best.expect("disconnected graph has an outside node");
        g.add_edge(a, b, 1).expect("fresh edge");
    }
    g
}

/// A ring of length `loop_len` with a "chord" path of `tail_len` nodes
/// attaching the ring to the destination `v0`:
///
/// ```text
/// v0 - t1 - ... - t_tail - r0 - r1 - ... - r_{L-1} - r0
/// ```
///
/// Used by the loop-breakage experiment (E9): corrupting the ring's parent
/// pointers creates a routing loop of length `loop_len`.
///
/// # Panics
///
/// Panics if `loop_len < 3` or `weight == 0`.
pub fn lollipop(tail_len: u32, loop_len: u32, weight: Weight) -> Graph {
    assert!(loop_len >= 3, "loop needs at least three nodes");
    let mut g = path(tail_len + 1, weight); // v0 .. v_tail
    let first_ring = tail_len + 1;
    // ring nodes: first_ring .. first_ring + loop_len - 1
    g.add_edge(v(tail_len), v(first_ring), weight)
        .expect("fresh edge");
    for i in 0..loop_len - 1 {
        g.add_edge(v(first_ring + i), v(first_ring + i + 1), weight)
            .expect("fresh edge");
    }
    g.add_edge(v(first_ring + loop_len - 1), v(first_ring), weight)
        .expect("fresh edge");
    g
}

/// Returns the ids of the ring nodes of a [`lollipop`] graph, in ring order
/// starting at the attachment point.
pub fn lollipop_ring(tail_len: u32, loop_len: u32) -> Vec<NodeId> {
    (0..loop_len).map(|i| v(tail_len + 1 + i)).collect()
}

/// The Barabási–Albert power-law graph: growth plus preferential
/// attachment. Starting from a complete core of `m + 1` nodes, each
/// newcomer attaches to `m` distinct existing nodes chosen with
/// probability proportional to their current degree, yielding the
/// heavy-tailed `P(k) ~ k^-3` degree distributions of Internet-like
/// topologies (hub routers) — the power-law end of the topology zoo,
/// complementing the geometric sensor-network model of §VI-A and the
/// Waxman transit-stub model.
///
/// Degree-proportional sampling is by endpoint pool (every node appears
/// once per incident edge), the textbook O(1)-per-draw construction.
/// The result is always connected: the core is complete and every
/// newcomer links into it. Weights are 1.
///
/// # Panics
///
/// Panics if `m == 0` or `n <= m`.
pub fn barabasi_albert<R: Rng>(n: u32, m: u32, rng: &mut R) -> Graph {
    assert!(m >= 1, "each newcomer needs at least one edge");
    assert!(n > m, "need more nodes than attachment edges");
    let mut g = complete(m + 1, 1);
    // Endpoint pool: each node appears once per incident edge, giving
    // degree-proportional sampling.
    let mut pool: Vec<NodeId> = g.edges().flat_map(|(a, b, _)| [a, b]).collect();
    for i in (m + 1)..n {
        let newcomer = v(i);
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m as usize {
            let t = pool[rng.gen_range(0..pool.len())];
            targets.insert(t);
        }
        for t in targets {
            g.add_edge(newcomer, t, 1).expect("fresh edge");
            pool.push(newcomer);
            pool.push(t);
        }
    }
    g
}

/// Historical alias for [`barabasi_albert`] (the construction has always
/// been the BA model; the canonical name landed with the region-parallel
/// engine's topology-zoo pass). Prefer [`barabasi_albert`] in new code.
pub fn preferential_attachment<R: Rng>(n: u32, m: u32, rng: &mut R) -> Graph {
    barabasi_albert(n, m, rng)
}

/// A Waxman random graph: `n` points uniform in the unit square, each
/// pair `(u, v)` linked with probability
/// `beta * exp(-d(u, v) / (alpha * L))` where `L = sqrt(2)` is the
/// diagonal — the classic Internet-topology model (RFC 2903-era
/// transit-stub studies), patched to connectivity like
/// [`random_geometric`]. Weights are 1.
///
/// Pairs whose link probability falls below a fixed cutoff (`1e-9`) are
/// never linked; that truncation is what lets the generator run a
/// spatial hash over candidate pairs instead of the O(n²) sweep, so
/// 100k-node graphs build in seconds. With the small `alpha` values
/// such sizes need (long links are exponentially suppressed), the
/// truncated model is the Waxman model for every practical purpose.
///
/// # Panics
///
/// Panics if `n == 0`, `alpha <= 0`, or `beta` is not in `(0, 1]`.
pub fn waxman<R: Rng>(n: u32, alpha: f64, beta: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "waxman graph needs at least one node");
    assert!(alpha > 0.0, "alpha must be positive");
    assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
    let l = std::f64::consts::SQRT_2;
    // Distance beyond which p(u, v) < CUTOFF: never linked, never drawn.
    const CUTOFF: f64 = 1e-9;
    let radius = (alpha * l * (beta / CUTOFF).ln()).min(l);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let cells = SpatialHash::new(&points, radius);
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(v(i));
    }
    let d = |a: usize, b: usize| {
        let (ax, ay) = points[a];
        let (bx, by) = points[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    };
    // Candidate pairs in ascending (i, j) order so the RNG consumption
    // order — hence the graph — is a pure function of the seed.
    let mut candidates: Vec<u32> = Vec::new();
    for i in 0..n as usize {
        cells.later_neighbors_within(i, &points, radius, &mut candidates);
        candidates.sort_unstable();
        for &j in &candidates {
            let p = beta * (-d(i, j as usize) / (alpha * l)).exp();
            if p >= CUTOFF && rng.gen_bool(p.min(1.0)) {
                g.add_edge(v(i as u32), v(j), 1).expect("fresh edge");
            }
        }
    }
    patch_connectivity(&mut g, &points);
    g
}

/// A uniform grid of buckets over the unit square, sized so that any two
/// points within `radius` share a bucket or sit in adjacent ones.
struct SpatialHash {
    side: usize,
    buckets: Vec<Vec<u32>>,
}

impl SpatialHash {
    fn new(points: &[(f64, f64)], radius: f64) -> Self {
        // At least 1 cell; cap the resolution so tiny radii on few points
        // don't allocate millions of empty buckets.
        let max_side = ((points.len() as f64).sqrt().ceil() as usize).max(1);
        let side = ((1.0 / radius).floor() as usize).clamp(1, max_side);
        let mut buckets = vec![Vec::new(); side * side];
        for (i, &(x, y)) in points.iter().enumerate() {
            buckets[Self::cell(side, x, y)].push(i as u32);
        }
        SpatialHash { side, buckets }
    }

    fn cell(side: usize, x: f64, y: f64) -> usize {
        let cx = ((x * side as f64) as usize).min(side - 1);
        let cy = ((y * side as f64) as usize).min(side - 1);
        cy * side + cx
    }

    /// Collects (into `out`) every point `j > i` within `radius` of point
    /// `i` — each unordered pair once, from its smaller end. Order is
    /// unspecified; callers sort.
    fn later_neighbors_within(
        &self,
        i: usize,
        points: &[(f64, f64)],
        radius: f64,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let (x, y) = points[i];
        let r2 = radius * radius;
        let span = (radius * self.side as f64).ceil() as isize;
        let cx = ((x * self.side as f64) as isize).min(self.side as isize - 1);
        let cy = ((y * self.side as f64) as isize).min(self.side as isize - 1);
        for by in (cy - span).max(0)..=(cy + span).min(self.side as isize - 1) {
            for bx in (cx - span).max(0)..=(cx + span).min(self.side as isize - 1) {
                for &j in &self.buckets[by as usize * self.side + bx as usize] {
                    if j as usize <= i {
                        continue;
                    }
                    let (jx, jy) = points[j as usize];
                    if (jx - x).powi(2) + (jy - y).powi(2) <= r2 {
                        out.push(j);
                    }
                }
            }
        }
    }
}

/// Links every stranded component to the geometrically nearest node of
/// the component containing the smallest node id, using an expanding
/// ring search over a spatial hash. Unlike the O(n² · components) scan in
/// [`random_geometric`], this stays feasible at 100k nodes.
///
/// The search is exact — it returns the minimum of `(d², absorbed id,
/// member id)` over all pairs — so the chosen edges do not depend on the
/// grid, which is therefore sized for the search itself (≈ 2 points per
/// cell) rather than shared with the candidate-pair hash, whose cells
/// span a whole link radius and hold dozens of points each.
fn patch_connectivity(g: &mut Graph, points: &[(f64, f64)]) {
    // Union the components in ascending min-id order: each later
    // component attaches to the nearest node already absorbed.
    let mut comp = vec![u32::MAX; points.len()];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    for start in g.nodes() {
        if comp[start.raw() as usize] != u32::MAX {
            continue;
        }
        let c = comps.len() as u32;
        let mut stack = vec![start];
        let mut members = Vec::new();
        comp[start.raw() as usize] = c;
        while let Some(u) = stack.pop() {
            members.push(u.raw());
            for (nb, _) in g.neighbors(u) {
                if comp[nb.raw() as usize] == u32::MAX {
                    comp[nb.raw() as usize] = c;
                    stack.push(nb);
                }
            }
        }
        comps.push(members);
    }
    if comps.len() <= 1 {
        return;
    }
    // `absorbed[i]`: whether point i is in the growing main component.
    let mut absorbed = vec![false; points.len()];
    for &i in &comps[0] {
        absorbed[i as usize] = true;
    }
    let cells = SpatialHash::new(points, (2.0 / points.len() as f64).sqrt());
    let side = cells.side as isize;
    for members in &comps[1..] {
        // Nearest (absorbed, stranded) pair over the whole component,
        // found by expanding the bucket ring around each member.
        let mut best: Option<(f64, u32, u32)> = None; // (dist², absorbed, member)
        for &m in members {
            let (x, y) = points[m as usize];
            let cx = ((x * side as f64) as isize).min(side - 1);
            let cy = ((y * side as f64) as isize).min(side - 1);
            'rings: for ring in 0..side.max(1) {
                for by in (cy - ring).max(0)..=(cy + ring).min(side - 1) {
                    for bx in (cx - ring).max(0)..=(cx + ring).min(side - 1) {
                        if (by - cy).abs() < ring && (bx - cx).abs() < ring {
                            continue; // interior: already scanned
                        }
                        for &j in &cells.buckets[(by * side + bx) as usize] {
                            if !absorbed[j as usize] {
                                continue;
                            }
                            let (jx, jy) = points[j as usize];
                            let d2 = (jx - x).powi(2) + (jy - y).powi(2);
                            let key = (d2, j, m);
                            if best.is_none_or(|(bd, bj, bm)| key < (bd, bj, bm)) {
                                best = Some(key);
                            }
                        }
                    }
                }
                // A hit one ring out can still beat the current best by
                // Euclidean distance, so scan one extra ring past the
                // first hit before stopping.
                if let Some((bd, _, _)) = best {
                    let ring_dist = (ring.max(0) as f64 - 1.0).max(0.0) / side as f64;
                    if bd.sqrt() <= ring_dist {
                        break 'rings;
                    }
                }
            }
        }
        let (_, a, m) = best.expect("main component is non-empty");
        g.add_edge(v(a), v(m), 1)
            .expect("cross-component edge is fresh");
        for &i in members {
            absorbed[i as usize] = true;
        }
    }
}

/// A ring of `k` cliques of `m` nodes each: clique `c` spans ids
/// `c*m ..= c*m + m - 1` as a complete subgraph, and consecutive cliques
/// are joined by a single edge between their first nodes. High local
/// redundancy with narrow inter-region cuts — the worst case for
/// perturbation containment (a fault next to a cut contaminates the
/// gateway immediately).
///
/// # Panics
///
/// Panics if `k < 3`, `m < 2`, or `weight == 0`.
pub fn ring_of_cliques(k: u32, m: u32, weight: Weight) -> Graph {
    assert!(k >= 3, "ring of cliques needs at least three cliques");
    assert!(m >= 2, "cliques need at least two nodes");
    let mut g = Graph::new();
    for c in 0..k {
        let base = c * m;
        for a in 0..m {
            for b in (a + 1)..m {
                g.add_edge(v(base + a), v(base + b), weight)
                    .expect("fresh edge");
            }
        }
    }
    for c in 0..k {
        g.add_edge(v(c * m), v(((c + 1) % k) * m), weight)
            .expect("fresh edge");
    }
    g
}

/// A three-tier k-ary fat-tree (Clos) with hosts — the standard
/// datacenter fabric: `(k/2)²` core switches; `k` pods of `k/2`
/// aggregation and `k/2` edge switches; `k/2` hosts per edge switch.
/// Aggregation switch `j` of each pod uplinks to cores
/// `j*(k/2) .. (j+1)*(k/2)` and downlinks to every edge switch in its
/// pod; hosts hang off their edge switch. Total `5k²/4 + k³/4` nodes
/// (`k = 76` ≈ 117k nodes), diameter 6, all weights 1.
///
/// Id layout: cores `0 .. (k/2)²`, then pod switches (per pod: `k/2`
/// aggregation then `k/2` edge), then hosts grouped by edge switch.
///
/// # Panics
///
/// Panics if `k < 2` or `k` is odd.
pub fn fat_tree(k: u32) -> Graph {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let cores = half * half;
    let pod_base = |p: u32| cores + p * k;
    let host_base = cores + k * k;
    let mut g = Graph::new();
    for p in 0..k {
        for j in 0..half {
            let agg = pod_base(p) + j;
            for c in (j * half)..((j + 1) * half) {
                g.add_edge(v(agg), v(c), 1).expect("fresh edge");
            }
            for e in 0..half {
                let edge = pod_base(p) + half + e;
                g.add_edge(v(agg), v(edge), 1).expect("fresh edge");
            }
        }
        for e in 0..half {
            let edge = pod_base(p) + half + e;
            for h in 0..half {
                let host = host_base + ((p * half + e) * half) + h;
                g.add_edge(v(edge), v(host), 1).expect("fresh edge");
            }
        }
    }
    g
}

/// Shuffles node labels of a graph (relabeling by a random permutation)
/// while keeping ids dense. Useful in property tests to rule out
/// id-ordering artifacts.
pub fn relabel<R: Rng>(graph: &Graph, rng: &mut R) -> Graph {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut perm = nodes.clone();
    perm.shuffle(rng);
    let map: std::collections::BTreeMap<NodeId, NodeId> = nodes.iter().copied().zip(perm).collect();
    let mut g = Graph::new();
    for n in graph.nodes() {
        g.add_node(map[&n]);
    }
    for (a, b, w) in graph.edges() {
        g.add_edge(map[&a], map[&b], w)
            .expect("permutation preserves simple edges");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_ring_shapes() {
        let p = path(5, 2);
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.edge_count(), 4);
        let r = ring(5, 2);
        assert_eq!(r.edge_count(), 5);
        assert!(r.is_connected());
    }

    #[test]
    fn grid_shape_and_degrees() {
        let g = grid(3, 4, 1);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert_eq!(g.degree(v(0)), 2); // corner
        assert_eq!(g.degree(v(4)), 4); // interior (1,1)
    }

    #[test]
    fn star_and_complete() {
        let s = star(6, 1);
        assert_eq!(s.degree(v(0)), 5);
        let k = complete(5, 1);
        assert_eq!(k.edge_count(), 10);
    }

    #[test]
    fn balanced_tree_node_count() {
        let t = balanced_tree(2, 3, 1);
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.edge_count(), 14);
        assert!(t.is_connected());
    }

    #[test]
    fn random_generators_are_connected_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = connected_erdos_renyi(40, 0.05, 4, &mut rng);
        assert!(a.is_connected());
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = connected_erdos_renyi(40, 0.05, 4, &mut rng2);
        assert_eq!(a, b, "same seed must give the same graph");

        let mut rng3 = StdRng::seed_from_u64(9);
        let geo = random_geometric(50, 0.12, &mut rng3);
        assert!(geo.is_connected());
        assert_eq!(geo.node_count(), 50);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_tree(30, 5, &mut rng);
        assert_eq!(t.edge_count(), 29);
        assert!(t.is_connected());
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(3, 6, 1);
        // 4 tail nodes (v0..v3) + 6 ring nodes.
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 3 + 1 + 6);
        let ring = lollipop_ring(3, 6);
        assert_eq!(ring.len(), 6);
        assert_eq!(ring[0], v(4));
        assert!(g.has_edge(ring[5], ring[0]));
        assert!(g.is_connected());
    }

    #[test]
    fn preferential_attachment_is_connected_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = preferential_attachment(120, 2, &mut rng);
        assert_eq!(g.node_count(), 120);
        assert!(g.is_connected());
        // Edge count: complete(3) + 2 per newcomer.
        assert_eq!(g.edge_count(), 3 + 2 * (120 - 3));
        // Heavy tail: the max degree dwarfs the minimum attachment degree.
        let max_deg = g.nodes().map(|n| g.degree(n)).max().unwrap();
        assert!(max_deg >= 10, "no hub emerged: max degree {max_deg}");
    }

    #[test]
    #[should_panic(expected = "more nodes than attachment edges")]
    fn preferential_attachment_rejects_tiny_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = preferential_attachment(2, 2, &mut rng);
    }

    #[test]
    fn relabel_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = grid(4, 4, 1);
        let h = relabel(&g, &mut rng);
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.hop_diameter(), g.hop_diameter());
    }

    #[test]
    #[should_panic(expected = "ring needs at least three nodes")]
    fn tiny_ring_panics() {
        let _ = ring(2, 1);
    }

    #[test]
    fn waxman_is_connected_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = waxman(200, 0.08, 0.7, &mut rng);
        assert_eq!(a.node_count(), 200);
        assert!(a.is_connected());
        let mut rng2 = StdRng::seed_from_u64(5);
        let b = waxman(200, 0.08, 0.7, &mut rng2);
        assert_eq!(a, b, "same seed must give the same graph");
        let mut rng3 = StdRng::seed_from_u64(6);
        let c = waxman(200, 0.08, 0.7, &mut rng3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn waxman_edge_lists_are_pinned() {
        // FNV-1a over `(a, b, w)` in `Graph::edges` order, recorded before
        // the pair collection and the patch grid were made cheaper: a
        // dense small graph, one that is nearly all patch edges, and the
        // benchmark's storm shape (mean degree ≈ 2, many stranded nodes).
        let golden: [(u32, f64, f64, u64, usize, u64); 3] = [
            (300, 0.08, 0.7, 7, 1_774, 0xc1ba_7653_7bc4_b1ae),
            (5_000, 0.002, 0.5, 3, 5_001, 0x92c7_fb16_07a2_346f),
            (
                10_000,
                0.001 * 10f64.sqrt(),
                1.0,
                42,
                10_557,
                0x4030_8ea7_f28c_9a4b,
            ),
        ];
        for (n, alpha, beta, seed, edges, hash) in golden {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = waxman(n, alpha, beta, &mut rng);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (a, b, w) in g.edges() {
                for x in [u64::from(a.raw()), u64::from(b.raw()), w] {
                    h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                (g.edge_count(), h),
                (edges, hash),
                "waxman({n}, {alpha}, {beta}) seed {seed}"
            );
        }
    }

    #[test]
    fn waxman_locality_suppresses_long_links() {
        // With small alpha nearly all edges are short: mean degree stays
        // modest even with beta = 1.
        let mut rng = StdRng::seed_from_u64(42);
        let g = waxman(2000, 0.01, 1.0, &mut rng);
        assert!(g.is_connected());
        let mean_degree = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            mean_degree < 12.0,
            "alpha=0.01 should stay sparse, got mean degree {mean_degree}"
        );
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 5, 1);
        assert_eq!(g.node_count(), 20);
        // 4 cliques of C(5,2)=10 edges + 4 ring edges.
        assert_eq!(g.edge_count(), 4 * 10 + 4);
        assert!(g.is_connected());
        // Gateways have clique degree (m-1) + 2 ring edges.
        assert_eq!(g.degree(v(0)), 6);
        assert_eq!(g.degree(v(1)), 4);
        assert!(g.has_edge(v(15), v(0)), "ring closes");
    }

    #[test]
    fn fat_tree_shape() {
        let k = 4u32;
        let g = fat_tree(k);
        // (k/2)^2 cores + k^2 pod switches + k^3/4 hosts.
        assert_eq!(g.node_count(), 4 + 16 + 16);
        // Edges: k*(k/2)*(k/2) core links + k*(k/2)*(k/2) agg-edge links
        //        + k^3/4 host links.
        assert_eq!(g.edge_count() as u32, 16 + 16 + 16);
        assert!(g.is_connected());
        assert_eq!(g.hop_diameter(), Some(6), "host-to-host across pods");
        // Every core has degree k (one uplink from each pod).
        for c in 0..4 {
            assert_eq!(g.degree(v(c)), 4);
        }
        // Hosts are leaves.
        assert_eq!(g.degree(v(35)), 1);
    }

    #[test]
    #[should_panic(expected = "fat-tree arity must be even")]
    fn odd_fat_tree_panics() {
        let _ = fat_tree(3);
    }
}
