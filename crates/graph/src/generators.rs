//! Deterministic topology generators for experiments and tests.
//!
//! All random generators take an explicit RNG so that every experiment in
//! the repository is reproducible from a seed. Node ids are dense from 0.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// linking the component of `v0`, one edge at a time, to the geometrically
/// closest outside node. This mimics the wireless-sensor-network topologies
/// of §VI-A (dense local connectivity).
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
    let mut pairs = Pairs::new(&points, radius);
    let (mut ids, mut d2) = (Vec::new(), Vec::new());
    for i in 0..n {
        let m = pairs.later_within(i, points[i as usize], &mut ids, &mut d2);
        for &j in &ids[..m] {
            g.add_edge(v(i), v(j), 1).expect("fresh edge");
        }
    }
    patch_nearest_first(&mut g, &points);
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
/// never linked; that truncation is what lets the generator draw over
/// the candidate pairs a spatial hash finds instead of sweeping all
/// O(n²): `waxman(100_000, 0.002, 0.5, _)`, 48 million candidate pairs,
/// builds in about 1 s on one core of a 2-core container. With the small
/// `alpha` values such sizes need (long links are exponentially
/// suppressed), the truncated model is the Waxman model for every
/// practical purpose.
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
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(v(i));
    }
    let p = |d2: f64| beta * (-d2.sqrt() / (alpha * l)).exp();
    // A candidate pair `i < j` (d² ≤ radius²) takes one draw if
    // `p >= CUTOFF` and is linked if that draw is below `p`; the draws go
    // in ascending `(i, j)` order, so the graph is a pure function of the
    // seed. Inside `shell2` the exact `p` is at least `CUTOFF · (1 + 1e-3)`,
    // a margin no rounding of `sqrt`, `/` or `exp` can eat: every such
    // pair draws, and only the thin shell beyond asks `exp` whether it does.
    let mut pairs = Pairs::new(&points, radius.max(0.0));
    let bound = DrawBound::new(p, pairs.r2);
    let inner = alpha * l * (beta / (CUTOFF * (1.0 + 1e-3))).ln();
    let shell2 = if inner > 0.0 { inner * inner } else { 0.0 };
    let (mut ids, mut d2) = (Vec::new(), Vec::new());
    let mut draws: Vec<f64> = Vec::new();
    let mut maybe: Vec<(u32, u32)> = Vec::new();
    let mut below: Vec<u32> = Vec::new();
    for i in 0..n {
        let m = pairs.later_within(i, points[i as usize], &mut ids, &mut d2);
        let (ids, d2) = (&mut ids[..m], &d2[..m]);
        // A shell pair that takes no draw leaves the ranking as `NONE`.
        let mut live = m;
        for (j, &dd) in ids.iter_mut().zip(d2) {
            if dd >= shell2 && p(dd) < CUTOFF {
                *j = NONE;
                live -= 1;
            }
        }
        // Node i's draws, all taken now: the k-th belongs to the drawing
        // pair of rank k in ascending j.
        draws.clear();
        draws.extend((0..live).map(|_| rng.gen::<f64>()));
        let least = draws.iter().fold(1.0f64, |a, &u| a.min(u));
        // Only a pair whose bound exceeds the least draw can be linked;
        // the rest are rejected without knowing which draw is theirs.
        let limit = bound.bins_above(least);
        maybe.clear();
        for (k, (&j, &dd)) in ids.iter().zip(d2).enumerate() {
            if j != NONE && bound.bin(dd) < limit {
                maybe.push((j, k as u32));
            }
        }
        if maybe.is_empty() {
            continue;
        }
        maybe.sort_unstable();
        // Rank without sorting the rest: `below[q]` counts the drawing
        // pairs with exactly q survivors at or below them, so the prefix
        // sum up to survivor t is the number of drawing pairs before it.
        below.clear();
        below.resize(maybe.len() + 1, 0);
        for &j in ids.iter() {
            below[maybe.partition_point(|&(s, _)| s <= j)] += 1;
        }
        let mut rank = 0;
        for (t, &(j, k)) in maybe.iter().enumerate() {
            rank += below[t] as usize;
            let (u, dd) = (draws[rank], d2[k as usize]);
            // `u < p.min(1.0)` is `gen_bool(p)` on the draw it would take.
            if u < bound.at(dd) && u < p(dd).min(1.0) {
                g.add_edge(v(i), v(j), 1).expect("fresh edge");
            }
        }
    }
    patch_connectivity(&mut g, &points);
    g
}

/// The id that marks a pair dropped from the ranking, and "none found
/// yet" in the nearest-node searches: larger than every node id, which
/// `n <= u32::MAX` keeps below it.
const NONE: u32 = u32::MAX;

/// Points bucketed into a `side × side` grid of square cells over the
/// unit square, stored CSR-style: cell `c` holds entries
/// `start[c]..start[c + 1]`, ids ascending, each beside its coordinates.
/// Cell `(cx, cy)` is cell `cy * side + cx`, so a row's cells are one
/// contiguous run of entries.
struct Cells {
    side: usize,
    start: Vec<u32>,
    ids: Vec<u32>,
    coords: Vec<(f64, f64)>,
}

impl Cells {
    /// Cells at least `width` wide, but no more cells than about one per
    /// point, so a tiny width on few points does not allocate millions of
    /// empty ones.
    fn new(points: &[(f64, f64)], width: f64) -> Self {
        let max_side = ((points.len() as f64).sqrt().ceil() as usize).max(1);
        let side = ((1.0 / width).floor() as usize).clamp(1, max_side);
        let cell_of = |&(x, y): &(f64, f64)| {
            let (cx, cy) = Self::locate(side, x, y);
            cy * side + cx
        };
        let mut start = vec![0u32; side * side + 1];
        for pt in points {
            start[cell_of(pt) + 1] += 1;
        }
        for c in 0..side * side {
            start[c + 1] += start[c];
        }
        // A counting sort that visits points in id order keeps each
        // cell's ids ascending.
        let mut next = start.clone();
        let mut ids = vec![0; points.len()];
        let mut coords = vec![(0.0, 0.0); points.len()];
        for (i, pt) in points.iter().enumerate() {
            let at = &mut next[cell_of(pt)];
            ids[*at as usize] = i as u32;
            coords[*at as usize] = *pt;
            *at += 1;
        }
        Cells {
            side,
            start,
            ids,
            coords,
        }
    }

    fn locate(side: usize, x: f64, y: f64) -> (usize, usize) {
        let cx = ((x * side as f64) as usize).min(side - 1);
        let cy = ((y * side as f64) as usize).min(side - 1);
        (cx, cy)
    }

    fn cell_of(&self, (x, y): (f64, f64)) -> (usize, usize) {
        Self::locate(self.side, x, y)
    }

    /// The entries of cells `first..=last` (consecutive indices).
    fn entries(&self, first: usize, last: usize) -> std::ops::Range<usize> {
        self.start[first] as usize..self.start[last + 1] as usize
    }

    /// Calls `f(id, point)` on every point of the cells exactly `k` cells
    /// from `(cx, cy)` along one axis and at most `k` along the other.
    fn ring(&self, (cx, cy): (usize, usize), k: usize, mut f: impl FnMut(u32, (f64, f64))) {
        let last = self.side - 1;
        let mut visit = |range: std::ops::Range<usize>| {
            for e in range {
                f(self.ids[e], self.coords[e]);
            }
        };
        let (x0, x1) = (cx.saturating_sub(k), (cx + k).min(last));
        for by in cy.saturating_sub(k)..=(cy + k).min(last) {
            let row = by * self.side;
            if by.abs_diff(cy) == k {
                visit(self.entries(row + x0, row + x1));
            } else {
                if cx >= k {
                    visit(self.entries(row + cx - k, row + cx - k));
                }
                if cx + k <= last {
                    visit(self.entries(row + cx + k, row + cx + k));
                }
            }
        }
    }

    /// A lower bound on `d²` from a point to any point more than `k`
    /// rings out: at least `k` whole cells lie between them along one
    /// axis. The relative 1e-9 covers the rounding of `x * side` and of
    /// the caller's `d²`.
    fn past(&self, k: usize) -> f64 {
        let gap = k as f64 / self.side as f64;
        gap * gap * (1.0 - 1e-9)
    }
}

/// The candidate-pair enumerator of the spatial generators: from each
/// point `i`, every `j > i` with `d²(i, j) <= radius²`, found over cells
/// about `radius / 2` wide: the 5×5 block of them around a point holds
/// about half the points outside the disc that a 3×3 block of
/// radius-wide cells holds.
struct Pairs {
    cells: Cells,
    span: usize,
    r2: f64,
    /// Per cell, its first entry with an id above the last `i` asked.
    later: Vec<u32>,
}

impl Pairs {
    fn new(points: &[(f64, f64)], radius: f64) -> Self {
        let cells = Cells::new(points, radius / 2.0);
        // A point within `radius` lies at most `radius * side` cells away
        // along each axis; the addend covers the rounding of `x * side`.
        let span = ((radius * cells.side as f64 + 1e-9).ceil() as usize).min(cells.side);
        let later = cells.start.clone();
        Pairs {
            cells,
            span,
            r2: radius * radius,
            later,
        }
    }

    /// Writes every `j > i` within the radius of point `i`, at `(x, y)`, to
    /// `ids[..count]` and its `d²` to `d2[..count]`, in no particular
    /// order, and returns `count`. Calls come for `i = 0, 1, 2, ...` in
    /// turn: a cell's ids ascend, so `i` is the entry at its own cell's
    /// `later` mark, and stepping past it is all that moves.
    fn later_within(
        &mut self,
        i: u32,
        (x, y): (f64, f64),
        ids: &mut Vec<u32>,
        d2: &mut Vec<f64>,
    ) -> usize {
        let c = &self.cells;
        let (cx, cy) = c.cell_of((x, y));
        let home = &mut self.later[cy * c.side + cx];
        debug_assert_eq!(c.ids[*home as usize], i, "points are asked in id order");
        *home += 1;
        let last = c.side - 1;
        let mut count = 0;
        for by in cy.saturating_sub(self.span)..=(cy + self.span).min(last) {
            let row = by * c.side;
            for cell in row + cx.saturating_sub(self.span)..=row + (cx + self.span).min(last) {
                let (lo, hi) = (self.later[cell] as usize, c.start[cell + 1] as usize);
                if ids.len() < count + (hi - lo) {
                    ids.resize(count + hi - lo, 0);
                    d2.resize(count + hi - lo, 0.0);
                }
                // Branch-free: every point is written, and kept only when
                // it lies within the radius.
                for (&j, &(px, py)) in c.ids[lo..hi].iter().zip(&c.coords[lo..hi]) {
                    let (dx, dy) = (px - x, py - y);
                    let dd = dx * dx + dy * dy;
                    ids[count] = j;
                    d2[count] = dd;
                    count += usize::from(dd <= self.r2);
                }
            }
        }
        count
    }
}

/// An upper bound on a link probability `p(d²)` that falls as `d²`
/// grows: one value per bin of `d² ∈ [0, r²]`, `p` just below the bin's
/// lower edge (a relative 1e-12, over the rounding of the bin index)
/// raised by a relative 1e-9 (over the ulps by which `sqrt`, `/` and
/// `exp` round), and never below a later bin's. A draw at or above the
/// bound is therefore at or above the `p` computed exactly.
struct DrawBound {
    per_bin: Vec<f64>,
    inv_width: f64,
}

impl DrawBound {
    const BINS: usize = 1024;

    fn new(p: impl Fn(f64) -> f64, r2: f64) -> Self {
        let width = r2 / Self::BINS as f64;
        let mut per_bin: Vec<f64> = (0..=Self::BINS)
            .map(|k| p(k as f64 * width * (1.0 - 1e-12)) * (1.0 + 1e-9))
            .collect();
        for k in (0..Self::BINS).rev() {
            per_bin[k] = per_bin[k].max(per_bin[k + 1]);
        }
        // A degenerate radius keeps a single bin, `p(0)`.
        let inv_width = if width >= 1e-290 { 1.0 / width } else { 0.0 };
        DrawBound { per_bin, inv_width }
    }

    /// `d²` in bin widths: its bin is the floor, capped at the last.
    fn bin(&self, d2: f64) -> f64 {
        d2 * self.inv_width
    }

    fn at(&self, d2: f64) -> f64 {
        self.per_bin[(self.bin(d2) as usize).min(Self::BINS)]
    }

    /// How many leading bins bound above `u`: `at(d2) > u` exactly when
    /// `bin(d2) < bins_above(u)`, since the bounds never rise.
    fn bins_above(&self, u: f64) -> f64 {
        self.per_bin.partition_point(|&b| b > u) as f64
    }
}

/// The connected components of a graph on dense ids `0..n`, numbered in
/// ascending order of their smallest id, members stored CSR-style in
/// ascending id order.
struct Components {
    of: Vec<u32>,
    start: Vec<u32>,
    members: Vec<u32>,
}

impl Components {
    fn new(g: &Graph, n: usize) -> Self {
        let mut of = vec![NONE; n];
        let mut sizes = vec![0u32];
        let mut stack = Vec::new();
        for s in 0..n {
            if of[s] != NONE {
                continue;
            }
            let c = sizes.len() as u32 - 1;
            of[s] = c;
            stack.push(s as u32);
            while let Some(u) = stack.pop() {
                *sizes.last_mut().expect("pushed above") += 1;
                for (nb, _) in g.neighbors(v(u)) {
                    if of[nb.raw() as usize] == NONE {
                        of[nb.raw() as usize] = c;
                        stack.push(nb.raw());
                    }
                }
            }
            sizes.push(0);
        }
        sizes.pop();
        let mut start = vec![0u32; sizes.len() + 1];
        for (c, &size) in sizes.iter().enumerate() {
            start[c + 1] = start[c] + size;
        }
        let mut next = start.clone();
        let mut members = vec![0; n];
        for (i, &c) in of.iter().enumerate() {
            members[next[c as usize] as usize] = i as u32;
            next[c as usize] += 1;
        }
        Components { of, start, members }
    }

    fn count(&self) -> usize {
        self.start.len() - 1
    }

    fn members(&self, c: usize) -> &[u32] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

fn d2_between((ax, ay): (f64, f64), (bx, by): (f64, f64)) -> f64 {
    (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
}

/// Links every stranded component to the geometrically nearest node of
/// the component containing the smallest node id: the components are
/// unioned in ascending min-id order, each attached to the nearest node
/// already absorbed.
///
/// Each attachment is exact — the minimum of `(d², absorbed id, member
/// id)` over all pairs — so the edges depend on no grid. While at most
/// about `2√n` points are absorbed, every pair is asked; after that an
/// expanding ring search over cells of about two points each finds the
/// minimum, which a ring search started while the absorbed set is tiny
/// could only meet after sweeping most of the square.
fn patch_connectivity(g: &mut Graph, points: &[(f64, f64)]) {
    let n = points.len();
    let comps = Components::new(g, n);
    if comps.count() <= 1 {
        return;
    }
    let cells = Cells::new(points, (2.0 / n as f64).sqrt());
    let few_max = 2 * (n as f64).sqrt() as usize;
    // `absorbed[i]`: whether point i is in the growing main component;
    // `few` lists every absorbed point while there are at most `few_max`.
    let mut absorbed = vec![false; n];
    let mut few: Vec<u32> = Vec::new();
    let mut count = 0;
    for c in 0..comps.count() {
        let members = comps.members(c);
        if c > 0 {
            // (d², absorbed, member)
            let mut best = (f64::INFINITY, NONE, NONE);
            if few.len() == count {
                for &m in members {
                    for &j in &few {
                        let key = (d2_between(points[j as usize], points[m as usize]), j, m);
                        if key < best {
                            best = key;
                        }
                    }
                }
            } else {
                for &m in members {
                    let at = points[m as usize];
                    let home = cells.cell_of(at);
                    for k in 0..cells.side {
                        cells.ring(home, k, |j, there| {
                            let key = (d2_between(there, at), j, m);
                            if absorbed[j as usize] && key < best {
                                best = key;
                            }
                        });
                        if best.0 < cells.past(k) {
                            break;
                        }
                    }
                }
            }
            let (_, a, m) = best;
            g.add_edge(v(a), v(m), 1)
                .expect("cross-component edge is fresh");
        }
        for &i in members {
            absorbed[i as usize] = true;
        }
        count += members.len();
        if count <= few_max {
            few.extend_from_slice(members);
        }
    }
}

/// Connects the component of `v0` to the rest one edge at a time, each
/// time by the pair `(a, b)`, `a` inside and `b` outside, that minimises
/// `(d², a, b)`, then absorbs `b`'s whole component: Prim's rule over the
/// components.
///
/// A heap holds one entry `(key, a, b)` per inside node `a`, never above
/// its true key: the lexicographic minimum of `(d², a, b)` over the nodes
/// outside now, which only grows as the inside does. An entry whose `b`
/// is still outside is exact, so at the top of the heap it is the edge.
/// Any other entry at the top (its `b` absorbed since, or a lower bound,
/// which names `b = v0`, always inside) sends `a` back to a ring search.
/// A search goes only as far as it must: once the rings left lie beyond
/// the heap's next key, it pushes their distance as a lower bound, so an
/// inside node far from the frontier stops paying for the rings between.
/// The edges are those of the all-pairs scan, found in near-linear time
/// instead of its O(n³).
fn patch_nearest_first(g: &mut Graph, points: &[(f64, f64)]) {
    let n = points.len();
    let comps = Components::new(g, n);
    if comps.count() <= 1 {
        return;
    }
    let cells = Cells::new(points, (2.0 / n as f64).sqrt());
    let mut inside = vec![false; n];
    let mut outside = n;
    let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    // `a`'s entry, given that no outside node lies closer than `d² = low`.
    let search = |a: u32, low: f64, top: f64, inside: &[bool]| {
        let at = points[a as usize];
        let home = cells.cell_of(at);
        // Rings wholly closer than `sqrt(low)` hold no outside node: a
        // point `k` rings out lies under `(k + 1)·√2` cells away.
        let first = (low.sqrt() * cells.side as f64 / std::f64::consts::SQRT_2 * (1.0 - 1e-9))
            .floor() as usize;
        let mut best = (f64::INFINITY, NONE);
        for k in first..cells.side {
            cells.ring(home, k, |j, there| {
                if !inside[j as usize] {
                    let key = (d2_between(there, at), j);
                    if key < best {
                        best = key;
                    }
                }
            });
            let past = cells.past(k);
            if best.0 < past {
                break;
            }
            if past > top {
                return (past.to_bits(), a, 0);
            }
        }
        assert!(best.1 != NONE, "an outside node remains");
        (best.0.to_bits(), a, best.1)
    };
    let top = |heap: &BinaryHeap<Reverse<(u64, u32, u32)>>| {
        heap.peek()
            .map_or(f64::INFINITY, |Reverse((key, _, _))| f64::from_bits(*key))
    };
    let mut absorb =
        |c: usize, inside: &mut [bool], heap: &mut BinaryHeap<Reverse<(u64, u32, u32)>>| {
            let members = comps.members(c);
            for &m in members {
                inside[m as usize] = true;
            }
            outside -= members.len();
            if outside > 0 {
                for &m in members {
                    let entry = search(m, 0.0, top(heap), inside);
                    heap.push(Reverse(entry));
                }
            }
            outside
        };
    let mut left = absorb(0, &mut inside, &mut heap);
    while left > 0 {
        let Reverse((key, a, b)) = heap.pop().expect("an inside node has an entry");
        if !inside[b as usize] {
            g.add_edge(v(a), v(b), 1)
                .expect("cross-component edge is fresh");
            left = absorb(comps.of[b as usize] as usize, &mut inside, &mut heap);
            if left == 0 {
                break;
            }
        }
        // `a` stays inside: its next entry, from where this one left off.
        let entry = search(a, f64::from_bits(key), top(&heap), &inside);
        heap.push(Reverse(entry));
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

    /// FNV-1a over `(a, b, w)` in `Graph::edges` order.
    fn edge_hash(g: &Graph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (a, b, w) in g.edges() {
            for x in [u64::from(a.raw()), u64::from(b.raw()), w] {
                h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn assert_waxman_pinned(golden: &[(u32, f64, f64, u64, usize, u64)]) {
        for &(n, alpha, beta, seed, edges, hash) in golden {
            let g = waxman(n, alpha, beta, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                (g.edge_count(), edge_hash(&g)),
                (edges, hash),
                "waxman({n}, {alpha}, {beta}) seed {seed}"
            );
        }
    }

    #[test]
    fn waxman_edge_lists_are_pinned() {
        // Recorded before the pair collection, the draw and the patch were
        // made cheaper. The first three: a dense small graph, one that is
        // nearly all patch edges, and the benchmark's storm shape (mean
        // degree ≈ 2, many stranded nodes). Then one case per branch of
        // the draw: the radius capped at √2 (every pair a candidate, most
        // of them under the least draw's bound); β at and below the
        // cut-off, so nothing draws and every edge is a patch edge;
        // n = 1 and n = 2; and β < 1 with pairs in the shell at the
        // cut-off (the second case has them too).
        assert_waxman_pinned(&[
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
            (150, 1.0, 0.3, 11, 2_328, 0x3592_da94_5f61_3019),
            (200, 0.05, 1e-9, 5, 199, 0xb5ec_9019_df76_feb4),
            (200, 0.05, 5e-10, 5, 199, 0xb5ec_9019_df76_feb4),
            (1, 0.1, 1.0, 1, 0, 0xcbf2_9ce4_8422_2325),
            (2, 0.1, 1.0, 1, 1, 0xd949_ad18_6c0c_4e41),
            (2, 0.001, 0.5, 3, 1, 0xd949_ad18_6c0c_4e41),
            (8_000, 0.003, 0.05, 13, 7_999, 0xc5c6_b454_587b_2360),
            (2_000, 0.02, 0.9, 17, 8_286, 0xa0d3_d950_5154_0e2d),
        ]);
    }

    #[test]
    fn geometric_edge_lists_are_pinned() {
        // Recorded from the all-pairs sweep and the whole-component patch
        // scan: mostly isolated points (the patch is most of the graph),
        // a dense graph, a radius past the diagonal (complete), n = 1, 2.
        let golden: [(u32, f64, u64, usize, u64); 9] = [
            (50, 0.12, 9, 67, 0xd19a_eee5_113e_0927),
            (200, 0.01, 1, 199, 0x59de_25da_cbb1_857c),
            (400, 0.01, 2, 401, 0x825a_a7a2_72c5_4461),
            (300, 0.08, 3, 843, 0x62e3_04bf_8f94_aa71),
            (1, 0.1, 4, 0, 0xcbf2_9ce4_8422_2325),
            (2, 0.5, 5, 1, 0xd949_ad18_6c0c_4e41),
            (400, 0.3, 6, 17_219, 0xacd2_a82f_86ea_4de3),
            (100, 2.0, 7, 4_950, 0xb04e_30d1_5bf7_c6cf),
            (350, 0.04, 8, 427, 0xa374_49a6_d3d5_ce68),
        ];
        for (n, radius, seed, edges, hash) in golden {
            let g = random_geometric(n, radius, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                (g.edge_count(), edge_hash(&g)),
                (edges, hash),
                "random_geometric({n}, {radius}) seed {seed}"
            );
        }
    }

    /// The all-pairs Waxman draw and the all-pairs patch, as the
    /// generator defined them before the spatial hash: each pair `i < j`
    /// within the cut-off radius draws once, in ascending `(i, j)` order;
    /// the components, in ascending min-id order, each attach to the
    /// nearest absorbed node.
    fn waxman_referee(n: u32, alpha: f64, beta: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = std::f64::consts::SQRT_2;
        let radius = (alpha * l * (beta / 1e-9).ln()).min(l);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let mut g = Graph::new();
        for i in 0..n {
            g.add_node(v(i));
        }
        let d2 = |a: u32, b: u32| d2_between(pts[a as usize], pts[b as usize]);
        for i in 0..n {
            for j in i + 1..n {
                let p = beta * (-d2(i, j).sqrt() / (alpha * l)).exp();
                if d2(i, j) <= radius * radius && p >= 1e-9 && rng.gen_bool(p.min(1.0)) {
                    g.add_edge(v(i), v(j), 1).unwrap();
                }
            }
        }
        let mut inside = g.component_of(v(0));
        for m in 0..n {
            if inside.contains(&v(m)) {
                continue;
            }
            let comp = g.component_of(v(m));
            let (_, a, b) = (inside.iter())
                .flat_map(|&a| comp.iter().map(move |&b| (d2(a.raw(), b.raw()), a, b)))
                .min_by(|x, y| x.partial_cmp(y).unwrap())
                .unwrap();
            g.add_edge(a, b, 1).unwrap();
            inside.extend(comp);
        }
        g
    }

    /// The geometric generator by its definition: every pair within the
    /// radius, then the component of `v0` joined to the rest one edge at
    /// a time by the pair minimising `(d², inside, outside)`, found by
    /// dense Prim: each outside node keeps its least `(d², inside)`.
    fn geometric_referee(n: u32, radius: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let mut g = Graph::new();
        for i in 0..n {
            g.add_node(v(i));
        }
        let d2 = |a: u32, b: u32| d2_between(pts[a as usize], pts[b as usize]);
        for a in 0..n {
            for b in a + 1..n {
                if d2(a, b) <= radius * radius {
                    g.add_edge(v(a), v(b), 1).unwrap();
                }
            }
        }
        let mut inside = vec![false; n as usize];
        let mut key = vec![(f64::INFINITY, NONE); n as usize];
        let mut comp = g.component_of(v(0));
        loop {
            for m in &comp {
                inside[m.raw() as usize] = true;
            }
            for m in &comp {
                for b in (0..n).filter(|&b| !inside[b as usize]) {
                    let offer = (d2(m.raw(), b), m.raw());
                    if offer < key[b as usize] {
                        key[b as usize] = offer;
                    }
                }
            }
            let Some((_, a, b)) = (0..n)
                .filter(|&b| !inside[b as usize])
                .map(|b| (key[b as usize].0, key[b as usize].1, b))
                .min_by(|x, y| x.partial_cmp(y).unwrap())
            else {
                return g;
            };
            comp = g.component_of(v(b));
            g.add_edge(v(a), v(b), 1).unwrap();
        }
    }

    #[test]
    fn spatial_generators_match_their_all_pairs_referees() {
        let mut rng = StdRng::seed_from_u64(2026);
        for seed in 0..150 {
            let n = rng.gen_range(1..120);
            let alpha = [0.002, 0.01, 0.05, 0.3, 2.0][seed as usize % 5];
            let beta = [1.0, 0.6, 0.05, 1e-9, 3e-10][seed as usize / 5 % 5];
            let g = waxman(n, alpha, beta, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                g,
                waxman_referee(n, alpha, beta, seed),
                "waxman({n}, {alpha}, {beta}) seed {seed}"
            );
            // Larger: the heap's lower bounds and ring skips need room.
            let n = rng.gen_range(1..800);
            let radius = [0.005, 0.02, 0.05, 0.12, 1.5][seed as usize % 5];
            assert_geometric_is_its_referee(n, radius, seed);
        }
        // Two of the rare graphs where a search resumed from a lower bound
        // must rescan the ring just inside it: its nearest outside node
        // sits diagonally there, farther than the bound.
        assert_geometric_is_its_referee(600, 0.02, 318);
        assert_geometric_is_its_referee(1_000, 0.03, 329);
    }

    fn assert_geometric_is_its_referee(n: u32, radius: f64, seed: u64) {
        let g = random_geometric(n, radius, &mut StdRng::seed_from_u64(seed));
        assert_eq!(
            g,
            geometric_referee(n, radius, seed),
            "random_geometric({n}, {radius}) seed {seed}"
        );
    }

    #[test]
    fn geometric_patch_scales() {
        // Mean degree ≈ 1.6: thousands of components to link, which only
        // a near-linear patch does in a debug build's test time.
        let g = random_geometric(20_000, 0.005, &mut StdRng::seed_from_u64(3));
        assert_eq!(g.node_count(), 20_000);
        assert!(g.is_connected());
    }

    /// Release only (`cargo test --release -p lsrp-graph -- --ignored`):
    /// the benchmark's two Waxman shapes, pinned, and one large graph of
    /// each spatial kind.
    #[test]
    #[ignore = "release only: about 2 s optimised, minutes in debug"]
    fn spatial_generators_at_scale() {
        let storm = 0.001 * (10.0f64 / 3.0).sqrt();
        let regions = 0.001 * 5f64.sqrt();
        assert_waxman_pinned(&[
            (30_000, storm, 1.0, 42, 31_658, 0xd194_5f8a_f92d_ed36),
            (30_000, storm, 1.0, 7, 31_747, 0x29af_e9ff_d854_deb5),
            (20_000, regions, 1.0, 42, 21_053, 0x80f7_d2b0_8955_aefb),
            (20_000, regions, 1.0, 7, 21_130, 0xe997_2e0b_530a_0daa),
        ]);
        let w = waxman(100_000, 0.002, 0.5, &mut StdRng::seed_from_u64(1));
        assert_eq!(w.node_count(), 100_000);
        assert!(w.is_connected());
        let geo = random_geometric(50_000, 0.004, &mut StdRng::seed_from_u64(1));
        assert_eq!(geo.node_count(), 50_000);
        assert!(geo.is_connected());
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
