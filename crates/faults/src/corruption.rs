//! Random state-corruption generators with controlled perturbation
//! regions.
//!
//! Experiments on local stabilization (E6) need perturbations of a chosen
//! *size* at a chosen *place*: a contiguous region of nodes whose routing
//! state is corrupted, with the neighbors' mirrors poisoned to match ("the
//! neighbors have already learned the corrupted values", as in the paper's
//! worked examples — the worst case for containment).

use std::collections::{BTreeSet, VecDeque};

use rand::Rng;

use lsrp_graph::{Distance, Graph, NodeId};
use lsrp_sim::Mirror;

use crate::fault::CorruptionKind;
use crate::plan::FaultPlan;

/// Grows a contiguous region of (up to) `size` nodes from `seed` by
/// breadth-first search, never including `exclude` (normally the
/// destination).
pub fn contiguous_region(
    graph: &Graph,
    seed: NodeId,
    size: usize,
    exclude: NodeId,
) -> BTreeSet<NodeId> {
    let mut region = BTreeSet::new();
    if !graph.has_node(seed) || seed == exclude || size == 0 {
        return region;
    }
    let mut queue = VecDeque::from([seed]);
    region.insert(seed);
    while let Some(v) = queue.pop_front() {
        if region.len() >= size {
            break;
        }
        for (n, _) in graph.neighbors(v) {
            if region.len() >= size {
                break;
            }
            if n != exclude && region.insert(n) {
                queue.push_back(n);
            }
        }
    }
    region
}

/// A random corrupted distance: biased toward *small* values (the
/// dangerous direction in distance-vector routing — §IV-C), occasionally
/// `∞` or large.
pub fn random_distance<R: Rng>(rng: &mut R, true_distance: Distance, max_d: u64) -> Distance {
    let roll: f64 = rng.gen();
    if roll < 0.6 {
        // Corrupted small: below the true distance when possible.
        match true_distance.as_finite() {
            Some(t) if t > 0 => Distance::Finite(rng.gen_range(0..t)),
            _ => Distance::Finite(rng.gen_range(0..max_d / 2 + 1)),
        }
    } else if roll < 0.9 {
        Distance::Finite(rng.gen_range(0..=max_d))
    } else {
        Distance::Infinite
    }
}

/// Builds a corruption plan for one contiguous region: every region node's
/// distance is corrupted (per [`random_distance`]), and every neighbor of a
/// region node has its mirror poisoned to the corrupted value
/// ([`FaultPlan::forged_routes`], one region node at a time, each with
/// its parent in `current_parents`).
///
/// The returned plan's perturbation (per [`FaultPlan::perturbation`]) is
/// exactly the region.
pub fn corrupt_region_plan<R: Rng>(
    graph: &Graph,
    region: &BTreeSet<NodeId>,
    true_distances: &lsrp_graph::shortest_path::ShortestPaths,
    current_parents: &lsrp_graph::RouteTable,
    rng: &mut R,
) -> FaultPlan {
    let max_d = (graph.node_count() as u64) * 2 + 4;
    (region.iter())
        .flat_map(|&node| {
            let d = random_distance(rng, true_distances.distance(node), max_d);
            let p = current_parents.entry(node).map_or(node, |e| e.parent);
            let corruption = [(node, CorruptionKind::Distance(d))];
            FaultPlan::forged_routes(graph, corruption, |_| Mirror {
                p,
                ..Mirror::unknown(node)
            })
            .faults
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::shortest_path::ShortestPaths;
    use lsrp_graph::{generators, RouteTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn region_growth_is_contiguous_and_sized() {
        let g = generators::grid(6, 6, 1);
        let r = contiguous_region(&g, v(14), 5, v(0));
        assert_eq!(r.len(), 5);
        assert!(r.contains(&v(14)));
        assert!(!r.contains(&v(0)));
        let regions = lsrp_graph::regions::perturbed_regions(&g, &r);
        assert_eq!(regions.len(), 1, "region must be contiguous");
    }

    #[test]
    fn region_excluding_destination_and_bounds() {
        let g = generators::path(4, 1);
        let r = contiguous_region(&g, v(1), 10, v(0));
        assert_eq!(r, BTreeSet::from([v(1), v(2), v(3)]));
        assert!(contiguous_region(&g, v(0), 3, v(0)).is_empty());
        assert!(contiguous_region(&g, v(99), 3, v(0)).is_empty());
    }

    #[test]
    fn corruption_plan_perturbs_exactly_the_region() {
        let g = generators::grid(5, 5, 1);
        let dest = v(0);
        let table = RouteTable::legitimate(&g, dest);
        let sp = ShortestPaths::dijkstra(&g, dest);
        let region = contiguous_region(&g, v(12), 4, dest);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = corrupt_region_plan(&g, &region, &sp, &table, &mut rng);
        let p = plan.perturbation(&g, dest, &table).unwrap();
        assert_eq!(p.perturbed_nodes(), region);
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn random_distance_is_biased_small() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut small = 0;
        for _ in 0..200 {
            let d = random_distance(&mut rng, Distance::Finite(10), 40);
            if d < Distance::Finite(10) {
                small += 1;
            }
        }
        assert!(small > 100, "small-corruption bias missing ({small}/200)");
    }
}
