//! Corrupted-in routing loops (Theorem 4 / Corollary 3).
//!
//! A *consistent* loop — each node's distance equals its successor's plus
//! the edge weight, except at the unavoidable wrap-around seam — is the
//! hardest case: no node on it looks locally wrong except one.

use lsrp_graph::{Distance, Graph, NodeId, Weight};
use lsrp_sim::Mirror;

use crate::fault::CorruptionKind;
use crate::plan::FaultPlan;

/// The `(node, distance, parent)` assignment that turns `cycle` into a
/// directed parent loop: node `i` parents `cycle[i+1]`, with distances
/// descending along the parent direction so each hop looks consistent
/// (`d.v = d.(p.v) + w`), except at the seam where the cycle wraps.
///
/// `base` is the distance at the seam (use something above the network
/// diameter so the loop doesn't accidentally look attractive).
pub fn cycle_assignment(
    graph: &Graph,
    cycle: &[NodeId],
    base: u64,
) -> Vec<(NodeId, Distance, NodeId)> {
    assert!(cycle.len() >= 3, "a loop needs at least 3 nodes");
    let mut out = Vec::with_capacity(cycle.len());
    // Walk the cycle accumulating weights along the parent direction, so
    // d(node) = d(parent) + w(node, parent) everywhere except the seam.
    let mut dist: Vec<u64> = vec![0; cycle.len()];
    for i in (0..cycle.len() - 1).rev() {
        let parent = cycle[i + 1];
        let w: Weight = graph
            .weight(cycle[i], parent)
            .expect("cycle must follow edges of the graph");
        dist[i] = dist[i + 1] + w;
    }
    for (i, &node) in cycle.iter().enumerate() {
        let parent = cycle[(i + 1) % cycle.len()];
        out.push((node, Distance::Finite(base + dist[i]), parent));
    }
    out
}

/// Builds the fault plan injecting the loop: overwrites `(d, p)` around
/// the cycle, then poisons every neighbor's mirror of each cycle node
/// ([`FaultPlan::forged_routes`]; `advert` reads a node's containment
/// flag), so the perturbation has fully "settled into everyone's view".
pub fn loop_plan(
    graph: &Graph,
    cycle: &[NodeId],
    base: u64,
    advert: impl Fn(NodeId) -> Mirror,
) -> FaultPlan {
    let routes = cycle_assignment(graph, cycle, base)
        .into_iter()
        .map(|(node, d, p)| (node, CorruptionKind::Route { d, p }));
    FaultPlan::forged_routes(graph, routes, advert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn assignment_is_consistent_except_at_the_seam() {
        let g = generators::lollipop(2, 5, 1);
        let ring = generators::lollipop_ring(2, 5);
        let assign = cycle_assignment(&g, &ring, 100);
        assert_eq!(assign.len(), 5);
        // d(node) = d(parent) + 1 for all but the last entry.
        for w in assign.windows(2) {
            let (_, d0, p0) = w[0];
            let (n1, d1, _) = w[1];
            assert_eq!(p0, n1);
            assert_eq!(d0, d1.plus(1));
        }
        // The seam: last node parents the first.
        let (_, _, p_last) = assign[4];
        assert_eq!(p_last, ring[0]);
    }

    #[test]
    fn injected_loop_is_a_routing_loop_until_lsrp_breaks_it() {
        let g = generators::lollipop(2, 6, 1);
        let ring = generators::lollipop_ring(2, 6);
        let dest = v(0);
        let mut sim = LsrpSimulation::builder(g.clone(), dest)
            .initial_state(InitialState::Legitimate)
            .build();
        let plan = loop_plan(&g, &ring, 50, |n| sim.advert(n));
        plan.apply(&mut sim).unwrap();
        assert!(sim.route_table().has_routing_loop(dest));
        let report = sim.run_to_quiescence(100_000.0);
        assert!(report.quiescent);
        assert!(!sim.route_table().has_routing_loop(dest));
        assert!(sim.routes_correct());
    }

    #[test]
    fn loop_plan_perturbation_counts_only_cycle_nodes() {
        let g = generators::lollipop(2, 5, 1);
        let ring = generators::lollipop_ring(2, 5);
        let dest = v(0);
        let table = lsrp_graph::RouteTable::legitimate(&g, dest);
        let plan = loop_plan(&g, &ring, 50, Mirror::unknown);
        let p = plan.perturbation(&g, dest, &table).unwrap();
        assert_eq!(p.size(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_cycles_are_rejected() {
        let g = generators::path(3, 1);
        let _ = cycle_assignment(&g, &[v(0), v(1)], 10);
    }
}
