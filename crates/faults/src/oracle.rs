//! Test-only oracle: the fault-process generator as it was before the
//! indexed model — it walks a cloned [`Graph`] and, for every marker,
//! collects the candidate nodes or edges into a vector and `choose`s from
//! it, `O(markers × edges)` overall, which is why nothing outside tests
//! runs it. [`FaultProcess::generate`] must produce the same schedule,
//! event for event, for every seed, graph and mix; the suite at the bottom
//! holds it to that, and states the rest of the generator's contract.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use lsrp_core::Mirror;
use lsrp_graph::{Distance, Graph, NodeId, Weight};

use crate::fault::{CorruptionKind, Fault};
use crate::process::FaultProcess;
use crate::schedule::FaultSchedule;

/// What kind of chaos event a marker stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarkerKind {
    LinkFlap,
    NodeChurn,
    Partition,
    Corruption,
    WeightDrift,
}

/// A pending restore: faults to re-apply when an outage ends.
#[derive(Debug)]
struct PendingRestore {
    at: f64,
    crashed_node: Option<(NodeId, Vec<(NodeId, Weight)>)>,
    edges: Vec<(NodeId, NodeId, Weight)>,
    weights: Vec<(NodeId, NodeId, Weight)>,
}

/// [`FaultProcess::generate`], by scanning.
pub fn generate(
    p: &FaultProcess,
    graph: &Graph,
    destination: NodeId,
    horizon: f64,
    seed: u64,
) -> FaultSchedule {
    p.validate();
    assert!(
        horizon > 0.0 && horizon.is_finite(),
        "horizon must be positive and finite"
    );
    assert!(
        graph.has_node(destination),
        "destination must be in the graph"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // Draw each chaos event's start time up front, then walk them in
    // time order against a model of the evolving topology.
    let mut markers: Vec<(f64, MarkerKind)> = Vec::new();
    // `WeightDrift` is drawn last so a zero-count process consumes the
    // exact RNG stream older configs did — existing seeds replay
    // byte-identically.
    let classes = [
        (p.link_flaps, MarkerKind::LinkFlap),
        (p.node_churn, MarkerKind::NodeChurn),
        (p.partitions, MarkerKind::Partition),
        (p.corruptions, MarkerKind::Corruption),
        (p.weight_drifts, MarkerKind::WeightDrift),
    ];
    for (count, kind) in classes {
        for _ in 0..count {
            markers.push((rng.gen_range(0.0..horizon), kind));
        }
    }
    markers.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    let mut model = graph.clone();
    let mut schedule = FaultSchedule::new();
    let mut restores: Vec<PendingRestore> = Vec::new();

    for (at, kind) in markers {
        // Restores due before this marker change the model first.
        apply_due_restores(&mut model, &mut schedule, &mut restores, at);
        let outage = rng.gen_range(p.min_outage..=p.max_outage);
        match kind {
            MarkerKind::LinkFlap => {
                // Only flap edges whose loss keeps both endpoints
                // degree >= 1 in the model; isolating a node entirely
                // is the NodeChurn class's job.
                let candidates: Vec<(NodeId, NodeId, Weight)> = model
                    .edges()
                    .filter(|&(a, b, _)| {
                        model.neighbors(a).count() > 1 && model.neighbors(b).count() > 1
                    })
                    .collect();
                let Some(&(a, b, w)) = candidates.choose(&mut rng) else {
                    continue;
                };
                model.remove_edge(a, b).expect("edge came from the model");
                schedule.push(at, Fault::FailEdge(a, b));
                restores.push(PendingRestore {
                    at: at + outage,
                    crashed_node: None,
                    edges: vec![(a, b, w)],
                    weights: Vec::new(),
                });
            }
            MarkerKind::NodeChurn => {
                let candidates: Vec<NodeId> = model.nodes().filter(|&v| v != destination).collect();
                let Some(&victim) = candidates.choose(&mut rng) else {
                    continue;
                };
                let edges: Vec<(NodeId, Weight)> = model.neighbors(victim).collect();
                model.remove_node(victim).expect("node came from the model");
                schedule.push(at, Fault::FailNode(victim));
                restores.push(PendingRestore {
                    at: at + outage,
                    crashed_node: Some((victim, edges)),
                    edges: Vec::new(),
                    weights: Vec::new(),
                });
            }
            MarkerKind::Partition => {
                let cut = random_cut(&model, destination, &mut rng);
                if cut.is_empty() {
                    continue;
                }
                for &(a, b, _) in &cut {
                    model.remove_edge(a, b).expect("cut edge is in the model");
                    schedule.push(at, Fault::FailEdge(a, b));
                }
                restores.push(PendingRestore {
                    at: at + outage,
                    crashed_node: None,
                    edges: cut,
                    weights: Vec::new(),
                });
            }
            MarkerKind::Corruption => {
                let candidates: Vec<NodeId> = model.nodes().filter(|&v| v != destination).collect();
                let Some(&victim) = candidates.choose(&mut rng) else {
                    continue;
                };
                let kind = match rng.gen_range(0u32..3) {
                    0 => {
                        // A corrupted *broadcast* (the paper's §III-A
                        // contamination scenario): the victim's
                        // distance is forged and its neighbors'
                        // mirrors reflect the forged value. A
                        // corruption nobody heard is contained
                        // trivially and spreads no waves.
                        let bound = 2 * graph.node_count() as u64 + 2;
                        let d = Distance::Finite(rng.gen_range(0..bound));
                        let neighbors: Vec<NodeId> =
                            model.neighbors(victim).map(|(n, _)| n).collect();
                        let forged_parent = *neighbors.choose(&mut rng).unwrap_or(&victim);
                        for &n in neighbors.iter().filter(|&&n| n != destination) {
                            schedule.push(
                                at,
                                Fault::Corrupt {
                                    node: n,
                                    kind: CorruptionKind::MirrorOf {
                                        about: victim,
                                        mirror: Mirror {
                                            d,
                                            p: forged_parent,
                                            ghost: false,
                                        },
                                    },
                                },
                            );
                        }
                        CorruptionKind::Distance(d)
                    }
                    1 => {
                        let all: Vec<NodeId> = graph.nodes().collect();
                        CorruptionKind::Parent(*all.choose(&mut rng).expect("nonempty"))
                    }
                    _ => CorruptionKind::Ghost(rng.gen_bool(0.5)),
                };
                schedule.push(at, Fault::Corrupt { node: victim, kind });
            }
            MarkerKind::WeightDrift => {
                // Re-cost one live edge (a metric change, not an
                // outage): the drifted weight holds for the outage
                // duration, then the original cost is restored — two
                // legitimate-state perturbations per drift event.
                // Edges with a restore still pending are excluded, so
                // "original" always means the pre-drift cost and every
                // drift unwinds fully.
                let drifting = |a: NodeId, b: NodeId| {
                    restores
                        .iter()
                        .any(|r| r.weights.iter().any(|&(x, y, _)| (x, y) == (a, b)))
                };
                let candidates: Vec<(NodeId, NodeId, Weight)> =
                    model.edges().filter(|&(a, b, _)| !drifting(a, b)).collect();
                let Some(&(a, b, w)) = candidates.choose(&mut rng) else {
                    continue;
                };
                let drifted = w + rng.gen_range(1..=9u64);
                model
                    .set_weight(a, b, drifted)
                    .expect("edge came from the model");
                schedule.push(at, Fault::SetWeight(a, b, drifted));
                restores.push(PendingRestore {
                    at: at + outage,
                    crashed_node: None,
                    edges: Vec::new(),
                    weights: vec![(a, b, w)],
                });
            }
        }
    }
    apply_due_restores(&mut model, &mut schedule, &mut restores, f64::INFINITY);
    schedule
}

/// Applies every pending restore due at or before `now` to the model
/// and the schedule, earliest first.
fn apply_due_restores(
    model: &mut Graph,
    schedule: &mut FaultSchedule,
    restores: &mut Vec<PendingRestore>,
    now: f64,
) {
    loop {
        let due: Option<usize> = restores
            .iter()
            .enumerate()
            .filter(|(_, r)| r.at <= now)
            .min_by(|(_, x), (_, y)| x.at.partial_cmp(&y.at).expect("finite times"))
            .map(|(i, _)| i);
        let Some(i) = due else { return };
        let r = restores.remove(i);
        let at = if r.at.is_finite() { r.at } else { now };
        if let Some((node, edges)) = r.crashed_node {
            // Only rejoin with neighbors that are still up.
            let live: Vec<(NodeId, Weight)> = edges
                .into_iter()
                .filter(|&(n, _)| model.has_node(n))
                .collect();
            model.add_node(node);
            for &(n, w) in &live {
                model.add_edge(node, n, w).expect("filtered to live nodes");
            }
            schedule.push(at, Fault::JoinNode { node, edges: live });
        }
        for (a, b, w) in r.edges {
            if model.has_node(a) && model.has_node(b) && !model.has_edge(a, b) {
                model.add_edge(a, b, w).expect("checked endpoints");
                schedule.push(at, Fault::JoinEdge(a, b, w));
            }
        }
        for (a, b, w) in r.weights {
            // A drifted edge may have flapped or lost an endpoint in
            // the meantime; restore the cost only while it is up (the
            // rejoin path re-adds edges at their original weight).
            if model.has_edge(a, b) {
                model.set_weight(a, b, w).expect("checked edge");
                schedule.push(at, Fault::SetWeight(a, b, w));
            }
        }
    }
}

/// A random cut separating a connected region not containing
/// `destination` from the rest: the edges crossing the region's
/// boundary. Empty when no such region exists.
fn random_cut(
    model: &Graph,
    destination: NodeId,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId, Weight)> {
    let candidates: Vec<NodeId> = model.nodes().filter(|&v| v != destination).collect();
    let Some(&seed_node) = candidates.choose(rng) else {
        return Vec::new();
    };
    let budget = (model.node_count() / 2).max(1);
    let target = rng.gen_range(1..=budget);
    // Grow a connected region from the seed node by BFS, never
    // absorbing the destination.
    let mut region = vec![seed_node];
    let mut frontier = vec![seed_node];
    while region.len() < target {
        let Some(v) = frontier.pop() else { break };
        for (n, _) in model.neighbors(v) {
            if n != destination && !region.contains(&n) && region.len() < target {
                region.push(n);
                frontier.push(n);
            }
        }
    }
    model
        .edges()
        .filter(|&(a, b, _)| region.contains(&a) != region.contains(&b))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// `graph` with every edge re-cost to a seeded weight in `1..=9`.
    fn reweighted(mut graph: Graph, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        for (a, b, _) in graph.clone().edges() {
            graph
                .set_weight(a, b, rng.gen_range(1..=9u64))
                .expect("edge exists");
        }
        graph
    }

    /// A ring whose node ids are neither dense nor zero-based, so a node's
    /// rank is not its id.
    fn sparse_id_ring() -> Graph {
        let ids: Vec<NodeId> = (0..7).map(|i| v(5 + 11 * i)).collect();
        let mut g = Graph::new();
        for (i, &a) in ids.iter().enumerate() {
            g.add_edge(a, ids[(i + 1) % ids.len()], 2)
                .expect("fresh edge");
        }
        g
    }

    fn zoo() -> Vec<(&'static str, Graph, NodeId)> {
        let mut rng = StdRng::seed_from_u64(300);
        vec![
            ("grid:4x4", generators::grid(4, 4, 1), v(0)),
            ("grid:7x5", generators::grid(7, 5, 1), v(17)),
            (
                "grid:5x5 weighted",
                reweighted(generators::grid(5, 5, 1), 1),
                v(12),
            ),
            (
                "grid:6x3 weighted",
                reweighted(generators::grid(6, 3, 4), 2),
                v(0),
            ),
            ("ring:8", generators::ring(8, 1), v(0)),
            ("ring, sparse ids", sparse_id_ring(), v(27)),
            ("complete:6", generators::complete(6, 1), v(2)),
            ("star:7, hub", generators::star(7, 1), v(0)),
            ("star:7, leaf", generators::star(7, 1), v(3)),
            ("path:2", generators::path(2, 1), v(0)),
            (
                "waxman:300",
                generators::waxman(300, 0.08, 0.7, &mut rng),
                v(0),
            ),
        ]
    }

    fn mix(flaps: u32, churn: u32, partitions: u32, corruptions: u32, drifts: u32) -> FaultProcess {
        FaultProcess {
            link_flaps: flaps,
            node_churn: churn,
            partitions,
            corruptions,
            weight_drifts: drifts,
            ..FaultProcess::standard()
        }
    }

    /// The five single-class mixes, the two named ones and the benchmark's
    /// `chaos_observed` mix (3:2:1:3:1).
    fn mixes() -> Vec<FaultProcess> {
        vec![
            mix(12, 0, 0, 0, 0),
            mix(0, 12, 0, 0, 0),
            mix(0, 0, 12, 0, 0),
            mix(0, 0, 0, 12, 0),
            mix(0, 0, 0, 0, 12),
            FaultProcess::standard(),
            FaultProcess::corruptions_only(8),
            mix(12, 8, 4, 12, 4),
        ]
    }

    /// Outage bounds against a 300 s window: one tight (every outage the
    /// same length, few overlaps) and one wide (outages that outlast the
    /// window, so most of the topology is down at once).
    const OUTAGES: [(f64, f64); 2] = [(15.0, 15.0), (1.0, 900.0)];
    const WINDOW: f64 = 300.0;

    /// Replays `schedule` against a plain copy of `graph` and checks that
    /// every fault was valid when it fired and every crash healed.
    fn assert_valid(graph: &Graph, destination: NodeId, schedule: &FaultSchedule, ctx: &str) {
        let mut model = graph.clone();
        let mut last = 0.0;
        for (i, e) in schedule.events.iter().enumerate() {
            let ctx = format!("{ctx}: event {i} `{e}`");
            assert!(e.at >= last, "{ctx}: out of time order");
            last = e.at;
            match &e.fault {
                Fault::FailNode(n) => {
                    assert_ne!(*n, destination, "{ctx}: the destination crashed");
                    model
                        .remove_node(*n)
                        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                }
                Fault::JoinNode { node, edges } => {
                    assert!(!model.has_node(*node), "{ctx}: node is already up");
                    model.add_node(*node);
                    for &(n, w) in edges {
                        assert!(model.has_node(n), "{ctx}: rejoins to a down neighbor");
                        assert!(graph.has_edge(*node, n), "{ctx}: not an original edge");
                        model
                            .add_edge(*node, n, w)
                            .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                    }
                }
                Fault::FailEdge(a, b) => {
                    model
                        .remove_edge(*a, *b)
                        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                }
                Fault::JoinEdge(a, b, w) => {
                    assert!(
                        model.has_node(*a) && model.has_node(*b),
                        "{ctx}: endpoint is down"
                    );
                    assert!(graph.has_edge(*a, *b), "{ctx}: not an original edge");
                    model
                        .add_edge(*a, *b, *w)
                        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                }
                Fault::SetWeight(a, b, w) => {
                    model
                        .set_weight(*a, *b, *w)
                        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                }
                Fault::Corrupt { node, kind } => {
                    assert_ne!(*node, destination, "{ctx}: the destination was corrupted");
                    assert!(model.has_node(*node), "{ctx}: victim is down");
                    if let CorruptionKind::MirrorOf { about, .. } = kind {
                        assert!(
                            model.has_edge(*node, *about),
                            "{ctx}: mirror of a non-neighbor"
                        );
                    }
                }
            }
        }
        let up: BTreeSet<NodeId> = model.nodes().collect();
        let all: BTreeSet<NodeId> = graph.nodes().collect();
        assert_eq!(up, all, "{ctx}: nodes left down");
    }

    /// One triple of the suite: the generator equals the oracle, and what
    /// it generated is valid.
    fn check(
        name: &str,
        graph: &Graph,
        dest: NodeId,
        p: &FaultProcess,
        seed: u64,
    ) -> FaultSchedule {
        let ctx = format!("{name} dest {dest} seed {seed} {p:?}");
        let fast = p.generate(graph, dest, WINDOW, seed);
        let slow = generate(p, graph, dest, WINDOW, seed);
        assert_eq!(fast, slow, "{ctx}: generator vs oracle");
        assert_valid(graph, dest, &fast, &ctx);
        fast
    }

    #[test]
    fn generator_matches_the_oracle_and_emits_only_valid_faults() {
        let mut triples = 0;
        let mut faults = 0;
        for (name, graph, dest) in zoo() {
            for base in mixes() {
                for (min_outage, max_outage) in OUTAGES {
                    let p = FaultProcess {
                        min_outage,
                        max_outage,
                        ..base
                    };
                    for seed in 0..4 {
                        faults += check(name, &graph, dest, &p, seed).len();
                        triples += 1;
                    }
                }
            }
        }
        assert!(triples >= 500, "the suite covers {triples} triples");
        assert!(faults > 20 * triples, "the zoo must not be mostly no-ops");
    }

    #[test]
    fn long_dense_processes_match_the_oracle() {
        // Hundreds of markers per run: restores pile up, edges are lost
        // for good to overlapping crashes, weights drift permanently.
        let p = FaultProcess {
            min_outage: 5.0,
            max_outage: 60.0,
            ..mix(90, 60, 30, 90, 30)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let waxman = generators::waxman(120, 0.1, 0.8, &mut rng);
        for seed in 0..3 {
            check("grid:6x6", &generators::grid(6, 6, 1), v(0), &p, seed);
            check("waxman:120", &waxman, v(5), &p, seed);
        }
    }

    #[test]
    fn degenerate_graphs_generate_without_panicking() {
        let everything = FaultProcess {
            min_outage: 200.0,
            max_outage: 400.0,
            ..mix(6, 6, 6, 6, 6)
        };
        // One node: no victim, no edge, nothing to draw from.
        let mut lone = Graph::new();
        lone.add_node(v(4));
        for seed in 0..8 {
            assert!(check("one node", &lone, v(4), &everything, seed).is_empty());
        }
        // Two nodes: the only edge is never flappable, and once the other
        // node is down no class has a candidate left.
        let pair = generators::path(2, 1);
        for seed in 0..8 {
            check("path:2", &pair, v(1), &everything, seed);
        }
        // Every neighbor of the destination churned at once: outages
        // outlast the window, so the hub ends up alone in the model.
        let star = generators::star(6, 1);
        let churn = FaultProcess {
            min_outage: 400.0,
            max_outage: 500.0,
            ..mix(4, 12, 4, 4, 4)
        };
        for seed in 0..8 {
            let s = check("star:6", &star, v(0), &churn, seed);
            let crashed = s
                .events
                .iter()
                .filter(|e| matches!(e.fault, Fault::FailNode(_)))
                .count();
            assert_eq!(crashed, 5, "seed {seed}: every leaf goes down exactly once");
        }
    }
}
