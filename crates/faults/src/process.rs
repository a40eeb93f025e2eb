//! Stochastic fault processes: seeded random chaos schedules.
//!
//! [`FaultProcess`] generalizes [`crate::continuous::RecurringFault`] from
//! "the same plan at a fixed period" to a randomized mix of adversarial
//! network conditions — link flaps, node crash/restart churn,
//! partition-and-heal events and state corruptions — laid out on a
//! [`FaultSchedule`] timeline. All randomness comes from one `StdRng`
//! seed, so a schedule is fully reproducible from `(process config,
//! topology, destination, horizon, seed)`.
//!
//! The generator walks time in order and keeps a model of the evolving
//! topology, so every emitted fault is valid when it fires: it never flaps
//! an edge that is down, never crashes a node twice, restores a crashed
//! node only with edges to neighbors that are still up, and never touches
//! the destination (the paper's protocol has no route to a dead
//! destination, so crashing it only tests trivial behavior).
//!
//! Every random choice is "the `k`-th candidate in [`Graph::nodes`] /
//! [`Graph::edges`] order" for one `gen_range(0..count)`, and no draw at
//! all when there is no candidate. The model (`model.rs`) answers
//! that from rank-indexed trees in `O(log n)`; the test-only `oracle`
//! module answers it by collecting the candidates from a cloned `Graph`,
//! and the two must produce the same schedule, event for event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use lsrp_core::Mirror;
use lsrp_graph::{Distance, Graph, NodeId, Weight};

use crate::fault::{CorruptionKind, Fault};
use crate::model::Model;
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

/// What to re-apply when an outage ends, in model ranks.
#[derive(Debug)]
enum Restore {
    /// A crashed node and the `(neighbor, edge, weight)` it went down with.
    Node(u32, Vec<(u32, u32, Weight)>),
    /// Failed edges and the costs they come back at.
    Edges(Vec<(u32, Weight)>),
    /// A drifted edge and its pre-drift cost.
    Weight(u32, Weight),
}

/// A pending restore, ordered so a max-heap pops the earliest `at` first
/// and, among equal times, the one scheduled first.
#[derive(Debug)]
struct Pending {
    at: f64,
    seq: usize,
    restore: Restore,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.total_cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// A seeded random fault-schedule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProcess {
    /// Number of single-edge flap (fail + later rejoin) events.
    pub link_flaps: u32,
    /// Number of node crash/restart events.
    pub node_churn: u32,
    /// Number of partition-and-heal events (a random cut goes down, then
    /// heals).
    pub partitions: u32,
    /// Number of single-node state corruptions.
    pub corruptions: u32,
    /// Number of link-weight drift (re-cost + later restore) events.
    pub weight_drifts: u32,
    /// Shortest outage (time between a fail and its restore).
    pub min_outage: f64,
    /// Longest outage.
    pub max_outage: f64,
}

impl FaultProcess {
    /// A balanced mix of all fault classes, sized for small topologies.
    pub fn standard() -> Self {
        FaultProcess {
            link_flaps: 3,
            node_churn: 2,
            partitions: 1,
            corruptions: 3,
            weight_drifts: 0,
            min_outage: 20.0,
            max_outage: 120.0,
        }
    }

    /// A corruption-only process (the paper's state-fault model).
    pub fn corruptions_only(corruptions: u32) -> Self {
        FaultProcess {
            link_flaps: 0,
            node_churn: 0,
            partitions: 0,
            corruptions,
            weight_drifts: 0,
            min_outage: 20.0,
            max_outage: 120.0,
        }
    }

    /// Total chaos events this process injects.
    pub fn event_count(&self) -> u32 {
        self.link_flaps + self.node_churn + self.partitions + self.corruptions + self.weight_drifts
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the outage bounds are not `0 < min <= max < ∞`.
    pub fn validate(&self) {
        assert!(
            self.min_outage > 0.0 && self.min_outage.is_finite(),
            "min_outage must be positive and finite"
        );
        assert!(
            self.max_outage >= self.min_outage && self.max_outage.is_finite(),
            "max_outage must be >= min_outage and finite"
        );
    }

    /// Generates a seeded schedule over `graph` with all fault times in
    /// `[0, horizon)` (restores may land up to `max_outage` later).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`FaultProcess::validate`]),
    /// a non-positive `horizon`, or a `graph` without the destination.
    pub fn generate(
        &self,
        graph: &Graph,
        destination: NodeId,
        horizon: f64,
        seed: u64,
    ) -> FaultSchedule {
        self.validate();
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
            (self.link_flaps, MarkerKind::LinkFlap),
            (self.node_churn, MarkerKind::NodeChurn),
            (self.partitions, MarkerKind::Partition),
            (self.corruptions, MarkerKind::Corruption),
            (self.weight_drifts, MarkerKind::WeightDrift),
        ];
        for (count, kind) in classes {
            for _ in 0..count {
                markers.push((rng.gen_range(0.0..horizon), kind));
            }
        }
        markers.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        let mut walk = Walk {
            model: Model::new(graph, destination),
            schedule: FaultSchedule::new(),
            restores: BinaryHeap::new(),
            scheduled: 0,
        };
        for (at, kind) in markers {
            // Restores due before this marker change the model first.
            walk.apply_due_restores(at);
            let outage = rng.gen_range(self.min_outage..=self.max_outage);
            let Walk {
                model, schedule, ..
            } = &mut walk;
            let restore = match kind {
                MarkerKind::LinkFlap => {
                    // Only flap edges whose loss keeps both endpoints
                    // degree >= 1 in the model; isolating a node entirely
                    // is the NodeChurn class's job.
                    let Some(e) = model.choose_flappable(&mut rng) else {
                        continue;
                    };
                    let (a, b, w) = model.edge(e);
                    model.remove_edge(e);
                    schedule.push(at, Fault::FailEdge(a, b));
                    Restore::Edges(vec![(e, w)])
                }
                MarkerKind::NodeChurn => {
                    let Some(victim) = model.choose_victim(&mut rng) else {
                        continue;
                    };
                    let edges = model.remove_node(victim);
                    schedule.push(at, Fault::FailNode(model.node(victim)));
                    Restore::Node(victim, edges)
                }
                MarkerKind::Partition => {
                    // A random cut separating a connected region not
                    // containing the destination from the rest.
                    let Some(seed_node) = model.choose_victim(&mut rng) else {
                        continue;
                    };
                    let budget = (model.live_count() / 2).max(1);
                    let target = rng.gen_range(1..=budget);
                    let cut = model.cut_around(seed_node, target);
                    if cut.is_empty() {
                        continue;
                    }
                    let mut edges = Vec::with_capacity(cut.len());
                    for e in cut {
                        let (a, b, w) = model.edge(e);
                        model.remove_edge(e);
                        schedule.push(at, Fault::FailEdge(a, b));
                        edges.push((e, w));
                    }
                    Restore::Edges(edges)
                }
                MarkerKind::Corruption => {
                    let Some(victim) = model.choose_victim(&mut rng) else {
                        continue;
                    };
                    let victim_id = model.node(victim);
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
                            let neighbors: Vec<NodeId> = model
                                .neighbors(victim)
                                .map(|(n, _)| model.node(n))
                                .collect();
                            let forged_parent = *neighbors.choose(&mut rng).unwrap_or(&victim_id);
                            for &n in neighbors.iter().filter(|&&n| n != destination) {
                                schedule.push(
                                    at,
                                    Fault::Corrupt {
                                        node: n,
                                        kind: CorruptionKind::MirrorOf {
                                            about: victim_id,
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
                        1 => CorruptionKind::Parent(
                            *model
                                .original_nodes()
                                .choose(&mut rng)
                                .expect("the graph has its destination"),
                        ),
                        _ => CorruptionKind::Ghost(rng.gen_bool(0.5)),
                    };
                    schedule.push(
                        at,
                        Fault::Corrupt {
                            node: victim_id,
                            kind,
                        },
                    );
                    continue;
                }
                MarkerKind::WeightDrift => {
                    // Re-cost one live edge (a metric change, not an
                    // outage): the drifted weight holds for the outage
                    // duration, then the original cost is restored — two
                    // legitimate-state perturbations per drift event.
                    // Edges with a restore still pending are excluded, so
                    // "original" always means the pre-drift cost and every
                    // drift unwinds fully.
                    let Some(e) = model.choose_driftable(&mut rng) else {
                        continue;
                    };
                    let (a, b, w) = model.edge(e);
                    let drifted = w + rng.gen_range(1..=9u64);
                    model.set_weight(e, drifted);
                    model.set_drifting(e, true);
                    schedule.push(at, Fault::SetWeight(a, b, drifted));
                    Restore::Weight(e, w)
                }
            };
            walk.restore_at(at + outage, restore);
        }
        walk.apply_due_restores(f64::INFINITY);
        walk.schedule
    }
}

/// The state one [`FaultProcess::generate`] call walks forward in time.
struct Walk {
    model: Model,
    schedule: FaultSchedule,
    restores: BinaryHeap<Pending>,
    /// Restores scheduled so far: the tie-break among equal times.
    scheduled: usize,
}

impl Walk {
    fn restore_at(&mut self, at: f64, restore: Restore) {
        self.restores.push(Pending {
            at,
            seq: self.scheduled,
            restore,
        });
        self.scheduled += 1;
    }

    /// Applies every pending restore due at or before `now` to the model
    /// and the schedule, earliest first.
    fn apply_due_restores(&mut self, now: f64) {
        let Walk {
            model,
            schedule,
            restores,
            ..
        } = self;
        while restores.peek().is_some_and(|r| r.at <= now) {
            let Pending { at, restore, .. } = restores.pop().expect("peeked");
            match restore {
                Restore::Node(v, edges) => {
                    // Only rejoin with neighbors that are still up.
                    model.add_node(v);
                    let mut live = Vec::with_capacity(edges.len());
                    for (n, e, w) in edges {
                        if model.is_live(n) {
                            model.add_edge(e, w);
                            live.push((model.node(n), w));
                        }
                    }
                    schedule.push(
                        at,
                        Fault::JoinNode {
                            node: model.node(v),
                            edges: live,
                        },
                    );
                }
                Restore::Edges(edges) => {
                    for (e, w) in edges {
                        let (a, b) = model.ends(e);
                        if model.is_live(a) && model.is_live(b) && !model.is_present(e) {
                            model.add_edge(e, w);
                            schedule.push(at, Fault::JoinEdge(model.node(a), model.node(b), w));
                        }
                    }
                }
                Restore::Weight(e, w) => {
                    // A drifted edge may have flapped or lost an endpoint
                    // in the meantime; restore the cost only while it is
                    // up (a rejoin re-adds it at the cost it went down
                    // with).
                    model.set_drifting(e, false);
                    if model.is_present(e) {
                        model.set_weight(e, w);
                        let (a, b, _) = model.edge(e);
                        schedule.push(at, Fault::SetWeight(a, b, w));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = generators::grid(4, 4, 1);
        let p = FaultProcess::standard();
        let a = p.generate(&g, v(0), 500.0, 7);
        let b = p.generate(&g, v(0), 500.0, 7);
        assert_eq!(a, b);
        let c = p.generate(&g, v(0), 500.0, 8);
        assert_ne!(a, c, "different seeds must differ");
        assert!(!a.is_empty());
    }

    #[test]
    fn restores_pop_earliest_first_and_ties_in_scheduling_order() {
        // Equal restore times cannot be provoked through `generate` (they
        // are sums of random floats), so the tie order is pinned here.
        let mut walk = Walk {
            model: Model::new(&generators::path(2, 1), v(0)),
            schedule: FaultSchedule::new(),
            restores: BinaryHeap::new(),
            scheduled: 0,
        };
        for (at, tag) in [(7.0, 0), (3.0, 1), (7.0, 2), (3.0, 3), (5.0, 4)] {
            walk.restore_at(at, Restore::Weight(0, tag));
        }
        let order: Vec<(f64, Weight)> = std::iter::from_fn(|| walk.restores.pop())
            .map(|p| match p.restore {
                Restore::Weight(_, tag) => (p.at, tag),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [(3.0, 1), (3.0, 3), (5.0, 4), (7.0, 0), (7.0, 2)]);
    }

    #[test]
    fn generated_schedules_replay_against_a_simulation() {
        use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
        let g = generators::grid(3, 3, 1);
        let p = FaultProcess::standard();
        let s = p.generate(&g, v(0), 300.0, 42);
        let mut sim = LsrpSimulation::builder(g, v(0)).build();
        let report = s.drive_lsrp(&mut sim, 50_000.0);
        assert!(report.quiescent);
        // All outages healed, so the final topology is the original and
        // LSRP must have stabilized back to correct routes.
        assert!(sim.routes_correct());
    }

    #[test]
    fn weight_drifts_recost_and_restore() {
        let g = generators::grid(4, 4, 1);
        let p = FaultProcess {
            link_flaps: 0,
            node_churn: 0,
            partitions: 0,
            corruptions: 0,
            weight_drifts: 4,
            ..FaultProcess::standard()
        };
        let s = p.generate(&g, v(0), 400.0, 11);
        let drifts: Vec<_> = s
            .events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::SetWeight(a, b, w) => Some((a, b, w)),
                _ => None,
            })
            .collect();
        assert_eq!(drifts.len(), 8, "each drift must pair with a restore");
        // Every drifted edge ends back at its original unit cost.
        let mut model = g;
        for &(a, b, w) in &drifts {
            model.set_weight(a, b, w).expect("edge is live");
        }
        assert!(model.edges().all(|(_, _, w)| w == 1));
    }

    #[test]
    fn zero_weight_drifts_preserve_existing_schedules() {
        // Appending the class must not disturb the RNG stream older
        // configs consume: standard() schedules replay byte-identically.
        let g = generators::grid(4, 4, 1);
        let a = FaultProcess::standard().generate(&g, v(0), 500.0, 7);
        let b = FaultProcess {
            weight_drifts: 0,
            ..FaultProcess::standard()
        }
        .generate(&g, v(0), 500.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn corruptions_only_emits_no_topology_faults() {
        let g = generators::ring(8, 1);
        let s = FaultProcess::corruptions_only(12).generate(&g, v(0), 200.0, 3);
        assert!(!s.is_empty());
        assert!(s.events.iter().all(|e| !e.fault.is_topological()));
    }

    /// The planning work of 10,000 markers in a 3:2:1:3:1 mix on a
    /// `width`×`width` grid: Fenwick steps plus adjacency entries visited.
    fn planning_steps(width: u32) -> u64 {
        use crate::model::STEPS;
        let process = FaultProcess {
            link_flaps: 3_000,
            node_churn: 2_000,
            partitions: 1_000,
            corruptions: 3_000,
            weight_drifts: 1_000,
            ..FaultProcess::standard()
        };
        let graph = generators::grid(width, width, 1);
        let before = STEPS.with(std::cell::Cell::get);
        process.generate(&graph, v(0), 1_000_000.0, 42);
        STEPS.with(std::cell::Cell::get) - before
    }

    /// Planning a marker costs `O(log E)` Fenwick steps plus the
    /// adjacency of the nodes it touches — a partition's region grows
    /// with the topology by design, everything else does not. The bounds
    /// are the counts measured; one pass over the topology per marker
    /// (collecting the candidates to draw from) exceeds them.
    #[test]
    fn planning_a_marker_never_passes_over_the_topology() {
        for (width, bound) in [(16, 1_174_689), (64, 8_812_255)] {
            let steps = planning_steps(width);
            println!(
                "{width}x{width}: {steps} steps, {:.1} per marker",
                steps as f64 / 1e4
            );
            assert!(steps <= bound, "{width}x{width}: {steps} steps");
        }
    }

    #[test]
    #[should_panic(expected = "max_outage must be >= min_outage")]
    fn inverted_outage_bounds_rejected() {
        let p = FaultProcess {
            min_outage: 10.0,
            max_outage: 5.0,
            ..FaultProcess::standard()
        };
        p.generate(&generators::path(3, 1), v(0), 100.0, 0);
    }
}
