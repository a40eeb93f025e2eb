//! Containment-wave genealogy: reconstructing the appendix's proof
//! objects — containment trees, their depth and lifetime — from a stepped
//! simulation.
//!
//! The Lemma-1 proof sketch bounds `d_cw`, the farthest distance a
//! containment wave propagates before the super-containment wave catches
//! it, by `O(p)`. This module watches the containment set event by event
//! and groups entries into *episodes*: a node entering containment whose
//! current parent is already in containment joins its parent's episode one
//! level deeper (the containment wave propagating outward); any other
//! entry starts a new episode as its initiator.

use std::collections::{BTreeMap, BTreeSet};

use lsrp_graph::NodeId;

use crate::sim_trait::RoutingSimulation;

/// One containment episode (a containment tree over its lifetime).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainmentEpisode {
    /// The node that initiated this wave.
    pub initiator: NodeId,
    /// Every node that was ever part of this tree, with its depth.
    pub members: BTreeMap<NodeId, usize>,
    /// Maximum tree depth reached (0 = the initiator alone) — the
    /// `d_cw` quantity of the Lemma-1 proof.
    pub max_depth: usize,
    /// When the initiator entered containment.
    pub started: f64,
    /// When the last member left containment (`None` if still alive at
    /// the measurement horizon).
    pub ended: Option<f64>,
}

impl ContainmentEpisode {
    /// Episode duration, if it completed.
    pub fn duration(&self) -> Option<f64> {
        self.ended.map(|e| e - self.started)
    }
}

/// Steps the simulation until quiet (no protocol-variable change for
/// `settle` simulated seconds) or `horizon`, tracking containment
/// episodes. Call right after injecting the fault.
pub fn track_containment<S: RoutingSimulation + ?Sized>(
    sim: &mut S,
    horizon: f64,
    settle: f64,
) -> Vec<ContainmentEpisode> {
    let t0 = sim.now().seconds();
    let mut episodes: Vec<ContainmentEpisode> = Vec::new();
    // node -> (episode index, depth) while in containment.
    let mut active: BTreeMap<NodeId, (usize, usize)> = BTreeMap::new();
    let mut in_containment: BTreeSet<NodeId> = sim.containment_set();
    // Nodes already ghosted at injection time are episode initiators.
    for &n in &in_containment {
        episodes.push(ContainmentEpisode {
            initiator: n,
            members: BTreeMap::from([(n, 0)]),
            max_depth: 0,
            started: t0,
            ended: None,
        });
        active.insert(n, (episodes.len() - 1, 0));
    }

    let mut last_change = t0;
    while let Some(t) = sim.step() {
        let now = t.seconds();
        if let Some(c) = sim.trace().last_var_change_since(lsrp_sim::SimTime::ZERO) {
            last_change = last_change.max(c.seconds());
        }
        let current = sim.containment_set();
        if current != in_containment {
            let table = sim.route_table();
            // Entries.
            for &n in current.difference(&in_containment) {
                let parent = table.entry(n).map(|e| e.parent);
                let joined = parent.and_then(|p| active.get(&p).copied());
                match joined {
                    Some((idx, pdepth)) if parent != Some(n) => {
                        let depth = pdepth + 1;
                        episodes[idx].members.insert(n, depth);
                        episodes[idx].max_depth = episodes[idx].max_depth.max(depth);
                        active.insert(n, (idx, depth));
                    }
                    _ => {
                        episodes.push(ContainmentEpisode {
                            initiator: n,
                            members: BTreeMap::from([(n, 0)]),
                            max_depth: 0,
                            started: now,
                            ended: None,
                        });
                        active.insert(n, (episodes.len() - 1, 0));
                    }
                }
            }
            // Exits.
            for &n in in_containment.difference(&current) {
                if let Some((idx, _)) = active.remove(&n) {
                    let still_alive = active.values().any(|&(i, _)| i == idx);
                    if !still_alive {
                        episodes[idx].ended = Some(now);
                    }
                }
            }
            in_containment = current;
        }
        if now > horizon || (settle > 0.0 && now > last_change + settle) {
            break;
        }
    }
    episodes
}

/// Summary statistics over a set of episodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveStats {
    /// Number of episodes.
    pub episodes: usize,
    /// Largest containment tree (member count).
    pub max_members: usize,
    /// Deepest containment tree (`d_cw`).
    pub max_depth: usize,
    /// Longest completed episode, seconds.
    pub max_duration: f64,
}

/// Computes [`WaveStats`].
pub fn wave_stats(episodes: &[ContainmentEpisode]) -> WaveStats {
    WaveStats {
        episodes: episodes.len(),
        max_members: episodes.iter().map(|e| e.members.len()).max().unwrap_or(0),
        max_depth: episodes.iter().map(|e| e.max_depth).max().unwrap_or(0),
        max_duration: episodes
            .iter()
            .filter_map(ContainmentEpisode::duration)
            .fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
    use lsrp_graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
    use lsrp_graph::{generators, Distance};
    use lsrp_sim::CorruptionKind;

    #[test]
    fn figure5_is_one_single_node_episode() {
        let mut sim = LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
            .initial_state(InitialState::Table(fig1_route_table()))
            .timing(TimingConfig::paper_example(1.0))
            .build();
        sim.corrupt_distance(v(9), Distance::Finite(1));
        let episodes = track_containment(&mut sim as &mut dyn RoutingSimulation, 10_000.0, 100.0);
        assert_eq!(episodes.len(), 1);
        assert_eq!(episodes[0].initiator, v(9));
        assert_eq!(episodes[0].max_depth, 0, "ideal containment: no spread");
        assert!(episodes[0].ended.is_some());
        let s = wave_stats(&episodes);
        assert_eq!(s.max_members, 1);
    }

    #[test]
    fn figure6_wave_reaches_depth_one() {
        let mut sim = LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
            .initial_state(InitialState::Table(fig1_route_table()))
            .timing(TimingConfig::paper_example(1.0))
            .build();
        sim.corrupt_distance(v(11), Distance::Finite(2));
        sim.corrupt(
            v(13),
            &CorruptionKind::MirrorOf {
                about: v(11),
                mirror: lsrp_core::Mirror {
                    d: Distance::Finite(2),
                    p: v(2),
                    ghost: false,
                },
            },
        );
        let episodes = track_containment(&mut sim as &mut dyn RoutingSimulation, 10_000.0, 100.0);
        // One wave: initiated at v13, propagated to its child v9.
        assert_eq!(episodes.len(), 1, "{episodes:?}");
        assert_eq!(episodes[0].initiator, v(13));
        assert!(episodes[0].members.contains_key(&v(9)));
        assert_eq!(episodes[0].max_depth, 1);
        assert!(episodes[0].duration().unwrap() > 0.0);
    }

    #[test]
    fn no_fault_no_episodes() {
        let mut sim = LsrpSimulation::builder(generators::grid(3, 3, 1), v(0)).build();
        let episodes = track_containment(&mut sim as &mut dyn RoutingSimulation, 1_000.0, 50.0);
        assert!(episodes.is_empty());
    }
}
