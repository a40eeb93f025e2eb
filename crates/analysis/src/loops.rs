//! Loop-episode measurement (Theorems 3–4, Corollary 3).

use lsrp_graph::{Distance, NodeId};
use lsrp_sim::{RouteDelta, RouteView};

use crate::sim_trait::RoutingSimulation;

/// Incremental routing-loop detector over the engine's route-delta feed.
///
/// Gives the same yes/no answer as
/// [`RouteTable::has_routing_loop`](lsrp_graph::RouteTable::has_routing_loop)
/// — walking parent pointers with the destination and `∞`-distance entries
/// treated as roots — but only walks from nodes whose entry *changed* since
/// the last check, over the live [`RouteView`]. Soundness: a parent-pointer
/// cycle exists iff its members' entries form it, so any cycle born since a
/// loop-free check contains at least one changed node, and the walk
/// starting there goes around it; any walk that reaches a cycle node goes
/// around the cycle, so the answer does not depend on the order in which
/// starts are walked. After a positive answer the next check re-walks every
/// node (`force_full`): a persisting cycle's members may never change
/// again, so the dirty-only screen must not be trusted until the table is
/// proven loop-free once more.
///
/// Per-check cost is O(dirty + nodes visited); with no changes it is O(1).
#[derive(Debug)]
pub struct LoopScreen {
    dest: NodeId,
    /// Nodes whose entry changed since the last check (repeats allowed).
    dirty: Vec<NodeId>,
    /// Walk stamps by raw id: `stamps[v] == w` means walk `w` visited `v`.
    stamps: Vec<u64>,
    next_walk: u64,
    force_full: bool,
}

impl LoopScreen {
    /// A screen toward `dest`; the first check walks every node.
    pub fn new(dest: NodeId) -> Self {
        LoopScreen {
            dest,
            dirty: Vec::new(),
            stamps: Vec::new(),
            next_walk: 1,
            force_full: true,
        }
    }

    /// Marks the nodes a batch of route deltas touched. Removals cannot
    /// create a cycle (nobody else's parent changed), so only live entries
    /// are marked.
    pub fn absorb(&mut self, deltas: &[RouteDelta]) {
        self.dirty
            .extend(deltas.iter().filter(|d| d.new.is_some()).map(|d| d.node));
    }

    /// Whether `view` — the view whose deltas were absorbed — currently has
    /// a routing loop. Clears the dirty set.
    pub fn has_loop(&mut self, view: &RouteView) -> bool {
        let mut dirty = std::mem::take(&mut self.dirty);
        let round_floor = self.next_walk;
        let found = if self.force_full {
            view.iter()
                .any(|(u, _)| self.walk_finds_cycle(view, u, round_floor))
        } else {
            dirty
                .iter()
                .any(|&u| self.walk_finds_cycle(view, u, round_floor))
        };
        dirty.clear();
        self.dirty = dirty;
        self.force_full = found;
        found
    }

    /// Follows parent pointers from `start` until a root, a node cleared by
    /// an earlier walk of this round, or a revisit on the current path (a
    /// cycle). Mirrors the canonical detector's scrubbing: the destination,
    /// missing entries, `∞` distances and self-parents all terminate.
    fn walk_finds_cycle(&mut self, view: &RouteView, start: NodeId, round_floor: u64) -> bool {
        let walk = self.next_walk;
        self.next_walk += 1;
        let mut cur = start;
        loop {
            // The destination and nodes without an entry end every walk
            // through them, so they are never stamped.
            if cur == self.dest {
                return false;
            }
            let Some(e) = view.entry(cur) else {
                return false;
            };
            let i = cur.raw() as usize;
            if i >= self.stamps.len() {
                self.stamps.resize(i + 1, 0);
            }
            match self.stamps[i] {
                s if s == walk => return true,
                s if s >= round_floor => return false,
                _ => self.stamps[i] = walk,
            }
            if e.route.distance == Distance::Infinite || e.route.parent == cur {
                return false;
            }
            cur = e.route.parent;
        }
    }
}

/// Outcome of a loop-breakage measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopBreakage {
    /// Whether a routing loop existed right after injection.
    pub loop_injected: bool,
    /// Time from injection until no routing loop existed (and none
    /// returned for the rest of the run); `None` if one survived to the
    /// horizon.
    pub broken_after: Option<f64>,
    /// Total number of distinct loop episodes observed (an episode ends
    /// when the table becomes loop-free).
    pub episodes: u32,
    /// The longest single episode, in simulated seconds.
    pub longest_episode: f64,
    /// Whether the run settled with correct routes.
    pub converged: bool,
}

/// Steps the simulation event by event, tracking routing-loop episodes
/// until quiescence or `horizon`. Call right after injecting the loop.
pub fn measure_loop_breakage<S: RoutingSimulation + ?Sized>(
    sim: &mut S,
    horizon: f64,
) -> LoopBreakage {
    let dest = sim.destination();
    let t0 = sim.now().seconds();
    // Loop presence is tracked incrementally from the route-delta feed —
    // O(changes) per event instead of rebuilding and re-walking the full
    // table. The measurement owns the log: it trims behind itself.
    let mut cursor = sim.route_cursor();
    let mut screen = LoopScreen::new(dest);
    let mut looped = screen.has_loop(sim.route_view());
    let loop_injected = looped;
    let mut episodes = u32::from(looped);
    let mut episode_start = t0;
    let mut longest: f64 = 0.0;
    let mut last_loop_free = if looped { None } else { Some(t0) };

    while let Some(t) = sim.step() {
        if t.seconds() > horizon {
            break;
        }
        let deltas = sim.route_deltas_since(cursor);
        let consumed = deltas.len();
        screen.absorb(deltas);
        cursor = cursor.advanced(consumed);
        sim.trim_route_deltas(cursor);
        // An existing loop persists untouched while nothing changes; a
        // loop-free table stays loop-free the same way (both O(1) here).
        let now_looped = if looped && consumed == 0 {
            true
        } else {
            screen.has_loop(sim.route_view())
        };
        match (looped, now_looped) {
            (false, true) => {
                episodes += 1;
                episode_start = t.seconds();
                last_loop_free = None;
            }
            (true, false) => {
                longest = longest.max(t.seconds() - episode_start);
                last_loop_free = Some(t.seconds());
            }
            _ => {}
        }
        looped = now_looped;
    }
    if looped {
        longest = longest.max(sim.now().seconds() - episode_start);
    }
    LoopBreakage {
        loop_injected,
        broken_after: last_loop_free.map(|t| t - t0),
        episodes,
        longest_episode: longest,
        converged: sim.routes_correct(),
    }
}

/// Injects a parent loop along `cycle` into any protocol
/// ([`lsrp_faults::loops::loop_plan`]: the routes, then every neighbor's
/// mirror of them), then measures breakage. Distances follow
/// [`lsrp_faults::loops::cycle_assignment`] with the given base.
///
/// # Panics
///
/// Panics if `cycle` does not follow edges of the graph.
pub fn inject_and_measure<S: RoutingSimulation + ?Sized>(
    sim: &mut S,
    cycle: &[NodeId],
    base: u64,
    horizon: f64,
) -> LoopBreakage {
    let plan = lsrp_faults::loops::loop_plan(sim.graph(), cycle, base, |n| sim.advert(n));
    sim.reset_trace();
    sim.apply_plan(&plan).expect("corruptions always apply");
    measure_loop_breakage(sim, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn lsrp_breaks_injected_loops_fast() {
        let g = generators::lollipop(2, 8, 1);
        let ring = generators::lollipop_ring(2, 8);
        let mut sim = LsrpSimulation::builder(g, v(0)).build();
        let b = inject_and_measure(&mut sim, &ring, 60, 1_000_000.0);
        assert!(b.loop_injected);
        let broken = b.broken_after.expect("loop must break");
        // Corollary 3: within O(hd_S + d) = 17 + 1 (paper-example timing).
        assert!(broken <= 18.001, "broken after {broken}");
        assert!(b.converged);
    }

    #[test]
    fn loop_free_start_reports_no_episodes() {
        let mut sim = LsrpSimulation::builder(generators::path(4, 1), v(0)).build();
        let b = measure_loop_breakage(&mut sim, 1_000.0);
        assert!(!b.loop_injected);
        assert_eq!(b.episodes, 0);
        assert_eq!(b.broken_after, Some(0.0));
        assert!(b.converged);
    }
}
