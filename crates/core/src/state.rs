//! LSRP per-node state: the protocol variables of Figure 4.
//!
//! Per node `v` the protocol maintains:
//!
//! * `d.v` — distance to the destination (problem-specific);
//! * `p.v` — next-hop / parent in the shortest path tree (problem-specific);
//! * `ghost.v` — whether `v` is involved in a containment wave;
//! * `t.v` — local-clock time of the last broadcast (drives `SYN1`);
//! * mirrors `d.k.v`, `p.k.v`, `ghost.k.v` of each neighbor `k`'s latest
//!   broadcast values.
//!
//! Every field is public: the fault model includes arbitrary state
//! corruption, which experiments perform by mutating fields directly.
//! `N.v` and the mirrors live in a [`NeighborTable`], which keeps the
//! invariants the guards rely on (rows sorted by id, mirrors only about
//! current neighbors); [`NeighborExt`] reads a row the LSRP way.

use lsrp_graph::{Distance, NodeId, RouteEntry, Weight};
use lsrp_sim::NeighborTable;

/// A node's view of one neighbor's latest broadcast `(d, p, ghost)`.
pub use lsrp_sim::Mirror;

/// The message LSRP nodes broadcast: the sender's current
/// `(d, p, ghost)`. The paper's actions broadcast only the variables they
/// changed; sending the full triple is state-equivalent (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsrpMsg {
    /// Sender's distance.
    pub d: Distance,
    /// Sender's parent.
    pub p: NodeId,
    /// Sender's containment flag.
    pub ghost: bool,
}

/// One row of an LSRP neighbor table. `heard: None` differs from
/// `Some(Mirror::unknown(k))`: a first message with those values counts.
pub type Neighbor = lsrp_sim::Neighbor<Mirror>;

/// LSRP's reading of a [`Neighbor`] row.
pub trait NeighborExt {
    /// The mirror `(d.k.v, p.k.v, ghost.k.v)` ([`Mirror::unknown`] if
    /// nothing heard).
    fn mirror(&self) -> Mirror;

    /// The distance this neighbor offers: `d.k.v + w.v.k`.
    fn offer(&self) -> Distance;
}

impl NeighborExt for Neighbor {
    fn mirror(&self) -> Mirror {
        #[cfg(test)]
        ROWS_READ.with(|c| c.set(c.get() + 1));
        self.heard.unwrap_or(Mirror::unknown(self.id))
    }

    fn offer(&self) -> Distance {
        self.mirror().d.plus(self.weight)
    }
}

#[cfg(test)]
thread_local! {
    /// Neighbor rows read on this thread: every read of a row goes
    /// through [`NeighborExt::mirror`].
    pub(crate) static ROWS_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The full protocol state of one LSRP node.
#[derive(Debug, Clone, PartialEq)]
pub struct LsrpState {
    /// This node's id.
    pub id: NodeId,
    /// The destination node `dest` every node routes toward.
    pub dest: NodeId,
    /// Distance to the destination (`d.v`).
    pub d: Distance,
    /// Parent / next-hop (`p.v`); a routeless node points at itself.
    pub p: NodeId,
    /// Containment-wave involvement (`ghost.v`).
    pub ghost: bool,
    /// Local-clock time of the last broadcast (`t.v`).
    pub t_last: f64,
    /// `N.v` with `w.v.k` and the mirrors, sorted by neighbor id.
    pub neighbors: NeighborTable<Mirror>,
}

impl LsrpState {
    /// Fresh state for a node that knows nothing: no route, self parent
    /// (the destination starts with `d = 0, p = dest` instead), nothing
    /// heard from any neighbor. `neighbors` yields each neighbor once, in
    /// any order (see [`NeighborTable::new`]).
    pub fn fresh(
        id: NodeId,
        dest: NodeId,
        neighbors: impl IntoIterator<Item = (NodeId, Weight)>,
    ) -> Self {
        let (d, p) = if id == dest {
            (Distance::ZERO, dest)
        } else {
            (Distance::Infinite, id)
        };
        LsrpState {
            id,
            dest,
            d,
            p,
            ghost: false,
            t_last: 0.0,
            neighbors: NeighborTable::new(neighbors),
        }
    }

    /// The mirror of `k` ([`Mirror::unknown`] if nothing heard, or if `k`
    /// is not a neighbor).
    pub fn mirror(&self, k: NodeId) -> Mirror {
        self.neighbors
            .get(k)
            .map_or_else(|| Mirror::unknown(k), Neighbor::mirror)
    }

    /// The distance neighbor `k` currently offers this node:
    /// `d.k.v + w.v.k`, or `∞` if `k` is not a neighbor.
    pub fn offer(&self, k: NodeId) -> Distance {
        self.neighbors
            .get(k)
            .map_or(Distance::Infinite, Neighbor::offer)
    }

    /// The broadcast message for the current state.
    pub fn message(&self) -> LsrpMsg {
        LsrpMsg {
            d: self.d,
            p: self.p,
            ghost: self.ghost,
        }
    }

    /// The problem-specific variables `(d.v, p.v)`.
    pub fn route_entry(&self) -> RouteEntry {
        RouteEntry::new(self.d, self.p)
    }

    /// Updates the mirror of `from` with a received message (`SYN2`);
    /// same result as [`NeighborTable::record`].
    pub fn absorb(&mut self, from: NodeId, msg: &LsrpMsg) -> bool {
        self.neighbors.record(
            from,
            &Mirror {
                d: msg.d,
                p: msg.p,
                ghost: msg.ghost,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn state() -> LsrpState {
        LsrpState::fresh(v(0), v(9), [(v(1), 2), (v(2), 1)])
    }

    #[test]
    fn fresh_non_destination_has_no_route() {
        let s = state();
        assert_eq!(s.d, Distance::Infinite);
        assert_eq!(s.p, v(0));
        assert!(!s.ghost);
    }

    #[test]
    fn fresh_destination_is_rooted() {
        let s = LsrpState::fresh(v(9), v(9), []);
        assert_eq!(s.d, Distance::ZERO);
        assert_eq!(s.p, v(9));
    }

    #[test]
    fn offers_use_mirror_plus_weight() {
        let mut s = state();
        assert_eq!(s.offer(v(1)), Distance::Infinite); // unknown mirror
        assert!(s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(3),
                p: v(9),
                ghost: false
            }
        ));
        assert_eq!(s.offer(v(1)), Distance::Finite(5));
        assert_eq!(s.offer(v(42)), Distance::Infinite); // not a neighbor
    }

    #[test]
    fn absorb_reports_change_only_when_different() {
        let mut s = state();
        let m = LsrpMsg {
            d: Distance::Finite(1),
            p: v(9),
            ghost: true,
        };
        assert!(s.absorb(v(2), &m));
        assert!(!s.absorb(v(2), &m));
    }

    #[test]
    fn neighbor_changes_drop_stale_mirrors() {
        let mut s = state();
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(1),
                ghost: false,
            },
        );
        s.neighbors.reconcile(&[(v(2), 1)]);
        assert!(s.neighbors.get(v(1)).is_none());
        assert_eq!(s.mirror(v(1)), Mirror::unknown(v(1)));
        assert_eq!(s.offer(v(1)), Distance::Infinite);
    }

    #[test]
    fn first_hearing_of_the_unknown_value_is_a_change() {
        // The engine counts an event as effective when a mirror changed;
        // "nothing heard" and "heard exactly the default" must differ.
        let mut s = state();
        let unknown = Mirror::unknown(v(1));
        assert_eq!(s.mirror(v(1)), unknown);
        let msg = LsrpMsg {
            d: unknown.d,
            p: unknown.p,
            ghost: unknown.ghost,
        };
        assert!(s.absorb(v(1), &msg), "first message always changes");
        assert!(!s.absorb(v(1), &msg), "the repeat does not");
        assert_eq!(s.mirror(v(1)), unknown);
    }

    #[test]
    fn mirror_about_a_non_neighbor_is_not_state() {
        let mut s = state();
        let forged = Mirror {
            d: Distance::ZERO,
            p: v(9),
            ghost: true,
        };
        let before = s.clone();
        assert!(!s.neighbors.record(v(7), &forged), "v7 is not a neighbor");
        assert_eq!(s, before);
        assert_eq!(s.mirror(v(7)), Mirror::unknown(v(7)));
        // ...so a later edge to v7 starts unheard instead of promoting
        // the forged entry, while surviving neighbors keep their mirrors
        // and vanished ones lose theirs.
        assert!(s.neighbors.record(v(1), &forged));
        assert!(s.neighbors.record(v(2), &forged));
        s.neighbors.reconcile(&[(v(2), 5), (v(7), 1)]);
        let ids: Vec<NodeId> = s.neighbors.rows().iter().map(|n| n.id).collect();
        assert_eq!(ids, [v(2), v(7)]);
        assert_eq!(s.neighbors.get(v(7)).unwrap().heard, None);
        assert_eq!(s.neighbors.get(v(2)).unwrap().heard, Some(forged));
        assert_eq!(s.neighbors.get(v(2)).unwrap().weight, 5);
        assert_eq!(s.mirror(v(1)), Mirror::unknown(v(1)));
        // Re-adding v1 does not resurrect what was heard before it left.
        s.neighbors.reconcile(&[(v(1), 2), (v(2), 5)]);
        assert_eq!(s.neighbors.get(v(1)).unwrap().heard, None);
    }

    #[test]
    fn fresh_sorts_whatever_order_it_is_given() {
        let s = LsrpState::fresh(v(0), v(9), [(v(5), 1), (v(2), 3), (v(4), 2)]);
        let rows: Vec<(NodeId, Weight)> = s
            .neighbors
            .rows()
            .iter()
            .map(|n| (n.id, n.weight))
            .collect();
        assert_eq!(rows, [(v(2), 3), (v(4), 2), (v(5), 1)]);
        let sorted = LsrpState::fresh(v(0), v(9), [(v(2), 3), (v(4), 2), (v(5), 1)]);
        assert_eq!(s, sorted);
    }

    #[test]
    fn message_reflects_state() {
        let mut s = state();
        s.d = Distance::Finite(4);
        s.p = v(1);
        s.ghost = true;
        let m = s.message();
        assert_eq!(m.d, Distance::Finite(4));
        assert_eq!(m.p, v(1));
        assert!(m.ghost);
        assert_eq!(s.route_entry().distance, Distance::Finite(4));
    }
}
