//! The guard predicates of LSRP (Figure 4 / §IV-D), reconstructed from the
//! paper's prose definitions.
//!
//! Naming follows the paper: `MP` (minimal point), `SP` (source of fault
//! propagation), `SW` (should propagate a stabilization wave), `CW` (should
//! propagate a containment wave), `PS` (parent substitute), `SCW` (should
//! initiate/propagate a super-containment wave).
//!
//! Two comparison operators are ambiguous in the scanned text and are
//! resolved as follows (both pinned by the Figure 5/6 timeline tests in
//! `protocol.rs`):
//!
//! * the blocker inside `CW` is **strict** (`offer < d.v`): a neighbor
//!   offering exactly `d.v` does not stop containment from propagating —
//!   required for Figure 6, where `C1` must become enabled at `v7`/`v8`
//!   although `v5` offers exactly their current distance;
//! * the comparison inside `PS` is `offer >= d.v`: a parent substitute
//!   must offer *at least* the node's corrupted-small value — required for
//!   Figure 5, where `C2` corrects `d.v9` from the corrupted 1 up to 3 in
//!   one step.
//!
//! # Evaluation
//!
//! Every predicate quantifies over `N.v`, and `SW.v.k` is itself asked
//! once per neighbor, so evaluating them as written costs `O(deg²)`.
//! Instead [`Guards::scan`] makes **one pass** over the neighbor table
//! and keeps the four aggregates all of them reduce to; each predicate is
//! then `O(1)` (DESIGN.md §5.1 gives the reductions). The quantifier-form
//! definitions survive as the test-only `oracle` module, and a property
//! test holds the two equal.

use lsrp_graph::{Distance, NodeId};

use crate::state::{LsrpState, Neighbor, NeighborExt};

/// The guards of one node, evaluated from one pass over its neighbor
/// table.
///
/// A neighbor is **usable** when it is outside any containment wave and
/// does not claim to be `v`'s child (`¬ghost.k.v ∧ p.k.v ≠ v`): a ghosted
/// neighbor's state is presumed corrupted, and a child's distance derives
/// from `v`'s own (possibly corrupted) value, so neither can justify or
/// veto anything. The child exclusion realizes the paper's §IV-C
/// intuition that "a node that can select one of its descendants as its
/// new parent … becomes a source of fault propagation"; without it, a
/// node whose child holds a corrupted-small value would adopt the child
/// and close a loop — or be left inert by the child's veto, holding an
/// unjustifiable distance forever.
#[derive(Debug, Clone, Copy)]
pub struct Guards<'a> {
    s: &'a LsrpState,
    /// Minimum offer over the usable neighbors (`∞` if there is none, or
    /// none with a route).
    min_usable: Distance,
    /// Some neighbor claims to be `v`'s child with a finite distance.
    finite_child: bool,
    /// Some neighbor claims to be `v`'s child with `v`'s value copied
    /// (`p.k.v = v ∧ d.k.v = d.v + w.v.k`).
    copied_child: bool,
    /// The table row of `p.v`, if the parent is a neighbor.
    parent: Option<&'a Neighbor>,
}

impl<'a> Guards<'a> {
    /// The single pass: `O(deg)`, no allocation.
    pub fn scan(s: &'a LsrpState) -> Self {
        let mut g = Guards {
            s,
            min_usable: Distance::Infinite,
            finite_child: false,
            copied_child: false,
            parent: None,
        };
        for n in s.neighbors.rows() {
            if n.id == s.p {
                g.parent = Some(n);
            }
            let m = n.mirror();
            if m.p == s.id {
                g.finite_child |= !m.d.is_infinite();
                g.copied_child |= m.d == s.d.plus(n.weight);
            } else if !m.ghost {
                g.min_usable = g.min_usable.min(m.d.plus(n.weight));
            }
        }
        g
    }

    /// What the parent offers (`∞` if it is not a neighbor).
    fn parent_offer(&self) -> Distance {
        self.parent.map_or(Distance::Infinite, Neighbor::offer)
    }

    fn parent_ghosted(&self) -> bool {
        self.parent.is_some_and(|n| n.mirror().ghost)
    }

    /// `SP.v` — `v` is a (potential) source of fault propagation:
    /// no usable neighbor can offer `v` a distance no greater than its
    /// current one, and `v`'s value is locally unjustifiable (destination
    /// with `d != 0`, or non-destination with finite `d` inconsistent with
    /// its parent's offer).
    pub fn sp(&self) -> bool {
        let s = self.s;
        // The destination is special: its only legitimate value is 0, no
        // neighbor can ever justify anything else, and it never adopts
        // routes (`SW` is false at the destination). So any nonzero value
        // makes it a source outright — this realizes footnote 4's "the
        // destination node can stabilize p.d to d when d.d ≠ 0" via `SP →
        // C1 → C2`. Keeping the generic neighbor-offer blocker here would
        // let *garbage* finite offers pin a corrupted destination forever
        // while the rest of the network counts upward waiting for it (a
        // live oscillation, found by the self-stabilization property
        // test).
        if s.id == s.dest {
            return s.d != Distance::ZERO;
        }
        // A neighbor only "offers" a distance when that distance is finite
        // — an infinite offer is the absence of a route.
        let no_better = self.min_usable.is_infinite() || self.min_usable > s.d;
        let unjustified = s.d != Distance::Infinite && s.d != self.parent_offer();
        no_better && unjustified
    }

    /// `MP.v` — `v` is a *minimal point*: the destination at its
    /// legitimate value, or a node that has initiated a containment wave
    /// that has not finished.
    pub fn mp(&self) -> bool {
        let s = self.s;
        (s.id == s.dest && s.d == Distance::ZERO) || (s.ghost && self.sp())
    }

    /// `SW.v.k` — `v` should propagate a stabilization wave from neighbor
    /// `k`:
    ///
    /// * `k` offers `v` a distance no greater than `v`'s current one, and
    ///   no usable neighbor offers less than `k` does;
    /// * if `k` is not the current parent, switching must strictly improve
    ///   on the parent's offer — unless the parent is gone or inside a
    ///   containment wave;
    /// * if `k` *is* the current parent, `v`'s distance must disagree with
    ///   the parent's offer (the consistency-repair case).
    ///
    /// The `S2` guard additionally requires `!ghost.k.v` (checked by the
    /// caller building the enabled set), since the state of a node
    /// involved in a containment wave is presumed corrupted.
    pub fn sw(&self, k: &Neighbor) -> bool {
        let s = self.s;
        // The destination never routes toward itself through a neighbor:
        // its only legitimate state is (d = 0, p = self), restored via SP
        // → C1 → C2. Letting a corrupted destination adopt neighbor routes
        // would thread transient loops through the root, violating
        // Theorem 3.
        if s.id == s.dest {
            return false;
        }
        // Never adopt a node that claims to be our child.
        if k.mirror().p == s.id {
            return false;
        }
        // A routeless node with *finite-valued* children still attached
        // must wait for them to detach before re-acquiring a route: the
        // new route could thread through its own stale subtree (invisible
        // beyond one hop) and close a cycle of forwarding-capable nodes.
        // The wait is bounded — such a child sees its parent offering ∞
        // against its own finite distance, is therefore inconsistent, and
        // acts within one wave (escape via S2, or containment via C1/C2).
        // Routeless children are exempt: they cannot forward packets (no
        // cycle through them) and an ∞-child of an ∞-parent is consistent
        // and may legitimately wait for *us* to re-acquire first. This is
        // the same wait-for-your-subtree discipline C2's guard applies
        // during shrink-back.
        if s.d.is_infinite() && self.finite_child {
            return false;
        }
        let offer_k = k.offer();
        // Adopting an infinite "route" is meaningless (and would let
        // routeless nodes form parent cycles among themselves): a
        // stabilization wave only ever propagates finite distance values.
        if offer_k.is_infinite() || offer_k > s.d {
            return false;
        }
        // Minimality over the usable neighbors only.
        if self.min_usable < offer_k {
            return false;
        }
        if k.id == s.p {
            s.d != offer_k
        } else {
            self.parent.is_none() || self.parent_ghosted() || offer_k < self.parent_offer()
        }
    }

    /// `CW.v` — `v` should propagate a containment wave from its parent:
    /// the parent is a neighbor inside a containment wave, `v` has copied
    /// the parent's (corrupted) distance value, and no usable neighbor
    /// offers strictly less than `v`'s current distance.
    pub fn cw(&self) -> bool {
        let s = self.s;
        self.parent_ghosted() && s.d == self.parent_offer() && self.min_usable >= s.d
    }

    /// `PS.v.k` — `k` is a *parent substitute* for `v` during `C2`: a
    /// usable neighbor offering at least `v`'s current (corrupted-small)
    /// distance, and minimal among the usable neighbors.
    pub fn ps(&self, k: &Neighbor) -> bool {
        let s = self.s;
        let mk = k.mirror();
        if mk.ghost || mk.p == s.id {
            return false;
        }
        // Known-grandchild exclusion: if k's mirrored parent is itself one
        // of our children-by-mirror, adopting k would route straight back
        // into our own subtree (one extra hop of locally-available
        // knowledge beyond the paper's direct-child check — needed when
        // corrupted containment flags trigger `C2` without the containment
        // wave having detached the subtree first).
        if s.neighbors.get(mk.p).is_some_and(|g| g.mirror().p == s.id) {
            return false;
        }
        let offer_k = k.offer();
        // An infinite offer is not a substitute — `C2` withdraws the route
        // (`d, p := ∞, v`) instead, keeping the self-parent invariant for
        // routeless nodes.
        if offer_k.is_infinite() || offer_k < s.d {
            return false;
        }
        self.min_usable >= offer_k
    }

    /// The best parent substitute (smallest offer, ties by id), if any.
    /// Every substitute offers exactly the usable minimum, so the first
    /// one in id order is it.
    pub fn best_parent_substitute(&self) -> Option<NodeId> {
        let found = self.s.neighbors.rows().iter().find(|k| self.ps(k))?;
        Some(found.id)
    }

    /// The guard of `C2`: `v` is in a containment wave and no neighbor's
    /// mirror shows a child that copied `v`'s corrupted value. While such
    /// a child exists the containment wave is still propagating outward;
    /// once none does, it shrinks back through `v`.
    pub fn c2_ready(&self) -> bool {
        self.s.ghost && !self.copied_child
    }

    /// `SCW.v` — `v` should initiate or propagate a super-containment
    /// wave: the destination at its legitimate value, or a non-destination
    /// that is no longer a source of fault propagation and whose parent
    /// (if any) is not inside a containment wave.
    pub fn scw(&self) -> bool {
        let s = self.s;
        if s.id == s.dest {
            s.d == Distance::ZERO
        } else {
            !self.sp() && (s.p == s.id || !self.parent_ghosted())
        }
    }
}

/// The neighbor a recovering containment-wave initiator re-adopts as its
/// parent inside `SC`: a neighbor whose offer equals `v`'s distance,
/// preferring ones outside containment waves, ties by id.
pub fn recovery_parent(s: &LsrpState) -> Option<NodeId> {
    if s.d.is_infinite() {
        return None; // routeless nodes keep the self parent
    }
    let candidates = || s.neighbors.rows().iter().filter(|k| k.offer() == s.d);
    let chosen = candidates()
        .find(|k| !k.mirror().ghost)
        .or_else(|| candidates().next())?;
    Some(chosen.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::state::{LsrpMsg, LsrpState};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    // The cases below ask one predicate of one state, the paper's way;
    // each shim answers from a fresh scan and checks the oracle agrees.
    fn agreed<T: PartialEq + std::fmt::Debug>(fast: T, naive: T) -> T {
        assert_eq!(fast, naive, "scan evaluator vs oracle");
        fast
    }
    fn sp(s: &LsrpState) -> bool {
        agreed(Guards::scan(s).sp(), oracle::sp(s))
    }
    fn mp(s: &LsrpState) -> bool {
        agreed(Guards::scan(s).mp(), oracle::mp(s))
    }
    fn cw(s: &LsrpState) -> bool {
        agreed(Guards::scan(s).cw(), oracle::cw(s))
    }
    fn scw(s: &LsrpState) -> bool {
        agreed(Guards::scan(s).scw(), oracle::scw(s))
    }
    fn c2_ready(s: &LsrpState) -> bool {
        agreed(Guards::scan(s).c2_ready(), oracle::c2_ready(s))
    }
    fn sw(s: &LsrpState, k: NodeId) -> bool {
        let fast = s.neighbors.get(k).is_some_and(|k| Guards::scan(s).sw(k));
        agreed(fast, oracle::sw(s, k))
    }
    fn ps(s: &LsrpState, k: NodeId) -> bool {
        let fast = s.neighbors.get(k).is_some_and(|k| Guards::scan(s).ps(k));
        agreed(fast, oracle::ps(s, k))
    }
    fn best_parent_substitute(s: &LsrpState) -> Option<NodeId> {
        agreed(
            Guards::scan(s).best_parent_substitute(),
            oracle::best_parent_substitute(s),
        )
    }
    fn recovery_parent(s: &LsrpState) -> Option<NodeId> {
        agreed(super::recovery_parent(s), oracle::recovery_parent(s))
    }

    /// A node v0 with neighbors v1 (w=1) and v2 (w=1); destination v9.
    fn base() -> LsrpState {
        let mut s = LsrpState::fresh(v(0), v(9), [(v(1), 1), (v(2), 1)]);
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: false,
            },
        );
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(4),
                p: v(9),
                ghost: false,
            },
        );
        s.d = Distance::Finite(3);
        s.p = v(1);
        s
    }

    #[test]
    fn consistent_node_is_not_sp() {
        let s = base(); // d = 3 = offer(v1) = 2 + 1
        assert!(!sp(&s));
        assert!(!mp(&s));
    }

    #[test]
    fn corrupted_small_distance_makes_sp() {
        let mut s = base();
        s.d = Distance::Finite(1); // below both offers (3 and 5)
        assert!(sp(&s));
        // ...but not once it is ghosted AND a neighbor catches up:
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(0),
                p: v(9),
                ghost: false,
            },
        );
        assert!(!sp(&s), "offer 1 <= d 1 blocks SP");
    }

    #[test]
    fn ghost_neighbors_cannot_block_sp() {
        let mut s = base();
        s.d = Distance::Finite(1);
        assert!(sp(&s));
        // A ghosted non-parent neighbor offering less does not count.
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(9),
                ghost: true,
            },
        );
        assert!(sp(&s));
        // But a *parent* whose offer matches d.v removes the inconsistency
        // (the node then propagates the containment wave via CW instead).
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(9),
                ghost: true,
            },
        );
        assert!(!sp(&s), "d = offer(p) is consistent, ghost or not");
        assert!(cw(&s));
    }

    #[test]
    fn infinite_distance_is_never_sp() {
        // Nothing heard: all offers infinite.
        let mut s = LsrpState::fresh(v(0), v(9), [(v(1), 1), (v(2), 1)]);
        s.d = Distance::Infinite;
        s.p = v(1);
        assert!(!sp(&s));
    }

    #[test]
    fn destination_is_sp_regardless_of_offers() {
        // Footnote-4 semantics: the destination's only repair path is
        // SP -> C1 -> C2, so any nonzero value makes it a source, even
        // when (garbage) finite offers are below it.
        let mut s = LsrpState::fresh(v(9), v(9), [(v(1), 1)]);
        s.d = Distance::Finite(5);
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::ZERO, // offers 1 <= 5, would block a non-dest
                p: v(9),
                ghost: false,
            },
        );
        assert!(sp(&s));
        s.d = Distance::Infinite;
        assert!(sp(&s), "a routeless destination is still a source");
    }

    #[test]
    fn routeless_node_waits_for_finite_children() {
        let mut s = base();
        s.d = Distance::Infinite;
        s.p = v(0);
        // v1 offers a finite route, but v2 is still our finite child.
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(4),
                p: v(0),
                ghost: false,
            },
        );
        assert!(!sw(&s, v(1)), "must wait for the stale subtree to detach");
        // A *routeless* child does not block (it cannot forward packets).
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Infinite,
                p: v(0),
                ghost: false,
            },
        );
        assert!(sw(&s, v(1)));
    }

    #[test]
    fn ps_excludes_known_grandchildren() {
        let mut s = base();
        s.d = Distance::Finite(1);
        s.ghost = true;
        // v1 is our child; v2's mirrored parent is v1 -> v2 is a known
        // grandchild and must not be adopted as a substitute.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(0),
                ghost: false,
            },
        );
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(3),
                p: v(1),
                ghost: false,
            },
        );
        assert!(!ps(&s, v(1)), "direct child");
        assert!(!ps(&s, v(2)), "known grandchild");
        assert_eq!(best_parent_substitute(&s), None);
    }

    #[test]
    fn destination_with_nonzero_distance_is_sp() {
        let mut s = LsrpState::fresh(v(9), v(9), [(v(1), 1)]);
        s.d = Distance::Finite(5);
        // neighbor offers more than 5:
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(9),
                p: v(9),
                ghost: false,
            },
        );
        assert!(sp(&s));
        s.d = Distance::ZERO;
        assert!(!sp(&s));
        assert!(mp(&s), "legit destination is a minimal point");
    }

    #[test]
    fn sw_adopts_the_minimal_offer() {
        let mut s = base();
        s.d = Distance::Finite(5);
        s.p = v(2);
        // v1 offers 3 (minimal, <= 5, strictly better than v2's 5).
        assert!(sw(&s, v(1)));
        assert!(!sw(&s, v(2)), "v2 is not minimal");
        assert!(!sw(&s, v(7)), "not a neighbor");
    }

    #[test]
    fn sw_parent_consistency_repair() {
        let mut s = base();
        // parent v1 offers 3; d disagrees (2) -> repair enabled.
        s.d = Distance::Finite(2);
        assert!(!sw(&s, v(1)), "offer 3 > d 2 blocks the first conjunct");
        s.d = Distance::Finite(4);
        assert!(sw(&s, v(1)), "parent offer 3 <= 4 and d != offer");
        s.d = Distance::Finite(3);
        assert!(!sw(&s, v(1)), "consistent with parent: nothing to do");
    }

    #[test]
    fn sw_equal_cost_switch_is_suppressed() {
        let mut s = base();
        // v2 also offers 3 now: equal to parent v1's offer.
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: false,
            },
        );
        assert!(
            !sw(&s, v(2)),
            "equal-cost alternative must not cause route flapping"
        );
        // ...unless the parent is inside a containment wave.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: true,
            },
        );
        assert!(sw(&s, v(2)));
    }

    #[test]
    fn cw_requires_copied_value_and_no_strict_escape() {
        let mut s = base();
        // Parent v1 ghosts; v0 copied its value (d = offer(v1) = 3).
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: true,
            },
        );
        // v2 offers 5 > 3: no escape.
        assert!(cw(&s));
        // An equal offer does NOT block containment (strict <):
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: false,
            },
        );
        assert!(cw(&s), "equal offer must not block the containment wave");
        // A strictly smaller non-ghost offer does block it:
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(1),
                p: v(9),
                ghost: false,
            },
        );
        assert!(!cw(&s));
        // If v0 did not copy the parent's value, no containment either.
        s.d = Distance::Finite(7);
        assert!(!cw(&s));
    }

    #[test]
    fn ps_takes_minimal_non_child_at_least_d() {
        let mut s = base();
        s.d = Distance::Finite(1); // corrupted small
                                   // v1 offers 3, v2 offers 5; both >= 1, both non-children.
        assert!(ps(&s, v(1)));
        assert!(!ps(&s, v(2)), "v2's offer 5 is not minimal");
        assert_eq!(best_parent_substitute(&s), Some(v(1)));
        // A child (mirror parent == v0) is not a substitute, and its
        // (corruption-derived) offer does not veto other candidates: v2
        // becomes the best substitute.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(0),
                ghost: false,
            },
        );
        assert!(!ps(&s, v(1)));
        assert!(ps(&s, v(2)));
        assert_eq!(best_parent_substitute(&s), Some(v(2)));
        // Ghosted neighbors are not substitutes either.
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(4),
                p: v(9),
                ghost: true,
            },
        );
        assert_eq!(best_parent_substitute(&s), None);
    }

    #[test]
    fn ps_rejects_offers_below_current_distance() {
        let mut s = base();
        s.d = Distance::Finite(4);
        // v1 offers 3 < 4: not a valid substitute (Fig. 5 semantics) —
        // and being the cheapest non-ghost neighbor, it also blocks v2.
        assert!(!ps(&s, v(1)));
        assert!(!ps(&s, v(2)));
        // With v1 at exactly d (offer 4): it becomes the substitute.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(3),
                p: v(9),
                ghost: false,
            },
        );
        assert!(ps(&s, v(1)));
        assert_eq!(best_parent_substitute(&s), Some(v(1)));
    }

    #[test]
    fn c2_waits_for_perturbed_children() {
        let mut s = base();
        s.ghost = true;
        s.d = Distance::Finite(1);
        // v2's mirror says: child of v0 with d = 1 + 1 = 2 (copied value).
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(0),
                ghost: false,
            },
        );
        assert!(!c2_ready(&s));
        // Child with a *stale-correct* value does not block.
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(4),
                p: v(0),
                ghost: false,
            },
        );
        assert!(c2_ready(&s));
        s.ghost = false;
        assert!(!c2_ready(&s));
    }

    #[test]
    fn scw_follows_parent_recovery() {
        let mut s = base();
        s.ghost = true;
        s.d = Distance::Finite(3);
        // Parent v1 not ghosted, not SP (v1 offers 3 <= 3): SCW holds.
        assert!(scw(&s));
        // Parent ghosted: SCW blocked.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: true,
            },
        );
        // v0 is now: offers are 3 (ghost) and 5; d=3, parent ghost.
        // SP: no non-ghost neighbor offers <= 3 (v2 offers 5) and
        // d != offer(p)? offer(p)=3 == d -> not unjustified -> not SP.
        // But parent IS ghosted, so SCW is false.
        assert!(!scw(&s));
    }

    #[test]
    fn scw_initiator_case_uses_self_parent() {
        let mut s = base();
        s.ghost = true;
        s.p = v(0); // initiator set itself as parent
        s.d = Distance::Finite(1);
        assert!(sp(&s), "still a source: offers 3, 5 both > 1");
        assert!(!scw(&s));
        // Neighbor catches up (offers exactly 1): no longer SP.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(9),
                ghost: false,
            },
        );
        assert!(scw(&s));
    }

    #[test]
    fn scw_at_destination() {
        let mut s = LsrpState::fresh(v(9), v(9), [(v(1), 1)]);
        s.ghost = true;
        assert!(scw(&s), "destination with d = 0 always super-contains");
        s.d = Distance::Finite(2);
        assert!(!scw(&s));
    }

    #[test]
    fn recovery_parent_prefers_non_ghost_exact_offers() {
        let mut s = base();
        s.d = Distance::Finite(3);
        // v1 offers 3 (= d) but ghosted; v2 offers 3 (= d) non-ghost.
        s.absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: true,
            },
        );
        s.absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(9),
                ghost: false,
            },
        );
        assert_eq!(recovery_parent(&s), Some(v(2)));
        // With no exact offer, recovery fails.
        s.d = Distance::Finite(9);
        assert_eq!(recovery_parent(&s), None);
    }
}
