//! Test-only oracle: the guards in the paper's quantifier form, each one
//! scanning `N.v` for itself through keyed lookups — `O(deg² log deg)` per
//! evaluation, which is why nothing outside tests runs them — and the
//! guard evaluation built from them. [`crate::predicates::Guards`] and
//! [`LsrpNode::enabled_actions_into`](lsrp_sim::ProtocolNode::enabled_actions_into)
//! must agree with this module on every state; the property test at the
//! bottom holds them to it.

use lsrp_graph::{Distance, NodeId};
use lsrp_sim::{ActionId, EnabledSet};

use crate::protocol::{actions, LsrpNode, WordMixer};
use crate::state::LsrpState;

fn ids(s: &LsrpState) -> impl Iterator<Item = NodeId> + '_ {
    s.neighbors.rows().iter().map(|n| n.id)
}

/// `¬ghost.k.v ∧ p.k.v ≠ v`.
fn usable(s: &LsrpState, k: NodeId) -> bool {
    let m = s.mirror(k);
    !m.ghost && m.p != s.id
}

pub fn sp(s: &LsrpState) -> bool {
    if s.id == s.dest {
        return s.d != Distance::ZERO;
    }
    let no_better = !ids(s).any(|k| {
        let offer = s.offer(k);
        usable(s, k) && !offer.is_infinite() && offer <= s.d
    });
    let unjustified = s.d != Distance::Infinite && s.d != s.offer(s.p);
    no_better && unjustified
}

pub fn mp(s: &LsrpState) -> bool {
    (s.id == s.dest && s.d == Distance::ZERO) || (s.ghost && sp(s))
}

pub fn sw(s: &LsrpState, k: NodeId) -> bool {
    if s.id == s.dest || s.neighbors.get(k).is_none() || s.mirror(k).p == s.id {
        return false;
    }
    if s.d.is_infinite()
        && ids(s).any(|i| {
            let m = s.mirror(i);
            m.p == s.id && !m.d.is_infinite()
        })
    {
        return false;
    }
    let offer_k = s.offer(k);
    if offer_k.is_infinite() || offer_k > s.d {
        return false;
    }
    if ids(s).any(|i| usable(s, i) && s.offer(i) < offer_k) {
        return false;
    }
    if k == s.p {
        s.d != offer_k
    } else {
        let parent_unusable = s.neighbors.get(s.p).is_none() || s.mirror(s.p).ghost;
        parent_unusable || offer_k < s.offer(s.p)
    }
}

pub fn cw(s: &LsrpState) -> bool {
    s.neighbors.get(s.p).is_some()
        && s.mirror(s.p).ghost
        && s.d == s.offer(s.p)
        && !ids(s).any(|k| usable(s, k) && s.offer(k) < s.d)
}

pub fn ps(s: &LsrpState, k: NodeId) -> bool {
    if s.neighbors.get(k).is_none() || !usable(s, k) {
        return false;
    }
    let grandparent = s.mirror(k).p;
    if s.neighbors.get(grandparent).is_some() && s.mirror(grandparent).p == s.id {
        return false;
    }
    let offer_k = s.offer(k);
    if offer_k.is_infinite() || offer_k < s.d {
        return false;
    }
    !ids(s).any(|i| usable(s, i) && s.offer(i) < offer_k)
}

pub fn best_parent_substitute(s: &LsrpState) -> Option<NodeId> {
    ids(s)
        .filter(|&k| ps(s, k))
        .min_by_key(|&k| (s.offer(k), k))
}

pub fn c2_ready(s: &LsrpState) -> bool {
    s.ghost
        && !s.neighbors.rows().iter().any(|n| {
            let mk = s.mirror(n.id);
            mk.p == s.id && mk.d == s.d.plus(n.weight)
        })
}

pub fn scw(s: &LsrpState) -> bool {
    if s.id == s.dest {
        s.d == Distance::ZERO
    } else {
        !sp(s) && (s.p == s.id || !s.mirror(s.p).ghost)
    }
}

pub fn recovery_parent(s: &LsrpState) -> Option<NodeId> {
    if s.d.is_infinite() {
        return None;
    }
    let candidates = || ids(s).filter(|&k| s.offer(k) == s.d);
    candidates()
        .find(|&k| !s.mirror(k).ghost)
        .or_else(|| candidates().next())
}

/// The fingerprint word stream: `d, p, ghost`, then `(k, mirror(k))` for
/// each witnessed id, through the protocol's mixer.
fn witness_fingerprint(s: &LsrpState, witnessed: &[NodeId]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = WordMixer::default();
    s.d.hash(&mut h);
    s.p.hash(&mut h);
    s.ghost.hash(&mut h);
    for &k in witnessed {
        k.hash(&mut h);
        s.mirror(k).hash(&mut h);
    }
    h.finish()
}

/// Guard evaluation one predicate at a time, as `enabled_actions_into`
/// did before the scan.
pub fn enabled_actions(node: &LsrpNode, now_local: f64) -> EnabledSet {
    let (s, timing) = (node.state(), node.timing());
    let mut set = EnabledSet::none();
    if mp(s) && s.p != s.id {
        set.enable(ActionId::plain(actions::S1), 0.0);
    }
    for k in ids(s) {
        if !s.mirror(k).ghost && sw(s, k) {
            set.enable_with_fingerprint(
                ActionId::with_param(actions::S2, k),
                timing.hd_s,
                witness_fingerprint(s, &[s.p, k]),
            );
        }
    }
    if !s.ghost && (sp(s) || cw(s)) {
        set.enable(ActionId::plain(actions::C1), timing.hd_c);
    }
    let all: Vec<NodeId> = ids(s).collect();
    if c2_ready(s) {
        set.enable_with_fingerprint(
            ActionId::plain(actions::C2),
            timing.hd_c2,
            witness_fingerprint(s, &all),
        );
    }
    if s.ghost && scw(s) {
        set.enable_with_fingerprint(
            ActionId::plain(actions::SC),
            timing.hd_sc,
            witness_fingerprint(s, &all),
        );
    }
    if let Some(period) = timing.syn_period {
        if s.t_last + period <= now_local || s.t_last > now_local {
            set.enable(ActionId::plain(actions::SYN1), 0.0);
        } else {
            set.wake_at(s.t_last + period);
        }
    }
    set
}

mod equivalence {
    use super::*;
    use crate::predicates::{self, Guards};
    use crate::state::{Mirror, NeighborExt};
    use crate::timing::TimingConfig;
    use lsrp_sim::ProtocolNode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const STATES: usize = 12_000;
    const ME: u32 = 100;

    /// What the generator must have produced for the run to count.
    #[derive(Debug, Default)]
    struct Coverage {
        degree_0: usize,
        degree_64: usize,
        unheard: usize,
        ghosted_neighbor: usize,
        routeless_with_finite_child: usize,
        routeless_with_routeless_child: usize,
        parent_self: usize,
        parent_neighbor: usize,
        parent_stranger: usize,
        corrupted_destination: usize,
        by_action: [usize; 6],
        c2_substitute: usize,
        c2_withdraw: usize,
        sc_recovered: usize,
    }

    /// One state from a per-state "regime": the value range and the
    /// ghost / child / unheard rates are drawn once per state, so both
    /// "everything collides" (tiny range) and "one of 64 neighbors is
    /// special" (rates near 0) occur at every degree.
    fn generate(rng: &mut StdRng) -> (LsrpNode, f64) {
        let me = NodeId::new(ME);
        let dest = if rng.gen_bool(0.1) {
            me
        } else {
            NodeId::new(0)
        };
        let degree = match rng.gen_range(0..10) {
            0 => 0,
            1 => 64,
            2..=5 => rng.gen_range(1..=6),
            _ => rng.gen_range(0..=64),
        };
        let range = [3u64, 8, 40, 1_000][rng.gen_range(0..4usize)];
        let rate = |rng: &mut StdRng| [0.0, 0.05, 0.3, 0.9][rng.gen_range(0..4usize)];
        let (p_ghost, p_child, p_unheard) = (rate(rng), rate(rng), rate(rng));
        let p_infinite = [0.0, 0.1, 0.6][rng.gen_range(0..3usize)];
        let max_weight = if rng.gen_bool(0.5) { 1 } else { 4 };

        // Neighbor ids from a pool around `ME` that may include `ME`
        // itself (a self-loop row: its unheard mirror names us as parent).
        let mut pool: Vec<u32> = (ME - 40..ME + 40).collect();
        for i in 0..degree {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let neighbors: Vec<(NodeId, u64)> = pool[..degree]
            .iter()
            .map(|&k| (NodeId::new(k), rng.gen_range(1..=max_weight)))
            .collect();
        let mut s = LsrpState::fresh(me, dest, neighbors.iter().copied());

        let distance = |rng: &mut StdRng| {
            if rng.gen_bool(p_infinite) {
                Distance::Infinite
            } else {
                Distance::Finite(rng.gen_range(0..range))
            }
        };
        s.d = distance(rng);
        s.p = match rng.gen_range(0..4) {
            0 => me,
            1 => NodeId::new(rng.gen_range(ME - 45..ME + 45)),
            _ if degree > 0 => neighbors[rng.gen_range(0..degree)].0,
            _ => me,
        };
        s.ghost = rng.gen_bool(0.5);
        s.t_last = rng.gen_range(0.0..20.0);
        for &(k, w) in &neighbors {
            if rng.gen_bool(p_unheard) {
                continue;
            }
            let child = rng.gen_bool(p_child);
            let d = if child && rng.gen_bool(0.3) {
                s.d.plus(w) // a child that copied our value
            } else {
                distance(rng)
            };
            let p = if child {
                me
            } else {
                // Someone else's child — often of another neighbor of
                // ours (PS's known-grandchild exclusion).
                neighbors[rng.gen_range(0..degree)].0
            };
            s.neighbors.record(
                k,
                &Mirror {
                    d,
                    p,
                    ghost: rng.gen_bool(p_ghost),
                },
            );
        }
        let mut timing = TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0);
        if rng.gen_bool(0.5) {
            timing = timing.with_syn_period(10.0);
        }
        (LsrpNode::new(s, timing), rng.gen_range(0.0..30.0))
    }

    fn record(c: &mut Coverage, s: &LsrpState) {
        let rows = s.neighbors.rows();
        c.degree_0 += usize::from(rows.is_empty());
        c.degree_64 += usize::from(rows.len() == 64);
        c.unheard += usize::from(rows.iter().any(|n| n.heard.is_none()));
        c.ghosted_neighbor += usize::from(rows.iter().any(|n| n.mirror().ghost));
        let child = |finite: bool| {
            rows.iter()
                .any(|n| n.mirror().p == s.id && n.mirror().d.is_infinite() != finite)
        };
        c.routeless_with_finite_child += usize::from(s.d.is_infinite() && child(true));
        c.routeless_with_routeless_child += usize::from(s.d.is_infinite() && child(false));
        c.parent_self += usize::from(s.p == s.id);
        c.parent_neighbor += usize::from(s.neighbors.get(s.p).is_some());
        c.parent_stranger += usize::from(s.p != s.id && s.neighbors.get(s.p).is_none());
        c.corrupted_destination += usize::from(s.id == s.dest && s.d != Distance::ZERO);
    }

    #[test]
    fn scan_evaluator_equals_the_paper_predicates() {
        let mut rng = StdRng::seed_from_u64(0x15_0014);
        let mut c = Coverage::default();
        let mut set = EnabledSet::none();
        for case in 0..STATES {
            let (node, now) = generate(&mut rng);
            let s = node.state();
            record(&mut c, s);

            // The enabled set: actions, holds, fingerprints, wakeup.
            set.clear();
            node.enabled_actions_into(now, &mut set);
            let expected = enabled_actions(&node, now);
            assert_eq!(set, expected, "case {case}: {s:?}");
            for &(a, _) in &set.actions {
                c.by_action[a.kind as usize] += 1;
            }

            // Each predicate on its own, S2's ghost conjunct aside.
            let g = Guards::scan(s);
            assert_eq!(g.sp(), sp(s), "SP, case {case}: {s:?}");
            assert_eq!(g.mp(), mp(s), "MP, case {case}: {s:?}");
            assert_eq!(g.cw(), cw(s), "CW, case {case}: {s:?}");
            assert_eq!(g.scw(), scw(s), "SCW, case {case}: {s:?}");
            assert_eq!(g.c2_ready(), c2_ready(s), "C2, case {case}: {s:?}");
            for k in s.neighbors.rows() {
                assert_eq!(g.sw(k), sw(s, k.id), "SW.{}, case {case}: {s:?}", k.id);
                assert_eq!(g.ps(k), ps(s, k.id), "PS.{}, case {case}: {s:?}", k.id);
            }

            // C2 and SC pick the same parent (executed whether or not
            // their guards hold — the statement must agree everywhere).
            let mut fx = lsrp_sim::test_support::effects();
            let mut after_c2 = node.clone();
            after_c2.execute(ActionId::plain(actions::C2), now, &mut fx);
            let (d, p) = if s.id == s.dest {
                (Distance::ZERO, s.id)
            } else if let Some(k) = best_parent_substitute(s) {
                c.c2_substitute += 1;
                (s.offer(k), k)
            } else {
                c.c2_withdraw += 1;
                (Distance::Infinite, s.id)
            };
            let got = after_c2.state();
            assert_eq!((got.d, got.p), (d, p), "C2, case {case}: {s:?}");

            let mut after_sc = node.clone();
            after_sc.execute(ActionId::plain(actions::SC), now, &mut fx);
            assert_eq!(predicates::recovery_parent(s), recovery_parent(s));
            let p = if s.p == s.id && s.id != s.dest {
                let k = recovery_parent(s);
                c.sc_recovered += usize::from(k.is_some());
                k.unwrap_or(s.p)
            } else {
                s.p
            };
            assert_eq!(after_sc.state().p, p, "SC, case {case}: {s:?}");
        }

        // The generator reached every corner the evaluator special-cases.
        let floor = STATES / 200;
        let reached = [
            c.degree_0,
            c.degree_64,
            c.unheard,
            c.ghosted_neighbor,
            c.routeless_with_finite_child,
            c.routeless_with_routeless_child,
            c.parent_self,
            c.parent_neighbor,
            c.parent_stranger,
            c.corrupted_destination,
            c.c2_substitute,
            c.c2_withdraw,
            c.sc_recovered,
        ];
        assert!(reached.iter().all(|&n| n >= floor), "thin coverage: {c:?}");
        assert!(
            c.by_action.iter().all(|&n| n >= floor),
            "an action is (almost) never enabled: {c:?}"
        );
    }
}

/// The mixer under [`witness_fingerprint`]; the suite above holds the
/// evaluator's fingerprints equal to that function's.
mod mixer {
    use super::*;
    use crate::state::Mirror;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ME: u32 = 50;

    /// A state whose values sit close together, as a network's do, or a
    /// few bit positions apart: a mixer that only shifts words against
    /// each other cancels one such difference with the next.
    fn generate(rng: &mut StdRng) -> LsrpState {
        let degree = rng.gen_range(1..=5u32);
        let stride = 1 << (5 * rng.gen_range(0..=5u32));
        let id = |j: u32| NodeId::new(ME + j * stride);
        let mut s = LsrpState::fresh(id(0), NodeId::new(0), (1..=degree).map(|j| (id(j), 1)));
        s.d = distance(rng);
        s.p = id(rng.gen_range(0..=degree + 1));
        s.ghost = rng.gen_bool(0.5);
        for j in 1..=degree {
            if rng.gen_bool(0.8) {
                let m = mirror(rng, &s);
                s.neighbors.record(id(j), &m);
            }
        }
        s
    }

    fn distance(rng: &mut StdRng) -> Distance {
        match rng.gen_range(0..10) {
            0 | 1 => Distance::Infinite,
            2 => Distance::Finite(rng.gen()),
            3 | 4 => Distance::Finite(rng.gen_range(0..8u64) << (5 * rng.gen_range(0..=12u32))),
            _ => Distance::Finite(rng.gen_range(0..8)),
        }
    }

    /// A mirror naming us, a neighbor or a stranger as its parent.
    fn mirror(rng: &mut StdRng, s: &LsrpState) -> Mirror {
        let rows = s.neighbors.rows();
        let stride = rows[0].id.raw() - ME;
        Mirror {
            d: distance(rng),
            p: NodeId::new(ME + rng.gen_range(0..=rows.len() as u32 + 1) * stride),
            ghost: rng.gen_bool(0.3),
        }
    }

    /// Everything a fingerprint over `witnessed` is supposed to tell apart.
    fn values(s: &LsrpState, witnessed: &[NodeId]) -> impl PartialEq {
        let mirrors: Vec<_> = witnessed.iter().map(|&k| (k, s.mirror(k))).collect();
        (s.d, s.p, s.ghost, mirrors)
    }

    /// What S2(k) witnesses, and what C2 and SC do.
    fn witness_lists(s: &LsrpState, rng: &mut StdRng) -> [Vec<NodeId>; 2] {
        let all: Vec<NodeId> = ids(s).collect();
        let k = all[rng.gen_range(0..all.len())];
        [vec![s.p, k], all]
    }

    #[test]
    fn changing_any_one_witnessed_field_changes_the_fingerprint() {
        let mut rng = StdRng::seed_from_u64(0x23_0001);
        let mut flips = 0;
        for case in 0..20_000 {
            let s = generate(&mut rng);
            for witnessed in witness_lists(&s, &mut rng) {
                let k = witnessed[witnessed.len() - 1]; // a neighbor
                let m = s.mirror(k);
                let fresh = mirror(&mut rng, &s);
                let mut changed = vec![s.clone(); 6];
                changed[0].d = distance(&mut rng);
                changed[1].p = fresh.p;
                changed[2].ghost = !s.ghost;
                changed[3].neighbors.record(k, &Mirror { d: fresh.d, ..m });
                changed[4].neighbors.record(k, &Mirror { p: fresh.p, ..m });
                changed[5].neighbors.record(
                    k,
                    &Mirror {
                        ghost: !m.ghost,
                        ..m
                    },
                );
                let before = witness_fingerprint(&s, &witnessed);
                for (field, t) in changed.iter().enumerate() {
                    if values(t, &witnessed) != values(&s, &witnessed) {
                        let after = witness_fingerprint(t, &witnessed);
                        assert_ne!(before, after, "case {case} field {field}: {s:?} {t:?}");
                        flips += usize::from(s.d.is_infinite() != t.d.is_infinite());
                        flips += usize::from(m.d.is_infinite() != t.mirror(k).d.is_infinite());
                    }
                }
            }
        }
        assert!(
            flips >= 1_000,
            "Finite <-> Infinite barely exercised: {flips}"
        );
    }

    #[test]
    fn no_collision_over_a_million_state_pairs() {
        let mut rng = StdRng::seed_from_u64(0x23_0002);
        let mut distinct = 0;
        while distinct < 1_000_000 {
            let (a, b) = (generate(&mut rng), generate(&mut rng));
            if a.neighbors.rows().len() != b.neighbors.rows().len() {
                continue;
            }
            for witnessed in witness_lists(&a, &mut rng) {
                if values(&a, &witnessed) != values(&b, &witnessed) {
                    distinct += 1;
                    assert_ne!(
                        witness_fingerprint(&a, &witnessed),
                        witness_fingerprint(&b, &witnessed),
                        "{a:?} {b:?}"
                    );
                }
            }
        }
    }
}
