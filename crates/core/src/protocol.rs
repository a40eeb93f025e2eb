//! The LSRP node: Figure 4's actions wired into the simulator's
//! guarded-action interface.
//!
//! | action | guard | hold | statement |
//! |---|---|---|---|
//! | `S1`  | `MP.v ∧ p.v ≠ v` | 0 | `p.v := v`; broadcast |
//! | `S2(k)` | `SW.v.k ∧ ¬ghost.k.v` | `hd_S` | `d.v, p.v := d.k.v + w.v.k, k`; `ghost.v := false`; broadcast |
//! | `C1`  | `¬ghost.v ∧ (SP.v ∨ CW.v)` | `hd_C` | `ghost.v := true`; if `SP.v` then `p.v := v`; broadcast |
//! | `C2`  | `ghost.v ∧` no perturbed child | 0 | `ghost.v := false`; re-root at destination / parent substitute / `∞`; broadcast |
//! | `SC`  | `ghost.v ∧ SCW.v` | `hd_SC` | `ghost.v := false`; initiator recovers its parent; broadcast |
//! | `SYN1` | refresh due (clock) | 0 | broadcast (maintenance) |
//! | `SYN2` | message reception | 0 | update mirrors |

use std::hash::{Hash, Hasher};

use lsrp_graph::{Distance, NodeId, RouteEntry, Weight};
use lsrp_sim::{ActionId, Effects, EnabledSet, ForgedAdvert, HarnessProtocol, ProtocolNode};

use crate::predicates::{self, Guards};
use crate::state::{LsrpMsg, LsrpState, Mirror, NeighborExt};
use crate::timing::TimingConfig;

/// Action kind tags (the `kind` field of [`ActionId`]).
pub mod actions {
    /// `S1` — minimal-point parent fix.
    pub const S1: u8 = 0;
    /// `S2(k)` — stabilization wave from neighbor `k`.
    pub const S2: u8 = 1;
    /// `C1` — containment wave (initiate or propagate outward).
    pub const C1: u8 = 2;
    /// `C2` — containment wave shrink-back.
    pub const C2: u8 = 3;
    /// `SC` — super-containment wave.
    pub const SC: u8 = 4;
    /// `SYN1` — periodic mirror refresh (maintenance).
    pub const SYN1: u8 = 5;
}

/// One LSRP node, driving an [`LsrpState`] through the paper's actions.
#[derive(Debug, Clone, PartialEq)]
pub struct LsrpNode {
    state: LsrpState,
    timing: TimingConfig,
}

impl LsrpNode {
    /// Creates a node around an initial state.
    pub fn new(state: LsrpState, timing: TimingConfig) -> Self {
        LsrpNode { state, timing }
    }

    /// Read access to the protocol state.
    pub fn state(&self) -> &LsrpState {
        &self.state
    }

    /// Mutable access to the protocol state — this is the *state
    /// corruption* fault surface; the engine re-evaluates guards after
    /// [`lsrp_sim::Engine::with_node_mut`].
    pub fn state_mut(&mut self) -> &mut LsrpState {
        &mut self.state
    }

    /// The timing configuration this node runs with.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    fn set_d(&mut self, d: Distance, fx: &mut Effects<LsrpMsg>) {
        if self.state.d != d {
            self.state.d = d;
            fx.note_var_change();
        }
    }

    fn set_p(&mut self, p: NodeId, fx: &mut Effects<LsrpMsg>) {
        if self.state.p != p {
            self.state.p = p;
            fx.note_var_change();
        }
    }

    fn set_ghost(&mut self, ghost: bool, fx: &mut Effects<LsrpMsg>) {
        if self.state.ghost != ghost {
            self.state.ghost = ghost;
            fx.note_var_change();
        }
    }

    fn broadcast_state(&mut self, now_local: f64, fx: &mut Effects<LsrpMsg>) {
        self.state.t_last = now_local;
        fx.broadcast(self.state.message());
    }

    /// The fingerprint prefix every guard shares: our own route variables.
    fn own_witness(&self) -> WordMixer {
        let mut h = WordMixer::default();
        self.state.d.hash(&mut h);
        self.state.p.hash(&mut h);
        self.state.ghost.hash(&mut h);
        h
    }
}

/// The hasher behind guard fingerprints: the values a guard witnesses —
/// our own route variables, then `(k, mirror of k)` per witnessed
/// neighbor — so that a hold restarts when the witnessed information
/// changes. A fingerprint is only ever compared with the one the same
/// guard gave at the previous evaluation; nothing prints or stores one.
/// So the hash needs no keying, only to tell different values apart:
/// each word goes through one bijective step of the whole state, hence
/// two streams that differ in a single word never collide. Being `Copy`,
/// a common prefix is hashed once and continued per guard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordMixer(u64);

impl Default for WordMixer {
    fn default() -> Self {
        WordMixer(0x9E37_79B9_7F4A_7C15)
    }
}

impl WordMixer {
    /// Continues the stream with `(k, mirror of k)`.
    pub(crate) fn witness(mut self, k: NodeId, mirror: Mirror) -> Self {
        k.hash(&mut self);
        mirror.hash(&mut self);
        self
    }
}

impl Hasher for WordMixer {
    fn finish(&self) -> u64 {
        self.0
    }

    /// The splitmix64 finalizer over `state ^ word`: xor-shifts and odd
    /// multiplications, each a bijection of the 64-bit state.
    fn write_u64(&mut self, word: u64) {
        let mut x = self.0 ^ word;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    // Enum discriminants arrive as `isize`, which defaults to this.
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Guard evaluations made on this thread.
    static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl ProtocolNode for LsrpNode {
    type Msg = LsrpMsg;

    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut set);
        set
    }

    // The guard logic lives in the buffer-filling variant: the engine
    // re-evaluates guards after every event with a reusable buffer.
    fn enabled_actions_into(&self, now_local: f64, set: &mut EnabledSet) {
        #[cfg(test)]
        EVALUATIONS.with(|c| c.set(c.get() + 1));
        let s = &self.state;
        // One pass over the neighbor table; every guard below is O(1).
        let g = Guards::scan(s);

        // S1: MP.v ∧ p.v ≠ v, hold 0.
        if g.mp() && s.p != s.id {
            set.enable(ActionId::plain(actions::S1), 0.0);
        }

        // S2(k): SW.v.k ∧ ¬ghost.k.v, hold hd_S (one instance per k).
        // The hold restarts if the values the adoption is based on — our
        // own route or the mirrors of the current parent and of k —
        // change mid-hold (see EnabledSet::enable_with_fingerprint). All
        // but k's mirror is common to every tied offer.
        let mut shared = None;
        for k in s.neighbors.rows() {
            if !k.mirror().ghost && g.sw(k) {
                let shared =
                    shared.get_or_insert_with(|| self.own_witness().witness(s.p, s.mirror(s.p)));
                set.enable_with_fingerprint(
                    ActionId::with_param(actions::S2, k.id),
                    self.timing.hd_s,
                    shared.witness(k.id, k.mirror()).finish(),
                );
            }
        }

        // C1: ¬ghost.v ∧ (SP.v ∨ CW.v), hold hd_C.
        if !s.ghost && (g.sp() || g.cw()) {
            set.enable(ActionId::plain(actions::C1), self.timing.hd_c);
        }

        // C2 and SC witness every mirror, hashed straight off the table.
        let all_mirrors = || {
            let own = self.own_witness();
            let all = s.neighbors.rows().iter();
            all.fold(own, |h, k| h.witness(k.id, k.mirror())).finish()
        };

        // C2: ghost.v ∧ no perturbed child; hold 0 per the paper, or the
        // anti-race hd_c2 (see TimingConfig::hd_c2). With a nonzero hold,
        // the hold restarts on any witnessed-value change so the parent
        // substitute is chosen from settled information.
        if g.c2_ready() {
            set.enable_with_fingerprint(
                ActionId::plain(actions::C2),
                self.timing.hd_c2,
                all_mirrors(),
            );
        }

        // SC: ghost.v ∧ SCW.v, hold hd_SC (fingerprinted: the recovery
        // parent must be chosen from settled mirrors).
        if s.ghost && g.scw() {
            set.enable_with_fingerprint(
                ActionId::plain(actions::SC),
                self.timing.hd_sc,
                all_mirrors(),
            );
        }

        // SYN1: (t.v + period <= Clk.v) ∨ (t.v > Clk.v), hold 0.
        if let Some(period) = self.timing.syn_period {
            if s.t_last + period <= now_local || s.t_last > now_local {
                set.enable(ActionId::plain(actions::SYN1), 0.0);
            } else {
                set.wake_at(s.t_last + period);
            }
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<LsrpMsg>) {
        match action.kind {
            actions::S1 => {
                let me = self.state.id;
                self.set_p(me, fx);
                self.broadcast_state(now_local, fx);
            }
            actions::S2 => {
                let k = action.param.expect("S2 is parameterized");
                let d = self.state.offer(k);
                self.set_d(d, fx);
                self.set_p(k, fx);
                self.set_ghost(false, fx);
                self.broadcast_state(now_local, fx);
            }
            actions::C1 => {
                self.set_ghost(true, fx);
                if Guards::scan(&self.state).sp() {
                    let me = self.state.id;
                    self.set_p(me, fx);
                }
                self.broadcast_state(now_local, fx);
            }
            actions::C2 => {
                self.set_ghost(false, fx);
                if self.state.id == self.state.dest {
                    let me = self.state.id;
                    self.set_d(Distance::ZERO, fx);
                    self.set_p(me, fx);
                } else if let Some(k) = Guards::scan(&self.state).best_parent_substitute() {
                    let d = self.state.offer(k);
                    self.set_d(d, fx);
                    self.set_p(k, fx);
                } else {
                    // No substitute: withdraw the route. Keeping p := v
                    // (not some stale neighbor) is what guarantees loop
                    // freedom during stabilization.
                    let me = self.state.id;
                    self.set_d(Distance::Infinite, fx);
                    self.set_p(me, fx);
                }
                self.broadcast_state(now_local, fx);
            }
            actions::SC => {
                self.set_ghost(false, fx);
                if self.state.p == self.state.id && self.state.id != self.state.dest {
                    // The wave initiator set p := v when it (mistakenly)
                    // declared itself a source; recover the parent now.
                    if let Some(k) = predicates::recovery_parent(&self.state) {
                        self.set_p(k, fx);
                    }
                }
                self.broadcast_state(now_local, fx);
            }
            actions::SYN1 => {
                self.broadcast_state(now_local, fx);
            }
            other => unreachable!("unknown LSRP action kind {other}"),
        }
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &LsrpMsg,
        _now_local: f64,
        fx: &mut Effects<LsrpMsg>,
    ) {
        // SYN2: record the neighbor's latest values (a message from a
        // non-neighbor is dropped by `absorb`).
        if self.state.absorb(from, msg) {
            fx.note_mirror_change();
        }
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        now_local: f64,
        fx: &mut Effects<LsrpMsg>,
    ) {
        // A new neighbor, or a surviving one whose weight changed.
        let changed = self.state.neighbors.reconcile(neighbors);
        if changed.joined || changed.reweighted {
            // Link-up hello: let new neighbors learn our state without
            // waiting for the next SYN1 round.
            self.broadcast_state(now_local, fx);
        }
    }

    fn route_entry(&self) -> RouteEntry {
        self.state.route_entry()
    }

    fn in_containment(&self) -> bool {
        self.state.ghost
    }

    fn action_name(action: ActionId) -> &'static str {
        match action.kind {
            actions::S1 => "S1",
            actions::S2 => "S2",
            actions::C1 => "C1",
            actions::C2 => "C2",
            actions::SC => "SC",
            actions::SYN1 => "SYN1",
            _ => "?",
        }
    }

    fn is_maintenance(action: ActionId) -> bool {
        action.kind == actions::SYN1
    }
}

impl HarnessProtocol for LsrpNode {
    const NAME: &'static str = "LSRP";
    type Meta = TimingConfig;

    fn corrupt_distance(&mut self, d: Distance, _dest: NodeId) {
        self.state.d = d;
    }

    fn poison_mirror(&mut self, about: NodeId, advert: ForgedAdvert, _dest: NodeId) {
        self.state.neighbors.record(
            about,
            &Mirror {
                d: advert.d,
                p: advert.parent,
                ghost: advert.ghost,
            },
        );
    }

    fn inject_route(&mut self, d: Distance, p: NodeId, _dest: NodeId) {
        self.state.d = d;
        self.state.p = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn node_with(d: u64, p: u32) -> LsrpNode {
        let mut s = LsrpState::fresh(v(0), v(9), [(v(1), 1), (v(2), 1)]);
        s.d = Distance::Finite(d);
        s.p = v(p);
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
                d: Distance::Finite(6),
                p: v(9),
                ghost: false,
            },
        );
        LsrpNode::new(s, TimingConfig::paper_example(1.0))
    }

    fn fx() -> Effects<LsrpMsg> {
        // Effects has no public constructor; go through a tiny helper on
        // the engine-facing trait instead.
        lsrp_sim::test_support::effects()
    }

    #[test]
    fn consistent_node_enables_nothing() {
        let n = node_with(3, 1); // d = offer(v1) = 3
        let set = n.enabled_actions(0.0);
        assert!(set.actions.is_empty(), "enabled: {:?}", set.actions);
    }

    #[test]
    fn corrupted_small_enables_c1_only() {
        let n = node_with(1, 1);
        let set = n.enabled_actions(0.0);
        assert_eq!(set.actions, vec![(ActionId::plain(actions::C1), 8.0)]);
    }

    #[test]
    fn corrupted_large_enables_s2_repair() {
        let n = node_with(5, 1);
        let set = n.enabled_actions(0.0);
        assert_eq!(
            set.actions,
            vec![(ActionId::with_param(actions::S2, v(1)), 17.0)]
        );
    }

    #[test]
    fn c1_marks_source_and_sets_self_parent() {
        let mut n = node_with(1, 1);
        let mut e = fx();
        n.execute(ActionId::plain(actions::C1), 0.0, &mut e);
        assert!(n.state().ghost);
        assert_eq!(n.state().p, v(0));
        assert!(e.var_changed());
    }

    #[test]
    fn c2_adopts_minimal_substitute_at_least_d() {
        let mut n = node_with(1, 0);
        n.state_mut().ghost = true;
        let mut e = fx();
        n.execute(ActionId::plain(actions::C2), 0.0, &mut e);
        assert!(!n.state().ghost);
        assert_eq!(n.state().d, Distance::Finite(3));
        assert_eq!(n.state().p, v(1));
    }

    #[test]
    fn c2_withdraws_route_when_no_substitute() {
        let mut n = node_with(1, 0);
        n.state_mut().ghost = true;
        // Make both neighbors children of v0.
        n.state_mut().absorb(
            v(1),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(0),
                ghost: false,
            },
        );
        n.state_mut().absorb(
            v(2),
            &LsrpMsg {
                d: Distance::Finite(2),
                p: v(0),
                ghost: false,
            },
        );
        let mut e = fx();
        n.execute(ActionId::plain(actions::C2), 0.0, &mut e);
        assert_eq!(n.state().d, Distance::Infinite);
        assert_eq!(n.state().p, v(0));
    }

    #[test]
    fn c2_at_destination_resets_to_zero() {
        let mut s = LsrpState::fresh(v(9), v(9), [(v(1), 1)]);
        s.d = Distance::Finite(7);
        s.p = v(1);
        s.ghost = true;
        let mut n = LsrpNode::new(s, TimingConfig::paper_example(1.0));
        let mut e = fx();
        n.execute(ActionId::plain(actions::C2), 0.0, &mut e);
        assert_eq!(n.state().d, Distance::ZERO);
        assert_eq!(n.state().p, v(9));
    }

    #[test]
    fn sc_recovers_initiator_parent() {
        let mut n = node_with(3, 0); // p = self (was SP), d = 3 = offer(v1)
        n.state_mut().ghost = true;
        let mut e = fx();
        n.execute(ActionId::plain(actions::SC), 0.0, &mut e);
        assert!(!n.state().ghost);
        assert_eq!(n.state().p, v(1), "recovered via the exact-offer neighbor");
    }

    #[test]
    fn sc_keeps_parent_for_wave_propagators() {
        let mut n = node_with(3, 1);
        n.state_mut().ghost = true;
        let mut e = fx();
        n.execute(ActionId::plain(actions::SC), 0.0, &mut e);
        assert_eq!(n.state().p, v(1));
    }

    #[test]
    fn s1_fixes_destination_parent() {
        let mut s = LsrpState::fresh(v(9), v(9), [(v(1), 1)]);
        s.p = v(1); // corrupted parent at the destination
        let n = LsrpNode::new(s, TimingConfig::paper_example(1.0));
        let set = n.enabled_actions(0.0);
        assert!(set
            .actions
            .iter()
            .any(|&(a, h)| a == ActionId::plain(actions::S1) && h == 0.0));
    }

    #[test]
    fn syn1_fires_on_schedule_and_on_corrupted_timestamp() {
        let timing = TimingConfig::paper_example(1.0).with_syn_period(10.0);
        let s = LsrpState::fresh(v(0), v(9), [(v(1), 1)]);
        let n = LsrpNode::new(s, timing);
        // Not due yet at local time 5 -> wakeup requested at 10.
        let set = n.enabled_actions(5.0);
        assert!(set.actions.iter().all(|(a, _)| a.kind != actions::SYN1));
        assert_eq!(set.wakeup_local, Some(10.0));
        // Due at 10.
        let set = n.enabled_actions(10.0);
        assert!(set.actions.iter().any(|(a, _)| a.kind == actions::SYN1));
        // Corrupted t_last in the future also triggers SYN1.
        let mut n = n;
        n.state_mut().t_last = 1_000.0;
        let set = n.enabled_actions(10.0);
        assert!(set.actions.iter().any(|(a, _)| a.kind == actions::SYN1));
    }

    #[test]
    fn receive_updates_mirrors_only_for_neighbors() {
        let mut n = node_with(3, 1);
        let mut e = fx();
        n.on_receive(
            v(42),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(42),
                ghost: false,
            },
            0.0,
            &mut e,
        );
        assert!(!e.mirror_changed(), "non-neighbor messages are ignored");
        let mut e = fx();
        n.on_receive(
            v(1),
            &LsrpMsg {
                d: Distance::ZERO,
                p: v(9),
                ghost: false,
            },
            0.0,
            &mut e,
        );
        assert!(e.mirror_changed());
    }

    #[test]
    fn action_names_and_maintenance_flags() {
        assert_eq!(LsrpNode::action_name(ActionId::plain(actions::C1)), "C1");
        assert_eq!(
            LsrpNode::action_name(ActionId::plain(actions::SYN1)),
            "SYN1"
        );
        assert!(LsrpNode::is_maintenance(ActionId::plain(actions::SYN1)));
        assert!(!LsrpNode::is_maintenance(ActionId::plain(actions::S1)));
    }

    /// The guards read `(rows, evaluations)` over a fresh-state cold start
    /// on `K_n`, where every node has degree `n - 1`.
    fn cold_start_reads(n: u32) -> (u64, u64) {
        use crate::state::ROWS_READ;
        use crate::{InitialState, LsrpSimulation, LsrpSimulationExt};
        use lsrp_graph::generators;
        use std::cell::Cell;
        let counts = || (ROWS_READ.with(Cell::get), EVALUATIONS.with(Cell::get));
        let before = counts();
        let mut sim = LsrpSimulation::builder(generators::complete(n, 1), v(0))
            .initial_state(InitialState::Fresh)
            .engine_config(lsrp_sim::EngineConfig::default().with_seed(42))
            .build();
        assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
        let after = counts();
        (after.0 - before.0, after.1 - before.1)
    }

    /// Guard evaluation is one pass over the neighbor table: the rows it
    /// reads per evaluation grow linearly in degree, four per neighbor on
    /// `K_25` and `K_200` alike. The bounds are the counts measured.
    /// Letting `SW.v.k` scan the table again for each neighbor `k` —
    /// `O(deg²)` at worst, about six reads per neighbor on these cold
    /// starts — exceeds them.
    #[test]
    fn guard_evaluation_reads_each_neighbor_row_a_constant_number_of_times() {
        for (n, bound) in [(25, 60_000), (200, 31_840_000)] {
            let (rows, evaluations) = cold_start_reads(n);
            let per_neighbor = rows as f64 / evaluations as f64 / f64::from(n - 1);
            println!(
                "K_{n}: {rows} rows over {evaluations} evaluations, {per_neighbor:.3} per neighbor"
            );
            assert!(rows <= bound, "K_{n}: {rows} rows read");
            assert!(
                rows <= 4 * u64::from(n - 1) * evaluations,
                "K_{n}: {per_neighbor}"
            );
        }
    }
}
