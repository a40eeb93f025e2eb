//! The per-node multiplexer: one LSRP instance per destination, dense.
//!
//! Three mechanisms keep per-event cost independent of the destination
//! count (DESIGN.md §10):
//!
//! * **Dense instances** — destinations are interned into a shared
//!   [`DestTable`] and the per-destination [`LsrpNode`]s live in a `Vec`
//!   indexed by [`DestId`], so demultiplexing is an array index instead of
//!   a `BTreeMap` walk.
//! * **Batched adverts** — instance broadcasts are staged in a per-node
//!   outbox ([`SendBatch`], latest advert wins per destination) and
//!   flushed by a zero-hold maintenance `FLUSH` action as *one* wire
//!   message per neighbor, so one engine delivery amortizes across every
//!   destination that changed at the same instant.
//! * **Dirty-instance scheduling** — each instance's enabled set is cached
//!   and recomputed only when the instance was touched (receive, execute,
//!   neighbor change, corruption) or its clock wakeup came due (tracked in
//!   a lazy min-heap), so guard re-evaluation visits O(dirty) instances
//!   instead of O(destinations).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use lsrp_core::{LsrpMsg, LsrpNode, LsrpState, TimingConfig};
use lsrp_graph::{NodeId, RouteEntry, Weight};
use lsrp_sim::{ActionId, Effects, EnabledSet, ProtocolNode, SendBatch};

use crate::dest::{DestId, DestTable};

/// Action kind of the batch-flush action: a zero-hold *maintenance*
/// action (transport bookkeeping, not a protocol step — excluded from
/// contamination and stabilization accounting) enabled exactly while the
/// outbox holds staged adverts, so it [carries output]: the engine is not
/// drained before it fires. Well clear of the LSRP kinds (0..=5).
///
/// [carries output]: ProtocolNode::carries_output
pub const FLUSH: u8 = u8::MAX;

/// A batch of destination-tagged adverts flushed as one wire message.
///
/// One batch per (sender, neighbor) pair and instant: the sender stages at
/// most one advert per destination (latest-wins — equivalent to sending
/// every copy over the FIFO link, since receipt is last-writer-wins mirror
/// absorption) and broadcasts the whole batch in a single engine message.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiMsg {
    /// The batched `(destination, advert)` pairs, at most one per
    /// destination, in staging order.
    pub adverts: Vec<(DestId, LsrpMsg)>,
}

/// The engine instance tag of a destination's LSRP instance.
///
/// Tag 0 is reserved for single-instance protocols (and the multi plane's
/// own `FLUSH` action), so destination `d` maps to `d.raw() + 1`.
///
/// # Panics
///
/// Panics for `NodeId::new(u32::MAX)`, whose tag would overflow `u32`.
pub fn instance_tag(dest: NodeId) -> u32 {
    dest.raw().checked_add(1).unwrap_or_else(|| {
        panic!("destination {dest} has no instance tag: NodeId(u32::MAX) + 1 overflows the u32 instance space")
    })
}

/// Inverse of [`instance_tag`].
///
/// # Panics
///
/// Panics for tag 0 (reserved for single-instance protocols).
pub fn dest_of_tag(instance: u32) -> NodeId {
    assert_ne!(
        instance, 0,
        "instance tag 0 is reserved for single-instance protocols, not a destination"
    );
    NodeId::new(instance - 1)
}

/// `f64` wakeup readings with a total order, for the wakeup min-heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wake(f64);

impl Eq for Wake {}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Cached per-instance evaluation results.
#[derive(Debug, Clone, Default)]
struct InstCache {
    /// The instance's enabled set (untagged), valid while the instance
    /// stays clean.
    set: EnabledSet,
    /// The instance's ghost flag as last synced (backs the O(1)
    /// containment count).
    ghost: bool,
    /// The wakeup reading represented by this instance's live heap entry,
    /// if any (lazy-deletion bookkeeping).
    heap_wake: Option<f64>,
}

/// The dirty-instance scheduler (interior-mutable: guard evaluation takes
/// `&self`, but refreshing caches is exactly what it is for).
///
/// Invariants:
/// * `cache[i].set` equals `instances[i].enabled_actions(now)` whenever
///   `i` is clean and no wakeup of `i` is due — every mutation path marks
///   the instance dirty before the engine's next guard evaluation, and
///   guards are time-dependent only through `wakeup_local`.
/// * `active` holds exactly the indices with non-empty cached action sets,
///   sorted ascending, so emission order matches the destination order the
///   pre-dense plane produced.
/// * every instance whose cache requests a wakeup has a live heap entry at
///   or before that reading (`heap_wake` marks the live entry; stale
///   entries are discarded lazily on pop).
#[derive(Debug, Clone, Default)]
struct Sched {
    cache: Vec<InstCache>,
    /// Indices awaiting recompute; each flagged at most once.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Sorted indices of instances with non-empty cached action sets.
    active: Vec<u32>,
    /// Lazy min-heap of `(wakeup_local, instance)` entries.
    wakeups: BinaryHeap<Reverse<(Wake, u32)>>,
    /// Wakeup arms staged by [`Sched::recompute`] during a dirty drain
    /// and flushed by [`Sched::flush_wakeup_arms`]. Drained in place and
    /// reused, so steady-state maintenance passes allocate nothing; a
    /// bulk drain (every instance dirty after a topology change) flushes
    /// as one O(n) heap rebuild instead of n O(log n) pushes.
    arm_scratch: Vec<(Wake, u32)>,
    /// Number of instances whose synced ghost flag is set.
    ghosts: usize,
    /// Instance guard evaluations performed (the O(dirty) observable:
    /// clean instances cost nothing).
    evals: u64,
}

impl Sched {
    fn init(n: usize) -> Self {
        Sched {
            cache: (0..n).map(|_| InstCache::default()).collect(),
            dirty: (0..n as u32).collect(),
            is_dirty: vec![true; n],
            active: Vec::new(),
            wakeups: BinaryHeap::new(),
            arm_scratch: Vec::new(),
            ghosts: 0,
            evals: 0,
        }
    }

    fn mark_dirty(&mut self, idx: usize) {
        if !self.is_dirty[idx] {
            self.is_dirty[idx] = true;
            self.dirty.push(idx as u32);
        }
    }

    fn mark_all_dirty(&mut self) {
        for idx in 0..self.cache.len() {
            self.mark_dirty(idx);
        }
    }

    /// Syncs the ghost flags of dirty instances (cheap: one bool read per
    /// dirty instance, no guard evaluation) so the containment count is
    /// exact without consuming dirtiness.
    fn sync_ghosts(&mut self, instances: &[LsrpNode]) {
        for &idx in &self.dirty {
            let c = &mut self.cache[idx as usize];
            let g = instances[idx as usize].in_containment();
            if g != c.ghost {
                c.ghost = g;
                self.ghosts = if g { self.ghosts + 1 } else { self.ghosts - 1 };
            }
        }
    }

    /// Re-evaluates one instance's guards into its cache and updates the
    /// active list, ghost count, and wakeup heap.
    fn recompute(&mut self, instances: &[LsrpNode], idx: usize, now_local: f64) {
        self.evals += 1;
        let c = &mut self.cache[idx];
        c.set.clear();
        instances[idx].enabled_actions_into(now_local, &mut c.set);
        let g = instances[idx].in_containment();
        if g != c.ghost {
            c.ghost = g;
            self.ghosts = if g { self.ghosts + 1 } else { self.ghosts - 1 };
        }
        let has_actions = !c.set.actions.is_empty();
        match (has_actions, self.active.binary_search(&(idx as u32))) {
            (true, Err(i)) => self.active.insert(i, idx as u32),
            (false, Ok(i)) => {
                self.active.remove(i);
            }
            _ => {}
        }
        let c = &mut self.cache[idx];
        if let Some(w) = c.set.wakeup_local {
            if c.heap_wake.is_none_or(|hw| w < hw) {
                c.heap_wake = Some(w);
                self.arm_scratch.push((Wake(w), idx as u32));
            }
        }
    }

    /// Moves the wakeup arms staged by [`Sched::recompute`] into the
    /// heap. A handful push individually; a bulk batch (at least the
    /// heap's own size — the mark-all-dirty maintenance passes) rebuilds
    /// the heap in one O(n) heapify, dropping stale lazy-deletion
    /// entries while at it. Pop order only depends on the live-entry
    /// values, so the flush strategy can never change behavior.
    fn flush_wakeup_arms(&mut self) {
        if self.arm_scratch.is_empty() {
            return;
        }
        if self.arm_scratch.len() > 16 && self.arm_scratch.len() >= self.wakeups.len() {
            let mut entries = std::mem::take(&mut self.wakeups).into_vec();
            entries
                .retain(|&Reverse((Wake(w), idx))| self.cache[idx as usize].heap_wake == Some(w));
            entries.extend(self.arm_scratch.drain(..).map(Reverse));
            self.wakeups = BinaryHeap::from(entries);
        } else {
            for e in self.arm_scratch.drain(..) {
                self.wakeups.push(Reverse(e));
            }
        }
    }

    /// Recomputes every instance whose wakeup came due, discarding stale
    /// heap entries, then returns the earliest future wakeup (if any).
    fn service_wakeups(&mut self, instances: &[LsrpNode], now_local: f64) -> Option<f64> {
        while let Some(&Reverse((Wake(w), idx))) = self.wakeups.peek() {
            let i = idx as usize;
            if self.cache[i].heap_wake != Some(w) {
                self.wakeups.pop(); // superseded by an earlier entry
                continue;
            }
            let live = self.cache[i].set.wakeup_local == Some(w);
            if live && w > now_local {
                return Some(w); // earliest future wakeup
            }
            self.wakeups.pop();
            self.cache[i].heap_wake = None;
            if live {
                // Due: the guard is a function of the clock, re-evaluate.
                self.recompute(instances, i, now_local);
                self.flush_wakeup_arms();
            } else if let Some(w2) = self.cache[i].set.wakeup_local {
                // The cached wakeup moved; re-arm the heap for it.
                self.cache[i].heap_wake = Some(w2);
                self.wakeups.push(Reverse((Wake(w2), idx)));
            }
        }
        None
    }
}

/// One node running an independent LSRP instance per destination, stored
/// densely and scheduled by dirtiness (see the module docs).
///
/// Action ids are the inner ids retagged with
/// [`ActionId::for_instance`]`(`[`instance_tag`]`(dest))`, so each
/// instance's guards track their continuous enablement independently in
/// the engine.
#[derive(Debug, Clone)]
pub struct MultiLsrpNode {
    id: NodeId,
    dests: Arc<DestTable>,
    /// Indexed by [`DestId`].
    instances: Vec<LsrpNode>,
    outbox: SendBatch<DestId, LsrpMsg>,
    sched: RefCell<Sched>,
}

impl MultiLsrpNode {
    /// Creates a node with one instance per interned destination, from
    /// initial states aligned with the table's [`DestId`] order.
    pub fn new(
        id: NodeId,
        timing: TimingConfig,
        dests: Arc<DestTable>,
        states: impl IntoIterator<Item = LsrpState>,
    ) -> Self {
        let instances: Vec<LsrpNode> = states
            .into_iter()
            .zip(dests.iter())
            .map(|(state, (_, dest))| {
                assert_eq!(state.id, id, "instance state must belong to this node");
                assert_eq!(
                    state.dest, dest,
                    "states must align with the DestTable order"
                );
                LsrpNode::new(state, timing)
            })
            .collect();
        assert_eq!(
            instances.len(),
            dests.len(),
            "one initial state per interned destination"
        );
        let sched = RefCell::new(Sched::init(instances.len()));
        MultiLsrpNode {
            id,
            dests,
            instances,
            outbox: SendBatch::new(),
            sched,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The shared destination table.
    pub fn dest_table(&self) -> &Arc<DestTable> {
        &self.dests
    }

    /// The destinations this node routes toward (ascending).
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dests.nodes().iter().copied()
    }

    /// The instance for one destination.
    pub fn instance(&self, dest: NodeId) -> Option<&LsrpNode> {
        self.dests.id_of(dest).map(|d| &self.instances[d.index()])
    }

    /// Mutable instance access (state-corruption surface); marks the
    /// instance dirty so its guards are re-evaluated.
    pub fn instance_mut(&mut self, dest: NodeId) -> Option<&mut LsrpNode> {
        let d = self.dests.id_of(dest)?;
        self.sched.get_mut().mark_dirty(d.index());
        Some(&mut self.instances[d.index()])
    }

    /// The route entry toward `dest`.
    pub fn route_entry_for(&self, dest: NodeId) -> Option<RouteEntry> {
        self.instance(dest).map(LsrpNode::route_entry)
    }

    /// How many instance guard evaluations the scheduler has performed.
    /// Grows with *touched* instances, not with the destination count —
    /// the observable the O(dirty) scheduling tests pin.
    pub fn instance_evals(&self) -> u64 {
        self.sched.borrow().evals
    }
}

impl ProtocolNode for MultiLsrpNode {
    type Msg = MultiMsg;

    fn enabled_actions_into(&self, now_local: f64, out: &mut EnabledSet) {
        let mut sched = self.sched.borrow_mut();
        let s = &mut *sched;
        // 1) Refresh the caches of touched instances, then arm their
        //    wakeups in one batch.
        while let Some(idx) = s.dirty.pop() {
            s.is_dirty[idx as usize] = false;
            s.recompute(&self.instances, idx as usize, now_local);
        }
        s.flush_wakeup_arms();
        // 2) Re-evaluate instances whose clock wakeup came due; the rest
        //    of the heap yields the node-level min-wakeup.
        let next_wake = s.service_wakeups(&self.instances, now_local);
        // 3) Emit every cached enabled action, tagged, in destination
        //    order (the engine treats unreported actions as disabled, so
        //    clean-but-armed instances must re-emit from cache).
        for &idx in &s.active {
            let tag = instance_tag(self.dests.node_of(DestId::from_index(idx as usize)));
            let c = &s.cache[idx as usize];
            for (id, hold, fingerprint) in c.set.entries() {
                let tagged = id.for_instance(tag);
                match fingerprint {
                    Some(fp) => {
                        out.enable_with_fingerprint(tagged, hold, fp);
                    }
                    None => {
                        out.enable(tagged, hold);
                    }
                }
            }
        }
        if let Some(w) = next_wake {
            out.wake_at(w);
        }
        // 4) While adverts are staged, the zero-hold FLUSH action is
        //    enabled: it fires at the same instant, after every same-time
        //    guard already queued has contributed its adverts.
        if !self.outbox.is_empty() {
            out.enable(ActionId::plain(FLUSH), 0.0);
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<MultiMsg>) {
        if action.kind == FLUSH {
            fx.send_batched(&mut self.outbox, |adverts| MultiMsg { adverts });
            return;
        }
        let dest = dest_of_tag(action.instance);
        let d = self
            .dests
            .id_of(dest)
            .expect("engine only fires actions we reported");
        let mut inner_fx = Effects::detached();
        self.instances[d.index()].execute(action.for_instance(0), now_local, &mut inner_fx);
        inner_fx.merge_batched_into(fx, &mut self.outbox, d);
        self.sched.get_mut().mark_dirty(d.index());
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &MultiMsg,
        now_local: f64,
        fx: &mut Effects<MultiMsg>,
    ) {
        for (d, advert) in &msg.adverts {
            let Some(inst) = self.instances.get_mut(d.index()) else {
                continue; // unknown destination (mismatched configuration)
            };
            let mut inner_fx = Effects::detached();
            inst.on_receive(from, advert, now_local, &mut inner_fx);
            inner_fx.merge_batched_into(fx, &mut self.outbox, *d);
            self.sched.get_mut().mark_dirty(d.index());
        }
    }

    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        now_local: f64,
        fx: &mut Effects<MultiMsg>,
    ) {
        for (i, inst) in self.instances.iter_mut().enumerate() {
            let mut inner_fx = Effects::detached();
            inst.on_neighbors_changed(neighbors, now_local, &mut inner_fx);
            inner_fx.merge_batched_into(fx, &mut self.outbox, DestId::from_index(i));
        }
        self.sched.get_mut().mark_all_dirty();
    }

    fn advert_count(msg: &MultiMsg) -> u64 {
        msg.adverts.len() as u64
    }

    fn route_entry(&self) -> RouteEntry {
        // The single-entry view reports the *primary* destination (lowest
        // interned id — instance 0 of the sorted table), matching the
        // harness facade's `destination()`.
        self.instances
            .first()
            .map_or_else(|| RouteEntry::no_route(self.id), LsrpNode::route_entry)
    }

    fn route_entry_toward(&self, dest: NodeId) -> Option<RouteEntry> {
        // Per-hop data-plane lookup: packets toward any configured
        // destination follow that destination's own tree.
        self.route_entry_for(dest)
    }

    fn in_containment(&self) -> bool {
        // Called by the engine's view refresh *before* guards re-evaluate,
        // so sync dirty instances' ghost flags lazily (O(dirty)).
        let mut sched = self.sched.borrow_mut();
        sched.sync_ghosts(&self.instances);
        sched.ghosts > 0
    }

    fn action_name(action: ActionId) -> &'static str {
        if action.kind == FLUSH {
            "FLUSH"
        } else {
            LsrpNode::action_name(action.for_instance(0))
        }
    }

    fn is_maintenance(action: ActionId) -> bool {
        action.kind == FLUSH || LsrpNode::is_maintenance(action.for_instance(0))
    }

    fn carries_output(action: ActionId) -> bool {
        action.kind == FLUSH
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::actions;
    use proptest::prelude::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn two_instance_node() -> MultiLsrpNode {
        let neighbors = [(v(1), 1)];
        let timing = TimingConfig::paper_example(1.0);
        let dests = DestTable::new([v(0), v(1)]);
        MultiLsrpNode::new(
            v(0),
            timing,
            dests,
            [
                LsrpState::fresh(v(0), v(0), neighbors),
                LsrpState::fresh(v(0), v(1), neighbors),
            ],
        )
    }

    #[test]
    fn instances_are_tagged_independently() {
        let mut node = two_instance_node();
        // Make the v1-instance want an S2 adoption: v1 offers 0 + 1.
        node.instance_mut(v(1)).unwrap().state_mut().absorb(
            v(1),
            &LsrpMsg {
                d: lsrp_graph::Distance::ZERO,
                p: v(1),
                ghost: false,
            },
        );
        let set = node.enabled_actions(0.0);
        assert_eq!(set.actions.len(), 1);
        let (id, _) = set.actions[0];
        assert_eq!(id.kind, actions::S2);
        assert_eq!(id.instance, instance_tag(v(1)));
        assert_eq!(id.param, Some(v(1)));
    }

    #[test]
    fn execute_stages_the_advert_and_flush_broadcasts_it() {
        let mut node = two_instance_node();
        node.instance_mut(v(1)).unwrap().state_mut().absorb(
            v(1),
            &LsrpMsg {
                d: lsrp_graph::Distance::ZERO,
                p: v(1),
                ghost: false,
            },
        );
        let action = ActionId::with_param(actions::S2, v(1)).for_instance(instance_tag(v(1)));
        let mut fx = lsrp_sim::test_support::effects();
        node.execute(action, 0.0, &mut fx);
        assert!(fx.var_changed());
        assert_eq!(
            node.route_entry_for(v(1)).unwrap().distance,
            lsrp_graph::Distance::Finite(1)
        );
        // The v0-instance is untouched.
        assert_eq!(
            node.route_entry_for(v(0)).unwrap().distance,
            lsrp_graph::Distance::ZERO
        );
        // The advert was staged, not sent; FLUSH is now enabled.
        let set = node.enabled_actions(0.0);
        assert!(set.actions.iter().any(|a| a.0 == ActionId::plain(FLUSH)));
        let mut fx = lsrp_sim::test_support::effects();
        node.execute(ActionId::plain(FLUSH), 0.0, &mut fx);
        // And after the flush the outbox is empty again.
        let set = node.enabled_actions(0.0);
        assert!(!set.actions.iter().any(|a| a.0 == ActionId::plain(FLUSH)));
    }

    #[test]
    fn receive_is_demultiplexed_by_destination() {
        let mut node = two_instance_node();
        let d1 = node.dest_table().id_of(v(1)).unwrap();
        let mut fx = lsrp_sim::test_support::effects();
        node.on_receive(
            v(1),
            &MultiMsg {
                adverts: vec![(
                    d1,
                    LsrpMsg {
                        d: lsrp_graph::Distance::ZERO,
                        p: v(1),
                        ghost: false,
                    },
                )],
            },
            0.0,
            &mut fx,
        );
        assert!(fx.mirror_changed());
        assert_eq!(
            node.instance(v(1)).unwrap().state().mirror(v(1)).d,
            lsrp_graph::Distance::ZERO
        );
        assert_eq!(
            node.instance(v(0)).unwrap().state().mirror(v(1)).d,
            lsrp_graph::Distance::Infinite,
            "the other instance's mirrors are untouched"
        );
    }

    #[test]
    fn route_entry_reports_the_primary_destination() {
        // Regression (satellite): the facade entry must be the *lowest
        // configured id*'s instance, not "whatever instance comes first".
        let neighbors = [(v(1), 1)];
        let timing = TimingConfig::paper_example(1.0);
        // Intern in scrambled order; the table sorts, so primary is v0.
        let dests = DestTable::new([v(3), v(0)]);
        let mut s0 = LsrpState::fresh(v(1), v(0), neighbors);
        s0.d = lsrp_graph::Distance::Finite(7);
        let mut s3 = LsrpState::fresh(v(1), v(3), neighbors);
        s3.d = lsrp_graph::Distance::Finite(9);
        let node = MultiLsrpNode::new(v(1), timing, dests, [s0, s3]);
        assert_eq!(
            node.route_entry().distance,
            lsrp_graph::Distance::Finite(7),
            "facade entry is the primary (lowest-id) destination's"
        );
        assert_eq!(node.route_entry(), node.route_entry_for(v(0)).unwrap());
    }

    #[test]
    fn clean_instances_are_not_reevaluated() {
        let mut node = two_instance_node();
        let _ = node.enabled_actions(0.0); // initial full evaluation
        let baseline = node.instance_evals();
        let _ = node.enabled_actions(0.0);
        assert_eq!(node.instance_evals(), baseline, "clean scan costs nothing");
        // Touch one instance: exactly one recompute.
        node.instance_mut(v(1)).unwrap();
        let _ = node.enabled_actions(0.0);
        assert_eq!(node.instance_evals(), baseline + 1);
    }

    #[test]
    #[should_panic(expected = "overflows the u32 instance space")]
    fn instance_tag_overflow_panics() {
        let _ = instance_tag(NodeId::new(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "reserved for single-instance protocols")]
    fn dest_of_tag_zero_panics() {
        let _ = dest_of_tag(0);
    }

    proptest! {
        #[test]
        fn tag_roundtrip(raw in 0..u32::MAX) {
            let dest = NodeId::new(raw);
            let tag = instance_tag(dest);
            prop_assert!(tag != 0, "tag 0 stays reserved");
            prop_assert_eq!(dest_of_tag(tag), dest);
        }
    }
}
