//! The protocol-node abstraction: guarded actions with hold-times.

use std::fmt;

use lsrp_graph::{NodeId, RouteEntry, Weight};

use crate::effects::Effects;

/// Identifies one (possibly parameterized) guarded action of a protocol.
///
/// LSRP's action `S2`, for instance, is parameterized by the neighbor `k`
/// the stabilization wave would be propagated from; each `(S2, k)` pair
/// tracks its own continuous-enablement interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId {
    /// Protocol-defined action kind (e.g. "S2").
    pub kind: u8,
    /// Protocol-instance tag, for multiplexed protocols (e.g. one LSRP
    /// instance per destination); 0 for single-instance protocols.
    pub instance: u32,
    /// Optional node parameter.
    pub param: Option<NodeId>,
}

impl ActionId {
    /// An unparameterized action.
    pub const fn plain(kind: u8) -> Self {
        ActionId {
            kind,
            instance: 0,
            param: None,
        }
    }

    /// An action parameterized by a neighbor.
    pub const fn with_param(kind: u8, param: NodeId) -> Self {
        ActionId {
            kind,
            instance: 0,
            param: Some(param),
        }
    }

    /// Retags this action with a protocol-instance id (builder style).
    #[must_use]
    pub const fn for_instance(mut self, instance: u32) -> Self {
        self.instance = instance;
        self
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.instance != 0 {
            write!(f, "[{}]", self.instance)?;
        }
        match self.param {
            Some(p) => write!(f, "#{}({p})", self.kind),
            None => write!(f, "#{}", self.kind),
        }
    }
}

/// What a node reports when its guards are (re-)evaluated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnabledSet {
    /// Currently enabled actions with their guard hold-times (in *local
    /// clock* units). The engine executes an action once it has been
    /// continuously enabled for its hold-time.
    pub actions: Vec<(ActionId, f64)>,
    /// Optional guard *fingerprints*: when an enabled action's fingerprint
    /// differs from the one recorded when its hold started, the engine
    /// restarts the hold — the guard is "the same" only while the values
    /// it witnesses are. This models route-advertisement timers that
    /// re-arm when the candidate route changes (BGP's
    /// MinRouteAdvertisementInterval behaves this way), and is what makes
    /// LSRP's loop freedom robust to mid-hold mirror updates (DESIGN.md
    /// §5). Actions without a fingerprint never restart. Each is stored
    /// behind its action's position in `actions`, in ascending order:
    /// [`EnabledSet::enable_with_fingerprint`] is the only writer, so
    /// [`EnabledSet::entries`] reads both lists in lockstep.
    fingerprints: Vec<(usize, u64)>,
    /// If some guard is a function of the local clock (e.g. LSRP's
    /// periodic `SYN1`), the earliest local-clock reading at which guards
    /// should be re-evaluated even if no event arrives.
    pub wakeup_local: Option<f64>,
}

impl EnabledSet {
    /// An empty set (nothing enabled, no wakeup).
    pub fn none() -> Self {
        EnabledSet::default()
    }

    /// Empties the set while keeping its allocations, so one `EnabledSet`
    /// can be refilled per guard evaluation ([`ProtocolNode::enabled_actions_into`]).
    pub fn clear(&mut self) {
        self.actions.clear();
        self.fingerprints.clear();
        self.wakeup_local = None;
    }

    /// Adds an enabled action (builder style).
    pub fn enable(&mut self, id: ActionId, hold_local: f64) -> &mut Self {
        self.actions.push((id, hold_local));
        self
    }

    /// Adds an enabled action whose hold restarts whenever `fingerprint`
    /// changes between guard evaluations.
    pub fn enable_with_fingerprint(
        &mut self,
        id: ActionId,
        hold_local: f64,
        fingerprint: u64,
    ) -> &mut Self {
        self.fingerprints.push((self.actions.len(), fingerprint));
        self.actions.push((id, hold_local));
        self
    }

    /// Every enabled action in emission order, as `(id, hold, fingerprint)`.
    pub fn entries(&self) -> impl Iterator<Item = (ActionId, f64, Option<u64>)> + '_ {
        let mut fingerprints = self.fingerprints.iter().peekable();
        self.actions
            .iter()
            .enumerate()
            .map(move |(at, &(id, hold))| {
                let fingerprint = fingerprints.next_if(|f| f.0 == at).map(|f| f.1);
                (id, hold, fingerprint)
            })
    }

    /// Requests a wakeup at the given local-clock reading (keeps the
    /// earliest if called repeatedly).
    pub fn wake_at(&mut self, local: f64) -> &mut Self {
        self.wakeup_local = Some(match self.wakeup_local {
            Some(w) => w.min(local),
            None => local,
        });
        self
    }
}

/// A protocol's per-node state machine.
///
/// Implementations hold the node's variables (including neighbor mirrors)
/// and express the protocol as guarded actions. The engine guarantees:
///
/// * [`ProtocolNode::enabled_actions_into`] is called after every local state
///   change (action execution, message receipt, neighbor change, wakeup);
/// * an action is executed only after its guard was continuously enabled
///   for its hold-time on the local clock;
/// * [`ProtocolNode::on_receive`] runs atomically per message;
/// * statements' sends are delivered reliably (while the edge stays up)
///   with bounded delay and per-edge FIFO order.
///
/// Node state and messages must be [`Send`] (messages also [`Sync`], as
/// broadcast fan-out shares one `Arc` payload across regions): the
/// region-parallel executor moves per-region state across worker threads
/// at window boundaries. Protocol state is plain data, so these bounds
/// are satisfied structurally in practice.
pub trait ProtocolNode: Send {
    /// Message payload exchanged between neighbors.
    type Msg: Clone + fmt::Debug + Send + Sync;

    /// Evaluates all guards against the current state into `out`, which
    /// the caller has cleared. `now_local` is the node's clock reading.
    /// The engine re-evaluates guards after every event with one reusable
    /// set, so the hot path allocates nothing.
    fn enabled_actions_into(&self, now_local: f64, out: &mut EnabledSet);

    /// [`ProtocolNode::enabled_actions_into`], into a fresh set.
    fn enabled_actions(&self, now_local: f64) -> EnabledSet {
        let mut out = EnabledSet::none();
        self.enabled_actions_into(now_local, &mut out);
        out
    }

    /// Executes the statement of `action` atomically. Implementations must
    /// call [`Effects::note_var_change`] whenever a *protocol variable*
    /// (for routing: distance, parent, containment flag) changes value —
    /// this is what stabilization-time measurement keys on.
    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<Self::Msg>);

    /// Handles a received message (a zero-hold receive action).
    fn on_receive(
        &mut self,
        from: NodeId,
        msg: &Self::Msg,
        now_local: f64,
        fx: &mut Effects<Self::Msg>,
    );

    /// Informs the node of its neighbor set after every topology change
    /// affecting it: sorted by id, one entry per neighbor. Implementations
    /// should drop mirrors of vanished neighbors, as
    /// [`crate::NeighborTable::reconcile`] does.
    fn on_neighbors_changed(
        &mut self,
        neighbors: &[(NodeId, Weight)],
        now_local: f64,
        fx: &mut Effects<Self::Msg>,
    );

    /// How many protocol-level adverts one wire message carries. Batching
    /// wrappers (one message = many per-instance adverts) override this
    /// with the batch length so [`crate::EngineStats`]' ledger can count
    /// both wire messages and inner adverts; unbatched protocols carry
    /// exactly one.
    fn advert_count(_msg: &Self::Msg) -> u64 {
        1
    }

    /// The node's current problem-specific variables `(d.v, p.v)`.
    fn route_entry(&self) -> RouteEntry;

    /// The node's route entry toward an arbitrary destination — the
    /// per-hop lookup the engine's data-plane packet lane forwards on.
    /// Single-destination protocols compute one tree and route everything
    /// along it, so the default ignores `dest`; multi-destination wrappers
    /// override this with their per-instance lookup. `None` means the node
    /// holds no state at all for that destination (packets black-hole).
    fn route_entry_toward(&self, dest: NodeId) -> Option<RouteEntry> {
        let _ = dest;
        Some(self.route_entry())
    }

    /// Whether the node is currently involved in a containment wave
    /// (`ghost.v` for LSRP; `false` for protocols without containment).
    fn in_containment(&self) -> bool {
        false
    }

    /// Human-readable name of an action kind (for traces and timelines).
    fn action_name(action: ActionId) -> &'static str;

    /// Maintenance actions (LSRP's `SYN1`) are excluded from contamination
    /// accounting, matching the paper's examples which count only
    /// `S1/S2/C1/C2/SC` executions.
    fn is_maintenance(action: ActionId) -> bool;

    /// Maintenance actions that send output other actions staged (the
    /// dense plane's batch flush). They stay out of the accounting, but
    /// while one is enabled the engine is not
    /// [drained](crate::engine::Engine::drained): its output is still to
    /// go on the wire. None by default.
    fn carries_output(action: ActionId) -> bool {
        let _ = action;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_id_display() {
        assert_eq!(ActionId::plain(3).to_string(), "#3");
        assert_eq!(
            ActionId::with_param(2, NodeId::new(7)).to_string(),
            "#2(v7)"
        );
    }

    #[test]
    fn enabled_set_builder() {
        let mut s = EnabledSet::none();
        s.enable(ActionId::plain(1), 2.0).wake_at(9.0).wake_at(5.0);
        assert_eq!(s.actions.len(), 1);
        assert_eq!(s.wakeup_local, Some(5.0));
    }

    #[test]
    fn entries_pair_each_action_with_its_own_fingerprint() {
        let (a, b) = (ActionId::plain(1), ActionId::plain(2));
        let mut s = EnabledSet::none();
        s.enable(b, 1.0)
            .enable(a, 2.0)
            .enable_with_fingerprint(a, 3.0, 7)
            .enable_with_fingerprint(b, 4.0, 9);
        let entries: Vec<_> = s.entries().collect();
        let expected = [
            (b, 1.0, None),
            (a, 2.0, None),
            (a, 3.0, Some(7)),
            (b, 4.0, Some(9)),
        ];
        assert_eq!(entries, expected);
        s.clear();
        assert_eq!(s.entries().count(), 0);
    }
}
