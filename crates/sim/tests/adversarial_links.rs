//! Adversarial link-model tests: per-cause drop accounting, Gilbert–Elliott
//! bursty loss, and message duplication.

use lsrp_graph::{generators, NodeId, RouteEntry, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, GilbertElliott, LinkConfig, ProtocolNode,
    SimTime,
};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Node 0 broadcasts `0..32` once; everyone records what they receive.
#[derive(Debug)]
struct Burst {
    id: NodeId,
    fire: bool,
    inbox: Vec<u32>,
}

const BCAST: ActionId = ActionId::plain(0);

impl ProtocolNode for Burst {
    type Msg = u32;

    fn enabled_actions(&self, _now_local: f64) -> EnabledSet {
        let mut s = EnabledSet::none();
        if self.fire {
            s.enable(BCAST, 0.0);
        }
        s
    }

    fn execute(&mut self, _action: ActionId, _now_local: f64, fx: &mut Effects<u32>) {
        self.fire = false;
        fx.note_var_change();
        for i in 0..32 {
            fx.broadcast(i);
        }
    }

    fn on_receive(&mut self, _from: NodeId, msg: &u32, _now_local: f64, _fx: &mut Effects<u32>) {
        self.inbox.push(*msg);
    }

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<u32>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        RouteEntry::no_route(self.id)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "BURST"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

fn burst_engine(cfg: EngineConfig) -> Engine<Burst> {
    Engine::new(generators::path(2, 1), cfg, |id, _| Burst {
        id,
        fire: id == v(0),
        inbox: Vec::new(),
    })
}

fn run(cfg: EngineConfig) -> Engine<Burst> {
    let mut e = burst_engine(cfg);
    e.run_to_quiescence(SimTime::new(1_000.0), 0.0).unwrap();
    e
}

// ---------------------------------------------------------------------
// Per-cause drop accounting.
// ---------------------------------------------------------------------

#[test]
fn total_loss_drops_everything_as_lossy_link() {
    let e = run(EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_loss(1.0))
        .with_seed(3));
    assert_eq!(e.stats().messages_sent, 32);
    assert_eq!(e.stats().dropped_lossy_link, 32);
    assert_eq!(e.stats().dropped_dead_receiver, 0);
    assert_eq!(e.stats().messages_delivered, 0);
    assert!(e.node(v(1)).unwrap().inbox.is_empty());
}

#[test]
fn drop_causes_never_mix() {
    // A lossy run with no faults must attribute every drop to the link;
    // the dead-receiver counter is reserved for fail-stop races.
    let e = run(EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_loss(0.5))
        .with_seed(11));
    assert_eq!(e.stats().dropped_dead_receiver, 0);
    assert_eq!(
        e.stats().messages_delivered + e.stats().dropped_lossy_link,
        32
    );
}

#[test]
fn in_flight_messages_on_failed_edges_count_as_dead_receiver() {
    let mut e = burst_engine(EngineConfig::default());
    // The burst fires at t=0; all 32 messages are in flight until t=1.
    e.run_until(SimTime::new(0.5)).unwrap();
    assert_eq!(e.inflight_messages(), 32);
    e.fail_edge(v(0), v(1)).unwrap();
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert_eq!(e.stats().dropped_dead_receiver, 32);
    assert_eq!(e.stats().dropped_lossy_link, 0);
    assert_eq!(e.stats().messages_dropped(), 32);
}

// ---------------------------------------------------------------------
// Gilbert–Elliott bursty loss.
// ---------------------------------------------------------------------

#[test]
fn gilbert_elliott_lossless_states_drop_nothing() {
    let ge = GilbertElliott {
        p_good_to_bad: 0.5,
        p_bad_to_good: 0.5,
        loss_good: 0.0,
        loss_bad: 0.0,
    };
    let e = run(EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_bursty_loss(ge))
        .with_seed(5));
    assert_eq!(e.stats().messages_delivered, 32);
    assert_eq!(e.stats().dropped_lossy_link, 0);
}

#[test]
fn gilbert_elliott_absorbing_bad_state_blackholes_the_edge() {
    // The chain advances before each loss draw, so with p(good->bad) = 1
    // the very first message already sees the bad state; with
    // p(bad->good) = 0 the edge never recovers.
    let ge = GilbertElliott {
        p_good_to_bad: 1.0,
        p_bad_to_good: 0.0,
        loss_good: 0.0,
        loss_bad: 1.0,
    };
    let e = run(EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_bursty_loss(ge))
        .with_seed(5));
    assert_eq!(e.stats().dropped_lossy_link, 32);
    assert_eq!(e.stats().messages_delivered, 0);
}

#[test]
fn gilbert_elliott_produces_loss_runs_not_scattered_loss() {
    // Rare transitions with a perfectly lossy bad state: received values
    // form contiguous runs, so the number of "gaps" in the inbox is far
    // below what i.i.d. loss of the same rate would scatter.
    let ge = GilbertElliott {
        p_good_to_bad: 0.1,
        p_bad_to_good: 0.1,
        loss_good: 0.0,
        loss_bad: 1.0,
    };
    let mut bursts = 0u32;
    let mut dropped = 0u64;
    for seed in 0..32 {
        let e = run(EngineConfig::default()
            .with_link(LinkConfig::constant(1.0).with_bursty_loss(ge))
            .with_seed(seed));
        dropped += e.stats().dropped_lossy_link;
        let inbox = &e.node(v(1)).unwrap().inbox;
        // Count maximal runs of consecutive lost sequence numbers.
        let received: Vec<bool> = (0..32).map(|i| inbox.contains(&i)).collect();
        bursts +=
            received.windows(2).filter(|w| w[0] && !w[1]).count() as u32 + u32::from(!received[0]);
    }
    assert!(dropped > 0, "the bad state must claim some messages");
    // Every loss burst costs several messages on average: far fewer bursts
    // than losses is the signature of correlated (not i.i.d.) loss.
    assert!(
        u64::from(bursts) * 3 < dropped,
        "losses are not bursty: {bursts} bursts for {dropped} drops"
    );
}

#[test]
fn gilbert_elliott_is_deterministic_per_seed() {
    let ge = GilbertElliott {
        p_good_to_bad: 0.2,
        p_bad_to_good: 0.3,
        loss_good: 0.05,
        loss_bad: 0.9,
    };
    let inbox = |seed: u64| {
        let e = run(EngineConfig::default()
            .with_link(
                LinkConfig::jittered(0.5, 1.5)
                    .with_bursty_loss(ge)
                    .with_duplication(0.25),
            )
            .with_seed(seed));
        e.node(v(1)).unwrap().inbox.clone()
    };
    assert_eq!(inbox(42), inbox(42));
    assert_ne!(inbox(42), inbox(43), "different seeds should diverge");
}

// ---------------------------------------------------------------------
// Duplication.
// ---------------------------------------------------------------------

#[test]
fn certain_duplication_delivers_every_message_twice() {
    let e = run(EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_duplication(1.0))
        .with_seed(9));
    assert_eq!(e.stats().messages_sent, 32);
    assert_eq!(e.stats().messages_duplicated, 32);
    assert_eq!(e.stats().messages_delivered, 64);
    let inbox = &e.node(v(1)).unwrap().inbox;
    assert_eq!(inbox.len(), 64);
    // FIFO still holds across copies: the stream is nondecreasing with
    // each value appearing exactly twice.
    assert!(inbox.windows(2).all(|w| w[0] <= w[1]), "copies reordered");
    for i in 0..32 {
        assert_eq!(inbox.iter().filter(|&&m| m == i).count(), 2);
    }
}

#[test]
fn duplication_and_loss_balance_the_message_ledger() {
    let e = run(EngineConfig::default()
        .with_link(
            LinkConfig::jittered(0.5, 1.5)
                .with_loss(0.3)
                .with_duplication(0.4),
        )
        .with_seed(17));
    let t = e.stats();
    assert_eq!(
        t.messages_delivered + t.messages_dropped(),
        t.messages_sent + t.messages_duplicated,
        "conservation: every sent or duplicated copy is delivered or dropped"
    );
    assert!(t.messages_duplicated > 0);
    assert!(t.dropped_lossy_link > 0);
}
