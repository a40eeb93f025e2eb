//! Engine semantics tests: hold-times, continuous enablement, clocks,
//! FIFO links, topology faults, quiescence and budgets — exercised through
//! small purpose-built toy protocols.

use lsrp_graph::{generators, Distance, NodeId, RouteEntry, Weight};
use lsrp_sim::{
    ActionId, ClockConfig, Effects, EnabledSet, Engine, EngineConfig, EngineError, LinkConfig,
    ProtocolNode, RunReport, SimTime,
};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

// ---------------------------------------------------------------------
// Toy protocol 1: hop-count flooding with a guarded broadcast action.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Flood {
    id: NodeId,
    level: Option<u32>,
    pending: bool,
    hold: f64,
    received: Vec<u32>,
}

const BCAST: ActionId = ActionId::plain(0);

impl Flood {
    fn new(id: NodeId, hold: f64) -> Self {
        Flood {
            id,
            level: if id == v(0) { Some(0) } else { None },
            pending: id == v(0),
            hold,
            received: Vec::new(),
        }
    }
}

impl ProtocolNode for Flood {
    type Msg = u32;

    fn enabled_actions_into(&self, _now_local: f64, set: &mut EnabledSet) {
        if self.pending {
            set.enable(BCAST, self.hold);
        }
    }

    fn execute(&mut self, action: ActionId, _now_local: f64, fx: &mut Effects<u32>) {
        assert_eq!(action, BCAST);
        self.pending = false;
        fx.note_var_change();
        fx.broadcast(self.level.expect("pending implies level"));
    }

    fn on_receive(&mut self, _from: NodeId, msg: &u32, _now_local: f64, fx: &mut Effects<u32>) {
        self.received.push(*msg);
        let candidate = msg + 1;
        if self.level.is_none_or(|l| candidate < l) {
            self.level = Some(candidate);
            self.pending = true;
            fx.note_var_change();
        }
    }

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<u32>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        match self.level {
            Some(l) => RouteEntry::new(Distance::Finite(u64::from(l)), self.id),
            None => RouteEntry::no_route(self.id),
        }
    }

    fn action_name(_action: ActionId) -> &'static str {
        "BCAST"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

fn flood_engine(n: u32, hold: f64, config: EngineConfig) -> Engine<Flood> {
    Engine::new(generators::path(n, 1), config, move |id, _| {
        Flood::new(id, hold)
    })
}

#[test]
fn hold_times_delay_execution_exactly() {
    // hold 2, link delay 1: v0 fires at 2, v1 receives at 3 and fires at 5,
    // v2 receives at 6.
    let mut e = flood_engine(3, 2.0, EngineConfig::default());
    let report = e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert!(report.quiescent);
    let times: Vec<(NodeId, f64)> = e
        .trace()
        .actions
        .iter()
        .map(|r| (r.node, r.time.seconds()))
        .collect();
    assert_eq!(times, vec![(v(0), 2.0), (v(1), 5.0), (v(2), 8.0)]);
    assert_eq!(e.node(v(2)).unwrap().level, Some(2));
    assert_eq!(report.last_effective, SimTime::new(8.0)); // v2's own BCAST
}

#[test]
fn quiescent_report_when_nothing_is_enabled() {
    let mut e = flood_engine(2, 1.0, EngineConfig::default());
    let report = e.run_to_quiescence(SimTime::new(50.0), 0.0).unwrap();
    assert!(report.quiescent);
    assert!(!e.any_enabled_non_maintenance());
    assert_eq!(e.inflight_messages(), 0);
    // Messages on the 2-path: v0's bcast (1 neighbor) + v1's bcast back.
    assert_eq!(e.stats().messages_sent, 2);
    assert_eq!(
        e.stats().messages_delivered + e.stats().messages_dropped(),
        2
    );
}

#[test]
fn disabling_a_guard_mid_hold_cancels_execution() {
    let mut e = flood_engine(2, 5.0, EngineConfig::default());
    e.run_until(SimTime::new(2.0)).unwrap();
    // Disable v0's pending flag before its 5s hold elapses.
    e.with_node_mut(v(0), |n| n.pending = false);
    e.run_until(SimTime::new(20.0)).unwrap();
    assert!(
        e.trace().actions.is_empty(),
        "cancelled action must not fire"
    );
    // Re-enable: the hold restarts from now (t=20), so it fires at 25.
    e.with_node_mut(v(0), |n| n.pending = true);
    e.run_until(SimTime::new(30.0)).unwrap();
    assert_eq!(e.trace().actions[0].time, SimTime::new(25.0));
}

#[test]
fn re_enabling_restarts_continuous_enablement() {
    let mut e = flood_engine(2, 5.0, EngineConfig::default());
    e.run_until(SimTime::new(3.0)).unwrap();
    e.with_node_mut(v(0), |n| n.pending = false);
    e.run_until(SimTime::new(4.0)).unwrap();
    e.with_node_mut(v(0), |n| n.pending = true);
    // Was enabled [0,3] then re-enabled at 4: fires at 9, not at 5.
    e.run_until(SimTime::new(9.5)).unwrap();
    assert_eq!(e.trace().actions.len(), 1);
    assert_eq!(e.trace().actions[0].time, SimTime::new(9.0));
}

#[test]
fn fast_clocks_shorten_real_hold_times() {
    // Alternating clocks with rho=2: v0 (even) runs at rate 2, so its
    // 2-second local hold elapses in 1 real second.
    let cfg = EngineConfig::default().with_clocks(ClockConfig::Alternating { rho: 2.0 });
    let mut e = flood_engine(3, 2.0, cfg);
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    let times: Vec<(NodeId, f64)> = e
        .trace()
        .actions
        .iter()
        .map(|r| (r.node, r.time.seconds()))
        .collect();
    // v0 fires at 1 (rate 2); v1 (rate 1) receives at 2, fires at 4;
    // v2 (rate 2) receives at 5, fires at 6.
    assert_eq!(times, vec![(v(0), 1.0), (v(1), 4.0), (v(2), 6.0)]);
}

#[test]
fn link_delay_bounds_are_respected() {
    let cfg = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_seed(123);
    let mut e = flood_engine(2, 1.0, cfg);
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    // v0 fires at 1.0; v1's receive-time is within [1.5, 2.5]; v1 fires
    // hold=1 later.
    let t1 = e.trace().actions[1].time.seconds();
    assert!(
        (2.5..=3.5).contains(&t1),
        "v1 executed at {t1}, outside delay bounds"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let cfg = EngineConfig::default()
            .with_link(LinkConfig::jittered(0.5, 1.5))
            .with_seed(seed);
        let mut e = flood_engine(6, 1.0, cfg);
        e.run_to_quiescence(SimTime::new(1_000.0), 0.0).unwrap();
        e.trace()
            .actions
            .iter()
            .map(|r| (r.node, r.time.seconds()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should jitter differently");
}

// ---------------------------------------------------------------------
// Toy protocol 2: FIFO ordering.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Burst {
    id: NodeId,
    fire: bool,
    inbox: Vec<u32>,
}

impl ProtocolNode for Burst {
    type Msg = u32;

    fn enabled_actions_into(&self, _now_local: f64, s: &mut EnabledSet) {
        if self.fire {
            s.enable(BCAST, 0.0);
        }
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

#[test]
fn without_fifo_jittered_links_reorder_messages() {
    // The ablation of DESIGN.md §5: with FIFO off, some seed reorders the
    // burst so the receiver's view ends on a stale value. This is exactly
    // the hazard FIFO exists to prevent (a mirror stuck on an old
    // broadcast).
    let mut found_reorder = false;
    for seed in 0..64 {
        let cfg = EngineConfig::default()
            .with_link(LinkConfig::jittered(0.1, 10.0).without_fifo())
            .with_seed(seed);
        let mut e = Engine::new(generators::path(2, 1), cfg, |id, _| Burst {
            id,
            fire: id == v(0),
            inbox: Vec::new(),
        });
        e.run_to_quiescence(SimTime::new(1_000.0), 0.0).unwrap();
        let inbox = &e.node(v(1)).unwrap().inbox;
        assert_eq!(inbox.len(), 32, "reliability is kept even without FIFO");
        if *inbox.last().unwrap() != 31 {
            found_reorder = true;
            break;
        }
    }
    assert!(
        found_reorder,
        "no seed reordered the burst — the ablation switch is inert"
    );
}

#[test]
fn per_edge_fifo_holds_under_jitter() {
    let cfg = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.1, 10.0))
        .with_seed(99);
    let mut e = Engine::new(generators::path(2, 1), cfg, |id, _| Burst {
        id,
        fire: id == v(0),
        inbox: Vec::new(),
    });
    e.run_to_quiescence(SimTime::new(1_000.0), 0.0).unwrap();
    let inbox = &e.node(v(1)).unwrap().inbox;
    assert_eq!(inbox.len(), 32);
    assert!(
        inbox.windows(2).all(|w| w[0] < w[1]),
        "messages reordered despite FIFO: {inbox:?}"
    );
}

// ---------------------------------------------------------------------
// Topology faults.
// ---------------------------------------------------------------------

#[test]
fn failing_an_edge_drops_in_flight_messages() {
    let mut e = flood_engine(2, 1.0, EngineConfig::default());
    // v0 fires at t=1 and its message is in flight until t=2.
    e.run_until(SimTime::new(1.5)).unwrap();
    assert_eq!(e.inflight_messages(), 1);
    e.fail_edge(v(0), v(1)).unwrap();
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert_eq!(e.node(v(1)).unwrap().level, None);
    assert_eq!(e.stats().messages_dropped(), 1);
    assert_eq!(e.stats().dropped_dead_receiver, 1);
    assert_eq!(e.stats().dropped_lossy_link, 0);
}

#[test]
fn failing_a_node_removes_it_and_notifies_neighbors() {
    let mut e = flood_engine(3, 1.0, EngineConfig::default());
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    e.fail_node(v(1)).unwrap();
    assert!(e.node(v(1)).is_none());
    assert!(!e.graph().has_node(v(1)));
    assert!(e.graph().has_node(v(2)));
    // Route table now has two entries.
    assert_eq!(e.route_table().len(), 2);
}

#[test]
fn joining_a_node_mid_run_integrates_it() {
    let mut e = flood_engine(2, 1.0, EngineConfig::default());
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    e.join_node(v(5), &[(v(1), 1)]).unwrap();
    // The joined node knows nothing; poke v1 to re-flood.
    e.with_node_mut(v(1), |n| n.pending = true);
    e.run_to_quiescence(SimTime::new(200.0), 0.0).unwrap();
    assert_eq!(e.node(v(5)).unwrap().level, Some(2));
}

#[test]
fn joining_an_existing_node_reports_a_duplicate_node() {
    let mut e = flood_engine(2, 1.0, EngineConfig::default());
    assert_eq!(
        e.join_node(v(1), &[(v(0), 1)]),
        Err(lsrp_graph::GraphError::DuplicateNode(v(1)))
    );
    assert!(e.node(v(1)).is_some(), "failed join must not disturb v1");
}

#[test]
fn weight_change_notifies_endpoints() {
    let mut e = flood_engine(2, 1.0, EngineConfig::default());
    e.set_weight(v(0), v(1), 9).unwrap();
    assert_eq!(e.graph().weight(v(0), v(1)), Some(9));
}

// ---------------------------------------------------------------------
// Toy protocol 3: periodic wakeups (maintenance) and settle-window
// quiescence.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Ticker {
    id: NodeId,
    last_tick_local: f64,
    period: f64,
    ticks: u32,
}

const TICK: ActionId = ActionId::plain(1);

impl ProtocolNode for Ticker {
    type Msg = ();

    fn enabled_actions_into(&self, now_local: f64, s: &mut EnabledSet) {
        if now_local >= self.last_tick_local + self.period {
            s.enable(TICK, 0.0);
        } else {
            s.wake_at(self.last_tick_local + self.period);
        }
    }

    fn execute(&mut self, _action: ActionId, now_local: f64, fx: &mut Effects<()>) {
        self.last_tick_local = now_local;
        self.ticks += 1;
        fx.broadcast(());
    }

    fn on_receive(&mut self, _from: NodeId, _msg: &(), _now_local: f64, _fx: &mut Effects<()>) {}

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<()>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        RouteEntry::no_route(self.id)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "TICK"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        true
    }
}

#[test]
fn clock_driven_guards_fire_via_wakeups() {
    let mut e = Engine::new(generators::path(2, 1), EngineConfig::default(), |id, _| {
        Ticker {
            id,
            last_tick_local: 0.0,
            period: 3.0,
            ticks: 0,
        }
    });
    e.run_until(SimTime::new(10.0)).unwrap();
    // Ticks at 3, 6, 9.
    assert_eq!(e.node(v(0)).unwrap().ticks, 3);
}

#[test]
fn settle_window_quiesces_despite_periodic_maintenance() {
    let mut e = Engine::new(generators::path(2, 1), EngineConfig::default(), |id, _| {
        Ticker {
            id,
            last_tick_local: 0.0,
            period: 3.0,
            ticks: 0,
        }
    });
    // Maintenance ticks never count as effective, so with a settle window
    // larger than the period the run ends quiescent quickly.
    let report = e.run_to_quiescence(SimTime::new(1_000.0), 10.0).unwrap();
    assert!(report.quiescent);
    assert!(report.end.seconds() <= 11.0, "ended at {}", report.end);
}

#[test]
fn lossy_links_drop_a_fraction_of_messages() {
    let cfg = EngineConfig::default()
        .with_link(LinkConfig::constant(1.0).with_loss(0.5))
        .with_seed(11);
    let mut e = Engine::new(generators::path(2, 1), cfg, |id, _| Burst {
        id,
        fire: id == v(0),
        inbox: Vec::new(),
    });
    e.run_to_quiescence(SimTime::new(1_000.0), 0.0).unwrap();
    let got = e.node(v(1)).unwrap().inbox.len();
    assert!(got < 32, "some of the 32 messages must be lost");
    assert!(got > 0, "not all should be lost at p = 0.5");
    assert_eq!(e.stats().messages_sent, 32);
    assert_eq!(
        e.stats().messages_dropped() + e.stats().messages_delivered,
        32
    );
    assert_eq!(e.stats().dropped_lossy_link, e.stats().messages_dropped());
}

// ---------------------------------------------------------------------
// Toy protocol 4: guard fingerprints (hold restarts on witness change).
// ---------------------------------------------------------------------

/// Fires `ACT` after a 10s hold; the hold's fingerprint is the `witness`
/// value, which increments whenever a message arrives.
#[derive(Debug)]
struct Witnessed {
    id: NodeId,
    armed: bool,
    witness: u64,
    fired_at: Vec<f64>,
    send_at_start: bool,
}

const ACT: ActionId = ActionId::plain(7);

impl ProtocolNode for Witnessed {
    type Msg = ();

    fn enabled_actions_into(&self, _now_local: f64, s: &mut EnabledSet) {
        if self.send_at_start {
            s.enable(BCAST, 0.0);
        }
        if self.armed {
            s.enable_with_fingerprint(ACT, 10.0, self.witness);
        }
    }

    fn execute(&mut self, action: ActionId, now_local: f64, fx: &mut Effects<()>) {
        if action == BCAST {
            self.send_at_start = false;
            fx.note_var_change();
            fx.broadcast(());
        } else {
            self.armed = false;
            self.fired_at.push(now_local);
            fx.note_var_change();
        }
    }

    fn on_receive(&mut self, _from: NodeId, _msg: &(), _now_local: f64, fx: &mut Effects<()>) {
        self.witness += 1;
        fx.note_mirror_change();
    }

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<()>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        RouteEntry::no_route(self.id)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "W"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

#[test]
fn fingerprint_change_restarts_the_hold() {
    // v1 arms its 10s action at t=0; v0 broadcasts at t=0, delivered at
    // t=1, changing v1's witnessed value -> the hold restarts and fires at
    // 11, not 10.
    let mut e = Engine::new(generators::path(2, 1), EngineConfig::default(), |id, _| {
        Witnessed {
            id,
            armed: id == v(1),
            witness: 0,
            fired_at: Vec::new(),
            send_at_start: id == v(0),
        }
    });
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert_eq!(e.node(v(1)).unwrap().fired_at, vec![11.0]);
}

#[test]
fn stable_fingerprint_does_not_restart() {
    // Without the broadcast, the hold runs undisturbed and fires at 10.
    let mut e = Engine::new(generators::path(2, 1), EngineConfig::default(), |id, _| {
        Witnessed {
            id,
            armed: id == v(1),
            witness: 0,
            fired_at: Vec::new(),
            send_at_start: false,
        }
    });
    e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert_eq!(e.node(v(1)).unwrap().fired_at, vec![10.0]);
}

// ---------------------------------------------------------------------
// Livelock protection.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Livelock {
    id: NodeId,
    hold: f64,
}

impl ProtocolNode for Livelock {
    type Msg = ();

    fn enabled_actions_into(&self, _now_local: f64, s: &mut EnabledSet) {
        s.enable(BCAST, self.hold);
    }

    fn execute(&mut self, _action: ActionId, _now_local: f64, fx: &mut Effects<()>) {
        fx.note_var_change(); // always "changes" — a classic livelock
    }

    fn on_receive(&mut self, _from: NodeId, _msg: &(), _now_local: f64, _fx: &mut Effects<()>) {}

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<()>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        RouteEntry::no_route(self.id)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "SPIN"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

#[test]
fn event_budget_catches_livelocks() {
    let cfg = EngineConfig {
        max_events: 1_000,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(generators::path(2, 1), cfg, |id, _| Livelock {
        id,
        hold: 0.0,
    });
    let err = e.run_to_quiescence(SimTime::new(1.0), 0.0).unwrap_err();
    assert!(matches!(err, EngineError::EventBudgetExhausted { .. }));
    assert!(err.to_string().contains("event budget"));
}

#[test]
fn budget_exhaustion_reports_the_engine_clock_through_every_wrapper() {
    // A short positive hold spreads the livelock over simulated time, so
    // `at` is not trivially zero. Whichever wrapper hits the budget, and
    // however the regions split it, `at` is the engine clock after the
    // last window barrier.
    type Run = fn(&mut Engine<Livelock>) -> Result<RunReport, EngineError>;
    let wrappers: [(&str, Run); 3] = [
        ("run_until", |e| e.run_until(SimTime::new(100.0))),
        ("run_to_quiescence", |e| {
            e.run_to_quiescence(SimTime::new(100.0), 0.0)
        }),
        // Every window is capped at `last_effective + settle`.
        ("settle-capped", |e| {
            e.run_to_quiescence(SimTime::new(100.0), 0.05)
        }),
    ];
    for regions in [1, 4] {
        for (name, run) in wrappers {
            let cfg = EngineConfig {
                max_events: 1_000,
                ..EngineConfig::default()
            }
            .with_regions(regions)
            .with_jobs(regions);
            let mut e = Engine::new(generators::path(8, 1), cfg, |id, _| Livelock {
                id,
                hold: 0.01,
            });
            let EngineError::EventBudgetExhausted { at } = run(&mut e).unwrap_err();
            assert_eq!(at, e.now(), "{name} regions={regions}");
            assert!(
                at > SimTime::ZERO && at < SimTime::new(100.0),
                "{name} regions={regions}: at={at:?}"
            );
            assert!(
                e.stats().total_events() >= 1_000,
                "{name} regions={regions}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Toy protocol 6: a clone-counting payload proving zero-clone broadcast.
// ---------------------------------------------------------------------

static PAYLOAD_CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A payload whose Clone impl counts. The engine shares one `Arc` across
/// the whole fan-out, so a broadcast must never deep-clone it.
#[derive(Debug)]
struct CountedPayload(#[allow(dead_code)] [u8; 64]);

impl Clone for CountedPayload {
    fn clone(&self) -> Self {
        PAYLOAD_CLONES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        CountedPayload(self.0)
    }
}

#[derive(Debug)]
struct Hub {
    id: NodeId,
    fired: bool,
    got: u32,
}

impl ProtocolNode for Hub {
    type Msg = CountedPayload;

    fn enabled_actions_into(&self, _now_local: f64, set: &mut EnabledSet) {
        if self.id == v(0) && !self.fired {
            set.enable(BCAST, 0.0);
        }
    }

    fn execute(&mut self, _action: ActionId, _now_local: f64, fx: &mut Effects<CountedPayload>) {
        self.fired = true;
        fx.note_var_change();
        fx.broadcast(CountedPayload([7; 64]));
    }

    fn on_receive(
        &mut self,
        _from: NodeId,
        _msg: &CountedPayload,
        _now_local: f64,
        _fx: &mut Effects<CountedPayload>,
    ) {
        self.got += 1;
    }

    fn on_neighbors_changed(
        &mut self,
        _neighbors: &[(NodeId, Weight)],
        _now_local: f64,
        _fx: &mut Effects<CountedPayload>,
    ) {
    }

    fn route_entry(&self) -> RouteEntry {
        RouteEntry::no_route(self.id)
    }

    fn action_name(_action: ActionId) -> &'static str {
        "BCAST"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

#[test]
fn broadcast_shares_one_payload_across_the_whole_fanout() {
    // Star with 63 leaves: the hub's single broadcast becomes 63
    // deliveries, yet the payload is allocated once and never cloned.
    let fanout = 63;
    let mut e = Engine::new(
        generators::star(fanout + 1, 1),
        EngineConfig::default(),
        |id, _| Hub {
            id,
            fired: false,
            got: 0,
        },
    );
    let report = e.run_to_quiescence(SimTime::new(100.0), 0.0).unwrap();
    assert!(report.quiescent);
    let stats = e.stats();
    assert_eq!(stats.messages_sent, u64::from(fanout));
    assert_eq!(stats.messages_delivered, u64::from(fanout));
    for leaf in 1..=fanout {
        assert_eq!(e.node(v(leaf)).unwrap().got, 1);
    }
    assert_eq!(
        PAYLOAD_CLONES.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "broadcast must not deep-clone the payload"
    );
}
