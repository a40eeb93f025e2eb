//! Congestion-lane semantics: finite link rates, bounded port queues
//! under every discipline, Go-Back-N flows, and the two load-bearing
//! equivalence oracles — zero-traffic control trajectories are
//! byte-identical under any congestion config, and unlimited configs
//! reproduce the PR-5 packet lane exactly.

mod common;

use std::collections::BTreeMap;

use common::{drive, path_entries, static_engine, v, StaticRouter};
use lsrp_graph::{generators, Distance, Graph, NodeId, RouteEntry, Weight};
use lsrp_sim::{
    ActionId, CongAlgKind, CongestionConfig, DisciplineKind, Effects, EnabledSet, Engine,
    EngineConfig, FlowConfig, LinkConfig, PacketStatus, ProtocolNode, SimTime,
};

fn conservation_ok(engine: &Engine<StaticRouter>) -> bool {
    let t = engine.stats().traffic;
    t.injected == t.completed() + engine.packets_in_flight_weight()
}

// ---------------------------------------------------------------------
// Serialization and queue bounds.
// ---------------------------------------------------------------------

#[test]
fn serialization_spaces_back_to_back_packets_by_the_link_rate() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default().with_congestion(CongestionConfig {
        link_rate: Some(1.0),
        queue_capacity: None,
        discipline: DisciplineKind::DropTail,
    });
    let mut engine = static_engine(g, config, path_entries(2, 1));
    for _ in 0..3 {
        engine.inject_packet(v(1), v(0), 16, 1);
    }
    drive(&mut engine);
    let recs = engine.drain_completed_packets();
    assert_eq!(recs.len(), 3);
    // Each weight-1 packet serializes for 1s at rate 1, then propagates
    // for the constant 1s delay: arrivals at t = 2, 3, 4 — the queue
    // spaces them where the unlimited lane would deliver all three at 1.
    let arrivals: Vec<f64> = recs.iter().map(|r| r.completed_at.seconds()).collect();
    assert_eq!(arrivals, vec![2.0, 3.0, 4.0]);
    assert_eq!(engine.stats().congestion.peak_port_occupancy, 3);
    assert!(conservation_ok(&engine));
}

#[test]
fn drop_tail_bounds_the_queue_and_accounts_overflow_by_cause() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default().with_congestion(CongestionConfig::limited(1.0, 2));
    let mut engine = static_engine(g, config, path_entries(2, 1));
    for _ in 0..5 {
        engine.inject_packet(v(1), v(0), 16, 1);
    }
    drive(&mut engine);
    let t = engine.stats().traffic;
    assert_eq!(t.delivered, 2, "only the queue's two slots survive");
    assert_eq!(t.queue_dropped, 3, "overflow is its own drop cause");
    assert_eq!(t.lost, 0, "not conflated with link loss");
    assert_eq!(t.completed(), 5);
    assert_eq!(engine.stats().congestion.peak_port_occupancy, 2);
    let drops: Vec<PacketStatus> = engine
        .drain_completed_packets()
        .iter()
        .map(|r| r.status)
        .filter(|s| matches!(s, PacketStatus::QueueDropped { .. }))
        .collect();
    assert_eq!(drops, vec![PacketStatus::QueueDropped { at: v(1) }; 3]);
    assert!(conservation_ok(&engine));
}

#[test]
fn occupancy_never_exceeds_capacity_across_disciplines_and_seeds() {
    // The queue-bound invariant: every discipline — including pause,
    // whose backstop is still drop-tail — keeps weighted occupancy within
    // capacity, across seeds, weights and jittered delays.
    let disciplines = [
        DisciplineKind::DropTail,
        DisciplineKind::Ecn { mark_at: 0.5 },
        DisciplineKind::Pause {
            pause_at: 0.75,
            quantum: 2.0,
        },
    ];
    for discipline in disciplines {
        for seed in [1_u64, 7, 42] {
            let g = generators::path(4, 1);
            let config = EngineConfig::default()
                .with_seed(seed)
                .with_link(LinkConfig::jittered(0.5, 1.5))
                .with_congestion(CongestionConfig::limited(2.0, 8).with_discipline(discipline));
            let mut engine = static_engine(g, config, path_entries(4, 1));
            // A burst far above the path's capacity, in mixed weights.
            for i in 0..40 {
                engine.inject_packet(v(3), v(0), 32, 1 + (i % 3));
            }
            drive(&mut engine);
            let stats = engine.stats();
            assert!(
                stats.congestion.peak_port_occupancy <= 8,
                "{discipline:?} seed {seed}: occupancy {} exceeded capacity",
                stats.congestion.peak_port_occupancy
            );
            assert_eq!(engine.packets_in_flight(), 0);
            assert!(conservation_ok(&engine), "{discipline:?} seed {seed}");
        }
    }
}

#[test]
fn ecn_marks_ride_the_packet_records() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default().with_congestion(
        CongestionConfig::limited(1.0, 8).with_discipline(DisciplineKind::Ecn { mark_at: 0.5 }),
    );
    let mut engine = static_engine(g, config, path_entries(2, 1));
    for _ in 0..8 {
        engine.inject_packet(v(1), v(0), 16, 1);
    }
    drive(&mut engine);
    let recs = engine.drain_completed_packets();
    let marked = recs.iter().filter(|r| r.marked).count();
    assert!(marked > 0, "deep-queue packets get marked");
    assert!(
        recs.iter().take(3).all(|r| !r.marked),
        "shallow-queue packets do not"
    );
    assert_eq!(engine.stats().congestion.ecn_marks, marked as u64);
}

#[test]
fn pfc_pause_backpressures_the_upstream_port_without_drops() {
    // Sources 2 and 3 converge on node 1: the (1,0) port fills at twice
    // its drain rate, crosses its pause threshold, and silences the
    // upstream ports, pushing queue buildup upstream instead of dropping.
    let mut g = Graph::new();
    for i in 0..4 {
        g.add_node(v(i));
    }
    g.add_edge(v(0), v(1), 1).unwrap();
    g.add_edge(v(1), v(2), 1).unwrap();
    g.add_edge(v(1), v(3), 1).unwrap();
    let mut entries = path_entries(2, 1);
    entries.insert(v(2), RouteEntry::new(Distance::Finite(2), v(1)));
    entries.insert(v(3), RouteEntry::new(Distance::Finite(2), v(1)));
    let config = EngineConfig::default().with_congestion(
        CongestionConfig::limited(1.0, 4).with_discipline(DisciplineKind::Pause {
            pause_at: 0.5,
            quantum: 2.0,
        }),
    );
    let mut engine = static_engine(g, config, entries);
    for i in 0..3 {
        engine.inject_packet_at(SimTime::new(f64::from(i)), v(2), v(0), 16, 1);
        engine.inject_packet_at(SimTime::new(f64::from(i)), v(3), v(0), 16, 1);
    }
    drive(&mut engine);
    let stats = engine.stats();
    assert!(
        stats.congestion.pause_frames > 0,
        "pause frames were emitted"
    );
    assert_eq!(
        stats.traffic.queue_dropped, 0,
        "gentle load: pause, not drop"
    );
    assert_eq!(stats.traffic.delivered, 6, "everything arrives, just later");
    assert!(stats.congestion.peak_port_occupancy <= 4);
    assert!(conservation_ok(&engine));
}

#[test]
fn port_queues_flush_as_link_down_when_the_transmitter_dies() {
    let g = generators::path(3, 1);
    let config = EngineConfig::default().with_congestion(CongestionConfig::limited(0.25, 16));
    let mut engine = static_engine(g, config, path_entries(3, 1));
    for _ in 0..6 {
        engine.inject_packet(v(2), v(0), 16, 1);
    }
    // Let the first hop arrivals queue at v1's egress port, then kill v1:
    // everything parked there must drain as link-down, not vanish.
    engine.run_until(SimTime::new(6.0)).expect("run");
    engine.fail_node(v(1)).expect("node exists");
    drive(&mut engine);
    let t = engine.stats().traffic;
    assert_eq!(t.completed(), 6, "no packet vanishes");
    assert!(t.link_down > 0, "queued packets died with the node");
    assert_eq!(engine.packets_in_flight(), 0);
    assert!(conservation_ok(&engine));
}

// ---------------------------------------------------------------------
// Packet conservation as a stepwise property.
// ---------------------------------------------------------------------

#[test]
fn weighted_conservation_holds_at_every_step() {
    // injected == delivered + dropped-by-cause + in-flight, checked after
    // every single event, under congestion + loss + a mid-run fault.
    for seed in [3_u64, 11, 29] {
        let g = generators::grid(3, 3, 1);
        let mut entries = BTreeMap::new();
        // A hand-built tree toward v0 on the 3x3 grid (ids row-major).
        for i in 0..9u32 {
            let parent = if i == 0 {
                v(0)
            } else if i % 3 != 0 {
                v(i - 1) // move left along the row
            } else {
                v(i - 3) // first column moves up
            };
            let d = if i == 0 {
                Distance::ZERO
            } else {
                Distance::Finite(u64::from(i % 3 + i / 3))
            };
            entries.insert(v(i), RouteEntry::new(d, parent));
        }
        let config = EngineConfig::default()
            .with_seed(seed)
            .with_link(LinkConfig::jittered(0.5, 1.5).with_loss(0.2))
            .with_congestion(CongestionConfig::limited(1.5, 4));
        let mut engine = static_engine(g, config, entries);
        for i in 0..30 {
            engine.inject_packet_at(
                SimTime::new(f64::from(i) * 0.5),
                v(8 - (i % 3)),
                v(0),
                32,
                1 + u64::from(i % 4),
            );
        }
        let mut steps = 0u32;
        loop {
            assert!(
                conservation_ok(&engine),
                "conservation violated at step {steps} (seed {seed})"
            );
            if steps == 40 {
                // A mid-run fault must not break the ledger either.
                engine.fail_edge(v(1), v(0)).expect("edge exists");
            }
            if engine.step().is_none() {
                break;
            }
            steps += 1;
            assert!(steps < 100_000, "runaway");
        }
        assert_eq!(engine.packets_in_flight(), 0);
        assert_eq!(engine.packets_in_flight_weight(), 0);
        assert!(conservation_ok(&engine));
    }
}

// ---------------------------------------------------------------------
// Go-Back-N flows.
// ---------------------------------------------------------------------

#[test]
fn flow_completes_cleanly_on_a_quiet_path() {
    let g = generators::path(3, 1);
    // Capacity 64 fits the full initial window (8 segments x weight 5),
    // so nothing overflows and nothing retransmits.
    let config = EngineConfig::default().with_congestion(CongestionConfig::limited(10.0, 64));
    let mut engine = static_engine(g, config, path_entries(3, 1));
    let id = engine.start_flow(
        v(2),
        v(0),
        FlowConfig {
            segments: 20,
            seg_weight: 5,
            ..FlowConfig::default()
        },
    );
    assert_eq!(engine.flows_active(), 1);
    drive(&mut engine);
    assert_eq!(engine.flows_active(), 0);
    let flows = engine.drain_completed_flows();
    assert_eq!(flows.len(), 1);
    let f = flows[0];
    assert_eq!(f.id, id);
    assert!(f.completed());
    assert_eq!(f.acked_segments, 20);
    assert_eq!(f.retransmitted, 0, "nothing to retransmit on a clean path");
    assert_eq!(f.timeouts, 0);
    assert!(f.goodput() > 0.0);
    assert_eq!(engine.flow_goodput(), (100, 100));
    let t = engine.stats().traffic;
    assert_eq!(t.injected, 100);
    assert_eq!(t.delivered, 100);
    assert!(conservation_ok(&engine));
}

#[test]
fn go_back_n_recovers_every_segment_over_a_lossy_link() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default()
        .with_seed(5)
        .with_link(LinkConfig::constant(1.0).with_loss(0.3))
        .with_congestion(CongestionConfig::limited(10.0, 64));
    let mut engine = static_engine(g, config, path_entries(2, 1));
    engine.start_flow(
        v(1),
        v(0),
        FlowConfig {
            segments: 40,
            seg_weight: 1,
            rto_initial: 10.0,
            rto_max: 640.0,
            ..FlowConfig::default()
        },
    );
    drive(&mut engine);
    let flows = engine.drain_completed_flows();
    assert_eq!(flows.len(), 1);
    let f = flows[0];
    assert!(
        f.completed(),
        "every segment eventually acked despite 30% loss"
    );
    assert!(f.timeouts > 0, "recovery went through the retransmit timer");
    assert!(f.retransmitted > 0);
    assert_eq!(engine.flow_goodput(), (40, 40));
    let t = engine.stats().traffic;
    assert!(t.lost > 0);
    assert!(t.injected > 40, "retransmissions inflate offered load");
    assert!(conservation_ok(&engine));
}

#[test]
fn aimd_reacts_to_ecn_marks_on_a_saturated_bottleneck() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default().with_congestion(
        CongestionConfig::limited(1.0, 8).with_discipline(DisciplineKind::Ecn { mark_at: 0.25 }),
    );
    let mut engine = static_engine(g, config, path_entries(2, 1));
    engine.start_flow(
        v(1),
        v(0),
        FlowConfig {
            segments: 30,
            seg_weight: 1,
            cc: CongAlgKind::Aimd {
                initial: 8,
                max: 64,
            },
            rto_initial: 60.0,
            rto_max: 960.0,
            ..FlowConfig::default()
        },
    );
    drive(&mut engine);
    let flows = engine.drain_completed_flows();
    assert_eq!(flows.len(), 1);
    let f = flows[0];
    assert!(f.completed());
    assert!(f.marks > 0, "the saturated queue marked, the ACKs echoed");
    assert!(engine.stats().congestion.ecn_marks > 0);
    assert_eq!(engine.stats().traffic.queue_dropped, 0, "AIMD backed off");
    assert!(conservation_ok(&engine));
}

#[test]
fn flow_aborts_instead_of_retrying_forever_when_an_endpoint_dies() {
    let g = generators::path(3, 1);
    let config = EngineConfig::default().with_congestion(CongestionConfig::limited(5.0, 16));
    let mut engine = static_engine(g, config, path_entries(3, 1));
    engine.start_flow(
        v(2),
        v(0),
        FlowConfig {
            segments: 1_000,
            seg_weight: 1,
            rto_initial: 10.0,
            rto_max: 160.0,
            ..FlowConfig::default()
        },
    );
    engine.run_until(SimTime::new(5.0)).expect("run");
    engine.fail_node(v(0)).expect("node exists");
    drive(&mut engine);
    assert_eq!(engine.flows_active(), 0, "the dead-destination flow ended");
    let flows = engine.drain_completed_flows();
    assert_eq!(flows.len(), 1);
    let f = flows[0];
    assert!(!f.completed(), "aborted, not completed");
    assert!(f.acked_segments < f.segments);
    assert!(conservation_ok(&engine));
}

// ---------------------------------------------------------------------
// Equivalence oracles.
// ---------------------------------------------------------------------

/// The Flood protocol from `packet_lane.rs`, extended with a real
/// parent pointer so its route entries form a usable tree toward v0 —
/// the isolation oracles need flows that actually traverse ports.
#[derive(Debug)]
struct Flood {
    id: NodeId,
    level: Option<u32>,
    parent: NodeId,
    pending: bool,
}

const BCAST: ActionId = ActionId::plain(0);

impl ProtocolNode for Flood {
    type Msg = u32;

    fn enabled_actions(&self, _now_local: f64) -> EnabledSet {
        let mut set = EnabledSet::none();
        if self.pending {
            set.enable(BCAST, 0.5);
        }
        set
    }

    fn execute(&mut self, _action: ActionId, _now_local: f64, fx: &mut Effects<u32>) {
        self.pending = false;
        fx.note_var_change();
        fx.broadcast(self.level.expect("pending implies level"));
    }

    fn on_receive(&mut self, from: NodeId, msg: &u32, _now_local: f64, fx: &mut Effects<u32>) {
        let candidate = msg + 1;
        if self.level.is_none_or(|l| candidate < l) {
            self.level = Some(candidate);
            self.parent = from;
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
            Some(l) => RouteEntry::new(Distance::Finite(u64::from(l)), self.parent),
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

fn flood_engine(graph: &Graph, config: EngineConfig) -> Engine<Flood> {
    Engine::new(graph.clone(), config, |id, _| Flood {
        id,
        level: if id == v(0) { Some(0) } else { None },
        parent: id,
        pending: id == v(0),
    })
}

#[test]
fn zero_traffic_control_trajectory_is_identical_under_any_congestion_config() {
    // The congestion lane compiled in and configured — but with no
    // packets, the control plane must not move by a single byte.
    let g = generators::grid(4, 4, 1);
    let base = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.5, 2.0).with_loss(0.1))
        .with_seed(9);
    let configs = [
        base.clone(),
        base.clone()
            .with_congestion(CongestionConfig::limited(1.0, 4)),
        base.with_congestion(
            CongestionConfig::limited(0.1, 2).with_discipline(DisciplineKind::Ecn { mark_at: 0.5 }),
        ),
    ];
    let mut reference = None;
    for config in configs {
        let mut engine = flood_engine(&g, config);
        engine.run_until(SimTime::new(500.0)).expect("run");
        let fingerprint = (engine.route_table(), engine.stats());
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => assert_eq!(*r, fingerprint),
        }
    }
}

#[test]
fn unlimited_congestion_config_reproduces_the_pr5_lane_exactly() {
    // `link_rate: None` is the PR-5 lane, whatever the other knobs say —
    // pinned across seeds x topologies x workloads as the equivalence
    // oracle for the whole congestion lane.
    let topologies: Vec<(&str, Graph, u32)> = vec![
        ("path", generators::path(6, 2), 6),
        ("grid", generators::grid(4, 4, 1), 16),
    ];
    for (name, g, n) in topologies {
        for seed in [1_u64, 13, 77] {
            let entries = if name == "path" {
                path_entries(6, 2)
            } else {
                // Grid: route along the first row / first column tree.
                (0..n)
                    .map(|i| {
                        let parent = if i == 0 {
                            v(0)
                        } else if i % 4 != 0 {
                            v(i - 1)
                        } else {
                            v(i - 4)
                        };
                        let d = if i == 0 {
                            Distance::ZERO
                        } else {
                            Distance::Finite(u64::from(i % 4 + i / 4))
                        };
                        (v(i), RouteEntry::new(d, parent))
                    })
                    .collect()
            };
            let base = EngineConfig::default()
                .with_seed(seed)
                .with_link(LinkConfig::jittered(0.5, 1.5).with_loss(0.15));
            // Same workload against the plain config and against an
            // unlimited-rate congestion config with every other knob set.
            let unlimited = base.clone().with_congestion(CongestionConfig {
                link_rate: None,
                queue_capacity: Some(1),
                discipline: DisciplineKind::Pause {
                    pause_at: 0.5,
                    quantum: 5.0,
                },
            });
            let workload = |engine: &mut Engine<StaticRouter>| {
                for i in 0..25u32 {
                    engine.inject_packet_at(
                        SimTime::new(f64::from(i) * 0.7),
                        v(n - 1 - (i % 3)),
                        v(0),
                        32,
                        1 + u64::from(i % 5),
                    );
                }
                engine.run_until(SimTime::new(10_000.0)).expect("run");
            };
            let mut a = static_engine(g.clone(), base, entries.clone());
            workload(&mut a);
            let mut b = static_engine(g.clone(), unlimited, entries.clone());
            workload(&mut b);
            assert_eq!(a.stats(), b.stats(), "{name} seed {seed}");
            let ra = a.drain_completed_packets();
            let rb = b.drain_completed_packets();
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(
                    (x.src, x.dest, x.status, x.hops, x.cost, x.weight),
                    (y.src, y.dest, y.status, y.hops, y.cost, y.weight),
                    "{name} seed {seed}"
                );
                assert_eq!(x.injected_at, y.injected_at);
                assert_eq!(x.completed_at, y.completed_at);
            }
        }
    }
}

#[test]
fn congested_flows_do_not_perturb_the_control_plane() {
    // The PR-5 isolation invariant survives the congestion lane: a run
    // with saturating Go-Back-N flows follows the byte-identical control
    // trajectory as the same run with no traffic at all.
    let g = generators::grid(4, 4, 1);
    let config = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.5, 2.0).with_loss(0.1))
        .with_seed(3)
        .with_congestion(CongestionConfig::limited(2.0, 8));
    let mut quiet = flood_engine(&g, config.clone());
    quiet.run_until(SimTime::new(500.0)).expect("run");

    let mut busy = flood_engine(&g, config);
    busy.start_flow(
        v(15),
        v(0),
        FlowConfig {
            segments: 16,
            seg_weight: 2,
            rto_initial: 20.0,
            ..FlowConfig::default()
        },
    );
    busy.run_until(SimTime::new(500.0)).expect("run");

    assert_eq!(quiet.route_table(), busy.route_table());
    let a = quiet.stats();
    let b = busy.stats();
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.messages_delivered, b.messages_delivered);
    assert_eq!(a.dropped_lossy_link, b.dropped_lossy_link);
    assert_eq!(a.events.deliveries, b.events.deliveries);
    assert_eq!(a.events.guard_fires, b.events.guard_fires);
    assert!(b.events.port_drains > 0, "the flows really used the lane");
}
