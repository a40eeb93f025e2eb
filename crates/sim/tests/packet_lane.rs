//! Data-plane packet lane semantics: per-hop forwarding against live
//! route tables, fate classification, weighted accounting, and the
//! control-plane isolation invariant (traffic never perturbs the control
//! trajectory).

mod common;

use common::{drive, path_entries, static_engine, v};
use lsrp_graph::{generators, Distance, Graph, NodeId, RouteEntry, Weight};
use lsrp_sim::{
    ActionId, Effects, EnabledSet, Engine, EngineConfig, LinkConfig, PacketStatus, ProtocolNode,
    SimTime,
};

#[test]
fn delivers_along_the_route_with_exact_accounting() {
    let g = generators::path(4, 2);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(4, 2));
    engine.inject_packet(v(3), v(0), 16, 1);
    assert_eq!(engine.packets_in_flight(), 1);
    drive(&mut engine);
    assert_eq!(engine.packets_in_flight(), 0);
    let recs = engine.drain_completed_packets();
    assert_eq!(recs.len(), 1);
    let r = recs[0];
    assert_eq!(r.status, PacketStatus::Delivered);
    assert_eq!(r.hops, 3);
    assert_eq!(r.cost, 6, "sum of traversed weight-2 edges");
    assert!((r.latency() - 3.0).abs() < 1e-9, "three unit-delay hops");
    let t = engine.stats().traffic;
    assert_eq!(t.injected, 1);
    assert_eq!(t.delivered, 1);
    assert_eq!(t.delivered_hops, 3);
    assert_eq!(engine.stats().events.packet_hops, 4, "arrival at each node");
    // A second drain is empty.
    assert!(engine.drain_completed_packets().is_empty());
}

#[test]
fn self_delivery_costs_nothing() {
    let g = generators::path(2, 1);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(2, 1));
    engine.inject_packet(v(0), v(0), 16, 1);
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.status, PacketStatus::Delivered);
    assert_eq!((r.hops, r.cost), (0, 0));
}

#[test]
fn black_holes_on_routeless_and_self_parent_nodes() {
    let g = generators::path(3, 1);
    let mut entries = path_entries(3, 1);
    // v2 has no route at all; v1 points at itself short of the destination.
    entries.insert(v(2), RouteEntry::no_route(v(2)));
    entries.insert(v(1), RouteEntry::new(Distance::Finite(5), v(1)));
    let mut engine = static_engine(g, EngineConfig::default(), entries);
    engine.inject_packet(v(2), v(0), 16, 1);
    engine.inject_packet(v(1), v(0), 16, 1);
    drive(&mut engine);
    let recs = engine.drain_completed_packets();
    // Both die at t=0; completion order follows the canonical event key
    // order, which runs v1's hop (lower node id) first.
    assert_eq!(recs[0].status, PacketStatus::BlackHoled { at: v(1) });
    assert_eq!(recs[1].status, PacketStatus::BlackHoled { at: v(2) });
    assert_eq!(engine.stats().traffic.black_holed, 2);
}

#[test]
fn detects_a_live_forwarding_cycle_with_its_length() {
    let g = generators::path(4, 1);
    let mut entries = path_entries(4, 1);
    // v2 and v3 point at each other: a 2-cycle off the tree.
    entries.insert(v(2), RouteEntry::new(Distance::Finite(1), v(3)));
    entries.insert(v(3), RouteEntry::new(Distance::Finite(1), v(2)));
    let mut engine = static_engine(g, EngineConfig::default(), entries);
    engine.inject_packet(v(2), v(0), 64, 1);
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.status, PacketStatus::Looped { cycle_len: 2 });
    assert_eq!(engine.stats().traffic.looped, 1);
}

#[test]
fn ttl_expires_before_loop_detection_when_tighter() {
    let g = generators::path(4, 1);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(4, 1));
    engine.inject_packet(v(3), v(0), 1, 1);
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.status, PacketStatus::TtlExpired);
    assert_eq!(r.hops, 1, "budget spent before the second hop");
}

#[test]
fn dies_when_the_route_crosses_a_down_link() {
    let g = generators::path(3, 1);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(3, 1));
    engine.fail_edge(v(0), v(1)).expect("edge exists");
    engine.inject_packet(v(2), v(0), 16, 1);
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.status, PacketStatus::LinkDown { at: v(1) });
    assert_eq!(engine.stats().traffic.link_down, 1);
}

#[test]
fn dies_with_the_node_that_fails_mid_flight() {
    let g = generators::path(4, 1);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(4, 1));
    engine.inject_packet(v(3), v(0), 16, 1);
    // Let the packet reach v2 and get forwarded toward v1, then fail v1
    // while the hop is in flight: the packet dies with the node.
    engine.step().expect("arrival at v3 queued");
    engine.step().expect("arrival at v2 queued");
    engine.fail_node(v(1)).expect("node exists");
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.status, PacketStatus::LinkDown { at: v(1) });
}

#[test]
fn aggregated_probes_carry_their_weight_through_counters() {
    let g = generators::path(3, 1);
    let mut entries = path_entries(3, 1);
    entries.insert(v(1), RouteEntry::no_route(v(1)));
    let mut engine = static_engine(g, EngineConfig::default(), entries);
    engine.inject_packet(v(0), v(0), 16, 1_000_000); // self-delivery
    engine.inject_packet(v(2), v(0), 16, 500_000); // dies at v1
    drive(&mut engine);
    let t = engine.stats().traffic;
    assert_eq!(t.injected, 1_500_000);
    assert_eq!(t.delivered, 1_000_000);
    assert_eq!(t.black_holed, 500_000);
    assert_eq!(t.completed(), 1_500_000);
    assert!((t.delivered_fraction() - 2.0 / 3.0).abs() < 1e-12);
    assert_eq!(
        engine.stats().events.packet_hops,
        3,
        "aggregation is free: three probe events stand for 1.5M packets"
    );
}

#[test]
fn lossy_links_drop_packets_deterministically() {
    let g = generators::path(2, 1);
    let config = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.5, 1.5).with_loss(0.5))
        .with_seed(7);
    let run = |n: u32| {
        let mut engine = static_engine(g.clone(), config.clone(), path_entries(2, 1));
        for _ in 0..n {
            engine.inject_packet(v(1), v(0), 16, 1);
        }
        drive(&mut engine);
        engine.stats().traffic
    };
    let t = run(64);
    assert_eq!(t.delivered + t.lost, 64);
    assert!(t.lost > 0, "a 0.5-loss link loses something out of 64");
    assert!(t.delivered > 0, "and delivers something");
    // Same seed, same fates: the traffic RNG is deterministic.
    assert_eq!(run(64), t);
}

#[test]
fn scheduled_injections_fire_at_their_time() {
    let g = generators::path(2, 1);
    let mut engine = static_engine(g, EngineConfig::default(), path_entries(2, 1));
    engine.inject_packet_at(SimTime::new(10.0), v(1), v(0), 16, 1);
    drive(&mut engine);
    let r = engine.drain_completed_packets()[0];
    assert_eq!(r.injected_at, SimTime::new(10.0));
    assert_eq!(r.completed_at, SimTime::new(11.0));
}

// ---------------------------------------------------------------------
// Control-plane isolation: a protocol that floods under jitter and loss
// must follow the byte-identical trajectory whether or not packets ride
// the same links.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Flood {
    id: NodeId,
    level: Option<u32>,
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

    fn on_receive(&mut self, _from: NodeId, msg: &u32, _now_local: f64, fx: &mut Effects<u32>) {
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

#[test]
fn traffic_does_not_perturb_the_control_plane() {
    let g = generators::grid(4, 4, 1);
    let config = EngineConfig::default()
        .with_link(LinkConfig::jittered(0.5, 2.0).with_loss(0.1))
        .with_seed(3);
    let build = |graph: &Graph| {
        Engine::new(graph.clone(), config.clone(), |id, _| Flood {
            id,
            level: if id == v(0) { Some(0) } else { None },
            pending: id == v(0),
        })
    };
    let mut quiet = build(&g);
    quiet.run_until(SimTime::new(500.0)).expect("run");

    let mut busy = build(&g);
    for i in 0..20 {
        // Packets black-hole immediately (Flood routes point at self), but
        // their events interleave with every control event.
        busy.inject_packet_at(SimTime::new(f64::from(i)), v(15), v(0), 16, 1);
    }
    busy.run_until(SimTime::new(500.0)).expect("run");

    assert_eq!(quiet.route_table(), busy.route_table());
    let a = quiet.stats();
    let b = busy.stats();
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.messages_delivered, b.messages_delivered);
    assert_eq!(a.dropped_lossy_link, b.dropped_lossy_link);
    assert_eq!(a.events.deliveries, b.events.deliveries);
    assert_eq!(a.events.guard_fires, b.events.guard_fires);
    assert_eq!(b.events.packet_hops, 20);
}
