//! The static-router fixture shared by `tests/packet_lane.rs` and
//! `tests/congestion_lane.rs`: a node with a frozen route entry and no
//! control plane at all — the minimal router for exercising the data
//! plane in isolation.

use std::collections::BTreeMap;

use lsrp_graph::{Distance, Graph, NodeId, RouteEntry, Weight};
use lsrp_sim::{ActionId, Effects, EnabledSet, Engine, EngineConfig, ProtocolNode, SimTime};

pub fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A node with a frozen route entry and no actions.
#[derive(Debug)]
pub struct StaticRouter {
    entry: RouteEntry,
}

impl ProtocolNode for StaticRouter {
    type Msg = ();

    fn enabled_actions(&self, _now_local: f64) -> EnabledSet {
        EnabledSet::none()
    }

    fn execute(&mut self, _action: ActionId, _now_local: f64, _fx: &mut Effects<()>) {
        unreachable!("static routers have no actions");
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
        self.entry
    }

    fn action_name(_action: ActionId) -> &'static str {
        "none"
    }

    fn is_maintenance(_action: ActionId) -> bool {
        false
    }
}

/// A static-router engine over `graph` with the given per-node entries
/// (routeless where none is given).
pub fn static_engine(
    graph: Graph,
    config: EngineConfig,
    entries: BTreeMap<NodeId, RouteEntry>,
) -> Engine<StaticRouter> {
    Engine::new(graph, config, move |id, _| StaticRouter {
        entry: entries
            .get(&id)
            .copied()
            .unwrap_or_else(|| RouteEntry::no_route(id)),
    })
}

/// Entries for a path 0-1-2-...: everyone points down toward v0.
pub fn path_entries(n: u32, weight: u64) -> BTreeMap<NodeId, RouteEntry> {
    (0..n)
        .map(|i| {
            let entry = if i == 0 {
                RouteEntry::new(Distance::ZERO, v(0))
            } else {
                RouteEntry::new(Distance::Finite(u64::from(i) * weight), v(i - 1))
            };
            (v(i), entry)
        })
        .collect()
}

/// Runs the engine far past the last packet or flow event the tests
/// schedule.
pub fn drive(engine: &mut Engine<StaticRouter>) {
    engine.run_until(SimTime::new(100_000.0)).expect("run");
}
