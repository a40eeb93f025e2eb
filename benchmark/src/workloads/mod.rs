//! The seven workloads, and the checks and counts they share.

use lsrp_core::LsrpSimulation;
use lsrp_graph::shortest_path::ShortestPaths;
use lsrp_graph::Graph;
use lsrp_sim::{EngineConfig, EngineStats, SinkKind};

use crate::fingerprint::Fingerprint;
use crate::harness::{Ctx, Layers};

pub mod campaign;
pub mod chaos;
pub mod clos;
pub mod storm;
pub mod traffic;

/// Far enough ahead that no workload reaches it; a run that does is not
/// quiescent and fails its check.
pub const HORIZON: f64 = 1.0e9;

/// The engine configuration every single-simulation workload starts from:
/// the invocation's seed, counters only.
pub fn engine_config(ctx: &Ctx) -> EngineConfig {
    EngineConfig::default()
        .with_seed(ctx.seed)
        .with_sink(SinkKind::CountsOnly)
}

pub fn graph_shape(layers: &mut Layers, graph: &Graph) {
    layers.insert("graph.nodes", graph.node_count() as f64);
    layers.insert("graph.edges", graph.edge_count() as f64);
    let max_degree = graph.nodes().map(|v| graph.degree(v)).max().unwrap_or(0);
    layers.insert("graph.max_degree", max_degree as f64);
}

/// Engine counters of the timed phase (`after - before`).
pub fn sim_counts(layers: &mut Layers, before: &EngineStats, after: &EngineStats) {
    layers.insert(
        "sim.events",
        (after.total_events() - before.total_events()) as f64,
    );
    layers.insert(
        "sim.messages_delivered",
        (after.messages_delivered - before.messages_delivered) as f64,
    );
    layers.insert(
        "core.actions",
        (after.events.guard_fires - before.events.guard_fires) as f64,
    );
    layers.insert("sim.peak_queue_depth", after.peak_queue_depth as f64);
}

/// Whether the simulation's routes agree with a Dijkstra run the benchmark
/// makes itself: every node holds its true distance, and every node that
/// has a route points at a neighbour on some shortest path.
///
/// This is `routes_correct()` except for one case: a node cut off from the
/// destination may keep any parent pointer. A `FaultProcess` parent
/// corruption that lands on such a node is never repaired (no LSRP action
/// is enabled at `d = inf`), while `RouteTable::is_correct` wants `p = v`
/// there; a churned node whose neighbours were down when it rejoined can
/// stay cut off for good, so on some seeds a chaos run ends that way.
pub fn routes_match_oracle(ctx: &Ctx, sim: &LsrpSimulation) -> bool {
    let (graph, dest) = (sim.graph(), sim.destination());
    let oracle = {
        let _s = ctx.spans.span("graph.dijkstra");
        ShortestPaths::dijkstra(graph, dest)
    };
    let table = sim.route_table();
    graph.nodes().all(|v| {
        table.entry(v).is_some_and(|e| {
            e.distance == oracle.distance(v)
                && (e.distance.is_infinite() && v != dest
                    || oracle.is_legitimate_parent(graph, v, e.parent))
        })
    })
}

/// The fingerprint of a finished single-destination simulation.
pub fn sim_fingerprint(sim: &LsrpSimulation) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.stats(&sim.stats())
        .routes(&sim.route_table())
        .time(sim.now());
    fp
}
