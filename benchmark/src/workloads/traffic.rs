//! `traffic_congested`: the data plane under load.
//!
//! Go-Back-N flows under AIMD push packets over finite-rate links with
//! bounded drop-tail port queues on a grid that is already in its
//! legitimate state; one corruption half-way makes a repair wave cross the
//! traffic. Nearly every event is a packet hop, a port drain, an ACK or a
//! flow timer, so the packet lane, port queues, flow timers and
//! `WorkloadDriver` are what is measured. `crates/core` is idle: control
//! plane work should not move this workload.
//!
//! Sources are drawn uniformly and every flow ends at the destination in
//! the grid's corner, whose two links carry eight times their rate: that
//! is the hotspot. `WorkloadKind::Hotspot` also seeds where the hot ball
//! sits, and its distance from the destination moved the event count by a
//! factor of 3.4 between seeds; with uniform sources it moves by 3%.

use lsrp_analysis::{WorkloadDriver, WorkloadKind, WorkloadSpec};
use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{CongAlgKind, CongestionConfig, EngineStats};

use super::{
    engine_config, graph_shape, routes_match_oracle, sim_counts, sim_fingerprint, HORIZON,
};
use crate::harness::{Ctx, Layers, Verdict, Workload};

struct Sizes {
    width: u32,
    flows: usize,
    /// Simulated seconds the flows offer load for.
    duration: f64,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.smoke {
        Sizes {
            width: 8,
            flows: 32,
            duration: 300.0,
        }
    } else {
        Sizes {
            width: 16,
            flows: 256,
            duration: 2_000.0,
        }
    }
}

pub struct Ready {
    sim: LsrpSimulation,
    graph: Graph,
    workload: WorkloadDriver,
    t0: f64,
    duration: f64,
    victim: NodeId,
    before: EngineStats,
    drained: bool,
}

fn planes_drained(sim: &LsrpSimulation) -> bool {
    let e = sim.engine();
    !e.any_enabled_non_maintenance()
        && e.inflight_messages() == 0
        && e.packets_in_flight() == 0
        && e.flows_active() == 0
}

pub struct TrafficCongested;

impl Workload for TrafficCongested {
    const NAME: &'static str = "traffic_congested";
    type Ready = Ready;

    fn setup(ctx: &Ctx) -> Ready {
        let sizes = sizes(ctx);
        let dest = NodeId::new(0);
        let graph = {
            let _s = ctx.spans.span("graph.generate");
            generators::grid(sizes.width, sizes.width, 1)
        };
        let mut sim = {
            let _s = ctx.spans.span("core.build");
            LsrpSimulation::builder(graph.clone(), dest)
                .engine_config(
                    engine_config(ctx).with_congestion(CongestionConfig::limited(400.0, 2_000)),
                )
                .build()
        };
        {
            let _s = ctx.spans.span("sim.warm");
            sim.run_to_quiescence(HORIZON);
        }
        let t0 = sim.now().seconds();
        let spec = WorkloadSpec {
            kind: WorkloadKind::Poisson,
            flows: sizes.flows,
            ..WorkloadSpec::default()
        };
        let workload = {
            let _s = ctx.spans.span("analysis.workload_new");
            WorkloadDriver::new(&spec, &graph, &[dest], t0, sizes.duration, ctx.seed)
                .with_transport(CongAlgKind::Aimd {
                    initial: 4,
                    max: 64,
                })
        };
        // The corrupted node sits mid-grid, on many flows' paths.
        let victim = NodeId::new(sizes.width * (sizes.width / 2) + sizes.width / 2);
        Ready {
            before: sim.stats(),
            sim,
            graph,
            workload,
            t0,
            duration: sizes.duration,
            victim,
            drained: false,
        }
    }

    /// Schedule half, run half, corrupt, schedule the rest, then drive in
    /// slices until both planes drain (`run_to_quiescence` would settle
    /// past queued packet events), as `measure_traffic_congested` does.
    fn run(ctx: &Ctx, ready: &mut Ready) {
        let spans = ctx.spans;
        let Ready { sim, workload, .. } = ready;
        let half = ready.t0 + ready.duration / 2.0;
        spans.hot("analysis.workload_schedule", || {
            workload.ensure_scheduled(sim.engine_mut(), half);
        });
        spans.hot("sim.run_call", || sim.run_until(half));
        sim.corrupt_distance(ready.victim, Distance::ZERO);
        spans.hot("analysis.workload_schedule", || {
            workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
        });
        while !planes_drained(sim) {
            let Some(next) = sim.engine().next_event_time() else {
                return;
            };
            spans.hot("sim.run_call", || sim.run_until(next.seconds() + 50.0));
        }
        ready.drained = true;
    }

    fn check(ctx: &Ctx, ready: Ready, layers: &mut Layers) -> Verdict {
        let sim = &ready.sim;
        let stats = sim.stats();
        graph_shape(layers, &ready.graph);
        sim_counts(layers, &ready.before, &stats);
        let t = stats.traffic;
        let c = stats.congestion;
        let e = stats.events;
        layers.insert(
            PACKET_EVENTS,
            (e.packet_hops + e.port_drains + e.flow_acks + e.flow_timers) as f64,
        );
        layers.insert("sim.traffic.injected", t.injected as f64);
        layers.insert("sim.traffic.delivered_frac", t.delivered_fraction());
        layers.insert(
            "sim.congestion.retransmit_frac",
            c.flow_retransmit_weight as f64 / c.flow_offered_weight.max(1) as f64,
        );
        layers.insert("sim.congestion.timeouts", c.flow_timeouts as f64);
        layers.insert(
            "sim.congestion.peak_port_occupancy",
            c.peak_port_occupancy as f64,
        );
        Verdict::single(
            &[
                ("both planes drained", ready.drained && planes_drained(sim)),
                ("packets were injected", t.injected > 0),
                ("every packet completed", t.completed() == t.injected),
                (
                    "routes match the Dijkstra oracle",
                    routes_match_oracle(ctx, sim),
                ),
            ],
            sim_fingerprint(sim).finish(),
        )
    }

    fn layers(_ctx: &Ctx, base_run_s: f64, layers: &mut Layers) {
        if let Some(&packet_events) = layers.get(PACKET_EVENTS) {
            layers.insert(
                "sim.traffic.packet_events_per_s",
                packet_events / base_run_s,
            );
        }
    }
}

/// Scratch key: data-plane events of the timed phase.
const PACKET_EVENTS: &str = "_packet_events";
