//! Live traffic: workload generators, the availability monitor, and
//! traffic-under-chaos campaigns (§III-B measured on the wire).
//!
//! The snapshot probes in [`crate::forwarding`] ask "would a packet make
//! it right now?" on a frozen route table. This module injects packets
//! *into the running engine* — they hop against live route state,
//! concurrently with control-plane convergence and chaos faults — and
//! judges what the paper actually claims: most packets keep flowing while
//! an O(p) neighborhood recovers.
//!
//! Three layers:
//!
//! * [`WorkloadSpec`] / [`WorkloadDriver`]: deterministic seeded traffic —
//!   Poisson flows, all-pairs probes, hotspot patterns — in an exact
//!   per-packet mode or an aggregated sampling mode where one probe
//!   carries the weight of `rate x sample_every` packets (millions of
//!   represented packets per run at a few thousand probe events).
//! * [`AvailabilityMonitor`]: consumes the engine's completed-packet
//!   ledger and the RouteView delta log, maintaining windowed delivery
//!   fractions, path stretch vs `shortest_path`, and the live fraction of
//!   nodes holding a finite route — all in O(changes).
//! * [`TrafficConfig`] campaigns through
//!   [`run_campaign`](crate::chaos::run_campaign): the chaos-run protocol
//!   (settle, offset schedule, drive, judge) with a workload riding the
//!   same engine, toward one destination or many. Reports are
//!   byte-identical across worker counts, like every other campaign in
//!   this crate.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsrp_graph::shortest_path::ShortestPaths;
use lsrp_graph::{Distance, Graph, NodeId};
use lsrp_sim::{
    CongAlgKind, CongestionCounts, Engine, FlowConfig, HarnessProtocol, PacketRecord, PacketStatus,
    ProtocolNode, RouteCursor, SimHarness, SimTime, TrafficCounts, ViewEntry,
};

use crate::chaos::ChaosConfig;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// The shape of the offered traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `flows` seeded (src, dest) pairs, each a Poisson process of `rate`
    /// packets per second.
    Poisson,
    /// One flow per (node, destination) pair — every node probes every
    /// configured destination.
    AllPairs,
    /// Like [`WorkloadKind::Poisson`], but most flows originate inside the
    /// one-hop ball around a seeded hot node (a traffic hotspot crossing
    /// the same few links).
    Hotspot,
}

impl WorkloadKind {
    /// Parses the CLI spelling (`poisson`, `all-pairs`, `hotspot`).
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "poisson" => Some(WorkloadKind::Poisson),
            "all-pairs" | "allpairs" => Some(WorkloadKind::AllPairs),
            "hotspot" => Some(WorkloadKind::Hotspot),
            _ => None,
        }
    }
}

/// Exact per-packet injection, or aggregated sampling lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficMode {
    /// One probe per packet (weight 1) at exact Poisson arrival times.
    /// For small runs: event count scales with offered load.
    Exact,
    /// One probe per flow every `sample_every` seconds, carrying
    /// `max(1, round(rate x sample_every))` packets of weight. Event
    /// count scales with flows x windows, independent of `rate` — this is
    /// what makes millions of represented packets per run feasible.
    Aggregate {
        /// Sampling interval in simulated seconds.
        sample_every: f64,
    },
}

impl Default for TrafficMode {
    fn default() -> Self {
        TrafficMode::Aggregate { sample_every: 5.0 }
    }
}

impl TrafficMode {
    /// The weight one probe, or one Go-Back-N segment, carries for a flow
    /// of `rate` packets per second: `max(1, round(rate x sample_every))`
    /// when aggregated, 1 when exact.
    pub fn probe_weight(self, rate: f64) -> u64 {
        match self {
            TrafficMode::Exact => 1,
            TrafficMode::Aggregate { sample_every } => {
                ((rate * sample_every).round() as u64).max(1)
            }
        }
    }
}

/// A complete workload description (deterministic given a seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Traffic shape.
    pub kind: WorkloadKind,
    /// Exact or aggregated injection.
    pub mode: TrafficMode,
    /// Number of flows (ignored by [`WorkloadKind::AllPairs`], which has
    /// one flow per (node, destination) pair).
    pub flows: usize,
    /// Packets per second per flow.
    pub rate: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Poisson,
            mode: TrafficMode::Aggregate { sample_every: 5.0 },
            flows: 64,
            rate: 25.0,
        }
    }
}

#[derive(Debug)]
struct Flow {
    src: NodeId,
    dest: NodeId,
    rate: f64,
    /// Next exact-mode arrival time (absolute); with a transport, the
    /// Go-Back-N flow's start time.
    next_at: f64,
    /// Transport mode: whether the Go-Back-N flow has been started.
    started: bool,
    /// Per-flow RNG so each arrival stream is independent of scheduling
    /// chunk boundaries and of every other flow.
    rng: StdRng,
}

impl Flow {
    fn advance(&mut self) {
        let u: f64 = self.rng.gen();
        self.next_at += -(1.0 - u).ln() / self.rate;
    }
}

/// Drives one [`WorkloadSpec`] into an engine: owns the seeded flow set
/// and schedules injections ahead of the event loop on demand.
#[derive(Debug)]
pub struct WorkloadDriver {
    flows: Vec<Flow>,
    mode: TrafficMode,
    start: f64,
    end: f64,
    scheduled_until: f64,
    /// Aggregate mode: index of the next sampling tick.
    next_tick: u64,
    ttl: u32,
    /// When set, each workload flow becomes one stateful Go-Back-N
    /// transfer under this congestion algorithm instead of a stream of
    /// fire-and-forget probes (see [`WorkloadDriver::with_transport`]).
    transport: Option<CongAlgKind>,
}

impl WorkloadDriver {
    /// Builds the seeded flow set for `spec` over `graph`, injecting from
    /// `start` for `duration` seconds toward `destinations` (round-robin
    /// across flows).
    ///
    /// # Panics
    ///
    /// Panics if `graph` has no nodes or `destinations` is empty.
    pub fn new(
        spec: &WorkloadSpec,
        graph: &Graph,
        destinations: &[NodeId],
        start: f64,
        duration: f64,
        seed: u64,
    ) -> Self {
        assert!(!destinations.is_empty(), "workload needs destinations");
        let nodes: Vec<NodeId> = graph.nodes().collect();
        assert!(!nodes.is_empty(), "workload needs a topology");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x574b_4c44_u64);
        let pairs: Vec<(NodeId, NodeId)> = match spec.kind {
            WorkloadKind::AllPairs => nodes
                .iter()
                .flat_map(|&src| destinations.iter().map(move |&dest| (src, dest)))
                .collect(),
            WorkloadKind::Poisson => (0..spec.flows)
                .map(|i| {
                    let src = nodes[rng.gen_range(0..nodes.len())];
                    (src, destinations[i % destinations.len()])
                })
                .collect(),
            WorkloadKind::Hotspot => {
                let hot = nodes[rng.gen_range(0..nodes.len())];
                let mut ball: Vec<NodeId> = std::iter::once(hot)
                    .chain(graph.neighbors(hot).map(|(n, _)| n))
                    .collect();
                ball.sort_unstable();
                (0..spec.flows)
                    .map(|i| {
                        // 4 in 5 flows originate inside the hot ball.
                        let src = if i % 5 != 0 {
                            ball[rng.gen_range(0..ball.len())]
                        } else {
                            nodes[rng.gen_range(0..nodes.len())]
                        };
                        (src, destinations[i % destinations.len()])
                    })
                    .collect()
            }
        };
        let flows = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (src, dest))| {
                let mut flow = Flow {
                    src,
                    dest,
                    rate: spec.rate,
                    next_at: start,
                    started: false,
                    rng: StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(i as u64),
                    ),
                };
                flow.advance(); // first arrival strictly after start
                flow
            })
            .collect();
        WorkloadDriver {
            flows,
            mode: spec.mode,
            start,
            end: start + duration,
            scheduled_until: start,
            next_tick: 0,
            ttl: (4 * graph.node_count() as u32).max(8),
            transport: None,
        }
    }

    /// Promotes every workload flow to a stateful Go-Back-N transfer
    /// under `cc` (retransmission, windowing, the congestion lane's ECN
    /// echo). Each transfer starts at its flow's first Poisson arrival
    /// and carries the same represented payload the probe stream would
    /// have offered: `ceil(duration / sample_every)` segments of the
    /// aggregate probe weight, or `ceil(rate x duration)` weight-1
    /// segments in exact mode. Degenerate same-node flows are skipped.
    pub fn with_transport(mut self, cc: CongAlgKind) -> Self {
        self.transport = Some(cc);
        self
    }

    /// Number of flows in the workload.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Whether every injection up to the workload's end has been handed to
    /// the engine.
    pub fn done(&self) -> bool {
        self.scheduled_until >= self.end
    }

    /// Schedules every arrival in `[scheduled_until, min(upto, end))` into
    /// `engine` as future packet injections. Call before running the
    /// engine past `upto`; per-flow RNGs make the result independent of
    /// the chunking.
    pub fn ensure_scheduled<P: ProtocolNode>(&mut self, engine: &mut Engine<P>, upto: f64) {
        let upto = upto.min(self.end);
        if self.scheduled_until >= upto {
            return;
        }
        if let Some(cc) = self.transport {
            // Go-Back-N transport: one flow start per workload flow, at
            // its first arrival time. The flow drives itself through the
            // event queue from there — nothing else to schedule.
            let duration = self.end - self.start;
            let rate = self.flows.first().map_or(1.0, |f| f.rate);
            let segments = match self.mode {
                TrafficMode::Aggregate { sample_every } => (duration / sample_every).ceil(),
                TrafficMode::Exact => (rate * duration).ceil(),
            };
            let (segments, seg_weight) = ((segments as u64).max(1), self.mode.probe_weight(rate));
            for f in &mut self.flows {
                if f.started || f.next_at >= upto {
                    continue;
                }
                f.started = true;
                if f.src == f.dest {
                    continue;
                }
                engine.start_flow_at(
                    SimTime::new(f.next_at),
                    f.src,
                    f.dest,
                    FlowConfig {
                        segments,
                        seg_weight,
                        ttl: self.ttl,
                        cc,
                        ..FlowConfig::default()
                    },
                );
            }
            self.scheduled_until = upto;
            return;
        }
        match self.mode {
            TrafficMode::Aggregate { sample_every } => loop {
                let t = self.start + self.next_tick as f64 * sample_every;
                if t >= upto {
                    break;
                }
                for f in &self.flows {
                    let weight = self.mode.probe_weight(f.rate);
                    engine.inject_packet_at(SimTime::new(t), f.src, f.dest, self.ttl, weight);
                }
                self.next_tick += 1;
            },
            TrafficMode::Exact => {
                for f in &mut self.flows {
                    while f.next_at < upto {
                        engine.inject_packet_at(
                            SimTime::new(f.next_at),
                            f.src,
                            f.dest,
                            self.ttl,
                            1,
                        );
                        f.advance();
                    }
                }
            }
        }
        self.scheduled_until = upto;
    }
}

// ---------------------------------------------------------------------
// The availability monitor.
// ---------------------------------------------------------------------

/// Whether a view entry holds no route.
fn routeless(e: &ViewEntry) -> bool {
    e.route.distance == Distance::Infinite
}

/// Weighted, windowed data-plane availability, fed live from the engine's
/// completed-packet ledger and the RouteView delta log.
///
/// Complexity per observation is O(completed packets + route deltas): the
/// routable-node set is maintained incrementally from deltas (never a
/// full table scan), and `shortest_path` ground truth is computed lazily
/// per destination and invalidated only when a fault may have changed the
/// topology. The routable fraction tracks the harness's route view, which
/// reports the primary destination's tree on multi-destination planes.
#[derive(Debug)]
pub struct AvailabilityMonitor {
    window: f64,
    window_end: f64,
    win_delivered: u64,
    win_completed: u64,
    windows: u64,
    min_window_availability: f64,
    stretch_num: f64,
    stretch_den: u64,
    max_stretch: f64,
    truth: BTreeMap<NodeId, ShortestPaths>,
    cursor: Option<RouteCursor>,
    /// Live nodes without a route (distance `∞`).
    routeless: usize,
    live_nodes: usize,
    min_routable_fraction: f64,
    flows_completed: u64,
    flows_aborted: u64,
    fct_sum: f64,
    fct_max: f64,
}

impl AvailabilityMonitor {
    /// A monitor sampling delivery fractions over `window`-second windows.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive window.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "availability window must be positive");
        AvailabilityMonitor {
            window,
            window_end: 0.0,
            win_delivered: 0,
            win_completed: 0,
            windows: 0,
            min_window_availability: 1.0,
            stretch_num: 0.0,
            stretch_den: 0,
            max_stretch: 1.0,
            truth: BTreeMap::new(),
            cursor: None,
            routeless: 0,
            live_nodes: 0,
            min_routable_fraction: 1.0,
            flows_completed: 0,
            flows_aborted: 0,
            fct_sum: 0.0,
            fct_max: 0.0,
        }
    }

    /// Arms the monitor on `sim`: takes a route-delta cursor and seeds the
    /// routable-node set from the current view. Call once, after settling
    /// and before traffic starts.
    pub fn arm<P: HarnessProtocol>(&mut self, sim: &mut SimHarness<P>) {
        self.cursor = Some(sim.route_cursor());
        let view = sim.route_view();
        self.live_nodes = view.len();
        self.routeless = view.iter().filter(|(_, e)| routeless(e)).count();
        self.window_end = sim.now().seconds() + self.window;
        self.note_routable();
    }

    /// Drops the cached `shortest_path` ground truth — call when a fault
    /// may have changed the topology.
    pub fn invalidate_truth(&mut self) {
        self.truth.clear();
    }

    /// Consumes everything that happened since the last observation:
    /// route deltas (routable tracking) and completed packets (windowed
    /// delivery + stretch). Safe to call at any cadence — records carry
    /// their completion times, so windowing is exact regardless. For
    /// exact stretch accounting, observe before each topology fault so
    /// records are judged against the ground truth of their own era.
    ///
    /// # Panics
    ///
    /// Panics if [`AvailabilityMonitor::arm`] was never called.
    pub fn observe<P: HarnessProtocol>(&mut self, sim: &mut SimHarness<P>) {
        let cursor = self.cursor.expect("arm() before observe()");
        let deltas = sim.route_deltas_since(cursor);
        let n = deltas.len();
        for d in deltas {
            // Each delta names the entry it replaces: the counts lose what
            // left and gain what arrived.
            if let Some(e) = d.old {
                self.live_nodes -= 1;
                self.routeless -= usize::from(routeless(&e));
            }
            if let Some(e) = d.new {
                self.live_nodes += 1;
                self.routeless += usize::from(routeless(&e));
            }
        }
        if n > 0 {
            self.cursor = Some(cursor.advanced(n));
            self.note_routable();
        }
        let records = sim.engine_mut().drain_completed_packets();
        if !records.is_empty() {
            let graph = sim.graph();
            for rec in records {
                self.absorb(graph, rec);
            }
        }
        // Flow completions (O(changes), like the packet ledger): flow
        // completion times feed the FCT aggregate, aborts are counted
        // separately.
        for f in sim.engine_mut().drain_completed_flows() {
            if f.completed() {
                self.flows_completed += 1;
                let fct = f.completion_time();
                self.fct_sum += fct;
                self.fct_max = self.fct_max.max(fct);
            } else {
                self.flows_aborted += 1;
            }
        }
    }

    fn note_routable(&mut self) {
        if self.live_nodes > 0 {
            let frac = (self.live_nodes - self.routeless) as f64 / self.live_nodes as f64;
            self.min_routable_fraction = self.min_routable_fraction.min(frac);
        }
    }

    fn absorb(&mut self, graph: &Graph, rec: PacketRecord) {
        let t = rec.completed_at.seconds();
        while t >= self.window_end {
            self.close_window();
        }
        self.win_completed += rec.weight;
        if rec.status == PacketStatus::Delivered {
            self.win_delivered += rec.weight;
            if rec.src == rec.dest {
                // Zero-hop deliveries have stretch 1 by definition.
                self.stretch_num += rec.weight as f64;
                self.stretch_den += rec.weight;
            } else {
                let truth = self
                    .truth
                    .entry(rec.dest)
                    .or_insert_with(|| ShortestPaths::dijkstra(graph, rec.dest));
                if let Distance::Finite(d) = truth.distance(rec.src) {
                    if d > 0 {
                        let s = rec.cost as f64 / d as f64;
                        self.stretch_num += s * rec.weight as f64;
                        self.stretch_den += rec.weight;
                        self.max_stretch = self.max_stretch.max(s);
                    }
                }
                // A delivery whose source is now unreachable (the topology
                // changed under a packet in flight) has no ground truth
                // and is skipped for stretch accounting.
            }
        }
    }

    fn close_window(&mut self) {
        if self.win_completed > 0 {
            let avail = self.win_delivered as f64 / self.win_completed as f64;
            self.min_window_availability = self.min_window_availability.min(avail);
            self.windows += 1;
        }
        self.win_delivered = 0;
        self.win_completed = 0;
        self.window_end += self.window;
    }

    /// Closes the final partial window and renders the summary from the
    /// engine's weighted traffic and congestion counters.
    pub fn finish(
        &mut self,
        counts: TrafficCounts,
        congestion: CongestionCounts,
    ) -> TrafficSummary {
        self.close_window();
        TrafficSummary {
            counts,
            congestion,
            min_window_availability: self.min_window_availability,
            windows: self.windows,
            mean_stretch: if self.stretch_den > 0 {
                self.stretch_num / self.stretch_den as f64
            } else {
                1.0
            },
            max_stretch: self.max_stretch,
            min_routable_fraction: self.min_routable_fraction,
            flows_completed: self.flows_completed,
            flows_aborted: self.flows_aborted,
            mean_fct: if self.flows_completed > 0 {
                self.fct_sum / self.flows_completed as f64
            } else {
                0.0
            },
            max_fct: self.fct_max,
        }
    }
}

/// The data-plane verdict of one traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// Weighted engine counters (injected/delivered/drop fates).
    pub counts: TrafficCounts,
    /// Worst windowed delivery fraction observed (1.0 if no window
    /// completed any packet).
    pub min_window_availability: f64,
    /// Number of completed sampling windows.
    pub windows: u64,
    /// Weighted mean path stretch of delivered packets vs `shortest_path`
    /// in their completion era (exactly 1.0 on legitimate states).
    pub mean_stretch: f64,
    /// Worst delivered-packet stretch.
    pub max_stretch: f64,
    /// Worst live fraction of nodes holding a finite route (from the
    /// RouteView delta log; primary destination on multi planes).
    pub min_routable_fraction: f64,
    /// Congestion-lane counters (zero on the unlimited lane): peak queue
    /// depth, ECN marks, pause frames, flow goodput and retransmissions.
    pub congestion: CongestionCounts,
    /// Go-Back-N flows that acknowledged every segment.
    pub flows_completed: u64,
    /// Go-Back-N flows aborted with unacknowledged segments (an endpoint
    /// fail-stopped).
    pub flows_aborted: u64,
    /// Mean flow completion time over completed flows (0 if none).
    pub mean_fct: f64,
    /// Worst flow completion time.
    pub max_fct: f64,
}

impl TrafficSummary {
    /// Overall delivered fraction of completed packets.
    pub fn delivered_fraction(&self) -> f64 {
        self.counts.delivered_fraction()
    }

    /// Weighted flow goodput fraction: acked payload over offered payload
    /// (1.0 when no flows ran). Retransmissions never count toward the
    /// numerator.
    pub fn goodput_fraction(&self) -> f64 {
        if self.congestion.flow_offered_weight == 0 {
            1.0
        } else {
            self.congestion.flow_acked_weight as f64 / self.congestion.flow_offered_weight as f64
        }
    }

    /// One deterministic report fragment (appended to campaign run lines).
    /// Extended append-only: the PR-5 prefix is stable, congestion-lane
    /// fields follow it.
    pub(crate) fn report_fragment(&self) -> String {
        let c = &self.counts;
        let g = &self.congestion;
        format!(
            "injected={} delivered={} frac={:.6} blackholed={} linkdown={} looped={} ttl={} lost={} min_window={:.6} min_routable={:.6} mean_stretch={:.6} max_stretch={:.6} qdrop={} qpeak={} marks={} pauses={} goodput={:.6} retx={} flow_timeouts={} flows_done={} flows_aborted={} fct_mean={:.6} fct_max={:.6}",
            c.injected,
            c.delivered,
            self.delivered_fraction(),
            c.black_holed,
            c.link_down,
            c.looped,
            c.ttl_expired,
            c.lost,
            self.min_window_availability,
            self.min_routable_fraction,
            self.mean_stretch,
            self.max_stretch,
            c.queue_dropped,
            g.peak_port_occupancy,
            g.ecn_marks,
            g.pause_frames,
            self.goodput_fraction(),
            g.flow_retransmit_weight,
            g.flow_timeouts,
            self.flows_completed,
            self.flows_aborted,
            self.mean_fct,
            self.max_fct,
        )
    }
}

// ---------------------------------------------------------------------
// Traffic-under-chaos runs.
// ---------------------------------------------------------------------

/// Configuration for traffic runs: a chaos campaign with a workload
/// riding the same engine.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Fault process, horizon and engine settings.
    pub chaos: ChaosConfig,
    /// The offered traffic.
    pub workload: WorkloadSpec,
    /// Injection duration in seconds, starting at the fault-free fixpoint
    /// (faults land in the same window, so packets cross every wave).
    pub duration: f64,
    /// Availability sampling window for [`AvailabilityMonitor`].
    pub window: f64,
    /// When set, workload flows run as Go-Back-N transfers under this
    /// congestion algorithm instead of fire-and-forget probes (the
    /// congestion lane itself is configured on
    /// `chaos.engine.congestion`).
    pub transport: Option<CongAlgKind>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            chaos: ChaosConfig::default(),
            workload: WorkloadSpec::default(),
            duration: 600.0,
            window: 20.0,
            transport: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_campaign, CampaignConfig, Target};
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn workload_parsing_and_defaults() {
        assert_eq!(WorkloadKind::parse("poisson"), Some(WorkloadKind::Poisson));
        assert_eq!(
            WorkloadKind::parse("all-pairs"),
            Some(WorkloadKind::AllPairs)
        );
        assert_eq!(WorkloadKind::parse("hotspot"), Some(WorkloadKind::Hotspot));
        assert_eq!(WorkloadKind::parse("bogus"), None);
        let spec = WorkloadSpec::default();
        assert_eq!(spec.flows, 64);
        assert_eq!(spec.mode, TrafficMode::Aggregate { sample_every: 5.0 });
    }

    #[test]
    fn all_pairs_builds_one_flow_per_pair() {
        let g = generators::path(5, 1);
        let spec = WorkloadSpec {
            kind: WorkloadKind::AllPairs,
            ..WorkloadSpec::default()
        };
        let d = WorkloadDriver::new(&spec, &g, &[v(0), v(4)], 0.0, 100.0, 1);
        assert_eq!(d.flow_count(), 10);
        assert!(!d.done());
    }

    #[test]
    fn aggregate_scheduling_is_chunk_independent() {
        // Scheduling in one shot or in many small slices must enqueue the
        // identical injection set: same counters after the run.
        let g = generators::grid(3, 3, 1);
        let spec = WorkloadSpec::default();
        let run = |chunks: &[f64]| {
            let mut sim = LsrpSimulation::builder(g.clone(), v(0)).build();
            sim.run_to_quiescence(10_000.0);
            let t0 = sim.now().seconds();
            let mut w = WorkloadDriver::new(&spec, &g, &[v(0)], t0, 60.0, 9);
            for &c in chunks {
                w.ensure_scheduled(sim.engine_mut(), t0 + c);
                sim.run_until(t0 + c);
            }
            w.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
            sim.run_until(t0 + 10_000.0);
            assert!(w.done());
            assert_eq!(sim.engine().packets_in_flight(), 0);
            sim.stats().traffic
        };
        let one = run(&[100.0]);
        let many = run(&[7.0, 13.0, 31.0, 100.0]);
        assert_eq!(one, many);
        assert!(one.injected > 0);
        // Default spec: rate 25/s sampled every 5 s -> weight-125 probes.
        assert_eq!(one.injected % 125, 0);
    }

    #[test]
    fn exact_mode_is_chunk_independent_too() {
        let g = generators::path(4, 1);
        let spec = WorkloadSpec {
            mode: TrafficMode::Exact,
            flows: 4,
            rate: 0.5,
            ..WorkloadSpec::default()
        };
        let run = |chunks: &[f64]| {
            let mut sim = LsrpSimulation::builder(g.clone(), v(0)).build();
            sim.run_to_quiescence(10_000.0);
            let t0 = sim.now().seconds();
            let mut w = WorkloadDriver::new(&spec, &g, &[v(0)], t0, 40.0, 5);
            for &c in chunks {
                w.ensure_scheduled(sim.engine_mut(), t0 + c);
                sim.run_until(t0 + c);
            }
            w.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
            sim.run_until(t0 + 10_000.0);
            sim.stats().traffic
        };
        let one = run(&[50.0]);
        let many = run(&[3.0, 11.0, 23.0, 50.0]);
        assert_eq!(one, many);
        assert!(one.injected > 0, "40 s at 4 x 0.5/s should inject");
        assert_eq!(one.injected, one.delivered, "quiesced path delivers all");
    }

    #[test]
    fn availability_monitor_sees_full_delivery_on_a_quiet_network() {
        let g = generators::grid(3, 3, 1);
        let mut sim = LsrpSimulation::builder(g.clone(), v(0)).build();
        sim.run_to_quiescence(10_000.0);
        let t0 = sim.now().seconds();
        let mut avail = AvailabilityMonitor::new(5.0);
        avail.arm(&mut sim);
        for n in g.nodes() {
            sim.engine_mut().inject_packet(n, v(0), 64, 10);
        }
        sim.run_until(t0 + 1_000.0);
        avail.observe(&mut sim);
        let s = avail.finish(sim.stats().traffic, sim.stats().congestion);
        assert_eq!(s.counts.delivered, 90);
        assert!((s.delivered_fraction() - 1.0).abs() < 1e-12);
        assert!((s.min_window_availability - 1.0).abs() < 1e-12);
        assert!(
            (s.mean_stretch - 1.0).abs() < 1e-12,
            "legitimate => stretch 1"
        );
        assert!((s.max_stretch - 1.0).abs() < 1e-12);
        assert!((s.min_routable_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn routable_fraction_tracks_a_partition() {
        // Cut the path 0-1-2-3 between 1 and 2: nodes 2,3 lose their
        // route; the monitor's minimum must see 0.5 via deltas only.
        let g = generators::path(4, 1);
        let mut sim = LsrpSimulation::builder(g, v(0)).build();
        sim.run_to_quiescence(10_000.0);
        let mut avail = AvailabilityMonitor::new(5.0);
        avail.arm(&mut sim);
        sim.fail_edge(v(1), v(2)).unwrap();
        sim.run_to_quiescence(100_000.0);
        avail.observe(&mut sim);
        let s = avail.finish(sim.stats().traffic, sim.stats().congestion);
        assert!((s.min_routable_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transport_mode_runs_flows_to_full_goodput() {
        // Go-Back-N transport over a congested engine: every workload
        // flow completes, goodput is full, and the congested report
        // fields are populated.
        let g = generators::grid(3, 3, 1);
        let config = TrafficConfig {
            workload: WorkloadSpec {
                flows: 6,
                rate: 5.0,
                ..WorkloadSpec::default()
            },
            duration: 60.0,
            transport: Some(CongAlgKind::Aimd {
                initial: 4,
                max: 64,
            }),
            chaos: ChaosConfig {
                engine: lsrp_sim::EngineConfig::default()
                    .with_congestion(lsrp_sim::CongestionConfig::limited(50.0, 200)),
                process: lsrp_faults::FaultProcess {
                    link_flaps: 0,
                    node_churn: 0,
                    partitions: 0,
                    corruptions: 0,
                    ..ChaosConfig::default().process
                },
                ..ChaosConfig::default()
            },
            ..TrafficConfig::default()
        };
        let campaign = run_campaign(
            &g,
            "grid:3x3",
            Target::Destination(v(0)),
            CampaignConfig::Traffic(config),
            7..8,
            1,
        );
        let run = &campaign.runs[0];
        assert!(run.report.quiescent, "flows drained before the horizon");
        let s = run.traffic.as_ref().expect("a traffic run");
        assert!(s.flows_completed > 0);
        assert_eq!(s.flows_aborted, 0);
        assert!((s.goodput_fraction() - 1.0).abs() < 1e-12);
        assert!(s.mean_fct > 0.0);
        assert!(s.max_fct >= s.mean_fct);
        assert!(s.congestion.flow_offered_weight > 0);
        let line = s.report_fragment();
        assert!(line.contains("qdrop="));
        assert!(line.contains("goodput=1.000000"));
        assert!(line.contains("fct_mean="));
    }

    #[test]
    fn transport_scheduling_is_chunk_independent_too() {
        // Flow starts are pinned to arrival times via start_flow_at, so
        // chunked scheduling cannot move them: identical counters.
        let g = generators::grid(3, 3, 1);
        let spec = WorkloadSpec {
            flows: 5,
            rate: 2.0,
            ..WorkloadSpec::default()
        };
        let run = |chunks: &[f64]| {
            let mut sim = LsrpSimulation::builder(g.clone(), v(0))
                .engine_config(
                    lsrp_sim::EngineConfig::default()
                        .with_congestion(lsrp_sim::CongestionConfig::limited(20.0, 100)),
                )
                .build();
            sim.run_to_quiescence(10_000.0);
            let t0 = sim.now().seconds();
            let mut w = WorkloadDriver::new(&spec, &g, &[v(0)], t0, 40.0, 11)
                .with_transport(CongAlgKind::FixedWindow { window: 4 });
            for &c in chunks {
                w.ensure_scheduled(sim.engine_mut(), t0 + c);
                sim.run_until(t0 + c);
            }
            w.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
            sim.run_until(t0 + 10_000.0);
            assert!(w.done());
            assert_eq!(sim.engine().flows_active(), 0);
            (sim.stats().traffic, sim.stats().congestion)
        };
        let one = run(&[100.0]);
        let many = run(&[3.0, 9.0, 21.0, 100.0]);
        assert_eq!(one, many);
        assert!(one.1.flow_acked_weight > 0);
        assert_eq!(one.1.flow_acked_weight, one.1.flow_offered_weight);
    }
}
