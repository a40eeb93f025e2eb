//! The cell primitives scenario sweeps are compiled onto.
//!
//! A sweep scenario expands to a list of *cells* — pure functions of
//! their inputs — that fan out over
//! [`run_sharded`](lsrp_analysis::run_sharded) and merge back in cell
//! order. The cell bodies here are the former hand-coded experiment
//! loops from the `bench` crate (`scaling_cell`, `robustness_run`,
//! `lossy_run`, `live_availability_run`, `congested_recovery_run`),
//! moved behind a declarative parameter surface so their reports stay
//! byte-identical whether driven by Rust code or by a scenario file.

use lsrp_analysis::forwarding::measure_availability;
use lsrp_analysis::{
    measure_recovery, AvailabilityMonitor, AvailabilityTrace, RecoveryMetrics, RoutingSimulation,
    TrafficSummary, WorkloadDriver, WorkloadSpec,
};
use lsrp_baselines::{
    BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
    PvSimulation,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_faults::corruption::{contiguous_region, corrupt_region_plan};
use lsrp_faults::{CorruptionKind, Fault, FaultPlan};
use lsrp_graph::shortest_path::ShortestPaths;
use lsrp_graph::{generators, Distance, Graph, NodeId, RouteTable};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};
use lsrp_sim::{ClockConfig, CongAlgKind, CongestionConfig, EngineConfig, LinkConfig, SinkKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The simulated-time horizon used by every experiment cell.
pub const HORIZON: f64 = 5_000_000.0;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// The protocols under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's contribution.
    Lsrp,
    /// Distributed Bellman-Ford.
    Dbf,
    /// DUAL-lite.
    Dual,
    /// Path-vector (BGP-lite).
    Pv,
}

/// All compared protocols, in presentation order.
pub const ALL_PROTOCOLS: [Protocol; 4] =
    [Protocol::Lsrp, Protocol::Dbf, Protocol::Dual, Protocol::Pv];

impl Protocol {
    /// Parses the scenario/CLI spelling (`lsrp`, `dbf`, `dual`, `pv`).
    ///
    /// # Errors
    ///
    /// Names the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lsrp" => Ok(Protocol::Lsrp),
            "dbf" => Ok(Protocol::Dbf),
            "dual" => Ok(Protocol::Dual),
            "pv" => Ok(Protocol::Pv),
            other => Err(format!(
                "unknown protocol '{other}' (try lsrp, dbf, dual, pv)"
            )),
        }
    }

    /// The canonical spelling ([`Protocol::parse`] round-trips it).
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Lsrp => "lsrp",
            Protocol::Dbf => "dbf",
            Protocol::Dual => "dual",
            Protocol::Pv => "pv",
        }
    }
}

/// The paper-example wave timing (`u = 1`): `hd_SC = 1, hd_C = 8,
/// hd_S = 17`.
pub fn paper_timing() -> TimingConfig {
    TimingConfig::paper_example(1.0)
}

/// Builds one protocol over `graph` from a legitimate state (the given
/// chosen tree, or the canonical one), under the matched paper timing.
pub fn build(
    protocol: Protocol,
    graph: Graph,
    destination: NodeId,
    table: Option<RouteTable>,
    seed: u64,
) -> Box<dyn RoutingSimulation> {
    let engine = EngineConfig::default().with_seed(seed);
    match protocol {
        Protocol::Lsrp => {
            let initial = match table {
                Some(t) => InitialState::Table(t),
                None => InitialState::Legitimate,
            };
            Box::new(
                LsrpSimulation::builder(graph, destination)
                    .timing(paper_timing())
                    .initial_state(initial)
                    .engine_config(engine)
                    .build(),
            )
        }
        Protocol::Dbf => {
            let config = DbfConfig::for_graph(&graph, destination);
            Box::new(DbfSimulation::new(
                graph,
                destination,
                table,
                config,
                engine,
            ))
        }
        Protocol::Dual => {
            // DUAL never counts to infinity, so a high bound is safe — and
            // needed so long injected loops (E9, L = 64) are not clamped
            // away; the SIA timeout is raised to keep the diffusing
            // computation's linear walk visible.
            let config = DualConfig {
                infinity: 4096,
                active_timeout: 20_000.0,
                ..DualConfig::default()
            };
            Box::new(DualSimulation::new(
                graph,
                destination,
                table,
                config,
                engine,
            ))
        }
        Protocol::Pv => Box::new(PvSimulation::new(
            graph,
            destination,
            table,
            PvConfig::default(),
            engine,
        )),
    }
}

/// Builds one protocol under an explicit engine model and wave timing,
/// with the baselines' update hold re-derived from `timing.hd_s` (the
/// construction E14 uses for its harsh-model runs).
pub fn build_held(
    protocol: Protocol,
    graph: Graph,
    destination: NodeId,
    engine: EngineConfig,
    timing: TimingConfig,
) -> Box<dyn RoutingSimulation> {
    match protocol {
        Protocol::Lsrp => Box::new(
            LsrpSimulation::builder(graph, destination)
                .timing(timing)
                .engine_config(engine)
                .build(),
        ),
        Protocol::Dbf => {
            let config = DbfConfig {
                hold: timing.hd_s,
                ..DbfConfig::for_graph(&graph, destination)
            };
            Box::new(DbfSimulation::new(graph, destination, None, config, engine))
        }
        Protocol::Dual => Box::new(DualSimulation::new(
            graph,
            destination,
            None,
            DualConfig {
                hold: timing.hd_s,
                ..DualConfig::default()
            },
            engine,
        )),
        Protocol::Pv => Box::new(PvSimulation::new(
            graph,
            destination,
            None,
            PvConfig {
                hold: timing.hd_s,
                ..PvConfig::default()
            },
            engine,
        )),
    }
}

/// Applies the protocol-agnostic subset of a fault plan through the
/// [`RoutingSimulation`] interface.
pub fn apply_plan_generic(sim: &mut dyn RoutingSimulation, plan: &FaultPlan) {
    for f in &plan.faults {
        match f {
            Fault::Corrupt { node, kind } => match *kind {
                CorruptionKind::Distance(d) => sim.corrupt_distance(*node, d),
                CorruptionKind::Parent(p) => {
                    let d = sim
                        .route_table()
                        .entry(*node)
                        .map_or(Distance::Infinite, |e| e.distance);
                    sim.inject_route(*node, d, p);
                }
                CorruptionKind::MirrorOf { about, mirror } => {
                    sim.poison_mirror(*node, about, mirror.d);
                }
                CorruptionKind::Ghost(_) | CorruptionKind::Timestamp(_) => {
                    // LSRP-specific variables; no-ops for the baselines and
                    // unused by the generic experiments.
                }
            },
            Fault::FailNode(n) => sim.fail_node(*n).expect("node exists"),
            Fault::FailEdge(a, b) => sim.fail_edge(*a, *b).expect("edge exists"),
            Fault::JoinEdge(a, b, w) => sim.join_edge(*a, *b, *w).expect("edge is new"),
            Fault::SetWeight(a, b, w) => sim.set_weight(*a, *b, *w).expect("edge exists"),
            Fault::JoinNode { node, edges } => {
                // Best-effort: a rejoin can race earlier faults in the same
                // plan (a listed neighbor may itself have failed), so an
                // invalid join is skipped rather than aborting the plan.
                let _ = sim.join_node(*node, edges);
            }
        }
    }
}

/// How a recovery cell perturbs its contiguous region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFault {
    /// A seeded random corruption plan over the region
    /// ([`corrupt_region_plan`]): forged distances, parents and mirrors.
    CorruptPlan,
    /// Every region node black-holes to the destination
    /// (`d := 0`) with its neighborhood's mirrors poisoned.
    Blackhole,
}

/// The engine/timing model a recovery cell runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineModel {
    /// Unit link delay, ideal clocks, paper timing.
    Ideal,
    /// Jittered link delays and adversarial alternating clock drift,
    /// with hold times re-derived via [`TimingConfig::for_network`].
    Harsh {
        /// Link delay bounds `(min, max)`.
        jitter: (f64, f64),
        /// Clock drift bound `rho`.
        rho: f64,
    },
    /// Unit link delay with i.i.d. message loss and a periodic `SYN`
    /// refresh.
    Lossy {
        /// Per-message loss probability.
        loss: f64,
        /// `SYN` refresh period in simulated seconds.
        syn_period: f64,
    },
}

/// One recovery cell: a `(protocol, grid width, perturbation size)`
/// point of an E6-family sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCellSpec {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Grid width (the network is `width` x `width`).
    pub width: u32,
    /// Perturbation size: nodes in the corrupted contiguous region.
    pub p: usize,
    /// Engine + corruption-plan seed.
    pub seed: u64,
    /// How the region is perturbed.
    pub fault: RegionFault,
    /// Engine/timing model.
    pub model: EngineModel,
}

/// Runs one recovery cell: a contiguous region seeded one hop into the
/// grid (most of the network downstream — the worst case for fault
/// propagation) is perturbed, and the recovery is measured.
///
/// # Panics
///
/// Panics if the grid cannot fit a size-`p` region.
pub fn recovery_cell(spec: &RecoveryCellSpec) -> RecoveryMetrics {
    let width = spec.width;
    let graph = generators::grid(width, width, 1);
    let dest = v(0);
    let seed_node = v(width + 1);
    let region = contiguous_region(&graph, seed_node, spec.p, dest);
    assert_eq!(region.len(), spec.p, "grid too small for p = {}", spec.p);
    let mut sim = match spec.model {
        EngineModel::Ideal => build(spec.protocol, graph.clone(), dest, None, spec.seed),
        EngineModel::Harsh {
            jitter: (lo, hi),
            rho,
        } => {
            let link = LinkConfig::jittered(lo, hi);
            let engine = EngineConfig::default()
                .with_seed(spec.seed)
                .with_link(link)
                .with_clocks(ClockConfig::Alternating { rho });
            let timing = TimingConfig::for_network(rho, link.delay_max);
            build_held(spec.protocol, graph.clone(), dest, engine, timing)
        }
        EngineModel::Lossy { loss, syn_period } => {
            let engine = EngineConfig::default()
                .with_seed(spec.seed)
                .with_link(LinkConfig::constant(1.0).with_loss(loss));
            let timing = TimingConfig::paper_example(1.0).with_syn_period(syn_period);
            build_held(spec.protocol, graph.clone(), dest, engine, timing)
        }
    };
    match spec.fault {
        RegionFault::CorruptPlan => {
            let sp = ShortestPaths::dijkstra(&graph, dest);
            let table = sim.route_table();
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let plan = corrupt_region_plan(&graph, &region, &sp, &table, &mut rng);
            measure_recovery(sim.as_mut(), &region, HORIZON, |s| {
                apply_plan_generic(s, &plan);
            })
        }
        RegionFault::Blackhole => measure_recovery(sim.as_mut(), &region, HORIZON, |s| {
            for &node in &region {
                s.corrupt_distance(node, Distance::ZERO);
                let ns: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
                for k in ns {
                    s.poison_mirror(k, node, Distance::ZERO);
                }
            }
        }),
    }
}

/// One concurrent-regions case (E7, Lemmas 2–3): every listed region —
/// a `(seed node, size)` pair grown into a contiguous patch away from
/// `dest` — is corrupted by its own seeded plan *in the same run*, and
/// the joint recovery is measured. One RNG seeded with `seed` draws the
/// plans in region order, so the reported bytes match the hand-coded E7
/// loop this replaced.
///
/// # Panics
///
/// Panics if the topology cannot fit a region of the requested size.
pub fn region_case_cell(
    protocol: Protocol,
    graph: &Graph,
    dest: NodeId,
    regions: &[(NodeId, usize)],
    seed: u64,
) -> RecoveryMetrics {
    let mut perturbed: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
    let sp = ShortestPaths::dijkstra(graph, dest);
    let mut sim = build(protocol, graph.clone(), dest, None, seed);
    let table = sim.route_table();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plans = Vec::new();
    for &(node, size) in regions {
        let region = contiguous_region(graph, node, size, dest);
        assert_eq!(
            region.len(),
            size,
            "topology too small for a region of {size} at {node}"
        );
        plans.push(corrupt_region_plan(graph, &region, &sp, &table, &mut rng));
        perturbed.extend(region);
    }
    measure_recovery(sim.as_mut(), &perturbed, HORIZON, |s| {
        for plan in &plans {
            apply_plan_generic(s, plan);
        }
    })
}

/// One recurring-fault cell (E10, Corollary 4 / Theorem 5): the listed
/// regions black-hole (`d := 0`) together every `period` seconds for
/// `occurrences` rounds, and contamination is measured over the *whole*
/// multi-occurrence run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurringCellSpec {
    /// Grid width (the network is `width` x `width`).
    pub width: u32,
    /// The recurring regions, as `(seed node, size)` pairs.
    pub regions: Vec<(NodeId, usize)>,
    /// Seconds between occurrences.
    pub period: f64,
    /// Uniform jitter half-width on each gap; 0 keeps the schedule
    /// exactly periodic (and the cell byte-identical to the former
    /// hand-coded E10 loop).
    pub jitter: f64,
    /// Number of occurrences.
    pub occurrences: u32,
    /// Jitter seed (unused when `jitter == 0`).
    pub seed: u64,
}

/// A recurring-fault cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurringMetrics {
    /// Hop-distance of the farthest contaminated node from the regions.
    pub contamination_range: usize,
    /// Nodes outside the perturbed regions that executed any action.
    pub contaminated: usize,
    /// Whether every route was correct after the final recovery.
    pub routes_correct: bool,
    /// Whether the run reached quiescence before the horizon.
    pub quiescent: bool,
}

/// Runs one recurring-fault cell: build the grid under paper timing,
/// then apply the regions' black-hole plan every period (via
/// [`lsrp_faults::RecurringFault`]) and measure contamination across
/// all occurrences.
///
/// # Panics
///
/// Panics if the grid cannot fit a listed region.
pub fn recurring_cell(spec: &RecurringCellSpec) -> RecurringMetrics {
    let graph = generators::grid(spec.width, spec.width, 1);
    let dest = v(0);
    let mut region: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
    for &(node, size) in &spec.regions {
        let r = contiguous_region(&graph, node, size, dest);
        assert_eq!(
            r.len(),
            size,
            "grid too small for a region of {size} at {node}"
        );
        region.extend(r);
    }
    let mut sim = LsrpSimulation::builder(graph, dest)
        .timing(paper_timing())
        .build();
    let plan: FaultPlan = region
        .iter()
        .map(|&node| Fault::Corrupt {
            node,
            kind: CorruptionKind::Distance(Distance::ZERO),
        })
        .collect();
    let mut recurring = lsrp_faults::RecurringFault::new(plan, spec.period, spec.occurrences);
    if spec.jitter > 0.0 {
        recurring = recurring.with_jitter(spec.jitter, spec.seed);
    }
    sim.engine_mut().reset_trace();
    let t0 = sim.now();
    let report = recurring
        .drive_lsrp(&mut sim, HORIZON)
        .expect("plan applies");
    let acted = sim.engine().trace().acted_nodes_since(t0);
    let contaminated: std::collections::BTreeSet<NodeId> =
        acted.difference(&region).copied().collect();
    let range =
        lsrp_graph::contamination::range_of_contamination(sim.graph(), &region, &contaminated);
    RecurringMetrics {
        contamination_range: range,
        contaminated: contaminated.len(),
        routes_correct: sim.routes_correct(),
        quiescent: report.quiescent,
    }
}

/// One multi-destination recovery cell on the dense plane: a contiguous
/// region of `p` nodes near the corner has *every* instance table
/// hijacked, and the run is judged on all `dests` trees at once.
///
/// Returns (stabilization time, messages delivered, adverts delivered,
/// acting nodes).
///
/// # Panics
///
/// Panics if the grid cannot fit the region, or if the run fails to
/// settle with correct routes.
pub fn multi_recovery_cell(
    width: u32,
    p: usize,
    dests: usize,
    seed: u64,
) -> (f64, u64, u64, usize) {
    let graph = generators::grid(width, width, 1);
    let destinations: Vec<NodeId> = graph.nodes().take(dests).collect();
    let region = contiguous_region(&graph, v(width + 1), p, v(0));
    assert_eq!(region.len(), p, "grid too small for p = {p}");
    let mut sim = MultiLsrpSimulation::builder(graph, destinations)
        .seed(seed)
        .build();
    sim.engine_mut().reset_trace();
    let t0 = sim.now();
    for &node in &region {
        sim.corrupt_all_instances(node, |_| (Distance::ZERO, node));
    }
    let report = sim.run_to_quiescence(HORIZON);
    assert!(report.quiescent && sim.all_routes_correct());
    let trace = sim.engine().trace();
    let stab = trace
        .last_var_change_since(t0)
        .map_or(0.0, |t| t.seconds() - t0.seconds());
    let acting = trace.acted_nodes_since(t0).len();
    let stats = sim.engine().stats();
    (
        stab,
        stats.messages_delivered,
        stats.adverts_delivered,
        acting,
    )
}

/// One snapshot-availability cell (the E13 shape): a region of `p`
/// nodes near the destination hijacks the prefix, and forwarding
/// availability is sampled from the frozen route tables every
/// `sample_every` simulated seconds until recovery completes.
///
/// # Panics
///
/// Panics if the protocol fails to recover.
pub fn snapshot_hijack_cell(
    protocol: Protocol,
    w: u32,
    p: usize,
    seed: u64,
    sample_every: f64,
) -> AvailabilityTrace {
    let graph = generators::grid(w, w, 1);
    let dest = v(0);
    let region = contiguous_region(&graph, v(w + 1), p, dest);
    let mut sim = build(protocol, graph.clone(), dest, None, seed);
    sim.reset_trace();
    for &node in &region {
        sim.inject_route(node, Distance::ZERO, node);
        let ns: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
        for k in ns {
            sim.poison_mirror(k, node, Distance::ZERO);
        }
    }
    let trace = measure_availability(sim.as_mut(), HORIZON, sample_every);
    assert!(sim.routes_correct(), "{protocol:?} did not recover");
    trace
}

/// One live-hijack cell: settle, stream clean traffic, then a
/// contiguous region of `p` nodes near the destination hijacks the
/// prefix while the workload keeps flowing until every plane drains.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveHijackSpec {
    /// Grid width.
    pub width: u32,
    /// Perturbation size: nodes in the hijacking region.
    pub p: usize,
    /// Engine + workload seed.
    pub seed: u64,
    /// The offered traffic.
    pub workload: WorkloadSpec,
    /// Injection duration in simulated seconds.
    pub duration: f64,
    /// Clean streaming time before the hijack lands.
    pub prefault: f64,
    /// Availability sampling window.
    pub window: f64,
    /// Finite-rate links and bounded queues; `None` keeps links
    /// infinitely fast (the E20 shape).
    pub congestion: Option<CongestionConfig>,
    /// Promote flows to Go-Back-N transfers under this algorithm (the
    /// E21 shape); `None` keeps fire-and-forget probes.
    pub transport: Option<CongAlgKind>,
}

/// A live-hijack cell's outcome: the traffic summary plus the engine
/// totals (for throughput accounting).
#[derive(Debug, Clone)]
pub struct LiveHijackOutcome {
    /// Delivery, drop-fate, stretch and congestion metrics.
    pub summary: TrafficSummary,
    /// Total engine events processed.
    pub events: u64,
    /// Protocol messages delivered.
    pub messages_delivered: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: usize,
}

/// Runs one live-hijack cell (the E20/E21 shape, depending on whether
/// the congestion lane and a transport are configured).
///
/// # Panics
///
/// Panics if the run fails to drain, leaves incorrect routes, or (with
/// a transport) breaks packet conservation.
pub fn live_hijack_cell(spec: &LiveHijackSpec) -> LiveHijackOutcome {
    let w = spec.width;
    let graph = generators::grid(w, w, 1);
    let dest = v(0);
    let mut engine = EngineConfig::default()
        .with_seed(spec.seed)
        .with_sink(SinkKind::CountsOnly);
    if let Some(congestion) = spec.congestion {
        engine = engine.with_congestion(congestion);
    }
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .engine_config(engine)
        .build();
    sim.run_to_quiescence(HORIZON);
    let t0 = sim.now().seconds();

    let mut workload = WorkloadDriver::new(
        &spec.workload,
        &graph,
        &[dest],
        t0,
        spec.duration,
        spec.seed,
    );
    if let Some(alg) = spec.transport {
        workload = workload.with_transport(alg);
    }
    let mut avail = AvailabilityMonitor::new(spec.window);
    avail.arm(&mut sim);

    // Clean pre-fault windows: the availability baseline the fault dents
    // (and, under a transport, the ramp that fills the hotspot queues).
    workload.ensure_scheduled(sim.engine_mut(), t0 + spec.prefault);
    sim.run_until(t0 + spec.prefault);
    avail.observe(&mut sim);

    // The black hole: a size-`p` region claims to be the destination and
    // its neighborhood has already learned the bogus advertisement. The
    // topology is untouched, so the monitor's stretch truth stays valid
    // and flows can always recover by retransmission.
    let region = contiguous_region(&graph, v(w + 1), spec.p, dest);
    assert_eq!(
        region.len(),
        spec.p,
        "grid must fit a size-{} region",
        spec.p
    );
    for &node in &region {
        sim.inject_route(node, Distance::ZERO, node);
        let neighbors: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
        for k in neighbors {
            sim.poison_mirror(k, node, Distance::ZERO);
        }
    }

    // Keep traffic flowing through the recovery until the control plane,
    // the packet lane and (with a transport) every Go-Back-N flow drain
    // (`run_to_quiescence` would settle-skip past queued packet events).
    let transport = spec.transport.is_some();
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    loop {
        let drained = !sim.engine().any_enabled_non_maintenance()
            && sim.engine().inflight_messages() == 0
            && sim.engine().packets_in_flight() == 0
            && (!transport || sim.engine().flows_active() == 0);
        if drained {
            break;
        }
        let next = sim
            .engine()
            .next_event_time()
            .expect("undrained planes imply pending events");
        sim.run_until(next.seconds() + 50.0);
        avail.observe(&mut sim);
    }
    avail.observe(&mut sim);
    assert!(sim.routes_correct(), "LSRP must recover from the hijack");
    let counts = sim.stats().traffic;
    if transport {
        assert_eq!(
            counts.completed(),
            counts.injected,
            "packet conservation must hold at drain"
        );
        assert_eq!(sim.engine().packets_in_flight_weight(), 0);
    }
    let stats = sim.stats();
    LiveHijackOutcome {
        summary: avail.finish(counts, stats.congestion),
        events: stats.total_events(),
        messages_delivered: stats.messages_delivered,
        peak_queue_depth: stats.peak_queue_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_cells_are_pure_functions_of_their_spec() {
        let spec = RecoveryCellSpec {
            protocol: Protocol::Lsrp,
            width: 6,
            p: 2,
            seed: 48,
            fault: RegionFault::CorruptPlan,
            model: EngineModel::Ideal,
        };
        let a = recovery_cell(&spec);
        let b = recovery_cell(&spec);
        assert!(a.quiescent && a.routes_correct);
        assert_eq!(a.stabilization_time, b.stabilization_time);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn protocol_spellings_round_trip() {
        for p in ALL_PROTOCOLS {
            assert_eq!(Protocol::parse(p.as_str()).unwrap(), p);
        }
        assert!(Protocol::parse("rip").is_err());
    }
}
