//! Test-only referee: the monitored driver as it was before monitors
//! declared their due times — one engine step per event and every
//! monitor called after each. The suite at the bottom holds the windowed
//! driver to it: the same report, statistics, routes and trace bytes over
//! chaos mixes, the campaign run body with traffic and several region
//! counts, and a count of the stops it makes. A dense-plane traffic run
//! is held to the same plane stepped one event at a time: it ends at one
//! of that plane's event clocks.

use std::cell::Cell;
use std::path::PathBuf;

use super::{
    apply_lsrp, drive_with, run_monitored, standard_monitors, ConvergenceMonitor, DataPlane,
    Monitor, MonitorReport, StepThrough, Violation, ViolationKind,
};
use crate::chaos::{campaign_run, run_campaign, CampaignConfig, ChaosConfig, Target};
use crate::multi_chaos::apply_multi;
use crate::traffic::{
    AvailabilityMonitor, TrafficConfig, TrafficSummary, WorkloadDriver, WorkloadSpec,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::{FaultProcess, FaultSchedule};
use lsrp_graph::{generators, Graph, NodeId, RouteTable};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};
use lsrp_sim::{EngineConfig, EngineStats, SimTime, SinkKind};
use lsrp_trace::{streaming_factory, TraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Stops the windowed driver made on this thread (one per round of
    /// monitor calls).
    static STOPS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one stop of the windowed driver.
pub(super) fn count_stop() {
    STOPS.with(|s| s.set(s.get() + 1));
}

// Steps the engine one event at a time up to `until`, feeding every
// monitor; stops early once the engine is drained.
fn step_through_per_event(
    sim: &mut LsrpSimulation,
    until: f64,
    monitors: &mut [Box<dyn Monitor>],
    plane: &mut Option<DataPlane<'_>>,
    violations: &mut Vec<Violation>,
    events: &mut u64,
) {
    while sim
        .engine()
        .next_event_time()
        .is_some_and(|t| t.seconds() <= until)
    {
        sim.engine_mut().step();
        *events += 1;
        for m in &mut *monitors {
            m.on_event(sim, violations);
        }
        if (*events).is_multiple_of(256) {
            if let Some((_, avail)) = plane {
                avail.observe(sim);
            }
            if sim.engine().drained() {
                return;
            }
        }
    }
}

/// Keeps the default `due`, so both drivers call it after every event:
/// every 61st call reports the clock and the action-log length.
#[derive(Default)]
struct Probe {
    calls: u64,
}

impl Monitor for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        self.calls += 1;
        if self.calls.is_multiple_of(61) {
            out.push(Violation {
                kind: ViolationKind::PersistentLoop,
                at: sim.now(),
                nodes: Vec::new(),
                detail: format!(
                    "probe {} at {}",
                    self.calls,
                    sim.engine().trace().actions.len()
                ),
            });
        }
    }

    fn finish(&mut self, _: &LsrpSimulation, _: &mut Vec<Violation>) {}
}

/// Deadlines at fixed times that fall inside the driver's windows: each
/// reports the first call at or past it, with the clock and the action-log
/// length then.
struct Deadlines {
    /// Pending deadlines, latest first.
    pending: Vec<f64>,
}

impl Monitor for Deadlines {
    fn name(&self) -> &'static str {
        "deadlines"
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        while self
            .pending
            .last()
            .is_some_and(|&t| sim.now().seconds() >= t)
        {
            let t = self.pending.pop().expect("checked above");
            out.push(Violation {
                kind: ViolationKind::ConvergenceFailure,
                at: sim.now(),
                nodes: Vec::new(),
                detail: format!("deadline {t} at {}", sim.engine().trace().actions.len()),
            });
        }
    }

    fn due(&self) -> SimTime {
        SimTime::new(self.pending.last().copied().unwrap_or(f64::INFINITY))
    }

    fn finish(&mut self, _: &LsrpSimulation, _: &mut Vec<Violation>) {}
}

/// The standard set, a convergence deadline of one `hd_S` (tight enough
/// to fire after most faults, and reported at the clock of the first
/// event past it), [`Deadlines`] every 37.3 s of the fault window, and a
/// [`Probe`] when `probe`.
fn monitors(sim: &LsrpSimulation, t0: f64, probe: bool) -> Vec<Box<dyn Monitor>> {
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, sim.graph().node_count());
    monitors.push(Box::new(ConvergenceMonitor::new(timing.hd_s)));
    let mut pending: Vec<f64> = (1..)
        .map(|k| t0 + 37.3 * f64::from(k))
        .take_while(|&t| t < t0 + WINDOW)
        .collect();
    pending.reverse();
    monitors.push(Box::new(Deadlines { pending }));
    if probe {
        monitors.push(Box::<Probe>::default());
    }
    monitors
}

/// Everything a monitored run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: MonitorReport,
    traffic: Option<TrafficSummary>,
    stats: EngineStats,
    routes: RouteTable,
    trace: Vec<u8>,
}

const WINDOW: f64 = 1_500.0;
const HORIZON: f64 = 100_000.0;

/// The chaos mix: every fault class, a few of each over [`WINDOW`].
const MIX: FaultProcess = FaultProcess {
    link_flaps: 8,
    node_churn: 5,
    partitions: 3,
    corruptions: 8,
    weight_drifts: 3,
    min_outage: 20.0,
    max_outage: 120.0,
};

/// The workload riding the traffic cases.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        flows: 12,
        ..WorkloadSpec::default()
    }
}

/// One monitored run: a chaos mix over a topology settled from cold.
#[derive(Clone, Copy)]
struct Case<'a> {
    graph: &'a Graph,
    seed: u64,
    regions: usize,
    /// With the data plane riding the run.
    traffic: bool,
    /// With a monitor that keeps the default `due`.
    probe: bool,
}

impl Case<'_> {
    /// Runs the case with the windowed driver (through `run_monitored`,
    /// or the campaign run body with traffic) or with the referee, streaming the trace to a file, and
    /// returns what it left and the windowed driver's stops.
    fn run(self, referee: bool) -> (Outcome, u64) {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "lsrp-referee-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let factory = streaming_factory(TraceConfig::new(&path), SinkKind::Full).expect("opens");
        let config = EngineConfig::default()
            .with_seed(self.seed)
            .with_regions(self.regions)
            .with_sink_factory(factory);
        let (graph, dest) = (self.graph, NodeId::new(0));
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .engine_config(config)
            .build();
        sim.run_to_quiescence(HORIZON);
        let t0 = sim.now().seconds();
        let schedule: FaultSchedule = MIX.generate(graph, dest, WINDOW, self.seed).shifted(t0);
        let mut monitors = monitors(&sim, t0, self.probe);
        let stops = STOPS.with(Cell::get);
        let (report, traffic) = match (self.traffic, referee) {
            (false, false) => (
                run_monitored(&mut sim, &schedule, HORIZON, &mut monitors),
                None,
            ),
            (false, true) => {
                let report = drive_with(
                    step_through_per_event,
                    &mut sim,
                    &schedule,
                    HORIZON,
                    &mut monitors,
                    None,
                    apply_lsrp,
                );
                (report, None)
            }
            (true, false) => {
                let config = TrafficConfig {
                    chaos: ChaosConfig {
                        process: MIX,
                        fault_window: WINDOW,
                        horizon: HORIZON,
                        ..ChaosConfig::default()
                    },
                    workload: spec(),
                    duration: WINDOW,
                    window: 20.0,
                    transport: None,
                };
                let config = CampaignConfig::Traffic(config);
                let run = campaign_run(
                    &mut sim,
                    graph,
                    &[dest],
                    &config,
                    self.seed,
                    &mut monitors,
                    apply_lsrp,
                );
                assert_eq!(run.schedule, schedule, "the run body's schedule");
                (run.report, run.traffic.map(|t| *t))
            }
            (true, true) => {
                let mut workload =
                    WorkloadDriver::new(&spec(), graph, &[dest], t0, WINDOW, self.seed);
                let mut avail = AvailabilityMonitor::new(20.0);
                let plane = Some((&mut workload, &mut avail));
                let step: StepThrough<_> = step_through_per_event;
                let report = drive_with(
                    step,
                    &mut sim,
                    &schedule,
                    HORIZON,
                    &mut monitors,
                    plane,
                    apply_lsrp,
                );
                avail.observe(&mut sim);
                let summary = avail.finish(sim.stats().traffic, sim.stats().congestion);
                (report, Some(summary))
            }
        };
        let stops = STOPS.with(Cell::get) - stops;
        let stats = sim.stats();
        let routes = sim.route_table();
        drop(sim); // writes the trace's `end` frame
        let trace = std::fs::read(&path).expect("the trace was written");
        std::fs::remove_file(&path).expect("the trace is removable");
        let outcome = Outcome {
            report,
            traffic,
            stats,
            routes,
            trace,
        };
        (outcome, stops)
    }

    /// Runs both drivers and holds them equal; returns the windowed run.
    fn check(self, label: &str) -> Outcome {
        let (windowed, stops) = self.run(false);
        let (referee, _) = self.run(true);
        let events = windowed.report.events;
        assert!(
            windowed.report.violations.len() > 5,
            "{label}: the deadlines report"
        );
        if self.probe {
            assert_eq!(stops, events, "{label}: a default `due` wakes every event");
        } else {
            assert!(
                2 * stops < events,
                "{label}: {events} events in {stops} stops"
            );
        }
        assert_eq!(windowed.report, referee.report, "{label}: report");
        assert_eq!(windowed.traffic, referee.traffic, "{label}: traffic");
        assert_eq!(windowed.stats, referee.stats, "{label}: engine stats");
        assert_eq!(windowed.routes, referee.routes, "{label}: routes");
        assert!(windowed.trace == referee.trace, "{label}: trace bytes");
        windowed
    }
}

fn topologies() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(5);
    vec![
        ("grid7x7", generators::grid(7, 7, 1)),
        ("fat_tree4", generators::fat_tree(4)),
        ("waxman40", generators::waxman(40, 0.4, 0.3, &mut rng)),
    ]
}

#[test]
fn windowed_driver_matches_the_per_event_referee_on_chaos_mixes() {
    for (name, graph) in &topologies() {
        for seed in [3u64, 11, 29] {
            let case = Case {
                graph,
                seed,
                regions: 1,
                traffic: false,
                probe: false,
            };
            case.check(&format!("{name} seed {seed}"));
        }
    }
}

#[test]
fn windowed_driver_matches_the_referee_with_a_default_due() {
    let (name, graph) = &topologies()[0];
    let case = Case {
        graph,
        seed: 5,
        regions: 1,
        traffic: false,
        probe: true,
    };
    case.check(&format!("{name} with a probe"));
}

#[test]
fn windowed_driver_matches_the_referee_under_four_regions() {
    for (name, graph) in &topologies() {
        let case = Case {
            graph,
            seed: 17,
            regions: 4,
            traffic: false,
            probe: false,
        };
        let four = case.check(&format!("{name} regions 4"));
        let (one, _) = Case { regions: 1, ..case }.run(false);
        assert_eq!(four, one, "{name}: regions 4 vs 1");
    }
}

#[test]
fn windowed_driver_matches_the_referee_with_traffic() {
    let (name, graph) = &topologies()[0];
    for (seed, regions) in [(7u64, 1usize), (8, 4)] {
        let case = Case {
            graph,
            seed,
            regions,
            traffic: true,
            probe: false,
        };
        case.check(&format!("{name} traffic seed {seed} regions {regions}"));
    }
}

#[test]
fn a_dense_plane_traffic_run_ends_at_its_last_event() {
    // Both planes stop by one rule, when the engine is drained: the
    // report ends at the clock of an event the run processed, not at the
    // boundary of a fixed-length slice past it.
    let g = generators::grid(3, 3, 1);
    let dests = vec![NodeId::new(0), NodeId::new(8)];
    let config = TrafficConfig {
        chaos: ChaosConfig {
            process: FaultProcess {
                link_flaps: 1,
                node_churn: 1,
                partitions: 0,
                corruptions: 2,
                weight_drifts: 0,
                min_outage: 20.0,
                max_outage: 60.0,
            },
            fault_window: 300.0,
            ..ChaosConfig::default()
        },
        workload: WorkloadSpec {
            flows: 6,
            ..WorkloadSpec::default()
        },
        duration: 80.0,
        ..TrafficConfig::default()
    };
    let campaign = CampaignConfig::Traffic(config.clone());
    let target = Target::Destinations(dests.clone());
    let campaign = run_campaign(&g, "grid:3x3", target, campaign, 1..5, 1);
    for run in &campaign.runs {
        assert!(run.report.quiescent, "seed {}", run.seed);
        // The same run, stepped one event at a time after its last fault.
        let mut sim = MultiLsrpSimulation::builder(g.clone(), dests.clone())
            .engine_config(config.chaos.engine.clone().with_seed(run.seed))
            .build();
        sim.run_to_quiescence(config.chaos.horizon);
        let t0 = sim.now().seconds();
        let mut workload =
            WorkloadDriver::new(&config.workload, &g, &dests, t0, config.duration, run.seed);
        for (ordinal, ev) in run.schedule.events.iter().enumerate() {
            workload.ensure_scheduled(sim.engine_mut(), ev.at);
            sim.run_until(ev.at);
            apply_multi(&ev.fault, &mut sim, ordinal);
        }
        workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
        let clocks: Vec<_> = std::iter::from_fn(|| sim.step()).collect();
        assert!(
            clocks.contains(&run.report.end),
            "seed {}: end {} is no event's clock; the last events ran at {:?}",
            run.seed,
            run.report.end,
            &clocks[clocks.len().saturating_sub(3)..]
        );
    }
}

/// Settles a `width`×`width` grid from cold and runs the
/// `chaos_observed` fault mix, `scale` markers per unit of each class over
/// `1,000 × scale` simulated seconds, with the standard monitors; returns
/// the events run and the stops made.
fn chaos_stops(width: u32, scale: u32, seed: u64) -> (u64, u64) {
    let graph = generators::grid(width, width, 1);
    let dest = NodeId::new(0);
    let process = FaultProcess {
        link_flaps: 3 * scale,
        node_churn: 2 * scale,
        partitions: scale,
        corruptions: 3 * scale,
        weight_drifts: scale,
        ..FaultProcess::standard()
    };
    let window = 1_000.0 * f64::from(scale);
    let faults = process.generate(&graph, dest, window, seed);
    let mut sim = LsrpSimulation::builder(graph, dest)
        .initial_state(InitialState::Fresh)
        .engine_config(EngineConfig::default().with_seed(seed))
        .build();
    sim.run_to_quiescence(1.0e9);
    let schedule = faults.shifted(sim.now().seconds());
    let mut monitors = standard_monitors(sim.timing(), sim.graph().node_count());
    let before = STOPS.with(Cell::get);
    let report = run_monitored(&mut sim, &schedule, 1.0e9, &mut monitors);
    let stops = STOPS.with(Cell::get) - before;
    println!("{} events in {stops} stops", report.events);
    (report.events, stops)
}

/// A work count in the style of DESIGN.md §8.6: the stops the windowed
/// driver makes on a fixed chaos run, against the events it runs.
#[test]
fn the_windowed_driver_stops_far_less_often_than_it_steps() {
    let (events, stops) = chaos_stops(10, 10, 42);
    assert!(stops <= STOPS_MEASURED, "{stops} stops");
    assert!(events >= 10 * stops, "{events} events");
}

/// Stops measured on the run above, against its 6,173 events.
const STOPS_MEASURED: u64 = 165;

/// The same count on the benchmark's `chaos_observed` run at seed 42 (a
/// million events: run it in release).
#[test]
#[ignore = "a million events; run with --release"]
fn the_windowed_driver_stops_on_chaos_observed() {
    let (events, stops) = chaos_stops(16, 1000, 42);
    assert!(events >= 10 * stops, "{events} events in {stops} stops");
}
