//! Entry-point equivalence: `Engine::step`, `Engine::run_until` and
//! `Engine::run_to_quiescence` are three wrappers over one window driver,
//! so driving the same seeded run through any of them must walk the same
//! trajectory — for every region count and queue discipline, i.e. for
//! every lookahead the engine can be built with (`∞`, `delay_min`, `0`).
//!
//! The run crosses everything the driver has to get right at once: a
//! seeded chaos schedule applied mid-run (so
//! every entry point must stop *exactly* at each fault time), and a
//! congested data plane whose packets and flow acks share the queues
//! with the control plane.

use lsrp::analysis::{TrafficMode, WorkloadDriver, WorkloadKind, WorkloadSpec};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp::faults::FaultProcess;
use lsrp::graph::{generators, NodeId};
use lsrp_sim::{CongestionConfig, DisciplineKind, EngineConfig, SimTime};

/// How a run is advanced between fault times and through the tail.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// One `step()` per event.
    Step,
    /// `run_until` in fixed slices of this many simulated seconds.
    Slices(f64),
    /// One `run_to_quiescence` per segment.
    Quiescence,
}

/// What one run leaves behind, minus the end time (compared separately:
/// a sliced run ends on its slice grid by construction).
#[derive(Debug, PartialEq)]
struct Outcome {
    events: u64,
    last_effective: SimTime,
    stats: String,
    table: String,
}

/// Processes every event at or before `until` (all of them for `None`)
/// and returns how many ran. With a finite `until` the clock ends there.
fn advance(sim: &mut LsrpSimulation, until: Option<f64>, drive: Drive) -> u64 {
    let mut events = 0;
    let pending = |sim: &LsrpSimulation| {
        sim.engine()
            .next_event_time()
            .is_some_and(|t| until.is_none_or(|u| t.seconds() <= u))
    };
    match drive {
        Drive::Step => {
            while pending(sim) {
                sim.engine_mut().step().expect("an event was pending");
                events += 1;
            }
        }
        Drive::Slices(width) => {
            while pending(sim) {
                let slice = sim.now().seconds() + width;
                let slice = until.map_or(slice, |u| slice.min(u));
                events += sim
                    .engine_mut()
                    .run_until(SimTime::new(slice))
                    .expect("within the event budget")
                    .events;
            }
        }
        Drive::Quiescence => {
            let horizon = SimTime::new(until.unwrap_or(f64::INFINITY));
            let report = sim
                .engine_mut()
                .run_to_quiescence(horizon, 0.0)
                .expect("within the event budget");
            assert_eq!(report.quiescent, sim.engine().next_event_time().is_none());
            events += report.events;
        }
    }
    assert!(
        !pending(sim),
        "{drive:?} left an event at or before {until:?}"
    );
    if let Some(u) = until {
        // Raise the clock to the fault time; nothing is left to process.
        assert_eq!(sim.run_until(u).events, 0);
    }
    events
}

fn run(regions: usize, discipline: DisciplineKind, drive: Drive) -> (Outcome, SimTime) {
    let seed = 11;
    let graph = generators::grid(7, 7, 1);
    let dest = NodeId::new(0);
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_congestion(CongestionConfig::limited(64.0, 12).with_discipline(discipline))
        .with_regions(regions)
        .with_jobs(regions);
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .initial_state(InitialState::Legitimate)
        .engine_config(engine)
        .build();
    // Common prefix: settle to the fault-free fixpoint, then queue the
    // whole workload. Everything after `t0` goes through `drive`.
    assert!(sim.run_to_quiescence(100_000.0).quiescent);
    let t0 = sim.now().seconds();
    let settled = sim.stats().total_events();
    // Exact unit packets toward one destination, offered a little above
    // what its two inbound links carry: queues fill, drop and pause.
    let spec = WorkloadSpec {
        kind: WorkloadKind::Hotspot,
        mode: TrafficMode::Exact,
        flows: 32,
        rate: 5.0,
    };
    let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, 25.0, seed);
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);

    let mut events = 0;
    let schedule = FaultProcess::standard().generate(&graph, dest, 20.0, seed);
    assert!(schedule.events.len() >= 4, "the chaos schedule is empty");
    for ev in &schedule.events {
        events += advance(&mut sim, Some(t0 + ev.at), drive);
        assert_eq!(sim.now().seconds(), t0 + ev.at);
        let _ = ev.fault.apply_lsrp(&mut sim);
    }
    events += advance(&mut sim, None, drive);
    assert!(
        sim.engine().drained(),
        "{drive:?} did not drain both planes"
    );

    let mut stats = sim.stats();
    assert_eq!(stats.total_events(), settled + events);
    // The run is only a pin if it is chaotic and congested.
    assert!(stats.traffic.delivered > 0 && stats.traffic.queue_dropped > 0);
    assert!(stats.traffic.black_holed > 0 && stats.traffic.link_down > 0);
    if matches!(discipline, DisciplineKind::Pause { .. }) {
        assert!(stats.congestion.pause_frames > 0);
    }
    // `step()` samples the queue high-water mark by design; the run
    // methods do not.
    stats.peak_queue_depth = 0;
    let outcome = Outcome {
        events,
        last_effective: sim.engine().last_effective(),
        stats: format!("{stats:?}"),
        table: format!("{:?}", sim.route_table()),
    };
    (outcome, sim.now())
}

#[test]
fn step_run_until_and_run_to_quiescence_are_one_trajectory() {
    const SLICE: f64 = 3.7;
    let disciplines = [
        DisciplineKind::DropTail,
        DisciplineKind::Pause {
            pause_at: 0.6,
            quantum: 1.5,
        },
    ];
    for discipline in disciplines {
        let (baseline, end) = run(1, discipline, Drive::Step);
        assert!(
            baseline.events > 10_000,
            "the run is too small to mean much"
        );
        for regions in [1, 4] {
            let label = format!("{discipline:?} regions={regions}");
            let (stepped, stepped_end) = run(regions, discipline, Drive::Step);
            assert_eq!(stepped, baseline, "step, {label}");
            assert_eq!(stepped_end, end, "step, {label}");

            let (settled, settled_end) = run(regions, discipline, Drive::Quiescence);
            assert_eq!(settled, baseline, "run_to_quiescence, {label}");
            assert_eq!(settled_end, end, "run_to_quiescence, {label}");

            // A sliced run stops at the end of the slice that drained
            // the queues: at most one slice past `end`.
            let (sliced, sliced_end) = run(regions, discipline, Drive::Slices(SLICE));
            assert_eq!(sliced, baseline, "run_until, {label}");
            assert!(
                end <= sliced_end && sliced_end.seconds() <= end.seconds() + SLICE,
                "run_until, {label}: ended at {sliced_end:?}, the others at {end:?}"
            );
        }
    }
}
