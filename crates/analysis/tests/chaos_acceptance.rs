//! Acceptance tests for the adversarial harness: the paper's benign
//! scenario stays violation-free, a deliberately misconfigured wave
//! hierarchy is caught by the wave-order monitor, violating campaigns are
//! reproducible byte for byte, and minimized schedules replay to the same
//! violation.

use lsrp_analysis::chaos::{
    minimize_run, replay_repro, run_campaign, Campaign, CampaignConfig, ChaosConfig, ReproCase,
    Target,
};
use lsrp_analysis::monitor::{
    run_monitored, standard_monitors, Monitor, ViolationKind, WaveOrderMonitor,
};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, Mirror, TimingConfig};
use lsrp_faults::{CorruptionKind, Fault, FaultProcess, FaultSchedule};
use lsrp_graph::{generators, topologies, Distance, NodeId};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A wave hierarchy that violates §IV-D on purpose: the containment wave
/// holds *longer* than the stabilization wave, so containment can never
/// outrun contamination. `build()` rejects this; `timing_unchecked`
/// exists exactly for this experiment.
fn inverted_timing() -> TimingConfig {
    let mut t = TimingConfig::paper_example(1.0);
    t.hd_c = 2.0 * t.hd_s;
    t
}

#[test]
fn fig1_benign_scenario_is_violation_free() {
    // The paper's own worked example (corrupt d.v9 := 1 on the Figure 1
    // tree) must sail through every monitor.
    let mut sim = LsrpSimulation::builder(topologies::paper_fig1(), topologies::FIG1_DESTINATION)
        .initial_state(InitialState::Table(topologies::fig1_route_table()))
        .build();
    sim.run_to_quiescence(10_000.0);
    let schedule = FaultSchedule::new().with(
        sim.now().seconds() + 5.0,
        Fault::Corrupt {
            node: v(9),
            kind: CorruptionKind::Distance(Distance::Finite(1)),
        },
    );
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, sim.graph().node_count());
    let report = run_monitored(&mut sim, &schedule, 100_000.0, &mut monitors);
    assert!(report.quiescent, "fig1 must settle");
    assert!(
        report.violations.is_empty(),
        "benign fig1 scenario violated: {:?}",
        report.violations
    );
    assert!(sim.routes_correct());
}

#[test]
fn inverted_wave_hierarchy_fires_the_wave_order_monitor() {
    // With hd_C = 2 * hd_S the containment front is observed crawling
    // behind the stabilization front — the monitor must call that out.
    let run = |timing: Option<TimingConfig>| {
        let g = generators::grid(5, 5, 1);
        let mut builder = LsrpSimulation::builder(g.clone(), v(0));
        if let Some(t) = timing {
            builder = builder.timing_unchecked(t);
        }
        let mut sim = builder.build();
        sim.run_to_quiescence(10_000.0);
        // The paper's contamination scenario: forge v12's broadcast — its
        // own distance plus its neighbors' mirrors of it (grid center, so
        // the waves get several hops of room in every direction).
        let at = sim.now().seconds() + 5.0;
        let mut schedule = FaultSchedule::new().with(
            at,
            Fault::Corrupt {
                node: v(12),
                kind: CorruptionKind::Distance(Distance::ZERO),
            },
        );
        for (n, _) in g.neighbors(v(12)) {
            schedule.push(
                at,
                Fault::Corrupt {
                    node: n,
                    kind: CorruptionKind::MirrorOf {
                        about: v(12),
                        mirror: Mirror {
                            d: Distance::ZERO,
                            p: v(7),
                            ghost: false,
                        },
                    },
                },
            );
        }
        let t = *sim.timing();
        let mut monitors: Vec<Box<dyn Monitor>> =
            vec![Box::new(WaveOrderMonitor::new(12.0 * t.hd_s))];
        run_monitored(&mut sim, &schedule, 100_000.0, &mut monitors)
    };

    let broken = run(Some(inverted_timing()));
    assert!(
        broken
            .violations
            .iter()
            .any(|vi| vi.kind == ViolationKind::WaveOrderInversion),
        "misconfigured waves must be detected: {:?}",
        broken.violations
    );

    let correct = run(None);
    assert!(
        correct.violations.is_empty(),
        "paper timing must not trip the monitor: {:?}",
        correct.violations
    );
}

/// Chaos config driving corruption-only campaigns under the inverted
/// hierarchy — a reliable source of genuine violations.
fn broken_config() -> ChaosConfig {
    ChaosConfig {
        process: FaultProcess::corruptions_only(3),
        fault_window: 200.0,
        timing: Some(inverted_timing()),
        ..ChaosConfig::default()
    }
}

/// Four broken-hierarchy runs on `grid:5x5`, seeds 11..15.
fn broken_campaign() -> Campaign {
    let g = generators::grid(5, 5, 1);
    let (target, config) = (
        Target::Destination(v(0)),
        CampaignConfig::Chaos(broken_config()),
    );
    run_campaign(&g, "grid:5x5", target, config, 11..15, 1)
}

#[test]
fn violating_campaigns_are_byte_identical_per_seed() {
    let a = broken_campaign();
    let b = broken_campaign();
    assert!(
        a.violating().count() > 0,
        "the broken hierarchy should violate somewhere in 4 runs:\n{}",
        a.report()
    );
    assert_eq!(a.report(), b.report(), "reports must be byte-identical");
}

#[test]
fn minimized_schedule_replays_to_the_same_violation() {
    let g = generators::grid(5, 5, 1);
    let cfg = broken_config();
    let campaign = broken_campaign();
    let run = campaign
        .violating()
        .next()
        .expect("the broken hierarchy should produce a violating run");

    let (minimized, violation) = minimize_run(&g, v(0), &cfg, run);
    assert!(minimized.len() <= run.schedule.len());
    assert!(!minimized.is_empty());
    assert_eq!(
        violation.kind, run.report.violations[0].kind,
        "minimization must preserve the violation kind"
    );

    // The minimized schedule round-trips through the repro-case text and
    // still replays to the very same violation.
    let repro = ReproCase {
        topology: "grid:5x5".to_string(),
        topology_seed: 11,
        destination: v(0),
        seed: run.seed,
        schedule: minimized,
    };
    let parsed = ReproCase::parse(&repro.to_text()).expect("repro text round-trips");
    assert_eq!(parsed, repro);
    let replayed = replay_repro(&g, &cfg, &parsed);
    assert!(
        replayed.violations.contains(&violation),
        "replayed repro lost the violation: {:?}",
        replayed.violations
    );
}

#[test]
fn single_run_reproduces_exactly() {
    // A one-seed campaign is the unit the CLI builds on: same inputs,
    // same outcome.
    let g = generators::grid(4, 4, 1);
    let run = || {
        let config = CampaignConfig::Chaos(ChaosConfig::default());
        let mut c = run_campaign(&g, "grid:4x4", Target::Destination(v(0)), config, 3..4, 1);
        c.runs.remove(0)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedule.to_text(), b.schedule.to_text());
    assert_eq!(a.report.violations, b.report.violations);
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.end, b.report.end);
}
