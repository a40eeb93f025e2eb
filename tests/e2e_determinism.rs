//! Reproducibility: every simulation in this repository is bit-for-bit
//! deterministic given its seed — traces, final states, metrics.

use std::collections::BTreeSet;

use lsrp::analysis::{measure_recovery, RoutingSimulation};
use lsrp::analysis::{run_campaign, CampaignConfig, ChaosConfig, Target};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::graph::{generators, Distance, NodeId};
use lsrp_sim::{ClockConfig, EngineConfig, LinkConfig, SinkKind};

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

fn run_once(seed: u64) -> (Vec<(NodeId, f64, &'static str)>, String) {
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_clocks(ClockConfig::Drifting { rho: 1.4 });
    let timing = TimingConfig::for_network(1.4, 1.5).with_syn_period(4.0);
    let mut sim = LsrpSimulation::builder(generators::grid(6, 6, 1), v(0))
        .timing(timing)
        .initial_state(InitialState::Arbitrary { seed: seed ^ 99 })
        .engine_config(engine)
        .build();
    let report = sim.run_to_quiescence(1_000_000.0);
    assert!(report.quiescent);
    let actions = sim
        .engine()
        .trace()
        .actions
        .iter()
        .filter(|r| !r.maintenance)
        .map(|r| (r.node, r.time.seconds(), r.name))
        .collect();
    let table = format!("{:?}", sim.route_table());
    (actions, table)
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let (a1, t1) = run_once(7);
    let (a2, t2) = run_once(7);
    assert_eq!(a1, a2, "traces must match exactly");
    assert_eq!(t1, t2, "final tables must match exactly");
    assert!(!a1.is_empty(), "the arbitrary start must cause activity");
}

#[test]
fn different_seeds_differ() {
    let (a1, _) = run_once(7);
    let (a2, _) = run_once(8);
    assert_ne!(a1, a2);
}

#[test]
fn sink_choice_never_changes_the_simulation() {
    // The trace sink is pure observability: the same seeded run under
    // the Full and CountsOnly sinks must produce identical engine
    // statistics, identical final tables, and identical end times — only
    // what is *recorded* differs.
    let run_with = |sink: SinkKind| {
        let engine = EngineConfig::default()
            .with_seed(23)
            .with_link(LinkConfig::jittered(0.5, 1.5))
            .with_clocks(ClockConfig::Drifting { rho: 1.4 })
            .with_sink(sink);
        let mut sim = LsrpSimulation::builder(generators::grid(6, 6, 1), v(0))
            .timing(TimingConfig::for_network(1.4, 1.5).with_syn_period(4.0))
            .initial_state(InitialState::Arbitrary { seed: 5 })
            .engine_config(engine)
            .build();
        let report = sim.run_to_quiescence(1_000_000.0);
        assert!(report.quiescent);
        let stats = sim.stats();
        (
            report.end,
            format!("{:?}", sim.route_table()),
            stats,
            sim.engine().sink().trace().map(|t| t.total_actions()),
        )
    };
    let (end_f, table_f, stats_f, actions_f) = run_with(SinkKind::Full);
    let (end_c, table_c, stats_c, actions_c) = run_with(SinkKind::CountsOnly);
    assert_eq!(end_f, end_c);
    assert_eq!(table_f, table_c);
    assert_eq!(
        format!("{stats_f:?}"),
        format!("{stats_c:?}"),
        "EngineStats must not depend on the sink"
    );
    // Retention differs exactly as advertised: only Full keeps a trace;
    // the message counts are the engine's, whatever the sink.
    assert!(actions_f.expect("full sink keeps a trace") > 0);
    assert!(actions_c.is_none());
    assert!(stats_f.messages_sent > 0 && stats_f.messages_delivered > 0);
}

#[test]
fn parallel_campaign_matches_serial_byte_for_byte() {
    let g = generators::grid(4, 4, 1);
    let report = |jobs| {
        let target = Target::Destination(v(0));
        let config = CampaignConfig::Chaos(ChaosConfig::default());
        run_campaign(&g, "grid:4x4", target, config, 7..13, jobs).report()
    };
    let serial = report(1);
    for jobs in [2, 5] {
        assert_eq!(
            serial,
            report(jobs),
            "campaign report must not depend on worker count (jobs={jobs})"
        );
    }
}

#[test]
fn metrics_are_reproducible_through_the_harness() {
    let measure = || {
        let mut sim = LsrpSimulation::builder(generators::grid(8, 8, 1), v(0))
            .engine_config(
                EngineConfig::default()
                    .with_seed(3)
                    .with_link(LinkConfig::jittered(0.5, 1.5)),
            )
            .timing(TimingConfig::for_network(1.0, 1.5))
            .build();
        let perturbed = BTreeSet::from([v(9)]);
        let m = measure_recovery(
            &mut sim as &mut dyn RoutingSimulation,
            &perturbed,
            1_000_000.0,
            |s| {
                s.corrupt_distance(v(9), Distance::ZERO);
                s.poison_mirror(v(10), v(9), Distance::ZERO);
            },
        );
        (m.stabilization_time, m.messages, m.actions, m.contaminated)
    };
    assert_eq!(measure(), measure());
}
