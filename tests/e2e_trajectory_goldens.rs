//! Pinned trajectories: seeded full simulations whose observable
//! fingerprint — every action record, the final route table and the
//! engine statistics — must not move.
//!
//! The fingerprints cover the shapes the engine's hot path sees in
//! campaigns: three topologies (grid, fat-tree, Waxman) from arbitrary
//! initial states under drifting clocks, jittered links and the
//! standard chaos fault process, plus congested data-plane traffic
//! drained to empty, one run of which is long enough (100k+ events) to
//! carry the calendar queue through many density retunes and
//! bucket-count changes. Each fingerprint is pinned by its length and
//! FNV-1a 64 digest; an intended change to a trajectory shows up here as
//! a new `(length, digest)` pair.

use lsrp::analysis::{run_monitored, standard_monitors, TrafficMode, WorkloadDriver, WorkloadSpec};
use lsrp::core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp::faults::FaultProcess;
use lsrp::graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{ClockConfig, CongestionConfig, EngineConfig, LinkConfig, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_pinned(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, digest),
        "{what}: got (len {}, 0x{:016x})",
        bytes.len(),
        fnv1a64(bytes)
    );
}

/// The topologies under test: a mesh, a data-center Clos, and a random
/// internet-like geometric graph.
fn topologies() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(42);
    vec![
        ("grid6x6", generators::grid(6, 6, 1)),
        ("fattree4", generators::fat_tree(4)),
        ("waxman60", generators::waxman(60, 0.4, 0.6, &mut rng)),
    ]
}

/// Runs a chaotic control-plane scenario and returns the full observable
/// fingerprint: every action record, the final route table, and the
/// engine statistics.
fn chaos_fingerprint(graph: &Graph, seed: u64) -> String {
    // Jittered links and drifting clocks exercise irregular event
    // spacing; no periodic SYN refresh, so the monitored phase can
    // settle instead of ticking maintenance to the horizon.
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_clocks(ClockConfig::Drifting { rho: 1.4 });
    let timing = TimingConfig::for_network(1.4, 1.5);
    let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
        .timing(timing)
        .initial_state(InitialState::Arbitrary { seed: seed ^ 99 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);

    // Mid-run faults: the standard chaos process, replayed from the
    // quiescent point.
    let t0 = sim.now().seconds();
    let schedule = FaultProcess::standard()
        .generate(graph, v(0), 120.0, seed)
        .shifted(t0);
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, graph.node_count());
    let report = run_monitored(&mut sim, &schedule, t0 + 100_000.0, &mut monitors);

    let actions: Vec<_> = sim
        .engine()
        .trace()
        .actions
        .iter()
        .map(|r| (r.node, r.time.seconds(), r.name, r.maintenance))
        .collect();
    format!(
        "events={} actions={actions:?} table={:?} stats={:?}",
        report.events,
        sim.route_table(),
        sim.stats()
    )
}

#[test]
fn chaos_trajectories_are_pinned() {
    let pinned: [(&str, u64, usize, u64); 6] = [
        ("grid6x6", 7, 14484, 0x7b04_bc27_1607_6fef),
        ("grid6x6", 1303, 11492, 0xd605_8cec_781d_eb0d),
        ("fattree4", 7, 12834, 0x8076_b86c_548d_a4ae),
        ("fattree4", 1303, 12644, 0x4293_166c_f6a2_6a3a),
        ("waxman60", 7, 25565, 0x1735_59c2_9062_07c7),
        ("waxman60", 1303, 12433, 0x8503_7b7e_5521_4fe9),
    ];
    let graphs = topologies();
    for (name, seed, len, digest) in pinned {
        let graph = &graphs
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a topology")
            .1;
        let fingerprint = chaos_fingerprint(graph, seed);
        assert_pinned(
            &format!("chaos {name} seed {seed}"),
            fingerprint.as_bytes(),
            len,
            digest,
        );
    }
}

/// Runs the congested data-plane scenario: finite links, bounded queues,
/// the given workload, and a mid-run corruption, drained to empty.
/// Returns the fingerprint and the number of events processed.
fn traffic_fingerprint(seed: u64, spec: &WorkloadSpec) -> (String, u64) {
    let graph = generators::grid(8, 8, 1);
    let dest = v(0);
    let victim = v(27);
    let duration = 60.0;
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .initial_state(InitialState::Legitimate)
        .engine_config(
            EngineConfig::default()
                .with_seed(seed)
                .with_congestion(CongestionConfig::limited(64.0, 12)),
        )
        .build();
    sim.run_to_quiescence(100_000.0);
    let t0 = sim.now().seconds();
    let mut workload = WorkloadDriver::new(spec, &graph, &[dest], t0, duration, seed);
    workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
    sim.run_until(t0 + duration / 2.0);
    sim.corrupt_distance(victim, Distance::ZERO);
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    loop {
        let drained = !sim.engine().any_enabled_non_maintenance()
            && sim.engine().inflight_messages() == 0
            && sim.engine().packets_in_flight() == 0;
        if drained {
            break;
        }
        let next = sim
            .engine()
            .next_event_time()
            .map_or(sim.now(), |t: SimTime| t);
        sim.run_until(next.seconds() + 50.0);
    }
    let fingerprint = format!(
        "now={:?} traffic={:?} stats={:?} table={:?}",
        sim.now(),
        sim.stats().traffic,
        sim.stats(),
        sim.route_table()
    );
    (fingerprint, sim.stats().total_events())
}

#[test]
fn congested_traffic_trajectories_are_pinned() {
    // One probe per packet (160 packets/s offered to a destination whose
    // two links carry 128) makes the second run long enough for the
    // calendar queue to pass many density epochs (4096 pops at the
    // least), so the pin covers retunes and bucket-count changes, not
    // only the geometry a queue starts with.
    let aggregated = WorkloadSpec::default();
    let per_packet = WorkloadSpec {
        mode: TrafficMode::Exact,
        rate: 2.5,
        ..aggregated
    };
    for (seed, spec, at_least, len, digest) in [
        (3, &aggregated, 0, 4880, 0xbfaf_afd0_c1c7_6582),
        (91, &per_packet, 100_000, 4905, 0xeabe_ca42_9792_a882),
    ] {
        let (fingerprint, events) = traffic_fingerprint(seed, spec);
        assert!(events >= at_least, "seed {seed}: only {events} events");
        assert_pinned(
            &format!("traffic seed {seed}"),
            fingerprint.as_bytes(),
            len,
            digest,
        );
    }
}
