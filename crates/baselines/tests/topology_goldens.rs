//! Pinned baseline trajectories under topology change. DBF, DUAL-lite and
//! path-vector each run one fixed script on `grid:5x5` — an edge fails, a
//! new edge joins, a weight goes up and back down, a node fails and
//! rejoins — with `run_until` between steps. The log of every route delta
//! plus per-step event, message and action counts is pinned by length and
//! FNV-1a 64 digest, so a change to how a baseline reconciles its
//! neighbor set shows up here as a new `(length, digest)` pair.

use std::fmt::Write;

use lsrp_baselines::{
    BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
    PvSimulation,
};
use lsrp_graph::{generators, NodeId};
use lsrp_sim::{EngineConfig, HarnessProtocol, SimHarness};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// How long each step runs before the next topology change.
const STEP: f64 = 2_000.0;

/// Runs the script and returns its log: one line per route delta, one
/// summary line per step.
fn script<P: HarnessProtocol>(sim: &mut SimHarness<P>) -> String {
    type Step<P> = (&'static str, fn(&mut SimHarness<P>));
    let steps: [Step<P>; 7] = [
        ("start", |_| {}),
        ("fail_edge 0-1", |s| s.fail_edge(v(0), v(1)).unwrap()),
        ("join_edge 0-6", |s| s.join_edge(v(0), v(6), 1).unwrap()),
        ("set_weight 5-10 up", |s| {
            s.set_weight(v(5), v(10), 9).unwrap()
        }),
        ("set_weight 5-10 down", |s| {
            s.set_weight(v(5), v(10), 1).unwrap()
        }),
        ("fail_node 12", |s| s.fail_node(v(12)).unwrap()),
        ("join_node 12", |s| {
            s.join_node(v(12), &[(v(7), 1), (v(11), 2), (v(13), 1)])
                .unwrap();
        }),
    ];
    let mut log = String::new();
    let mut cursor = sim.route_cursor();
    for (name, apply) in steps {
        apply(sim);
        let until = sim.now().seconds() + STEP;
        let report = sim.run_until(until);
        for delta in sim.route_deltas_since(cursor) {
            writeln!(log, "{delta:?}").unwrap();
        }
        cursor = sim.route_cursor();
        let stats = sim.stats();
        writeln!(
            log,
            "{name}: events={} sent={} delivered={} actions={} last_effective={:?} quiescent={}",
            stats.total_events(),
            stats.messages_sent,
            stats.messages_delivered,
            sim.trace().total_actions(),
            report.last_effective,
            report.quiescent,
        )
        .unwrap();
    }
    log
}

fn assert_pinned(what: &str, log: &str, len: usize, digest: u64) {
    assert_eq!(
        (log.len(), fnv1a64(log.as_bytes())),
        (len, digest),
        "{what}: got (len {}, 0x{:016x})\n{log}",
        log.len(),
        fnv1a64(log.as_bytes())
    );
}

fn config() -> EngineConfig {
    EngineConfig::default().with_seed(11)
}

#[test]
fn dbf_under_topology_change() {
    let mut sim = DbfSimulation::new(
        generators::grid(5, 5, 1),
        v(0),
        None,
        DbfConfig::default(),
        config(),
    );
    assert_pinned("DBF", &script(&mut sim), 10145, 0x486d_c7bd_8d13_eac4);
}

#[test]
fn dual_under_topology_change() {
    let mut sim = DualSimulation::new(
        generators::grid(5, 5, 1),
        v(0),
        None,
        DualConfig::default(),
        config(),
    );
    assert_pinned("DUAL", &script(&mut sim), 11606, 0xd87a_ac1a_ea10_2a55);
}

#[test]
fn pv_under_topology_change() {
    let mut sim = PvSimulation::new(
        generators::grid(5, 5, 1),
        v(0),
        None,
        PvConfig::default(),
        config(),
    );
    assert_pinned("PV", &script(&mut sim), 10874, 0x59c6_2887_151d_485d);
}
