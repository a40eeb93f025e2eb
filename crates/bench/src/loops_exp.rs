//! E8 (Theorem 3) and E9 (Theorem 4 / Corollary 3): loop freedom during
//! stabilization and constant-time breakage of corrupted-in loops.

use lsrp_analysis::loops::inject_and_measure;
use lsrp_analysis::{measure_loop_breakage, table::fmt_f64, RoutingSimulation, Table};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_faults::{CorruptionKind, FaultPlan};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_scenario::cells::{build, Protocol, ALL_PROTOCOLS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::HORIZON;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One E8 run: random distance/ghost corruption of a legitimate state on a
/// random graph, stepped event-by-event while watching for routing loops.
/// Returns (loop episodes, longest episode seconds).
pub fn loop_watch_run(protocol: Protocol, n: u32, seed: u64) -> (u32, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::connected_erdos_renyi(n, 0.1, 3, &mut rng);
    let dest = v(0);
    let mut sim: Box<dyn RoutingSimulation> = match protocol {
        Protocol::Lsrp => {
            // Strict loop freedom configuration (DESIGN.md §5).
            let timing = TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0);
            Box::new(
                LsrpSimulation::builder(graph.clone(), dest)
                    .timing(timing)
                    .initial_state(InitialState::Legitimate)
                    .seed(seed)
                    .build(),
            )
        }
        _ => build(protocol, graph.clone(), dest, None, seed),
    };
    // Corrupt half the nodes' distances; poison neighborhood mirrors.
    let max_d = u64::from(n) * 2;
    for node in graph.nodes().filter(|&x| x != dest) {
        if rng.gen_bool(0.5) {
            let d = if rng.gen_bool(0.1) {
                Distance::Infinite
            } else {
                Distance::Finite(rng.gen_range(0..max_d))
            };
            let mut kind = CorruptionKind::Distance(d);
            if d.is_infinite() {
                // Keep the protocol's d = ∞ ⟹ p = self invariant: a
                // dangling parent on a routeless node is parent
                // corruption, which E15 covers separately.
                sim.corrupt(node, &kind);
                kind = CorruptionKind::Route { d, p: node };
            }
            let plan = FaultPlan::forged_routes(&graph, [(node, kind)], |n| sim.advert(n));
            sim.apply_plan(&plan).expect("corruptions always apply");
        }
    }
    let b = measure_loop_breakage(sim.as_mut(), HORIZON);
    assert!(
        b.converged,
        "{protocol:?} n={n} seed={seed} did not converge"
    );
    (b.episodes, b.longest_episode)
}

/// E8 table: loop episodes during stabilization across many random
/// corruptions.
pub fn e8_loop_freedom(n: u32, runs: u64) -> Table {
    let mut t = Table::new(
        "E8 — Theorem 3: routing-loop episodes while recovering from distance corruption",
        &[
            "protocol",
            "runs",
            "runs with any loop",
            "total episodes",
            "longest episode",
        ],
    );
    for protocol in ALL_PROTOCOLS {
        let mut with_loop = 0u64;
        let mut episodes = 0u64;
        let mut longest: f64 = 0.0;
        for s in 0..runs {
            let (e, l) = loop_watch_run(protocol, n, 300 + s);
            if e > 0 {
                with_loop += 1;
            }
            episodes += u64::from(e);
            longest = longest.max(l);
        }
        t.row(&[
            format!("{protocol:?}"),
            runs.to_string(),
            with_loop.to_string(),
            episodes.to_string(),
            fmt_f64(longest),
        ]);
    }
    t
}

/// One E9 run: inject a loop of length `loop_len` on a lollipop topology
/// and measure how long it survives.
///
/// The injected distances start at 1 — *attractive* values, the hard case:
/// plain distance-vector must count up past the true route (whose length
/// grows with `L`) before the loop dissolves, and DUAL must walk a
/// diffusing computation around it; LSRP breaks it by containment in
/// constant time.
pub fn loop_breakage_run(protocol: Protocol, loop_len: u32, seed: u64) -> f64 {
    let graph = generators::lollipop(2, loop_len, 1);
    let mut ring = generators::lollipop_ring(2, loop_len);
    // Rotate so the assignment's seam — the one node whose value is
    // locally inconsistent, holding the minimal (= feasible-distance)
    // value — lands on the attachment node. Its fd of 1 blocks the escape
    // through the tail under DUAL's feasibility check, forcing the
    // diffusing computation to walk the whole ring.
    ring.rotate_left(1);
    let mut sim = build(protocol, graph, v(0), None, seed);
    let b = inject_and_measure(sim.as_mut(), &ring, 1, HORIZON);
    assert!(
        b.loop_injected,
        "{protocol:?} L={loop_len}: no loop injected"
    );
    b.broken_after.unwrap_or(f64::INFINITY)
}

/// E9 table: loop breakage time vs loop length.
pub fn e9_loop_breakage(lengths: &[u32]) -> Table {
    let mut t = Table::new(
        "E9 — Theorem 4 / Corollary 3: time to break a corrupted-in loop of length L",
        &["protocol", "L", "breakage time", "O(hd_S + d) bound"],
    );
    for protocol in ALL_PROTOCOLS {
        for &l in lengths {
            let time = loop_breakage_run(protocol, l, 77);
            let bound = if protocol == Protocol::Lsrp {
                fmt_f64(17.0 + 1.0)
            } else {
                "-".to_string()
            };
            t.row(&[format!("{protocol:?}"), l.to_string(), fmt_f64(time), bound]);
        }
    }
    t
}

/// One adversarial-corruption run for the `hd_c2` ablation: random
/// distances *and parent pointers* corrupted across half the nodes
/// (loop-free initially, consistent mirrors), stepped with per-event loop
/// checks. Returns (episodes, longest episode).
pub fn adversarial_run(n: u32, seed: u64, strict: bool) -> (u32, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::connected_erdos_renyi(n, 0.1, 3, &mut rng);
    let dest = v(0);
    let mut table = lsrp_graph::RouteTable::legitimate(&graph, dest);
    for node in graph.nodes() {
        if rng.gen_bool(0.5) {
            let neighbors: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
            let p = neighbors[rng.gen_range(0..neighbors.len())];
            let d = if rng.gen_bool(0.1) {
                Distance::Infinite
            } else {
                Distance::Finite(rng.gen_range(0..2 * u64::from(n)))
            };
            table.insert(node, lsrp_graph::RouteEntry::new(d, p));
        }
    }
    for cycle in table.find_routing_loops(dest) {
        let fix = *cycle.iter().next().unwrap();
        let d = table.entry(fix).unwrap().distance;
        table.insert(fix, lsrp_graph::RouteEntry::new(d, fix));
    }
    let timing = if strict {
        TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0)
    } else {
        TimingConfig::paper_example(1.0) // hd_c2 = 0, paper-literal
    };
    let mut sim = LsrpSimulation::builder(graph, dest)
        .initial_state(InitialState::Table(table))
        .timing(timing)
        .seed(seed)
        .build();
    let b = measure_loop_breakage(&mut sim as &mut dyn RoutingSimulation, HORIZON);
    assert!(b.converged, "seed {seed} strict={strict} did not converge");
    (b.episodes, b.longest_episode)
}

/// E15 (ablation, DESIGN.md §5): loop incidence under adversarial
/// parent-pointer corruption with the paper-literal zero `C2` hold versus
/// the strict-loop-freedom hold `hd_c2 > rho * d_max`.
pub fn e15_c2_ablation(n: u32, runs: u64) -> Table {
    let mut t = Table::new(
        "E15 — ablation: C2 hold (hd_c2) vs transient loops under adversarial parent corruption",
        &[
            "configuration",
            "runs",
            "runs with any loop",
            "total episodes",
            "longest episode",
        ],
    );
    for (label, strict) in [
        ("paper-literal (hd_c2 = 0)", false),
        ("strict (hd_c2 = 1.25)", true),
    ] {
        let mut with_loop = 0u64;
        let mut episodes = 0u64;
        let mut longest: f64 = 0.0;
        for s in 0..runs {
            let (e, l) = adversarial_run(n, 40_000 + s, strict);
            if e > 0 {
                with_loop += 1;
            }
            episodes += u64::from(e);
            longest = longest.max(l);
        }
        t.row(&[
            label.to_string(),
            runs.to_string(),
            with_loop.to_string(),
            episodes.to_string(),
            fmt_f64(longest),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsrp_has_no_loop_episodes() {
        for s in 0..3 {
            let (episodes, _) = loop_watch_run(Protocol::Lsrp, 12, 500 + s);
            assert_eq!(episodes, 0, "seed {s}");
        }
    }

    #[test]
    fn lsrp_breakage_is_constant_dual_grows() {
        let l_small = loop_breakage_run(Protocol::Lsrp, 4, 1);
        let l_large = loop_breakage_run(Protocol::Lsrp, 16, 1);
        assert!(
            l_small <= 18.001 && l_large <= 18.001,
            "{l_small} {l_large}"
        );
        // The paper's claim targets the loop-free DV protocols: DUAL's
        // diffusing computation walks the loop, so breakage grows with L.
        let d_small = loop_breakage_run(Protocol::Dual, 4, 1);
        let d_large = loop_breakage_run(Protocol::Dual, 16, 1);
        assert!(
            d_large > d_small * 1.5,
            "DUAL breakage should grow with L: {d_small} -> {d_large}"
        );
    }
}
