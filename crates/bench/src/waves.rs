//! E12 (§VI-B): the effect of the `hd_S / hd_C` ratio on containment
//! tightness.
//!
//! Larger ratios contain mistakenly initiated *stabilization* waves more
//! tightly (the containment wave catches up sooner); smaller ratios
//! contain mistakenly initiated *containment* waves more tightly (the
//! super-containment wave is released — by a stabilization-wave execution
//! — sooner relative to the containment wave's spread).

use std::collections::BTreeSet;

use lsrp_analysis::{measure_recovery, table::fmt_f64, Table};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_faults::{CorruptionKind, FaultPlan};
use lsrp_graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
use lsrp_graph::{generators, Distance, NodeId};

use crate::HORIZON;

/// Timing with `hd_S = ratio * hd_C` (paper example uses ~2.1).
fn timing_with_ratio(ratio: f64) -> TimingConfig {
    let base = TimingConfig::paper_example(1.0);
    base.with_hd_s(ratio * base.hd_c)
}

/// The Figure-6 scenario (mistaken containment wave) under a given
/// `hd_S/hd_C` ratio: returns (ghosted nodes, contamination range,
/// stabilization time).
pub fn mistaken_containment_run(ratio: f64) -> (usize, usize, f64) {
    let mut sim = LsrpSimulation::builder(paper_fig1(), FIG1_DESTINATION)
        .initial_state(InitialState::Table(fig1_route_table()))
        .timing(timing_with_ratio(ratio))
        .build();
    let perturbed = BTreeSet::from([v(11)]);
    sim.engine_mut().reset_trace();
    let t0 = sim.now();
    sim.corrupt_distance(v(11), Distance::Finite(2));
    sim.poison_mirror(v(13), v(11), Distance::Finite(2));
    let report = sim.run_to_quiescence(HORIZON);
    assert!(report.quiescent && sim.routes_correct());
    let ghosted: BTreeSet<NodeId> = sim
        .engine()
        .trace()
        .actions
        .iter()
        .filter(|r| r.name == "C1" && r.time >= t0)
        .map(|r| r.node)
        .collect();
    let acted = sim.engine().trace().acted_nodes_since(t0);
    let contaminated = lsrp_graph::contamination::contaminated_nodes(&perturbed, &acted);
    let range =
        lsrp_graph::contamination::range_of_contamination(sim.graph(), &perturbed, &contaminated);
    let stab = sim
        .engine()
        .trace()
        .last_var_change_since(t0)
        .map_or(0.0, |t| t - t0);
    (ghosted.len(), range, stab)
}

/// A mistaken *stabilization* wave under a given ratio: a region of three
/// consecutive path nodes is corrupted small (so repairing the region takes
/// several containment rounds, giving the stabilization wave a head start
/// proportional to `hd_C / hd_S`). Returns how far the corrupted values
/// propagated and the stabilization time.
pub fn mistaken_stabilization_run(ratio: f64) -> (usize, f64) {
    let graph = generators::path(24, 1);
    let dest = NodeId::new(0);
    let mut sim = LsrpSimulation::builder(graph, dest)
        .timing(timing_with_ratio(ratio))
        .build();
    let region: Vec<NodeId> = (2..5).map(NodeId::new).collect();
    let perturbed: BTreeSet<NodeId> = region.iter().copied().collect();
    let m = measure_recovery(&mut sim, &perturbed, HORIZON, |s: &mut LsrpSimulation| {
        for &node in &region {
            let small = [(node, CorruptionKind::Distance(Distance::ZERO))];
            let plan = FaultPlan::forged_routes(s.graph(), small, |n| s.advert(n));
            plan.apply(s).expect("corruptions always apply");
        }
    });
    assert!(m.quiescent && m.routes_correct);
    (m.contamination_range, m.stabilization_time)
}

/// E12 table: sweep the ratio over both scenarios.
pub fn e12_wave_ratio(ratios: &[f64]) -> Table {
    let mut t = Table::new(
        "E12 — §VI-B: effect of the hd_S/hd_C ratio on containment tightness",
        &[
            "hd_S/hd_C",
            "mistaken S-wave: range",
            "mistaken S-wave: stab. time",
            "mistaken C-wave: ghosted nodes",
            "mistaken C-wave: range",
            "mistaken C-wave: stab. time",
        ],
    );
    for &r in ratios {
        let (s_range, s_time) = mistaken_stabilization_run(r);
        let (ghosted, c_range, c_time) = mistaken_containment_run(r);
        t.row(&[
            fmt_f64(r),
            s_range.to_string(),
            fmt_f64(s_time),
            ghosted.to_string(),
            c_range.to_string(),
            fmt_f64(c_time),
        ]);
    }
    t
}

/// E17 — the Lemma-1 proof quantity `d_cw`: how deep a mistakenly
/// initiated containment wave travels before the super-containment wave
/// catches it, as a function of the perturbation size.
///
/// Scenario (the appendix's Figure-8 setting on a path): a region of `p`
/// consecutive nodes is corrupted *large*, so the first healthy node below
/// the region sees no justification, declares itself a source, and a
/// containment wave spreads down the healthy path at one hop per
/// `~hd_C + u` while the stabilization wave repairs the region at one hop
/// per `~hd_S` — the wave is caught after `O(p · hd_S / hd_C)` hops.
pub fn containment_depth_run(p: usize) -> (usize, usize, f64) {
    let graph = generators::path(64, 1);
    let dest = NodeId::new(0);
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .timing(TimingConfig::paper_example(1.0))
        .build();
    // Corrupt nodes 2 .. 2+p to a huge value, neighborhood poisoned.
    for i in 0..p {
        let huge = [(
            NodeId::new(2 + i as u32),
            CorruptionKind::Distance(Distance::Finite(1_000)),
        )];
        let plan = FaultPlan::forged_routes(&graph, huge, |n| sim.advert(n));
        plan.apply(&mut sim).expect("corruptions always apply");
    }
    let episodes = lsrp_analysis::track_containment(
        &mut sim as &mut dyn lsrp_analysis::RoutingSimulation,
        HORIZON,
        1_000.0,
    );
    assert!(sim.routes_correct(), "p={p} did not recover");
    let s = lsrp_analysis::wave_stats(&episodes);
    (s.max_depth, s.max_members, s.max_duration)
}

/// E17 table: containment-tree depth vs perturbation size.
pub fn e17_containment_depth(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E17 — Lemma 1's d_cw: containment-wave travel before capture (path of 64, corrupted-large region)",
        &[
            "perturbation p",
            "max containment depth (d_cw)",
            "max tree size",
            "longest episode",
        ],
    );
    for &p in sizes {
        let (depth, members, duration) = containment_depth_run(p);
        t.row(&[
            p.to_string(),
            depth.to_string(),
            members.to_string(),
            fmt_f64(duration),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_depth_grows_with_p_but_stays_local() {
        let (d1, _, _) = containment_depth_run(2);
        let (d2, _, _) = containment_depth_run(8);
        assert!(d2 >= d1, "depth should not shrink with p: {d1} -> {d2}");
        assert!(d2 < 40, "wave must be caught well before the path ends");
    }

    #[test]
    fn paper_ratio_reproduces_fig6() {
        let (ghosted, range, _) = mistaken_containment_run(2.125); // 17/8
        assert_eq!(ghosted, 2, "v13 and v9 ghost");
        assert_eq!(range, 2);
    }

    #[test]
    fn larger_ratio_does_not_worsen_stabilization_containment() {
        let (r_small, _) = mistaken_stabilization_run(1.5);
        let (r_large, _) = mistaken_stabilization_run(4.0);
        assert!(r_large <= r_small.max(1), "{r_small} -> {r_large}");
    }
}
