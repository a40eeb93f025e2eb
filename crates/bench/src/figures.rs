//! E1–E4: the paper's worked figures as measured scenarios.

use std::collections::BTreeSet;

use lsrp_analysis::{measure_recovery, table::fmt_f64, timeline, RoutingSimulation, Table};
use lsrp_core::LsrpSimulationExt;
use lsrp_faults::{CorruptionKind, FaultPlan};
use lsrp_graph::concepts::{Perturbation, TopologyChange};
use lsrp_graph::topologies::{
    fig1_route_table, fig7_dense, fig7_route_table, fig7_sparse, paper_fig1, v, FIG1_DESTINATION,
    FIG7_CUT, FIG7_DESTINATION,
};
use lsrp_graph::Distance;
use lsrp_scenario::cells::{build, paper_timing, Protocol, ALL_PROTOCOLS};

use crate::HORIZON;

/// The Figure 2 / Figure 5 fault: `d.v9 := 1` with `v7`, `v8` having
/// learned the corrupted value.
fn corrupt_v9(sim: &mut dyn RoutingSimulation) {
    sim.corrupt_distance(v(9), Distance::Finite(1));
    sim.poison_mirror(v(7), v(9), Distance::Finite(1));
    sim.poison_mirror(v(8), v(9), Distance::Finite(1));
}

fn fig1_recovery(protocol: Protocol) -> (lsrp_analysis::RecoveryMetrics, String) {
    let mut sim = build(
        protocol,
        paper_fig1(),
        FIG1_DESTINATION,
        Some(fig1_route_table()),
        7,
    );
    let perturbed = BTreeSet::from([v(9)]);
    #[allow(clippy::redundant_closure)]
    let m = measure_recovery(sim.as_mut(), &perturbed, HORIZON, |s| corrupt_v9(s));
    let tl = timeline::render_timeline(sim.trace());
    (m, tl)
}

/// E1 + E2 (Figures 2 and 5): the same single-node corruption under DBF
/// (global propagation) and LSRP (ideal containment), plus DUAL.
pub fn e1_e2_fig2_vs_fig5() -> (Table, Vec<(String, String)>) {
    let mut t = Table::new(
        "E1/E2 — Figure 2 vs Figure 5: d.v9 := 1 on the Figure-1 network (perturbation size 1)",
        &[
            "protocol",
            "stabilization time",
            "contaminated nodes",
            "range",
            "actions",
            "messages",
            "routes correct",
        ],
    );
    let mut timelines = Vec::new();
    for p in ALL_PROTOCOLS {
        let (m, tl) = fig1_recovery(p);
        let contaminated = m
            .contaminated
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        t.row(&[
            m.protocol.to_string(),
            fmt_f64(m.stabilization_time),
            if contaminated.is_empty() {
                "(none)".to_string()
            } else {
                contaminated
            },
            m.contamination_range.to_string(),
            m.actions.to_string(),
            m.messages.to_string(),
            m.routes_correct.to_string(),
        ]);
        timelines.push((format!("{} timeline (d.v9 := 1)", m.protocol), tl));
    }
    (t, timelines)
}

/// E3 (Figure 6): the mistaken containment wave chased down by the
/// super-containment wave after `d.v11 := 2`.
pub fn e3_fig6() -> (Table, String) {
    let mut sim = build(
        Protocol::Lsrp,
        paper_fig1(),
        FIG1_DESTINATION,
        Some(fig1_route_table()),
        7,
    );
    let perturbed = BTreeSet::from([v(11)]);
    let m = measure_recovery(sim.as_mut(), &perturbed, HORIZON, |s| {
        s.corrupt_distance(v(11), Distance::Finite(2));
        s.poison_mirror(v(13), v(11), Distance::Finite(2));
    });
    let mut t = Table::new(
        "E3 — Figure 6: d.v11 := 2, mistaken containment at v13 super-contained",
        &["metric", "value", "paper"],
    );
    t.row(&[
        "acting nodes".to_string(),
        format!(
            "{} + perturbed v11",
            m.contaminated
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ),
        "v13, v9 (+ v11)".to_string(),
    ]);
    t.row(&[
        "range of contamination".to_string(),
        m.contamination_range.to_string(),
        "2 hops".to_string(),
    ]);
    t.row(&[
        "stabilization time".to_string(),
        fmt_f64(m.stabilization_time),
        "2hd_C + 3u + 2hd_SC = 21".to_string(),
    ]);
    t.row(&[
        "settle time".to_string(),
        fmt_f64(m.settle_time),
        "2hd_C + 4u + 2hd_SC = 22".to_string(),
    ]);
    t.row(&[
        "routes correct".to_string(),
        m.routes_correct.to_string(),
        "yes".to_string(),
    ]);
    (t, timeline::render_timeline(sim.trace()))
}

/// E4 (Figure 7 / Proposition 1): higher edge density reduces perturbation
/// size and range of contamination.
pub fn e4_fig7() -> Table {
    let mut t = Table::new(
        "E4 — Figure 7 / Proposition 1: sparse vs dense (one extra edge)",
        &[
            "variant",
            "fail-stop of c: perturbation size",
            "corrupt d.c := true+1: contamination range",
            "stabilization time",
        ],
    );
    for (label, graph) in [("sparse", fig7_sparse()), ("dense (+1 edge)", fig7_dense())] {
        // Perturbation size of the fail-stop, per Definition 1.
        let plan = FaultPlan::new().with(lsrp_faults::Fault::FailNode(FIG7_CUT));
        let p = plan
            .perturbation(&graph, FIG7_DESTINATION, &fig7_route_table())
            .expect("valid fail-stop");

        // Contamination of the corrupted-large scenario under LSRP. The
        // paper says the sparse range "can be 3": that worst case needs
        // the mistaken containment wave to out-run the repair long enough,
        // i.e. a larger hd_S/hd_C ratio than the worked-example timing
        // (with hd_S = 17 the super-containment catches it at depth 2).
        let slow_repair = {
            let base = paper_timing();
            base.with_hd_s(4.0 * base.hd_c)
        };
        let mut sim: Box<dyn RoutingSimulation> = Box::new(
            lsrp_core::LsrpSimulation::builder(graph.clone(), FIG7_DESTINATION)
                .initial_state(lsrp_core::InitialState::Table(fig7_route_table()))
                .timing(slow_repair)
                .seed(11)
                .build(),
        );
        let perturbed = BTreeSet::from([FIG7_CUT]);
        let m = measure_recovery(sim.as_mut(), &perturbed, HORIZON, |s| {
            // True distance of c is 3; corrupt one larger, everyone learns.
            let larger = [(FIG7_CUT, CorruptionKind::Distance(Distance::Finite(4)))];
            let plan = FaultPlan::forged_routes(s.graph(), larger, |n| s.advert(n));
            s.apply_plan(&plan).expect("corruptions always apply");
        });
        assert!(m.routes_correct, "fig7 {label} must recover");
        t.row(&[
            label.to_string(),
            p.size().to_string(),
            m.contamination_range.to_string(),
            fmt_f64(m.stabilization_time),
        ]);
    }
    t
}

/// The dependent-set examples of §III-A on the Figure-1 network (the
/// perturbation-size table).
pub fn e4b_dependent_sets() -> Table {
    let g = paper_fig1();
    let table = fig1_route_table();
    let mut t = Table::new(
        "§III-A — perturbation sizes on the Figure-1 network",
        &["fault", "perturbed set", "size", "paper"],
    );
    let show = |p: &Perturbation| {
        p.perturbed_nodes()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let cases: Vec<(&str, Perturbation, &str)> = vec![
        (
            "corrupt v9's state",
            Perturbation::corruption([v(9)]),
            "{v9}, size 1",
        ),
        (
            "fail-stop v9",
            {
                let mut after = g.clone();
                after.remove_node(v(9)).expect("v9 exists");
                Perturbation::topology(
                    &TopologyChange::new(g.clone(), after),
                    FIG1_DESTINATION,
                    &table,
                )
            },
            "{v7, v8, v10}, size 3",
        ),
        (
            "join edge (v2, v9)",
            {
                let mut after = g.clone();
                after.add_edge(v(2), v(9), 1).expect("edge is new");
                Perturbation::topology(&TopologyChange::new(g, after), FIG1_DESTINATION, &table)
            },
            "{v9, v7, v8, v6, v1, v10, v3}, size 7",
        ),
    ];
    for (name, p, paper) in cases {
        t.row(&[
            name.to_string(),
            show(&p),
            p.size().to_string(),
            paper.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_e2_shapes_hold() {
        let (t, timelines) = e1_e2_fig2_vs_fig5();
        assert_eq!(t.len(), ALL_PROTOCOLS.len());
        assert_eq!(timelines.len(), ALL_PROTOCOLS.len());
        let rendered = t.to_string();
        // LSRP contains ideally; DBF contaminates 6 nodes to range 2.
        assert!(rendered.contains("LSRP"));
        assert!(rendered.contains("(none)"));
    }

    #[test]
    fn e3_matches_paper_numbers() {
        let (t, tl) = e3_fig6();
        let s = t.to_string();
        assert!(s.contains("| 2 "), "range 2 expected: {s}");
        assert!(tl.contains("C1@8"));
        assert!(tl.contains("SC@21"));
    }

    #[test]
    fn e4_four_versus_three_and_three_versus_one() {
        let t = e4_fig7().to_string();
        assert!(t.contains("| 4 "), "sparse perturbation 4: {t}");
        assert!(
            t.contains("| 3 "),
            "dense perturbation 3 / sparse range 3: {t}"
        );
    }

    #[test]
    fn dependent_set_table_matches_paper() {
        let t = e4b_dependent_sets().to_string();
        assert!(t.contains("v7 v8 v10"));
        assert!(t.contains("size 7"));
    }
}
