//! E19 (extension): full-routing-table recovery with multi-destination
//! LSRP — work scales with the number of affected destination trees, and
//! every action stays at the victim.

use lsrp_analysis::{table::fmt_f64, Table};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_multi::{MultiLsrpSimulation, MultiLsrpSimulationExt};

use crate::HORIZON;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One run: a grid with `dests` destination trees; the victim's entire
/// table is hijacked. Returns (actions, messages, stabilization time,
/// acting nodes).
pub fn full_table_run(w: u32, dests: usize, seed: u64) -> (u64, u64, f64, usize) {
    let graph = generators::grid(w, w, 1);
    let destinations: Vec<NodeId> = graph.nodes().take(dests).collect();
    let mut sim = MultiLsrpSimulation::builder(graph, destinations)
        .seed(seed)
        .build();
    let victim = v(w + 1);
    sim.engine_mut().reset_trace();
    let sent0 = sim.stats().messages_sent;
    let t0 = sim.now();
    sim.corrupt_all_instances(victim, |_| (Distance::ZERO, victim));
    let report = sim.run_to_quiescence(HORIZON);
    assert!(report.quiescent && sim.all_routes_correct());
    let trace = sim.engine().trace();
    let stab = trace
        .last_var_change_since(t0)
        .map_or(0.0, |t| t.seconds() - t0.seconds());
    let acting = trace.acted_nodes_since(t0).len();
    let sent = sim.stats().messages_sent - sent0;
    (trace.total_actions(), sent, stab, acting)
}

/// E19 table: sweep the number of destination trees.
pub fn e19_full_table(w: u32, dest_counts: &[usize]) -> Table {
    let mut t = Table::new(
        format!("E19 — multi-destination LSRP: hijack of one router's entire table (grid {w}x{w})"),
        &[
            "destination trees",
            "actions",
            "messages",
            "stabilization time",
            "acting nodes",
        ],
    );
    for &d in dest_counts {
        let (actions, messages, stab, acting) = full_table_run(w, d, 3);
        t.row(&[
            d.to_string(),
            actions.to_string(),
            messages.to_string(),
            fmt_f64(stab),
            acting.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_scales_with_trees_but_stays_at_the_victim() {
        let (a4, _, _, n4) = full_table_run(6, 4, 1);
        let (a16, _, _, n16) = full_table_run(6, 16, 1);
        assert!(
            a16 > a4 * 2,
            "actions should grow with trees: {a4} -> {a16}"
        );
        assert_eq!(n4, 1, "only the victim acts");
        assert_eq!(n16, 1, "only the victim acts");
    }
}
