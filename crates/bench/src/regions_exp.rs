//! Tests of E7 (Lemmas 2–3, Corollaries 1–2): multiple perturbed regions
//! stabilize independently when far apart; adjoining regions degrade
//! toward the sum of their sizes. The table is `scenarios/e7_regions.toml`,
//! one `lsrp_scenario::cells::region_case_cell` per row.

mod tests {
    use lsrp_analysis::RecoveryMetrics;
    use lsrp_graph::{generators, NodeId};
    use lsrp_scenario::cells::region_case_cell;

    use crate::build::Protocol;
    use crate::scaling::corpus::recovery;

    /// Corrupts one region of `size` nodes at each of `seeds` on a ring of
    /// `ring_len`, concurrently, and measures the joint recovery.
    fn multi_region_run(ring_len: u32, size: usize, seeds: &[u32], seed: u64) -> RecoveryMetrics {
        let graph = generators::ring(ring_len, 1);
        let regions: Vec<(NodeId, usize)> = seeds.iter().map(|&s| (NodeId::new(s), size)).collect();
        region_case_cell(Protocol::Lsrp, &graph, NodeId::new(0), &regions, seed)
    }

    #[test]
    fn far_regions_stabilize_like_one() {
        let one = multi_region_run(48, 3, &[12], 3);
        let two_far = multi_region_run(48, 3, &[12, 36], 3);
        assert!(one.routes_correct && two_far.routes_correct);
        // Independence: two far regions take about as long as one (within
        // a small factor), not twice as long.
        assert!(
            two_far.stabilization_time <= one.stabilization_time * 1.8 + 20.0,
            "one: {}, two far: {}",
            one.stabilization_time,
            two_far.stabilization_time
        );
    }

    #[test]
    fn table_renders_three_scenarios() {
        let src = include_str!("../../../scenarios/e7_regions.toml");
        let t = recovery(src, 2, |_| {});
        assert_eq!(t.len(), 3);
    }
}
