//! E6 (Theorem 2 / Lemma 1): stabilization time and contamination range
//! scale with the perturbation size, not the network size.
//!
//! The E6, E10 and E16 tables themselves are `scenarios/e6_scaling.toml`
//! and friends, run by `experiments` and `lsrp run` through the campaign
//! compiler; what lives here is the one cell E11's experiment shares with
//! them, and the tests that hold the checked-in files to the hand-coded
//! loops they replaced.

use lsrp_analysis::RecoveryMetrics;
use lsrp_scenario::cells::{recovery_cell, EngineModel, Protocol, RecoveryCellSpec, RegionFault};

/// Runs one (protocol, grid width, perturbation size) cell: a contiguous
/// region near the destination corner is corrupted small (worst case) with
/// poisoned neighborhood mirrors.
pub fn scaling_cell(protocol: Protocol, width: u32, p: usize, seed: u64) -> RecoveryMetrics {
    recovery_cell(&RecoveryCellSpec {
        protocol,
        width,
        p,
        seed,
        fault: RegionFault::CorruptPlan,
        model: EngineModel::Ideal,
    })
}

/// How the tests of this crate drive a checked-in scenario file: parse
/// it, narrow it to a test-sized sweep, run it through the campaign
/// compiler on `jobs` workers.
#[cfg(test)]
pub(crate) mod corpus {
    use lsrp_analysis::Table;
    use lsrp_scenario::schema::{HijackScenario, RecoveryScenario, ScenarioBody, SweepValue};
    use lsrp_scenario::{load_str, run_scenario, ExecOptions};

    pub(crate) fn ints<T: Copy + TryInto<i64>>(values: &[T]) -> Vec<SweepValue> {
        let int = |v: T| v.try_into().ok().expect("axis value fits i64");
        values.iter().map(|&v| SweepValue::Int(int(v))).collect()
    }

    fn run(src: &str, jobs: usize, narrow: impl FnOnce(&mut ScenarioBody)) -> Table {
        let mut s = load_str(src).expect("checked-in scenario file parses");
        narrow(&mut s.body);
        run_scenario(&s, ExecOptions::sharded(jobs))
            .expect("checked-in scenario runs")
            .into_table()
    }

    pub(crate) fn recovery(
        src: &str,
        jobs: usize,
        narrow: impl FnOnce(&mut RecoveryScenario),
    ) -> Table {
        run(src, jobs, |body| match body {
            ScenarioBody::Recovery(r) => narrow(r),
            _ => panic!("not a recovery scenario"),
        })
    }

    pub(crate) fn hijack(
        src: &str,
        jobs: usize,
        narrow: impl FnOnce(&mut HijackScenario),
    ) -> Table {
        run(src, jobs, |body| match body {
            ScenarioBody::Hijack(h) => narrow(h),
            _ => panic!("not a hijack scenario"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::corpus::{ints, recovery};
    use super::*;
    use lsrp_analysis::{measure_recovery, table::fmt_f64, Table};
    use lsrp_faults::corruption::contiguous_region;
    use lsrp_graph::{generators, Distance, NodeId};
    use lsrp_scenario::cells::ALL_PROTOCOLS;
    use lsrp_scenario::schema::SweepValue;
    use lsrp_scenario::DestinationsSpec;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn e6_scaling(widths: &[u32], sizes: &[usize]) -> Table {
        let src = include_str!("../../../scenarios/e6_scaling.toml");
        recovery(src, 2, |r| {
            r.sweep.set_axis("width", ints(widths));
            r.sweep.set_axis("p", ints(sizes));
        })
    }

    /// E6 on the dense multi-destination plane; `dests` of `None` means
    /// all-pairs (one tree per node).
    fn e6_scaling_multi(widths: &[u32], sizes: &[usize], dests: Option<u32>, jobs: usize) -> Table {
        let src = include_str!("../../../scenarios/e6_multi.toml");
        recovery(src, jobs, |r| {
            r.destinations =
                Some(dests.map_or(DestinationsSpec::AllPairs, DestinationsSpec::Count));
            r.sweep.set_axis("width", ints(widths));
            r.sweep.set_axis("p", ints(sizes));
        })
    }

    #[test]
    fn sharded_e6_sweep_is_reproducible() {
        // The sweep fans out over worker threads; the rendered table must
        // not depend on scheduling.
        let a = e6_scaling(&[6], &[1]).to_string();
        let b = e6_scaling(&[6], &[1]).to_string();
        assert_eq!(a, b);
        assert!(a.contains("LSRP"));
    }

    #[test]
    fn scenario_e6_is_byte_identical_to_the_legacy_loop() {
        // The hand-coded serial loop the scenario file replaced, inlined
        // verbatim: titles, headers, nesting order and formats.
        let widths = [6u32];
        let sizes = [1usize, 2];
        let mut t = Table::new(
            "E6 — Theorem 2: stabilization scales with perturbation size, not network size",
            &[
                "protocol",
                "n (grid)",
                "perturbation p",
                "stabilization time",
                "contamination range",
                "contaminated nodes",
                "messages",
            ],
        );
        for &protocol in &ALL_PROTOCOLS {
            for &w in &widths {
                for &p in &sizes {
                    let m = scaling_cell(protocol, w, p, 42 + u64::from(w));
                    assert!(m.quiescent && m.routes_correct, "{protocol:?} w={w} p={p}");
                    t.row(&[
                        m.protocol.to_string(),
                        format!("{}", w * w),
                        p.to_string(),
                        fmt_f64(m.stabilization_time),
                        m.contamination_range.to_string(),
                        m.contaminated.len().to_string(),
                        m.messages.to_string(),
                    ]);
                }
            }
        }
        assert_eq!(t.to_string(), e6_scaling(&widths, &sizes).to_string());
    }

    #[test]
    fn sharded_multi_e6_sweep_is_byte_identical_to_serial() {
        let serial = e6_scaling_multi(&[4], &[1, 2], Some(3), 1).to_string();
        for jobs in [2, 5] {
            let sharded = e6_scaling_multi(&[4], &[1, 2], Some(3), jobs).to_string();
            assert_eq!(serial, sharded, "jobs={jobs}");
        }
        assert!(serial.contains("destinations 3"), "{serial}");
    }

    #[test]
    fn multi_e6_all_pairs_runs_one_tree_per_node() {
        let t = e6_scaling_multi(&[3], &[1], None, 2).to_string();
        assert!(t.contains("all-pairs"), "{t}");
        // 3x3 grid, all-pairs: 9 destination trees.
        assert!(t.contains("| 9"), "{t}");
    }

    #[test]
    fn lsrp_containment_is_local_and_dbf_is_not() {
        // Deterministic worst case: both region nodes black-hole to 0 with
        // poisoned neighborhood (the random corruption draws of
        // `scaling_cell` can land on mild large/∞ values).
        let cell = |protocol| {
            let graph = generators::grid(10, 10, 1);
            let dest = v(0);
            let region = contiguous_region(&graph, v(11), 2, dest);
            let mut sim = lsrp_scenario::cells::build(protocol, graph.clone(), dest, None, 1);
            measure_recovery(sim.as_mut(), &region, crate::HORIZON, |s| {
                for &node in &region {
                    s.corrupt_distance(node, Distance::ZERO);
                    let ns: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
                    for k in ns {
                        s.poison_mirror(k, node, Distance::ZERO);
                    }
                }
            })
        };
        let lsrp = cell(Protocol::Lsrp);
        let dbf = cell(Protocol::Dbf);
        assert!(lsrp.routes_correct && dbf.routes_correct);
        assert!(
            lsrp.contaminated.len() * 4 < dbf.contaminated.len(),
            "LSRP {} vs DBF {} contaminated",
            lsrp.contaminated.len(),
            dbf.contaminated.len()
        );
        assert!(lsrp.contamination_range < dbf.contamination_range);
    }

    #[test]
    fn lsrp_time_is_independent_of_network_size() {
        let small = scaling_cell(Protocol::Lsrp, 8, 2, 2);
        let large = scaling_cell(Protocol::Lsrp, 16, 2, 2);
        assert!(
            large.stabilization_time <= small.stabilization_time * 2.0 + 30.0,
            "LSRP should not scale with n: {} -> {}",
            small.stabilization_time,
            large.stabilization_time
        );
    }

    #[test]
    fn recurring_faults_stay_contained() {
        let src = include_str!("../../../scenarios/e10_continuous.toml");
        let period = vec![SweepValue::Float(120.0)];
        let t = recovery(src, 2, |r| r.sweep.set_axis("period", period));
        assert_eq!(t.len(), 1);
        assert!(t.to_string().contains("true"));
    }
}
