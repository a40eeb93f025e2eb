//! Deterministic seed-sharded parallel execution.
//!
//! Campaigns (chaos testing, bench experiment sweeps) are embarrassingly
//! parallel: every run is a pure function of its seed. [`run_sharded`]
//! exploits that — tasks execute on a fixed-size worker pool and results
//! are merged back **in index order**, so the output is byte-identical to
//! the serial run regardless of worker count or scheduling. Parallelism
//! changes wall-clock time, never results.

use std::sync::mpsc::channel;
use std::sync::Arc;

use threadpool::ThreadPool;

/// Runs `task(0..count)` on `jobs` worker threads and returns the results
/// in index order.
///
/// With `jobs <= 1` the tasks run serially on the calling thread — no pool,
/// no channels — so the parallel path can always be compared against it.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn run_sharded<T: Send + 'static>(
    jobs: usize,
    count: usize,
    task: impl Fn(usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    if jobs <= 1 || count <= 1 {
        return (0..count).map(task).collect();
    }
    let pool = ThreadPool::new(jobs.min(count));
    let task = Arc::new(task);
    let (tx, rx) = channel();
    for i in 0..count {
        let task = Arc::clone(&task);
        let tx = tx.clone();
        pool.execute(move || {
            // A worker that panics drops its sender; the receive loop
            // below then comes up short and the pool's Drop re-raises.
            let result = task(i);
            let _ = tx.send((i, result));
        });
    }
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    pool.join();
    slots
        .into_iter()
        .map(|s| s.expect("every task sends exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_campaign, CampaignConfig, ChaosConfig, Target};
    use lsrp_graph::{generators, NodeId};

    #[test]
    fn sharded_results_arrive_in_index_order() {
        let serial = run_sharded(1, 17, |i| i * i);
        let parallel = run_sharded(4, 17, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(run_sharded(8, 2, |i| i), vec![0, 1]);
        assert_eq!(run_sharded(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_campaign_report_is_byte_identical_to_serial() {
        let g = generators::grid(3, 3, 1);
        let config = CampaignConfig::Chaos(ChaosConfig {
            process: lsrp_faults::FaultProcess {
                link_flaps: 1,
                node_churn: 1,
                partitions: 0,
                corruptions: 2,
                weight_drifts: 0,
                min_outage: 20.0,
                max_outage: 60.0,
            },
            fault_window: 300.0,
            ..ChaosConfig::default()
        });
        let campaign = |jobs| {
            let target = Target::Destination(NodeId::new(0));
            run_campaign(&g, "grid:3x3", target, config.clone(), 11..15, jobs).report()
        };
        let serial = campaign(1);
        for jobs in [2, 4, 7] {
            assert_eq!(serial, campaign(jobs), "jobs={jobs}");
        }
    }
}
