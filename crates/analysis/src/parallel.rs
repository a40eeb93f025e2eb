//! Deterministic seed-sharded parallel execution.
//!
//! Campaigns (chaos testing, bench experiment sweeps) are embarrassingly
//! parallel: every run is a pure function of its seed. [`run_sharded`]
//! exploits that — scoped worker threads pull task indices from a shared
//! counter and results are merged back **in index order**, so the output
//! is byte-identical to the serial run regardless of worker count or
//! scheduling. Parallelism changes wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `task(0..count)` on `jobs` worker threads and returns the results
/// in index order.
///
/// With `jobs <= 1` the tasks run serially on the calling thread — no
/// threads are spawned — so the parallel path can always be compared
/// against it. The task may borrow from the caller: the workers are
/// scoped to this call.
///
/// # Panics
///
/// Propagates a panic from any task with that task's own payload.
pub fn run_sharded<T: Send>(jobs: usize, count: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if jobs <= 1 || count <= 1 {
        return (0..count).map(task).collect();
    }
    // Relaxed: the counter only hands out indices; results come back
    // through `join`, which orders them after the worker's writes.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, task(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.min(count)).map(|_| s.spawn(worker)).collect();
        // Join explicitly: letting the scope join would replace a task's
        // panic payload with a generic "a scoped thread panicked".
        for handle in workers {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed by exactly one worker"))
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
    fn tasks_borrow_from_the_caller() {
        let words: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        assert_eq!(run_sharded(3, words.len(), |i| words[i].len()), vec![2; 9]);
    }

    #[test]
    fn a_task_panic_surfaces_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_sharded(3, 9, |i| {
                assert!(i != 5, "cell {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("cell 5 failed"));
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
