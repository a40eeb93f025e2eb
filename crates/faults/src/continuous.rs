//! Recurring faults (Corollary 4 / Theorem 5): the same perturbation keeps
//! hitting the system at a fixed interval.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::FaultPlan;
use crate::schedule::FaultSchedule;

/// A fault plan that re-occurs every `interval` simulated seconds,
/// optionally with a seeded uniform jitter on each gap.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurringFault {
    /// The faults applied at each occurrence.
    pub plan: FaultPlan,
    /// Interval between consecutive occurrences.
    pub interval: f64,
    /// Number of occurrences.
    pub occurrences: u32,
    /// Uniform jitter half-width: each gap is drawn from
    /// `interval ± jitter`. Zero (the default) keeps the schedule exactly
    /// periodic.
    pub jitter: f64,
    /// Seed for the jitter draws (unused when `jitter == 0`).
    pub jitter_seed: u64,
}

impl RecurringFault {
    /// Creates a recurring fault with an exactly periodic schedule.
    pub fn new(plan: FaultPlan, interval: f64, occurrences: u32) -> Self {
        assert!(interval > 0.0, "interval must be positive");
        RecurringFault {
            plan,
            interval,
            occurrences,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// Adds a seeded uniform jitter of `± jitter` seconds to every gap.
    ///
    /// # Panics
    ///
    /// Panics when `jitter` is negative or not smaller than the interval
    /// (a gap must stay positive).
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!(
            jitter >= 0.0 && jitter < self.interval,
            "jitter must satisfy 0 <= jitter < interval"
        );
        self.jitter = jitter;
        self.jitter_seed = seed;
        self
    }

    /// The occurrences as a schedule starting at `start`, one per gap:
    /// the plan's faults, then one interval (with jitter, one seeded draw
    /// from `interval ± jitter`) to the next occurrence. Drive it with
    /// [`FaultSchedule::drive_lsrp`], which skips a fault the topology no
    /// longer admits.
    pub fn schedule(&self, start: f64) -> FaultSchedule {
        let mut rng = (self.jitter > 0.0).then(|| StdRng::seed_from_u64(self.jitter_seed));
        let mut schedule = FaultSchedule::new();
        let mut at = start;
        for _ in 0..self.occurrences {
            for fault in &self.plan.faults {
                schedule.push(at, fault.clone());
            }
            at += match &mut rng {
                Some(rng) => self.interval + rng.gen_range(-self.jitter..=self.jitter),
                None => self.interval,
            };
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptionKind, Fault};
    use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
    use lsrp_graph::{generators, Distance, NodeId};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn recurring_corruption_is_repeatedly_repaired() {
        let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), v(0)).build();
        let plan = FaultPlan::new().with(Fault::Corrupt {
            node: v(10),
            kind: CorruptionKind::Distance(Distance::ZERO),
        });
        let rec = RecurringFault::new(plan, 50.0, 4);
        let report = rec
            .schedule(sim.now().seconds())
            .drive_lsrp(&mut sim, 100_000.0);
        assert!(report.quiescent);
        assert!(sim.routes_correct());
        // The corruption was repaired after every occurrence: at least one
        // containment action per occurrence.
        let c1s = sim
            .engine()
            .trace()
            .actions
            .iter()
            .filter(|r| r.name == "C1" && r.node == v(10))
            .count();
        assert!(c1s >= 4, "expected >= 4 containments, got {c1s}");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = RecurringFault::new(FaultPlan::new(), 0.0, 1);
    }

    #[test]
    fn jittered_schedule_is_seeded_and_still_repaired() {
        let plan = FaultPlan::new().with(Fault::Corrupt {
            node: v(10),
            kind: CorruptionKind::Distance(Distance::ZERO),
        });
        let run = |seed: u64| {
            let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), v(0)).build();
            let rec = RecurringFault::new(plan.clone(), 50.0, 4).with_jitter(20.0, seed);
            let report = rec
                .schedule(sim.now().seconds())
                .drive_lsrp(&mut sim, 100_000.0);
            assert!(report.quiescent);
            assert!(sim.routes_correct());
            sim.now().seconds()
        };
        // Same seed → same schedule; different seed → different draw.
        assert_eq!(run(7).to_bits(), run(7).to_bits());
        assert_ne!(run(7).to_bits(), run(8).to_bits());
    }

    #[test]
    #[should_panic(expected = "jitter must satisfy")]
    fn jitter_wider_than_interval_rejected() {
        let _ = RecurringFault::new(FaultPlan::new(), 10.0, 1).with_jitter(10.0, 0);
    }
}
