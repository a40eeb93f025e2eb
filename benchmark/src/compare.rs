//! `bench compare A.json B.json`: the choosing-metrics rule, per
//! end-to-end metric and workload. A is the parent, B the change.
//!
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **unresolved** — not worse, but a side's quartile distance is wider
//!   than the bound, unless every run of B reads better than every run of
//!   A;
//! * **unchanged** — anything else.
//!
//! Per-layer metrics counted by the program (unit `count`) repeat exactly
//! for a seed, so there the rule is equality: any difference is listed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::{median, quartiles};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::report::RunResult;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// `[q1, median, q3]`; a single run is its own quartiles.
fn quartiles_or_single(values: &[f64]) -> [f64; 3] {
    match values {
        [one] => [*one; 3],
        many => quartiles(many),
    }
}

/// Applies the rule to one metric on one workload.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (quartiles_or_single(a), quartiles_or_single(b));
    let base = qa[1].abs().max(f64::MIN_POSITIVE);
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    if sign * (qb[1] - qa[1]) / base > metric.bound {
        return Verdict::Worse;
    }
    let spread = (qa[2] - qa[0]).max(qb[2] - qb[0]) / base;
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if spread > metric.bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Values per `(workload, metric)` over the runs with the given tracing.
fn samples(runs: &[RunResult], traced: bool) -> Samples {
    let mut out = Samples::new();
    for r in runs.iter().filter(|r| r.traced == traced) {
        for (name, value, _) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    out
}

/// The comparison table and whether anything got worse: an end-to-end
/// metric past its bound, an exact count that differs, or more failures.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let (ea, eb) = (samples(a, false), samples(b, false));
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>3}/{:<3} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "nA", "nB", "A median", "A q3-q1", "B median", "B q3-q1", "B/A-1"
    );
    for ((workload, name), va) in &ea {
        let (Some(vb), Some(metric)) = (
            eb.get(&(workload.clone(), name.clone())),
            END_TO_END.iter().find(|m| m.name == name),
        ) else {
            continue;
        };
        let (qa, qb) = (quartiles_or_single(va), quartiles_or_single(vb));
        let verdict = judge(metric, va, vb);
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{workload:<22} {name:<12} {:>3}/{:<3} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>+8.3}  {}",
            va.len(),
            vb.len(),
            qa[1],
            qa[2] - qa[0],
            qb[1],
            qb[2] - qb[0],
            qb[1] / qa[1] - 1.0,
            verdict.as_str()
        );
    }

    let failed = |runs: &[RunResult]| -> u64 { runs.iter().map(|r| r.failed).sum() };
    let (fa, fb) = (failed(a), failed(b));
    let _ = writeln!(out, "failed operations: A {fa}, B {fb}");
    any_worse |= fb > fa;

    // Counts are compared run by run on the same seed.
    let counts = |runs: &[RunResult]| -> BTreeMap<(String, u64, String), f64> {
        runs.iter()
            .filter(|r| r.traced)
            .flat_map(|r| {
                r.metrics
                    .iter()
                    .filter(|(_, _, unit)| unit == "count")
                    .map(|(name, value, _)| ((r.workload.clone(), r.seed, name.clone()), *value))
            })
            .collect()
    };
    let (ca, cb) = (counts(a), counts(b));
    let mut compared = 0;
    for (key, va) in &ca {
        let Some(vb) = cb.get(key) else { continue };
        // Wall-clock-dependent counts are not inputs of the rule.
        if matches!(key.2.as_str(), "bench.reps") {
            continue;
        }
        compared += 1;
        if va != vb {
            any_worse = true;
            let _ = writeln!(
                out,
                "count differs: {} seed {} {}: A {va}, B {vb}",
                key.0, key.1, key.2
            );
        }
    }
    let _ = writeln!(out, "exact counts compared: {compared}");

    // Per-layer timings have no bound: medians side by side, for reading.
    let (la, lb) = (samples(a, true), samples(b, true));
    for ((workload, name), va) in &la {
        let timing = PER_LAYER
            .iter()
            .any(|m| m.name == name && m.unit != "count");
        let Some(vb) = lb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        if timing && (ma != 0.0 || mb != 0.0) {
            let _ = writeln!(
                out,
                "layer {workload:<22} {name:<34} A {ma:>14.6} B {mb:>14.6}"
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_S: &EndToEnd = &END_TO_END[0];

    #[test]
    fn the_rule() {
        assert_eq!(RUN_S.name, "run_s");
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Median up by more than the bound.
        let slow: Vec<f64> = steady
            .iter()
            .map(|v| v * (1.0 + 2.0 * RUN_S.bound))
            .collect();
        assert_eq!(judge(RUN_S, &steady, &slow), Verdict::Worse);
        // Same medians, tight spread.
        assert_eq!(judge(RUN_S, &steady, &steady), Verdict::Unchanged);
        // Same medians, spread wider than the bound.
        let noisy = [0.7, 1.3, 1.0, 0.6, 1.4];
        assert_eq!(judge(RUN_S, &steady, &noisy), Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        let fast = [0.3, 0.5, 0.45, 0.2, 0.55];
        assert_eq!(judge(RUN_S, &noisy, &fast), Verdict::Unchanged);
        // Single runs compare by value.
        assert_eq!(judge(RUN_S, &[1.0], &[1.5]), Verdict::Worse);
        assert_eq!(judge(RUN_S, &[1.0], &[1.01]), Verdict::Unchanged);
    }

    fn run(workload: &str, traced: bool, metrics: &[(&str, f64, &str)]) -> RunResult {
        RunResult {
            workload: workload.into(),
            traced,
            seed: 42,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v, u)| (n.to_string(), *v, u.to_string()))
                .collect(),
        }
    }

    #[test]
    fn differing_counts_and_new_failures_are_worse() {
        let a = [
            run("w", false, &[("run_s", 1.0, "s")]),
            run("w", true, &[("sim.events", 10.0, "count")]),
        ];
        let (text, worse) = compare(&a, &a);
        assert!(!worse, "{text}");
        assert!(text.contains("unchanged"));

        let mut b = a.clone();
        b[1].metrics[0].1 = 11.0;
        let (text, worse) = compare(&a, &b);
        assert!(worse && text.contains("count differs"), "{text}");

        let mut b = a.clone();
        b[0].failed = 1;
        assert!(compare(&a, &b).1);
    }
}
