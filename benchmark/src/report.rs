//! The result line one workload run prints, and the results document
//! `run` collects them into and `compare` reads back.

use std::fmt::Write as _;

use lsrp_trace::json::{self, Json};

use crate::harness::Outcome;

/// One workload run as it appears in a results document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

/// A value with every digit it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}`.
fn push_body<'a>(
    out: &mut String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) {
    let _ = write!(
        out,
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push('}');
}

/// The last line of a workload run's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let attempted = outcome.attempted.max(1);
    let mut out = String::from("{");
    push_body(
        &mut out,
        outcome.correct(),
        attempted,
        (outcome.failures.len() as u64).min(attempted),
        outcome.metrics.iter().copied(),
    );
    out.push('}');
    out
}

/// Parses a result line back, tagging it with what the caller knows.
pub fn parse_result_line(
    line: &str,
    workload: &str,
    traced: bool,
    seed: u64,
) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    from_json(&doc, workload, traced, seed)
}

fn from_json(doc: &Json, workload: &str, traced: bool, seed: u64) -> Result<RunResult, String> {
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("no '{key}' in result"));
    let Json::Obj(metrics) = field("metrics")? else {
        return Err("'metrics' is not an object".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric '{name}' lacks a value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        workload: workload.to_string(),
        traced,
        seed,
        correct: field("correct")?
            .as_bool()
            .ok_or("'correct' is not a bool")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("'attempted' is not a number")?,
        failed: field("failed")?
            .as_u64()
            .ok_or("'failed' is not a number")?,
        metrics,
    })
}

/// The results document: one object per workload run, one per line.
pub fn document(runs: &[RunResult]) -> String {
    let mut out = String::from("{\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            " {{\"workload\": \"{}\", \"traced\": {}, \"seed\": {}, ",
            r.workload, r.traced, r.seed
        );
        let metrics = r
            .metrics
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, u.as_str()));
        push_body(&mut out, r.correct, r.attempted, r.failed, metrics);
        out.push_str(if i + 1 == runs.len() { "}\n" } else { "},\n" });
    }
    out.push_str("]}\n");
    out
}

/// Reads a results document back.
pub fn parse_document(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no 'runs' array in the results document")?;
    runs.iter()
        .map(|r| {
            let workload = r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a run lacks its workload")?;
            let traced = r.get("traced").and_then(Json::as_bool).unwrap_or(false);
            let seed = r.get("seed").and_then(Json::as_u64).unwrap_or(0);
            from_json(r, workload, traced, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_and_document_round_trip() {
        let outcome = Outcome {
            workload: "w",
            attempted: 3,
            failures: vec!["x".into()],
            metrics: vec![("run_s", 1.234_567_891_234, "s"), ("n", 7.0, "count")],
            reps: 3,
            run_s: crate::clock::spread(&[1.0]),
        };
        let line = result_line(&outcome);
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line, "w", false, 42).unwrap();
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (3, 1));
        assert!(parsed.metrics.contains(&(
            "run_s".to_string(),
            1.234_567_891_234,
            "s".to_string()
        )));
        let Json::Obj(keys) = json::parse(&line).unwrap() else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

        let again = parse_document(&document(&[parsed.clone(), parsed.clone()])).unwrap();
        assert_eq!(again, vec![parsed.clone(), parsed]);
    }
}
