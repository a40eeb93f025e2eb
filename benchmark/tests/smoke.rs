//! Runs every workload at `--smoke` sizes through the real binary and
//! holds its output to `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use lsrp_trace::json::{self, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json is JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("the manifest lists them")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            (field("name").expect("each has a name"), field("unit"))
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("the scratch directory can be created");
    dir
}

/// One smoke run; returns the parsed result line.
fn run(workload: &str, traced: bool, dir: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(dir)
        .output()
        .expect("the benchmark binary starts");
    assert!(output.status.success(), "{workload} exits with 0");
    let stdout = String::from_utf8(output.stdout).expect("output is UTF-8");
    let line = stdout.lines().last().expect("a result line is printed");
    json::parse(line).unwrap_or_else(|e| panic!("{workload}: last line is JSON ({e}): {line}"))
}

fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(m)) = result.get("metrics") else {
        panic!("the result has a metrics object");
    };
    m.iter()
        .map(|(name, v)| {
            let value = v.get("value").and_then(Json::as_f64).expect("a value");
            let unit = v.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_result_shape(workload: &str, result: &Json, expected: &[(String, Option<String>)]) {
    let Json::Obj(top) = result else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    let got = metrics(result);
    let want: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    let have: BTreeSet<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(
        have, want,
        "{workload} emits exactly the manifest's metrics"
    );
    for (name, unit) in expected {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert_eq!(Some(&got[name].1), unit.as_ref(), "{workload} {name} unit");
        assert!(got[name].0.is_finite(), "{workload} {name}");
    }
}

/// Spans nest: a child lies inside its parent, and the children and hot
/// rows under a span never add up to more than the span.
fn assert_spans_nest(workload: &str, dir: &Path) {
    let path = dir.join(format!("spans-{workload}.json"));
    let doc = json::parse(&std::fs::read_to_string(&path).expect("the span dump exists"))
        .expect("the span dump is JSON");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty(), "{workload} recorded spans");
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).expect("a number");
    let mut inside = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id") as usize, i);
        assert!(num(s, "start") <= num(s, "end"));
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            let parent = &spans[p as usize];
            assert!((p as usize) < i, "a parent opens before its child");
            assert!(num(parent, "start") <= num(s, "start") && num(s, "end") <= num(parent, "end"));
            inside[p as usize] += num(s, "end") - num(s, "start");
        }
    }
    for h in doc.get("hot").and_then(Json::as_arr).expect("hot rows") {
        assert!(num(h, "count") >= 1);
        if let Some(p) = h.get("parent").and_then(Json::as_u64) {
            inside[p as usize] += num(h, "total");
        }
    }
    for (s, inside) in spans.iter().zip(inside) {
        let duration = num(s, "end") - num(s, "start");
        assert!(
            inside <= duration,
            "{workload}: children exceed {:?}",
            s.get("name")
        );
        assert_eq!(num(s, "self"), duration - inside);
    }
}

#[test]
fn every_workload_emits_the_manifest_and_repeats_its_counts() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let dir = out_dir("smoke");
    for (workload, _) in names(&manifest, "workloads") {
        let untraced = run(&workload, false, &dir);
        assert_result_shape(&workload, &untraced, &end_to_end);

        let first = run(&workload, true, &dir);
        assert_result_shape(&workload, &first, &per_layer);
        assert_spans_nest(&workload, &dir);
        let second = run(&workload, true, &dir);
        let (a, b) = (metrics(&first), metrics(&second));
        let mut counts = 0;
        for (name, (value, unit)) in &a {
            // How many repetitions fit is the one count the clock decides.
            if unit == "count" && name != "bench.reps" {
                counts += 1;
                assert_eq!(*value, b[name].0, "{workload} {name} repeats exactly");
            }
        }
        assert!(counts >= 10);
        assert!(
            a["sim.events"].0 > 0.0 || a["scenario.cells"].0 > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn run_prints_every_workload_and_compare_accepts_a_run_against_itself() {
    let dir = out_dir("run");
    let results = dir.join("results.json");
    let bench = || Command::new(env!("CARGO_BIN_EXE_bench"));
    let output = bench()
        .args(["run", "--smoke", "--seconds", "0", "--traced", "--out"])
        .arg(&results)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    for (workload, _) in names(&manifest(), "workloads") {
        assert!(
            stdout.contains(&format!("{workload} seed 42 untraced")),
            "{workload}"
        );
        assert!(
            stdout.contains(&format!("{workload} seed 42 traced")),
            "{workload}"
        );
    }
    assert!(stdout.contains("failed_frac") && stdout.contains("all checks passed"));

    let output = bench()
        .arg("compare")
        .args([&results, &results])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(
        stdout.contains("unchanged") && !stdout.contains("worse"),
        "{stdout}"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
