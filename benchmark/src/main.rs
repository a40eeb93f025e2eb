//! The benchmark of the LSRP reproduction. See `README.md` beside this
//! package for what is measured and why.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! bench run [--seed N] [--seconds S] [--traced] [--smoke] [--rounds R] [--out FILE]
//! bench compare A.json B.json
//! bench manifest
//! ```
//!
//! The first form runs one workload in this process and prints its result
//! as the last line of standard output. `run` runs every workload that
//! way, each in a child process of its own, one at a time.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

mod clock;
mod compare;
mod fingerprint;
mod harness;
mod metrics;
mod report;
mod spans;
mod workloads;

use harness::{drive, Options, Outcome, Workload as _};
use metrics::{RUN_SECONDS, WORKLOADS};
use report::RunResult;
use workloads::campaign::CampaignSweep;
use workloads::chaos::ChaosObserved;
use workloads::clos::{ClosCold, ClosColdRegions};
use workloads::storm::{WaxmanStorm, WaxmanStormRegions};
use workloads::traffic::TrafficCongested;

/// Where trace files and span dumps go, relative to the working directory
/// (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";

fn run_workload(name: &str, opts: &Options) -> Option<Outcome> {
    Some(match name {
        ClosCold::NAME => drive::<ClosCold>(opts),
        WaxmanStorm::NAME => drive::<WaxmanStorm>(opts),
        ClosColdRegions::NAME => drive::<ClosColdRegions>(opts),
        WaxmanStormRegions::NAME => drive::<WaxmanStormRegions>(opts),
        ChaosObserved::NAME => drive::<ChaosObserved>(opts),
        TrafficCongested::NAME => drive::<TrafficCongested>(opts),
        CampaignSweep::NAME => drive::<CampaignSweep>(opts),
        _ => return None,
    })
}

/// Flags of every form, parsed in one pass.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    rounds: u64,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        rounds: 1,
        out: None,
        out_dir: PathBuf::from(OUT_DIR),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = number(arg, value()?)?,
            "--seconds" => flags.seconds = number(arg, value()?)?,
            "--rounds" => flags.rounds = number(arg, value()?)?,
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => flags.traced = true,
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--out-dir" => flags.out_dir = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    if !(flags.seconds.is_finite() && flags.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(flags)
}

/// Runs one workload here; prints its metrics, then the result line.
fn one_workload(name: &str, flags: &Flags) -> Result<ExitCode, String> {
    let opts = Options {
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        smoke: flags.smoke,
        out_dir: flags.out_dir.clone(),
    };
    let outcome = run_workload(name, &opts).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload '{name}'; one of: {}", names.join(", "))
    })?;
    println!(
        "{} seed {} {} ({} jobs; {} untraced repetitions, run_s min {:.6} median {:.6} max {:.6})",
        outcome.workload,
        flags.seed,
        if flags.traced { "traced" } else { "untraced" },
        harness::jobs(),
        outcome.reps,
        outcome.run_s.min,
        outcome.run_s.median,
        outcome.run_s.max,
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    // A failed check is reported in the result line, not the exit code:
    // the run itself completed.
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in its own child process, one at a time.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut results: Vec<RunResult> = Vec::new();
    let mut ok = true;
    for round in 0..flags.rounds {
        let seed = flags.seed + round;
        for traced in [false, true] {
            if traced && !flags.traced {
                continue;
            }
            for (name, _) in WORKLOADS {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &flags.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&flags.out_dir);
                if flags.smoke {
                    cmd.arg("--smoke");
                }
                // `output` waits for the child to end before the next starts.
                let output = cmd
                    .output()
                    .map_err(|e| format!("cannot start {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (text, line) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{text}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                match report::parse_result_line(line, name, traced, seed) {
                    Ok(result) => {
                        println!(
                            "  {:<36} {:>16.6} ratio ({} of {})",
                            "failed_frac",
                            result.failed as f64 / result.attempted as f64,
                            result.failed,
                            result.attempted
                        );
                        ok &= result.correct && output.status.success();
                        results.push(result);
                    }
                    Err(e) => {
                        println!("  FAILED: {name} printed no result ({e}): {line}");
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(path) = &flags.out {
        std::fs::write(path, report::document(&results))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two results files".into());
    };
    let read = |path: &String| -> Result<Vec<RunResult>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_document(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, worse) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_flags(&args).and_then(|flags| {
        let positional: Vec<&str> = flags.positional.iter().map(String::as_str).collect();
        match (flags.workload.as_deref(), positional.as_slice()) {
            (Some(name), []) => one_workload(name, &flags),
            (None, ["run"]) => run_all(&flags),
            (None, ["compare", ..]) => compare_files(&flags.positional[1..]),
            (None, ["manifest"]) => {
                print!("{}", metrics::manifest());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] \
                      | run [--seed N] [--seconds S] [--traced] [--smoke] [--rounds R] [--out FILE] \
                      | compare A.json B.json | manifest"
                .into()),
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
