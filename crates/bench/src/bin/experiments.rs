//! Regenerates every figure and analytical claim of the paper and prints
//! them as markdown (the source of EXPERIMENTS.md).
//!
//! Usage: `experiments [e1|e2|…|e21|all]...` (default: all; an id that is
//! not in the table below exits 2 naming the ones that are).
//! `e6 --destinations N|all-pairs` runs the E6 sweep on the dense
//! multi-destination plane instead of the single-tree one.
//!
//! Experiments with a checked-in scenario file in `scenarios/` run
//! through the same campaign compiler `lsrp run` uses, so `lsrp run
//! scenarios/e6_scaling.toml` prints the E6 block byte-identically. The
//! figure regenerations and theorem checks whose fault choreography the
//! scenario schema does not express are plain calls into this crate.

use std::env;
use std::fmt::Write as _;

use lsrp_bench::{figures, loops_exp, multi_exp, overhead, selfstab, waves};
use lsrp_scenario::schema::ScenarioBody;
use lsrp_scenario::{
    load_str, run_scenario, DestinationsSpec, ExecOptions, Scenario, ScenarioResult,
};

/// How an experiment runs.
enum Source {
    /// A checked-in scenario file, run through the campaign compiler.
    File(&'static str),
    /// A hand-coded experiment that renders its own report.
    Code(fn() -> String),
}

/// (answering ids, how it runs).
type Experiment = (&'static [&'static str], Source);

/// Every experiment, in EXPERIMENTS.md order.
const EXPERIMENTS: &[Experiment] = &[
    (
        &["e1", "e2"],
        Source::Code(|| {
            let (table, timelines) = figures::e1_e2_fig2_vs_fig5();
            let mut out = format!("{table}\n");
            for (title, tl) in timelines {
                let _ = write!(out, "**{title}**\n\n```\n{tl}```\n\n");
            }
            let _ = writeln!(out, "{}", figures::e4b_dependent_sets());
            out
        }),
    ),
    (
        &["e3"],
        Source::Code(|| {
            let (table, tl) = figures::e3_fig6();
            format!("{table}\n**LSRP timeline (d.v11 := 2)**\n\n```\n{tl}```\n\n")
        }),
    ),
    (
        &["e4"],
        Source::Code(|| format!("{}\n", figures::e4_fig7())),
    ),
    (
        &["e5"],
        Source::Code(|| format!("{}\n", selfstab::e5_selfstab(&[16, 32, 64], 10))),
    ),
    (
        &["e6"],
        Source::File(include_str!("../../../../scenarios/e6_scaling.toml")),
    ),
    (
        &["e7"],
        Source::File(include_str!("../../../../scenarios/e7_regions.toml")),
    ),
    (
        &["e8"],
        Source::Code(|| format!("{}\n", loops_exp::e8_loop_freedom(14, 20))),
    ),
    (
        &["e9"],
        Source::Code(|| format!("{}\n", loops_exp::e9_loop_breakage(&[4, 8, 16, 32, 64]))),
    ),
    (
        &["e10"],
        Source::File(include_str!("../../../../scenarios/e10_continuous.toml")),
    ),
    (
        &["e11"],
        Source::Code(|| format!("{}\n", overhead::e11_overhead(&[8, 16, 24], &[2]))),
    ),
    (
        &["e12"],
        Source::Code(|| format!("{}\n", waves::e12_wave_ratio(&[1.2, 1.5, 2.125, 4.0, 8.0]))),
    ),
    (
        &["e13"],
        Source::File(include_str!("../../../../scenarios/e13_availability.toml")),
    ),
    (
        &["e14"],
        Source::File(include_str!("../../../../scenarios/e14_robustness.toml")),
    ),
    (
        &["e15"],
        Source::Code(|| format!("{}\n", loops_exp::e15_c2_ablation(14, 30))),
    ),
    (
        &["e16"],
        Source::File(include_str!(
            "../../../../scenarios/e16_route_stability.toml"
        )),
    ),
    (
        &["e17"],
        Source::Code(|| format!("{}\n", waves::e17_containment_depth(&[1, 2, 4, 8, 16]))),
    ),
    (
        &["e18"],
        Source::File(include_str!("../../../../scenarios/e18_message_loss.toml")),
    ),
    (
        &["e19"],
        Source::Code(|| format!("{}\n", multi_exp::e19_full_table(8, &[1, 4, 16, 64]))),
    ),
    (
        &["e20"],
        Source::File(include_str!(
            "../../../../scenarios/e20_live_availability.toml"
        )),
    ),
    (
        &["e21"],
        Source::File(include_str!(
            "../../../../scenarios/e21_congested_recovery.toml"
        )),
    ),
];

const E6_MULTI: &str = include_str!("../../../../scenarios/e6_multi.toml");

/// The experiments `args` name, in table order — every one for `all` or no
/// argument at all — or, for an argument that is neither `all` nor an id
/// of the table, an error naming the ids that are.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let answers = |(ids, _): &Experiment, a: &String| a == "all" || ids.contains(&a.as_str());
    let unknown = |a: &&String| !EXPERIMENTS.iter().any(|e| answers(e, a));
    if let Some(bad) = args.iter().find(unknown) {
        let ids = EXPERIMENTS.iter().flat_map(|(ids, _)| ids.iter().copied());
        let ids = ids.collect::<Vec<_>>().join(", ");
        return Err(format!("unknown experiment `{bad}` (want all, {ids})"));
    }
    let wanted = |e: &&Experiment| args.is_empty() || args.iter().any(|a| answers(e, a));
    Ok(EXPERIMENTS.iter().filter(wanted).collect())
}

/// Parses a trailing `--destinations N|all-pairs` flag (for the E6 multi
/// sweep) out of `args`, returning `Some(None)` for all-pairs and
/// `Some(Some(n))` for a count. Exits with a message on a bad value.
fn take_destinations(args: &mut Vec<String>) -> Option<Option<usize>> {
    let i = args.iter().position(|a| a == "--destinations")?;
    args.remove(i);
    let value = if i < args.len() {
        args.remove(i)
    } else {
        eprintln!("--destinations wants a value: N or all-pairs");
        std::process::exit(2);
    };
    match value.as_str() {
        "all-pairs" | "all" => Some(None),
        n => match n.parse::<usize>() {
            Ok(n) if n >= 1 => Some(Some(n)),
            _ => {
                eprintln!("invalid destination count: {n} (want N or all-pairs)");
                std::process::exit(2);
            }
        },
    }
}

/// Runs one scenario and prints its report; returns the number of failed
/// expectations.
fn run_one(s: &Scenario, jobs: usize) -> usize {
    match run_scenario(s, ExecOptions::sharded(jobs)) {
        Ok(outcome) => {
            match &outcome.result {
                ScenarioResult::Table(t) => println!("{t}"),
                ScenarioResult::Text(text) => print!("{text}"),
            }
            for f in &outcome.failures {
                eprintln!("{}: {f}", s.name);
            }
            outcome.failures.len()
        }
        Err(e) => {
            eprintln!("{}: {e}", s.name);
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let destinations = take_destinations(&mut args);
    let selected = select(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("# LSRP reproduction — experiment outputs\n");
    println!("All times are simulated seconds under the paper-example timing");
    println!("(`u = 1`, `hd_SC = 1`, `hd_C = 8`, `hd_S = 17`; DBF/DUAL update");
    println!("hold 17). See DESIGN.md §4 for the experiment index.\n");

    let mut failed = 0;
    for (ids, source) in selected {
        let src = match source {
            Source::Code(run) => {
                print!("{}", run());
                continue;
            }
            Source::File(src) => src,
        };
        if ids[0] == "e6" {
            if let Some(dests) = destinations {
                let mut s = load_str(E6_MULTI).expect("checked-in scenario parses");
                if let ScenarioBody::Recovery(r) = &mut s.body {
                    r.destinations = Some(match dests {
                        None => DestinationsSpec::AllPairs,
                        Some(n) => DestinationsSpec::Count(
                            u32::try_from(n).expect("destination count fits u32"),
                        ),
                    });
                }
                failed += run_one(&s, jobs);
                continue;
            }
        }
        let s = load_str(src).expect("checked-in scenario parses");
        failed += run_one(&s, jobs);
    }
    if failed > 0 {
        eprintln!("{failed} expectation(s) failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        Ok(select(&args)?.iter().map(|(ids, _)| ids[0]).collect())
    }

    #[test]
    fn an_unknown_id_is_an_error_naming_the_table() {
        let e = ids(&["e13", "e99"]).unwrap_err();
        assert!(e.contains("`e99`") && e.contains("all, e1, e2, e3"), "{e}");
        assert!(e.ends_with("e20, e21)"), "{e}");
    }

    #[test]
    fn the_table_answers_e1_to_e21_each_once() {
        let mut ids: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(ids, _)| ids.iter().copied())
            .collect();
        ids.sort_by_key(|id| id[1..].parse::<u32>().unwrap());
        let want: Vec<String> = (1..=21).map(|n| format!("e{n}")).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn ids_select_their_rows_and_all_selects_every_row() {
        assert_eq!(ids(&["e13"]).unwrap(), ["e13"]);
        assert_eq!(ids(&["e2", "e13"]).unwrap(), ["e1", "e13"]);
        assert_eq!(ids(&["all"]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(ids(&[]).unwrap(), ids(&["e4", "all"]).unwrap());
    }
}
