//! Never-panic property: whatever argument list the binary is handed,
//! `Command::parse` answers `Ok` or `Err` — and so does `run_command`
//! for every topology spec the parser lets through.

use lsrp_cli::args::Command;
use lsrp_cli::run_command;
use lsrp_graph::{GraphError, NodeId};
use proptest::fuzz;
use proptest::prelude::*;

/// Everything the parser matches on, plus values at and past its range
/// checks; the first ten are subcommands.
const WORDS: &str = "run chaos traffic compare scenario check expand viz help figure \
    --topology -t --dest -d --protocol -p --fault -f --seed -s --timeline --runs -n --jobs -j \
    --destinations -D --horizon --workload -w --flows --duration --exact --link-rate \
    --queue-cap --discipline --cc --trace-out --regions -o --output -- - \
    grid:4x4 grid:0x0 grid:99999999999x9 fig1 ring:5 path:1 fattree:4 waxman:50:0.4:0.2 \
    ba:20:2 ba:2:9 er:9:1.5 geo:9:nan lollipop:3:4 cliques:0:0 x.toml t.jsonl out.html \
    lsrp dbf dual pv corrupt:9:1 corrupt:9:inf corrupt:: fail-node:5 fail-edge:1:2 \
    join-edge:1:2:3 weight:1:2:0 loop all-pairs poisson hotspot drop-tail ecn:5 pfc:5:2 aimd \
    fixed:8 0 1 7 -1 1e309 nan inf -0.0 18446744073709551616 4294967296 0.5";

#[test]
fn arbitrary_arguments_never_panic_the_parser() {
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..20_000u64 {
        let mut rng = TestRng::deterministic(case);
        let word = |rng: &mut TestRng| {
            let word = words[(0..words.len()).sample(rng)];
            let bytes = match (0..4u8).sample(rng) {
                0 => fuzz::mutate(word.as_bytes(), rng, b":x-.0123456789"),
                _ => word.as_bytes().to_vec(),
            };
            String::from_utf8_lossy(&bytes).into_owned()
        };
        // A known subcommand first, usually: the flag loop is behind it.
        let mut args = vec![words[(0..10usize).sample(&mut rng)].to_string()];
        if (0..8u8).sample(&mut rng) == 0 {
            args.clear();
        }
        let extra = (0..7usize).sample(&mut rng);
        args.extend((0..extra).map(|_| word(&mut rng)));
        match Command::parse(args) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted >= 1_000 && rejected >= 5_000,
        "{accepted} / {rejected}"
    );
}

/// One degenerate value per generator precondition; each must be refused
/// with an error before any generator runs.
const DEGENERATE_TOPOLOGIES: &[&str] = &[
    "grid:0x0",
    "grid:4x0",
    "ring:1",
    "ring:2",
    "path:0",
    "fattree:0",
    "fattree:3",
    "lollipop:0:0",
    "er:5:2",
    "er:0:0.5",
    "geo:3:-1",
    "ba:3:0",
    "ba:2:2",
    "waxman:0:0.5:0.5",
    "waxman:5:0:0.5",
    "waxman:5:0.5:2",
    "cliques:1:1",
];

/// Parses and runs `args`, reporting a panic as a test failure that
/// names the argument list.
fn run_args(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    std::panic::catch_unwind(|| {
        let cmd = Command::parse(owned).map_err(|e| e.to_string())?;
        run_command(&cmd).map_err(|e| e.to_string())
    })
    .unwrap_or_else(|_| panic!("`lsrp {}` panicked", args.join(" ")))
}

#[test]
fn topology_specs_never_panic_the_binary() {
    for spec in WORDS
        .split_whitespace()
        .chain(DEGENERATE_TOPOLOGIES.iter().copied())
    {
        let _ = run_args(&["topo", "--topology", spec]);
    }
    for spec in DEGENERATE_TOPOLOGIES {
        let err = run_args(&["topo", "--topology", spec]).expect_err(spec);
        assert!(err.contains("invalid topology"), "{spec}: {err}");
    }
    for args in [
        ["run", "--topology", "lollipop:0:0", "--fault", "loop"],
        ["chaos", "--topology", "ring:2", "--runs", "1"],
    ] {
        assert!(run_args(&args).is_err(), "{args:?}");
    }
}

/// Fault lists each of whose faults is valid on the original topology,
/// but not on the one the faults before it leave.
const FAULT_LISTS: [(&str, &[&str]); 6] = [
    ("grid:3x3", &["weight:0:1:0"]),
    ("grid:3x3", &["fail-node:1", "fail-node:1"]),
    ("grid:3x3", &["fail-edge:0:1", "fail-edge:0:1"]),
    ("grid:3x3", &["fail-node:1", "fail-edge:1:2"]),
    ("grid:3x3", &["fail-node:1", "weight:1:2:3"]),
    ("lollipop:3:4", &["fail-node:6", "loop"]),
];

#[test]
fn fault_lists_are_checked_in_order_and_never_panic_the_binary() {
    for command in ["run", "compare"] {
        for (topology, faults) in FAULT_LISTS {
            let mut args = vec![command, "--topology", topology];
            for fault in faults {
                args.extend(["--fault", fault]);
            }
            let err = run_args(&args).expect_err(&args.join(" "));
            assert!(
                err.contains("edge (") || err.contains("is not in"),
                "{args:?}: {err}"
            );
        }
    }
}

/// Joins the graph refuses fail the run with the graph's own message,
/// before anything runs: an existing edge, a self-loop, weight 0, and a
/// second join of an edge the first one made.
#[test]
fn a_refused_join_fails_the_run_with_the_graph_error() {
    let v = NodeId::new;
    let refused: [(&[&str], GraphError); 4] = [
        (&["join-edge:0:1:1"], GraphError::DuplicateEdge(v(0), v(1))),
        (&["join-edge:0:0:1"], GraphError::SelfLoop(v(0))),
        (&["join-edge:0:4:0"], GraphError::ZeroWeight(v(0), v(4))),
        (
            &["join-edge:0:4:1", "join-edge:0:4:1"],
            GraphError::DuplicateEdge(v(0), v(4)),
        ),
    ];
    for command in ["run", "compare"] {
        for (faults, error) in &refused {
            let mut args = vec![command, "--topology", "grid:3x3"];
            for fault in *faults {
                args.extend(["--fault", fault]);
            }
            let err = run_args(&args).expect_err(&args.join(" "));
            assert!(err.contains(&error.to_string()), "{args:?}: {err}");
        }
    }
}

/// A malformed trace is one error that names the file once, whichever
/// layer rejects it: the reader (not JSON) or the renderer (no `hdr`
/// frame, no `topo` frame).
#[test]
fn viz_names_a_malformed_trace_file_exactly_once() {
    let dir = std::env::temp_dir().join(format!("lsrp-viz-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out.html");
    let hdr = r#"{"k":"hdr","schema":"lsrp-trace","v":1}"#;
    for (name, body) in [
        ("empty.jsonl", ""),
        ("hdr-only.jsonl", hdr),
        ("not-json.jsonl", "this is not json"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let path = path.to_str().unwrap();
        let err = run_args(&["viz", path, "-o", out.to_str().unwrap()]).expect_err(name);
        assert!(!err.contains('\n'), "{name}: one line: {err}");
        assert!(err.starts_with(&format!("{path}: ")), "{name}: {err}");
        assert_eq!(err.matches(name).count(), 1, "{name}: {err}");
    }
    assert!(!out.exists(), "no page is written for a malformed trace");
    std::fs::remove_dir_all(&dir).unwrap();
}
