//! Never-panic properties: whatever bytes a trace file holds, the JSON
//! parser and `read_trace` answer `Ok` or `Err`.

use std::path::PathBuf;

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, NodeId};
use lsrp_sim::{EngineConfig, SinkKind};
use lsrp_trace::reader::read_trace;
use lsrp_trace::{json, streaming_factory, TraceConfig};
use proptest::fuzz;
use proptest::prelude::*;

const ALPHABET: &[u8] = b"{{}}[[]]\"\"\\::,,.-+eE0123456789truefalsenulktvnd \n";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lsrp-trace-never-panic");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small valid trace, as bytes.
fn valid_trace() -> Vec<u8> {
    let path = tmp("valid.jsonl");
    let mut config = TraceConfig::new(&path);
    config.topology = Some("grid:3x3".to_string());
    let factory = streaming_factory(config, SinkKind::Full).unwrap();
    let engine = EngineConfig::default()
        .with_seed(7)
        .with_sink_factory(factory);
    let mut sim = LsrpSimulation::builder(generators::grid(3, 3, 1), NodeId::new(0))
        .initial_state(InitialState::Arbitrary { seed: 3 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(100_000.0).quiescent);
    drop(sim); // finishes the sink
    assert!(!read_trace(&path).unwrap().is_empty());
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_the_json_parser(case in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(case);
        let bytes = fuzz::bytes(&mut rng, 200, ALPHABET);
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn arbitrary_and_mutated_trace_files_never_panic_the_reader() {
    let path = tmp("hostile");
    let valid = valid_trace();
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..1024u64 {
        let mut rng = TestRng::deterministic(case);
        // A retired binary-framed file: its magic, then hostile frame
        // headers. It is not JSONL, so it must be rejected.
        let binary_framed = case % 4 == 1;
        let bytes = match case % 4 {
            0 => fuzz::bytes(&mut rng, 400, ALPHABET),
            1 => [
                &b"LSRPTRCB"[..],
                &fuzz::bytes(&mut rng, 64, &[0, 1, 2, 255]),
            ]
            .concat(),
            _ => fuzz::mutate(&valid, &mut rng, ALPHABET),
        };
        std::fs::write(&path, bytes).unwrap();
        match read_trace(&path) {
            Ok(_) => {
                assert!(
                    !binary_framed,
                    "case {case}: a binary-framed file was accepted"
                );
                accepted += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(accepted >= 10 && rejected >= 500, "{accepted} / {rejected}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let src = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    assert!(json::parse(&src).is_err());
    assert!(json::parse(&"{\"a\":".repeat(200_000)).is_err());
}
