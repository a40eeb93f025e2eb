//! Never-panic properties: whatever bytes a scenario file holds, the TOML
//! parser and the schema loader answer `Ok` or `Err`.

use lsrp_scenario::schema::load_str;
use lsrp_scenario::toml;
use proptest::fuzz;
use proptest::prelude::*;

const ALPHABET: &[u8] = b"[[]]\"\\=.,#\n\n _-+e0123456789truefalsinfnan{}abcdwxyz:";

fn corpus() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("the scenario corpus")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 17, "the corpus moved: {dir}");
    let read = |p| std::fs::read_to_string(p).expect("a readable scenario");
    files.iter().map(read).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(case in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(case);
        let bytes = fuzz::bytes(&mut rng, 300, ALPHABET);
        let src = String::from_utf8_lossy(&bytes);
        let _ = toml::parse(&src);
        let _ = load_str(&src);
    }
}

#[test]
fn mutated_corpus_files_never_panic_the_loader() {
    let corpus = corpus();
    let mut rejected = 0;
    for case in 0..4096u64 {
        let mut rng = TestRng::deterministic(case);
        let valid = &corpus[case as usize % corpus.len()];
        let bytes = fuzz::mutate(valid.as_bytes(), &mut rng, ALPHABET);
        let src = String::from_utf8_lossy(&bytes);
        let _ = toml::parse(&src);
        rejected += usize::from(load_str(&src).is_err());
    }
    // Edits that small leave many files valid: both answers are exercised.
    assert!(
        (400..3700).contains(&rejected),
        "rejected {rejected} of 4096"
    );
}

#[test]
fn a_deeply_nested_array_is_an_error_not_a_stack_overflow() {
    let src = format!("x = {}{}", "[".repeat(200_000), "]".repeat(200_000));
    assert!(toml::parse(&src).is_err());
}
