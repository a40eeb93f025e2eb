//! Golden tests over the checked-in `scenarios/` corpus: every file
//! must parse and expand to at least one cell.

use lsrp_scenario::expand_list;
use lsrp_scenario::schema::load_str;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 17,
        "scenarios/ corpus shrank to {} files",
        files.len()
    );
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable scenario file");
            (name, text)
        })
        .collect()
}

#[test]
fn every_scenario_file_parses() {
    for (name, text) in corpus() {
        load_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn every_scenario_file_expands() {
    for (name, text) in corpus() {
        let parsed = load_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cells = expand_list(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!cells.is_empty(), "{name}: expanded to zero cells");
    }
}

#[test]
fn corpus_covers_every_experiment() {
    // The EXPERIMENTS.md experiments with a scenario file; the rest are
    // hand-coded rows of the `experiments` binary's table.
    let names: Vec<String> = corpus()
        .iter()
        .map(|(_, text)| load_str(text).unwrap().name)
        .collect();
    for name in [
        "e6-scaling",
        "e6-multi",
        "e7-regions",
        "e10-continuous",
        "e13-availability",
        "e14-robustness",
        "e16-route-stability",
        "e18-message-loss",
        "e20-live-availability",
        "e21-congested-recovery",
    ] {
        assert!(names.iter().any(|n| n == name), "no scenario named {name}");
    }
}
