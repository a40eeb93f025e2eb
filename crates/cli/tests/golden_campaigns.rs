//! Pinned campaign bytes: five `lsrp chaos|traffic` invocations whose
//! output length and FNV-1a 64 digest must not move. One per report
//! shape — single-destination chaos with minimized repros, multi chaos,
//! congested single traffic, multi traffic — plus the trace file of a
//! sharded, traced campaign. An intended change to these bytes shows up
//! here as a new `(length, digest)` pair.

use lsrp_cli::{run_command, Command};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(args: &str) -> String {
    let cmd = Command::parse(args.split_whitespace().map(str::to_string)).expect("parses");
    run_command(&cmd).expect("runs")
}

fn assert_pinned(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, digest),
        "{what}: got (len {}, 0x{:016x})",
        bytes.len(),
        fnv1a64(bytes)
    );
}

#[test]
fn single_destination_chaos_with_minimized_repros() {
    let out = run("chaos --topology grid:5x5 --horizon 40");
    assert_eq!(out.matches("minimized repro for seed").count(), 4, "{out}");
    assert_pinned(
        "chaos grid:5x5",
        out.as_bytes(),
        1880,
        0xe07c_4e78_a96e_0eab,
    );
}

#[test]
fn multi_destination_chaos() {
    let out = run("chaos --topology grid:3x3 --destinations 2 --runs 2 --seed 1");
    assert_pinned("multi chaos", out.as_bytes(), 240, 0xd7af_cd1e_b686_0a02);
}

#[test]
fn congested_single_destination_traffic() {
    let out = run(
        "traffic --topology grid:3x3 --runs 2 --seed 5 --flows 6 --duration 80 \
         --link-rate 200 --queue-cap 2000 --discipline ecn --cc aimd",
    );
    assert_pinned(
        "congested traffic",
        out.as_bytes(),
        868,
        0xf76e_7f0e_947d_a7d3,
    );
}

#[test]
fn multi_destination_traffic() {
    let out = run(
        "traffic --topology grid:3x3 --destinations 2 --runs 2 --seed 2 \
         --flows 6 --duration 80 --workload all-pairs",
    );
    assert_pinned("multi traffic", out.as_bytes(), 875, 0x44b8_ead9_4c63_4225);
}

#[test]
fn sharded_campaign_traces_run_zero() {
    let path = std::env::temp_dir().join(format!("lsrp-golden-trace-{}.jsonl", std::process::id()));
    run(&format!(
        "chaos --topology grid:3x3 --runs 2 --seed 1 --jobs 2 --trace-out {}",
        path.display()
    ));
    let trace = std::fs::read(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert_pinned("chaos trace", &trace, 6724, 0xbc92_796c_b91d_6398);
}
