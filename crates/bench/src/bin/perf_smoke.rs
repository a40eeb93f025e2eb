//! CI perf-smoke: take every paired reading in [`PAIRS`], print one
//! `perf-smoke <pair> ratio:` line each, and exit non-zero if a gated one
//! left its bound.
//!
//! Both sides of a pair are timed interleaved in this process, so only
//! the shape of a cost curve is gated, never the speed of the machine.
//! Throughput and wall-clock numbers are `bash benchmark/run.sh`'s.

use lsrp_bench::engine_perf::PAIRS;

fn main() {
    let mut failed = false;
    for pair in &PAIRS {
        let (line, ok) = pair.measure();
        eprintln!("perf-smoke {line}");
        failed |= !ok;
    }
    if failed {
        eprintln!("perf-smoke: a paired reading left its bound");
        std::process::exit(1);
    }
}
