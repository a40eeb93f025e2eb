//! CI perf-smoke: run the fixed-seed engine throughput scenarios, write
//! `BENCH_engine.json` at the repository root, and fail if events/sec
//! falls below a deliberately generous floor.
//!
//! The floor ([`EVENTS_PER_SEC_FLOOR`]) sits far below the throughput
//! measured on an unremarkable development container, so it only trips
//! on order-of-magnitude regressions (an accidental O(n) scan on the hot
//! path, a deep clone per broadcast fan-out copy), never on machine
//! noise. Four *pair* gates sit beside it, each an interleaved min-of-N
//! pair timed in this process: what the streaming trace sink adds to an
//! event, the growth of per-event cost with node degree, the calendar
//! queue's lead over the binary heap on the hold model, and the growth of
//! chaos set-up with topology size.

use std::path::Path;

use lsrp_bench::engine_perf::{
    measure_all, to_json, DEGREE_SWEEP_MAX_RATIO, EVENTS_PER_SEC_FLOOR, FAULTS_GENERATE_ITERS,
    FAULTS_GENERATE_MAX_RATIO, SCHED_HOLD_PAIRS, TRACE_SINK_BUDGET_US,
};

fn main() {
    let results = measure_all();
    let doc = to_json(&results);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, &doc).expect("write BENCH_engine.json");
    print!("{doc}");
    let mut failed = false;
    for r in &results {
        let ok = r.events_per_sec >= EVENTS_PER_SEC_FLOOR;
        eprintln!(
            "perf-smoke {}: {:.0} events/sec (floor {EVENTS_PER_SEC_FLOOR:.0}), \
             peak queue {} — {}",
            r.scenario,
            r.events_per_sec,
            r.peak_queue_depth,
            if ok { "ok" } else { "BELOW FLOOR" },
        );
        failed |= !ok;
    }
    let find = |name: &str| results.iter().find(|r| r.scenario == name);
    if let (Some(null), Some(traced)) = (find("trace_overhead_null"), find("trace_overhead")) {
        // The streaming sink's budget is an amount per event, not a share
        // of the NullSink baseline: the share moves with the engine's speed.
        let (null_us, traced_us) = (1e6 / null.events_per_sec, 1e6 / traced.events_per_sec);
        let sink_us = traced_us - null_us;
        let ok = sink_us <= TRACE_SINK_BUDGET_US;
        eprintln!(
            "perf-smoke trace_overhead ratio: sink adds {sink_us:.3} us/event \
             ({traced_us:.3} traced vs {null_us:.3} NullSink = {:.1}%; \
             budget {TRACE_SINK_BUDGET_US:.2} us) — {}",
            sink_us / null_us * 100.0,
            if ok { "ok" } else { "OVER BUDGET" },
        );
        failed |= !ok;
    }
    if let (Some(narrow), Some(wide)) = (find("degree_sweep_25"), find("degree_sweep_200")) {
        // Machine-independent: both sides are timed interleaved in this
        // process, so only the shape of the cost curve is gated.
        let ratio = narrow.events_per_sec / wide.events_per_sec;
        let ok = ratio <= DEGREE_SWEEP_MAX_RATIO;
        eprintln!(
            "perf-smoke degree_sweep ratio: {:.2} us/event at degree 199 vs {:.2} at degree 24 \
             = {ratio:.1}x (budget {DEGREE_SWEEP_MAX_RATIO:.0}x) — {}",
            1e6 / wide.events_per_sec,
            1e6 / narrow.events_per_sec,
            if ok { "ok" } else { "OVER BUDGET" },
        );
        failed |= !ok;
    }
    if let (Some(small), Some(large)) = (find("faults_generate_16"), find("faults_generate_64")) {
        // Both sides plan the same 10,000 markers, so the ratio of their
        // times is the growth with topology size alone.
        let ratio = large.elapsed_secs / small.elapsed_secs;
        let ok = ratio <= FAULTS_GENERATE_MAX_RATIO;
        let ms = |r: &lsrp_bench::engine_perf::EnginePerf| {
            r.elapsed_secs * 1e3 / f64::from(FAULTS_GENERATE_ITERS)
        };
        eprintln!(
            "perf-smoke faults_generate ratio: {:.1} ms on grid:64x64 vs {:.1} ms on grid:16x16 \
             for 10000 markers = {ratio:.1}x (budget {FAULTS_GENERATE_MAX_RATIO:.0}x) — {}",
            ms(large),
            ms(small),
            if ok { "ok" } else { "OVER BUDGET" },
        );
        failed |= !ok;
    }
    for (depth, wheel, heap, floor) in SCHED_HOLD_PAIRS {
        if let (Some(wheel), Some(heap)) = (find(wheel), find(heap)) {
            let ratio = wheel.events_per_sec / heap.events_per_sec;
            let ok = ratio >= floor;
            eprintln!(
                "perf-smoke sched_hold ratio: wheel {:.0} ns vs heap {:.0} ns at depth {depth} \
                 = {ratio:.2}x (floor {floor:.1}x) — {}",
                1e9 / wheel.events_per_sec,
                1e9 / heap.events_per_sec,
                if ok { "ok" } else { "BELOW FLOOR" },
            );
            failed |= !ok;
        }
    }
    if failed {
        eprintln!("perf-smoke: engine throughput regressed past the generous floor");
        std::process::exit(1);
    }
}
