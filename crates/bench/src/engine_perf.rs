//! Paired shape readings: two sides of one workload timed interleaved in
//! this process and compared with each other, so a reading describes the
//! *shape* of a cost curve (how per-event cost grows with degree, how
//! set-up grows with topology size, what a sink adds to an event) and not
//! the speed of the box it ran on.
//!
//! [`PAIRS`] is the whole harness: the `perf_smoke` binary loops over it,
//! prints one `perf-smoke <pair> ratio:` line per row and exits non-zero
//! when a gated row leaves its bound. Wall-clock and trajectory numbers
//! belong to `benchmark/` (`BENCHMARK.json`, `bench compare`), which times
//! every layer these sides touch at full size.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_faults::FaultProcess;
use lsrp_graph::{generators, Graph, NodeId};
use lsrp_sim::SchedulerKind::{Heap, Wheel};
use lsrp_sim::{EngineConfig, EventKey, EventQueue, SchedulerKind, SimTime, SinkKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed seed every side runs under.
const PERF_SEED: u64 = 42;

/// One timed run of one side: the time inside its measured section and
/// the events (holds, emitted faults) that section processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    elapsed: Duration,
    events: u64,
}

/// One side of a [`Pair`], under a name unique in [`PAIRS`].
#[derive(Debug, Clone, Copy)]
struct Side {
    name: &'static str,
    /// Runs summed into one iteration, sized so that one lasts ≥ 50 ms in
    /// release mode: a minimum over millisecond iterations reads noise.
    repeats: u32,
    run: fn() -> Run,
}

/// What a [`Pair`] compares; every kind reads side `b` against side `a`.
#[derive(Debug, Clone, Copy)]
enum Compare {
    /// `b`'s µs/event over `a`'s.
    UsPerEvent,
    /// `b`'s µs/event minus `a`'s.
    UsPerEventAdded,
    /// `b`'s milliseconds per run over `a`'s.
    MsPerRun,
}

/// The bound a gated [`Pair`]'s reading must stay within.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
}

/// One row of [`PAIRS`].
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// The `perf-smoke <name> ratio:` line prefix (shared by the two
    /// `sched_hold` depths; the side names tell the rows apart).
    name: &'static str,
    /// Interleaved iterations of both sides.
    iters: u32,
    a: Side,
    b: Side,
    compare: Compare,
    /// The gate; `None` for a reading that is reported only.
    bound: Option<Bound>,
}

/// Interleaved paired measurement. The sides alternate iteration by
/// iteration — `a, b, a, b, …`, so clock drift and neighbour load hit both
/// equally — one iteration is the sum of the side's `repeats` runs, and
/// each side reads as its *fastest* iteration: noise only ever adds time,
/// so one slow outlier does not move the reading.
fn measure_paired(iters: u32, a: Repeated<'_>, b: Repeated<'_>) -> (Run, Run) {
    let iteration = |(repeats, run): Repeated<'_>| {
        let runs: Vec<Run> = (0..repeats).map(|_| run()).collect();
        let elapsed = runs.iter().map(|r| r.elapsed).sum();
        let events = runs.iter().map(|r| r.events).sum();
        Run { elapsed, events }
    };
    let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        a_runs.push(iteration(a));
        b_runs.push(iteration(b));
    }
    let fastest = |runs: &[Run]| *runs.iter().min_by_key(|r| r.elapsed).expect("iters > 0");
    (fastest(&a_runs), fastest(&b_runs))
}

/// A side as [`measure_paired`] takes it: its `repeats`, and one run.
type Repeated<'a> = (u32, &'a dyn Fn() -> Run);

impl Pair {
    /// Measures the row as written: the `<pair> ratio: …` line, and whether
    /// the reading is within its bound (a reported row always is).
    pub fn measure(&self) -> (String, bool) {
        let (a, b) = (self.a, self.b);
        let (a, b) = measure_paired(self.iters, (a.repeats, &a.run), (b.repeats, &b.run));
        self.judge(a, b)
    }

    fn judge(&self, a: Run, b: Run) -> (String, bool) {
        let ms = |run: Run| run.elapsed.as_secs_f64() * 1e3;
        let cost = |side: Side, run: Run| match self.compare {
            Compare::MsPerRun => ms(run) / f64::from(side.repeats),
            Compare::UsPerEvent | Compare::UsPerEventAdded => ms(run) * 1e3 / run.events as f64,
        };
        let (cost_a, cost_b) = (cost(self.a, a), cost(self.b, b));
        let (unit, value, shown) = match self.compare {
            Compare::MsPerRun => ("ms", cost_b / cost_a, "x"),
            Compare::UsPerEvent => ("us/event", cost_b / cost_a, "x"),
            Compare::UsPerEventAdded => ("us/event", cost_b - cost_a, " us/event added"),
        };
        let (bound, ok) = match self.bound {
            None => (String::new(), true),
            Some(Bound::AtMost(max)) => (format!(" (at most {max})"), value <= max),
            Some(Bound::AtLeast(min)) => (format!(" (at least {min})"), value >= min),
        };
        let verdict = match (self.bound, ok) {
            (None, _) => "reported",
            (Some(_), true) => "ok",
            (Some(_), false) => "OUT OF BOUND",
        };
        let line = format!(
            "{} ratio: {} {cost_b:.3} {unit} vs {} {cost_a:.3} {unit} = {value:.3}{shown}{bound} \
             — {verdict}; iterations of {:.0} vs {:.0} ms",
            self.name,
            self.b.name,
            self.a.name,
            ms(b),
            ms(a),
        );
        (line, ok)
    }
}

/// Every paired reading `perf_smoke` takes: five gates and two reports.
///
/// Beside each bound, the A/A spread of ten back-to-back `perf_smoke`
/// runs on a 2-core container (every gated side at ≥ 52 ms per
/// iteration, ten of ten passing). The container was noisy: one run in
/// ten read every side 30–60 % slow, hence the wide per-side ranges.
///
/// | pair | guards | bound | ten runs read |
/// |---|---|---|---|
/// | `trace_overhead` | what the streaming sink adds to one event: a fixed amount of formatting and writing, so gated as an amount — as a share of the null baseline it failed whenever the *engine* got faster | ≤ 0.15 µs | 0.065–0.130 µs, median 0.093 (0.30–0.56 traced, 0.22–0.43 null) |
/// | `degree_sweep` | growth of per-event cost from degree 24 to degree 199 (8.3× wider): one `O(deg)` scan per evaluation; a guard that rescans the table per neighbour read ≈ 9.5× | ≤ 4.5× | 3.78–4.40×, median 4.04 (1.22–2.35 vs 0.30–0.53 µs) |
/// | `sched_hold`, depth 1k | the calendar queue's lead over the `BinaryHeap` while the whole heap sits in L1 | ≥ 1.3× | 1.38–1.70×, median 1.60 (38–62 vs 63–100 ns) |
/// | `sched_hold`, depth 300k | the same once the heap's sift paths leave the cache | ≥ 2.9× | 3.14–3.46×, median 3.26 (157–191 vs 531–646 ns) |
/// | `faults_generate` | growth of planning the same 10,000 markers from a 16×16 to a 64×64 grid (16× the nodes): `O(log E)` per marker; a pass over the topology per marker read ≈ 45× | ≤ 20× | 3.62–4.16× (25.8–29.4 vs 6.5–7.6 ms) |
/// | `scale_bigswitch` | sequential over 8-region time on the Clos cold start — ROADMAP item 2's decision rule, reported, not gated | — | 1.05–1.49×, median 1.36 (708–833 vs 491–742 ms, 2 hardware threads) |
/// | `scale_waxman_100k` | the same on the sparse irregular graph | — | 0.67–0.89×, median 0.78 (232–267 vs 268–401 ms) |
///
/// `trace_overhead` is a difference, so it grows when the null side gets
/// faster and the traced side does not follow: flat `EdgeSlots` rows took
/// ≈ 50 ns/event off the null side and ≈ 10 off the traced one.
///
/// The `sched_hold` floors sit under the ten-run minimum and, at 300k,
/// above what the queue reads with its open day kept as a heap (2.51–2.75×
/// in five runs), so losing the sorted day fails the gate. On a box busy
/// with other work every reading drifts: three runs there read
/// 2.62–2.80× at 300k and put `trace_overhead` and `degree_sweep` out of
/// bounds too.
///
/// `degree_sweep` sees the `O(deg)` scan only: `complete(d)` with unit
/// weights never ties two offers, so the cost of fingerprinting and
/// tracking *many* enabled guards does not show here (the benchmark's
/// `clos_cold` is the name for that). The hold model is the classic one;
/// `benchmark/`'s `sim.sched.hold_ns.*` runs the same loop on the default
/// scheduler alone, a trajectory number rather than a comparison.
pub static PAIRS: [Pair; 7] = [
    Pair {
        name: "trace_overhead",
        iters: 10,
        a: side("trace_overhead_null", 40, || trace_overhead(false)),
        b: side("trace_overhead", 40, || trace_overhead(true)),
        compare: Compare::UsPerEventAdded,
        bound: Some(Bound::AtMost(0.15)),
    },
    Pair {
        name: "degree_sweep",
        iters: 5,
        a: side("degree_sweep_25", 500, || degree_sweep(25)),
        b: side("degree_sweep_200", 2, || degree_sweep(200)),
        compare: Compare::UsPerEvent,
        bound: Some(Bound::AtMost(4.5)),
    },
    Pair {
        name: "sched_hold",
        iters: 5,
        a: side("sched_hold_wheel_1k", 4, || sched_hold(Wheel, 1_000)),
        b: side("sched_hold_heap_1k", 4, || sched_hold(Heap, 1_000)),
        compare: Compare::UsPerEvent,
        bound: Some(Bound::AtLeast(1.3)),
    },
    Pair {
        name: "sched_hold",
        iters: 5,
        a: side("sched_hold_wheel_300k", 2, || sched_hold(Wheel, 300_000)),
        b: side("sched_hold_heap_300k", 2, || sched_hold(Heap, 300_000)),
        compare: Compare::UsPerEvent,
        bound: Some(Bound::AtLeast(2.9)),
    },
    Pair {
        name: "faults_generate",
        iters: 5,
        a: side("faults_generate_16", 10, || faults_generate(16)),
        b: side("faults_generate_64", 3, || faults_generate(64)),
        compare: Compare::MsPerRun,
        bound: Some(Bound::AtMost(20.0)),
    },
    Pair {
        name: "scale_bigswitch",
        iters: 3,
        a: side("scale_bigswitch_par", 1, || scale(bigswitch(), 8)),
        b: side("scale_bigswitch", 1, || scale(bigswitch(), 1)),
        compare: Compare::MsPerRun,
        bound: None,
    },
    Pair {
        name: "scale_waxman_100k",
        iters: 3,
        a: side("scale_waxman_100k_par", 1, || scale(waxman_100k(), 8)),
        b: side("scale_waxman_100k", 1, || scale(waxman_100k(), 1)),
        compare: Compare::MsPerRun,
        bound: None,
    },
];

const fn side(name: &'static str, repeats: u32, run: fn() -> Run) -> Side {
    Side { name, repeats, run }
}

/// Times a fresh-state LSRP cold start on `graph`, rooted at `v0`, from
/// the first event to quiescence.
fn cold_start(graph: Graph, config: EngineConfig) -> Run {
    let mut sim = LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(config.with_seed(PERF_SEED))
        .build();
    let start = Instant::now();
    let report = sim.run_to_quiescence(1_000_000.0);
    let elapsed = start.elapsed();
    assert!(report.quiescent, "the cold start must settle");
    let events = sim.stats().total_events();
    Run { elapsed, events }
}

/// A sink that records nothing, so trace retention does not dominate a
/// reading.
fn counts_only() -> EngineConfig {
    EngineConfig::default().with_sink(SinkKind::CountsOnly)
}

/// The file the traced side streams into, removed — and its directory
/// with it, once empty — when the run ends, settled or panicking.
struct TraceScratch(PathBuf);

impl TraceScratch {
    fn create() -> Self {
        let dir = std::env::temp_dir().join("lsrp-perf-smoke");
        std::fs::create_dir_all(&dir).ok();
        Self(dir.join(format!("trace-overhead-{}.jsonl", std::process::id())))
    }
}

impl Drop for TraceScratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// A 1000-node grid cold start — the frame-heaviest regime: every action
/// writes `act` + `wave` + `rt` frames — on a plain
/// [`SinkKind::CountsOnly`] sink, or `traced` with the streaming sink
/// writing full JSONL over it.
fn trace_overhead(traced: bool) -> Run {
    let grid = generators::grid(40, 25, 1);
    let config = counts_only();
    if !traced {
        return cold_start(grid, config);
    }
    let scratch = TraceScratch::create();
    let trace = lsrp_trace::TraceConfig::new(scratch.0.clone());
    let factory = lsrp_trace::streaming_factory(trace, SinkKind::CountsOnly);
    let factory = factory.expect("scratch trace file opens");
    cold_start(grid, config.with_sink_factory(factory))
}

/// A cold start on the complete graph `K_n`: every node has degree
/// `n - 1`, so the per-event cost isolates what guard evaluation pays per
/// neighbour. `complete(25)` is 600 events in ≈ 0.24 ms, hence its 500
/// repeats against `complete(200)`'s two.
fn degree_sweep(n: u32) -> Run {
    cold_start(generators::complete(n, 1), counts_only())
}

/// A cold start on `regions` regions (DESIGN.md §15; one is the
/// sequential engine) with one worker per hardware thread — the
/// determinism guarantee makes the worker count invisible in every output
/// except wall-clock.
fn scale(graph: Graph, regions: usize) -> Run {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    cold_start(graph, counts_only().with_regions(regions).with_jobs(jobs))
}

/// The internet-scale Clos fabric: 116,964 nodes, 329,232 edges, diameter
/// 6; its cold start puts hundreds of thousands of timers in flight.
fn bigswitch() -> Graph {
    generators::fat_tree(76)
}

/// The internet-scale random graph (Waxman, locality-truncated, patched
/// connected): irregular degree and a large diameter, so the wave is long
/// and almost every region window is empty.
fn waxman_100k() -> Graph {
    generators::waxman(100_000, 0.001, 1.0, &mut StdRng::seed_from_u64(PERF_SEED))
}

/// One timed `FaultProcess::generate` of 10,000 markers in the benchmark's
/// `chaos_observed` mix (3:2:1:3:1, ten markers per 1,000 s) on a
/// `width`×`width` grid; one emitted fault counts as one event.
fn faults_generate(width: u32) -> Run {
    let graph = generators::grid(width, width, 1);
    let process = FaultProcess {
        link_flaps: 3_000,
        node_churn: 2_000,
        partitions: 1_000,
        corruptions: 3_000,
        weight_drifts: 1_000,
        ..FaultProcess::standard()
    };
    let start = Instant::now();
    let schedule = process.generate(&graph, NodeId::new(0), 1_000_000.0, PERF_SEED);
    let elapsed = start.elapsed();
    let events = std::hint::black_box(schedule).len() as u64;
    Run { elapsed, events }
}

/// The classic hold model on the engine's event queue: fill it to
/// `depth`, then time 400,000 rounds of popping the earliest event and
/// scheduling one a random increment (mean `depth`) later, so the depth
/// stays put and the pending times spread one per simulated second.
fn sched_hold(kind: SchedulerKind, depth: u64) -> Run {
    let events = 400_000;
    let mut rng = StdRng::seed_from_u64(PERF_SEED);
    let mut queue: EventQueue<u64> = EventQueue::new(kind);
    let mut k = 0u64;
    let mut increment = || rng.gen_range(0.0..2.0 * depth as f64);
    for _ in 0..depth {
        queue.schedule(SimTime::new(increment()), EventKey::driver(k), k);
        k += 1;
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..events {
        let (t, _, item) = queue.pop().expect("the queue holds `depth` events");
        sum = sum.wrapping_add(item);
        queue.schedule(t + increment(), EventKey::driver(k), k);
        k += 1;
    }
    std::hint::black_box(sum);
    let elapsed = start.elapsed();
    Run { elapsed, events }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    use super::*;

    type Log = RefCell<Vec<&'static str>>;

    /// A fake side: each call logs `name` and takes the next scripted
    /// millisecond count as its elapsed time, with one event.
    fn scripted<'a>(name: &'static str, ms: &'a [u64], log: &'a Log) -> impl Fn() -> Run + 'a {
        move || {
            log.borrow_mut().push(name);
            let calls = log.borrow().iter().filter(|&&n| n == name).count();
            run(ms[calls - 1] * 1_000, 1)
        }
    }

    fn run(us: u64, events: u64) -> Run {
        let elapsed = Duration::from_micros(us);
        Run { elapsed, events }
    }

    #[test]
    fn sides_alternate_and_read_as_their_fastest_iteration() {
        let log = RefCell::new(Vec::new());
        let a = scripted("a", &[7, 900, 5, 6], &log);
        let b = scripted("b", &[20, 21, 800, 19], &log);
        let (ra, rb) = measure_paired(4, (1, &a), (1, &b));
        assert_eq!(*log.borrow(), ["a", "b", "a", "b", "a", "b", "a", "b"]);
        // One slow outlier per side (900, 800) moves neither reading.
        assert_eq!((ra, rb), (run(5_000, 1), run(19_000, 1)));
    }

    #[test]
    fn repeats_sum_within_an_iteration_before_the_minimum_is_taken() {
        let log = RefCell::new(Vec::new());
        // Iterations of a: 3+4, 30+1, 2+3 — the fastest *iteration* is 5,
        // though the fastest single run (1) sits in the slowest one.
        let a = scripted("a", &[3, 4, 30, 1, 2, 3], &log);
        let b = scripted("b", &[10, 11, 12], &log);
        let (ra, rb) = measure_paired(3, (2, &a), (1, &b));
        assert_eq!(*log.borrow(), ["a", "a", "b", "a", "a", "b", "a", "a", "b"]);
        assert_eq!((ra, rb), (run(5_000, 2), run(10_000, 1)));
    }

    #[test]
    fn a_bound_fails_exactly_when_crossed() {
        let row = |compare, bound| Pair {
            compare,
            bound,
            ..PAIRS[0]
        };
        // Side a reads 1 µs/event throughout; b is given in µs per 1,000.
        let ok = |pair: Pair, b_us: u64| pair.judge(run(1_000, 1_000), run(b_us, 1_000)).1;
        let at_most = row(Compare::UsPerEvent, Some(Bound::AtMost(4.0)));
        assert!(ok(at_most, 4_000) && !ok(at_most, 4_500));
        let at_least = row(Compare::UsPerEvent, Some(Bound::AtLeast(1.5)));
        assert!(ok(at_least, 1_500) && !ok(at_least, 1_250));
        // An amount, not a ratio: 0.25 and 0.5 µs/event added.
        let added = row(Compare::UsPerEventAdded, Some(Bound::AtMost(0.25)));
        assert!(ok(added, 1_250) && !ok(added, 1_500));
        // A reported row never fails, and milliseconds per run divide by
        // each side's own repeats (40 on both sides of row 0).
        let reported = row(Compare::MsPerRun, None);
        assert!(ok(reported, 1_000_000));
        let (line, _) = reported.judge(run(40_000, 7), run(80_000, 1));
        let wanted = "trace_overhead ratio: trace_overhead 2.000 ms vs trace_overhead_null \
                      1.000 ms = 2.000x — reported; iterations of 80 vs 40 ms";
        assert_eq!(line, wanted);
    }

    #[test]
    fn the_table_is_five_gates_and_two_reports_with_distinct_sides() {
        let names = PAIRS.iter().flat_map(|p| [p.a.name, p.b.name]);
        assert_eq!(
            names.collect::<BTreeSet<_>>().len(),
            14,
            "side names repeat"
        );
        assert!(PAIRS
            .iter()
            .all(|p| p.iters >= 3 && p.a.repeats * p.b.repeats > 0));
        let reported = PAIRS.iter().filter(|p| p.bound.is_none());
        let reported: Vec<&str> = reported.map(|p| p.name).collect();
        assert_eq!(reported, ["scale_bigswitch", "scale_waxman_100k"]);
        let lines: BTreeSet<&str> = PAIRS.iter().map(|p| p.name).collect();
        assert_eq!(lines.len(), 6, "only the sched_hold depths share a prefix");
    }

    #[test]
    fn scenarios_settle_and_count_events() {
        // One run of each side, debug-mode cheap: every row but the two
        // 100k-node region pairs. The only test to run the traced side —
        // its scratch file is named after the process, not the thread.
        for pair in PAIRS.iter().filter(|p| !p.name.starts_with("scale_")) {
            let (a, b) = measure_paired(1, (1, &pair.a.run), (1, &pair.b.run));
            let (line, _) = pair.judge(a, b);
            assert!(a.events > 0 && b.events > 0, "{line}");
            assert!(line.starts_with(pair.name), "{line}");
            // The sink must not change what the engine does.
            assert!(pair.name != "trace_overhead" || a.events == b.events);
        }
        let scratch = TraceScratch::create();
        assert!(!scratch.0.exists(), "the traced side removes its file");
    }

    #[test]
    fn event_totals_are_seed_deterministic() {
        // µs/event means something only if a side counts the same events
        // every time.
        let narrow = PAIRS[1].a.run;
        assert_eq!(narrow().events, narrow().events);
    }
}
