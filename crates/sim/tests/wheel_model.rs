//! Property test: the calendar-wheel scheduler is observationally
//! identical to a sorted model under any interleaving of schedule and
//! pop.
//!
//! The model is the specification itself — a totally ordered set of
//! `(time, key, payload)` triples popped in ascending `(time, key)`
//! order, where the key is the engine's canonical `(src, k)` pair.
//! Times are drawn from mixed magnitudes (sub-second bursts up
//! to ~1e12) so runs cross bucket boundaries, spill into the far pile
//! and force rotations; pops interleave with inserts so entries also
//! land behind the cursor, in already-visited days, and bounded pops
//! (`pop_if`) either refuse or admit exactly the model's head. After
//! every op the queue's head `(time, key)` and length must match the
//! model's. Those random sequences are short (at most 400 ops); the long
//! seeded ones of `sequences/mod.rs` run the same check through density
//! retunes, bucket-count changes and same-instant follow-ups that pop
//! ahead of the rest of their instant.
//!
//! The vendored `proptest` stand-in only supplies range strategies, so
//! each case draws a seed and expands it into an op sequence with the
//! deterministic [`TestRng`] — a failing case reports the seed, which
//! reproduces the exact sequence.

mod sequences;

use std::collections::BTreeSet;

use sequences::Op;

use lsrp_sim::{EventKey, EventQueue, SchedulerKind, SimTime};
use proptest::prelude::*;

/// Totally ordered reference queue. Times are non-negative (`+∞`
/// included), so the IEEE-754 bit pattern orders exactly like the number
/// and the set pops in `(time, src, k)` order.
#[derive(Default)]
struct Model {
    pending: BTreeSet<(u64, u32, u64, u32)>,
}

impl Model {
    fn schedule(&mut self, time: f64, key: EventKey, payload: u32) {
        self.pending
            .insert((time.to_bits(), key.src, key.k, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, EventKey, u32)> {
        let &entry = self.pending.iter().next()?;
        self.pending.remove(&entry);
        Some((
            SimTime::new(f64::from_bits(entry.0)),
            EventKey {
                src: entry.1,
                k: entry.2,
            },
            entry.3,
        ))
    }

    fn peek(&self) -> Option<(SimTime, EventKey)> {
        let &(t, src, k, _) = self.pending.iter().next()?;
        Some((SimTime::new(f64::from_bits(t)), EventKey { src, k }))
    }
}

fn unit(rng: &mut TestRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Mixed-magnitude times: dense sub-second clusters (many entries per
/// bucket), mid-range spread, and far-future outliers that land in the
/// far pile and trigger rotation when reached.
fn gen_time(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 10 {
        0..=3 => unit(rng),
        4..=6 => unit(rng) * 1e3,
        7..=8 => unit(rng) * 1e9,
        _ => 9.0e11 + unit(rng) * 1e11,
    }
}

/// Expands a seed into an op sequence: schedules dominate early so the
/// queue fills, and pops dominate by weight enough to drain regularly.
/// One op in ten follows up the last pop at its instant, and one in ten
/// is a bounded pop that refuses or admits with equal odds.
fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = TestRng::deterministic(seed);
    let len = 1 + (rng.next_u64() % 400) as usize;
    (0..len)
        .map(|_| match rng.next_u64() % 10 {
            0..=4 => Op::At(gen_time(&mut rng)),
            5 => Op::Follow,
            6 => Op::PopIf(rng.next_u64().is_multiple_of(2)),
            _ => Op::Pop,
        })
        .collect()
}

/// Runs one op sequence against the given backend, checking every pop,
/// the head and length after every op, and the final drain against the
/// model.
fn check_backend(kind: SchedulerKind, ops: &[Op]) {
    let mut queue: EventQueue<u32> = EventQueue::new(kind);
    let mut model = Model::default();
    let mut now = 0.0;
    for (i, op) in ops.iter().enumerate() {
        // Ordinary entries cycle src over 1..=3 so same-time ties exercise
        // the src-before-k ordering, with k unique per op. A follow-up
        // takes src 0 and a k that falls as ops go on, so its key sorts
        // below every other one scheduled so far — the popped entry's
        // included.
        let ordinary = EventKey {
            src: 1 + (i % 3) as u32,
            k: i as u64,
        };
        let at = match *op {
            Op::At(time) => Some((time, ordinary)),
            Op::After(dt) => Some((now + dt, ordinary)),
            Op::Follow => Some((
                now,
                EventKey {
                    src: 0,
                    k: u64::MAX - i as u64,
                },
            )),
            Op::PopIf(false) => {
                let got = queue.pop_if(|_| false);
                assert!(got.is_none(), "op {i}: {kind:?} popped past a refusal");
                None
            }
            Op::Pop | Op::PopIf(true) => {
                let head = model.peek();
                let got = match op {
                    Op::Pop => queue.pop(),
                    _ => queue.pop_if(|at| Some(at) == head),
                };
                assert_eq!(
                    got,
                    model.pop(),
                    "op {i}: {kind:?} {op:?} diverged from model"
                );
                if let Some((t, _, _)) = got {
                    now = t.seconds();
                }
                None
            }
        };
        if let Some((time, key)) = at {
            let payload = i as u32;
            queue.schedule(SimTime::new(time), key, payload);
            model.schedule(time, key, payload);
        }
        assert_eq!(queue.len(), model.pending.len(), "op {i}: len diverged");
        assert_eq!(queue.peek(), model.peek(), "op {i}: peek diverged");
    }
    while let Some(want) = model.pop() {
        assert_eq!(queue.pop(), Some(want), "final drain diverged");
    }
    assert!(queue.pop().is_none(), "queue must be empty after drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of schedule/pop on the wheel matches the
    /// sorted model exactly, across magnitudes that exercise the far
    /// pile and rotation boundaries. The heap backend is held to the
    /// same specification, so wheel ≡ heap follows transitively.
    #[test]
    fn wheel_and_heap_match_sorted_model(seed in 0u64..1_000_000) {
        let ops = gen_ops(seed);
        check_backend(SchedulerKind::Wheel, &ops);
        check_backend(SchedulerKind::Heap, &ops);
    }
}

/// The long sequences (hold model at two depths, traffic-shaped mix,
/// same-instant burst, burst then silence over a large far pile, `+∞`
/// times, inserts behind the cursor across retunes, zero-hold follow-ups
/// at shared instants): every pop, length and head `(time, key)` matches
/// the sorted model on both backends.
#[test]
fn long_sequences_match_sorted_model() {
    for (name, ops) in sequences::all(0x15C0_FFEE) {
        assert!(ops.len() >= 50_000, "{name} is too short to reach a retune");
        check_backend(SchedulerKind::Wheel, &ops);
        check_backend(SchedulerKind::Heap, &ops);
    }
}
