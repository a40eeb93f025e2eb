//! Long seeded operation sequences for the event queue, shared by
//! `tests/wheel_model.rs` (every pop against the sorted-set model, both
//! backends) and the unit tests of `src/sched.rs` (the amortised-work
//! bound, which needs the calendar's private counter). Each sequence is
//! long enough to cross several density epochs, so it runs through
//! retunes, bucket-count changes and rotations that the short random
//! interleavings never reach. Only `std` is used: the file is compiled
//! into both test crates by path.

/// One step of a sequence.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Schedule an entry at this time, wherever the queue's head is. Only
    /// the short random sequences of `wheel_model.rs` build these (to land
    /// entries behind the cursor), hence dead code in the other test crate.
    #[allow(dead_code)]
    At(f64),
    /// Schedule an entry this long after the most recently popped time
    /// (after time zero before the first pop).
    After(f64),
    /// Schedule an entry at the most recently popped instant under a key
    /// smaller than that popped entry's: the engine's zero-hold guard
    /// timer, armed on a lower-numbered node while it handles a message.
    /// It lands in a day that is already open and pops next.
    Follow,
    /// Pop the minimum.
    Pop,
    /// Pop through `pop_if` with an admission test that refuses (`false`)
    /// or admits exactly the model's head (`true`). Only the short random
    /// sequences of `wheel_model.rs` build these.
    #[allow(dead_code)]
    PopIf(bool),
}

/// SplitMix64: small, seedable, and good enough to shape a workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The classic hold model: fill to `depth`, then `holds` times pop the
/// minimum and schedule one entry a random increment (mean `depth`) later.
fn hold(rng: &mut Rng, depth: usize, holds: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(depth + 2 * holds);
    let increment = |rng: &mut Rng| Op::After(rng.unit() * 2.0 * depth as f64);
    ops.extend((0..depth).map(|_| increment(rng)));
    for _ in 0..holds {
        ops.push(Op::Pop);
        ops.push(increment(rng));
    }
    ops
}

/// The congested data plane's shape: a few hundred pending events, most
/// of them 2.5 ms port drains, some 1 s link hops, a few 2–60 s flow
/// timers that mostly sit far beyond the busy window.
fn traffic(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    let delay = |rng: &mut Rng| match rng.next_u64() % 10 {
        0..=5 => Op::After(0.0025),
        6..=8 => Op::After(1.0),
        _ => Op::After(2.0 + rng.unit() * 58.0),
    };
    ops.extend((0..300).map(|_| delay(rng)));
    for _ in 0..60_000 {
        ops.push(Op::Pop);
        ops.push(delay(rng));
    }
    ops
}

/// A cold start: 100k timers armed for one instant, then drained while
/// handlers keep scheduling at that same instant and a little later.
fn same_instant_burst(rng: &mut Rng) -> Vec<Op> {
    let mut ops = vec![Op::After(5.0); 100_000];
    for _ in 0..100_000 {
        ops.push(Op::Pop);
        if rng.next_u64().is_multiple_of(4) {
            ops.push(Op::After((rng.next_u64() % 2) as f64));
        }
    }
    ops
}

/// A dense burst over a large sparse pile of far timers, then silence:
/// once the burst is drained every pop has to come out of the far pile.
fn burst_then_silence(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    ops.extend((0..50_000).map(|_| Op::After(1e4 + rng.unit() * 1e6)));
    ops.extend((0..5_000).map(|_| Op::After(rng.unit())));
    for _ in 0..20_000 {
        ops.push(Op::Pop);
        ops.push(Op::After(rng.unit() * 1e-3));
    }
    ops.extend(std::iter::repeat_n(Op::Pop, 40_000));
    ops
}

/// A hold model in which one increment in ten is `+∞`: those entries
/// pile up on the last day, must neither be lost nor rescanned for ever,
/// and are all that is left to pop once the finite times run out.
fn with_infinities(rng: &mut Rng) -> Vec<Op> {
    let mut ops = hold(rng, 2_000, 40_000);
    for op in &mut ops {
        if let Op::After(dt) = op {
            if rng.next_u64().is_multiple_of(10) {
                *dt = f64::INFINITY;
            }
        }
    }
    ops
}

/// A hold model whose density jumps a hundredfold twice (each jump forces
/// a retune), while every pop is also followed by an entry at the popped
/// instant itself — at or behind the cursor, whatever the width is now.
fn behind_the_cursor(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    ops.extend((0..2_000).map(|_| Op::After(rng.unit() * 4_000.0)));
    for phase in [1.0, 0.01, 1.0] {
        for _ in 0..15_000 {
            ops.push(Op::Pop);
            ops.push(Op::After(0.0));
            ops.push(Op::Pop);
            ops.push(Op::After(rng.unit() * 8_000.0 * phase));
        }
    }
    ops
}

/// A hold model on whole seconds, so dozens of entries share each
/// instant, in which half the pops schedule a zero-hold follow-up at the
/// popped instant under a smaller key instead of an entry up to a minute
/// later: an open day's sorted entries and the ones inserted after it
/// opened interleave at equal times, in chains of follow-ups of
/// follow-ups.
fn follow_ups(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    let later = |rng: &mut Rng| Op::After((rng.next_u64() % 64) as f64);
    ops.extend((0..2_000).map(|_| later(rng)));
    for _ in 0..30_000 {
        ops.push(Op::Pop);
        ops.push(if rng.next_u64().is_multiple_of(2) {
            Op::Follow
        } else {
            later(rng)
        });
    }
    ops
}

/// Every long sequence, by name, from one seed.
pub fn all(seed: u64) -> Vec<(&'static str, Vec<Op>)> {
    let rng = &mut Rng::new(seed);
    vec![
        ("hold_1k", hold(rng, 1_000, 60_000)),
        ("hold_100k", hold(rng, 100_000, 250_000)),
        ("traffic", traffic(rng)),
        ("same_instant_burst", same_instant_burst(rng)),
        ("burst_then_silence", burst_then_silence(rng)),
        ("with_infinities", with_infinities(rng)),
        ("behind_the_cursor", behind_the_cursor(rng)),
        ("follow_ups", follow_ups(rng)),
    ]
}
