//! What a repair allocates does not depend on where in the id space it
//! happens: a `p = 1` corruption at the lowest id and at the highest id
//! of a 100×100 grid run the same actions and messages, and allocate the
//! same number of blocks and the same bytes. Per-node arrays grown on
//! first touch — sized to the highest id touched — would make the
//! high-id repair pay for every lower id.
//!
//! The count comes from a counting global allocator, so this file holds a
//! single test: the allocator counts per thread, and the engine runs its
//! sequential repair on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lsrp_core::{LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::sink::SinkKind;
use lsrp_sim::EngineConfig;

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread, and the bytes each one asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(actions, messages delivered, allocations, bytes)` of the repair
/// after `victim`'s distance is forged to 0 on a settled 100×100 grid
/// routing to `(50, 49)`. That destination lies on the anti-diagonal, so
/// the reflection across it, `(x, y) ↦ (99 - y, 99 - x)`, maps the grid
/// and the destination onto themselves and swaps ids 0 and 9,999; it
/// maps a `+x` step (id + 1) at one corner to a `-y` step (id - 100) at
/// the other, so every smaller-id tie-break the repair meets is mirrored
/// too. (With the destination at `(99, 0)` a neighbour of `v0` picks it
/// as parent over a larger id, while the mirror neighbour of `v9999`
/// picks the smaller id that is not the victim: one more guard runs.)
fn repair(victim: u32) -> (u64, u64, u64, u64) {
    let config = EngineConfig::default()
        .with_seed(42)
        .with_sink(SinkKind::CountsOnly);
    let mut sim = LsrpSimulation::builder(generators::grid(100, 100, 1), NodeId::new(4_950))
        .engine_config(config)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
    let before = sim.stats();
    let (blocks, bytes) = ALLOCATIONS.with(Cell::get);
    sim.corrupt_distance(NodeId::new(victim), Distance::ZERO);
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
    let (blocks_after, bytes_after) = ALLOCATIONS.with(Cell::get);
    assert!(sim.routes_correct(), "the repair at v{victim} converged");
    let after = sim.stats();
    (
        after.events.guard_fires - before.events.guard_fires,
        after.messages_delivered - before.messages_delivered,
        blocks_after - blocks,
        bytes_after - bytes,
    )
}

#[test]
fn a_repair_allocates_the_same_at_the_lowest_and_the_highest_id() {
    let low = repair(0);
    let high = repair(9_999);
    println!("(actions, messages, allocations, bytes): v0 {low:?}, v9999 {high:?}");
    assert!(low.0 > 0, "the forged distance was repaired");
    assert_eq!(low, high);
}
