//! What the streaming sink allocates, counted: a cold start traced into a
//! file makes a fixed number of allocations more than the same cold start
//! on a sink that records nothing, however many frames it writes. Every
//! frame is assembled in one reused line buffer and written through one
//! `BufWriter`; an allocation per frame (a `format!` in `emit`, say)
//! shows up here as thousands more.
//!
//! The count comes from a counting global allocator, so this file holds a
//! single test: the allocator counts per thread, and the engine runs its
//! sequential cold start on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, NodeId};
use lsrp_sim::sink::SinkKind;
use lsrp_sim::EngineConfig;
use lsrp_trace::{streaming_factory, TraceConfig};

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by a fresh-state LSRP cold start on a `cols`×`rows`
/// grid, from building the sink to dropping the simulation, on a
/// [`SinkKind::CountsOnly`] sink — or, with `trace`, on the streaming
/// sink writing every frame class over one.
fn cold_start_allocations(cols: u32, rows: u32, trace: Option<&Path>) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let mut config = EngineConfig::default()
        .with_seed(42)
        .with_sink(SinkKind::CountsOnly);
    if let Some(path) = trace {
        let factory = streaming_factory(TraceConfig::new(path), SinkKind::CountsOnly);
        config = config.with_sink_factory(factory.expect("the trace file opens"));
    }
    let mut sim = LsrpSimulation::builder(generators::grid(cols, rows, 1), NodeId::new(0))
        .initial_state(InitialState::Fresh)
        .engine_config(config)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
    drop(sim);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_streaming_sink_allocates_at_set_up_never_per_frame() {
    let dir = std::env::temp_dir().join(format!("lsrp-trace-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cold-start.jsonl");
    // The bounds are the counts measured: a few dozen set-up allocations
    // (the file, its buffer, the header, the per-node wave stamps growing
    // to the node count) against thousands of frames.
    for (cols, rows, bound) in [(25, 20, 30), (40, 25, 32), (50, 40, 34)] {
        let plain = cold_start_allocations(cols, rows, None);
        let traced = cold_start_allocations(cols, rows, Some(&path));
        let frames = std::fs::read_to_string(&path).unwrap().lines().count();
        let added = traced - plain;
        println!("grid {cols}x{rows}: +{added} allocations for {frames} frames");
        assert!(added <= bound, "grid {cols}x{rows}: +{added} allocations");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
