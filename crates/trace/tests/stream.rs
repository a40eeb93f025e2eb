//! Integration tests over the streaming sink, driving real LSRP
//! simulations: the golden JSONL schema snapshot (exact per-kind key
//! sets, pinned so any layout change forces a deliberate
//! `SCHEMA_VERSION` decision) and the bounded-memory guarantee (the
//! sink's footprint is O(nodes), flat in the event count).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::sink::SinkKind;
use lsrp_sim::EngineConfig;
use lsrp_trace::json::Json;
use lsrp_trace::reader::{kind, read_trace};
use lsrp_trace::{streaming_factory, TraceConfig, SCHEMA_VERSION};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lsrp-trace-itest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The canonical small traced run: a 4x4 grid stabilized from arbitrary
/// state, one corruption, re-stabilized. `snapshot_every` is lowered so
/// the run crosses several snap cadences.
fn traced_run(path: &Path) -> Vec<Json> {
    let mut config = TraceConfig::new(path);
    config.topology = Some("grid:4x4".to_string());
    config.snapshot_every = 64;
    let factory = streaming_factory(config, SinkKind::Full).unwrap();
    let engine = EngineConfig::default()
        .with_seed(7)
        .with_sink_factory(factory);
    let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), NodeId::new(0))
        .initial_state(InitialState::Arbitrary { seed: 3 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(100_000.0).quiescent);
    sim.corrupt_distance(NodeId::new(5), Distance::ZERO);
    assert!(sim.run_to_quiescence(100_000.0).quiescent);
    drop(sim); // finishes the sink: flushes the `end` frame
    read_trace(path).unwrap()
}

/// Sorted key signature of an object frame, e.g. `"k,n,t,up"`.
fn signature(frame: &Json) -> String {
    let Json::Obj(map) = frame else {
        panic!("frame is not an object: {frame:?}");
    };
    map.keys().cloned().collect::<Vec<_>>().join(",")
}

/// The golden schema: every legal key signature, per frame kind. A new
/// field or a rename lands here *and* in DESIGN.md §16 — and if the
/// change is not purely additive, bumps `SCHEMA_VERSION`.
fn golden_signatures(kind: &str) -> &'static [&'static str] {
    match kind {
        "hdr" => &["classes,edges,k,nodes,schema,seed,snapshot_every,topology,v"],
        "topo" => &["k,nodes", "edges,k"],
        "act" => &["a,k,m,n,t,var"],
        "wave" => &["dt,epoch,k,n,t"],
        "rt" => &["c,d,k,n,p,t", "k,n,t,up"],
        "q" => &["a,b,drop,k,occ,t"],
        "pkt" => &[
            "dst,fate,hops,k,lat,src,t,w",
            "dst,fate,flow,hops,k,lat,src,t,w",
            "at,dst,fate,hops,k,lat,src,t,w",
            "at,dst,fate,flow,hops,k,lat,src,t,w",
            "cycle,dst,fate,hops,k,lat,src,t,w",
            "cycle,dst,fate,flow,hops,k,lat,src,t,w",
        ],
        "flow" => &["acked,dst,goodput,id,k,marks,retx,segs,src,start,t,timeouts,w"],
        "mark" => &["a,b,k,kind,t"],
        "snap" => &["epoch,k,seq,t,tally"],
        "end" => &["k,msgs,seq,t,tally"],
        other => panic!("unknown frame kind '{other}'"),
    }
}

#[test]
fn golden_jsonl_schema_snapshot() {
    let path = tmp("golden.jsonl");
    let frames = traced_run(&path);

    // Every frame matches one of the golden per-kind signatures.
    for frame in &frames {
        let k = kind(frame).expect("every frame has a string k field");
        let sig = signature(frame);
        assert!(
            golden_signatures(k).contains(&sig.as_str()),
            "frame kind '{k}' has unexpected key set '{sig}' — schema drift; \
             update the golden table, DESIGN.md §16 and (if breaking) SCHEMA_VERSION"
        );
    }

    // The control-plane run produces exactly these kinds, in a fixed
    // coarse order: hdr first, topo next, end last.
    let kinds: BTreeSet<&str> = frames.iter().filter_map(kind).collect();
    for required in ["hdr", "topo", "act", "wave", "rt", "snap", "end"] {
        assert!(kinds.contains(required), "missing '{required}' frames");
    }
    assert_eq!(kind(&frames[0]), Some("hdr"));
    assert_eq!(kind(&frames[1]), Some("topo"));
    assert_eq!(kind(frames.last().unwrap()), Some("end"));

    // The header is pinned exactly.
    let hdr = &frames[0];
    assert_eq!(hdr.get("schema").and_then(Json::as_str), Some("lsrp-trace"));
    assert_eq!(
        hdr.get("v").and_then(Json::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    assert_eq!(hdr.get("seed").and_then(Json::as_u64), Some(7));
    assert_eq!(hdr.get("nodes").and_then(Json::as_u64), Some(16));
    assert_eq!(hdr.get("edges").and_then(Json::as_u64), Some(24));
    assert_eq!(hdr.get("topology").and_then(Json::as_str), Some("grid:4x4"));
    assert_eq!(hdr.get("snapshot_every").and_then(Json::as_u64), Some(64));
    let classes: Vec<&str> = hdr
        .get("classes")
        .and_then(Json::as_arr)
        .expect("classes is an array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        classes,
        [
            "actions",
            "waves",
            "routes",
            "queues",
            "packets",
            "flows",
            "markers",
            "snapshots"
        ]
    );

    // Sub-object layouts of the end frame are pinned too.
    let end = frames.last().unwrap();
    assert_eq!(
        signature(end.get("msgs").unwrap()),
        "delivered,dropped_dead,dropped_lossy,duplicated,sent"
    );
    assert_eq!(
        signature(end.get("tally").unwrap()),
        "actions,drops,flows,markers,packets,queues,routes,waves"
    );
    assert!(end.get("msgs").unwrap().get("sent").and_then(Json::as_u64) > Some(0));
}

#[test]
fn sink_memory_is_flat_in_the_event_count() {
    // Two runs on the same 12x12 grid, one with ~6x the event volume
    // (more corruptions, longer horizon). The sink's footprint must not
    // grow with events — only with the node count.
    let footprint_after = |corruptions: u32, name: &str| {
        let path = tmp(name);
        let factory = streaming_factory(TraceConfig::new(&path), SinkKind::Full).unwrap();
        let engine = EngineConfig::default()
            .with_seed(11)
            .with_sink_factory(factory);
        let mut sim = LsrpSimulation::builder(generators::grid(12, 12, 1), NodeId::new(0))
            .initial_state(InitialState::Arbitrary { seed: 5 })
            .engine_config(engine)
            .build();
        assert!(sim.run_to_quiescence(100_000.0).quiescent);
        for i in 0..corruptions {
            sim.corrupt_distance(NodeId::new(20 + i * 7), Distance::ZERO);
            assert!(sim.run_to_quiescence(100_000.0).quiescent);
        }
        sim.engine()
            .sink()
            .footprint()
            .expect("streaming sink reports a footprint")
    };
    let small = footprint_after(1, "mem-small.jsonl");
    let large = footprint_after(6, "mem-large.jsonl");
    assert_eq!(
        small, large,
        "sink footprint grew with event volume — unbounded buffering"
    );
}

#[test]
#[ignore = "100k-node scale check; run with --ignored"]
fn sink_memory_is_bounded_at_100k_nodes() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(9);
    // Small alpha keeps the link radius — and so the degree — local;
    // 100k nodes stay within a few hundred thousand edges.
    let graph = generators::waxman(100_000, 0.002, 0.5, &mut rng);
    let nodes = graph.node_count();
    let path = tmp("mem-100k.jsonl");
    let factory = streaming_factory(TraceConfig::new(&path), SinkKind::CountsOnly).unwrap();
    let engine = EngineConfig::default()
        .with_seed(13)
        .with_sink_factory(factory);
    let mut sim = LsrpSimulation::builder(graph, NodeId::new(0))
        .initial_state(InitialState::Legitimate)
        .engine_config(engine)
        .build();
    sim.corrupt_distance(NodeId::new(50_000), Distance::ZERO);
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
    let footprint = sim.engine().sink().footprint().unwrap();
    // 1 MiB write buffer + O(nodes) route/wave state. ~64 bytes per
    // node of slack is generous; the point is it is not O(events).
    assert!(
        footprint < (1 << 20) + nodes * 64 + (1 << 16),
        "footprint {footprint} bytes is not O(nodes) at n={nodes}"
    );
}
