//! Integration tests over the streaming sink, driving real LSRP
//! simulations: the golden JSONL schema snapshot (exact per-kind key
//! sets, pinned so any layout change forces a deliberate
//! `SCHEMA_VERSION` decision), the bounded-memory guarantee (the
//! sink's footprint is O(nodes), flat in the event count), and the
//! two facts the sink reports but does not own: the `end` frame's
//! message totals are the engine's `EngineStats`, and the `rt` frames
//! are the route view's deltas.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::sink::SinkKind;
use lsrp_sim::{EngineConfig, LinkConfig, RouteDelta};
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
}

/// A traced 5x5 grid over a lossy, duplicating link, from arbitrary state.
fn lossy_traced_sim(path: &Path) -> LsrpSimulation {
    let factory = streaming_factory(TraceConfig::new(path), SinkKind::CountsOnly).unwrap();
    let engine = EngineConfig::default()
        .with_seed(19)
        .with_link(
            LinkConfig::jittered(0.5, 1.5)
                .with_loss(0.1)
                .with_duplication(0.1),
        )
        .with_sink_factory(factory);
    LsrpSimulation::builder(generators::grid(5, 5, 1), NodeId::new(0))
        .timing(TimingConfig::for_network(1.4, 1.5).with_syn_period(4.0))
        .initial_state(InitialState::Arbitrary { seed: 4 })
        .engine_config(engine)
        .build()
}

/// Stabilizes, flaps one link's weight, corrupts a node, fails a node
/// with messages in flight, and re-stabilizes.
fn eventful_run(sim: &mut LsrpSimulation) {
    sim.run_until(200.0);
    for w in [5, 1, 7, 1] {
        sim.set_weight(NodeId::new(6), NodeId::new(7), w).unwrap();
        sim.run_until(sim.now().seconds() + 60.0);
    }
    sim.corrupt_distance(NodeId::new(18), Distance::ZERO);
    sim.run_until(sim.now().seconds() + 0.7);
    assert!(sim.engine().inflight_messages() > 0);
    sim.fail_node(NodeId::new(12)).unwrap();
    sim.run_until(sim.now().seconds() + 300.0);
}

#[test]
fn end_frame_message_totals_are_the_engine_stats() {
    let path = tmp("msgs.jsonl");
    let mut sim = lossy_traced_sim(&path);
    eventful_run(&mut sim);
    let stats = sim.stats();
    drop(sim); // closes the sink: writes the `end` frame
    let frames = read_trace(&path).unwrap();
    let end = frames.last().unwrap();
    assert_eq!(kind(end), Some("end"));
    let msgs = end.get("msgs").unwrap();
    for (key, want) in [
        ("sent", stats.messages_sent),
        ("delivered", stats.messages_delivered),
        ("dropped_lossy", stats.dropped_lossy_link),
        ("dropped_dead", stats.dropped_dead_receiver),
        ("duplicated", stats.messages_duplicated),
    ] {
        assert!(want > 0, "the run must exercise '{key}'");
        assert_eq!(
            msgs.get(key).and_then(Json::as_u64),
            Some(want),
            "msgs.{key}"
        );
    }
}

#[test]
fn rt_frames_are_the_route_view_deltas() {
    let path = tmp("routes.jsonl");
    let mut sim = lossy_traced_sim(&path);
    let cursor = sim.route_cursor();
    eventful_run(&mut sim);
    let deltas: Vec<RouteDelta> = sim.route_deltas_since(cursor).to_vec();
    drop(sim);
    let frames = read_trace(&path).unwrap();
    let rt: Vec<&Json> = frames.iter().filter(|f| kind(f) == Some("rt")).collect();
    // The cursor was taken right after construction, whose only route
    // frames are the 25 initial entries at t = 0.
    let (initial, logged) = rt.split_at(25);
    assert!(initial
        .iter()
        .all(|f| f.get("t").and_then(Json::as_f64) == Some(0.0)));
    assert!(
        deltas.iter().any(|d| d.new.is_none()),
        "the run fails a node"
    );
    assert!(deltas.len() > 100, "only {} deltas", deltas.len());
    assert_eq!(logged.len(), deltas.len(), "one rt frame per view delta");
    for (frame, delta) in logged.iter().zip(&deltas) {
        let n = frame.get("n").and_then(Json::as_u64);
        assert_eq!(n, Some(u64::from(delta.node.raw())));
        match delta.new {
            Some(e) => {
                let d = match e.route.distance {
                    Distance::Finite(d) => Some(d),
                    Distance::Infinite => None,
                };
                assert_eq!(frame.get("d").and_then(Json::as_u64), d, "{frame:?}");
                let p = frame.get("p").and_then(Json::as_u64);
                assert_eq!(p, Some(u64::from(e.route.parent.raw())));
                assert_eq!(frame.get("c").and_then(Json::as_bool), Some(e.containment));
            }
            None => assert_eq!(frame.get("up").and_then(Json::as_bool), Some(false)),
        }
    }
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
    // 1 MiB write buffer + O(nodes) wave state. ~64 bytes per
    // node of slack is generous; the point is it is not O(events).
    assert!(
        footprint < (1 << 20) + nodes * 64 + (1 << 16),
        "footprint {footprint} bytes is not O(nodes) at n={nodes}"
    );
}
