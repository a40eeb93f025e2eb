//! Streaming structured trace export (DESIGN.md §16).
//!
//! [`StreamingSink`] implements [`TraceSink`] on top of a file: every
//! region-invariant observability hook the engine exposes — actions,
//! route-view deltas, per-port queue transitions, packet and flow fates,
//! driver markers — is serialized as one *frame* of a versioned,
//! schema'd JSONL stream (one JSON object per line).
//!
//! Design constraints, in order:
//!
//! 1. **Region invariance.** Every frame derives from the engine's
//!    ordered ObsOps merge or from serial driver context, so the trace
//!    file is byte-identical for every `--regions` value. Message totals
//!    are not streamed: the `end` frame carries the engine's final
//!    [`EngineStats`], handed over by [`TraceSink::close`].
//! 2. **Bounded memory.** The sink retains O(nodes) state (a wave-epoch
//!    stamp per node) plus a fixed-size write-behind buffer — never
//!    O(events). Route updates arrive already deduplicated by the
//!    engine's route view, so the sink keeps no route cache.
//!    [`TraceSink::footprint`] reports the retained bytes so tests can
//!    pin this.
//! 3. **Self-description.** The stream opens with a header frame
//!    (schema version, seed, topology label) and topology frames
//!    (nodes, edges), carries periodic `snap` frames so a reader can
//!    coarsely seek, and closes with an `end` frame of totals.
//!
//! Frame kinds (`"k"` field): `hdr`, `topo`, `act`, `wave`, `rt`, `q`,
//! `pkt`, `flow`, `mark`, `snap`, `end`. *Wave* frames are derived by
//! the sink itself: the first non-maintenance action of each node since
//! the current *epoch* (epochs advance with each batch of same-time
//! driver markers), which is exactly the paper's wave front — per-node
//! first-action time since the fault.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod reader;

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Mutex;

use lsrp_graph::{Distance, Graph, NodeId};
use lsrp_sim::flow::FlowRecord;
use lsrp_sim::sink::{MarkerKind, SinkFactory, SinkKind, TraceSink};
use lsrp_sim::trace::{ActionRecord, Trace};
use lsrp_sim::traffic::{PacketRecord, PacketStatus};
use lsrp_sim::view::ViewEntry;
use lsrp_sim::{EngineStats, SimTime};

use crate::json::{push_f64, push_str_escaped, push_u64};

/// Appends a JSON boolean.
fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// The last value one frame field printed, with its text: frames repeat
/// the previous frame's `t` far more often than not, and copying the
/// text back is much cheaper than formatting the float again. The text
/// is held inline, so the cache allocates nothing; a text longer than
/// the buffer is printed by [`push_f64`] every time.
struct FloatText {
    bits: u64,
    /// Length of `text`; 0 while nothing is cached.
    len: u8,
    text: [u8; FloatText::CAP],
}

impl FloatText {
    const CAP: usize = 32;

    const EMPTY: FloatText = FloatText {
        bits: 0,
        len: 0,
        text: [0; FloatText::CAP],
    };

    /// Appends `v` to `out` exactly as [`push_f64`] does.
    fn push(&mut self, out: &mut String, v: f64) {
        if self.len > 0 && v.to_bits() == self.bits {
            let text = &self.text[..usize::from(self.len)];
            out.push_str(std::str::from_utf8(text).expect("copied from a str"));
            return;
        }
        let start = out.len();
        push_f64(out, v);
        let text = &out.as_bytes()[start..];
        self.len = 0;
        if text.len() <= Self::CAP {
            self.text[..text.len()].copy_from_slice(text);
            self.len = text.len() as u8;
            self.bits = v.to_bits();
        }
    }
}

/// Trace schema version (the `"v"` field of the header frame). Bump on
/// any breaking change to frame layout; additive fields do not bump it.
pub const SCHEMA_VERSION: u32 = 1;

/// Write-behind buffer size: the only event-rate-facing allocation, and
/// it is fixed.
const WRITE_BUFFER: usize = 1 << 20;

/// Nodes per `topo` frame.
const NODE_CHUNK: usize = 4096;

/// Edges per `topo` frame.
const EDGE_CHUNK: usize = 2048;

/// Event-class filter: which frame kinds a [`StreamingSink`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventClasses(u16);

impl EventClasses {
    /// `act` frames (every executed protocol action).
    pub const ACTIONS: EventClasses = EventClasses(1 << 0);
    /// `wave` frames (per-node first action since the last fault epoch).
    pub const WAVES: EventClasses = EventClasses(1 << 1);
    /// `rt` frames (route-view deltas).
    pub const ROUTES: EventClasses = EventClasses(1 << 2);
    /// `q` frames (bounded-port occupancy transitions and drops).
    pub const QUEUES: EventClasses = EventClasses(1 << 3);
    /// `pkt` frames (packet fates).
    pub const PACKETS: EventClasses = EventClasses(1 << 4);
    /// `flow` frames (flow completions).
    pub const FLOWS: EventClasses = EventClasses(1 << 5);
    /// `mark` frames (driver mutations).
    pub const MARKERS: EventClasses = EventClasses(1 << 6);
    /// Periodic `snap` frames.
    pub const SNAPSHOTS: EventClasses = EventClasses(1 << 7);

    const NAMES: [(&'static str, EventClasses); 8] = [
        ("actions", EventClasses::ACTIONS),
        ("waves", EventClasses::WAVES),
        ("routes", EventClasses::ROUTES),
        ("queues", EventClasses::QUEUES),
        ("packets", EventClasses::PACKETS),
        ("flows", EventClasses::FLOWS),
        ("markers", EventClasses::MARKERS),
        ("snapshots", EventClasses::SNAPSHOTS),
    ];

    /// Every class.
    pub const fn all() -> EventClasses {
        EventClasses(0xff)
    }

    /// No class (header/topology/end frames are always written).
    pub const fn none() -> EventClasses {
        EventClasses(0)
    }

    /// Whether every bit of `class` is enabled.
    pub const fn contains(self, class: EventClasses) -> bool {
        self.0 & class.0 == class.0
    }

    /// The union of `self` and `class`.
    #[must_use]
    pub const fn with(self, class: EventClasses) -> EventClasses {
        EventClasses(self.0 | class.0)
    }

    /// Parses a class list (e.g. from a scenario `[trace] classes`
    /// entry).
    ///
    /// # Errors
    ///
    /// Returns the offending name with the accepted vocabulary.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<EventClasses, String> {
        let mut out = EventClasses::none();
        for n in names {
            let n = n.as_ref();
            match Self::NAMES.iter().find(|(name, _)| *name == n) {
                Some((_, bit)) => out = out.with(*bit),
                None => {
                    return Err(format!(
                        "unknown trace event class '{n}' (expected one of: actions, \
                         waves, routes, queues, packets, flows, markers, snapshots)"
                    ));
                }
            }
        }
        Ok(out)
    }

    /// The enabled class names, in canonical order.
    pub fn names(self) -> Vec<&'static str> {
        Self::NAMES
            .iter()
            .filter(|(_, bit)| self.contains(*bit))
            .map(|(name, _)| *name)
            .collect()
    }
}

impl Default for EventClasses {
    fn default() -> Self {
        EventClasses::all()
    }
}

/// Configuration of a [`StreamingSink`] (the scenario `[trace]` section
/// and the CLI `--trace-out` flag both lower to this).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Output file path.
    pub path: PathBuf,
    /// Which event classes to write.
    pub classes: EventClasses,
    /// Ordered-event frames between `snap` frames (0 disables them;
    /// the cadence counts *written frames*, which are region-invariant,
    /// so snapshot placement is too).
    pub snapshot_every: u64,
    /// Topology label recorded in the header (e.g. `grid:8x8`), used by
    /// `lsrp viz` for exact layout.
    pub topology: Option<String>,
}

impl TraceConfig {
    /// A default-everything config writing JSONL to `path`.
    pub fn new(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig {
            path: path.into(),
            classes: EventClasses::all(),
            snapshot_every: 65_536,
            topology: None,
        }
    }
}

/// Cumulative tallies derived from the ordered stream only (safe to put
/// in `snap` frames without breaking region invariance).
#[derive(Debug, Clone, Copy, Default)]
struct StreamTally {
    actions: u64,
    waves: u64,
    routes: u64,
    queue_samples: u64,
    drops: u64,
    packets: u64,
    flows: u64,
    markers: u64,
}

/// The streaming trace sink: wraps an inner built-in sink (so analysis
/// code still sees its [`Trace`], when the inner kind keeps one) and
/// writes every region-invariant observability record as a frame.
pub struct StreamingSink {
    out: BufWriter<File>,
    classes: EventClasses,
    snapshot_every: u64,
    topology: Option<String>,
    inner: Box<dyn TraceSink>,
    /// Reusable frame assembly buffer (bounded: frames are small).
    line: String,
    /// Per-node wave stamp: `epoch + 1` once the node's wave frame for
    /// the current epoch was written, 0 otherwise (O(nodes)).
    wave_seen: Vec<u32>,
    /// Wave epoch: advanced by each batch of same-time driver markers.
    epoch: u32,
    epoch_time: f64,
    /// Ordered frames written (snap cadence + `seq` fields).
    events: u64,
    /// Time of the last written frame.
    last_time: f64,
    /// The last `t` and `dt` field texts.
    t_text: FloatText,
    dt_text: FloatText,
    tally: StreamTally,
    io_failed: bool,
    finished: bool,
}

impl std::fmt::Debug for StreamingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("events", &self.events)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl StreamingSink {
    /// Opens `config.path` and builds the sink; `inner` is the built-in
    /// sink kind the run would have used without tracing (its records
    /// remain available through [`TraceSink::trace`]).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(config: TraceConfig, inner: SinkKind) -> io::Result<StreamingSink> {
        let file = File::create(&config.path)?;
        Ok(StreamingSink {
            out: BufWriter::with_capacity(WRITE_BUFFER, file),
            classes: config.classes,
            snapshot_every: config.snapshot_every,
            topology: config.topology,
            inner: inner.build(),
            line: String::with_capacity(256),
            wave_seen: Vec::new(),
            epoch: 0,
            epoch_time: 0.0,
            events: 0,
            last_time: 0.0,
            t_text: FloatText::EMPTY,
            dt_text: FloatText::EMPTY,
            tally: StreamTally::default(),
            io_failed: false,
            finished: false,
        })
    }

    /// Writes the assembled `self.line` as one frame.
    fn emit(&mut self) {
        if self.io_failed {
            self.line.clear();
            return;
        }
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            eprintln!("lsrp-trace: write failed, disabling trace output: {e}");
            self.io_failed = true;
        }
        self.line.clear();
    }

    /// Counts an ordered event frame and writes a `snap` frame when the
    /// cadence comes due.
    fn after_event_frame(&mut self) {
        self.events += 1;
        if self.snapshot_every > 0
            && self.events.is_multiple_of(self.snapshot_every)
            && self.classes.contains(EventClasses::SNAPSHOTS)
        {
            self.write_snapshot();
        }
    }

    fn push_tally(&mut self) {
        let t = self.tally;
        self.line.push_str("{\"actions\":");
        let _ = std::fmt::Write::write_fmt(&mut self.line, format_args!("{}", t.actions));
        for (name, v) in [
            ("waves", t.waves),
            ("routes", t.routes),
            ("queues", t.queue_samples),
            ("drops", t.drops),
            ("packets", t.packets),
            ("flows", t.flows),
            ("markers", t.markers),
        ] {
            self.line.push_str(",\"");
            self.line.push_str(name);
            self.line.push_str("\":");
            let _ = std::fmt::Write::write_fmt(&mut self.line, format_args!("{v}"));
        }
        self.line.push('}');
    }

    fn write_snapshot(&mut self) {
        self.line.push_str("{\"k\":\"snap\",\"t\":");
        self.t_text.push(&mut self.line, self.last_time);
        let _ = std::fmt::Write::write_fmt(
            &mut self.line,
            format_args!(
                ",\"seq\":{},\"epoch\":{},\"tally\":",
                self.events, self.epoch
            ),
        );
        self.push_tally();
        self.line.push('}');
        self.emit();
    }

    /// Writes the `end` frame, with `stats`' message totals, and flushes.
    /// The engine calls it through [`TraceSink::close`] when it drops; a
    /// sink dropped without ever being closed (its factory never built an
    /// engine) writes zero totals. Idempotent.
    fn finish(&mut self, stats: &EngineStats) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.line.push_str("{\"k\":\"end\",\"t\":");
        self.t_text.push(&mut self.line, self.last_time);
        let _ = std::fmt::Write::write_fmt(
            &mut self.line,
            format_args!(
                ",\"seq\":{},\"msgs\":{{\"sent\":{},\"delivered\":{},\"dropped_lossy\":{},\
                 \"dropped_dead\":{},\"duplicated\":{}}},\"tally\":",
                self.events,
                stats.messages_sent,
                stats.messages_delivered,
                stats.dropped_lossy_link,
                stats.dropped_dead_receiver,
                stats.messages_duplicated,
            ),
        );
        self.push_tally();
        self.line.push('}');
        self.emit();
        if !self.io_failed {
            if let Err(e) = self.out.flush() {
                eprintln!("lsrp-trace: final flush failed: {e}");
            }
        }
    }

    fn push_route_entry(&mut self, entry: ViewEntry) {
        self.line.push_str("\"d\":");
        match entry.route.distance {
            Distance::Finite(d) => push_u64(&mut self.line, d),
            Distance::Infinite => self.line.push_str("null"),
        }
        self.line.push_str(",\"p\":");
        push_u64(&mut self.line, u64::from(entry.route.parent.raw()));
        self.line.push_str(",\"c\":");
        push_bool(&mut self.line, entry.containment);
    }
}

impl Drop for StreamingSink {
    fn drop(&mut self) {
        self.finish(&EngineStats::default());
    }
}

impl TraceSink for StreamingSink {
    fn record_action(&mut self, rec: ActionRecord) {
        let t = rec.time.seconds();
        self.last_time = t;
        self.tally.actions += 1;
        if self.classes.contains(EventClasses::WAVES) && !rec.maintenance {
            let idx = rec.node.raw() as usize;
            if idx >= self.wave_seen.len() {
                self.wave_seen.resize(idx + 1, 0);
            }
            let stamp = self.epoch + 1;
            if self.wave_seen[idx] != stamp {
                self.wave_seen[idx] = stamp;
                self.tally.waves += 1;
                self.line.push_str("{\"k\":\"wave\",\"t\":");
                self.t_text.push(&mut self.line, t);
                self.line.push_str(",\"n\":");
                push_u64(&mut self.line, u64::from(rec.node.raw()));
                self.line.push_str(",\"epoch\":");
                push_u64(&mut self.line, u64::from(self.epoch));
                self.line.push_str(",\"dt\":");
                self.dt_text
                    .push(&mut self.line, (t - self.epoch_time).max(0.0));
                self.line.push('}');
                self.emit();
                self.after_event_frame();
            }
        }
        if self.classes.contains(EventClasses::ACTIONS) {
            self.line.push_str("{\"k\":\"act\",\"t\":");
            self.t_text.push(&mut self.line, t);
            self.line.push_str(",\"n\":");
            push_u64(&mut self.line, u64::from(rec.node.raw()));
            self.line.push_str(",\"a\":");
            push_str_escaped(&mut self.line, rec.name);
            self.line.push_str(",\"m\":");
            push_bool(&mut self.line, rec.maintenance);
            self.line.push_str(",\"var\":");
            push_bool(&mut self.line, rec.var_changed);
            self.line.push('}');
            self.emit();
            self.after_event_frame();
        }
        self.inner.record_action(rec);
    }

    fn record_receive_change(&mut self, time: SimTime, node: NodeId) {
        self.inner.record_receive_change(time, node);
    }

    fn reset(&mut self) {
        // The file stays cumulative — the engine records a `reset`
        // marker just before calling this, so readers know where the
        // measured portion starts. Only the inner sink's records clear.
        self.inner.reset();
    }

    fn trace(&self) -> Option<&Trace> {
        self.inner.trace()
    }

    fn attach(&mut self, graph: &Graph, seed: u64) {
        self.line
            .push_str("{\"k\":\"hdr\",\"schema\":\"lsrp-trace\",\"v\":");
        let _ = std::fmt::Write::write_fmt(
            &mut self.line,
            format_args!(
                "{SCHEMA_VERSION},\"seed\":{seed},\"nodes\":{},\"edges\":{},\"topology\":",
                graph.node_count(),
                graph.edge_count()
            ),
        );
        match &self.topology {
            Some(t) => {
                let t = t.clone();
                push_str_escaped(&mut self.line, &t);
            }
            None => self.line.push_str("null"),
        }
        self.line.push_str(",\"classes\":[");
        for (i, name) in self.classes.names().iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            push_str_escaped(&mut self.line, name);
        }
        let _ = std::fmt::Write::write_fmt(
            &mut self.line,
            format_args!("],\"snapshot_every\":{}}}", self.snapshot_every),
        );
        self.emit();

        let nodes: Vec<u32> = graph.nodes().map(NodeId::raw).collect();
        for chunk in nodes.chunks(NODE_CHUNK) {
            self.line.push_str("{\"k\":\"topo\",\"nodes\":[");
            for (i, n) in chunk.iter().enumerate() {
                if i > 0 {
                    self.line.push(',');
                }
                let _ = std::fmt::Write::write_fmt(&mut self.line, format_args!("{n}"));
            }
            self.line.push_str("]}");
            self.emit();
        }
        let edges: Vec<(u32, u32, u64)> = graph
            .edges()
            .map(|(a, b, w)| (a.raw(), b.raw(), w))
            .collect();
        for chunk in edges.chunks(EDGE_CHUNK) {
            self.line.push_str("{\"k\":\"topo\",\"edges\":[");
            for (i, (a, b, w)) in chunk.iter().enumerate() {
                if i > 0 {
                    self.line.push(',');
                }
                let _ = std::fmt::Write::write_fmt(&mut self.line, format_args!("[{a},{b},{w}]"));
            }
            self.line.push_str("]}");
            self.emit();
        }
    }

    fn record_marker(
        &mut self,
        time: SimTime,
        kind: MarkerKind,
        a: Option<NodeId>,
        b: Option<NodeId>,
    ) {
        let t = time.seconds();
        self.last_time = t;
        if t > self.epoch_time {
            self.epoch += 1;
            self.epoch_time = t;
        }
        self.tally.markers += 1;
        if self.classes.contains(EventClasses::MARKERS) {
            self.line.push_str("{\"k\":\"mark\",\"t\":");
            self.t_text.push(&mut self.line, t);
            self.line.push_str(",\"kind\":");
            push_str_escaped(&mut self.line, kind.as_str());
            self.line.push_str(",\"a\":");
            match a {
                Some(n) => push_u64(&mut self.line, u64::from(n.raw())),
                None => self.line.push_str("null"),
            }
            self.line.push_str(",\"b\":");
            match b {
                Some(n) => push_u64(&mut self.line, u64::from(n.raw())),
                None => self.line.push_str("null"),
            }
            self.line.push('}');
            self.emit();
            self.after_event_frame();
        }
        self.inner.record_marker(time, kind, a, b);
    }

    fn record_view_update(&mut self, time: SimTime, node: NodeId, entry: Option<ViewEntry>) {
        self.tally.routes += 1;
        if self.classes.contains(EventClasses::ROUTES) {
            let t = time.seconds();
            self.last_time = t;
            self.line.push_str("{\"k\":\"rt\",\"t\":");
            self.t_text.push(&mut self.line, t);
            self.line.push_str(",\"n\":");
            push_u64(&mut self.line, u64::from(node.raw()));
            self.line.push(',');
            match entry {
                Some(e) => {
                    self.push_route_entry(e);
                    self.line.push('}');
                }
                None => self.line.push_str("\"up\":false}"),
            }
            self.emit();
            self.after_event_frame();
        }
        self.inner.record_view_update(time, node, entry);
    }

    fn record_packet_done(&mut self, rec: &PacketRecord) {
        self.tally.packets += 1;
        if self.classes.contains(EventClasses::PACKETS) {
            let t = rec.completed_at.seconds();
            self.last_time = t;
            let (fate, at, cycle) = match rec.status {
                PacketStatus::Delivered => ("delivered", None, None),
                PacketStatus::BlackHoled { at } => ("black_holed", Some(at), None),
                PacketStatus::LinkDown { at } => ("link_down", Some(at), None),
                PacketStatus::Looped { cycle_len } => ("looped", None, Some(cycle_len)),
                PacketStatus::TtlExpired => ("ttl_expired", None, None),
                PacketStatus::Lost { at } => ("lost", Some(at), None),
                PacketStatus::QueueDropped { at } => ("queue_dropped", Some(at), None),
            };
            self.line.push_str("{\"k\":\"pkt\",\"t\":");
            self.t_text.push(&mut self.line, t);
            self.line.push_str(",\"src\":");
            push_u64(&mut self.line, u64::from(rec.src.raw()));
            self.line.push_str(",\"dst\":");
            push_u64(&mut self.line, u64::from(rec.dest.raw()));
            self.line.push_str(",\"fate\":");
            push_str_escaped(&mut self.line, fate);
            if let Some(at) = at {
                self.line.push_str(",\"at\":");
                push_u64(&mut self.line, u64::from(at.raw()));
            }
            if let Some(c) = cycle {
                self.line.push_str(",\"cycle\":");
                push_u64(&mut self.line, c as u64);
            }
            self.line.push_str(",\"hops\":");
            push_u64(&mut self.line, u64::from(rec.hops));
            self.line.push_str(",\"w\":");
            push_u64(&mut self.line, rec.weight);
            self.line.push_str(",\"lat\":");
            push_f64(&mut self.line, rec.latency());
            self.line.push_str(",\"flow\":");
            match rec.flow {
                Some(tag) => push_u64(&mut self.line, u64::from(tag.flow)),
                None => self.line.push_str("null"),
            }
            self.line.push('}');
            self.emit();
            self.after_event_frame();
        }
        self.inner.record_packet_done(rec);
    }

    fn record_flow_done(&mut self, rec: &FlowRecord) {
        self.tally.flows += 1;
        if self.classes.contains(EventClasses::FLOWS) {
            let t = rec.finished_at.seconds();
            self.last_time = t;
            self.line.push_str("{\"k\":\"flow\",\"t\":");
            self.t_text.push(&mut self.line, t);
            let _ = std::fmt::Write::write_fmt(
                &mut self.line,
                format_args!(
                    ",\"id\":{},\"src\":{},\"dst\":{},\"segs\":{},\"acked\":{},\"w\":{},\
                     \"retx\":{},\"timeouts\":{},\"marks\":{},\"start\":",
                    rec.id,
                    rec.src.raw(),
                    rec.dest.raw(),
                    rec.segments,
                    rec.acked_segments,
                    rec.seg_weight,
                    rec.retransmitted,
                    rec.timeouts,
                    rec.marks,
                ),
            );
            push_f64(&mut self.line, rec.started_at.seconds());
            self.line.push_str(",\"goodput\":");
            push_f64(&mut self.line, rec.goodput());
            self.line.push('}');
            self.emit();
            self.after_event_frame();
        }
        self.inner.record_flow_done(rec);
    }

    fn record_queue_sample(
        &mut self,
        time: SimTime,
        from: NodeId,
        to: NodeId,
        occupancy: u64,
        dropped: bool,
    ) {
        self.tally.queue_samples += 1;
        if dropped {
            self.tally.drops += 1;
        }
        if self.classes.contains(EventClasses::QUEUES) {
            let t = time.seconds();
            self.last_time = t;
            self.line.push_str("{\"k\":\"q\",\"t\":");
            self.t_text.push(&mut self.line, t);
            self.line.push_str(",\"a\":");
            push_u64(&mut self.line, u64::from(from.raw()));
            self.line.push_str(",\"b\":");
            push_u64(&mut self.line, u64::from(to.raw()));
            self.line.push_str(",\"occ\":");
            push_u64(&mut self.line, occupancy);
            self.line.push_str(",\"drop\":");
            push_bool(&mut self.line, dropped);
            self.line.push('}');
            self.emit();
            self.after_event_frame();
        }
        self.inner
            .record_queue_sample(time, from, to, occupancy, dropped);
    }

    fn wants_queue_samples(&self) -> bool {
        self.classes.contains(EventClasses::QUEUES)
    }

    fn close(&mut self, stats: &EngineStats) {
        self.finish(stats);
    }

    fn footprint(&self) -> Option<usize> {
        Some(
            WRITE_BUFFER
                + self.line.capacity()
                + self.wave_seen.capacity() * std::mem::size_of::<u32>(),
        )
    }
}

/// Builds the one-shot [`SinkFactory`] a traced run installs into its
/// [`lsrp_sim::EngineConfig`]: the file opens eagerly (so path errors
/// surface before any simulation work), exactly one engine receives the
/// streaming sink, and every later engine built from the same config —
/// replays, repro minimization, sibling campaign runs — falls back to
/// the plain `inner` kind.
///
/// # Errors
///
/// Propagates file-creation errors.
pub fn streaming_factory(config: TraceConfig, inner: SinkKind) -> io::Result<SinkFactory> {
    let sink = StreamingSink::create(config, inner)?;
    let slot: Mutex<Option<StreamingSink>> = Mutex::new(Some(sink));
    Ok(SinkFactory::new(move || {
        slot.lock()
            .ok()?
            .take()
            .map(|s| Box::new(s) as Box<dyn TraceSink>)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The next value of a sequence that mixes arbitrary bit patterns,
    /// repeats, integral values and tiny and huge magnitudes.
    fn next_value(rng: &mut TestRng, previous: f64) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match rng.next_u64() % 6 {
            0 => f64::from_bits(rng.next_u64()),
            1 | 2 => previous,
            3 => (rng.next_u64() % 1_000_000) as f64,
            4 => unit * 10f64.powi(-((rng.next_u64() % 320) as i32)),
            _ => unit * 10f64.powi((rng.next_u64() % 309) as i32),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cached_float_text_is_what_push_f64_prints(case in 0u64..u64::MAX) {
            let mut rng = TestRng::deterministic(case);
            let mut cache = FloatText::EMPTY;
            let (mut cached, mut printed) = (String::new(), String::new());
            let mut v = 0.0;
            for _ in 0..64 {
                v = next_value(&mut rng, v);
                cached.clear();
                printed.clear();
                cache.push(&mut cached, v);
                push_f64(&mut printed, v);
                prop_assert_eq!(&cached, &printed);
            }
        }
    }

    #[test]
    fn classes_parse_and_print() {
        let c = EventClasses::from_names(&["waves", "routes"]).unwrap();
        assert!(c.contains(EventClasses::WAVES));
        assert!(c.contains(EventClasses::ROUTES));
        assert!(!c.contains(EventClasses::ACTIONS));
        assert_eq!(c.names(), vec!["waves", "routes"]);
        assert!(EventClasses::from_names(&["bogus"]).is_err());
        assert_eq!(EventClasses::all().names().len(), 8);
    }

    #[test]
    fn factory_is_one_shot() {
        let dir = std::env::temp_dir().join("lsrp-trace-test-factory");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one-shot.jsonl");
        let f = streaming_factory(TraceConfig::new(&path), SinkKind::Full).unwrap();
        assert!(f.build().is_some(), "first build arms the streaming sink");
        assert!(f.build().is_none(), "later builds fall back to the kind");
        let _ = std::fs::remove_file(&path);
    }
}
