//! The discrete-event engine, region-parallel edition.
//!
//! See the crate docs for the model. The engine partitions the topology
//! into connected *regions* ([`lsrp_graph::partition`], count set by
//! [`EngineConfig::regions`]) and gives each region its own event queue,
//! node slab, link state, packet arena and counters. One window driver
//! (`Engine::drive`) plays the daemon for every public run method:
//! it repeatedly takes the globally earliest pending event at time `t`,
//! admits every event in the **conservative window** `[t, t + L)` —
//! shrunk by the caller's stop conditions — runs the regions over it
//! concurrently, and closes the window with one barrier. `L` is the
//! engine's *lookahead*, the minimum simulated delay of any cross-region
//! effect, fixed at construction:
//!
//! * `∞` with one region — nothing crosses a region boundary, so a
//!   window spans the whole run;
//! * `link.delay_min` with several regions — every cross-region
//!   interaction rides a link and arrives at least that much later, so
//!   the events of one window are causally independent across regions.
//!
//! PFC pause ([`DisciplineKind::Pause`]) writes the *upstream* port's
//! `paused_until` at the instant a frame is enqueued — a zero-delay
//! effect on a neighbour that does not ride a link — so under that
//! discipline the engine runs as one region. The region count is also
//! capped at the node count: every region holds a node.
//!
//! Cross-region events produced inside a window are *staged* into
//! per-region buffers and merged into the target queues at the barrier;
//! queues order by the canonical `(SimTime, EventKey)` key, so the merged
//! schedule — and hence the whole trajectory — is byte-identical for
//! every region count and worker count (DESIGN.md §15 gives the full
//! determinism argument).
//!
//! Observability stays strictly sequential: message totals live only in
//! the per-region [`EngineStats`] (summed on read, handed to the sink once
//! by [`TraceSink::close`] when the engine drops), while ordered records
//! (`ObsOp`: actions, variable changes, view updates, packet/flow
//! completions) carry their originating `(time, key, seq)` and are applied
//! through a k-way merge of the per-region streams (see `Engine::flush`
//! for why a merge and not a sort) — reproducing exactly the order a
//! single-queue engine would have produced them in. Route updates pass
//! through the [`RouteView`] first and reach the sink only when they
//! change an entry.
//!
//! Worker threads come from `std::thread::scope`, so they borrow the
//! region slabs directly for the duration of one window; a window in
//! which at most one region has work runs inline and spawns nothing.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use lsrp_graph::partition::partition;
use lsrp_graph::{Distance, Graph, GraphError, NodeId, RouteTable, Weight};

use crate::clock::Clock;
use crate::config::{EngineConfig, LossModel};
use crate::congestion::{
    CongestionCounts, DisciplineKind, PortState, QueueDiscipline, QueuedPacket,
};
use crate::effects::{Effects, SendTarget};
use crate::flow::{FlowConfig, FlowRecord, FlowState, FlowTag};
use crate::guards::{Guards, TrackScratch};
use crate::node::{ActionId, EnabledSet, ProtocolNode};
use crate::rng;
use crate::sched::{EventKey, EventQueue, SchedulerKind};
use crate::sink::{MarkerKind, TraceSink};
use crate::slots::{EdgeSlots, NodeSlots, RegionMap};
use crate::time::SimTime;
use crate::trace::{ActionRecord, Trace};
use crate::traffic::{Packet, PacketArena, PacketRecord, PacketStatus, TrafficCounts};
use crate::view::{RouteCursor, RouteDelta, RouteView, ViewEntry};

/// What [`Engine::trace`] returns when the configured sink keeps no trace.
static EMPTY_TRACE: Trace = Trace {
    actions: Vec::new(),
    last_var_change: None,
    action_counts: BTreeMap::new(),
};

/// The driver's flush cadence: a window that is unbounded in time is cut
/// after this many events, bounding how much ordered observability a long
/// uninterrupted run buffers between barriers.
const OBS_CHUNK: u64 = 65_536;

/// Errors surfaced by engine runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineError {
    /// The per-run event budget was exhausted — almost always a zero-hold
    /// action livelock in the protocol under test.
    EventBudgetExhausted {
        /// The engine clock after the last window barrier — the time of
        /// the latest processed event. With several regions the budget is
        /// enforced per region inside a window, so the run may overshoot
        /// by up to `regions ×` before erroring (error-path-only
        /// divergence).
        at: SimTime,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EventBudgetExhausted { at } => {
                write!(f, "event budget exhausted at {at} (action livelock?)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Cumulative counts of processed events by kind — cheap diagnostics for
/// spotting pathological schedules (e.g. wakeup storms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Message deliveries processed.
    pub deliveries: u64,
    /// Guard timers processed (fired or stale).
    pub guard_timers: u64,
    /// Guard timers that actually executed an action.
    pub guard_fires: u64,
    /// Wakeups processed.
    pub wakeups: u64,
    /// Data-plane packet hops processed (one per `PacketHop` event, not
    /// weighted by flow aggregation).
    pub packet_hops: u64,
    /// Port serialization completions processed (congestion lane).
    pub port_drains: u64,
    /// Flow ACK arrivals processed (congestion lane).
    pub flow_acks: u64,
    /// Flow retransmit timers processed, stale or live (congestion lane).
    pub flow_timers: u64,
}

impl EventCounts {
    fn absorb(&mut self, o: &EventCounts) {
        self.deliveries += o.deliveries;
        self.guard_timers += o.guard_timers;
        self.guard_fires += o.guard_fires;
        self.wakeups += o.wakeups;
        self.packet_hops += o.packet_hops;
        self.port_drains += o.port_drains;
        self.flow_acks += o.flow_acks;
        self.flow_timers += o.flow_timers;
    }
}

/// Always-on engine health statistics, independent of the configured
/// [`TraceSink`] — a handful of scalar counters the hot path maintains
/// unconditionally, so throughput reports exist even when the sink
/// records nothing. This is the engine's only message ledger: no sink
/// counts messages, and a streaming sink's end-of-run totals are these
/// ([`TraceSink::close`]). Nothing resets them; measure a phase as the
/// difference of two [`Engine::stats`] reads. Counters are kept per
/// region and summed on read; every field is region-count-invariant,
/// including `peak_queue_depth`, which the engine samples as the *total*
/// pending-event count (summed across regions) at region-invariant
/// logical points — engine construction, every driver mutation, every
/// data-plane injection and right after every event run by
/// [`Engine::step`] or [`Engine::step_within`] — rather than inside
/// region-local pushes. [`Engine::run_until`] and
/// [`Engine::run_to_quiescence`] do not sample between events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Processed events by kind.
    pub events: EventCounts,
    /// Messages handed to links (per-fan-out copy).
    pub messages_sent: u64,
    /// Messages delivered to live receivers.
    pub messages_delivered: u64,
    /// Protocol-level adverts handed to links. Batching protocols pack
    /// many adverts into one wire message ([`ProtocolNode::advert_count`]),
    /// so this can exceed `messages_sent`; for unbatched protocols the two
    /// are equal.
    pub adverts_sent: u64,
    /// Protocol-level adverts delivered to live receivers (the batched
    /// analogue of `messages_delivered`).
    pub adverts_delivered: u64,
    /// Extra copies scheduled by the duplication model.
    pub messages_duplicated: u64,
    /// Messages dropped by the loss model.
    pub dropped_lossy_link: u64,
    /// Messages dropped on dead edges/receivers. With the queue drained,
    /// `messages_delivered + messages_dropped() == messages_sent +
    /// messages_duplicated`.
    pub dropped_dead_receiver: u64,
    /// High-water mark of total pending events across all region queues,
    /// sampled at region-invariant points: after construction, after
    /// every driver mutation and data-plane injection, and after every
    /// event of [`Engine::step`] and [`Engine::step_within`]. Injected
    /// by [`Engine::stats`]; per-core stats leave it zero.
    pub peak_queue_depth: usize,
    /// Weighted data-plane packet counters (see [`TrafficCounts`]).
    pub traffic: TrafficCounts,
    /// Congestion-lane counters: queue highs, marks, pauses, flow goodput
    /// (see [`CongestionCounts`]). All zero while the lane is disabled.
    pub congestion: CongestionCounts,
}

impl EngineStats {
    /// Total events processed (deliveries + guard timers + wakeups +
    /// packet hops + port drains + flow events).
    pub fn total_events(&self) -> u64 {
        self.events.deliveries
            + self.events.guard_timers
            + self.events.wakeups
            + self.events.packet_hops
            + self.events.port_drains
            + self.events.flow_acks
            + self.events.flow_timers
    }

    /// Total messages dropped, over all causes.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped_lossy_link + self.dropped_dead_receiver
    }

    fn absorb(&mut self, o: &EngineStats) {
        self.events.absorb(&o.events);
        self.messages_sent += o.messages_sent;
        self.messages_delivered += o.messages_delivered;
        self.adverts_sent += o.adverts_sent;
        self.adverts_delivered += o.adverts_delivered;
        self.messages_duplicated += o.messages_duplicated;
        self.dropped_lossy_link += o.dropped_lossy_link;
        self.dropped_dead_receiver += o.dropped_dead_receiver;
        let t = &mut self.traffic;
        let ot = &o.traffic;
        t.injected += ot.injected;
        t.delivered += ot.delivered;
        t.black_holed += ot.black_holed;
        t.link_down += ot.link_down;
        t.looped += ot.looped;
        t.ttl_expired += ot.ttl_expired;
        t.lost += ot.lost;
        t.queue_dropped += ot.queue_dropped;
        t.delivered_hops += ot.delivered_hops;
        let c = &mut self.congestion;
        let oc = &o.congestion;
        c.peak_port_occupancy = c.peak_port_occupancy.max(oc.peak_port_occupancy);
        c.ecn_marks += oc.ecn_marks;
        c.pause_frames += oc.pause_frames;
        c.flow_offered_weight += oc.flow_offered_weight;
        c.flow_acked_weight += oc.flow_acked_weight;
        c.flow_retransmit_weight += oc.flow_retransmit_weight;
        c.flow_timeouts += oc.flow_timeouts;
    }
}

/// Outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Simulated time when the run stopped.
    pub end: SimTime,
    /// Whether the system was quiescent at the end (no in-flight message
    /// and no enabled guard would ever change state again; for
    /// window-based detection, nothing effective happened for the settle
    /// window).
    pub quiescent: bool,
    /// The last time an *effective* event occurred (a protocol-variable or
    /// mirror change, or a non-maintenance action execution).
    pub last_effective: SimTime,
    /// Events processed during this run.
    pub events: u64,
}

#[derive(Debug)]
enum Event<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Arc<M>,
    },
    GuardTimer {
        node: NodeId,
        action: ActionId,
        generation: u64,
    },
    Wakeup {
        node: NodeId,
    },
    /// A data-plane packet (addressed by its [`PacketArena`] index)
    /// arrives at its current holder.
    PacketHop {
        packet: u32,
    },
    /// The head of port `(from, to)` finished serializing (congestion
    /// lane): release it onto the wire and start the next one.
    PortDrain {
        from: NodeId,
        to: NodeId,
    },
    /// A cumulative Go-Back-N ACK reaches the flow's sender.
    FlowAck {
        flow: u32,
        ack: u64,
        marked: bool,
    },
    /// A flow's retransmit timer fires (stale unless the generation
    /// matches the flow's live one — same idiom as `GuardTimer`).
    FlowTimer {
        flow: u32,
        generation: u64,
    },
}

/// Everything the engine keeps per live node, stored densely by the
/// node's *local* (in-region) id.
struct Slot<P> {
    node: P,
    clock: Clock,
    guards: Guards,
    /// The node's id-sorted neighbors and weights, cached from the graph
    /// and refilled in place only on topology changes — fan-out, sends
    /// and liveness checks read it instead of graph adjacency, and the
    /// node's `on_neighbors_changed` receives it.
    neighbors: Vec<(NodeId, Weight)>,
    /// The live wakeup, if any: its scheduled real time plus the local
    /// reading the node asked to be re-evaluated at.
    pending_wakeup: Option<(SimTime, f64)>,
}

impl<P> Slot<P> {
    /// The weight of the edge to `k`, if `k` is a neighbor.
    fn weight(&self, k: NodeId) -> Option<Weight> {
        let i = self.neighbors.binary_search_by_key(&k, |&(n, _)| n).ok()?;
        Some(self.neighbors[i].1)
    }
}

/// Per-directed-edge link state, owned by the tail node's region.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Scheduled arrival of the most recent delivery on this edge (FIFO
    /// ordering clamps later arrivals to at least this time; the `(time,
    /// key)` queue order then preserves send order among equal times).
    fifo_last: Option<SimTime>,
    /// Gilbert–Elliott chain state (`true` = bad/burst). Edges never sent
    /// on are in the good state.
    ge_bad: bool,
    /// Control-plane draws consumed on this edge (counter-hash RNG
    /// stream index; see [`crate::rng`]).
    ctrl_draws: u64,
    /// Data-plane draws consumed on this edge.
    data_draws: u64,
}

/// Factory producing a protocol node from its id and id-sorted neighbors.
type NodeFactory<P> = Box<dyn FnMut(NodeId, &[(NodeId, Weight)]) -> P>;

/// Ordered observability operations: everything whose *application order*
/// is observable (trace records, route-view updates and their deltas,
/// packet/flow completion order).
enum ObsOp {
    Action(ActionRecord),
    ReceiveChange(SimTime, NodeId),
    View(NodeId, Option<ViewEntry>),
    PacketDone(PacketRecord),
    FlowDone(FlowRecord),
    /// A bounded egress port's occupancy transition (emitted only when
    /// the installed sink asked for queue samples — never affects
    /// scheduling, so the gate cannot change a trajectory).
    Queue {
        from: NodeId,
        to: NodeId,
        occupancy: u64,
        dropped: bool,
    },
}

/// One ordered observability record: the `(time, key)` of the event that
/// produced it plus a per-region sequence number breaking ties *within*
/// that event. Each region's stream stays in execution order; merging
/// the streams by `(time, key, seq)` at a barrier reproduces the
/// sequential application order exactly (event keys are globally unique,
/// so records from different regions never tie).
struct ObsRec {
    time: SimTime,
    key: EventKey,
    seq: u64,
    op: ObsOp,
}

/// A cross-region effect produced inside a window, applied at the
/// barrier. Event-carrying variants hold the *scheduled* `(time, key)`;
/// conservative lookahead guarantees `time` lies beyond the window that
/// staged it. Packets travel by value (arenas are region-local).
enum Staged<M> {
    Deliver {
        time: SimTime,
        key: EventKey,
        region: u32,
        from: NodeId,
        to: NodeId,
        msg: Arc<M>,
    },
    Packet {
        time: SimTime,
        key: EventKey,
        region: u32,
        packet: Packet,
    },
    FlowAck {
        time: SimTime,
        key: EventKey,
        region: u32,
        flow: u32,
        ack: u64,
        marked: bool,
    },
}

/// Admission bound of one conservative window over the canonical
/// `(time, key)` event order: `limit` plus whether the limit itself is
/// admitted. Windows start exclusive at `t + lookahead`; stop-condition
/// caps (`until`, `horizon`, `last_effective + settle`) only ever
/// *shrink* the admitted set, so conservative lookahead safety is
/// preserved under every cap.
#[derive(Debug, Clone, Copy)]
struct WindowBound {
    limit: (SimTime, EventKey),
    inclusive: bool,
}

impl WindowBound {
    /// Admits every event strictly before time `limit`.
    fn exclusive(limit: SimTime) -> Self {
        WindowBound {
            limit: (limit, EventKey { src: 0, k: 0 }),
            inclusive: false,
        }
    }

    /// Admits every event at or before time `limit`.
    fn inclusive(limit: SimTime) -> Self {
        WindowBound {
            limit: (limit, EventKey::driver(u64::MAX)),
            inclusive: true,
        }
    }

    /// Admits nothing past the event `head` itself. Keys are globally
    /// unique, so when `head` is the earliest pending event it is the
    /// only one admitted, in any region.
    fn only(head: (SimTime, EventKey)) -> Self {
        WindowBound {
            limit: head,
            inclusive: true,
        }
    }

    fn admits(&self, at: (SimTime, EventKey)) -> bool {
        if self.inclusive {
            at <= self.limit
        } else {
            at < self.limit
        }
    }

    /// The tighter of two bounds, which admits exactly what both admit:
    /// the smaller limit, and at equal limits the exclusive one.
    fn meet(self, other: WindowBound) -> Self {
        if (other.limit, other.inclusive) < (self.limit, self.inclusive) {
            other
        } else {
            self
        }
    }
}

/// State shared read-only by every region during a window.
struct Shared {
    config: EngineConfig,
    /// The instantiated queue discipline (stateless; see
    /// [`QueueDiscipline`]).
    discipline: Box<dyn QueueDiscipline>,
    /// Sticky raw-id → `(region, local)` addressing (see [`RegionMap`]).
    map: RegionMap,
    /// Liveness by raw id — the cross-region replacement for "is this
    /// node in some region's slab", used by flow abort checks.
    alive: Vec<bool>,
    /// Home region of every flow ever started (indexed by flow id):
    /// where its [`FlowState`] lives and its ACKs are routed.
    flow_home: Vec<u32>,
}

/// One region: an independent event queue plus every piece of engine
/// state its nodes own. All hot-path state is indexed by *local* id, so
/// a region's working set is proportional to its own size.
struct Core<P: ProtocolNode> {
    index: u32,
    queue: EventQueue<Event<P::Msg>>,
    slots: NodeSlots<Slot<P>>,
    /// Link state by (local tail, global head).
    links: EdgeSlots<LinkState>,
    /// Egress port state by (local tail, global head); congestion lane.
    ports: EdgeSlots<PortState>,
    arena: PacketArena,
    /// Flow sender state for flows homed here, indexed by the dense global
    /// flow id (`None` for flows homed elsewhere).
    flows: Vec<Option<FlowState>>,
    /// Go-Back-N receiver cursors (`recv_next`) for flows *delivering*
    /// here, indexed by flow id — receiver state lives with the
    /// destination.
    flow_recv: Vec<u64>,
    /// Per-local-node control-lane emission counters (event keys).
    ctrl_emit: Vec<u64>,
    /// Per-local-node traffic-lane emission counters (event keys).
    traffic_emit: Vec<u64>,
    /// Per-local-node guard generations; persist across fail/rejoin so a
    /// stale timer can never collide with a fresh track.
    guard_gen: Vec<u64>,
    /// Key counters for events attributed to nodes that were never
    /// mapped (flows/packets naming ids outside the topology — such
    /// contexts always land in region 0).
    orphan_ctrl: u64,
    orphan_traffic: u64,
    now: SimTime,
    /// `(time, key)` of the event currently being processed — the order
    /// tag stamped on every [`ObsRec`] this event produces.
    cur_time: SimTime,
    cur_key: EventKey,
    opseq: u64,
    stats: EngineStats,
    last_effective: SimTime,
    /// Count of tracked non-maintenance guards in this region (O(1)
    /// quiescence checks).
    enabled_non_maintenance: usize,
    /// Signed in-flight message delta (cross-region messages increment at
    /// the sender's region, decrement at the receiver's; the global sum
    /// is the true count).
    inflight: i64,
    packets_in_flight: i64,
    packets_in_flight_weight: i64,
    active_flows: usize,
    staged: Vec<Staged<P::Msg>>,
    obs: VecDeque<ObsRec>,
    /// Whether bounded-port occupancy transitions are recorded as
    /// [`ObsOp::Queue`] observations. Mirrors the installed sink's
    /// [`TraceSink::wants_queue_samples`] answer; observation-only, so
    /// the gate can never alter a trajectory.
    emit_queue_obs: bool,
    /// Reusable neighbor buffer for broadcast fan-out.
    scratch: Vec<NodeId>,
    /// Reusable effects collector — cleared between events, so the hot
    /// path never allocates a fresh send buffer.
    fx_scratch: Effects<P::Msg>,
    /// Reusable guard-evaluation buffer for [`Core::reevaluate_floored`].
    enabled_scratch: EnabledSet,
    /// Reusable hold-tracking buffers.
    track_scratch: TrackScratch,
}

impl<P: ProtocolNode> Core<P> {
    fn new(index: u32) -> Self {
        Core {
            index,
            queue: EventQueue::new(SchedulerKind::Wheel),
            slots: NodeSlots::new(),
            links: EdgeSlots::new(),
            ports: EdgeSlots::new(),
            arena: PacketArena::default(),
            flows: Vec::new(),
            flow_recv: Vec::new(),
            ctrl_emit: Vec::new(),
            traffic_emit: Vec::new(),
            guard_gen: Vec::new(),
            orphan_ctrl: 0,
            orphan_traffic: 0,
            now: SimTime::ZERO,
            cur_time: SimTime::ZERO,
            cur_key: EventKey::driver(u64::MAX),
            opseq: 0,
            stats: EngineStats::default(),
            last_effective: SimTime::ZERO,
            enabled_non_maintenance: 0,
            inflight: 0,
            packets_in_flight: 0,
            packets_in_flight_weight: 0,
            active_flows: 0,
            staged: Vec::new(),
            obs: VecDeque::new(),
            emit_queue_obs: false,
            scratch: Vec::new(),
            fx_scratch: Effects::new(),
            enabled_scratch: EnabledSet::none(),
            track_scratch: TrackScratch::default(),
        }
    }

    /// Sizes the control plane's per-local-node arrays for the `locals`
    /// nodes placed here at build. Grown on first touch instead, they
    /// would make the first event at a high local id pay for every id
    /// below it. The traffic lane's (`traffic_emit`, `ports`) still grow
    /// on first touch: a run without a data plane never touches them.
    fn size_for(&mut self, locals: usize) {
        self.ctrl_emit.resize(locals, 0);
        self.guard_gen.resize(locals, 0);
        self.links.size_rows(locals);
    }

    /// `v`'s local id, if this region owns it.
    fn local_checked(&self, shared: &Shared, v: NodeId) -> Option<u32> {
        match shared.map.region(v) {
            Some(r) if r == self.index => Some(shared.map.local(v)),
            _ => None,
        }
    }

    fn slot(&self, shared: &Shared, v: NodeId) -> Option<&Slot<P>> {
        let l = self.local_checked(shared, v)?;
        self.slots.get(NodeId::new(l))
    }

    fn slot_mut(&mut self, shared: &Shared, v: NodeId) -> Option<&mut Slot<P>> {
        let l = self.local_checked(shared, v)?;
        self.slots.get_mut(NodeId::new(l))
    }

    /// Allocates the next event key attributed to `v`. Lane layout:
    /// bit 0 separates control from traffic emissions (the two planes
    /// count independently, preserving their mutual independence), bit 1
    /// flags never-mapped orphan attributions, and the per-node counter
    /// occupies the high bits. Keys are globally unique: counters are
    /// per-(node, lane) and persist across fail/rejoin.
    fn lane_key(&mut self, shared: &Shared, v: NodeId, traffic: bool) -> EventKey {
        match self.local_checked(shared, v) {
            Some(l) => {
                let lanes = if traffic {
                    &mut self.traffic_emit
                } else {
                    &mut self.ctrl_emit
                };
                let li = l as usize;
                if li >= lanes.len() {
                    lanes.resize(li + 1, 0);
                }
                let n = lanes[li];
                lanes[li] = n + 1;
                EventKey {
                    src: v.raw(),
                    k: (n << 2) | u64::from(traffic),
                }
            }
            None => {
                let ctr = if traffic {
                    &mut self.orphan_traffic
                } else {
                    &mut self.orphan_ctrl
                };
                let n = *ctr;
                *ctr += 1;
                EventKey {
                    src: v.raw(),
                    k: (n << 2) | 2 | u64::from(traffic),
                }
            }
        }
    }

    fn push_local(&mut self, time: SimTime, key: EventKey, event: Event<P::Msg>) {
        self.queue.schedule(time, key, event);
    }

    fn obs(&mut self, op: ObsOp) {
        let seq = self.opseq;
        self.opseq += 1;
        self.obs.push_back(ObsRec {
            time: self.cur_time,
            key: self.cur_key,
            seq,
            op,
        });
    }

    /// Enters driver context: observability produced until the next event
    /// is tagged `(now, DRIVER, seq)` with `seq` threaded across regions
    /// by the engine, so multi-region driver mutations replay in call
    /// order.
    fn begin_driver(&mut self, now: SimTime, opseq: u64) {
        self.now = self.now.max(now);
        self.cur_time = now;
        self.cur_key = EventKey::driver(u64::MAX);
        self.opseq = self.opseq.max(opseq);
    }

    fn mark_effective(&mut self) {
        self.last_effective = self.now;
    }

    /// Processes every queued event admitted by `bound`, up to `budget`
    /// events, and returns how many ran. Stopping on the budget leaves
    /// the next admitted event queued; the driver meets it again at the
    /// top of its loop and decides whether the run's budget is spent.
    fn run_window(&mut self, shared: &Shared, bound: WindowBound, budget: u64) -> u64 {
        let mut done = 0u64;
        while done < budget {
            let Some((time, key, event)) = self.queue.pop_if(|head| bound.admits(head)) else {
                break;
            };
            self.now = self.now.max(time);
            self.cur_time = self.now;
            self.cur_key = key;
            self.dispatch(shared, event);
            done += 1;
        }
        done
    }

    fn dispatch(&mut self, shared: &Shared, event: Event<P::Msg>) {
        match event {
            Event::Deliver { from, to, msg } => {
                self.stats.events.deliveries += 1;
                self.inflight -= 1;
                // Liveness check via the receiver's cached neighbor list:
                // one dense-slot lookup instead of a graph adjacency query
                // per delivery (the cache is re-synced on topology change).
                let live = self
                    .slot(shared, to)
                    .is_some_and(|s| s.weight(from).is_some());
                if !live {
                    self.stats.dropped_dead_receiver += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.adverts_delivered += P::advert_count(msg.as_ref());
                let l = self.local_checked(shared, to).expect("slot checked above");
                let now = self.now;
                let mut fx = std::mem::take(&mut self.fx_scratch);
                let slot = self
                    .slots
                    .get_mut(NodeId::new(l))
                    .expect("slot checked above");
                let now_local = slot.clock.local(now);
                slot.node.on_receive(from, msg.as_ref(), now_local, &mut fx);
                self.apply_effects(shared, to, &mut fx, None);
                fx.clear();
                self.fx_scratch = fx;
                self.reevaluate(shared, to);
            }
            Event::GuardTimer {
                node,
                action,
                generation,
            } => {
                self.stats.events.guard_timers += 1;
                let Some(l) = self.local_checked(shared, node) else {
                    return; // node failed in the meantime
                };
                let now = self.now;
                let Some(slot) = self.slots.get_mut(NodeId::new(l)) else {
                    return; // node failed in the meantime
                };
                let Some(track) = slot.guards.get(action) else {
                    return; // guard was disabled in the meantime
                };
                if track.generation != generation {
                    return; // guard was disabled and re-enabled later
                }
                // Continuously enabled for the hold-time: execute.
                self.stats.events.guard_fires += 1;
                slot.guards.remove(action);
                if !P::is_maintenance(action) {
                    self.enabled_non_maintenance -= 1;
                }
                let now_local = slot.clock.local(now);
                let mut fx = std::mem::take(&mut self.fx_scratch);
                slot.node.execute(action, now_local, &mut fx);
                self.apply_effects(shared, node, &mut fx, Some(action));
                fx.clear();
                self.fx_scratch = fx;
                self.reevaluate(shared, node);
            }
            Event::Wakeup { node } => {
                self.stats.events.wakeups += 1;
                // Only the wakeup matching the pending schedule is live;
                // anything else is a stale duplicate (superseded by an
                // earlier re-request) and must NOT re-evaluate — a stale
                // wakeup that re-evaluates pushes yet another wakeup, and
                // duplicates then multiply exponentially (a "wakeup
                // storm", caught by the determinism test under drifting
                // clocks).
                let now = self.now;
                let Some(slot) = self.slot_mut(shared, node) else {
                    return;
                };
                match slot.pending_wakeup {
                    Some((t, wl)) if t == now => {
                        slot.pending_wakeup = None;
                        self.reevaluate_floored(shared, node, Some(wl));
                    }
                    _ => {}
                }
            }
            Event::PacketHop { packet } => {
                let p = self.arena.take(packet);
                self.dispatch_packet(shared, p);
            }
            Event::PortDrain { from, to } => {
                self.stats.events.port_drains += 1;
                self.drain_port(shared, from, to);
            }
            Event::FlowAck { flow, ack, marked } => {
                self.stats.events.flow_acks += 1;
                self.flow_on_ack(shared, flow, ack, marked);
            }
            Event::FlowTimer { flow, generation } => {
                self.stats.events.flow_timers += 1;
                self.flow_on_timer(shared, flow, generation);
            }
        }
    }

    /// Re-syncs `v`'s route-view entry through the ordered observability
    /// stream (applied at the barrier, in canonical order).
    fn refresh_view(&mut self, shared: &Shared, v: NodeId) {
        let entry = self.slot(shared, v).map(|s| ViewEntry {
            route: s.node.route_entry(),
            containment: s.node.in_containment(),
        });
        self.obs(ObsOp::View(v, entry));
    }

    fn apply_effects(
        &mut self,
        shared: &Shared,
        from: NodeId,
        fx: &mut Effects<P::Msg>,
        action: Option<ActionId>,
    ) {
        let effective =
            fx.var_changed || fx.mirror_changed || action.is_some_and(|a| !P::is_maintenance(a));
        if let Some(a) = action {
            self.obs(ObsOp::Action(ActionRecord {
                time: self.now,
                node: from,
                action: a,
                name: P::action_name(a),
                maintenance: P::is_maintenance(a),
                var_changed: fx.var_changed,
            }));
        } else if fx.var_changed {
            self.obs(ObsOp::ReceiveChange(self.now, from));
        }
        if effective {
            self.mark_effective();
            self.refresh_view(shared, from);
        }
        for (target, msg) in fx.sends.drain(..) {
            match target {
                SendTarget::Broadcast => {
                    // One allocation per send: every fan-out copy holds a
                    // handle to the same payload. Fan-out reads the
                    // sender's cached neighbor list, not graph adjacency.
                    let msg = Arc::new(msg);
                    let mut scratch = std::mem::take(&mut self.scratch);
                    if let Some(slot) = self.slot(shared, from) {
                        scratch.extend(slot.neighbors.iter().map(|&(n, _)| n));
                    }
                    for &n in &scratch {
                        self.schedule_delivery(shared, from, n, Arc::clone(&msg));
                    }
                    scratch.clear();
                    self.scratch = scratch;
                }
                SendTarget::To(n) => {
                    if self
                        .slot(shared, from)
                        .is_some_and(|s| s.weight(n).is_some())
                    {
                        self.schedule_delivery(shared, from, n, Arc::new(msg));
                    }
                }
            }
        }
    }

    fn schedule_delivery(&mut self, shared: &Shared, from: NodeId, to: NodeId, msg: Arc<P::Msg>) {
        self.stats.messages_sent += 1;
        self.stats.adverts_sent += P::advert_count(msg.as_ref());
        let lf = NodeId::new(shared.map.local(from));
        let seed = shared.config.seed;
        let loss_probability = match shared.config.link.loss {
            LossModel::Iid(p) => p,
            LossModel::GilbertElliott(ge) => {
                // Advance the edge's chain one step, then lose by state.
                let state = self.links.entry(lf, to);
                let flip = if state.ge_bad {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if flip > 0.0 {
                    let bits = rng::draw(
                        seed,
                        rng::DOMAIN_CTRL,
                        from.raw(),
                        to.raw(),
                        state.ctrl_draws,
                    );
                    state.ctrl_draws += 1;
                    if rng::chance(bits, flip) {
                        state.ge_bad = !state.ge_bad;
                    }
                }
                if state.ge_bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                }
            }
        };
        if loss_probability > 0.0 {
            let state = self.links.entry(lf, to);
            let bits = rng::draw(
                seed,
                rng::DOMAIN_CTRL,
                from.raw(),
                to.raw(),
                state.ctrl_draws,
            );
            state.ctrl_draws += 1;
            if rng::chance(bits, loss_probability) {
                self.stats.dropped_lossy_link += 1;
                return;
            }
        }
        let dup_p = shared.config.link.duplicate_probability;
        let duplicate = dup_p > 0.0 && {
            let state = self.links.entry(lf, to);
            let bits = rng::draw(
                seed,
                rng::DOMAIN_CTRL,
                from.raw(),
                to.raw(),
                state.ctrl_draws,
            );
            state.ctrl_draws += 1;
            rng::chance(bits, dup_p)
        };
        if duplicate {
            self.stats.messages_duplicated += 1;
            let at = self.link_arrival_time(shared, lf, from, to);
            self.emit_deliver(shared, at, from, to, Arc::clone(&msg));
        }
        let at = self.link_arrival_time(shared, lf, from, to);
        self.emit_deliver(shared, at, from, to, msg);
    }

    /// Routes one delivery to its receiver's region: local pushes go
    /// straight into this queue, remote ones are staged for the barrier.
    fn emit_deliver(
        &mut self,
        shared: &Shared,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Arc<P::Msg>,
    ) {
        let key = self.lane_key(shared, from, false);
        self.inflight += 1;
        let region = shared.map.region(to).unwrap_or(0);
        if region == self.index {
            self.push_local(at, key, Event::Deliver { from, to, msg });
        } else {
            self.staged.push(Staged::Deliver {
                time: at,
                key,
                region,
                from,
                to,
                msg,
            });
        }
    }

    /// Samples one copy's arrival time: uniform delay in the configured
    /// bounds, clamped to the edge's previous delivery when FIFO is on.
    /// Equal arrival times are fine — the `(time, key)` queue order
    /// delivers them in send order. The result is always at least
    /// `now + delay_min`, which is what makes the window width `W =
    /// delay_min` a safe lookahead.
    fn link_arrival_time(
        &mut self,
        shared: &Shared,
        lf: NodeId,
        from: NodeId,
        to: NodeId,
    ) -> SimTime {
        let link = &shared.config.link;
        let delay = if link.delay_min == link.delay_max {
            link.delay_min
        } else {
            let state = self.links.entry(lf, to);
            let bits = rng::draw(
                shared.config.seed,
                rng::DOMAIN_CTRL,
                from.raw(),
                to.raw(),
                state.ctrl_draws,
            );
            state.ctrl_draws += 1;
            rng::range(bits, link.delay_min, link.delay_max)
        };
        let mut at = self.now + delay;
        if link.fifo {
            let state = self.links.entry(lf, to);
            if let Some(last) = state.fifo_last {
                at = at.max(last);
            }
            state.fifo_last = Some(at);
        }
        at
    }

    /// Re-evaluates the guards of `v` against its current state, updating
    /// continuous-enablement tracking and (re)scheduling hold timers and
    /// wakeups.
    fn reevaluate(&mut self, shared: &Shared, v: NodeId) {
        self.reevaluate_floored(shared, v, None);
    }

    /// [`Core::reevaluate`], with the node's local clock reading floored
    /// to `floor` when given. Used when a wakeup fires: the node asked to
    /// be re-evaluated at local reading `wl`, but the conversion back from
    /// real time can round a hair *below* `wl`, leaving the guard still
    /// "not yet due" and re-requesting the same wakeup forever. Flooring
    /// the reading to the requested value guarantees the guard sees the
    /// instant it asked for.
    fn reevaluate_floored(&mut self, shared: &Shared, v: NodeId, floor: Option<f64>) {
        let Some(local) = self.local_checked(shared, v) else {
            return;
        };
        let lid = NodeId::new(local);
        if local as usize >= self.guard_gen.len() {
            self.guard_gen.resize(local as usize + 1, 0);
        }
        let Some(slot) = self.slots.get(lid) else {
            return;
        };
        let clock = slot.clock;
        let mut now_local = clock.local(self.now);
        if let Some(f) = floor {
            now_local = now_local.max(f);
        }
        let mut set = std::mem::take(&mut self.enabled_scratch);
        set.clear();
        slot.node.enabled_actions_into(now_local, &mut set);
        let slot = self.slots.get_mut(lid).expect("checked above");
        // Most evaluations find nothing enabled and nothing held.
        if !(set.actions.is_empty() && slot.guards.is_empty()) {
            let mut scratch = std::mem::take(&mut self.track_scratch);
            slot.guards.track(
                &set,
                &mut scratch,
                &mut self.guard_gen[local as usize],
                &mut self.enabled_non_maintenance,
                P::is_maintenance,
            );
            for started in &scratch.started {
                let fire = self.now + clock.real_duration(started.hold.max(0.0));
                let key = self.lane_key(shared, v, false);
                self.push_local(
                    fire,
                    key,
                    Event::GuardTimer {
                        node: v,
                        action: started.id,
                        generation: started.generation,
                    },
                );
            }
            self.track_scratch = scratch;
        }
        if let Some(wl) = set.wakeup_local {
            // `real_time_at_local` never returns a time before `now`; a
            // wakeup may therefore land *at* `now` (same instant, later in
            // `(time, key)` order), where the floored re-evaluation above
            // guarantees progress instead of an epsilon nudge.
            let t = clock.real_time_at_local(wl, self.now);
            let now = self.now;
            let slot = self.slots.get_mut(lid).expect("checked above");
            let earlier_pending = slot
                .pending_wakeup
                .is_some_and(|(pending, _)| pending <= t && pending >= now);
            if !earlier_pending {
                slot.pending_wakeup = Some((t, wl));
                let key = self.lane_key(shared, v, false);
                self.push_local(t, key, Event::Wakeup { node: v });
            }
        }
        set.clear();
        self.enabled_scratch = set;
    }

    // ------------------------------------------------------------------
    // Data plane: the packet lane.
    // ------------------------------------------------------------------

    fn complete_packet(&mut self, shared: &Shared, p: Packet, status: PacketStatus) {
        self.packets_in_flight -= 1;
        self.packets_in_flight_weight -= p.weight as i64;
        let t = &mut self.stats.traffic;
        let w = p.weight;
        match status {
            PacketStatus::Delivered => {
                t.delivered += w;
                t.delivered_hops += w * u64::from(p.hops);
            }
            PacketStatus::BlackHoled { .. } => t.black_holed += w,
            PacketStatus::LinkDown { .. } => t.link_down += w,
            PacketStatus::Looped { .. } => t.looped += w,
            PacketStatus::TtlExpired => t.ttl_expired += w,
            PacketStatus::Lost { .. } => t.lost += w,
            PacketStatus::QueueDropped { .. } => t.queue_dropped += w,
        }
        self.obs(ObsOp::PacketDone(PacketRecord {
            src: p.src,
            dest: p.dest,
            status,
            hops: p.hops,
            cost: p.cost,
            weight: w,
            injected_at: p.injected_at,
            completed_at: self.now,
            marked: p.marked,
            flow: p.flow,
        }));
        // A delivered flow segment reaches the Go-Back-N receiver.
        if status == PacketStatus::Delivered {
            if let Some(tag) = p.flow {
                self.flow_on_delivery(shared, tag, p.dest, p.marked, p.injected_at);
            }
        }
    }

    /// The loss probability a packet faces on `from -> to` right now.
    /// Reads the Gilbert–Elliott chain state without advancing it — the
    /// chain belongs to the control plane's message stream.
    fn packet_loss_probability(&self, shared: &Shared, lf: NodeId, to: NodeId) -> f64 {
        match shared.config.link.loss {
            LossModel::Iid(p) => p,
            LossModel::GilbertElliott(ge) => {
                let bad = self.links.get(lf, to).is_some_and(|s| s.ge_bad);
                if bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                }
            }
        }
    }

    /// One data-plane hop: the packet has arrived at `p.at`; deliver it,
    /// drop it, or forward it one hop along the live route table.
    fn dispatch_packet(&mut self, shared: &Shared, mut p: Packet) {
        self.stats.events.packet_hops += 1;
        // The node holding the packet fail-stopped while it was in flight.
        let Some(slot) = self.slot(shared, p.at) else {
            let at = p.at;
            return self.complete_packet(shared, p, PacketStatus::LinkDown { at });
        };
        if p.at == p.dest {
            return self.complete_packet(shared, p, PacketStatus::Delivered);
        }
        // Next hop from the node's *live* route state toward this packet's
        // destination (multi-destination planes override the lookup).
        let next = match slot.node.route_entry_toward(p.dest) {
            Some(e) if e.distance != Distance::Infinite && e.parent != p.at => e.parent,
            _ => {
                let at = p.at;
                return self.complete_packet(shared, p, PacketStatus::BlackHoled { at });
            }
        };
        // The route may point across an edge that no longer exists.
        let Some(edge_weight) = slot.weight(next) else {
            let at = p.at;
            return self.complete_packet(shared, p, PacketStatus::LinkDown { at });
        };
        if p.hops >= p.ttl {
            return self.complete_packet(shared, p, PacketStatus::TtlExpired);
        }
        if let Some(cycle_len) = p.brent_step(next) {
            return self.complete_packet(shared, p, PacketStatus::Looped { cycle_len });
        }
        let lf = NodeId::new(shared.map.local(p.at));
        let seed = shared.config.seed;
        let loss = self.packet_loss_probability(shared, lf, next);
        if loss > 0.0 {
            let state = self.links.entry(lf, next);
            let bits = rng::draw(
                seed,
                rng::DOMAIN_DATA,
                p.at.raw(),
                next.raw(),
                state.data_draws,
            );
            state.data_draws += 1;
            if rng::chance(bits, loss) {
                let at = p.at;
                return self.complete_packet(shared, p, PacketStatus::Lost { at });
            }
        }
        let link = &shared.config.link;
        let delay = if link.delay_min == link.delay_max {
            link.delay_min
        } else {
            let state = self.links.entry(lf, next);
            let bits = rng::draw(
                seed,
                rng::DOMAIN_DATA,
                p.at.raw(),
                next.raw(),
                state.data_draws,
            );
            state.data_draws += 1;
            rng::range(bits, link.delay_min, link.delay_max)
        };
        // `upstream` is the node that forwarded the packet *into* `p.at` —
        // the port a PFC pause frame from here must silence.
        let upstream = p.came_from;
        let from = p.at;
        p.came_from = Some(from);
        p.at = next;
        p.hops += 1;
        p.cost += edge_weight;
        if shared.config.congestion.enabled() {
            // Congestion lane: the packet must first win a slot in the
            // egress queue of port `(from, next)` and serialize at the
            // link rate; the propagation delay starts when serialization
            // completes. Loss and delay were drawn above, in the same
            // stream order as the unlimited lane.
            self.enqueue_packet(shared, from, next, upstream, p, delay);
        } else {
            // Unlimited lane: a hop is one propagation delay.
            let at = self.now + delay;
            self.emit_packet(shared, at, from, p);
        }
    }

    /// Routes a forwarded packet to the region owning its next node:
    /// local packets re-enter this arena, remote ones travel by value.
    fn emit_packet(&mut self, shared: &Shared, at: SimTime, from: NodeId, p: Packet) {
        let key = self.lane_key(shared, from, true);
        let region = shared.map.region(p.at).unwrap_or(0);
        if region == self.index {
            let packet = self.arena.alloc(p);
            self.push_local(at, key, Event::PacketHop { packet });
        } else {
            self.staged.push(Staged::Packet {
                time: at,
                key,
                region,
                packet: p,
            });
        }
    }

    /// Admits a forwarded packet into the egress queue of port
    /// `(from, to)` under the configured discipline, scheduling a drain
    /// when the port is idle (congestion lane only).
    fn enqueue_packet(
        &mut self,
        shared: &Shared,
        from: NodeId,
        to: NodeId,
        upstream: Option<NodeId>,
        mut p: Packet,
        prop_delay: f64,
    ) {
        let capacity = shared.config.congestion.queue_capacity;
        let rate = shared
            .config
            .congestion
            .link_rate
            .expect("enqueue_packet requires a finite link rate");
        let lf = NodeId::new(shared.map.local(from));
        let occupancy = self.ports.get(lf, to).map_or(0, |s| s.occupancy);
        let verdict = shared.discipline.admit(occupancy, p.weight, capacity);
        if verdict.pause_upstream > 0.0 {
            // Backpressure one hop upstream (802.3x-style pause quanta);
            // packets injected *at* `from` have no upstream port to pause.
            // The engine runs pause as one region, so the upstream port
            // is this region's.
            if let Some(u) = upstream {
                self.stats.congestion.pause_frames += 1;
                let lu = NodeId::new(shared.map.local(u));
                let port = self.ports.entry(lu, from);
                let base = port.paused_until.max(self.now);
                port.paused_until = base + verdict.pause_upstream;
            }
        }
        if !verdict.admit {
            if self.emit_queue_obs {
                self.obs(ObsOp::Queue {
                    from,
                    to,
                    occupancy,
                    dropped: true,
                });
            }
            return self.complete_packet(shared, p, PacketStatus::QueueDropped { at: from });
        }
        if verdict.mark {
            p.marked = true;
            self.stats.congestion.ecn_marks += p.weight;
        }
        let ser = p.weight as f64 / rate;
        let weight = p.weight;
        let packet = self.arena.alloc(p);
        let now = self.now;
        let port = self.ports.entry(lf, to);
        port.occupancy += weight;
        debug_assert!(
            capacity.is_none_or(|cap| port.occupancy <= cap),
            "port occupancy exceeded capacity — discipline bug"
        );
        port.queue.push_back(QueuedPacket {
            packet,
            weight,
            prop_delay,
        });
        let occupancy = port.occupancy;
        let idle = !port.draining;
        let start = port.paused_until.max(now);
        if idle {
            port.draining = true;
        }
        self.stats.congestion.peak_port_occupancy =
            self.stats.congestion.peak_port_occupancy.max(occupancy);
        if idle {
            // The arriving packet is the head: it finishes serializing
            // one `weight / rate` after the port is free to transmit.
            let key = self.lane_key(shared, from, true);
            self.push_local(start + ser, key, Event::PortDrain { from, to });
        }
        if self.emit_queue_obs {
            self.obs(ObsOp::Queue {
                from,
                to,
                occupancy,
                dropped: false,
            });
        }
    }

    /// The head of port `(from, to)` finished serializing: release it
    /// onto the wire (its propagation delay starts now) and schedule the
    /// next serialization, honoring any PFC pause in force.
    fn drain_port(&mut self, shared: &Shared, from: NodeId, to: NodeId) {
        let rate = shared
            .config
            .congestion
            .link_rate
            .expect("port drain on an unlimited link");
        let alive = self
            .slot(shared, from)
            .is_some_and(|s| s.weight(to).is_some());
        let lf = NodeId::new(shared.map.local(from));
        let port = self.ports.entry(lf, to);
        if port.queue.is_empty() {
            port.draining = false;
            return;
        }
        if !alive {
            // The transmitting node or the edge died while packets were
            // queued: nothing will ever serialize again — flush the whole
            // queue as link-down losses.
            let flushed = std::mem::take(&mut port.queue);
            port.occupancy = 0;
            port.draining = false;
            if self.emit_queue_obs && !flushed.is_empty() {
                self.obs(ObsOp::Queue {
                    from,
                    to,
                    occupancy: 0,
                    dropped: false,
                });
            }
            for q in flushed {
                let p = self.arena.take(q.packet);
                self.complete_packet(shared, p, PacketStatus::LinkDown { at: from });
            }
            return;
        }
        if self.now < port.paused_until {
            // Paused mid-queue: defer the head's release to the pause
            // horizon (pause frames arriving later extend it again).
            let t = port.paused_until;
            let key = self.lane_key(shared, from, true);
            self.push_local(t, key, Event::PortDrain { from, to });
            return;
        }
        let q = port.queue.pop_front().expect("checked non-empty");
        port.occupancy -= q.weight;
        let occupancy = port.occupancy;
        let next_ser = port.queue.front().map(|h| h.weight as f64 / rate);
        if next_ser.is_none() {
            port.draining = false;
        }
        if let Some(ser) = next_ser {
            let key = self.lane_key(shared, from, true);
            self.push_local(self.now + ser, key, Event::PortDrain { from, to });
        }
        if self.emit_queue_obs {
            self.obs(ObsOp::Queue {
                from,
                to,
                occupancy,
                dropped: false,
            });
        }
        // Release: re-route by the packet's (already-advanced) holder —
        // the hop may land in another region.
        let p = self.arena.take(q.packet);
        let at = self.now + q.prop_delay;
        self.emit_packet(shared, at, from, p);
    }

    // ------------------------------------------------------------------
    // Data plane: Go-Back-N flows.
    // ------------------------------------------------------------------

    /// A delivered segment reaches the Go-Back-N receiver (this region
    /// owns the destination): advance `recv_next` on in-order arrival
    /// (out-of-order segments are discarded — that is Go-Back-N), then
    /// return a cumulative ACK to the sender's home region. The ACK's
    /// reverse-path delay mirrors the data packet's own one-way latency
    /// (symmetric-path model); ACKs are pure control and not subject to
    /// loss or queueing. The receiver no longer consults sender-side
    /// `done` state (it lives in another region): segments delivered
    /// after full coverage still ACK, and the sender ignores them.
    fn flow_on_delivery(
        &mut self,
        shared: &Shared,
        tag: FlowTag,
        dest: NodeId,
        marked: bool,
        injected_at: SimTime,
    ) {
        let idx = tag.flow as usize;
        if idx >= self.flow_recv.len() {
            self.flow_recv.resize(idx + 1, 0);
        }
        let recv_next = &mut self.flow_recv[idx];
        if tag.seq == *recv_next {
            *recv_next += 1;
        }
        let ack = *recv_next;
        let delay = self
            .now
            .since(injected_at)
            .max(shared.config.link.delay_min);
        let at = self.now + delay;
        let key = self.lane_key(shared, dest, true);
        let region = shared
            .flow_home
            .get(tag.flow as usize)
            .copied()
            .unwrap_or(0);
        if region == self.index {
            self.push_local(
                at,
                key,
                Event::FlowAck {
                    flow: tag.flow,
                    ack,
                    marked,
                },
            );
        } else {
            self.staged.push(Staged::FlowAck {
                time: at,
                key,
                region,
                flow: tag.flow,
                ack,
                marked,
            });
        }
    }

    /// A cumulative ACK reaches the sender: slide the window, feed the
    /// congestion algorithm, restart the retransmit timer while data is
    /// outstanding, and complete the flow on full coverage.
    fn flow_on_ack(&mut self, shared: &Shared, id: u32, ack: u64, marked: bool) {
        let Some(f) = self.flows.get_mut(id as usize).and_then(Option::as_mut) else {
            return;
        };
        if f.done {
            return;
        }
        if marked {
            f.marks += 1;
            f.cc.on_mark();
        }
        let mut arm_timer = None;
        let src = f.src;
        if ack > f.base {
            let advanced = ack - f.base;
            f.base = ack;
            self.stats.congestion.flow_acked_weight += advanced * f.config.seg_weight;
            for _ in 0..advanced {
                f.cc.on_ack();
            }
            // Fresh evidence of a live path: reset the backoff.
            f.rto = f.config.rto_initial;
            f.timer_generation += 1;
            if f.base >= f.config.segments {
                return self.finish_flow(id);
            }
            arm_timer = Some((f.rto, f.timer_generation));
        }
        if let Some((rto, generation)) = arm_timer {
            let at = self.now + rto;
            let key = self.lane_key(shared, src, true);
            self.push_local(
                at,
                key,
                Event::FlowTimer {
                    flow: id,
                    generation,
                },
            );
        }
        self.flow_pump(shared, id);
    }

    /// The retransmit timer fires: exponential backoff, congestion
    /// response, and the Go-Back-N resend of everything outstanding.
    fn flow_on_timer(&mut self, shared: &Shared, id: u32, generation: u64) {
        let Some(f) = self.flows.get_mut(id as usize).and_then(Option::as_mut) else {
            return;
        };
        if f.done || f.timer_generation != generation {
            return;
        }
        // An endpoint fail-stopped: the flow can never complete — abort
        // it instead of backing off forever. Liveness comes from the
        // shared map (the endpoints may live in other regions).
        let up = |v: NodeId| shared.alive.get(v.raw() as usize).copied().unwrap_or(false);
        if !up(f.src) || !up(f.dest) {
            return self.finish_flow(id);
        }
        f.timeouts += 1;
        self.stats.congestion.flow_timeouts += 1;
        f.cc.on_timeout();
        f.rto = (f.rto * 2.0).min(f.config.rto_max);
        let outstanding = f.next_seq - f.base;
        f.retransmitted += outstanding * f.config.seg_weight;
        self.stats.congestion.flow_retransmit_weight += outstanding * f.config.seg_weight;
        f.next_seq = f.base;
        f.timer_generation += 1;
        let generation = f.timer_generation;
        let src = f.src;
        let at = self.now + f.rto;
        let key = self.lane_key(shared, src, true);
        self.push_local(
            at,
            key,
            Event::FlowTimer {
                flow: id,
                generation,
            },
        );
        self.flow_pump(shared, id);
    }

    /// Transmits segments while the congestion window has room. Segments
    /// start at the flow's source, which is owned by this region (flows
    /// are homed where their source lives), so pumping never stages.
    fn flow_pump(&mut self, shared: &Shared, id: u32) {
        loop {
            let Some(f) = self.flows.get_mut(id as usize).and_then(Option::as_mut) else {
                return;
            };
            if f.done {
                return;
            }
            let limit = (f.base + f.cc.window()).min(f.config.segments);
            if f.next_seq >= limit {
                return;
            }
            let seq = f.next_seq;
            f.next_seq += 1;
            let (src, dest, ttl, weight) = (f.src, f.dest, f.config.ttl, f.config.seg_weight);
            // Flows scheduled ahead of the event loop transmit their
            // initial window at the flow's start time, not "now".
            let t = self.now.max(f.started_at);
            self.stats.traffic.injected += weight;
            self.packets_in_flight += 1;
            self.packets_in_flight_weight += weight as i64;
            let mut p = Packet::new(src, dest, ttl, weight, t);
            p.flow = Some(FlowTag { flow: id, seq });
            self.emit_packet(shared, t, src, p);
        }
    }

    /// Terminal transition: records the flow and stales its timer.
    fn finish_flow(&mut self, id: u32) {
        let f = self.flows[id as usize]
            .as_mut()
            .expect("finishing an unknown flow");
        f.done = true;
        f.timer_generation += 1;
        let record = FlowRecord {
            id,
            src: f.src,
            dest: f.dest,
            segments: f.config.segments,
            seg_weight: f.config.seg_weight,
            acked_segments: f.base,
            started_at: f.started_at,
            finished_at: self.now,
            retransmitted: f.retransmitted,
            timeouts: f.timeouts,
            marks: f.marks,
        };
        self.active_flows -= 1;
        self.obs(ObsOp::FlowDone(record));
    }

    /// Re-syncs `v`'s neighbor cache from the graph and lets the node
    /// observe the change (driver context only — the graph is engine
    /// state).
    fn neighbors_changed(&mut self, shared: &Shared, graph: &Graph, v: NodeId) {
        let Some(l) = self.local_checked(shared, v) else {
            return;
        };
        let now = self.now;
        let mut fx = std::mem::take(&mut self.fx_scratch);
        let Some(slot) = self.slots.get_mut(NodeId::new(l)) else {
            self.fx_scratch = fx;
            return;
        };
        slot.neighbors.clear();
        slot.neighbors.extend(graph.neighbors(v));
        let now_local = slot.clock.local(now);
        slot.node
            .on_neighbors_changed(&slot.neighbors, now_local, &mut fx);
        self.apply_effects(shared, v, &mut fx, None);
        fx.clear();
        self.fx_scratch = fx;
        self.reevaluate(shared, v);
    }
}

/// Why [`Engine::drive`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// Every queue is empty.
    Drained,
    /// Nothing effective happened for the settle span and no
    /// non-maintenance guard is enabled.
    Settled,
    /// The next pending event lies beyond `until`.
    Passed,
    /// The event budget is spent and an event within `until` is pending.
    Budget,
}

/// The region-parallel discrete-event engine (see the module docs for
/// the execution model; the public API is unchanged from the sequential
/// engine, plus [`Engine::regions`]).
pub struct Engine<P: ProtocolNode> {
    graph: Graph,
    shared: Shared,
    cores: Vec<Core<P>>,
    sink: Box<dyn TraceSink>,
    /// The always-current dense route view (see [`crate::view`]),
    /// updated only through the ordered observability stream.
    view: RouteView,
    now: SimTime,
    /// Last effective instant caused by a *driver* mutation (faults,
    /// state corruption); per-event effectiveness lives in the cores.
    last_effective_driver: SimTime,
    factory: NodeFactory<P>,
    /// Driver-context observability sequence, threaded across cores so
    /// multi-region driver mutations replay in call order.
    driver_opseq: u64,
    /// High-water mark of total pending events (summed across regions),
    /// sampled only at region-invariant logical points — construction,
    /// driver mutations, data-plane injections, and every event of
    /// [`Engine::step_within`] — so serial and regioned runs agree (see
    /// [`EngineStats::peak_queue_depth`]).
    peak_queue_depth: usize,
    /// Minimum simulated delay of any cross-region effect — the width of
    /// a conservative window (see the module docs for its two values).
    lookahead: f64,
    /// Completed packets awaiting [`Engine::drain_completed_packets`],
    /// in canonical completion order.
    completed_packets: Vec<PacketRecord>,
    /// Finished flows awaiting [`Engine::drain_completed_flows`].
    completed_flows: Vec<FlowRecord>,
    /// Reusable drain buffer for staged cross-region effects.
    staged_merge: Vec<Staged<P::Msg>>,
}

impl<P: ProtocolNode> fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field(
                "nodes",
                &self.cores.iter().map(|c| c.slots.len()).sum::<usize>(),
            )
            .field("inflight", &self.inflight_messages())
            .field(
                "queued_events",
                &self.cores.iter().map(|c| c.queue.len()).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

impl<P: ProtocolNode> Engine<P> {
    /// Creates an engine over `graph`, instantiating one protocol node per
    /// graph node via `factory` (which receives the node id and its initial
    /// neighbor/weight map). Guards are evaluated immediately, so actions
    /// enabled at the initial state start their hold timers at time 0.
    /// The topology is partitioned into [`EngineConfig::regions`] connected
    /// regions up front; nodes joining later are homed with their first
    /// mapped neighbor.
    pub fn new(
        graph: Graph,
        config: EngineConfig,
        factory: impl FnMut(NodeId, &[(NodeId, Weight)]) -> P + 'static,
    ) -> Self {
        config.link.validate();
        config.congestion.validate();
        let discipline = config.congestion.discipline.build();
        // A one-shot factory (streaming export) takes precedence over the
        // plain kind; once consumed — or absent — the kind builds the sink.
        let mut sink = config
            .sink_factory
            .as_ref()
            .and_then(|f| f.build())
            .unwrap_or_else(|| config.sink.build());
        sink.attach(&graph, config.seed);
        let emit_queue_obs = sink.wants_queue_samples();
        // Pause has a zero-delay cross-region effect, and a region
        // without a node is a queue and a barrier share for nothing.
        let pause = config.congestion.enabled()
            && matches!(config.congestion.discipline, DisciplineKind::Pause { .. });
        let regions = if pause {
            1
        } else {
            config.regions.min(graph.node_count()).max(1)
        };
        let part = partition(&graph, regions);
        let mut map = RegionMap::new(part.regions.len());
        for (r, nodes) in part.regions.iter().enumerate() {
            for &v in nodes {
                map.assign(v, r as u32);
            }
        }
        let lookahead = if part.regions.len() == 1 {
            f64::INFINITY
        } else {
            config.link.delay_min
        };
        let mut cores: Vec<Core<P>> = (0..part.regions.len())
            .map(|i| Core::new(i as u32))
            .collect();
        for c in &mut cores {
            c.emit_queue_obs = emit_queue_obs;
        }
        let shared = Shared {
            config,
            discipline,
            map,
            alive: Vec::new(),
            flow_home: Vec::new(),
        };
        let mut engine = Engine {
            graph,
            shared,
            cores,
            sink,
            view: RouteView::default(),
            now: SimTime::ZERO,
            last_effective_driver: SimTime::ZERO,
            factory: Box::new(factory),
            driver_opseq: 0,
            peak_queue_depth: 0,
            lookahead,
            completed_packets: Vec::new(),
            completed_flows: Vec::new(),
            staged_merge: Vec::new(),
        };
        let ids: Vec<NodeId> = engine.graph.nodes().collect();
        for &v in &ids {
            engine.spawn_node(v);
        }
        for core in &mut engine.cores {
            let locals = core.slots.len();
            core.size_for(locals);
        }
        for v in ids {
            let r = engine.shared.map.region(v).expect("spawned above") as usize;
            let opseq = engine.driver_opseq;
            let core = &mut engine.cores[r];
            core.begin_driver(SimTime::ZERO, opseq);
            core.reevaluate(&engine.shared, v);
            engine.driver_opseq = core.opseq;
        }
        engine.end_driver();
        engine
    }

    /// Instantiates `v`'s protocol node and installs its slot in its home
    /// region (the region assignment must already exist).
    fn spawn_node(&mut self, v: NodeId) {
        let neighbors: Vec<(NodeId, Weight)> = self.graph.neighbors(v).collect();
        let node = (self.factory)(v, &neighbors);
        let entry = ViewEntry {
            route: node.route_entry(),
            containment: node.in_containment(),
        };
        publish_route(&mut self.view, self.sink.as_mut(), self.now, v, Some(entry));
        let idx = v.raw() as usize;
        if idx >= self.shared.alive.len() {
            self.shared.alive.resize(idx + 1, false);
        }
        self.shared.alive[idx] = true;
        let r = self
            .shared
            .map
            .region(v)
            .expect("node assigned to a region before spawn") as usize;
        let local = NodeId::new(self.shared.map.local(v));
        let clock = self
            .shared
            .config
            .clocks
            .clock_for(v, self.shared.config.seed);
        self.cores[r].slots.insert(
            local,
            Slot {
                node,
                clock,
                guards: Guards::default(),
                neighbors,
                pending_wakeup: None,
            },
        );
    }

    /// Closes a driver-context mutation: staged cross-region effects
    /// enter their target queues and buffered observability is applied
    /// in canonical order.
    fn end_driver(&mut self) {
        self.ingest_staged(None);
        self.sample_queue_depth();
        self.flush();
    }

    /// Folds the current total pending-event count into the engine-level
    /// high-water mark. Called only at region-invariant logical points,
    /// where the pending multiset is identical regardless of region count.
    fn sample_queue_depth(&mut self) {
        let depth: usize = self.cores.iter().map(|c| c.queue.len()).sum();
        self.peak_queue_depth = self.peak_queue_depth.max(depth);
    }

    fn mark_effective(&mut self) {
        self.last_effective_driver = self.now;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of regions the topology was partitioned into (1 = fully
    /// sequential execution).
    pub fn regions(&self) -> usize {
        self.cores.len()
    }

    /// The execution trace so far: actions and variable changes. When the
    /// configured sink keeps no trace ([`crate::sink::CountsOnly`]), this
    /// is a permanently empty trace. Message counts are not part of it —
    /// they live in [`Engine::stats`], which is always maintained.
    pub fn trace(&self) -> &Trace {
        self.sink.trace().unwrap_or(&EMPTY_TRACE)
    }

    /// The configured trace sink.
    pub fn sink(&self) -> &dyn TraceSink {
        self.sink.as_ref()
    }

    /// Clears the sink's records — typically right after a warm-up phase,
    /// so measurements cover only the perturbation. [`Engine::stats`] is
    /// cumulative and unaffected: read it here to take a baseline.
    pub fn reset_trace(&mut self) {
        self.sink
            .record_marker(self.now, MarkerKind::Reset, None, None);
        self.sink.reset();
    }

    /// Read access to a protocol node.
    pub fn node(&self, v: NodeId) -> Option<&P> {
        let r = self.shared.map.region(v)? as usize;
        let l = NodeId::new(self.shared.map.local(v));
        self.cores.get(r)?.slots.get(l).map(|s| &s.node)
    }

    /// Mutates a node's state in place (the *state corruption* fault class)
    /// and re-evaluates its guards. Does nothing for unknown nodes.
    pub fn with_node_mut(&mut self, v: NodeId, f: impl FnOnce(&mut P)) {
        let Some(r) = self.shared.map.region(v) else {
            return;
        };
        let l = NodeId::new(self.shared.map.local(v));
        if self.cores[r as usize].slots.get(l).is_none() {
            return;
        }
        self.sink
            .record_marker(self.now, MarkerKind::Mutate, Some(v), None);
        let now = self.now;
        let opseq = self.driver_opseq;
        let core = &mut self.cores[r as usize];
        core.begin_driver(now, opseq);
        if let Some(slot) = core.slots.get_mut(l) {
            f(&mut slot.node);
        }
        core.refresh_view(&self.shared, v);
        core.mark_effective();
        core.reevaluate(&self.shared, v);
        self.driver_opseq = core.opseq;
        self.last_effective_driver = now;
        self.end_driver();
    }

    /// The current route table (each node's `(d.v, p.v)`), served from the
    /// maintained [`RouteView`] — identical to rebuilding from the nodes.
    pub fn route_table(&self) -> RouteTable {
        self.view.to_table()
    }

    /// The engine-maintained dense route view.
    pub fn route_view(&self) -> &RouteView {
        &self.view
    }

    /// Turns route-delta logging on (idempotent) and returns the current
    /// change cursor — the entry point for O(changes) consumers; see
    /// [`crate::view`] for the cursor contract.
    pub fn route_cursor(&mut self) -> RouteCursor {
        self.view.enable_logging();
        self.view.cursor()
    }

    /// Every route delta recorded after `cursor`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics for cursors that were trimmed past (see
    /// [`RouteView::deltas_since`]).
    pub fn route_deltas_since(&self, cursor: RouteCursor) -> &[RouteDelta] {
        self.view.deltas_since(cursor)
    }

    /// Discards route deltas every consumer has advanced past.
    pub fn trim_route_deltas(&mut self, cursor: RouteCursor) {
        self.view.trim(cursor);
    }

    /// Number of messages currently in flight. Cross-region messages
    /// increment at the sender's region and decrement at the receiver's;
    /// the global sum is the true count.
    pub fn inflight_messages(&self) -> u64 {
        let sum: i64 = self.cores.iter().map(|c| c.inflight).sum();
        u64::try_from(sum.max(0)).unwrap_or(0)
    }

    /// Whether any non-maintenance guard is currently enabled somewhere.
    /// O(regions): each region maintains its count at every guard
    /// insert/removal.
    pub fn any_enabled_non_maintenance(&self) -> bool {
        let total: usize = self.cores.iter().map(|c| c.enabled_non_maintenance).sum();
        debug_assert_eq!(
            total,
            self.cores
                .iter()
                .flat_map(|c| c.slots.values())
                .flat_map(|s| s.guards.keys())
                .filter(|&a| !P::is_maintenance(a))
                .count(),
            "non-maintenance guard counter drifted"
        );
        total > 0
    }

    /// The last time an effective event occurred (anywhere).
    pub fn last_effective(&self) -> SimTime {
        let mut le = self.last_effective_driver;
        for core in &self.cores {
            le = le.max(core.last_effective);
        }
        le
    }

    /// Always-on engine health statistics, merged across regions (see
    /// [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let mut s = EngineStats::default();
        for core in &self.cores {
            s.absorb(&core.stats);
        }
        s.peak_queue_depth = self.peak_queue_depth;
        s
    }

    // ------------------------------------------------------------------
    // Data plane: the packet lane.
    // ------------------------------------------------------------------

    /// Injects a packet probe at the current time. `weight` is the number
    /// of real packets the probe represents (flow aggregation; use 1 for
    /// exact per-packet runs) and `ttl` the hop budget.
    ///
    /// # Panics
    ///
    /// Panics on zero `weight` (a probe representing nothing is a bug in
    /// the workload generator, not a droppable packet).
    pub fn inject_packet(&mut self, src: NodeId, dest: NodeId, ttl: u32, weight: u64) {
        self.inject_packet_at(self.now, src, dest, ttl, weight);
    }

    /// [`Engine::inject_packet`] at a future time (clamped to now), so
    /// workload generators can schedule a whole sampling window ahead of
    /// the event loop.
    ///
    /// # Panics
    ///
    /// Panics on zero `weight`.
    pub fn inject_packet_at(
        &mut self,
        at: SimTime,
        src: NodeId,
        dest: NodeId,
        ttl: u32,
        weight: u64,
    ) {
        assert!(weight > 0, "packet probes must represent >= 1 packet");
        let at = at.max(self.now);
        let r = self.shared.map.region(src).unwrap_or(0) as usize;
        let now = self.now;
        let opseq = self.driver_opseq;
        let core = &mut self.cores[r];
        core.begin_driver(now, opseq);
        core.stats.traffic.injected += weight;
        core.packets_in_flight += 1;
        core.packets_in_flight_weight += weight as i64;
        let key = core.lane_key(&self.shared, src, true);
        let packet = core.arena.alloc(Packet::new(src, dest, ttl, weight, at));
        core.push_local(at, key, Event::PacketHop { packet });
        self.driver_opseq = core.opseq;
        self.sample_queue_depth();
    }

    /// Packet probes currently queued (unweighted count).
    pub fn packets_in_flight(&self) -> u64 {
        let sum: i64 = self.cores.iter().map(|c| c.packets_in_flight).sum();
        u64::try_from(sum.max(0)).unwrap_or(0)
    }

    /// Represented packets currently in flight (weighted). Packet
    /// conservation — `injected == completed() + packets_in_flight_weight`
    /// at every instant — is an engine invariant the congestion tests pin.
    pub fn packets_in_flight_weight(&self) -> u64 {
        let sum: i64 = self.cores.iter().map(|c| c.packets_in_flight_weight).sum();
        u64::try_from(sum.max(0)).unwrap_or(0)
    }

    /// Takes every packet completed since the last drain, in canonical
    /// completion order. Consumers driving traffic should drain regularly
    /// — records accumulate until taken.
    pub fn drain_completed_packets(&mut self) -> Vec<PacketRecord> {
        std::mem::take(&mut self.completed_packets)
    }

    // ------------------------------------------------------------------
    // Data plane: Go-Back-N flows.
    // ------------------------------------------------------------------

    /// Starts a Go-Back-N flow of `config.segments` segments from `src`
    /// to `dest` at the current time, returning its id. The flow is homed
    /// in `src`'s region: its sender state, timers and ACK processing all
    /// live there.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`FlowConfig`] or `src == dest`.
    pub fn start_flow(&mut self, src: NodeId, dest: NodeId, config: FlowConfig) -> u32 {
        self.start_flow_at(self.now, src, dest, config)
    }

    /// [`Engine::start_flow`] with a future start time: the initial
    /// window transmits at `at` and the retransmit timer arms relative to
    /// it. Workload drivers use this to schedule flow starts ahead of the
    /// event loop, keeping runs independent of scheduling chunk
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`FlowConfig`], `src == dest`, or a start
    /// time in the past.
    pub fn start_flow_at(
        &mut self,
        at: SimTime,
        src: NodeId,
        dest: NodeId,
        config: FlowConfig,
    ) -> u32 {
        config.validate();
        assert!(src != dest, "a flow needs two distinct endpoints");
        assert!(at >= self.now, "flow start times cannot be in the past");
        let id = u32::try_from(self.shared.flow_home.len()).expect("flow ids fit u32");
        let home = self.shared.map.region(src).unwrap_or(0);
        self.shared.flow_home.push(home);
        let now = self.now;
        let opseq = self.driver_opseq;
        let core = &mut self.cores[home as usize];
        core.begin_driver(now, opseq);
        core.stats.congestion.flow_offered_weight += config.segments * config.seg_weight;
        core.flows.resize_with(id as usize + 1, || None);
        core.flows[id as usize] = Some(FlowState {
            src,
            dest,
            cc: config.cc.build(),
            base: 0,
            next_seq: 0,
            rto: config.rto_initial,
            timer_generation: 1,
            retransmitted: 0,
            timeouts: 0,
            marks: 0,
            started_at: at,
            done: false,
            config,
        });
        core.active_flows += 1;
        let key = core.lane_key(&self.shared, src, true);
        core.push_local(
            at + config.rto_initial,
            key,
            Event::FlowTimer {
                flow: id,
                generation: 1,
            },
        );
        core.flow_pump(&self.shared, id);
        self.driver_opseq = core.opseq;
        self.end_driver();
        id
    }

    /// Flows started but not yet completed or aborted. Traffic loops must
    /// treat a run with active flows as not-yet-drained, exactly like
    /// `packets_in_flight() > 0`.
    pub fn flows_active(&self) -> usize {
        self.cores.iter().map(|c| c.active_flows).sum()
    }

    /// Takes every flow finished since the last drain, in canonical
    /// completion order.
    pub fn drain_completed_flows(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completed_flows)
    }

    /// Cumulative flow goodput: `(acked, offered)` weighted payload over
    /// every flow ever started. Retransmissions never count — a segment
    /// contributes to `acked` exactly once, when the cumulative ACK first
    /// covers it.
    pub fn flow_goodput(&self) -> (u64, u64) {
        let s = self.stats();
        (
            s.congestion.flow_acked_weight,
            s.congestion.flow_offered_weight,
        )
    }

    // ------------------------------------------------------------------
    // Topology faults (fail-stop / join / weight change).
    // ------------------------------------------------------------------

    /// Fail-stops a node: removes it and its edges; neighbors observe the
    /// change. In-flight messages to or from it are lost.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] for unknown nodes.
    pub fn fail_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        let neighbors: Vec<NodeId> = self.graph.neighbors(v).map(|(n, _)| n).collect();
        self.graph.remove_node(v)?;
        self.sink
            .record_marker(self.now, MarkerKind::FailNode, Some(v), None);
        if let Some(r) = self.shared.map.region(v) {
            let l = NodeId::new(self.shared.map.local(v));
            let core = &mut self.cores[r as usize];
            if let Some(slot) = core.slots.remove(l) {
                core.enabled_non_maintenance -= slot
                    .guards
                    .keys()
                    .filter(|&a| !P::is_maintenance(a))
                    .count();
            }
        }
        if let Some(s) = self.shared.alive.get_mut(v.raw() as usize) {
            *s = false;
        }
        publish_route(&mut self.view, self.sink.as_mut(), self.now, v, None);
        self.mark_effective();
        for n in neighbors {
            self.notify_neighbors_changed(n);
        }
        self.end_driver();
        Ok(())
    }

    /// Joins a new node with the given edges; it and its neighbors observe
    /// the change. A first-time joiner is homed with its lowest-id mapped
    /// neighbor (region 0 when isolated); a rejoining node keeps its
    /// original region — assignments are sticky.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the node exists or an edge is invalid.
    pub fn join_node(&mut self, v: NodeId, edges: &[(NodeId, Weight)]) -> Result<(), GraphError> {
        if self.graph.has_node(v) {
            return Err(GraphError::DuplicateNode(v));
        }
        self.graph.add_node(v);
        for &(n, w) in edges {
            if let Err(e) = self.graph.add_edge(v, n, w) {
                let _ = self.graph.remove_node(v);
                return Err(e);
            }
        }
        let home = edges
            .iter()
            .filter_map(|&(n, _)| self.shared.map.region(n).map(|r| (n, r)))
            .min_by_key(|&(n, _)| n)
            .map_or(0, |(_, r)| r);
        self.shared.map.assign(v, home);
        self.sink
            .record_marker(self.now, MarkerKind::JoinNode, Some(v), None);
        self.spawn_node(v);
        self.mark_effective();
        self.notify_neighbors_changed(v);
        for &(n, _) in edges {
            self.notify_neighbors_changed(n);
        }
        self.end_driver();
        Ok(())
    }

    /// Fail-stops an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] for unknown edges.
    pub fn fail_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        self.graph.remove_edge(a, b)?;
        self.sink
            .record_marker(self.now, MarkerKind::FailEdge, Some(a), Some(b));
        self.mark_effective();
        self.notify_neighbors_changed(a);
        self.notify_neighbors_changed(b);
        self.end_driver();
        Ok(())
    }

    /// Joins an edge between existing nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] on invalid endpoints/weight.
    pub fn join_edge(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        if !self.graph.has_node(a) {
            return Err(GraphError::MissingNode(a));
        }
        if !self.graph.has_node(b) {
            return Err(GraphError::MissingNode(b));
        }
        self.graph.add_edge(a, b, w)?;
        self.sink
            .record_marker(self.now, MarkerKind::JoinEdge, Some(a), Some(b));
        self.mark_effective();
        self.notify_neighbors_changed(a);
        self.notify_neighbors_changed(b);
        self.end_driver();
        Ok(())
    }

    /// Changes an edge weight.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for unknown edges or zero weight.
    pub fn set_weight(&mut self, a: NodeId, b: NodeId, w: Weight) -> Result<(), GraphError> {
        self.graph.set_weight(a, b, w)?;
        self.sink
            .record_marker(self.now, MarkerKind::SetWeight, Some(a), Some(b));
        self.mark_effective();
        self.notify_neighbors_changed(a);
        self.notify_neighbors_changed(b);
        self.end_driver();
        Ok(())
    }

    /// Routes a driver-context neighbor-change notification to `v`'s
    /// region (no-op for unmapped or failed nodes).
    fn notify_neighbors_changed(&mut self, v: NodeId) {
        let Some(r) = self.shared.map.region(v) else {
            return;
        };
        let now = self.now;
        let opseq = self.driver_opseq;
        let core = &mut self.cores[r as usize];
        core.begin_driver(now, opseq);
        core.neighbors_changed(&self.shared, &self.graph, v);
        self.driver_opseq = core.opseq;
    }

    // ------------------------------------------------------------------
    // Running.
    // ------------------------------------------------------------------

    /// The globally earliest queued `(time, key)`.
    fn global_next(&self) -> Option<(SimTime, EventKey)> {
        self.cores.iter().filter_map(|c| c.queue.peek()).min()
    }

    /// Whether both planes are drained: no non-maintenance guard enabled,
    /// no control message in flight, no packet in flight and no flow
    /// active. Periodic maintenance may still be queued — a drained
    /// engine can only tick, never change a route or move a packet.
    pub fn drained(&self) -> bool {
        !self.any_enabled_non_maintenance()
            && self.inflight_messages() == 0
            && self.packets_in_flight() == 0
            && self.flows_active() == 0
    }

    /// The time of the earliest queued event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.global_next().map(|(t, _)| t)
    }

    /// Processes exactly one event (the globally earliest) and returns
    /// the clock after it — the hook fine-grained observers (e.g. the
    /// loop monitor checking every intermediate state) are built on.
    /// Returns `None` when all queues are empty. A step is
    /// [`Engine::step_within`] with a budget of one, so the total
    /// pending-event count is sampled into
    /// [`EngineStats::peak_queue_depth`] right after the event.
    pub fn step(&mut self) -> Option<SimTime> {
        let never = SimTime::new(f64::INFINITY);
        (self.step_within(never, never, 1) > 0).then_some(self.now)
    }

    /// Processes every pending event at or before `until` and strictly
    /// before `before` (a `before` of +∞ bounds nothing), at most
    /// `budget` of them, and returns how many ran. The engine is left
    /// exactly as that many [`Engine::step`] calls leave it,
    /// [`EngineStats::peak_queue_depth`] included: the total
    /// pending-event count is sampled after every event, and the clock
    /// stays at the last event processed. One region runs the events as
    /// one window; several take one event per window, as a step does,
    /// because a budget cut inside a wider window could leave one region
    /// ahead of another.
    pub fn step_within(&mut self, until: SimTime, before: SimTime, budget: u64) -> u64 {
        let mut stop = WindowBound::inclusive(until);
        if before.seconds() < f64::INFINITY {
            stop = stop.meet(WindowBound::exclusive(before));
        }
        let lookahead = if self.cores.len() == 1 {
            self.lookahead
        } else {
            0.0
        };
        self.drive(stop, 0.0, lookahead, budget, true).0
    }

    /// Processes all events up to and including `until`, then advances the
    /// clock to `until`.
    ///
    /// # Errors
    ///
    /// [`EngineError::EventBudgetExhausted`] if the configured event budget
    /// runs out.
    pub fn run_until(&mut self, until: SimTime) -> Result<RunReport, EngineError> {
        let max_events = self.shared.config.max_events;
        let stop = WindowBound::inclusive(until);
        let (events, halt) = self.drive(stop, 0.0, self.lookahead, max_events, false);
        if halt == Halt::Budget {
            return Err(EngineError::EventBudgetExhausted { at: self.now });
        }
        self.now = self.now.max(until);
        Ok(RunReport {
            end: self.now,
            quiescent: halt == Halt::Drained,
            last_effective: self.last_effective(),
            events,
        })
    }

    /// Runs until the system settles or `horizon` passes.
    ///
    /// With `settle = 0` (appropriate when no periodic maintenance action
    /// is configured), the run ends when the event queues drain. With
    /// `settle > 0`, the run ends once no *effective* event (state or
    /// mirror change, or non-maintenance execution) has occurred for
    /// `settle` simulated seconds and no non-maintenance guard is enabled
    /// — any remaining events are maintenance refreshes whose payloads
    /// already match the receivers' mirrors (a divergent mirror would
    /// have produced an effective refresh within the span), so use a
    /// `settle` larger than `rho * syn_period + delay_max`.
    ///
    /// # Errors
    ///
    /// [`EngineError::EventBudgetExhausted`] if the event budget runs out.
    pub fn run_to_quiescence(
        &mut self,
        horizon: SimTime,
        settle: f64,
    ) -> Result<RunReport, EngineError> {
        let max_events = self.shared.config.max_events;
        let stop = WindowBound::inclusive(horizon);
        let (events, halt) = self.drive(stop, settle, self.lookahead, max_events, false);
        let last_effective = self.last_effective();
        match halt {
            Halt::Budget => return Err(EngineError::EventBudgetExhausted { at: self.now }),
            Halt::Settled => self.now = self.now.max(last_effective + settle),
            Halt::Passed => self.now = horizon,
            Halt::Drained => {}
        }
        Ok(RunReport {
            end: self.now,
            quiescent: halt != Halt::Passed,
            last_effective,
            events,
        })
    }

    /// The one run loop. Each turn takes the globally earliest pending
    /// event, checks the stop conditions against it, runs one window —
    /// `lookahead` wide from that event, capped at `stop` and (with
    /// `settle > 0`) at `last_effective + settle` — and closes it with the
    /// barrier. Returns the number of events processed and why it stopped;
    /// the clock is left at the last processed event. With `sample`, the
    /// pending-event count is sampled after every event, and again at
    /// every barrier, once a several-region window's staged effects have
    /// landed.
    ///
    /// Caps only shrink a window and the stop conditions are re-checked
    /// after every barrier, so no event a one-event-at-a-time engine would
    /// have left unprocessed at its stop point is ever executed: stop
    /// decisions, event counts and end times are the same for every
    /// lookahead. A bound that rejects even the event it was built from —
    /// the zero width a several-region `step_within` passes, or the settle
    /// span ending while guards are still enabled — degrades to a window
    /// holding exactly that event.
    fn drive(
        &mut self,
        stop: WindowBound,
        settle: f64,
        lookahead: f64,
        max_events: u64,
        sample: bool,
    ) -> (u64, Halt) {
        // Cutting a window short on the event budget is only
        // order-preserving for the ordered observability merge when no
        // other region ran ahead inside the same window — with a finite
        // lookahead the window's width is the flush cadence instead.
        let chunk = if lookahead.is_finite() {
            u64::MAX
        } else {
            OBS_CHUNK
        };
        let mut events = 0u64;
        loop {
            let Some(head) = self.global_next() else {
                return (events, Halt::Drained);
            };
            let quiet_until = (settle > 0.0).then(|| self.last_effective() + settle);
            if quiet_until.is_some_and(|q| head.0 > q) && !self.any_enabled_non_maintenance() {
                return (events, Halt::Settled);
            }
            if !stop.admits(head) {
                return (events, Halt::Passed);
            }
            if events >= max_events {
                return (events, Halt::Budget);
            }
            let mut bound = WindowBound::exclusive(head.0 + lookahead).meet(stop);
            if let Some(q) = quiet_until {
                bound = bound.meet(WindowBound::inclusive(q));
            }
            let mut budget = (max_events - events).min(chunk);
            if !bound.admits(head) {
                bound = WindowBound::only(head);
                budget = 1;
            }
            events += self.execute_window(bound, budget, sample);
            self.ingest_staged(Some(bound));
            self.flush();
            for core in &self.cores {
                self.now = self.now.max(core.now);
            }
            if sample {
                self.sample_queue_depth();
            }
        }
    }

    /// Runs one conservative window on every region and returns the
    /// number of events processed. Regions run concurrently when
    /// `jobs > 1` and more than one of them has an admitted event: they
    /// are split into contiguous chunks, one scoped worker thread per
    /// chunk. The per-region results are order-free, so neither the
    /// thread count nor the inline shortcut can change a trajectory.
    fn execute_window(&mut self, bound: WindowBound, budget: u64, sample: bool) -> u64 {
        if sample {
            return self.execute_sampled(bound, budget);
        }
        let Engine { cores, shared, .. } = self;
        let shared = &*shared;
        let busy = cores
            .iter()
            .filter(|c| c.queue.peek().is_some_and(|head| bound.admits(head)))
            .count();
        let jobs = shared.config.jobs.max(1).min(cores.len());
        if jobs <= 1 || busy <= 1 {
            return cores
                .iter_mut()
                .map(|c| c.run_window(shared, bound, budget))
                .sum();
        }
        let chunk = cores.len().div_ceil(jobs);
        std::thread::scope(|scope| {
            let handles: Vec<_> = cores
                .chunks_mut(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter_mut()
                            .map(|c| c.run_window(shared, bound, budget))
                            .sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("window worker panicked"))
                .sum()
        })
    }

    /// [`Engine::execute_window`] one event at a time, inline, sampling
    /// the pending-event count after each. Sampled windows hold one event
    /// on several regions (see [`Engine::step_within`]), so this splits
    /// only a one-region window. Kept out of line, so that the unsampled
    /// window compiles as it would without it.
    #[inline(never)]
    fn execute_sampled(&mut self, bound: WindowBound, budget: u64) -> u64 {
        let mut done = 0u64;
        while done < budget {
            let Engine { cores, shared, .. } = &mut *self;
            let ran: u64 = cores
                .iter_mut()
                .map(|c| c.run_window(shared, bound, 1))
                .sum();
            if ran == 0 {
                break;
            }
            done += ran;
            self.sample_queue_depth();
        }
        done
    }

    /// Moves every staged cross-region effect into its target region at a
    /// barrier. Event-carrying effects land in the target queue under
    /// their canonical `(time, key)`; conservative lookahead guarantees
    /// they lie beyond the window that staged them (asserted when the
    /// window's bound is known).
    fn ingest_staged(&mut self, bound: Option<WindowBound>) {
        let mut buf = std::mem::take(&mut self.staged_merge);
        for i in 0..self.cores.len() {
            if self.cores[i].staged.is_empty() {
                continue;
            }
            std::mem::swap(&mut buf, &mut self.cores[i].staged);
            for s in buf.drain(..) {
                match s {
                    Staged::Deliver {
                        time,
                        key,
                        region,
                        from,
                        to,
                        msg,
                    } => {
                        debug_assert!(
                            bound.is_none_or(|b| !b.admits((time, key))),
                            "staged delivery inside its own window"
                        );
                        self.cores[region as usize].push_local(
                            time,
                            key,
                            Event::Deliver { from, to, msg },
                        );
                    }
                    Staged::Packet {
                        time,
                        key,
                        region,
                        packet,
                    } => {
                        debug_assert!(
                            bound.is_none_or(|b| !b.admits((time, key))),
                            "staged packet inside its own window"
                        );
                        let core = &mut self.cores[region as usize];
                        let idx = core.arena.alloc(packet);
                        core.push_local(time, key, Event::PacketHop { packet: idx });
                    }
                    Staged::FlowAck {
                        time,
                        key,
                        region,
                        flow,
                        ack,
                        marked,
                    } => {
                        debug_assert!(
                            bound.is_none_or(|b| !b.admits((time, key))),
                            "staged flow ack inside its own window"
                        );
                        self.cores[region as usize].push_local(
                            time,
                            key,
                            Event::FlowAck { flow, ack, marked },
                        );
                    }
                }
            }
        }
        self.staged_merge = buf;
    }

    /// Applies buffered observability at a barrier: ordered records are
    /// applied via a greedy k-way merge of the per-region streams, always
    /// taking the stream whose head has the smallest `(time, key, seq)`.
    ///
    /// The merge deliberately preserves each region's *execution* order
    /// rather than globally sorting: an event may schedule a same-time
    /// follow-up on its own node under a smaller key (e.g. a zero-hold
    /// guard timer scheduled while delivering a higher-keyed message), so
    /// a region's stream is not sorted by key — but the single-queue
    /// engine's pop order *is* exactly this merge (the global queue
    /// minimum is always some region's next event), which is what makes
    /// the merged order identical for every region count.
    fn flush(&mut self) {
        let Engine {
            cores,
            sink,
            view,
            completed_packets,
            completed_flows,
            ..
        } = self;
        // The streams are consumed in place, from the front: nothing is
        // allocated, and with nothing recorded the loop ends at once.
        loop {
            let heads = cores.iter().enumerate().filter_map(|(i, c)| {
                let rec = c.obs.front()?;
                Some((i, (rec.time, rec.key, rec.seq)))
            });
            let Some((i, _)) = heads.min_by_key(|&(_, k)| k) else {
                break;
            };
            let rec = cores[i].obs.pop_front().expect("its head was just read");
            match rec.op {
                ObsOp::Action(r) => sink.record_action(r),
                ObsOp::ReceiveChange(t, v) => sink.record_receive_change(t, v),
                ObsOp::View(v, e) => publish_route(view, sink.as_mut(), rec.time, v, e),
                ObsOp::PacketDone(r) => {
                    sink.record_packet_done(&r);
                    completed_packets.push(r);
                }
                ObsOp::FlowDone(r) => {
                    sink.record_flow_done(&r);
                    completed_flows.push(r);
                }
                ObsOp::Queue {
                    from,
                    to,
                    occupancy,
                    dropped,
                } => sink.record_queue_sample(rec.time, from, to, occupancy, dropped),
            }
        }
    }
}

impl<P: ProtocolNode> Drop for Engine<P> {
    /// Hands the sink the run's message totals ([`TraceSink::close`]).
    fn drop(&mut self) {
        let stats = self.stats();
        self.sink.close(&stats);
    }
}

/// Records `v`'s entry in the route view and, when that changed it,
/// forwards the update to the sink — the one place route updates are
/// deduplicated.
fn publish_route(
    view: &mut RouteView,
    sink: &mut dyn TraceSink,
    time: SimTime,
    v: NodeId,
    entry: Option<ViewEntry>,
) {
    if view.record(v, entry) {
        sink.record_view_update(time, v, entry);
    }
}
