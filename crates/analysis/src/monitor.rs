//! Online invariant monitors: paper guarantees checked *during* a run.
//!
//! The measurement modules ([`crate::measure`], [`crate::waves`],
//! [`crate::loops`]) quantify behavior after the fact; monitors instead
//! watch an LSRP simulation as it runs and emit structured
//! [`Violation`]s the moment a guarantee breaks. They are the judges of
//! chaos campaigns (see [`crate::chaos`]): a campaign run is *violating*
//! iff its monitor set reports at least one violation.
//!
//! Four guarantees are monitored:
//!
//! * **Convergence** ([`ConvergenceMonitor`]) — after the last fault the
//!   system returns to a legitimate state within a deadline (Theorem 1's
//!   eventual self-stabilization, with the deadline standing in for the
//!   Θ(p·hd_S) stabilization-time bound).
//! * **Contamination** ([`ContaminationMonitor`]) — nodes acting during
//!   recovery stay within O(p) hops of the perturbed region (Theorem 2).
//! * **Wave order** ([`WaveOrderMonitor`]) — the observed wave fronts
//!   respect the hold-time hierarchy `hd_S > hd_C > hd_SC`: the
//!   containment front must propagate strictly faster per hop than the
//!   stabilization/contamination front, and super-containment faster than
//!   containment (§IV's wave-speed design).
//! * **Loop freedom** ([`LoopMonitor`]) — transient routing loops are
//!   removed within a Θ(ℓ) window of the fault that formed them
//!   (Theorem 4); a loop that outlives its window is a violation.
//!
//! Monitors are *best-effort detectors*: a reported violation pinpoints
//! sim time and offending nodes and is exactly reproducible from the run's
//! seed, so it can be replayed (and delta-minimized) rather than trusted
//! blindly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use lsrp_core::legitimacy::lg_holds;
use lsrp_core::LsrpSimulation;
use lsrp_faults::schedule::FaultSchedule;
use lsrp_faults::Fault;
use lsrp_graph::{Graph, NodeId};
use lsrp_sim::{RouteCursor, SimTime};

use crate::loops::LoopScreen;
use crate::traffic::{AvailabilityMonitor, WorkloadDriver};

/// Which monitored guarantee broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// The system did not return to a legitimate state in time.
    ConvergenceFailure,
    /// A node acted beyond the O(p) contamination bound.
    ContaminationExceeded,
    /// An observed wave front propagated out of hold-time order.
    WaveOrderInversion,
    /// A routing loop outlived its removal window.
    PersistentLoop,
    /// Data-plane delivery collapsed below the configured floor during a
    /// traffic run (see [`crate::traffic::TrafficConfig`]).
    AvailabilityCollapse,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::ConvergenceFailure => "convergence-failure",
            ViolationKind::ContaminationExceeded => "contamination-exceeded",
            ViolationKind::WaveOrderInversion => "wave-order-inversion",
            ViolationKind::PersistentLoop => "persistent-loop",
            ViolationKind::AvailabilityCollapse => "availability-collapse",
        };
        f.write_str(s)
    }
}

/// One invariant violation, with enough context to chase it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which guarantee broke.
    pub kind: ViolationKind,
    /// Simulated time of detection.
    pub at: SimTime,
    /// The offending nodes (loop members, out-of-range actors, ...).
    pub nodes: Vec<NodeId>,
    /// Human-readable specifics (bounds, observed values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at t={}: {}", self.kind, self.at, self.detail)?;
        if !self.nodes.is_empty() {
            write!(f, " [")?;
            for (i, n) in self.nodes.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{n}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// An online invariant monitor driven by [`run_monitored`].
///
/// The driver calls [`Monitor::on_event`] after every event at or past
/// the monitor's [`Monitor::due`] time. Before that time it may run many
/// events between two calls, so a monitor whose `due` is later than
/// [`SimTime::ZERO`] promises that, until then, `on_event` only catches
/// up on the action log (in log order) and would have reported the same
/// violations however the calls were spread over those events.
pub trait Monitor {
    /// Short stable name (used in reports).
    fn name(&self) -> &'static str;

    /// Called just *before* `fault` is applied at time `at`.
    fn on_fault(
        &mut self,
        at: SimTime,
        fault: &Fault,
        sim: &LsrpSimulation,
        out: &mut Vec<Violation>,
    ) {
        let _ = (at, fault, sim, out);
    }

    /// Called after every processed engine event at or past
    /// [`Monitor::due`], and at least once after any run of events
    /// before it.
    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>);

    /// The earliest simulated time at which `on_event` can do more than
    /// catch up on the action log. Read after every `on_event` and
    /// `on_fault` call. The default, [`SimTime::ZERO`], asks for a call
    /// after every event.
    fn due(&self) -> SimTime {
        SimTime::ZERO
    }

    /// Called once when the run ends (quiescent or horizon).
    fn finish(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>);
}

// ---------------------------------------------------------------------
// Convergence.
// ---------------------------------------------------------------------

/// Checks that the system is legitimate again within `deadline` simulated
/// seconds of the most recent fault (and at the end of the run).
///
/// The illegitimate-node set is maintained incrementally from the engine's
/// route-delta feed: `lg.v` depends only on `v`'s own `(d, p, ghost)`, its
/// incident edge weights and its neighbors' actual distances, so a change
/// at `u` can only flip legitimacy at `u` and `u`'s graph neighbors —
/// O(changes · degree) per check instead of re-deriving `lg` for every
/// node. Faults may change the topology (weights, adjacency), so any fault
/// forces one full rebuild at the next check. Verdicts are identical to
/// the pre-incremental full-rescan reference mode the crate's tests keep.
#[derive(Debug)]
pub struct ConvergenceMonitor {
    deadline: f64,
    last_fault: Option<f64>,
    full_rescan: bool,
    tracker: Option<LegitimacyTracker>,
}

/// The incrementally-maintained illegitimate set (see
/// [`ConvergenceMonitor`]).
#[derive(Debug)]
struct LegitimacyTracker {
    cursor: RouteCursor,
    illegitimate: BTreeSet<NodeId>,
    /// Set by faults (the topology may have changed under `lg`): the next
    /// check rebuilds from scratch.
    rebuild: bool,
}

impl ConvergenceMonitor {
    /// A monitor allowing `deadline` seconds from the last fault to
    /// legitimacy. Scale it like the paper's stabilization bound: a
    /// multiple of `hd_S` times the expected perturbation size.
    pub fn new(deadline: f64) -> Self {
        assert!(deadline > 0.0, "deadline must be positive");
        ConvergenceMonitor {
            deadline,
            last_fault: None,
            full_rescan: false,
            tracker: None,
        }
    }

    /// Reference mode: identical verdicts, but every check re-derives `lg`
    /// for every node (kept for the incremental-equivalence tests).
    #[cfg(test)]
    fn full_rescan(deadline: f64) -> Self {
        ConvergenceMonitor {
            full_rescan: true,
            ..Self::new(deadline)
        }
    }

    fn node_is_illegitimate(sim: &LsrpSimulation, v: NodeId) -> bool {
        let engine = sim.engine();
        engine
            .node(v)
            .is_none_or(|n| n.state().ghost || !lg_holds(engine, v))
    }

    fn illegitimate_nodes(sim: &LsrpSimulation) -> Vec<NodeId> {
        sim.graph()
            .nodes()
            .filter(|&v| Self::node_is_illegitimate(sim, v))
            .collect()
    }

    /// The current illegitimate nodes, ascending — incrementally when the
    /// delta feed is available, by full scan otherwise.
    fn current_illegitimate(&mut self, sim: &LsrpSimulation) -> Vec<NodeId> {
        let view = sim.engine().route_view();
        if self.full_rescan || !view.is_logging() {
            return Self::illegitimate_nodes(sim);
        }
        let tracker = self.tracker.get_or_insert_with(|| LegitimacyTracker {
            cursor: view.cursor(),
            illegitimate: BTreeSet::new(),
            rebuild: true,
        });
        if tracker.rebuild {
            tracker.illegitimate = Self::illegitimate_nodes(sim).into_iter().collect();
            tracker.cursor = view.cursor();
            tracker.rebuild = false;
        } else {
            let deltas = view.deltas_since(tracker.cursor);
            tracker.cursor = tracker.cursor.advanced(deltas.len());
            let graph = sim.graph();
            for d in deltas {
                for v in std::iter::once(d.node).chain(graph.neighbors(d.node).map(|(k, _)| k)) {
                    if !graph.has_node(v) {
                        tracker.illegitimate.remove(&v);
                    } else if Self::node_is_illegitimate(sim, v) {
                        tracker.illegitimate.insert(v);
                    } else {
                        tracker.illegitimate.remove(&v);
                    }
                }
            }
        }
        tracker.illegitimate.iter().copied().collect()
    }

    fn check(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        let bad = self.current_illegitimate(sim);
        if bad.is_empty() {
            self.last_fault = None; // converged; re-arm on the next fault
        } else {
            out.push(Violation {
                kind: ViolationKind::ConvergenceFailure,
                at: sim.now(),
                detail: format!(
                    "{} node(s) still illegitimate {}s after the last fault",
                    bad.len(),
                    self.deadline
                ),
                nodes: bad,
            });
            self.last_fault = None; // report once per fault burst
        }
    }
}

impl Monitor for ConvergenceMonitor {
    fn name(&self) -> &'static str {
        "convergence"
    }

    fn on_fault(
        &mut self,
        at: SimTime,
        _fault: &Fault,
        _sim: &LsrpSimulation,
        _out: &mut Vec<Violation>,
    ) {
        self.last_fault = Some(at.seconds());
        if let Some(tracker) = &mut self.tracker {
            tracker.rebuild = true;
        }
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        if let Some(tf) = self.last_fault {
            if sim.now().seconds() >= tf + self.deadline {
                self.check(sim, out);
            }
        }
    }

    fn due(&self) -> SimTime {
        self.last_fault
            .map_or_else(never, |tf| SimTime::new(tf + self.deadline))
    }

    fn finish(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        // The run has settled (or hit the horizon): an illegitimate final
        // state is a failure even if the deadline has not elapsed yet.
        if self.last_fault.is_some() {
            self.check(sim, out);
        }
    }
}

// ---------------------------------------------------------------------
// Contamination.
// ---------------------------------------------------------------------

/// Checks that every node acting during recovery lies within
/// `factor * p + slack` hops of the perturbed region, where `p` is the
/// number of perturbed nodes accumulated since the first fault.
///
/// The hop-distance map to the perturbed region is maintained
/// incrementally: growing the source set can only *shrink* distances, and
/// `dist(S ∪ S') = min(dist(S), dist(S'))` pointwise, so each fault runs a
/// BFS seeded only from its newly perturbed nodes, relaxing against the
/// existing map — O(improved region) per fault instead of a full
/// multi-source BFS, with an identical resulting map.
#[derive(Debug)]
pub struct ContaminationMonitor {
    factor: f64,
    slack: usize,
    /// Topology snapshot at the first fault (ranges are measured in it).
    baseline: Option<Graph>,
    episode_start: f64,
    perturbed: std::collections::BTreeSet<NodeId>,
    /// Hop distance to the perturbed region by raw id, in the baseline;
    /// `usize::MAX` marks an id the region does not reach.
    distances: Vec<usize>,
    cursor: usize,
    reported: std::collections::BTreeSet<NodeId>,
}

impl ContaminationMonitor {
    /// A monitor with bound `factor * p + slack` hops.
    pub fn new(factor: f64, slack: usize) -> Self {
        assert!(factor > 0.0, "factor must be positive");
        ContaminationMonitor {
            factor,
            slack,
            baseline: None,
            episode_start: 0.0,
            perturbed: std::collections::BTreeSet::new(),
            distances: Vec::new(),
            cursor: 0,
            reported: std::collections::BTreeSet::new(),
        }
    }

    /// Nodes a fault perturbs directly (the corrupted node, or the
    /// endpoints whose adjacency changed) — a cheap stand-in for the
    /// paper's dependent-set construction that never under-counts the
    /// fault's epicenter.
    fn epicenter(fault: &Fault, graph: &Graph) -> Vec<NodeId> {
        match fault {
            Fault::Corrupt { node, .. } => vec![*node],
            Fault::FailNode(v) => {
                let mut out: Vec<NodeId> = graph.neighbors(*v).map(|(n, _)| n).collect();
                out.push(*v);
                out
            }
            Fault::JoinNode { node, edges } => {
                let mut out: Vec<NodeId> = edges.iter().map(|&(n, _)| n).collect();
                out.push(*node);
                out
            }
            Fault::FailEdge(a, b) | Fault::JoinEdge(a, b, _) | Fault::SetWeight(a, b, _) => {
                vec![*a, *b]
            }
        }
    }

    fn bound(&self) -> usize {
        (self.factor * self.perturbed.len() as f64).ceil() as usize + self.slack
    }
}

impl Monitor for ContaminationMonitor {
    fn name(&self) -> &'static str {
        "contamination"
    }

    fn on_fault(
        &mut self,
        at: SimTime,
        fault: &Fault,
        sim: &LsrpSimulation,
        _out: &mut Vec<Violation>,
    ) {
        if self.baseline.is_none() {
            // Snapshot the pre-fault topology: ranges are measured in the
            // initial-state graph, as in §III-A.
            let baseline = sim.graph().clone();
            let slots = baseline.max_node_id().map_or(0, |v| v.raw() as usize + 1);
            self.distances = vec![usize::MAX; slots];
            self.baseline = Some(baseline);
            self.episode_start = at.seconds();
        }
        let graph = sim.graph();
        let fresh: Vec<NodeId> = Self::epicenter(fault, graph)
            .into_iter()
            .filter(|&v| self.perturbed.insert(v))
            .collect();
        let baseline = self.baseline.as_ref().expect("set above");
        // Decrease-only relaxation from the new sources; ids left at
        // `usize::MAX` stay "unreachable" exactly as in the from-scratch BFS.
        let mut queue = VecDeque::new();
        for &s in &fresh {
            if baseline.has_node(s) && self.distances[s.raw() as usize] > 0 {
                self.distances[s.raw() as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let d = self.distances[u.raw() as usize] + 1;
            for (n, _) in baseline.neighbors(u) {
                let slot = &mut self.distances[n.raw() as usize];
                if *slot > d {
                    *slot = d;
                    queue.push_back(n);
                }
            }
        }
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        let Some(baseline) = &self.baseline else {
            self.cursor = sim.engine().trace().actions.len();
            return;
        };
        let actions = &sim.engine().trace().actions;
        let bound = self.bound();
        while self.cursor < actions.len() {
            let rec = &actions[self.cursor];
            self.cursor += 1;
            if rec.maintenance
                || rec.time.seconds() < self.episode_start
                || self.perturbed.contains(&rec.node)
                || self.reported.contains(&rec.node)
            {
                continue;
            }
            let hops = match self.distances.get(rec.node.raw() as usize) {
                Some(&d) if d != usize::MAX => d,
                _ => baseline.node_count(),
            };
            if hops > bound {
                self.reported.insert(rec.node);
                out.push(Violation {
                    kind: ViolationKind::ContaminationExceeded,
                    at: rec.time,
                    nodes: vec![rec.node],
                    detail: format!(
                        "{} acted {hops} hops from the perturbed region (bound {bound} for p={})",
                        rec.node,
                        self.perturbed.len()
                    ),
                });
            }
        }
    }

    /// Never: the scan reads only the action log and reports each record
    /// at its own time, so it is the same however often it runs.
    fn due(&self) -> SimTime {
        never()
    }

    fn finish(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        self.on_event(sim, out);
    }
}

// ---------------------------------------------------------------------
// Wave order.
// ---------------------------------------------------------------------

/// Wave class of an action, by its protocol-reported name.
fn wave_class(name: &str) -> Option<usize> {
    match name {
        "S1" | "S2" => Some(WAVE_S),
        "C1" | "C2" => Some(WAVE_C),
        "SC" => Some(WAVE_SC),
        _ => None,
    }
}

const WAVE_S: usize = 0;
const WAVE_C: usize = 1;
const WAVE_SC: usize = 2;
const WAVE_NAMES: [&str; 3] = ["stabilization", "containment", "super-containment"];

/// Checks the observed per-hop front speeds: within a window opened by
/// each state corruption, the containment front must be strictly faster
/// (smaller median per-hop delay) than the stabilization front, and the
/// super-containment front faster than containment.
///
/// Front speed is estimated from first-execution times: for each node and
/// wave class, the per-hop delay sample is the gap to the earliest-firing
/// neighbor that executed the same class before it. Medians make the
/// estimate robust to stragglers from overlapping waves. Topology faults
/// close the window (their stabilization waves would pollute the
/// estimate), so this monitor judges corruption-triggered episodes only.
#[derive(Debug)]
pub struct WaveOrderMonitor {
    window: f64,
    window_start: Option<f64>,
    first: [BTreeMap<NodeId, f64>; 3],
    cursor: usize,
}

impl WaveOrderMonitor {
    /// A monitor collecting wave fronts for `window` seconds after each
    /// corruption. Size it to a few stabilization hold-times so the fronts
    /// cross several hops.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        WaveOrderMonitor {
            window,
            window_start: None,
            first: Default::default(),
            cursor: 0,
        }
    }

    fn per_hop_samples(&self, graph: &Graph, class: usize) -> Vec<f64> {
        let first = &self.first[class];
        let mut deltas: Vec<f64> = first
            .iter()
            .filter_map(|(&v, &t_v)| {
                graph
                    .neighbors(v)
                    .filter_map(|(u, _)| first.get(&u).copied())
                    .filter(|&t_u| t_u < t_v)
                    .map(|t_u| t_v - t_u)
                    .fold(None, |acc: Option<f64>, d| {
                        Some(acc.map_or(d, |a| a.min(d)))
                    })
            })
            .collect();
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        deltas
    }

    fn median(sorted: &[f64]) -> f64 {
        sorted[sorted.len() / 2]
    }

    fn close_window(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        let Some(start) = self.window_start.take() else {
            return;
        };
        let graph = sim.graph();
        // (faster wave, slower wave): the faster one must show a strictly
        // smaller median per-hop delay whenever both fronts were observed.
        for (fast, slow) in [(WAVE_C, WAVE_S), (WAVE_SC, WAVE_C)] {
            let fast_deltas = self.per_hop_samples(graph, fast);
            let slow_deltas = self.per_hop_samples(graph, slow);
            if fast_deltas.len() < 2 || slow_deltas.len() < 2 {
                continue;
            }
            let fast_median = Self::median(&fast_deltas);
            let slow_median = Self::median(&slow_deltas);
            if fast_median >= slow_median {
                let mut nodes: Vec<NodeId> = self.first[fast].keys().copied().collect();
                nodes.sort_unstable();
                out.push(Violation {
                    kind: ViolationKind::WaveOrderInversion,
                    at: SimTime::new(start),
                    nodes,
                    detail: format!(
                        "{} front per-hop median {fast_median:.3} is not faster than {} front {slow_median:.3}",
                        WAVE_NAMES[fast], WAVE_NAMES[slow]
                    ),
                });
            }
        }
        for map in &mut self.first {
            map.clear();
        }
    }
}

impl Monitor for WaveOrderMonitor {
    fn name(&self) -> &'static str {
        "wave-order"
    }

    fn on_fault(
        &mut self,
        at: SimTime,
        fault: &Fault,
        sim: &LsrpSimulation,
        out: &mut Vec<Violation>,
    ) {
        self.on_event(sim, out); // drain records belonging to the old window
        self.close_window(sim, out);
        if matches!(fault, Fault::Corrupt { .. }) {
            self.window_start = Some(at.seconds());
        }
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        let actions = &sim.engine().trace().actions;
        let Some(start) = self.window_start else {
            self.cursor = actions.len();
            return;
        };
        let end = start + self.window;
        while self.cursor < actions.len() {
            let rec = &actions[self.cursor];
            self.cursor += 1;
            if rec.maintenance || rec.time.seconds() < start || rec.time.seconds() > end {
                continue;
            }
            if let Some(class) = wave_class(rec.name) {
                self.first[class]
                    .entry(rec.node)
                    .or_insert_with(|| rec.time.seconds());
            }
        }
        if sim.now().seconds() > end {
            self.close_window(sim, out);
        }
    }

    fn due(&self) -> SimTime {
        self.window_start
            .map_or_else(never, |start| SimTime::new(start + self.window))
    }

    fn finish(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        self.on_event(sim, out);
        self.close_window(sim, out);
    }
}

// ---------------------------------------------------------------------
// Loop freedom.
// ---------------------------------------------------------------------

/// Checks that routing loops do not outlive the Θ(ℓ) removal window after
/// the most recent fault.
///
/// Each check first runs an incremental [`LoopScreen`] over the engine's
/// route-delta feed — parent-pointer walks only from nodes whose entry
/// changed since the last check, O(changes) instead of cloning and
/// re-walking the full table. Only when the screen reports a cycle does
/// the monitor fall back to the canonical
/// [`find_routing_loops`](lsrp_graph::RouteTable::find_routing_loops), so
/// reported [`Violation`]s (cycle membership, order, detail) are
/// bit-identical to the pre-incremental full-rescan reference mode the
/// crate's tests keep.
#[derive(Debug)]
pub struct LoopMonitor {
    window: f64,
    check_interval: f64,
    last_fault: Option<f64>,
    next_check: f64,
    full_rescan: bool,
    screen: Option<(RouteCursor, LoopScreen)>,
}

impl LoopMonitor {
    /// A monitor tolerating loops for `window` seconds after each fault
    /// and probing the route table at most every `check_interval` seconds
    /// (full-table loop detection is not free).
    pub fn new(window: f64, check_interval: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        assert!(check_interval > 0.0, "check interval must be positive");
        LoopMonitor {
            window,
            check_interval,
            last_fault: None,
            next_check: 0.0,
            full_rescan: false,
            screen: None,
        }
    }

    /// Reference mode: identical verdicts, but every check clones and
    /// walks the full table (kept for the incremental-equivalence tests).
    #[cfg(test)]
    fn full_rescan(window: f64, check_interval: f64) -> Self {
        LoopMonitor {
            full_rescan: true,
            ..Self::new(window, check_interval)
        }
    }

    /// Whether the table *might* have a loop: exact via the incremental
    /// screen when the delta feed is on, conservatively `true` otherwise.
    fn suspicious(&mut self, sim: &LsrpSimulation) -> bool {
        let view = sim.engine().route_view();
        if self.full_rescan || !view.is_logging() {
            return true;
        }
        let (cursor, screen) = self
            .screen
            .get_or_insert_with(|| (view.cursor(), LoopScreen::new(sim.destination(), view)));
        let deltas = view.deltas_since(*cursor);
        *cursor = cursor.advanced(deltas.len());
        screen.absorb(deltas);
        screen.has_loop()
    }

    fn check(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        if !self.suspicious(sim) {
            return;
        }
        let table = sim.route_table();
        let loops = table.find_routing_loops(sim.destination());
        if let Some(cycle) = loops.first() {
            out.push(Violation {
                kind: ViolationKind::PersistentLoop,
                at: sim.now(),
                nodes: cycle.iter().copied().collect(),
                detail: format!(
                    "routing loop of {} node(s) outlived the {}s removal window",
                    cycle.len(),
                    self.window
                ),
            });
            self.last_fault = None; // report once per fault burst
        }
    }
}

impl Monitor for LoopMonitor {
    fn name(&self) -> &'static str {
        "loop-freedom"
    }

    fn on_fault(
        &mut self,
        at: SimTime,
        _fault: &Fault,
        _sim: &LsrpSimulation,
        _out: &mut Vec<Violation>,
    ) {
        self.last_fault = Some(at.seconds());
        self.next_check = at.seconds() + self.window;
    }

    fn on_event(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        let Some(tf) = self.last_fault else { return };
        let now = sim.now().seconds();
        if now >= tf + self.window && now >= self.next_check {
            self.next_check = now + self.check_interval;
            self.check(sim, out);
        }
    }

    fn due(&self) -> SimTime {
        self.last_fault.map_or_else(never, |tf| {
            SimTime::new((tf + self.window).max(self.next_check))
        })
    }

    fn finish(&mut self, sim: &LsrpSimulation, out: &mut Vec<Violation>) {
        if let Some(tf) = self.last_fault {
            if sim.now().seconds() >= tf + self.window {
                self.check(sim, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The monitored runner.
// ---------------------------------------------------------------------

/// Outcome of a monitored run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// Simulated end time.
    pub end: SimTime,
    /// Whether the run drained before the horizon (no enabled
    /// non-maintenance action, nothing in flight on either plane).
    pub quiescent: bool,
    /// Events processed.
    pub events: u64,
}

/// Drives `sim` through `schedule`, feeding every monitor, then runs on
/// until the engine is drained ([`lsrp_sim::Engine::drained`]) or
/// `horizon`.
///
/// Monitors see `on_fault` immediately *before* each fault is applied
/// (best-effort, as in [`FaultSchedule::drive_lsrp`]) and `on_event` as
/// [`Monitor`] promises: after every event at or past their earliest
/// [`Monitor::due`] time, and once after each run of events before it.
/// The engine advances through [`lsrp_sim::Engine::step_within`], so
/// [`lsrp_sim::EngineStats::peak_queue_depth`] is sampled after every
/// event, and the report, statistics, routes and trace are those of a
/// driver that steps one event at a time and calls every monitor after
/// each.
pub fn run_monitored(
    sim: &mut LsrpSimulation,
    schedule: &FaultSchedule,
    horizon: f64,
    monitors: &mut [Box<dyn Monitor>],
) -> MonitorReport {
    drive_monitored(sim, schedule, horizon, monitors, None)
}

/// The data plane riding a monitored run: the workload is scheduled ahead
/// of each segment of the fault schedule and the availability monitor
/// observes at every drained-check and around every fault.
pub(crate) type DataPlane<'a> = (&'a mut WorkloadDriver, &'a mut AvailabilityMonitor);

/// Runs every event at or before `until` (seconds), feeding the monitors
/// and counting into `events`, and stops early once the engine is
/// drained; the drained check and the availability sample come after
/// every 256th event.
type StepThrough = fn(
    &mut LsrpSimulation,
    f64,
    &mut [Box<dyn Monitor>],
    &mut Option<DataPlane<'_>>,
    &mut Vec<Violation>,
    &mut u64,
);

/// The time no event reaches: the `due` of a monitor with nothing to do.
fn never() -> SimTime {
    SimTime::new(f64::INFINITY)
}

/// The monitored driver behind [`run_monitored`] and
/// [`run_traffic_monitored`](crate::traffic::run_traffic_monitored).
pub(crate) fn drive_monitored(
    sim: &mut LsrpSimulation,
    schedule: &FaultSchedule,
    horizon: f64,
    monitors: &mut [Box<dyn Monitor>],
    plane: Option<DataPlane<'_>>,
) -> MonitorReport {
    drive_with(step_through, sim, schedule, horizon, monitors, plane)
}

/// The [`StepThrough`] of [`run_monitored`]. Each turn is one *stop*: it
/// runs the events before every monitor's `due` time, never past the next
/// multiple of 256 events, or else the one event that is due, and then
/// calls every monitor once. Skipped calls are for events before all due
/// times, where a call only catches up on the action log, and the due
/// event runs after the call for the events before it, so violations
/// come out in the order a call after every event finds them.
fn step_through(
    sim: &mut LsrpSimulation,
    until: f64,
    monitors: &mut [Box<dyn Monitor>],
    plane: &mut Option<DataPlane<'_>>,
    violations: &mut Vec<Violation>,
    events: &mut u64,
) {
    let until = SimTime::new(until);
    loop {
        let due = monitors.iter().map(|m| m.due()).min().unwrap_or_else(never);
        let engine = sim.engine_mut();
        let ran = match engine.step_within(until, due, 256 - *events % 256) {
            0 => engine.step_within(until, never(), 1),
            ran => ran,
        };
        if ran == 0 {
            return;
        }
        *events += ran;
        #[cfg(test)]
        referee::count_stop();
        for m in &mut *monitors {
            m.on_event(sim, violations);
        }
        if (*events).is_multiple_of(256) {
            if let Some((_, avail)) = plane {
                avail.observe(sim);
            }
            if sim.engine().drained() {
                return;
            }
        }
    }
}

/// [`drive_monitored`] with the segment driver `step_through`.
fn drive_with(
    step_through: StepThrough,
    sim: &mut LsrpSimulation,
    schedule: &FaultSchedule,
    horizon: f64,
    monitors: &mut [Box<dyn Monitor>],
    mut plane: Option<DataPlane<'_>>,
) -> MonitorReport {
    // Monitors only ever see `&LsrpSimulation`, so arm the route-delta
    // feed here (it needs `&mut` once); they then take their own cursors
    // from the view lazily.
    let _ = sim.route_cursor();
    if let Some((_, avail)) = &mut plane {
        avail.arm(sim);
    }
    let mut violations = Vec::new();
    let mut events = 0u64;
    for ev in &schedule.events {
        if let Some((workload, _)) = &mut plane {
            workload.ensure_scheduled(sim.engine_mut(), ev.at);
        }
        step_through(
            sim,
            ev.at,
            monitors,
            &mut plane,
            &mut violations,
            &mut events,
        );
        if ev.at > sim.now().seconds() {
            sim.run_until(ev.at);
        }
        for m in &mut *monitors {
            m.on_fault(SimTime::new(ev.at), &ev.fault, sim, &mut violations);
        }
        if let Some((_, avail)) = &mut plane {
            // Drain pre-fault packets against their own era's ground
            // truth, then drop it: the fault may change the topology.
            avail.observe(sim);
            avail.invalidate_truth();
        }
        let _ = ev.fault.apply_lsrp(sim);
    }
    // Tail: the whole workload is scheduled now; run until the engine is
    // drained (maintenance may tick forever) or the horizon.
    if let Some((workload, _)) = &mut plane {
        workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    }
    if !sim.engine().drained() {
        step_through(
            sim,
            horizon,
            monitors,
            &mut plane,
            &mut violations,
            &mut events,
        );
    }
    let quiescent = sim.engine().drained();
    for m in monitors {
        m.finish(sim, &mut violations);
    }
    MonitorReport {
        violations,
        end: sim.now(),
        quiescent,
        events,
    }
}

/// The standard monitor set for a simulation with the given timing, sized
/// for a topology of `n` nodes.
pub fn standard_monitors(timing: &lsrp_core::TimingConfig, n: usize) -> Vec<Box<dyn Monitor>> {
    let n = n.max(2) as f64;
    vec![
        Box::new(ConvergenceMonitor::new(4.0 * timing.hd_s * n)),
        Box::new(ContaminationMonitor::new(2.0, 2)),
        Box::new(WaveOrderMonitor::new(6.0 * timing.hd_s)),
        Box::new(LoopMonitor::new(
            4.0 * (timing.hd_c + timing.hd_s) * n.sqrt(),
            timing.hd_c.max(1.0),
        )),
    ]
}

#[cfg(test)]
mod incremental_equiv;

#[cfg(test)]
mod referee;

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::LsrpSimulationExt;
    use lsrp_faults::CorruptionKind;
    use lsrp_graph::{generators, Distance};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn corruption(at: f64, node: NodeId) -> FaultSchedule {
        FaultSchedule::new().with(
            at,
            Fault::Corrupt {
                node,
                kind: CorruptionKind::Distance(Distance::ZERO),
            },
        )
    }

    #[test]
    fn benign_corruption_yields_no_violations() {
        let mut sim = LsrpSimulation::builder(generators::grid(4, 4, 1), v(0)).build();
        let timing = *sim.timing();
        let mut monitors = standard_monitors(&timing, 16);
        let report = run_monitored(&mut sim, &corruption(50.0, v(10)), 100_000.0, &mut monitors);
        assert!(report.quiescent, "LSRP must settle");
        assert!(
            report.violations.is_empty(),
            "correct LSRP must not violate: {:?}",
            report.violations
        );
        assert!(sim.routes_correct());
    }

    #[test]
    fn empty_schedule_runs_initial_convergence_clean() {
        let mut sim = LsrpSimulation::builder(generators::grid(3, 3, 1), v(0)).build();
        let timing = *sim.timing();
        let mut monitors = standard_monitors(&timing, 9);
        let report = run_monitored(&mut sim, &FaultSchedule::new(), 100_000.0, &mut monitors);
        assert!(report.quiescent);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn convergence_deadline_separates_slow_from_stuck() {
        // Partitioning the destination forces the far side through a full
        // ∞-convergence, which takes several hold-times per hop. A
        // too-tight deadline must fire; a generous one must not.
        let run = |deadline: f64| {
            let mut sim = LsrpSimulation::builder(generators::path(3, 1), v(0)).build();
            sim.run_to_quiescence(10_000.0);
            let schedule = FaultSchedule::new().with(10.0, Fault::FailEdge(v(0), v(1)));
            let mut monitors: Vec<Box<dyn Monitor>> =
                vec![Box::new(ConvergenceMonitor::new(deadline))];
            run_monitored(&mut sim, &schedule, 50_000.0, &mut monitors)
        };
        let tight = run(1.0);
        assert_eq!(tight.violations.len(), 1, "{:?}", tight.violations);
        assert_eq!(tight.violations[0].kind, ViolationKind::ConvergenceFailure);
        assert!(tight.violations[0].nodes.contains(&v(1)));
        let generous = run(5_000.0);
        assert!(generous.violations.is_empty(), "{:?}", generous.violations);
    }

    #[test]
    fn loop_monitor_flags_a_frozen_loop() {
        // Freeze a loop by hand: inject route state directly with no
        // protocol running (horizon 0 tail), then let finish() judge it.
        let mut sim = LsrpSimulation::builder(generators::ring(6, 1), v(0)).build();
        sim.run_to_quiescence(10_000.0);
        let mut monitor = LoopMonitor::new(5.0, 1.0);
        let mut out = Vec::new();
        monitor.on_fault(
            SimTime::new(sim.now().seconds()),
            &Fault::FailNode(v(3)),
            &sim,
            &mut out,
        );
        // Hand-build a looping table: 4 -> 5 -> 4.
        sim.with_state_mut(v(4), |s| {
            s.d = Distance::Finite(2);
            s.p = v(5);
        });
        sim.with_state_mut(v(5), |s| {
            s.d = Distance::Finite(2);
            s.p = v(4);
        });
        sim.run_until(sim.now().seconds() + 100.0);
        // Pretend time passed the window without the protocol fixing it —
        // LSRP will actually have fixed it, so check the detector plumbing
        // on a fabricated table instead.
        let table = sim.route_table();
        assert!(
            !table.has_routing_loop(v(0)),
            "LSRP should have repaired the loop"
        );
        monitor.finish(&sim, &mut out);
        assert!(out.is_empty(), "no loop at finish: {out:?}");
    }

    #[test]
    fn contamination_monitor_flags_far_actors() {
        // Unit-level: feed the monitor a fabricated trace via a real sim,
        // then check the bound arithmetic by direct construction.
        let mut m = ContaminationMonitor::new(1.0, 0);
        let sim = LsrpSimulation::builder(generators::path(8, 1), v(0)).build();
        let mut out = Vec::new();
        m.on_fault(
            SimTime::new(1.0),
            &Fault::Corrupt {
                node: v(7),
                kind: CorruptionKind::Distance(Distance::ZERO),
            },
            &sim,
            &mut out,
        );
        assert_eq!(m.perturbed.len(), 1);
        assert_eq!(m.bound(), 1);
        assert_eq!(m.distances[4], 3);
        assert_eq!(m.distances.len(), 8);
    }

    #[test]
    fn violation_display_is_stable() {
        let v1 = Violation {
            kind: ViolationKind::PersistentLoop,
            at: SimTime::new(12.5),
            nodes: vec![v(3), v(4)],
            detail: "routing loop of 2 node(s)".into(),
        };
        assert_eq!(
            v1.to_string(),
            "persistent-loop at t=12.500000s: routing loop of 2 node(s) [v3 v4]"
        );
    }
}
