//! Timed fault schedules: the raw material of chaos campaigns.
//!
//! A [`FaultSchedule`] is a time-ordered sequence of [`Fault`]s. Unlike
//! [`crate::plan::FaultPlan`] (a batch hitting the system at one instant)
//! and [`crate::continuous::RecurringFault`] (one plan at a fixed period),
//! a schedule places each fault at its own simulated time, which is what a
//! stochastic fault process produces and what a delta-debugging shrinker
//! consumes.
//!
//! Schedules serialize to a line-oriented text format (`<time> <fault>`)
//! so a violating run can be stored next to the seed that produced it and
//! replayed as a regression test. Application is *best-effort*: a fault
//! that no longer applies (its edge already gone, its node already down)
//! is skipped rather than an error — this closes schedules under taking
//! subsequences, which delta debugging requires.

use std::fmt;

use lsrp_core::{LsrpSimulation, Mirror};
use lsrp_graph::{Distance, NodeId, Weight};
use lsrp_sim::RunReport;

use crate::fault::{CorruptionKind, Fault};

/// One fault pinned to a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault {
    /// Simulated time (seconds) at which the fault hits.
    pub at: f64,
    /// The fault.
    pub fault: Fault,
}

impl fmt::Display for TimedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.at, fault_to_text(&self.fault))
    }
}

/// A time-ordered sequence of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The faults; kept sorted by time (ties keep insertion order).
    pub events: Vec<TimedFault>,
}

/// Error from parsing a serialized schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScheduleParseError {}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds a fault at `at` (builder style), keeping time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or not finite.
    #[must_use]
    pub fn with(mut self, at: f64, fault: Fault) -> Self {
        self.push(at, fault);
        self
    }

    /// Adds a fault at `at`, keeping time order (stable for ties).
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or not finite.
    pub fn push(&mut self, at: f64, fault: Fault) {
        assert!(
            at.is_finite() && at >= 0.0,
            "fault time must be finite and non-negative"
        );
        self.events.push(TimedFault { at, fault });
        // Insertion sort from the back: schedules are usually built in
        // time order already, and a stable order keeps replay exact.
        let mut i = self.events.len() - 1;
        while i > 0 && self.events[i - 1].at > self.events[i].at {
            self.events.swap(i - 1, i);
            i -= 1;
        }
    }

    /// The same faults, each `t0` later: how a schedule generated from
    /// time zero is placed after a simulation's warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `t0` is negative or not finite.
    #[must_use]
    pub fn shifted(mut self, t0: f64) -> FaultSchedule {
        assert!(
            t0.is_finite() && t0 >= 0.0,
            "shift must be finite and non-negative"
        );
        // Adding one non-negative offset keeps the (non-strict) time order.
        for e in &mut self.events {
            e.at += t0;
        }
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last fault (0 when empty).
    pub fn end_time(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.at)
    }

    /// The schedule restricted to the events whose indices are in `keep`
    /// (used by the shrinker to form candidate subsequences).
    #[must_use]
    pub fn subsequence(&self, keep: &[usize]) -> FaultSchedule {
        let mut out = FaultSchedule::new();
        for &i in keep {
            let e = &self.events[i];
            out.push(e.at, e.fault.clone());
        }
        out
    }

    /// Drives `sim` through the whole schedule: run to each fault's time,
    /// apply it best-effort (faults that no longer apply are skipped), then
    /// run to quiescence until `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the engine's event budget is exhausted.
    pub fn drive_lsrp(&self, sim: &mut LsrpSimulation, horizon: f64) -> RunReport {
        for e in &self.events {
            if e.at > sim.now().seconds() {
                sim.run_until(e.at);
            }
            let _ = e.fault.apply_lsrp(sim);
        }
        sim.run_to_quiescence(horizon)
    }

    /// Serializes to the line format parsed by [`FaultSchedule::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the output of [`FaultSchedule::to_text`]. Blank lines and
    /// `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first offending line and why it failed to parse.
    pub fn parse(text: &str) -> Result<FaultSchedule, ScheduleParseError> {
        let mut schedule = FaultSchedule::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| ScheduleParseError {
                line: idx + 1,
                message,
            };
            let (time_str, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| err("expected `<time> <fault>`".into()))?;
            let at: f64 = time_str
                .parse()
                .map_err(|_| err(format!("bad time `{time_str}`")))?;
            if !at.is_finite() || at < 0.0 {
                return Err(err(format!("time {at} must be finite and non-negative")));
            }
            let fault = parse_fault(rest.trim()).map_err(err)?;
            schedule.push(at, fault);
        }
        Ok(schedule)
    }
}

impl FromIterator<TimedFault> for FaultSchedule {
    fn from_iter<I: IntoIterator<Item = TimedFault>>(iter: I) -> Self {
        let mut s = FaultSchedule::new();
        for e in iter {
            s.push(e.at, e.fault);
        }
        s
    }
}

fn node_to_text(v: NodeId) -> String {
    // NodeId displays as `v<raw>`; keep that form in the schedule text.
    v.to_string()
}

fn distance_to_text(d: Distance) -> String {
    match d {
        Distance::Finite(x) => x.to_string(),
        Distance::Infinite => "inf".into(),
    }
}

fn fault_to_text(fault: &Fault) -> String {
    match fault {
        Fault::Corrupt { node, kind } => {
            let v = node_to_text(*node);
            match kind {
                CorruptionKind::Distance(d) => {
                    format!("corrupt-d {v} {}", distance_to_text(*d))
                }
                CorruptionKind::Parent(p) => format!("corrupt-p {v} {}", node_to_text(*p)),
                CorruptionKind::Ghost(g) => format!("corrupt-ghost {v} {g}"),
                CorruptionKind::Timestamp(t) => format!("corrupt-t {v} {t}"),
                CorruptionKind::MirrorOf { about, mirror } => format!(
                    "corrupt-mirror {v} {} {} {} {}",
                    node_to_text(*about),
                    distance_to_text(mirror.d),
                    node_to_text(mirror.p),
                    mirror.ghost
                ),
            }
        }
        Fault::FailNode(v) => format!("fail-node {}", node_to_text(*v)),
        Fault::JoinNode { node, edges } => {
            let mut s = format!("join-node {}", node_to_text(*node));
            for (n, w) in edges {
                s.push_str(&format!(" {}:{w}", node_to_text(*n)));
            }
            s
        }
        Fault::FailEdge(a, b) => {
            format!("fail-edge {} {}", node_to_text(*a), node_to_text(*b))
        }
        Fault::JoinEdge(a, b, w) => {
            format!("join-edge {} {} {w}", node_to_text(*a), node_to_text(*b))
        }
        Fault::SetWeight(a, b, w) => {
            format!("set-weight {} {} {w}", node_to_text(*a), node_to_text(*b))
        }
    }
}

fn parse_node(s: &str) -> Result<NodeId, String> {
    let digits = s.strip_prefix('v').unwrap_or(s);
    digits
        .parse::<u32>()
        .map(NodeId::new)
        .map_err(|_| format!("bad node `{s}`"))
}

fn parse_distance(s: &str) -> Result<Distance, String> {
    if s == "inf" || s == "∞" {
        return Ok(Distance::Infinite);
    }
    s.parse::<u64>()
        .map(Distance::Finite)
        .map_err(|_| format!("bad distance `{s}`"))
}

fn parse_weight(s: &str) -> Result<Weight, String> {
    s.parse::<Weight>().map_err(|_| format!("bad weight `{s}`"))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    s.parse::<bool>().map_err(|_| format!("bad bool `{s}`"))
}

fn parse_fault(text: &str) -> Result<Fault, String> {
    let mut parts = text.split_whitespace();
    let kind = parts.next().ok_or_else(|| "empty fault".to_string())?;
    let mut next = |what: &str| {
        parts
            .next()
            .ok_or_else(|| format!("{kind}: missing {what}"))
            .map(str::to_string)
    };
    let fault = match kind {
        "corrupt-d" => Fault::Corrupt {
            node: parse_node(&next("node")?)?,
            kind: CorruptionKind::Distance(parse_distance(&next("distance")?)?),
        },
        "corrupt-p" => Fault::Corrupt {
            node: parse_node(&next("node")?)?,
            kind: CorruptionKind::Parent(parse_node(&next("parent")?)?),
        },
        "corrupt-ghost" => Fault::Corrupt {
            node: parse_node(&next("node")?)?,
            kind: CorruptionKind::Ghost(parse_bool(&next("flag")?)?),
        },
        "corrupt-t" => Fault::Corrupt {
            node: parse_node(&next("node")?)?,
            kind: CorruptionKind::Timestamp(
                next("timestamp")?
                    .parse::<f64>()
                    .map_err(|_| "bad timestamp".to_string())?,
            ),
        },
        "corrupt-mirror" => Fault::Corrupt {
            node: parse_node(&next("node")?)?,
            kind: CorruptionKind::MirrorOf {
                about: parse_node(&next("about")?)?,
                mirror: Mirror {
                    d: parse_distance(&next("mirror distance")?)?,
                    p: parse_node(&next("mirror parent")?)?,
                    ghost: parse_bool(&next("mirror ghost")?)?,
                },
            },
        },
        "fail-node" => Fault::FailNode(parse_node(&next("node")?)?),
        "join-node" => {
            let node = parse_node(&next("node")?)?;
            let mut edges = Vec::new();
            for pair in parts.by_ref() {
                let (n, w) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("join-node: bad edge `{pair}` (want node:weight)"))?;
                edges.push((parse_node(n)?, parse_weight(w)?));
            }
            Fault::JoinNode { node, edges }
        }
        "fail-edge" => Fault::FailEdge(parse_node(&next("node")?)?, parse_node(&next("node")?)?),
        "join-edge" => Fault::JoinEdge(
            parse_node(&next("node")?)?,
            parse_node(&next("node")?)?,
            parse_weight(&next("weight")?)?,
        ),
        "set-weight" => Fault::SetWeight(
            parse_node(&next("node")?)?,
            parse_node(&next("node")?)?,
            parse_weight(&next("weight")?)?,
        ),
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("{kind}: trailing `{extra}`"));
    }
    Ok(fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::LsrpSimulationExt;
    use lsrp_graph::generators;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample_schedule() -> FaultSchedule {
        FaultSchedule::new()
            .with(
                5.0,
                Fault::Corrupt {
                    node: v(2),
                    kind: CorruptionKind::Distance(Distance::Finite(9)),
                },
            )
            .with(1.5, Fault::FailEdge(v(0), v(1)))
            .with(9.25, Fault::JoinEdge(v(0), v(1), 3))
            .with(
                12.0,
                Fault::JoinNode {
                    node: v(7),
                    edges: vec![(v(1), 2), (v(2), 4)],
                },
            )
            .with(
                13.0,
                Fault::Corrupt {
                    node: v(1),
                    kind: CorruptionKind::MirrorOf {
                        about: v(2),
                        mirror: Mirror {
                            d: Distance::Infinite,
                            p: v(2),
                            ghost: true,
                        },
                    },
                },
            )
    }

    #[test]
    fn push_keeps_time_order() {
        let s = sample_schedule();
        let times: Vec<f64> = s.events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![1.5, 5.0, 9.25, 12.0, 13.0]);
        assert_eq!(s.end_time(), 13.0);
    }

    #[test]
    fn shifted_moves_every_fault_and_keeps_order() {
        let s = sample_schedule();
        let moved = s.clone().shifted(100.5);
        let mut pushed = FaultSchedule::new();
        for e in &s.events {
            pushed.push(100.5 + e.at, e.fault.clone());
        }
        assert_eq!(moved, pushed);
        assert_eq!(s.clone().shifted(0.0), s);
    }

    #[test]
    fn text_round_trips() {
        let s = sample_schedule();
        let text = s.to_text();
        let back = FaultSchedule::parse(&text).unwrap();
        assert_eq!(back, s);
        // And the serialization is canonical: re-serializing is identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parse_skips_comments_and_reports_errors() {
        let ok = FaultSchedule::parse("# a comment\n\n2.0 fail-node v3\n").unwrap();
        assert_eq!(ok.len(), 1);
        let err = FaultSchedule::parse("2.0 fail-node v3\nnonsense\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = FaultSchedule::parse("1.0 warp-core-breach v3\n").unwrap_err();
        assert!(err.message.contains("unknown fault kind"));
        let err = FaultSchedule::parse("-1.0 fail-node v3\n").unwrap_err();
        assert!(err.message.contains("non-negative"));
        let err = FaultSchedule::parse("1.0 fail-edge v0 v1 extra\n").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn subsequence_selects_by_index() {
        let s = sample_schedule();
        let sub = s.subsequence(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.events[0].at, 1.5);
        assert_eq!(sub.events[1].at, 9.25);
    }

    #[test]
    fn drive_is_best_effort_under_subsetting() {
        // Failing the same edge twice errors under FaultPlan, but a
        // schedule skips the second occurrence: subsequences always run.
        let schedule = FaultSchedule::new()
            .with(5.0, Fault::FailEdge(v(3), v(4)))
            .with(10.0, Fault::FailEdge(v(3), v(4)))
            .with(15.0, Fault::JoinEdge(v(3), v(4), 1));
        let mut sim = LsrpSimulation::builder(generators::ring(6, 1), v(0)).build();
        let report = schedule.drive_lsrp(&mut sim, 10_000.0);
        assert!(report.quiescent);
        assert!(sim.graph().has_edge(v(3), v(4)));
        assert!(sim.routes_correct());
    }
}
