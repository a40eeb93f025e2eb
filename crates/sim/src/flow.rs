//! Stateful flows: Go-Back-N windowed retransmission over the packet lane.
//!
//! PR 5's probes were fire-and-forget: a drop was a drop. This module
//! promotes traffic endpoints to stateful flows that *recover*: a flow
//! transfers `segments` numbered segments (each a weighted packet) from
//! `src` to `dest`, keeps a send window governed by a congestion-control
//! algorithm ([`CongAlgKind`]), and retransmits on a per-flow timeout
//! with exponential backoff — the classic Go-Back-N sender over a
//! cumulative-ACK receiver.
//!
//! Everything rides the engine's ordinary event queue, which is the
//! determinism contract: segment sends are `PacketHop` events, ACKs are
//! `FlowAck` events scheduled at the delivering packet's own one-way
//! latency (a symmetric-reverse-path model; ACKs are pure control and are
//! not themselves subject to loss or queueing — Go-Back-N's cumulative
//! ACKs make that simplification harmless), and retransmit timers are
//! `FlowTimer` events guarded by a per-flow generation counter so a
//! superseded timer is recognizably stale, exactly like the engine's
//! guard-hold timers. No wall clocks, no global state: the same seed
//! replays the same flow trajectory byte for byte.
//!
//! Two algorithms ship with the engine: a fixed window (a constant
//! window — the degenerate algorithm every textbook starts with) and
//! AIMD (additive increase per acked segment, multiplicative decrease on
//! ECN marks, collapse to one segment on timeout).

use lsrp_graph::NodeId;

use crate::time::SimTime;

/// A flow's congestion-control algorithm, as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongAlgKind {
    /// A constant send window of the given size, blind to all congestion
    /// evidence.
    FixedWindow {
        /// Window in segments.
        window: u64,
    },
    /// Additive-increase / multiplicative-decrease: +1 segment per
    /// window's worth of ACKs, halve on mark, collapse to 1 on timeout.
    Aimd {
        /// Initial window in segments.
        initial: u64,
        /// Window cap in segments.
        max: u64,
    },
}

/// The live send window of one flow. The engine feeds it ACK, mark and
/// timeout evidence; it answers only one question — how many segments
/// past the cumulative ACK may be outstanding ([`Window::window`], always
/// >= 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Window {
    Fixed(u64),
    Aimd { cwnd: f64, max: f64 },
}

impl Window {
    /// Current window in segments (>= 1).
    pub(crate) fn window(&self) -> u64 {
        match *self {
            Window::Fixed(w) => w,
            Window::Aimd { cwnd, .. } => cwnd as u64,
        }
    }

    /// One new segment was cumulatively acknowledged. Additive increase
    /// spread over the window: +1/cwnd per acked segment is +1 segment
    /// per round trip.
    pub(crate) fn on_ack(&mut self) {
        if let Window::Aimd { cwnd, max } = self {
            *cwnd = (*cwnd + 1.0 / *cwnd).min(*max);
        }
    }

    /// An ACK arrived carrying an ECN congestion mark.
    pub(crate) fn on_mark(&mut self) {
        if let Window::Aimd { cwnd, .. } = self {
            *cwnd = (*cwnd / 2.0).max(1.0);
        }
    }

    /// The retransmit timer fired.
    pub(crate) fn on_timeout(&mut self) {
        if let Window::Aimd { cwnd, .. } = self {
            *cwnd = 1.0;
        }
    }
}

impl CongAlgKind {
    /// The algorithm's starting window, clamped to at least one segment
    /// (and AIMD's to its cap).
    pub(crate) fn start(&self) -> Window {
        match *self {
            CongAlgKind::FixedWindow { window } => Window::Fixed(window.max(1)),
            CongAlgKind::Aimd { initial, max } => {
                let max = max.max(1) as f64;
                Window::Aimd {
                    cwnd: (initial.max(1) as f64).min(max),
                    max,
                }
            }
        }
    }

    /// Parses a CLI spelling (`fixed` / `aimd`) with stock parameters.
    pub fn parse(s: &str) -> Option<CongAlgKind> {
        match s {
            "fixed" | "fixed-window" => Some(CongAlgKind::FixedWindow { window: 8 }),
            "aimd" => Some(CongAlgKind::Aimd {
                initial: 4,
                max: 64,
            }),
            _ => None,
        }
    }

    /// Validates window parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero windows or an AIMD cap below its initial window.
    pub fn validate(&self) {
        match *self {
            CongAlgKind::FixedWindow { window } => {
                assert!(window >= 1, "fixed window must be >= 1 segment");
            }
            CongAlgKind::Aimd { initial, max } => {
                assert!(initial >= 1, "aimd initial window must be >= 1 segment");
                assert!(max >= initial, "aimd max window must be >= initial");
            }
        }
    }
}

impl Default for CongAlgKind {
    fn default() -> Self {
        CongAlgKind::FixedWindow { window: 8 }
    }
}

/// Parameters of one flow, passed to [`crate::engine::Engine::start_flow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Number of segments to transfer.
    pub segments: u64,
    /// Weight (represented real packets) per segment.
    pub seg_weight: u64,
    /// Hop budget per segment packet.
    pub ttl: u32,
    /// Congestion-control algorithm.
    pub cc: CongAlgKind,
    /// Initial retransmit timeout in simulated seconds.
    pub rto_initial: f64,
    /// Backoff cap: the RTO doubles per timeout up to this bound.
    pub rto_max: f64,
}

impl FlowConfig {
    /// Validates all parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero segments/weight/ttl, a non-positive or non-finite
    /// initial RTO, or an RTO cap below the initial RTO.
    pub fn validate(&self) {
        assert!(self.segments >= 1, "flows must transfer >= 1 segment");
        assert!(self.seg_weight >= 1, "segments must weigh >= 1 packet");
        assert!(self.ttl >= 1, "flow ttl must be >= 1 hop");
        self.cc.validate();
        assert!(
            self.rto_initial > 0.0 && self.rto_initial.is_finite(),
            "rto_initial must be positive and finite"
        );
        assert!(
            self.rto_max >= self.rto_initial && self.rto_max.is_finite(),
            "rto_max must be >= rto_initial and finite"
        );
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            segments: 1,
            seg_weight: 1,
            ttl: 64,
            cc: CongAlgKind::default(),
            rto_initial: 30.0,
            rto_max: 1920.0,
        }
    }
}

/// Flow attribution carried by a segment packet (and surfaced on its
/// [`crate::traffic::PacketRecord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTag {
    /// Flow id from [`crate::engine::Engine::start_flow`].
    pub flow: u32,
    /// Go-Back-N sequence number of the segment.
    pub seq: u64,
}

/// One finished flow, drained via
/// [`crate::engine::Engine::drain_completed_flows`].
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    /// Flow id.
    pub id: u32,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dest: NodeId,
    /// Segments offered.
    pub segments: u64,
    /// Weight per segment.
    pub seg_weight: u64,
    /// Segments cumulatively acknowledged when the flow ended. Equal to
    /// `segments` for completed flows; smaller only when an endpoint
    /// fail-stopped and the flow was aborted.
    pub acked_segments: u64,
    /// When the flow started.
    pub started_at: SimTime,
    /// When the final ACK arrived (or the flow was aborted).
    pub finished_at: SimTime,
    /// Weighted packets retransmitted by Go-Back-N timeouts.
    pub retransmitted: u64,
    /// Retransmit timer firings.
    pub timeouts: u64,
    /// ACKs that arrived carrying an ECN mark.
    pub marks: u64,
}

impl FlowRecord {
    /// Whether every segment was acknowledged.
    pub fn completed(&self) -> bool {
        self.acked_segments == self.segments
    }

    /// Flow completion time in simulated seconds.
    pub fn completion_time(&self) -> f64 {
        self.finished_at.since(self.started_at)
    }

    /// Acknowledged weighted packets per second (0.0 for an instant or
    /// empty flow).
    pub fn goodput(&self) -> f64 {
        let t = self.completion_time();
        if t > 0.0 {
            (self.acked_segments * self.seg_weight) as f64 / t
        } else {
            0.0
        }
    }
}

/// Engine-internal per-flow state: both endpoints of the Go-Back-N
/// machine, simulated centrally (the engine is the only party that sees
/// both ends of the path).
pub(crate) struct FlowState {
    pub src: NodeId,
    pub dest: NodeId,
    pub config: FlowConfig,
    pub cc: Window,
    /// Sender: lowest unacknowledged sequence number.
    pub base: u64,
    /// Sender: next sequence number to transmit. (The receiver cursor
    /// lives with the *destination's* region — see the engine's
    /// `flow_recv` — so delivery processing never touches sender state.)
    pub next_seq: u64,
    /// Current retransmit timeout (doubles per timeout, capped).
    pub rto: f64,
    /// Live retransmit-timer generation; `FlowTimer` events carrying any
    /// other generation are stale.
    pub timer_generation: u64,
    pub retransmitted: u64,
    pub timeouts: u64,
    pub marks: u64,
    pub started_at: SimTime,
    /// Completed or aborted; terminal.
    pub done: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_ignores_evidence() {
        let mut w = CongAlgKind::FixedWindow { window: 4 }.start();
        w.on_ack();
        w.on_mark();
        w.on_timeout();
        assert_eq!(w.window(), 4);
        assert_eq!(CongAlgKind::FixedWindow { window: 0 }.start().window(), 1);
    }

    #[test]
    fn aimd_grows_halves_and_collapses() {
        let mut a = CongAlgKind::Aimd {
            initial: 4,
            max: 64,
        }
        .start();
        assert_eq!(a.window(), 4);
        // A round trip's worth of ACKs grows the window by about one
        // segment (slightly less, since the divisor grows per ACK).
        for _ in 0..5 {
            a.on_ack();
        }
        assert_eq!(a.window(), 5);
        a.on_mark();
        assert_eq!(a.window(), 2);
        a.on_timeout();
        assert_eq!(a.window(), 1);
        // Never below one, never above the cap.
        a.on_mark();
        assert_eq!(a.window(), 1);
        for _ in 0..10_000 {
            a.on_ack();
        }
        assert_eq!(a.window(), 64);
    }

    #[test]
    fn cong_alg_kind_parses_and_validates() {
        assert!(matches!(
            CongAlgKind::parse("fixed"),
            Some(CongAlgKind::FixedWindow { .. })
        ));
        assert!(matches!(
            CongAlgKind::parse("aimd"),
            Some(CongAlgKind::Aimd { .. })
        ));
        assert_eq!(CongAlgKind::parse("cubic"), None);
        CongAlgKind::default().validate();
    }

    #[test]
    #[should_panic(expected = "aimd max window must be >= initial")]
    fn inverted_aimd_rejected() {
        CongAlgKind::Aimd { initial: 8, max: 4 }.validate();
    }

    #[test]
    fn flow_record_goodput() {
        let r = FlowRecord {
            id: 0,
            src: NodeId::new(0),
            dest: NodeId::new(1),
            segments: 10,
            seg_weight: 5,
            acked_segments: 10,
            started_at: SimTime::ZERO,
            finished_at: SimTime::new(25.0),
            retransmitted: 0,
            timeouts: 0,
            marks: 0,
        };
        assert!(r.completed());
        assert!((r.goodput() - 2.0).abs() < 1e-12);
        assert!((r.completion_time() - 25.0).abs() < 1e-12);
    }
}
