//! Finite-capacity links and bounded per-port egress queues.
//!
//! PR 5's packet lane forwards over infinite-capacity links: a hop costs
//! one propagation delay and nothing else, so the data plane can never
//! saturate. This module adds the missing resource model:
//!
//! * **Link rate.** Each directed link serializes at a configurable rate
//!   (weighted packets per simulated second). A probe of weight `w`
//!   occupies the transmitter for `w / rate` seconds before its
//!   propagation delay starts, so hotspot fan-in builds real queues.
//! * **Bounded egress queues.** Each node holds one FIFO egress queue per
//!   outgoing link (a *port*). Occupancy is counted in weighted packets
//!   and bounded by [`CongestionConfig::queue_capacity`]; what happens at
//!   the bound is decided by the configured [`DisciplineKind`].
//!
//! Three disciplines ship with the engine:
//!
//! * [`DisciplineKind::DropTail`] — drop arrivals that would overflow the
//!   queue.
//! * [`DisciplineKind::Ecn`] — drop-tail at capacity, but set the
//!   packet's congestion mark once occupancy crosses a threshold
//!   fraction; marks are echoed on flow ACKs and halve an AIMD window.
//! * [`DisciplineKind::Pause`] — 802.3x-flavored backpressure: crossing
//!   the threshold pauses the *upstream* port (the one that forwarded the
//!   packet here) for a fixed quantum, pushing the queue buildup one hop
//!   back. Drop-tail at full capacity remains the backstop, so the
//!   occupancy bound `occupancy <= capacity` is an invariant of *every*
//!   discipline.
//!
//! The whole lane is gated on [`CongestionConfig::link_rate`]: with the
//! default `None` (infinite rate, queues cannot build) the engine runs the
//! PR-5 forwarding path byte-for-byte — that equivalence is the oracle the
//! congestion tests pin.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Verdict of a [`DisciplineKind`] on one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admission {
    /// Whether the packet enters the queue (`false` = queue-overflow drop).
    pub admit: bool,
    /// Whether to set the packet's ECN congestion mark.
    pub mark: bool,
    /// Seconds of pause to apply to the upstream port (0.0 = none).
    pub pause_upstream: f64,
}

/// A per-port queue admission policy. Policies are pure: they see only
/// the target port's weighted occupancy and the configured capacity,
/// never the queue itself, so they cannot break the occupancy invariant
/// the engine enforces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DisciplineKind {
    /// Classic drop-tail: admit until the queue is full, drop the rest.
    #[default]
    DropTail,
    /// Drop-tail at capacity, ECN mark above a threshold fraction of it.
    Ecn {
        /// Occupancy fraction of capacity at which admitted packets are
        /// marked (e.g. `0.5` marks once the queue is half full).
        mark_at: f64,
    },
    /// PFC-style pause: crossing the threshold pauses the upstream port
    /// for a fixed quantum; drop-tail at full capacity stays as the
    /// backstop.
    Pause {
        /// Occupancy fraction of capacity at which to pause upstream.
        pause_at: f64,
        /// Seconds each pause frame silences the upstream port for.
        quantum: f64,
    },
}

impl DisciplineKind {
    /// Decides the fate of a packet of weight `weight` arriving at a port
    /// holding `occupancy` weighted packets out of `capacity` (`None` =
    /// unbounded). A threshold is a fraction of capacity, so without one
    /// nothing is ever marked or paused.
    pub(crate) fn admit(&self, occupancy: u64, weight: u64, capacity: Option<u64>) -> Admission {
        let after = occupancy.saturating_add(weight);
        let past = |frac: f64| capacity.is_some_and(|cap| after as f64 >= frac * cap as f64);
        let mut verdict = Admission {
            admit: capacity.is_none_or(|cap| after <= cap),
            mark: false,
            pause_upstream: 0.0,
        };
        if verdict.admit {
            match *self {
                DisciplineKind::DropTail => {}
                DisciplineKind::Ecn { mark_at } => verdict.mark = past(mark_at),
                DisciplineKind::Pause { pause_at, quantum } => {
                    if past(pause_at) {
                        verdict.pause_upstream = quantum;
                    }
                }
            }
        }
        verdict
    }

    /// Parses a CLI spelling (`drop-tail` / `ecn` / `pause`), with the
    /// stock thresholds (mark at half, pause at three quarters, one-second
    /// quantum).
    pub fn parse(s: &str) -> Option<DisciplineKind> {
        match s {
            "drop-tail" | "droptail" => Some(DisciplineKind::DropTail),
            "ecn" => Some(DisciplineKind::Ecn { mark_at: 0.5 }),
            "pause" | "pfc" => Some(DisciplineKind::Pause {
                pause_at: 0.75,
                quantum: 1.0,
            }),
            _ => None,
        }
    }

    /// Validates threshold parameters.
    ///
    /// # Panics
    ///
    /// Panics if a threshold fraction is not in `(0, 1]` or a pause
    /// quantum is not positive and finite.
    pub fn validate(&self) {
        let frac = |name: &str, f: f64| {
            assert!(!f.is_nan(), "{name} must not be NaN");
            assert!(f > 0.0 && f <= 1.0, "{name} must be a fraction in (0, 1]");
        };
        match *self {
            DisciplineKind::DropTail => {}
            DisciplineKind::Ecn { mark_at } => frac("ecn mark_at", mark_at),
            DisciplineKind::Pause { pause_at, quantum } => {
                frac("pause pause_at", pause_at);
                assert!(
                    quantum > 0.0 && quantum.is_finite(),
                    "pause quantum must be positive and finite"
                );
            }
        }
    }
}

/// Resource limits of the data plane. The default (`link_rate: None`) is
/// the PR-5 lane: infinite-rate links, no queues, byte-identical
/// trajectories — the equivalence oracle for everything in this module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CongestionConfig {
    /// Link serialization rate in weighted packets per second; `None`
    /// disables the congestion lane entirely (infinite capacity).
    pub link_rate: Option<f64>,
    /// Per-port egress queue capacity in weighted packets; `None` =
    /// unbounded queues (rate still applies when set).
    pub queue_capacity: Option<u64>,
    /// Admission policy at the bound.
    pub discipline: DisciplineKind,
}

impl CongestionConfig {
    /// Finite-rate links with bounded drop-tail queues.
    pub fn limited(link_rate: f64, queue_capacity: u64) -> Self {
        CongestionConfig {
            link_rate: Some(link_rate),
            queue_capacity: Some(queue_capacity),
            discipline: DisciplineKind::DropTail,
        }
    }

    /// Sets the queue discipline (builder style).
    #[must_use]
    pub fn with_discipline(mut self, discipline: DisciplineKind) -> Self {
        self.discipline = discipline;
        self
    }

    /// Whether the congestion lane is active at all.
    pub fn enabled(&self) -> bool {
        self.link_rate.is_some()
    }

    /// Validates rate, capacity and discipline parameters.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite rate, a zero capacity, or
    /// invalid discipline thresholds.
    pub fn validate(&self) {
        if let Some(rate) = self.link_rate {
            assert!(!rate.is_nan(), "link_rate must not be NaN");
            assert!(
                rate > 0.0 && rate.is_finite(),
                "link_rate must be positive and finite"
            );
        }
        if let Some(cap) = self.queue_capacity {
            assert!(cap > 0, "queue_capacity must be >= 1 weighted packet");
        }
        self.discipline.validate();
    }
}

/// Always-on congestion lane counters (a field of
/// [`crate::engine::EngineStats`]). Zero whenever the lane is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CongestionCounts {
    /// High-water mark of any single port's weighted occupancy.
    pub peak_port_occupancy: u64,
    /// Weighted packets admitted with an ECN mark.
    pub ecn_marks: u64,
    /// Pause frames applied to upstream ports.
    pub pause_frames: u64,
    /// Weighted flow payload offered via [`crate::engine::Engine::start_flow`].
    pub flow_offered_weight: u64,
    /// Weighted flow payload cumulatively acknowledged (unique goodput —
    /// retransmissions of an already-acked segment never count twice).
    pub flow_acked_weight: u64,
    /// Weighted flow payload retransmitted by Go-Back-N timeouts.
    pub flow_retransmit_weight: u64,
    /// Flow retransmit timers that fired (not stale ones).
    pub flow_timeouts: u64,
}

/// One packet parked in a port queue, with its pre-drawn propagation
/// delay (drawn at enqueue so the traffic RNG consumption order stays
/// deterministic regardless of drain timing).
///
/// The packet itself lives in the engine's [`crate::traffic::PacketArena`];
/// the queue holds only its slab index, plus a copy of the weight so the
/// serialization-time and occupancy arithmetic never touch the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPacket {
    /// Arena index of the parked packet.
    pub packet: u32,
    /// The packet's weight ([`crate::traffic::Packet::weight`]).
    pub weight: u64,
    pub prop_delay: f64,
}

/// Egress queue state of one directed link.
#[derive(Debug, Clone, Default)]
pub(crate) struct PortState {
    /// FIFO of admitted packets awaiting serialization.
    pub queue: VecDeque<QueuedPacket>,
    /// Sum of queued packet weights (the bounded quantity).
    pub occupancy: u64,
    /// Whether a `PortDrain` event is scheduled for this port.
    pub draining: bool,
    /// PFC pause horizon: the port releases nothing before this time.
    pub paused_until: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPT: Admission = Admission {
        admit: true,
        mark: false,
        pause_upstream: 0.0,
    };
    const DROP: Admission = Admission {
        admit: false,
        mark: false,
        pause_upstream: 0.0,
    };

    #[test]
    fn drop_tail_admits_until_full() {
        let d = DisciplineKind::DropTail;
        assert_eq!(d.admit(0, 4, Some(8)), ACCEPT);
        assert_eq!(d.admit(4, 4, Some(8)), ACCEPT);
        assert_eq!(d.admit(5, 4, Some(8)), DROP);
        // Unbounded: never drops.
        assert_eq!(d.admit(u64::MAX - 1, 4, None), ACCEPT);
    }

    #[test]
    fn ecn_marks_above_threshold_and_drops_at_capacity() {
        let d = DisciplineKind::Ecn { mark_at: 0.5 };
        assert!(!d.admit(0, 1, Some(10)).mark);
        let v = d.admit(4, 1, Some(10));
        assert!(v.admit && v.mark);
        assert!(!d.admit(10, 1, Some(10)).admit);
        // No capacity: nothing to take a fraction of, never marks.
        assert!(!d.admit(1_000, 1, None).mark);
    }

    #[test]
    fn pause_emits_quanta_above_threshold_with_drop_backstop() {
        let d = DisciplineKind::Pause {
            pause_at: 0.75,
            quantum: 2.0,
        };
        assert_eq!(d.admit(0, 1, Some(8)).pause_upstream, 0.0);
        let v = d.admit(5, 1, Some(8));
        assert!(v.admit);
        assert_eq!(v.pause_upstream, 2.0);
        assert!(!d.admit(8, 1, Some(8)).admit);
    }

    #[test]
    fn discipline_kind_parses_and_builds() {
        assert_eq!(
            DisciplineKind::parse("drop-tail"),
            Some(DisciplineKind::DropTail)
        );
        assert!(matches!(
            DisciplineKind::parse("ecn"),
            Some(DisciplineKind::Ecn { .. })
        ));
        assert!(matches!(
            DisciplineKind::parse("pfc"),
            Some(DisciplineKind::Pause { .. })
        ));
        assert_eq!(DisciplineKind::parse("red"), None);
        // Every kind admits into an empty port.
        for kind in [
            DisciplineKind::DropTail,
            DisciplineKind::Ecn { mark_at: 0.5 },
            DisciplineKind::Pause {
                pause_at: 0.75,
                quantum: 1.0,
            },
        ] {
            kind.validate();
            assert!(kind.admit(0, 1, Some(4)).admit);
        }
    }

    #[test]
    fn unlimited_config_is_disabled() {
        let c = CongestionConfig::default();
        assert!(!c.enabled());
        c.validate();
        let c = CongestionConfig::limited(100.0, 16);
        assert!(c.enabled());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "link_rate must be positive")]
    fn zero_rate_rejected() {
        CongestionConfig::limited(0.0, 16).validate();
    }

    #[test]
    #[should_panic(expected = "queue_capacity must be >= 1")]
    fn zero_capacity_rejected() {
        CongestionConfig::limited(10.0, 0).validate();
    }

    #[test]
    #[should_panic(expected = "mark_at must be a fraction")]
    fn bad_mark_threshold_rejected() {
        CongestionConfig::limited(10.0, 8)
            .with_discipline(DisciplineKind::Ecn { mark_at: 1.5 })
            .validate();
    }
}
