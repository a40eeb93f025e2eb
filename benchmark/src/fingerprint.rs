//! The fingerprint of one simulation run: a hash of everything the
//! determinism contract (seed -> bytes, for any `jobs`, `regions` or sink)
//! says must repeat. Two runs on the same inputs must agree on it.

use lsrp_graph::{Distance, RouteTable};
use lsrp_sim::{EngineStats, SimTime};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn time(&mut self, t: SimTime) -> &mut Self {
        self.u64(t.seconds().to_bits())
    }

    /// Every counter of `stats` except `peak_queue_depth`, which is
    /// sampled at driver calls and so depends on who drives the loop (the
    /// traced run drives it itself).
    pub fn stats(&mut self, s: &EngineStats) -> &mut Self {
        let e = &s.events;
        let t = &s.traffic;
        let c = &s.congestion;
        for v in [
            e.deliveries,
            e.guard_timers,
            e.guard_fires,
            e.wakeups,
            e.packet_hops,
            e.port_drains,
            e.flow_acks,
            e.flow_timers,
            s.messages_sent,
            s.messages_delivered,
            s.adverts_sent,
            s.adverts_delivered,
            s.messages_duplicated,
            s.dropped_lossy_link,
            s.dropped_dead_receiver,
            t.injected,
            t.delivered,
            t.black_holed,
            t.link_down,
            t.looped,
            t.ttl_expired,
            t.lost,
            t.queue_dropped,
            t.delivered_hops,
            c.peak_port_occupancy,
            c.ecn_marks,
            c.pause_frames,
            c.flow_offered_weight,
            c.flow_acked_weight,
            c.flow_retransmit_weight,
            c.flow_timeouts,
        ] {
            self.u64(v);
        }
        self
    }

    pub fn routes(&mut self, table: &RouteTable) -> &mut Self {
        for (v, entry) in table.iter() {
            self.u64(u64::from(v.raw()));
            match entry.distance {
                Distance::Finite(d) => self.u64(d),
                Distance::Infinite => self.u64(u64::MAX),
            };
            self.u64(u64::from(entry.parent.raw()));
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_content_both_matter() {
        let a = Fingerprint::default().u64(1).u64(2).finish();
        let b = Fingerprint::default().u64(2).u64(1).finish();
        let c = Fingerprint::default().u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Fingerprint::default().finish());
    }
}
