//! Tests of E21 (congestion lane): LSRP repair waves racing hotspot
//! congestion. Links serialize at a finite rate, egress queues are
//! bounded drop-tail, and the workload is stateful Go-Back-N flows under
//! AIMD; a size-`p` prefix-hijack black hole lands mid-transfer, so every
//! black-holed segment is a retransmission that deepens the very queues
//! the recovery traffic crosses. The claim under test is that local
//! stabilization keeps the collision survivable — after convergence the
//! transport layer recovers at least 90% weighted goodput, with drop
//! causes (queue overflow vs black hole) separately accounted — and that
//! `scenarios/e21_congested_recovery.toml` prints what the hand-coded
//! loop it replaced printed.

mod tests {
    use lsrp_analysis::{Table, TrafficSummary, WorkloadKind, WorkloadSpec};
    use lsrp_scenario::cells::{live_hijack_cell, LiveHijackSpec};
    use lsrp_sim::{CongAlgKind, CongestionConfig};

    use crate::scaling::corpus::{hijack, ints};

    /// One congested-recovery run on a `w`x`w` grid: settle, start hotspot
    /// Go-Back-N flows over finite-rate links and bounded drop-tail queues,
    /// stream 30 s cleanly, then have a contiguous region of `p` nodes near
    /// the destination hijack the prefix while the flows keep retransmitting
    /// until every transfer completes.
    fn congested_recovery_run(w: u32, p: usize, seed: u64) -> TrafficSummary {
        live_hijack_cell(&LiveHijackSpec {
            width: w,
            p,
            seed,
            workload: WorkloadSpec {
                kind: WorkloadKind::Hotspot,
                flows: 64,
                ..WorkloadSpec::default()
            },
            duration: 240.0,
            prefault: 30.0,
            window: 10.0,
            // Rate 400 weight/s serializes an aggregate segment (weight 125)
            // in ~0.3 s; capacity 1500 holds 12 of them — a hotspot crossing
            // one egress port saturates it.
            congestion: Some(CongestionConfig::limited(400.0, 1_500)),
            transport: Some(CongAlgKind::Aimd {
                initial: 4,
                max: 64,
            }),
        })
        .summary
    }

    #[test]
    fn goodput_recovers_after_convergence() {
        // A hotspot workload saturates a bounded queue during a size-p
        // perturbation, and Go-Back-N recovers >= 90% weighted goodput
        // once the control plane converges (here: all of it, since no
        // endpoint dies).
        let s = congested_recovery_run(8, 4, 3);
        assert!(s.counts.injected > 0);
        assert!(
            s.goodput_fraction() >= 0.9,
            "goodput must recover: {}",
            s.goodput_fraction()
        );
        assert_eq!(s.flows_aborted, 0, "no endpoint died");
        assert!(s.flows_completed > 0);
        assert!(s.mean_fct > 0.0);
        assert!(
            s.counts.black_holed > 0,
            "the hijack must have eaten segments"
        );
        assert!(
            s.congestion.flow_retransmit_weight > 0,
            "recovery must go through retransmission"
        );
    }

    #[test]
    fn congestion_is_real_in_the_hotspot() {
        // The bounded queue must actually bind: positive peak occupancy
        // near capacity or queue drops under the hotspot load.
        let s = congested_recovery_run(8, 1, 7);
        assert!(s.congestion.peak_port_occupancy > 0);
        assert!(
            s.congestion.peak_port_occupancy <= 1_500,
            "queue bound invariant"
        );
    }

    #[test]
    fn scenario_e21_is_byte_identical_to_the_legacy_loop() {
        let (w, sizes) = (8u32, [1usize]);
        let mut t = Table::new(
            format!(
                "E21 — congestion lane: Go-Back-N goodput while LSRP repair waves race hotspot congestion (grid {w}x{w}, finite-rate links, bounded drop-tail queues, AIMD flows, size-p prefix-hijack)"
            ),
            &[
                "perturbation p",
                "goodput fraction",
                "queue drops",
                "blackholed",
                "peak queue depth",
                "retransmitted",
                "flow timeouts",
                "mean FCT",
                "max FCT",
            ],
        );
        for &p in &sizes {
            let s = congested_recovery_run(w, p, 11);
            t.row(&[
                p.to_string(),
                format!("{:.4}", s.goodput_fraction()),
                s.counts.queue_dropped.to_string(),
                s.counts.black_holed.to_string(),
                s.congestion.peak_port_occupancy.to_string(),
                s.congestion.flow_retransmit_weight.to_string(),
                s.congestion.flow_timeouts.to_string(),
                format!("{:.1}", s.mean_fct),
                format!("{:.1}", s.max_fct),
            ]);
        }
        let src = include_str!("../../../scenarios/e21_congested_recovery.toml");
        let scenario = hijack(src, 2, |h| {
            h.width = w;
            h.sweep.set_axis("p", ints(&sizes));
        });
        assert_eq!(t.to_string(), scenario.to_string());
    }
}
