//! Tests of E13 (forwarding-plane availability during recovery), E14
//! (containment under jittered delays and drifting clocks) and E18 (the
//! reliable-link ablation): the cells in `lsrp_scenario::cells` the
//! checked-in scenario files compile to, and `e13_availability.toml`
//! against the hand-coded loop it replaced.

mod tests {
    use lsrp_analysis::{table::fmt_f64, AvailabilityTrace, RecoveryMetrics, Table};
    use lsrp_scenario::cells::{
        recovery_cell, snapshot_hijack_cell, EngineModel, Protocol, RecoveryCellSpec, RegionFault,
        ALL_PROTOCOLS,
    };

    use crate::scaling::corpus::hijack;

    /// One availability run: a *prefix-hijack black hole* — a region of `p`
    /// nodes near the destination claims `(d, p) := (0, self)`, dropping all
    /// transit traffic — sampled every simulated second until recovery.
    fn availability_run(protocol: Protocol, w: u32, p: usize, seed: u64) -> AvailabilityTrace {
        snapshot_hijack_cell(protocol, w, p, seed, 1.0)
    }

    /// A size-`p` black hole on a `w`x`w` grid under `model`.
    fn blackhole_run(
        protocol: Protocol,
        w: u32,
        p: usize,
        seed: u64,
        model: EngineModel,
    ) -> RecoveryMetrics {
        recovery_cell(&RecoveryCellSpec {
            protocol,
            width: w,
            p,
            seed,
            fault: RegionFault::Blackhole,
            model,
        })
    }

    #[test]
    fn lsrp_stays_nearly_fully_available() {
        let lsrp = availability_run(Protocol::Lsrp, 10, 2, 1);
        let dbf = availability_run(Protocol::Dbf, 10, 2, 1);
        assert!(
            lsrp.min >= dbf.min,
            "LSRP min {} vs DBF min {}",
            lsrp.min,
            dbf.min
        );
        assert!(lsrp.degraded_time < dbf.degraded_time);
        assert_eq!(lsrp.samples.last().unwrap().1, 1.0);
        assert_eq!(dbf.samples.last().unwrap().1, 1.0);
    }

    #[test]
    fn lsrp_recovers_under_ten_percent_loss() {
        // LSRP needs the periodic `SYN` refresh to tolerate loss: a lost
        // broadcast is re-advertised within one period.
        let model = EngineModel::Lossy {
            loss: 0.10,
            syn_period: 5.0,
        };
        let m = blackhole_run(Protocol::Lsrp, 8, 2, 9, model);
        assert!(m.quiescent && m.routes_correct, "{m:?}");
    }

    #[test]
    fn containment_survives_drift_and_jitter() {
        // Jittered link delays and adversarial (alternating) clock drift, with
        // hold times re-derived via `TimingConfig::for_network`.
        let model = EngineModel::Harsh {
            jitter: (0.5, 1.5),
            rho: 1.5,
        };
        let m = blackhole_run(Protocol::Lsrp, 10, 2, 5, model);
        assert!(m.quiescent && m.routes_correct);
        assert!(
            m.contaminated.len() <= 10,
            "containment lost under drift: {:?}",
            m.contaminated
        );
    }

    #[test]
    fn scenario_e13_is_byte_identical_to_the_legacy_loop() {
        let (w, p) = (10u32, 2usize);
        let mut t = Table::new(
            format!(
                "E13 — forwarding availability while recovering from a size-{p} prefix-hijack black hole (grid {w}x{w})"
            ),
            &[
                "protocol",
                "min availability",
                "degraded seconds",
                "availability-seconds lost",
            ],
        );
        for protocol in ALL_PROTOCOLS {
            let a = availability_run(protocol, w, p, 3);
            t.row(&[
                format!("{protocol:?}"),
                format!("{:.3}", a.min),
                fmt_f64(a.degraded_time),
                format!("{:.1}", a.lost),
            ]);
        }
        let src = include_str!("../../../scenarios/e13_availability.toml");
        let scenario = hijack(src, 2, |h| {
            h.width = w;
            h.p = Some(p);
        });
        assert_eq!(t.to_string(), scenario.to_string());
    }
}
