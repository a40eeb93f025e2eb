//! Tests of E20 (§III-B, live data plane): availability measured with
//! *in-flight packets* while LSRP recovers from a prefix-hijack black
//! hole. E13 samples snapshot availability from frozen route tables; here
//! a live aggregated workload forwards on the engine's own queue while
//! the control plane stabilizes, so delivery fractions, drop fates and
//! path stretch come from packets that actually raced the recovery waves.
//! The paper's claim is that availability degrades with the perturbation
//! size `p`, not with network size, and returns to 1 once containment
//! completes — and `scenarios/e20_live_availability.toml` must print what
//! the hand-coded loop it replaced printed.

mod tests {
    use lsrp_analysis::{Table, TrafficSummary, WorkloadSpec};
    use lsrp_scenario::cells::{live_hijack_cell, LiveHijackSpec};

    use crate::scaling::corpus::{hijack, ints};

    /// One live-availability run on a `w`x`w` grid: settle, stream 30 s of
    /// clean traffic, then have a contiguous region of `p` nodes near the
    /// destination hijack the prefix (`(d, p) := (0, self)`, neighbors
    /// poisoned) while the workload keeps flowing until both planes drain.
    fn live_availability_run(w: u32, p: usize, seed: u64) -> TrafficSummary {
        live_hijack_cell(&LiveHijackSpec {
            width: w,
            p,
            seed,
            workload: WorkloadSpec {
                flows: 128,
                ..WorkloadSpec::default()
            },
            duration: 240.0,
            prefault: 30.0,
            window: 10.0,
            congestion: None,
            transport: None,
        })
        .summary
    }

    #[test]
    fn availability_dents_scale_with_perturbation_size() {
        let small = live_availability_run(8, 1, 3);
        let large = live_availability_run(8, 6, 3);
        assert!(small.counts.injected > 0);
        assert!(
            small.delivered_fraction() >= large.delivered_fraction(),
            "a bigger hijack must not deliver more: {} vs {}",
            small.delivered_fraction(),
            large.delivered_fraction()
        );
        // Contained recovery: most traffic keeps flowing even while the
        // network heals (the §III-B claim this experiment reproduces).
        assert!(
            small.delivered_fraction() > 0.9,
            "p=1 dent must be small: {}",
            small.delivered_fraction()
        );
        assert_eq!(small.min_routable_fraction, 1.0, "no topology change");
    }

    #[test]
    fn scenario_e20_is_byte_identical_to_the_legacy_loop() {
        let (w, sizes) = (8u32, [1usize]);
        let mut t = Table::new(
            format!(
                "E20 — §III-B live: in-flight packet availability while recovering from a size-p prefix-hijack black hole (grid {w}x{w}, aggregated Poisson workload)"
            ),
            &[
                "perturbation p",
                "delivered fraction",
                "min window availability",
                "packets lost",
                "mean stretch",
                "max stretch",
            ],
        );
        for &p in &sizes {
            let s = live_availability_run(w, p, 11);
            let lost = s.counts.injected - s.counts.delivered;
            t.row(&[
                p.to_string(),
                format!("{:.4}", s.delivered_fraction()),
                format!("{:.4}", s.min_window_availability),
                lost.to_string(),
                format!("{:.3}", s.mean_stretch),
                format!("{:.3}", s.max_stretch),
            ]);
        }
        let src = include_str!("../../../scenarios/e20_live_availability.toml");
        let scenario = hijack(src, 2, |h| {
            h.width = w;
            h.sweep.set_axis("p", ints(&sizes));
        });
        assert_eq!(t.to_string(), scenario.to_string());
    }
}
