//! The benchmark's metric and workload tables — the one place names,
//! units and regression bounds are written down. `BENCHMARK.json` at the
//! repository root is `bench manifest` printed to a file; a test holds the
//! two together.

use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports all of these from its untraced run. The fifth
/// figure of the design, the failed fraction, travels as the result
/// line's `failed` / `attempted` pair: it is 0 on a healthy run and a
/// bound relative to 0 means nothing.
///
/// The bounds are as wide as they are because of what was measured on the
/// 2-core container (README, "Bounds and measured A/A spread"): between
/// seeds the event count of `chaos_observed` alone moves by 5%, and the
/// host's own noise comes and goes in phases of minutes.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// One per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, grouped by the crate they measure. A metric a
/// workload never exercises reads 0 there. A name ending in `_s` whose
/// stem is a span name is filled from that span's total time.
pub const PER_LAYER: &[PerLayer] = &[
    // crates/graph
    lower("graph.generate_s", "s"),
    lower("graph.dijkstra_s", "s"),
    lower("graph.partition_s", "s"),
    lower("graph.nodes", "count"),
    lower("graph.edges", "count"),
    lower("graph.max_degree", "count"),
    // crates/core
    lower("core.build_s", "s"),
    lower("core.us_per_event", "us"),
    lower("core.us_per_event.deg25", "us"),
    lower("core.us_per_event.deg100", "us"),
    lower("core.us_per_event.deg200", "us"),
    lower("core.actions", "count"),
    // crates/sim: engine and scheduler
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.us_per_event", "us"),
    lower("sim.messages_delivered", "count"),
    lower("sim.run_calls", "count"),
    lower("sim.run_call_s", "s"),
    lower("sim.warm_s", "s"),
    lower("sim.peak_queue_depth", "count"),
    lower("sim.sched.hold_ns.depth1k", "ns"),
    lower("sim.sched.hold_ns.depth300k", "ns"),
    // crates/sim: region executor
    higher("sim.regions.speedup", "ratio"),
    lower("sim.regions.cpu_per_wall", "ratio"),
    lower("sim.regions.sys_s", "s"),
    lower("sim.regions.us_per_window", "us"),
    lower("sim.regions.cut_edges", "count"),
    lower("sim.regions.balance", "ratio"),
    // crates/sim: data plane
    higher("sim.traffic.packet_events_per_s", "1/s"),
    lower("sim.traffic.injected", "count"),
    higher("sim.traffic.delivered_frac", "ratio"),
    lower("sim.congestion.retransmit_frac", "ratio"),
    lower("sim.congestion.timeouts", "count"),
    lower("sim.congestion.peak_port_occupancy", "count"),
    // crates/faults
    lower("faults.generate_s", "s"),
    lower("faults.apply_s", "s"),
    lower("faults.events", "count"),
    lower("faults.skipped", "count"),
    // crates/analysis
    lower("analysis.monitor_s", "s"),
    lower("analysis.monitor_frac", "ratio"),
    lower("analysis.workload_schedule_s", "s"),
    lower("analysis.violations", "count"),
    higher("analysis.runner.jobs_speedup", "ratio"),
    // crates/trace, crates/viz
    lower("trace.bytes", "count"),
    lower("trace.frames", "count"),
    lower("trace.sink_frac", "ratio"),
    higher("trace.mb_per_s", "MB/s"),
    lower("trace.read_s", "s"),
    lower("viz.render_s", "s"),
    lower("viz.html_bytes", "count"),
    // crates/scenario
    lower("scenario.parse_s", "s"),
    lower("scenario.expand_s", "s"),
    lower("scenario.cells", "count"),
    lower("scenario.exec_s.recovery", "s"),
    lower("scenario.exec_s.recovery_multi", "s"),
    lower("scenario.exec_s.hijack_live", "s"),
    lower("scenario.exec_s.chaos_grid", "s"),
    lower("scenario.cell_ms_p50", "ms"),
    lower("scenario.cell_ms_p95", "ms"),
    // crates/multi, crates/baselines
    lower("multi.build_s", "s"),
    lower("multi.us_per_event", "us"),
    higher("multi.adverts_per_message", "ratio"),
    lower("baselines.dbf.us_per_event", "us"),
    lower("baselines.dual.us_per_event", "us"),
    lower("baselines.pv.us_per_event", "us"),
    // the benchmark itself
    lower("bench.run_s_median", "s"),
    lower("bench.run_s_max", "s"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.reps", "count"),
];

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The workloads, in the order `run` executes them, each with the reason
/// it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "clos_cold",
        "global cold-start wave on a high-degree Clos fabric: crates/core guard evaluation dominates",
    ),
    (
        "waxman_storm",
        "many small contained repairs on a big sparse idle graph: engine, scheduler and fault application dominate, core guards are cheap",
    ),
    (
        "clos_cold_regions",
        "clos_cold under the region-parallel executor with every window busy: barrier merge and staging",
    ),
    (
        "waxman_storm_regions",
        "a sparse storm under the region executor with almost every window empty: per-window overhead",
    ),
    (
        "chaos_observed",
        "mixed fault process through run_monitored with the streaming trace sink: monitors, RouteView, crates/trace and crates/faults",
    ),
    (
        "traffic_congested",
        "Go-Back-N/AIMD hotspot flows over drop-tail ports: packet lane, port queues, flow timers; control plane idle",
    ),
    (
        "campaign_sweep",
        "hundreds of short simulations through the scenario compiler and sharded runner: lowering, build(), crates/multi and crates/baselines",
    ),
];

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}");
        out.push_str(if i + 1 == WORKLOADS.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        out.push_str(if i + 1 == END_TO_END.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        out.push_str(if i + 1 == PER_LAYER.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(on_disk, manifest(), "regenerate with `bench manifest`");
        assert!(lsrp_trace::json::parse(&on_disk).is_ok());
    }
}
