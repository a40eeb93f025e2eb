//! The same-bytes contract: every pinned artefact — scenario reports,
//! trace files, `experiments` output, campaign reports, baseline scripts
//! and engine trajectories — is regenerated here and compared by length
//! and FNV-1a 64 digest with `goldens/manifest.txt`.
//!
//! A mismatch fails the test with one corrected manifest line per
//! artefact whose bytes moved, so an intended change is blessed by
//! pasting those lines over the old ones: the manifest diff is the
//! review. Invocations that must print the same bytes as an artefact
//! (`--jobs`, `--regions`, `--trace-out`, a scenario file instead of
//! flags) are compared with it here and have no line of their own.
//!
//! The `campaign/`, `baseline/` and `trajectory/` artefacts are checked
//! by the named tests of `golden_campaigns.rs`, `topology_goldens.rs` and
//! `e2e_trajectory_goldens.rs`, the rest by `goldens.rs`. The unoptimised
//! build checks all but the costly ones; `cargo test --release -p
//! lsrp-bench --tests` checks them all.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lsrp_analysis::{run_monitored, standard_monitors, TrafficMode, WorkloadDriver, WorkloadSpec};
use lsrp_baselines::{
    BaselineSimulation, DbfConfig, DbfSimulation, DualConfig, DualSimulation, PvConfig,
    PvSimulation,
};
use lsrp_cli::{run_command, Command};
use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_faults::FaultProcess;
use lsrp_graph::{generators, Distance, Graph, NodeId};
use lsrp_sim::{
    ClockConfig, CongestionConfig, EngineConfig, HarnessProtocol, LinkConfig, SimHarness, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The name prefixes the named suites check; `goldens.rs` takes the rest.
const SUITES: [&str; 3] = ["campaign/", "baseline/", "trajectory/"];

/// Artefacts that take seconds each unoptimised.
const COSTLY: [&str; 6] = [
    "experiments/all",
    "run/e13_availability",
    "run/e18_message_loss",
    "run/e20_live_availability",
    "run/e6_scaling",
    "run/scale_sweep",
];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How an artefact's bytes are made.
enum Make {
    /// What an `lsrp` command prints.
    Lsrp(String),
    /// The trace file an `lsrp` command writes.
    Trace(String),
    /// What the `experiments` binary prints for these arguments.
    Experiments(&'static str),
    /// A library-level fingerprint.
    Code(Box<dyn Fn() -> String + Send + Sync>),
}

struct Artefact {
    name: String,
    make: Make,
    /// Invocations of the same kind that must give the same bytes;
    /// `{cmd}` stands for the artefact's own command.
    same: &'static [&'static str],
    /// Substrings the artefact holds, each exactly so many times.
    holds: &'static [(&'static str, usize)],
}

fn artefact(name: impl Into<String>, make: Make) -> Artefact {
    Artefact {
        name: name.into(),
        make,
        same: &[],
        holds: &[],
    }
}

type Report = (
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, usize)],
);

/// `lsrp` reports: name, command, the invocations that must print the
/// same bytes, and the substrings the report holds, each so many times.
const REPORTS: &[Report] = &[
    (
        "chaos/grid4x4",
        "chaos --topology grid:4x4 --runs 2 --seed 1",
        &["{cmd} --jobs 4", "run {tmp}/chaos-flags.toml"],
        &[("violating 0", 1)],
    ),
    (
        "traffic/grid4x4",
        "traffic --topology grid:4x4 --runs 2 --seed 1 --flows 16 --duration 120",
        &["{cmd} --jobs 4"],
        &[
            ("traffic campaign: topology grid:4x4", 1),
            ("injected=", 2),
            ("mean_stretch=", 2),
        ],
    ),
    (
        "traffic/grid4x4-destinations-2",
        "traffic --topology grid:4x4 --destinations 2 --runs 1 --seed 1 --flows 8 --duration 120",
        &["run {tmp}/traffic-flags.toml"],
        &[
            (
                "multi traffic campaign: topology grid:4x4 destinations 2",
                1,
            ),
            ("routes_correct=true", 1),
        ],
    ),
    (
        "traffic/grid4x4-congested",
        "traffic --topology grid:4x4 --runs 2 --seed 1 --flows 8 --duration 120 \
         --link-rate 200 --queue-cap 2000 --cc aimd",
        &["{cmd} --jobs 4"],
        &[("qdrop=", 2), ("goodput=", 2), ("fct_mean=", 2)],
    ),
    // One per report shape: single chaos with minimized repros, multi
    // chaos, congested single traffic, multi traffic.
    (
        "campaign/chaos-grid5x5-horizon-40",
        "chaos --topology grid:5x5 --horizon 40",
        &[],
        &[("minimized repro for seed", 4)],
    ),
    (
        "campaign/chaos-grid3x3-destinations-2",
        "chaos --topology grid:3x3 --destinations 2 --runs 2 --seed 1",
        &[],
        &[],
    ),
    (
        "campaign/traffic-grid3x3-congested-ecn",
        "traffic --topology grid:3x3 --runs 2 --seed 5 --flows 6 --duration 80 \
         --link-rate 200 --queue-cap 2000 --discipline ecn --cc aimd",
        &["run {tmp}/congested.toml"],
        &[],
    ),
    (
        "campaign/traffic-grid3x3-all-pairs",
        "traffic --topology grid:3x3 --destinations 2 --runs 2 --seed 2 --flows 6 \
         --duration 80 --workload all-pairs",
        &[],
        &[],
    ),
    // The invocations whose `--jobs`, `--regions` and scenario-file
    // variants `lsrp-cli`'s driver tests compare.
    (
        "chaos/grid3x3",
        "chaos --topology grid:3x3 --runs 2 --seed 5",
        &[],
        &[],
    ),
    (
        "chaos/grid3x3-runs-4",
        "chaos --topology grid:3x3 --runs 4 --seed 5",
        &[],
        &[],
    ),
    (
        "chaos/grid3x3-destinations-4",
        "chaos --topology grid:3x3 --destinations 4 --runs 3 --seed 5",
        &[],
        &[],
    ),
    (
        "traffic/grid3x3",
        "traffic --topology grid:3x3 --runs 2 --seed 5 --flows 8 --duration 80",
        &[],
        &[],
    ),
];

/// Trace files: name, the command that writes it, and the commands that
/// must write the same bytes.
const TRACES: &[(&str, &str, &[&str])] = &[
    (
        "trace/flap_storm",
        "run scenarios/flap_storm.toml",
        &["{cmd} --regions 4 --jobs 4"],
    ),
    (
        "trace/partition_heal_hotspot",
        "run scenarios/partition_heal_hotspot.toml",
        &["{cmd} --regions 4 --jobs 4"],
    ),
    // The standard fault process (flaps, churn, partitions, corruptions)
    // traced with and without regions.
    (
        "trace/chaos-grid3x3",
        "run {tmp}/chaos-3x3.toml",
        &["{cmd} --regions 4 --jobs 4"],
    ),
    // A sharded campaign traces its run zero.
    (
        "campaign/trace-chaos-grid3x3-jobs-2",
        "chaos --topology grid:3x3 --runs 2 --seed 1 --jobs 2",
        &[],
    ),
];

/// Scenario runs that must print what the plain run prints.
const SCENARIO_VARIANTS: &[(&str, &[&str])] = &[
    (
        "flap_storm",
        &[
            "{cmd} --jobs 4",
            "{cmd} --regions 4 --jobs 4",
            "{cmd} --trace-out {tmp}/storm.jsonl",
        ],
    ),
    (
        "partition_heal_hotspot",
        &[
            "{cmd} --regions 4 --jobs 4",
            "{cmd} --trace-out {tmp}/hot.jsonl",
        ],
    ),
    ("e13_availability", &["{cmd} --jobs 4"]),
    ("lsrp_containment", &["{cmd} --jobs 4"]),
    ("churn_continuous", &["{cmd} --jobs 4"]),
    ("weight_drift", &["{cmd} --jobs 4"]),
];

/// Scenario files the flag invocations are compared with.
const FILES: [(&str, &str); 4] = [
    (
        "chaos-flags.toml",
        "[scenario]\nname = \"chaos-flags\"\nkind = \"chaos\"\n[topology]\nspec = \"grid:4x4\"\n\
         [campaign]\nseed = 1\nruns = 2\n",
    ),
    (
        "traffic-flags.toml",
        "[scenario]\nname = \"traffic-flags\"\nkind = \"traffic\"\n[topology]\nspec = \"grid:4x4\"\n\
         [campaign]\nseed = 1\nruns = 1\ndestinations = \"2\"\n[workload]\nflows = 8\n\
         [traffic]\nduration = 120.0\n",
    ),
    (
        "chaos-3x3.toml",
        "[scenario]\nname = \"cli-chaos\"\nkind = \"chaos\"\nexpect = [\"violating == 0\"]\n\
         [topology]\nspec = \"grid:3x3\"\n[campaign]\nseed = 5\nruns = 2\n",
    ),
    (
        "congested.toml",
        "[scenario]\nname = \"cli-congested\"\nkind = \"traffic\"\n[topology]\nspec = \"grid:3x3\"\n\
         [campaign]\nseed = 5\nruns = 2\n[workload]\nflows = 6\n[traffic]\nduration = 80.0\n\
         [congestion]\nlink_rate = 200.0\nqueue_cap = 2000\ndiscipline = \"ecn\"\ncc = \"aimd\"\n",
    ),
];

fn artefacts() -> Vec<Artefact> {
    let mut stems: Vec<String> = std::fs::read_dir(Path::new(ROOT).join("scenarios"))
        .expect("scenarios/ lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|file| Some(file.strip_suffix(".toml")?.to_string()))
        .collect();
    stems.sort();
    let mut all = Vec::new();
    for stem in stems {
        let same = SCENARIO_VARIANTS.iter().find(|(s, _)| *s == stem);
        let make = Make::Lsrp(format!("run scenarios/{stem}.toml"));
        let same = same.map_or(&[][..], |v| v.1);
        all.push(Artefact {
            same,
            ..artefact(format!("run/{stem}"), make)
        });
    }
    for &(name, cmd, same, holds) in REPORTS {
        let make = Make::Lsrp(cmd.to_string());
        all.push(Artefact {
            same,
            holds,
            ..artefact(name, make)
        });
    }
    for &(name, cmd, same) in TRACES {
        all.push(Artefact {
            same,
            ..artefact(name, Make::Trace(cmd.to_string()))
        });
    }
    all.push(artefact("experiments/all", Make::Experiments("all")));
    let e6 = Make::Experiments("e6 --destinations 3");
    all.push(artefact("experiments/e6-destinations-3", e6));
    for p in ["dbf", "dual", "pv"] {
        let make = Make::Code(Box::new(move || baseline(p)));
        all.push(artefact(format!("baseline/{p}"), make));
    }
    for topology in ["grid6x6", "fattree4", "waxman60"] {
        for seed in [7, 1303] {
            let make = Make::Code(Box::new(move || chaos_fingerprint(&graph(topology), seed)));
            all.push(artefact(
                format!("trajectory/chaos-{topology}-seed-{seed}"),
                make,
            ));
        }
    }
    for (seed, per_packet) in [(3, false), (91, true)] {
        let make = Make::Code(Box::new(move || traffic_fingerprint(seed, per_packet)));
        all.push(artefact(format!("trajectory/traffic-seed-{seed}"), make));
    }
    all
}

/// A fresh scratch directory holding the flag-equivalent scenario files.
fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lsrp-goldens-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, body) in FILES {
        std::fs::write(dir.join(file), body).unwrap();
    }
    dir
}

fn lsrp(cmd: &str, tmp: &Path) -> String {
    let cmd = cmd
        .replace("{tmp}", &tmp.display().to_string())
        .replace("scenarios/", &format!("{ROOT}/scenarios/"));
    let parsed = Command::parse(cmd.split_whitespace().map(str::to_string))
        .unwrap_or_else(|e| panic!("`{cmd}` does not parse: {}", e.0));
    run_command(&parsed).unwrap_or_else(|e| panic!("`{cmd}` failed: {}", e.0))
}

/// The trace `cmd` writes, checked for its `hdr` and `end` frames.
fn trace(cmd: &str, tmp: &Path, file: &str) -> Vec<u8> {
    let path = tmp.join(file);
    lsrp(&format!("{cmd} --trace-out {}", path.display()), tmp);
    let bytes = std::fs::read(&path).expect("trace written");
    let text = String::from_utf8_lossy(&bytes);
    let first = text.lines().next().unwrap_or("");
    let last = text.lines().last().unwrap_or("");
    assert!(
        first.contains(r#""schema":"lsrp-trace""#),
        "`{cmd}`: no hdr frame"
    );
    assert!(last.starts_with(r#"{"k":"end","#), "`{cmd}`: no end frame");
    for key in "sent delivered dropped_lossy dropped_dead duplicated".split(' ') {
        let key = format!("\"{key}\":");
        assert!(last.contains(&key), "`{cmd}`: end frame lacks {key}");
    }
    bytes
}

fn experiments(args: &str) -> Vec<u8> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args.split_whitespace())
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "experiments {args}: {stderr}");
    out.stdout
}

/// Makes `a`'s bytes and returns them with every broken promise about
/// its variants and contents.
fn make(a: &Artefact, tmp: &Path) -> (Vec<u8>, Vec<String>) {
    let file = |i: &str| format!("{}{i}.jsonl", a.name.replace('/', "-"));
    let mut broken = Vec::new();
    let bytes = match &a.make {
        Make::Lsrp(cmd) => lsrp(cmd, tmp).into_bytes(),
        Make::Trace(cmd) => trace(cmd, tmp, &file("")),
        Make::Experiments(args) => experiments(args),
        Make::Code(f) => f().into_bytes(),
    };
    for (i, cmd) in a.same.iter().enumerate() {
        let cmd = match &a.make {
            Make::Lsrp(base) | Make::Trace(base) => cmd.replace("{cmd}", base),
            _ => unreachable!("only lsrp invocations have variants"),
        };
        let other = match &a.make {
            Make::Trace(_) => trace(&cmd, tmp, &file(&format!("-{i}"))),
            _ => lsrp(&cmd, tmp).into_bytes(),
        };
        if other != bytes {
            broken.push(format!("{}: `{cmd}` gives different bytes", a.name));
        }
    }
    let text = String::from_utf8_lossy(&bytes);
    for &(needle, n) in a.holds {
        let got = text.matches(needle).count();
        if got != n {
            broken.push(format!("{}: holds `{needle}` {got} times, not {n}", a.name));
        }
    }
    if a.name == "experiments/all" {
        let md = std::fs::read_to_string(Path::new(ROOT).join("EXPERIMENTS.md")).unwrap();
        if !md.ends_with(&format!("\n```\n{text}```\n")) {
            broken.push("EXPERIMENTS.md: the Raw output block is not `experiments all`".into());
        }
    }
    (bytes, broken)
}

/// `name -> (length, digest)` from the manifest.
fn manifest() -> BTreeMap<String, (usize, u64)> {
    let text = std::fs::read_to_string(Path::new(ROOT).join("goldens/manifest.txt")).unwrap();
    let parse = |l: &str| {
        let fields: Vec<&str> = l.split_whitespace().collect();
        let [name, len, digest] = fields[..] else {
            return None;
        };
        let digest = u64::from_str_radix(digest.strip_prefix("0x")?, 16).ok()?;
        Some((name.to_string(), (len.parse().ok()?, digest)))
    };
    (text.lines())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| parse(l).unwrap_or_else(|| panic!("bad manifest line `{l}`")))
        .collect()
}

/// Checks the artefacts whose names start with `prefix`.
pub fn check(prefix: &str) {
    run(|name| name.starts_with(prefix), false);
}

/// Checks the costly or the cheap artefacts no named suite checks; the
/// cheap pass also fails on manifest lines that no artefact has.
pub fn check_rest(costly: bool) {
    run(
        |name| COSTLY.contains(&name) == costly && !SUITES.iter().any(|p| name.starts_with(p)),
        !costly,
    );
}

/// Regenerates the picked artefacts on every core and fails listing each
/// moved one with its corrected manifest line.
fn run(pick: impl Fn(&str) -> bool, stale: bool) {
    let pinned = manifest();
    let all = artefacts();
    let mine: Vec<&Artefact> = all.iter().filter(|a| pick(&a.name)).collect();
    assert!(!mine.is_empty(), "no artefact is picked");
    let mut failures = Vec::new();
    if stale {
        for name in pinned.keys().filter(|n| !all.iter().any(|a| &&a.name == n)) {
            failures.push(format!(
                "{name}: no artefact has this name; delete its line"
            ));
        }
    }
    let todo = Mutex::new(mine.iter());
    let tmp = scratch();
    let made = Mutex::new(BTreeMap::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(a) = todo.lock().unwrap().next() {
                    let (bytes, broken) = make(a, &tmp);
                    let got = (bytes.len(), fnv1a64(&bytes));
                    made.lock().unwrap().insert(a.name.as_str(), (got, broken));
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&tmp);
    let mut moved = String::new();
    for (name, (got, broken)) in made.into_inner().unwrap() {
        failures.extend(broken);
        if pinned.get(name) != Some(&got) {
            let _ = writeln!(moved, "{name} {} 0x{:016x}", got.0, got.1);
        }
    }
    if !moved.is_empty() {
        failures.push(format!(
            "bytes moved; the corrected goldens/manifest.txt lines:\n{moved}"
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

// ---------------------------------------------------------------------
// Baselines under topology change: DBF, DUAL-lite and path-vector each
// run one script on `grid:5x5` — an edge fails, a new edge joins, a
// weight goes up and back down, a node fails and rejoins — logging every
// route delta plus per-step event, message and action counts.
// ---------------------------------------------------------------------

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

fn script<P: HarnessProtocol>(sim: &mut SimHarness<P>) -> String {
    type Step<P> = (&'static str, fn(&mut SimHarness<P>));
    let steps: [Step<P>; 7] = [
        ("start", |_| {}),
        ("fail_edge 0-1", |s| s.fail_edge(v(0), v(1)).unwrap()),
        ("join_edge 0-6", |s| s.join_edge(v(0), v(6), 1).unwrap()),
        ("set_weight 5-10 up", |s| {
            s.set_weight(v(5), v(10), 9).unwrap()
        }),
        ("set_weight 5-10 down", |s| {
            s.set_weight(v(5), v(10), 1).unwrap()
        }),
        ("fail_node 12", |s| s.fail_node(v(12)).unwrap()),
        ("join_node 12", |s| {
            s.join_node(v(12), &[(v(7), 1), (v(11), 2), (v(13), 1)])
                .unwrap();
        }),
    ];
    let mut log = String::new();
    let mut cursor = sim.route_cursor();
    for (name, apply) in steps {
        apply(sim);
        let report = sim.run_until(sim.now().seconds() + 2_000.0);
        for delta in sim.route_deltas_since(cursor) {
            writeln!(log, "{delta:?}").unwrap();
        }
        cursor = sim.route_cursor();
        let stats = sim.stats();
        writeln!(
            log,
            "{name}: events={} sent={} delivered={} actions={} last_effective={:?} quiescent={}",
            stats.total_events(),
            stats.messages_sent,
            stats.messages_delivered,
            sim.trace().total_actions(),
            report.last_effective,
            report.quiescent,
        )
        .unwrap();
    }
    log
}

/// The script's log for the baseline `protocol`.
fn baseline(protocol: &str) -> String {
    let (g, c) = (
        generators::grid(5, 5, 1),
        EngineConfig::default().with_seed(11),
    );
    match protocol {
        "dbf" => script(&mut DbfSimulation::new(
            g,
            v(0),
            None,
            DbfConfig::default(),
            c,
        )),
        "dual" => script(&mut DualSimulation::new(
            g,
            v(0),
            None,
            DualConfig::default(),
            c,
        )),
        _ => script(&mut PvSimulation::new(
            g,
            v(0),
            None,
            PvConfig::default(),
            c,
        )),
    }
}

// ---------------------------------------------------------------------
// Engine trajectories: seeded full simulations fingerprinted by every
// action record, the final route table and the engine statistics — a
// mesh, a Clos and a Waxman graph from arbitrary states under drifting
// clocks, jittered links and the standard chaos process; and congested
// data-plane traffic drained to empty, one run long enough (100k+
// events) to carry the calendar queue through many retunes.
// ---------------------------------------------------------------------

fn graph(name: &str) -> Graph {
    match name {
        "grid6x6" => generators::grid(6, 6, 1),
        "fattree4" => generators::fat_tree(4),
        _ => generators::waxman(60, 0.4, 0.6, &mut StdRng::seed_from_u64(42)),
    }
}

fn chaos_fingerprint(graph: &Graph, seed: u64) -> String {
    // No periodic SYN refresh, so the monitored phase can settle instead
    // of ticking maintenance to the horizon.
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_link(LinkConfig::jittered(0.5, 1.5))
        .with_clocks(ClockConfig::Drifting { rho: 1.4 });
    let mut sim = LsrpSimulation::builder(graph.clone(), v(0))
        .timing(TimingConfig::for_network(1.4, 1.5))
        .initial_state(InitialState::Arbitrary { seed: seed ^ 99 })
        .engine_config(engine)
        .build();
    assert!(sim.run_to_quiescence(1_000_000.0).quiescent);
    let t0 = sim.now().seconds();
    let schedule = FaultProcess::standard()
        .generate(graph, v(0), 120.0, seed)
        .shifted(t0);
    let timing = *sim.timing();
    let mut monitors = standard_monitors(&timing, graph.node_count());
    let report = run_monitored(&mut sim, &schedule, t0 + 100_000.0, &mut monitors);
    let actions: Vec<_> = (sim.engine().trace().actions.iter())
        .map(|r| (r.node, r.time.seconds(), r.name, r.maintenance))
        .collect();
    format!(
        "events={} actions={actions:?} table={:?} stats={:?}",
        report.events,
        sim.route_table(),
        sim.stats()
    )
}

/// Finite links, bounded queues, the default workload (or one probe per
/// packet, 160 packets/s offered to a destination whose two links carry
/// 128) and a mid-run corruption, drained to empty.
fn traffic_fingerprint(seed: u64, per_packet: bool) -> String {
    let graph = generators::grid(8, 8, 1);
    let mut spec = WorkloadSpec::default();
    if per_packet {
        spec.mode = TrafficMode::Exact;
        spec.rate = 2.5;
    }
    let (dest, duration) = (v(0), 60.0);
    let mut sim = LsrpSimulation::builder(graph.clone(), dest)
        .initial_state(InitialState::Legitimate)
        .engine_config(
            EngineConfig::default()
                .with_seed(seed)
                .with_congestion(CongestionConfig::limited(64.0, 12)),
        )
        .build();
    sim.run_to_quiescence(100_000.0);
    let t0 = sim.now().seconds();
    let mut workload = WorkloadDriver::new(&spec, &graph, &[dest], t0, duration, seed);
    workload.ensure_scheduled(sim.engine_mut(), t0 + duration / 2.0);
    sim.run_until(t0 + duration / 2.0);
    sim.corrupt_distance(v(27), Distance::ZERO);
    workload.ensure_scheduled(sim.engine_mut(), f64::INFINITY);
    while sim.engine().any_enabled_non_maintenance()
        || sim.engine().inflight_messages() > 0
        || sim.engine().packets_in_flight() > 0
    {
        let next = sim
            .engine()
            .next_event_time()
            .map_or(sim.now(), |t: SimTime| t);
        sim.run_until(next.seconds() + 50.0);
    }
    let events = sim.stats().total_events();
    assert!(
        !per_packet || events >= 100_000,
        "seed {seed}: only {events} events"
    );
    format!(
        "now={:?} traffic={:?} stats={:?} table={:?}",
        sim.now(),
        sim.stats().traffic,
        sim.stats(),
        sim.route_table()
    )
}
