//! Shared parse/validation vocabulary for CLI flags and scenario
//! fields.
//!
//! `lsrp`'s flag surface (`--topology`, `--workload`, `--link-rate`,
//! ...) and the scenario schema describe the same configuration space.
//! Both layers parse and validate through the helpers here, so a value
//! accepted on the command line is accepted in a scenario file with the
//! same spelling and the same diagnostics — the two cannot drift apart.
//!
//! Every helper returns `Result<_, String>` with a plain message; the
//! caller prefixes its own context (the flag name, or the scenario
//! field path plus line).

use std::fmt;

use lsrp_analysis::traffic::WorkloadKind;
use lsrp_graph::{generators, topologies, Graph, NodeId};
use lsrp_sim::{CongAlgKind, DisciplineKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A topology selector, e.g. `grid:8x8`, `ring:32`, `fig1`.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `grid:WxH`
    Grid(u32, u32),
    /// `ring:N`
    Ring(u32),
    /// `path:N`
    Path(u32),
    /// `er:N:P` — connected Erdős–Rényi with extra-edge probability `P`.
    ErdosRenyi(u32, f64),
    /// `geo:N:R` — connected random geometric with radius `R`.
    Geometric(u32, f64),
    /// `ba:N:M` — preferential attachment, `M` edges per newcomer.
    PreferentialAttachment(u32, u32),
    /// `lollipop:TAIL:LOOP`
    Lollipop(u32, u32),
    /// `waxman:N:ALPHA:BETA` — Waxman random graph (long links
    /// exponentially suppressed by `ALPHA`, density scaled by `BETA`).
    Waxman(u32, f64, f64),
    /// `cliques:K:M` — ring of `K` cliques of `M` nodes.
    RingOfCliques(u32, u32),
    /// `fattree:K` — three-tier k-ary fat-tree with hosts.
    FatTree(u32),
    /// `fig1` — the paper's Figure-1 network (destination v2).
    Fig1,
}

impl fmt::Display for TopologySpec {
    /// The canonical spec string; [`TopologySpec::parse`] round-trips it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Grid(w, h) => write!(f, "grid:{w}x{h}"),
            TopologySpec::Ring(n) => write!(f, "ring:{n}"),
            TopologySpec::Path(n) => write!(f, "path:{n}"),
            TopologySpec::ErdosRenyi(n, p) => write!(f, "er:{n}:{p}"),
            TopologySpec::Geometric(n, r) => write!(f, "geo:{n}:{r}"),
            TopologySpec::PreferentialAttachment(n, m) => write!(f, "ba:{n}:{m}"),
            TopologySpec::Lollipop(tail, ring) => write!(f, "lollipop:{tail}:{ring}"),
            TopologySpec::Waxman(n, a, b) => write!(f, "waxman:{n}:{a}:{b}"),
            TopologySpec::RingOfCliques(k, m) => write!(f, "cliques:{k}:{m}"),
            TopologySpec::FatTree(k) => write!(f, "fattree:{k}"),
            TopologySpec::Fig1 => write!(f, "fig1"),
        }
    }
}

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s}"))
}

impl TopologySpec {
    /// Parses a `kind[:args]` topology selector.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings, or — for a value
    /// [`TopologySpec::build`] cannot build — its generator's message.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let spec = match (kind, rest.as_slice()) {
            ("grid", [wh]) => {
                let (w, h) = wh
                    .split_once('x')
                    .ok_or_else(|| format!("grid wants WxH, got {wh}"))?;
                TopologySpec::Grid(parse_u32(w, "grid width")?, parse_u32(h, "grid height")?)
            }
            ("ring", [n]) => TopologySpec::Ring(parse_u32(n, "ring size")?),
            ("path", [n]) => TopologySpec::Path(parse_u32(n, "path size")?),
            ("er", [n, p]) => TopologySpec::ErdosRenyi(
                parse_u32(n, "node count")?,
                p.parse().map_err(|_| format!("invalid probability: {p}"))?,
            ),
            ("geo", [n, r]) => TopologySpec::Geometric(
                parse_u32(n, "node count")?,
                r.parse().map_err(|_| format!("invalid radius: {r}"))?,
            ),
            ("ba", [n, m]) => TopologySpec::PreferentialAttachment(
                parse_u32(n, "node count")?,
                parse_u32(m, "attachment degree")?,
            ),
            ("lollipop", [tail, ring]) => TopologySpec::Lollipop(
                parse_u32(tail, "tail length")?,
                parse_u32(ring, "loop length")?,
            ),
            ("waxman", [n, a, b]) => TopologySpec::Waxman(
                parse_u32(n, "node count")?,
                a.parse().map_err(|_| format!("invalid alpha: {a}"))?,
                b.parse().map_err(|_| format!("invalid beta: {b}"))?,
            ),
            ("cliques", [k, m]) => TopologySpec::RingOfCliques(
                parse_u32(k, "clique count")?,
                parse_u32(m, "clique size")?,
            ),
            ("fattree", [k]) => TopologySpec::FatTree(parse_u32(k, "fat-tree arity")?),
            ("fig1", []) => TopologySpec::Fig1,
            _ => {
                return Err(format!(
                    "unknown topology '{s}' (try grid:8x8, ring:32, path:16, er:40:0.1, \
                     geo:60:0.18, ba:50:2, lollipop:2:8, waxman:1000:0.05:0.7, \
                     cliques:8:6, fattree:8, fig1)"
                ))
            }
        };
        spec.check()
            .map_err(|why| format!("invalid topology '{s}': {why}"))?;
        Ok(spec)
    }

    /// The preconditions the generators assert, in the order they assert
    /// them and with their messages: a spec that passes builds without
    /// panicking.
    fn check(&self) -> Result<(), &'static str> {
        let require = |ok: bool, why: &'static str| if ok { Ok(()) } else { Err(why) };
        match *self {
            TopologySpec::Grid(w, h) => require(w > 0 && h > 0, "grid dimensions must be positive"),
            TopologySpec::Ring(n) => require(n >= 3, "ring needs at least three nodes"),
            TopologySpec::Path(n) => require(n > 0, "path needs at least one node"),
            TopologySpec::ErdosRenyi(n, p) => {
                require((0.0..=1.0).contains(&p), "probability must be in [0, 1]")?;
                require(n > 0, "tree needs at least one node")
            }
            TopologySpec::Geometric(n, r) => {
                require(n > 0, "geometric graph needs at least one node")?;
                require(r > 0.0, "radius must be positive")
            }
            TopologySpec::PreferentialAttachment(n, m) => {
                require(m >= 1, "each newcomer needs at least one edge")?;
                require(n > m, "need more nodes than attachment edges")
            }
            TopologySpec::Lollipop(_, ring) => {
                require(ring >= 3, "loop needs at least three nodes")
            }
            TopologySpec::Waxman(n, alpha, beta) => {
                require(n > 0, "waxman graph needs at least one node")?;
                require(alpha > 0.0, "alpha must be positive")?;
                require(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]")
            }
            TopologySpec::RingOfCliques(k, m) => {
                require(k >= 3, "ring of cliques needs at least three cliques")?;
                require(m >= 2, "cliques need at least two nodes")
            }
            TopologySpec::FatTree(k) => require(
                k >= 2 && k.is_multiple_of(2),
                "fat-tree arity must be even and >= 2",
            ),
            TopologySpec::Fig1 => Ok(()),
        }
    }

    /// How many nodes [`TopologySpec::build`] makes, without building.
    pub fn node_count(&self) -> u64 {
        let n = |x: u32| u64::from(x);
        match *self {
            TopologySpec::Grid(w, h) => n(w) * n(h),
            TopologySpec::Ring(k)
            | TopologySpec::Path(k)
            | TopologySpec::ErdosRenyi(k, _)
            | TopologySpec::Geometric(k, _)
            | TopologySpec::PreferentialAttachment(k, _)
            | TopologySpec::Waxman(k, _, _) => n(k),
            TopologySpec::Lollipop(tail, ring) => n(tail) + 1 + n(ring),
            TopologySpec::RingOfCliques(k, m) => n(k) * n(m),
            // Cores, pods, and `k/2` hosts under each of `k²/2` edge switches.
            TopologySpec::FatTree(k) => n(k) * n(k) / 4 + n(k) * n(k) + n(k).pow(3) / 4,
            TopologySpec::Fig1 => topologies::paper_fig1().node_count() as u64,
        }
    }

    /// Builds the topology and its natural destination.
    pub fn build(&self, seed: u64) -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            TopologySpec::Grid(w, h) => (generators::grid(w, h, 1), NodeId::new(0)),
            TopologySpec::Ring(n) => (generators::ring(n, 1), NodeId::new(0)),
            TopologySpec::Path(n) => (generators::path(n, 1), NodeId::new(0)),
            TopologySpec::ErdosRenyi(n, p) => (
                generators::connected_erdos_renyi(n, p, 4, &mut rng),
                NodeId::new(0),
            ),
            TopologySpec::Geometric(n, r) => {
                (generators::random_geometric(n, r, &mut rng), NodeId::new(0))
            }
            TopologySpec::PreferentialAttachment(n, m) => {
                (generators::barabasi_albert(n, m, &mut rng), NodeId::new(0))
            }
            TopologySpec::Lollipop(tail, ring) => {
                (generators::lollipop(tail, ring, 1), NodeId::new(0))
            }
            TopologySpec::Waxman(n, a, b) => {
                (generators::waxman(n, a, b, &mut rng), NodeId::new(0))
            }
            TopologySpec::RingOfCliques(k, m) => {
                (generators::ring_of_cliques(k, m, 1), NodeId::new(0))
            }
            TopologySpec::FatTree(k) => (generators::fat_tree(k), NodeId::new(0)),
            TopologySpec::Fig1 => (topologies::paper_fig1(), topologies::FIG1_DESTINATION),
        }
    }
}

/// How many routing destinations a multi-destination campaign maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestinationsSpec {
    /// `N` — the `N` lowest node ids.
    Count(u32),
    /// `all-pairs` — every node is a destination.
    AllPairs,
}

impl fmt::Display for DestinationsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DestinationsSpec::Count(n) => write!(f, "{n}"),
            DestinationsSpec::AllPairs => write!(f, "all-pairs"),
        }
    }
}

impl DestinationsSpec {
    /// Parses `N` or `all-pairs`.
    ///
    /// # Errors
    ///
    /// Rejects zero and non-numeric counts.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "all-pairs" || s == "all" {
            return Ok(DestinationsSpec::AllPairs);
        }
        let n: u32 = s
            .parse()
            .map_err(|_| format!("invalid destination count: {s} (want N or all-pairs)"))?;
        if n == 0 {
            return Err("destination count must be at least 1".to_string());
        }
        Ok(DestinationsSpec::Count(n))
    }

    /// How many destinations this resolves to over `nodes` nodes; a
    /// count above `nodes` is capped, as [`DestinationsSpec::resolve`]
    /// rejects it.
    pub fn count(&self, nodes: u64) -> u64 {
        match *self {
            DestinationsSpec::AllPairs => nodes,
            DestinationsSpec::Count(n) => u64::from(n).min(nodes),
        }
    }

    /// Resolves to concrete destination nodes over `graph`.
    ///
    /// # Errors
    ///
    /// Rejects a count exceeding the topology's node count.
    pub fn resolve(&self, graph: &Graph) -> Result<Vec<NodeId>, String> {
        match *self {
            DestinationsSpec::AllPairs => Ok(graph.nodes().collect()),
            DestinationsSpec::Count(n) => {
                if n as usize > graph.node_count() {
                    return Err(format!(
                        "destination count {n} exceeds the topology's {} nodes",
                        graph.node_count()
                    ));
                }
                Ok(graph.nodes().take(n as usize).collect())
            }
        }
    }
}

/// Parses a workload kind, with the same message as `--workload`.
///
/// # Errors
///
/// Names the accepted spellings.
pub fn parse_workload(s: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::parse(s)
        .ok_or_else(|| format!("unknown workload '{s}' (try poisson, all-pairs, hotspot)"))
}

/// Parses a queue discipline, with the same message as `--discipline`.
///
/// # Errors
///
/// Names the accepted spellings.
pub fn parse_discipline(s: &str) -> Result<DisciplineKind, String> {
    DisciplineKind::parse(s)
        .ok_or_else(|| format!("unknown discipline '{s}' (try drop-tail, ecn, pause)"))
}

/// Parses a congestion-control algorithm, with the same message as
/// `--cc`.
///
/// # Errors
///
/// Names the accepted spellings.
pub fn parse_cong_alg(s: &str) -> Result<CongAlgKind, String> {
    CongAlgKind::parse(s)
        .ok_or_else(|| format!("unknown congestion control '{s}' (try fixed, aimd)"))
}

/// Shared range checks. Each takes an already-typed value and returns
/// it unchanged or a message like "must be at least 1"; the caller adds
/// the flag or field name.
pub mod check {
    use lsrp_analysis::traffic::{TrafficMode, WorkloadKind};

    /// Run counts must be at least 1.
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn runs(n: u32) -> Result<u32, String> {
        if n == 0 {
            return Err("must be at least 1".to_string());
        }
        Ok(n)
    }

    /// Worker counts must be at least 1.
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn jobs(n: usize) -> Result<usize, String> {
        if n == 0 {
            return Err("must be at least 1".to_string());
        }
        Ok(n)
    }

    /// Region counts must be at least 1 (1 is the sequential engine).
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn regions(n: usize) -> Result<usize, String> {
        if n == 0 {
            return Err("must be at least 1".to_string());
        }
        Ok(n)
    }

    /// Flow counts must be at least 1.
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn flows(n: usize) -> Result<usize, String> {
        if n == 0 {
            return Err("must be at least 1".to_string());
        }
        Ok(n)
    }

    /// Horizons, durations, rates and windows must be positive and
    /// finite.
    ///
    /// # Errors
    ///
    /// Rejects zero, negatives, NaN and infinities.
    pub fn positive(x: f64) -> Result<f64, String> {
        if !(x > 0.0 && x.is_finite()) {
            return Err("must be positive and finite".to_string());
        }
        Ok(x)
    }

    /// The flows a workload of `kind` runs over `nodes` nodes toward
    /// `destinations` destinations: one per node and destination for
    /// all-pairs, its `flows` field otherwise.
    pub fn workload_flows(kind: WorkloadKind, flows: usize, nodes: u64, destinations: u64) -> f64 {
        match kind {
            WorkloadKind::AllPairs => nodes as f64 * destinations as f64,
            WorkloadKind::Poisson | WorkloadKind::Hotspot => flows as f64,
        }
    }

    /// A workload may represent at most 2^53 packets, so every weighted
    /// traffic counter stays exact and far from `u64` overflow. The
    /// weight is `flows x rate x duration` as the injection mode counts
    /// it, `flows` as [`workload_flows`] counts them: `ceil(rate x
    /// duration)` weight-1 packets per flow in exact mode, one probe of
    /// `round(rate x sample_every)` per sampling window otherwise (a
    /// Go-Back-N transport sends the same weight).
    ///
    /// # Errors
    ///
    /// Rejects a workload heavier than 2^53 packets.
    pub fn workload_weight(
        flows: f64,
        rate: f64,
        duration: f64,
        exact: bool,
    ) -> Result<(), String> {
        let per_flow = if exact {
            (rate * duration).ceil().max(1.0)
        } else {
            let TrafficMode::Aggregate { sample_every } = TrafficMode::default() else {
                unreachable!("the default mode aggregates")
            };
            (duration / sample_every).ceil().max(1.0) * (rate * sample_every).round().max(1.0)
        };
        let weight = flows * per_flow;
        if weight > 9_007_199_254_740_992.0 {
            return Err(format!(
                "makes the workload offer {weight:e} represented packets \
                 (flows x rate x duration), more than 2^53"
            ));
        }
        Ok(())
    }

    /// A Go-Back-N transport's segments must fit an empty queue: a
    /// heavier segment is dropped at its first port every time, and its
    /// flow retries forever. A segment weighs what one probe does (see
    /// [`TrafficMode::probe_weight`]) at the workload's `rate`.
    ///
    /// # Errors
    ///
    /// Rejects a `queue_cap` below the segment weight.
    pub fn segment_fits(rate: f64, exact: bool, queue_cap: Option<u64>) -> Result<(), String> {
        let mode = if exact {
            TrafficMode::Exact
        } else {
            TrafficMode::default()
        };
        let weight = mode.probe_weight(rate);
        match queue_cap {
            Some(cap) if cap < weight => Err(format!(
                "{cap} is below the weight of one transport segment ({weight} packets, \
                 rate x sampling window): no queue could admit it"
            )),
            _ => Ok(()),
        }
    }

    /// Queue capacities must be at least 1.
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn queue_cap(c: u64) -> Result<u64, String> {
        if c == 0 {
            return Err("must be at least 1".to_string());
        }
        Ok(c)
    }

    /// Loss rates are probabilities.
    ///
    /// # Errors
    ///
    /// Rejects values outside `[0, 1]`.
    pub fn loss(x: f64) -> Result<f64, String> {
        if !(0.0..=1.0).contains(&x) {
            return Err("must be a probability in [0, 1]".to_string());
        }
        Ok(x)
    }

    /// Queue knobs require a finite link rate.
    ///
    /// # Errors
    ///
    /// Rejects a queue capacity or non-default discipline while links
    /// are infinitely fast.
    pub fn congestion_shape(
        link_rate: Option<f64>,
        queue_cap: Option<u64>,
        discipline_set: bool,
    ) -> Result<(), String> {
        if (queue_cap.is_some() || discipline_set) && link_rate.is_none() {
            return Err(
                "queue capacity and discipline need a link rate (the congestion lane is off \
                 while links are infinitely fast)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_round_trip_through_display() {
        for s in [
            "grid:8x8",
            "ring:32",
            "path:16",
            "er:40:0.1",
            "geo:60:0.18",
            "ba:50:2",
            "lollipop:2:8",
            "waxman:1000:0.05:0.7",
            "cliques:8:6",
            "fattree:8",
            "fig1",
        ] {
            let spec = TopologySpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
        }
        assert!(TopologySpec::parse("mesh:3").is_err());
        assert!(TopologySpec::parse("grid:8").is_err());
    }

    #[test]
    fn parse_rejects_exactly_what_build_would_panic_on() {
        use TopologySpec::*;
        let nan = f64::NAN;
        for spec in [
            Grid(0, 0),
            Grid(3, 0),
            Ring(1),
            Ring(2),
            Path(0),
            FatTree(0),
            FatTree(3),
            Lollipop(0, 0),
            Lollipop(4, 2),
            ErdosRenyi(5, 2.0),
            ErdosRenyi(0, 0.5),
            ErdosRenyi(5, nan),
            Geometric(3, -1.0),
            Geometric(0, 0.5),
            PreferentialAttachment(3, 0),
            PreferentialAttachment(2, 2),
            Waxman(0, 0.5, 0.5),
            Waxman(5, 0.0, 0.5),
            Waxman(5, 0.5, 2.0),
            Waxman(5, 0.5, 0.0),
            RingOfCliques(1, 1),
            RingOfCliques(3, 1),
        ] {
            let s = spec.to_string();
            let panic = std::panic::catch_unwind(|| spec.build(1)).expect_err(&s);
            let why = panic
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap();
            let err = TopologySpec::parse(&s).expect_err(&s);
            assert_eq!(err, format!("invalid topology '{s}': {why}"));
        }
        for s in [
            "grid:1x1",
            "ring:3",
            "path:1",
            "fattree:2",
            "lollipop:0:3",
            "er:1:0",
            "er:3:1",
            "geo:1:0.1",
            "ba:2:1",
            "waxman:1:0.1:1",
            "cliques:3:2",
            "grid:3x4",
            "ring:7",
            "path:6",
            "fattree:4",
            "lollipop:2:5",
            "er:10:0.2",
            "geo:12:0.5",
            "ba:9:2",
            "waxman:15:0.4:0.6",
            "cliques:4:3",
            "fig1",
        ] {
            let spec = TopologySpec::parse(s).expect(s);
            assert_eq!(
                spec.node_count(),
                spec.build(1).0.node_count() as u64,
                "{s}"
            );
        }
    }

    #[test]
    fn destinations_parse_and_resolve() {
        assert_eq!(
            DestinationsSpec::parse("all-pairs").unwrap(),
            DestinationsSpec::AllPairs
        );
        assert_eq!(
            DestinationsSpec::parse("4").unwrap(),
            DestinationsSpec::Count(4)
        );
        assert!(DestinationsSpec::parse("0").is_err());
        assert!(DestinationsSpec::parse("x").is_err());
        let (g, _) = TopologySpec::Grid(3, 3).build(0);
        assert_eq!(DestinationsSpec::AllPairs.resolve(&g).unwrap().len(), 9);
        assert!(DestinationsSpec::Count(99).resolve(&g).is_err());
    }

    #[test]
    fn checks_reject_out_of_range_values() {
        assert!(check::runs(0).is_err());
        assert!(check::positive(-1.0).is_err());
        assert!(check::positive(f64::INFINITY).is_err());
        assert!(check::queue_cap(0).is_err());
        assert!(check::loss(1.5).is_err());
        assert!(check::congestion_shape(None, Some(10), false).is_err());
        assert!(check::congestion_shape(Some(10.0), Some(10), true).is_ok());
        assert!(check::workload_weight(64.0, 25.0, 600.0, false).is_ok());
        assert!(check::workload_weight(1.0, 1e17, 600.0, false).is_err());
        assert!(check::workload_weight(1.0, 1e14, 600.0, true).is_err());
        let all_pairs = check::workload_flows(WorkloadKind::AllPairs, 1, 3600, 1);
        assert_eq!(all_pairs, 3600.0);
        assert!(check::workload_weight(all_pairs, 1.2e13, 600.0, false).is_err());
    }
}
