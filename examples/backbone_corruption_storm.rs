//! An "Internet under stress" scenario (§I and §VI-B of the paper): edge
//! routers of a backbone keep getting misconfigured — state corruption
//! recurring for a period of time — and we compare how far the damage
//! spreads under LSRP versus plain distance-vector routing.
//!
//! Run with `cargo run --example backbone_corruption_storm`.

use std::collections::BTreeSet;

use lsrp::analysis::RoutingSimulation;
use lsrp::baselines::{BaselineSimulation, DbfConfig, DbfSimulation};
use lsrp::core::{LsrpSimulation, LsrpSimulationExt};
use lsrp::graph::{generators, Distance, NodeId};
use lsrp_sim::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drive one protocol through the storm; returns (contaminated node count,
/// contamination range, messages).
fn storm(sim: &mut dyn RoutingSimulation, victims: &[NodeId]) -> (usize, usize, u64) {
    sim.run_to_quiescence(100_000.0);
    sim.reset_trace();
    let sent0 = sim.stats().messages_sent;
    let t0 = sim.now();
    let perturbed: BTreeSet<NodeId> = victims.iter().copied().collect();
    // Five bursts of misconfiguration, 120 simulated seconds apart. Each
    // burst corrupts the victims' distances to 0 and lets their neighbors
    // learn the bogus advertisement (the paper's worst-case setup).
    for _burst in 0..5 {
        for &v in victims {
            sim.corrupt_distance(v, Distance::ZERO);
            let neighbors: Vec<NodeId> = sim.graph().neighbors(v).map(|(k, _)| k).collect();
            for k in neighbors {
                sim.poison_mirror(k, v, Distance::ZERO);
            }
        }
        let until = sim.now().seconds() + 120.0;
        sim.run_until(until);
    }
    let report = sim.run_to_quiescence(1_000_000.0);
    assert!(report.quiescent && sim.routes_correct(), "{}", sim.name());
    let acted = sim.trace().acted_nodes_since(t0);
    let contaminated = lsrp::graph::contamination::contaminated_nodes(&perturbed, &acted);
    let range =
        lsrp::graph::contamination::range_of_contamination(sim.graph(), &perturbed, &contaminated);
    (contaminated.len(), range, sim.stats().messages_sent - sent0)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // A 120-router backbone: random connected graph with weighted links.
    let graph = generators::connected_erdos_renyi(120, 0.03, 4, &mut rng);
    let dest = NodeId::new(0);
    println!(
        "backbone: {} routers, {} links, destination {dest}",
        graph.node_count(),
        graph.edge_count()
    );

    // Two "edge routers" far from the destination keep flapping.
    let far = graph
        .hop_distances(dest)
        .into_iter()
        .max_by_key(|&(_, d)| d)
        .expect("non-empty")
        .0;
    let victims: Vec<NodeId> = std::iter::once(far)
        .chain(graph.neighbors(far).map(|(k, _)| k).take(1))
        .collect();
    println!("misconfiguration storm at {victims:?} (5 bursts, 120s apart)\n");

    let mut lsrp = LsrpSimulation::builder(graph.clone(), dest).build();
    let (c, r, m) = storm(&mut lsrp, &victims);
    println!("LSRP: {c:>3} routers contaminated, range {r:>2} hops, {m:>6} messages");

    let mut dbf = DbfSimulation::new(
        graph,
        dest,
        None,
        DbfConfig::default(),
        EngineConfig::default(),
    );
    let (c, r, m) = storm(&mut dbf, &victims);
    println!("DBF : {c:>3} routers contaminated, range {r:>2} hops, {m:>6} messages");

    println!("\nThe storm stays a neighborhood problem under LSRP and becomes a");
    println!("backbone-wide event under plain distance-vector routing.");
}
