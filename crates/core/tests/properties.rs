//! Property-based tests of LSRP's theorems.
//!
//! * Theorem 1 (self-stabilization): from fully arbitrary states —
//!   including corrupted mirrors and timestamps — every computation
//!   reaches a legitimate state (requires the periodic `SYN` refresh).
//! * Theorem 3 (loop freedom): starting from loop-free states whose
//!   mirrors are consistent, no routing loop appears at *any* state along
//!   the computation (checked after every single event).
//! * Theorem 4 (1-round loop breakage): starting with a corrupted-in loop,
//!   the loop disappears within `O(hd_S + d)` time regardless of length.

use proptest::prelude::*;

use lsrp_core::{InitialState, LsrpSimulation, LsrpSimulationExt, TimingConfig};
use lsrp_graph::{generators, Distance, NodeId};
use lsrp_sim::CorruptionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A random connected test graph: tree plus extra edge probability.
fn test_graph(n: u32, extra: f64, seed: u64) -> lsrp_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_erdos_renyi(n, extra, 3, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: LSRP self-stabilizes from arbitrary states.
    #[test]
    fn lsrp_self_stabilizes_from_arbitrary_state(
        n in 4u32..20,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..1_000,
        state_seed in 0u64..1_000,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(graph_seed as u32 % n);
        let timing = TimingConfig::paper_example(1.0).with_syn_period(5.0);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .timing(timing)
            .initial_state(InitialState::Arbitrary { seed: state_seed })
            .seed(state_seed ^ 0xABCD)
            .build();
        let report = sim.run_to_quiescence(1_000_000.0);
        prop_assert!(report.quiescent, "did not settle: {report:?}");
        prop_assert!(sim.routes_correct(), "wrong routes: {:?}", sim.route_table());
        prop_assert!(sim.is_legitimate());
    }

    /// Theorem 3 on the paper's worked fault class: a *single node's
    /// distance* corrupted to an arbitrary value on a legitimate state,
    /// with the neighborhood having learned it (exactly the Figure 2/5/6
    /// setup), optionally preceded by a topology fault. No routing loop
    /// appears at any intermediate state — verified after every single
    /// event.
    ///
    /// Why single-node (DESIGN.md §5): with several corrupted values
    /// arranged along one subtree chain, `C2`'s parent substitute can be
    /// a deep descendant whose minimality is manufactured by the *other*
    /// corrupted values — locally indistinguishable from a valid
    /// substitute, so no local rule can exclude it. Single-node
    /// corruption provably cannot do this (a descendant's offer always
    /// exceeds the still-legitimate parent's). Multi-node corruption gets
    /// the transient guarantee below.
    #[test]
    fn lsrp_never_forms_loops(
        n in 4u32..16,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..500,
        state_seed in 0u64..500,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(0);
        // Strict loop freedom needs the anti-race C2 hold (see
        // TimingConfig::hd_c2 and DESIGN.md §5). The SYN refresh is on:
        // pre-fault broadcasts still in flight can overwrite the poisoned
        // mirrors with stale values, and only the periodic refresh repairs
        // that (the paper's model includes SYN for exactly this reason).
        let timing = TimingConfig::paper_example(1.0)
            .with_strict_loop_freedom(1.0, 1.0)
            .with_syn_period(5.0);
        let mut sim = LsrpSimulation::builder(graph.clone(), dest)
            .timing(timing)
            .seed(state_seed)
            .build();
        let mut rng = StdRng::seed_from_u64(state_seed);
        use rand::Rng;
        // Optional topology fault first (loop freedom must also hold
        // through churn).
        match rng.gen_range(0..3) {
            0 => {
                let nodes: Vec<NodeId> = graph.nodes().filter(|&x| x != dest).collect();
                let dead = nodes[rng.gen_range(0..nodes.len())];
                let mut after = graph;
                after.remove_node(dead).unwrap();
                if after.is_connected() {
                    sim.fail_node(dead).unwrap();
                }
            }
            1 => {
                let edges: Vec<_> = graph.edges().collect();
                let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                sim.set_weight(a, b, rng.gen_range(1..5)).unwrap();
            }
            _ => {}
        }
        // One corrupted distance, learned by the whole neighborhood.
        let nodes: Vec<NodeId> = sim.graph().nodes().filter(|&x| x != dest).collect();
        let victim = nodes[rng.gen_range(0..nodes.len())];
        let d = if rng.gen_bool(0.1) {
            Distance::Infinite
        } else {
            Distance::Finite(rng.gen_range(0..2 * u64::from(n)))
        };
        // The protocol's d = ∞ ⟹ p = self invariant.
        let p = if d.is_infinite() { victim } else { sim.advert(victim).p };
        sim.corrupt(victim, &CorruptionKind::Route { d, p });
        let m = {
            let s = sim.engine().node(victim).unwrap().state();
            lsrp_core::Mirror { d: s.d, p: s.p, ghost: s.ghost }
        };
        let neighbors: Vec<NodeId> = sim.graph().neighbors(victim).map(|(k, _)| k).collect();
        for k in neighbors {
            sim.corrupt(k, &CorruptionKind::MirrorOf { about: victim, mirror: m });
        }
        prop_assert!(!sim.route_table().has_routing_loop(dest));

        // Step with per-event loop checks until the protocol variables
        // have been quiet for a long window (the SYN refresh keeps the
        // event queue non-empty forever).
        let mut steps = 0u64;
        let mut last_change = 0.0f64;
        while let Some(t) = sim.engine_mut().step() {
            let loops = sim.route_table().find_routing_loops(dest);
            prop_assert!(
                loops.is_empty(),
                "loop {loops:?} formed at {t} (step {steps})"
            );
            if let Some(c) = sim
                .engine()
                .trace()
                .last_var_change_since(lsrp_sim::SimTime::ZERO)
            {
                last_change = c.seconds();
            }
            if t.seconds() > last_change + 500.0 {
                break;
            }
            steps += 1;
            prop_assert!(steps < 5_000_000, "runaway computation");
        }
        prop_assert!(sim.routes_correct());
    }

    /// Beyond Theorem 3's literal claim: under *adversarial* corruption of
    /// parent pointers and containment flags across many nodes (states the
    /// protocol itself can never produce), transient loops can appear —
    /// but every loop episode dies within the Theorem-4 bound
    /// `O(hd_S + d)` and the system still converges to correct routes.
    /// See DESIGN.md §5 for why the literal every-instant claim is not
    /// locally enforceable on this class.
    #[test]
    fn adversarial_loops_are_transient(
        n in 4u32..16,
        extra in 0.0f64..0.3,
        graph_seed in 0u64..500,
        state_seed in 0u64..500,
    ) {
        let graph = test_graph(n, extra, graph_seed);
        let dest = v(0);
        let mut table = lsrp_graph::RouteTable::legitimate(&graph, dest);
        let mut rng = StdRng::seed_from_u64(state_seed);
        use rand::Rng;
        let mut ghosted: Vec<NodeId> = Vec::new();
        for node in graph.nodes() {
            if rng.gen_bool(0.5) {
                let neighbors: Vec<NodeId> = graph.neighbors(node).map(|(k, _)| k).collect();
                let p = neighbors[rng.gen_range(0..neighbors.len())];
                let d = if rng.gen_bool(0.1) {
                    Distance::Infinite
                } else {
                    Distance::Finite(rng.gen_range(0..2 * u64::from(n)))
                };
                table.insert(node, lsrp_graph::RouteEntry::new(d, p));
            }
            if node != dest && rng.gen_bool(0.2) {
                ghosted.push(node);
            }
        }
        let timing = TimingConfig::paper_example(1.0).with_strict_loop_freedom(1.0, 1.0);
        // O(hd_S + d): what matters is that the bound is a *constant* —
        // independent of network size and loop length — not its exact
        // value. Empirically episodes reach hd_S + hd_C + hd_c2 + 2d
        // (a ghost-corrupted C2 chain followed by one stabilization hold);
        // double that for margin.
        let loop_bound = 2.0 * (timing.hd_s + timing.hd_c);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .initial_state(InitialState::Table(table))
            .timing(timing)
            .seed(state_seed)
            .build();
        for node in ghosted {
            sim.corrupt(node, &CorruptionKind::Ghost(true));
        }

        let mut loop_since: Option<f64> = None;
        let mut steps = 0u64;
        while let Some(t) = sim.engine_mut().step() {
            let looped = sim.route_table().has_routing_loop(dest);
            match (looped, loop_since) {
                (true, None) => loop_since = Some(t.seconds()),
                (true, Some(since)) => {
                    prop_assert!(
                        t.seconds() - since <= loop_bound,
                        "loop persisted {}s (> {loop_bound}) from {since}",
                        t.seconds() - since
                    );
                }
                (false, _) => loop_since = None,
            }
            steps += 1;
            prop_assert!(steps < 2_000_000, "runaway computation");
        }
        prop_assert!(!sim.route_table().has_routing_loop(dest));
        prop_assert!(sim.routes_correct());
    }

    /// Theorem 4 + Corollary 3: a corrupted-in loop is broken within
    /// `O(hd_S + d)` time — independent of loop length.
    #[test]
    fn corrupted_loops_break_in_constant_time(
        tail in 1u32..4,
        loop_len in 3u32..24,
        seed in 0u64..500,
    ) {
        let graph = generators::lollipop(tail, loop_len, 1);
        let ring = generators::lollipop_ring(tail, loop_len);
        let dest = v(0);
        let mut sim = LsrpSimulation::builder(graph, dest)
            .seed(seed)
            .build();
        // Corrupt the ring into a consistent directed cycle: each ring
        // node parents its successor with distances increasing by 1.
        for (i, &node) in ring.iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            let d = Distance::Finite(100 + i as u64);
            sim.corrupt(node, &CorruptionKind::Route { d, p: next });
        }
        // Let the ring nodes' neighbors see the corrupted values
        // (consistent mirrors), matching Theorem 4's "arbitrary state".
        let snapshot: Vec<(NodeId, Distance, NodeId)> = ring
            .iter()
            .map(|&r| {
                let s = sim.engine().node(r).unwrap().state();
                (r, s.d, s.p)
            })
            .collect();
        for &(r, d, p) in &snapshot {
            let neighbors: Vec<NodeId> =
                sim.graph().neighbors(r).map(|(k, _)| k).collect();
            for k in neighbors {
                sim.corrupt(k, &CorruptionKind::MirrorOf { about: r, mirror: lsrp_core::Mirror { d, p, ghost: false } });
            }
        }
        prop_assert!(sim.route_table().has_routing_loop(dest));

        let timing = *sim.timing();
        let breakage_bound = timing.hd_s + 1.0 /* d_max */ + 0.001;
        let start = sim.now().seconds();
        let mut broken_at = None;
        while let Some(t) = sim.engine_mut().step() {
            if !sim.route_table().has_routing_loop(dest) {
                broken_at = Some(t.seconds() - start);
                break;
            }
            prop_assert!(
                t.seconds() - start <= breakage_bound,
                "loop survived past hd_S + d at t={t}"
            );
        }
        prop_assert!(broken_at.is_some(), "loop never broke");
        // And the system still converges to correct routes afterwards.
        let report = sim.run_to_quiescence(1_000_000.0);
        prop_assert!(report.quiescent);
        prop_assert!(sim.routes_correct());
    }
}
