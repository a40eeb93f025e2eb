//! Declarative fault descriptions and their application to a running
//! simulation of any protocol.

use std::fmt;

use lsrp_core::LsrpSimulation;
use lsrp_graph::{GraphError, NodeId, Weight};
pub use lsrp_sim::CorruptionKind;
use lsrp_sim::{HarnessProtocol, SimHarness};

/// One fault from the paper's fault model.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// State corruption at a node.
    Corrupt {
        /// The corrupted node.
        node: NodeId,
        /// What is overwritten.
        kind: CorruptionKind,
    },
    /// A node fail-stops (with all its edges).
    FailNode(NodeId),
    /// A down node joins with the given edges.
    JoinNode {
        /// The joining node.
        node: NodeId,
        /// Its edges (neighbor, weight).
        edges: Vec<(NodeId, Weight)>,
    },
    /// An edge fail-stops.
    FailEdge(NodeId, NodeId),
    /// A down edge joins.
    JoinEdge(NodeId, NodeId, Weight),
    /// An edge weight changes (fail-stop of the old-weight edge plus join
    /// of the new-weight edge, per §III).
    SetWeight(NodeId, NodeId, Weight),
}

impl Fault {
    /// The node this fault *perturbs* by corrupting its own routing state
    /// (`d`, `p`, `ghost`), if any.
    ///
    /// Mirror and timestamp corruptions are excluded from perturbation-size
    /// accounting: they are equivalent to stale in-flight messages, and the
    /// paper's own Figure 5 example ("`d.v9` is corrupted ... and `v7`,
    /// `v8` have learned the corrupted value") counts a perturbation size
    /// of 1, not 3.
    pub fn corrupted_node(&self) -> Option<NodeId> {
        match self {
            Fault::Corrupt {
                node,
                kind:
                    CorruptionKind::Distance(_)
                    | CorruptionKind::Parent(_)
                    | CorruptionKind::Route { .. }
                    | CorruptionKind::Ghost(_),
            } => Some(*node),
            _ => None,
        }
    }

    /// Whether this fault changes the topology (as opposed to state).
    pub fn is_topological(&self) -> bool {
        !matches!(self, Fault::Corrupt { .. })
    }

    /// Applies the fault to a running simulation: a corruption through
    /// [`HarnessProtocol::corrupt`], a topology change through the
    /// engine.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from topology faults referencing unknown
    /// nodes or edges. Corruptions of unknown nodes are silently ignored
    /// (the node may have fail-stopped earlier in the plan).
    pub fn apply<P: HarnessProtocol>(&self, sim: &mut SimHarness<P>) -> Result<(), GraphError> {
        match self {
            Fault::Corrupt { node, kind } => {
                sim.corrupt(*node, kind);
                Ok(())
            }
            Fault::FailNode(v) => sim.fail_node(*v),
            Fault::JoinNode { node, edges } => sim.join_node(*node, edges),
            Fault::FailEdge(a, b) => sim.fail_edge(*a, *b),
            Fault::JoinEdge(a, b, w) => sim.join_edge(*a, *b, *w),
            Fault::SetWeight(a, b, w) => sim.set_weight(*a, *b, *w),
        }
    }

    /// [`Fault::apply`] on an LSRP simulation.
    ///
    /// # Errors
    ///
    /// As [`Fault::apply`].
    pub fn apply_lsrp(&self, sim: &mut LsrpSimulation) -> Result<(), GraphError> {
        self.apply(sim)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Corrupt { node, kind } => match kind {
                CorruptionKind::Distance(d) => write!(f, "corrupt d.{node} := {d}"),
                CorruptionKind::Parent(p) => write!(f, "corrupt p.{node} := {p}"),
                CorruptionKind::Route { d, p } => write!(f, "corrupt (d, p).{node} := ({d}, {p})"),
                CorruptionKind::Ghost(g) => write!(f, "corrupt ghost.{node} := {g}"),
                CorruptionKind::Timestamp(t) => write!(f, "corrupt t.{node} := {t}"),
                CorruptionKind::MirrorOf { about, .. } => {
                    write!(f, "corrupt {node}'s mirror of {about}")
                }
            },
            Fault::FailNode(v) => write!(f, "fail-stop {v}"),
            Fault::JoinNode { node, edges } => write!(f, "join {node} ({} edges)", edges.len()),
            Fault::FailEdge(a, b) => write!(f, "fail-stop edge ({a}, {b})"),
            Fault::JoinEdge(a, b, w) => write!(f, "join edge ({a}, {b}, w={w})"),
            Fault::SetWeight(a, b, w) => write!(f, "set weight ({a}, {b}) := {w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_core::LsrpSimulationExt;
    use lsrp_graph::{generators, Distance};

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn corruption_applies_in_place() {
        let mut sim = LsrpSimulation::builder(generators::path(3, 1), v(0)).build();
        Fault::Corrupt {
            node: v(2),
            kind: CorruptionKind::Distance(Distance::Finite(9)),
        }
        .apply_lsrp(&mut sim)
        .unwrap();
        assert_eq!(
            sim.engine().node(v(2)).unwrap().state().d,
            Distance::Finite(9)
        );
        Fault::Corrupt {
            node: v(2),
            kind: CorruptionKind::Ghost(true),
        }
        .apply_lsrp(&mut sim)
        .unwrap();
        assert!(sim.engine().node(v(2)).unwrap().state().ghost);
    }

    #[test]
    fn topology_faults_apply_and_report_errors() {
        let mut sim = LsrpSimulation::builder(generators::path(3, 1), v(0)).build();
        Fault::JoinEdge(v(0), v(2), 5).apply_lsrp(&mut sim).unwrap();
        assert!(sim.graph().has_edge(v(0), v(2)));
        Fault::FailEdge(v(0), v(2)).apply_lsrp(&mut sim).unwrap();
        assert!(!sim.graph().has_edge(v(0), v(2)));
        assert!(Fault::FailNode(v(9)).apply_lsrp(&mut sim).is_err());
        Fault::FailNode(v(2)).apply_lsrp(&mut sim).unwrap();
        assert!(!sim.graph().has_node(v(2)));
    }

    #[test]
    fn classification_helpers() {
        let c = Fault::Corrupt {
            node: v(1),
            kind: CorruptionKind::Ghost(true),
        };
        assert_eq!(c.corrupted_node(), Some(v(1)));
        assert!(!c.is_topological());
        assert!(Fault::FailNode(v(1)).is_topological());
        assert_eq!(Fault::FailNode(v(1)).corrupted_node(), None);
        assert_eq!(c.to_string(), "corrupt ghost.v1 := true");
        let route = Fault::Corrupt {
            node: v(1),
            kind: CorruptionKind::Route {
                d: Distance::ZERO,
                p: v(1),
            },
        };
        assert_eq!(route.corrupted_node(), Some(v(1)));
        assert_eq!(route.to_string(), "corrupt (d, p).v1 := (0, v1)");
    }
}
