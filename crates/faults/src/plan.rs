//! Fault plans: batches of faults plus their §III perturbation accounting.

use std::collections::BTreeSet;

use lsrp_graph::concepts::{Perturbation, TopologyChange};
use lsrp_graph::{Graph, GraphError, NodeId, RouteTable};
use lsrp_sim::{HarnessProtocol, Mirror, SimHarness};

use crate::fault::{CorruptionKind, Fault};

/// A batch of faults hitting the system at one instant, with the machinery
/// to compute the resulting perturbation size per Definition 1.
///
/// ```
/// use lsrp_faults::{Fault, FaultPlan};
/// use lsrp_graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
///
/// # fn main() -> Result<(), lsrp_graph::GraphError> {
/// let plan = FaultPlan::new().with(Fault::FailNode(v(9)));
/// let p = plan.perturbation(&paper_fig1(), FIG1_DESTINATION, &fig1_route_table())?;
/// assert_eq!(p.size(), 3); // the paper's {v7, v8, v10}
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Corrupts each listed node as its kind says, then has the
    /// neighbourhood learn the result: one [`CorruptionKind::MirrorOf`]
    /// per live neighbour of each node, in list order, carrying the
    /// node's advert (`advert(node)`, read before the plan) as its
    /// corruption leaves it — "the neighbors have already learned the
    /// corrupted value", the worst case for containment. A node whose
    /// corruption should land before its neighbours hear of the next
    /// node's takes a plan of its own.
    pub fn forged_routes(
        graph: &Graph,
        corruptions: impl IntoIterator<Item = (NodeId, CorruptionKind)>,
        advert: impl Fn(NodeId) -> Mirror,
    ) -> FaultPlan {
        let corruptions: Vec<_> = corruptions.into_iter().collect();
        let mut plan: FaultPlan = (corruptions.iter())
            .map(|&(node, kind)| Fault::Corrupt { node, kind })
            .collect();
        for (about, kind) in corruptions {
            let mirror = kind.advertised(advert(about));
            plan.faults
                .extend(graph.neighbors(about).map(|(node, _)| Fault::Corrupt {
                    node,
                    kind: CorruptionKind::MirrorOf { about, mirror },
                }));
        }
        plan
    }

    /// Applies every fault to the simulation, in order.
    ///
    /// # Errors
    ///
    /// Stops at and propagates the first topology error.
    pub fn apply<P: HarnessProtocol>(&self, sim: &mut SimHarness<P>) -> Result<(), GraphError> {
        self.faults.iter().try_for_each(|f| f.apply(sim))
    }

    /// The topology after applying this plan's topological faults to
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid topology mutation.
    pub fn topology_after(&self, graph: &Graph) -> Result<Graph, GraphError> {
        let mut after = graph.clone();
        for f in &self.faults {
            match f {
                Fault::FailNode(v) => after.remove_node(*v)?,
                Fault::JoinNode { node, edges } => {
                    after.add_node(*node);
                    for &(n, w) in edges {
                        after.add_edge(*node, n, w)?;
                    }
                }
                Fault::FailEdge(a, b) => after.remove_edge(*a, *b)?,
                Fault::JoinEdge(a, b, w) => after.add_edge(*a, *b, *w)?,
                Fault::SetWeight(a, b, w) => after.set_weight(*a, *b, *w)?,
                Fault::Corrupt { .. } => {}
            }
        }
        Ok(after)
    }

    /// The perturbation this plan causes when applied at a legitimate
    /// state `table` of `graph` (Definition 1's construction): corrupted
    /// nodes plus the dependent set of the topology change.
    ///
    /// # Errors
    ///
    /// Propagates invalid topology mutations.
    pub fn perturbation(
        &self,
        graph: &Graph,
        destination: NodeId,
        table: &RouteTable,
    ) -> Result<Perturbation, GraphError> {
        let corrupted: BTreeSet<NodeId> = self
            .faults
            .iter()
            .filter_map(Fault::corrupted_node)
            .collect();
        let after = self.topology_after(graph)?;
        let mut p = Perturbation::topology(
            &TopologyChange::new(graph.clone(), after),
            destination,
            table,
        );
        p.corrupted = corrupted;
        Ok(p)
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CorruptionKind;
    use lsrp_graph::topologies::{fig1_route_table, paper_fig1, v, FIG1_DESTINATION};
    use lsrp_graph::Distance;

    #[test]
    fn perturbation_of_fig1_fail_stop() {
        let plan = FaultPlan::new().with(Fault::FailNode(v(9)));
        let p = plan
            .perturbation(&paper_fig1(), FIG1_DESTINATION, &fig1_route_table())
            .unwrap();
        assert_eq!(p.size(), 3);
        assert_eq!(p.perturbed_nodes(), BTreeSet::from([v(7), v(8), v(10)]));
    }

    #[test]
    fn corruption_plus_topology_combine() {
        let plan = FaultPlan::new()
            .with(Fault::Corrupt {
                node: v(13),
                kind: CorruptionKind::Distance(Distance::Finite(7)),
            })
            .with(Fault::FailNode(v(9)));
        let p = plan
            .perturbation(&paper_fig1(), FIG1_DESTINATION, &fig1_route_table())
            .unwrap();
        assert_eq!(
            p.perturbed_nodes(),
            BTreeSet::from([v(7), v(8), v(10), v(13)])
        );
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn topology_after_applies_in_order() {
        let plan = FaultPlan::new()
            .with(Fault::JoinEdge(v(2), v(9), 1))
            .with(Fault::FailEdge(v(2), v(9)));
        let after = plan.topology_after(&paper_fig1()).unwrap();
        assert!(!after.has_edge(v(2), v(9)));
        assert_eq!(after.edge_count(), paper_fig1().edge_count());
    }

    #[test]
    fn invalid_plan_reports_error() {
        let plan = FaultPlan::new().with(Fault::FailEdge(v(1), v(2)));
        assert!(plan.topology_after(&paper_fig1()).is_err());
    }

    #[test]
    fn collects_from_iterator() {
        let plan: FaultPlan = [Fault::FailNode(v(9)), Fault::FailNode(v(10))]
            .into_iter()
            .collect();
        assert_eq!(plan.faults.len(), 2);
    }
}
