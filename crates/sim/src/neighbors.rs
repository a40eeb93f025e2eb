//! A node's neighbor table: `N.v`, the weights `w.v.k`, and what was last
//! heard from each neighbor (LSRP's mirrors; a baseline's advertised
//! distance or route). Rows stay sorted by id, and a heard value exists
//! only about a current neighbor (the paper has no `d.k.v` for `k ∉ N.v`),
//! so a neighbor that leaves and comes back starts unheard.

use lsrp_graph::{NodeId, Weight};

/// One row of a neighbor table: a neighbor `k ∈ N.v`, the edge weight
/// `w.v.k`, and the latest value heard from `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor<M> {
    /// The neighbor's id `k`.
    pub id: NodeId,
    /// Edge weight `w.v.k`.
    pub weight: Weight,
    /// `k`'s latest value, `None` until one arrives.
    pub heard: Option<M>,
}

/// What a [`NeighborTable::reconcile`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reconciled {
    /// A neighbor appeared that was not in the table.
    pub joined: bool,
    /// A surviving neighbor's weight changed.
    pub reweighted: bool,
}

/// A node's neighbor table (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborTable<M> {
    rows: Vec<Neighbor<M>>,
}

impl<M> NeighborTable<M> {
    /// A table with nothing heard; `neighbors` lists each one once.
    pub fn new(neighbors: impl IntoIterator<Item = (NodeId, Weight)>) -> Self {
        let mut rows: Vec<Neighbor<M>> = neighbors
            .into_iter()
            .map(|(id, weight)| Neighbor {
                id,
                weight,
                heard: None,
            })
            .collect();
        rows.sort_unstable_by_key(|n| n.id);
        NeighborTable { rows }
    }

    /// The rows, in id order.
    pub fn rows(&self) -> &[Neighbor<M>] {
        &self.rows
    }

    /// The row of `k`, if `k` is a neighbor.
    pub fn get(&self, k: NodeId) -> Option<&Neighbor<M>> {
        let i = self.rows.binary_search_by_key(&k, |n| n.id).ok()?;
        Some(&self.rows[i])
    }

    /// Sets every neighbor `k`'s heard value to `of(k)`, in id order.
    pub fn fill(&mut self, mut of: impl FnMut(NodeId) -> M) {
        for n in &mut self.rows {
            n.heard = Some(of(n.id));
        }
    }

    /// Installs the id-sorted neighbor set after a topology change,
    /// keeping the heard value of every surviving neighbor only.
    pub fn reconcile(&mut self, neighbors: &[(NodeId, Weight)]) -> Reconciled {
        debug_assert!(neighbors.windows(2).all(|w| w[0].0 < w[1].0));
        let mut old = std::mem::take(&mut self.rows);
        let mut changed = Reconciled::default();
        self.rows = neighbors
            .iter()
            .map(|&(id, weight)| {
                let heard = match old.binary_search_by_key(&id, |n| n.id) {
                    Ok(i) => {
                        changed.reweighted |= old[i].weight != weight;
                        old[i].heard.take()
                    }
                    Err(_) => {
                        changed.joined = true;
                        None
                    }
                };
                Neighbor { id, weight, heard }
            })
            .collect();
        changed
    }
}

impl<M: Clone + PartialEq> NeighborTable<M> {
    /// Records `m` as the latest value heard from `k`; returns whether
    /// what was stored changed, which the first value heard always does.
    /// A write about a non-neighbor is a no-op that returns `false`.
    pub fn record(&mut self, k: NodeId, m: &M) -> bool {
        let Ok(i) = self.rows.binary_search_by_key(&k, |n| n.id) else {
            return false;
        };
        let heard = &mut self.rows[i].heard;
        if heard.as_ref() == Some(m) {
            return false;
        }
        *heard = Some(m.clone());
        true
    }
}

#[cfg(test)]
mod tests {
    use lsrp_graph::Distance;

    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn table() -> NeighborTable<Distance> {
        NeighborTable::new([(v(2), 1), (v(1), 2)])
    }

    #[test]
    fn reconcile_flags_joins_and_reweights_separately() {
        let mut t = table();
        assert_eq!(t.reconcile(&[(v(1), 2), (v(2), 1)]), Reconciled::default());
        let shrunk = t.reconcile(&[(v(2), 1)]);
        assert_eq!(shrunk, Reconciled::default(), "a loss alone flags nothing");
        let reweighted = t.reconcile(&[(v(2), 4)]);
        assert_eq!(
            reweighted,
            Reconciled {
                joined: false,
                reweighted: true
            }
        );
        let joined = t.reconcile(&[(v(2), 4), (v(3), 1)]);
        assert_eq!(
            joined,
            Reconciled {
                joined: true,
                reweighted: false
            }
        );
        let both = t.reconcile(&[(v(0), 1), (v(2), 5), (v(3), 1)]);
        assert_eq!(
            both,
            Reconciled {
                joined: true,
                reweighted: true
            }
        );
        let ids: Vec<NodeId> = t.rows().iter().map(|n| n.id).collect();
        assert_eq!(ids, [v(0), v(2), v(3)]);
    }

    #[test]
    fn record_about_a_non_neighbor_is_a_no_op() {
        let mut t = table();
        let before = t.clone();
        assert!(!t.record(v(7), &Distance::ZERO), "v7 is not a neighbor");
        assert_eq!(t, before);
        // v7 joining later starts unheard: nothing forged is promoted.
        t.reconcile(&[(v(1), 2), (v(2), 1), (v(7), 1)]);
        assert_eq!(t.get(v(7)).unwrap().heard, None);
    }
}
