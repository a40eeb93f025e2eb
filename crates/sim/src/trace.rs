//! Execution traces: what ran where and when.
//!
//! The analysis crate derives the paper's per-node metrics from the
//! trace: stabilization time (last protocol-variable change) and
//! contamination (the set of nodes that executed non-maintenance
//! actions). Control overhead (messages sent) is not traced: it is a
//! count, and counts live in [`crate::engine::EngineStats`].

use std::collections::{BTreeMap, BTreeSet};

use lsrp_graph::NodeId;

use crate::node::ActionId;
use crate::time::SimTime;

/// One executed action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionRecord {
    /// Execution time.
    pub time: SimTime,
    /// Executing node.
    pub node: NodeId,
    /// Which action.
    pub action: ActionId,
    /// Protocol-reported action name.
    pub name: &'static str,
    /// Whether this is a maintenance action (excluded from contamination).
    pub maintenance: bool,
    /// Whether the execution changed a protocol variable.
    pub var_changed: bool,
}

/// Cumulative execution record of one engine.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Executed actions in time order (only when trace recording is on).
    pub actions: Vec<ActionRecord>,
    /// Times at which some node's protocol variables changed (includes
    /// changes made inside receive handlers, e.g. a mirror-triggered
    /// distance update in protocols that update on receipt).
    pub var_changes: Vec<(SimTime, NodeId)>,
    /// Per-node count of non-maintenance action executions.
    pub action_counts: BTreeMap<NodeId, u64>,
    /// Per-node count of maintenance action executions.
    pub maintenance_counts: BTreeMap<NodeId, u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Clears everything (e.g. between the warm-up and measured phases of
    /// an experiment).
    pub fn reset(&mut self) {
        *self = Trace::default();
    }

    /// Nodes that executed at least one non-maintenance action at or after
    /// `since`.
    ///
    /// When `since` predates the whole (time-ordered) record — the common
    /// case, measurements reset the trace and then ask from their start
    /// time — the answer is served straight from the per-node counters
    /// instead of re-scanning the action vector.
    pub fn acted_nodes_since(&self, since: SimTime) -> BTreeSet<NodeId> {
        match self.actions.first() {
            Some(first) if first.time >= since => self.action_counts.keys().copied().collect(),
            _ => self
                .actions
                .iter()
                .filter(|r| !r.maintenance && r.time >= since)
                .map(|r| r.node)
                .collect(),
        }
    }

    /// The last time a protocol variable changed at or after `since`
    /// (`None` if none did).
    pub fn last_var_change_since(&self, since: SimTime) -> Option<SimTime> {
        self.var_changes
            .iter()
            .rev()
            .map(|&(t, _)| t)
            .find(|&t| t >= since)
            .or({
                // var_changes is time-ordered, so a reverse scan finding
                // nothing >= since means none exist.
                None
            })
    }

    /// Total non-maintenance actions executed.
    pub fn total_actions(&self) -> u64 {
        self.action_counts.values().sum()
    }

    /// Actions executed at `node` (non-maintenance).
    pub fn actions_at(&self, node: NodeId) -> u64 {
        self.action_counts.get(&node).copied().unwrap_or(0)
    }

    /// A compact per-node timeline of executed actions (name, time),
    /// non-maintenance only — used to render the paper's Figure 5/6
    /// space-time diagrams.
    pub fn timeline(&self) -> BTreeMap<NodeId, Vec<(&'static str, SimTime)>> {
        let mut out: BTreeMap<NodeId, Vec<(&'static str, SimTime)>> = BTreeMap::new();
        for r in &self.actions {
            if !r.maintenance {
                out.entry(r.node).or_default().push((r.name, r.time));
            }
        }
        out
    }

    pub(crate) fn record_action(&mut self, rec: ActionRecord) {
        let counts = if rec.maintenance {
            &mut self.maintenance_counts
        } else {
            &mut self.action_counts
        };
        *counts.entry(rec.node).or_insert(0) += 1;
        if rec.var_changed {
            self.var_changes.push((rec.time, rec.node));
        }
        self.actions.push(rec);
    }

    pub(crate) fn record_receive_change(&mut self, time: SimTime, node: NodeId) {
        self.var_changes.push((time, node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, node: u32, maintenance: bool, changed: bool) -> ActionRecord {
        ActionRecord {
            time: SimTime::new(t),
            node: NodeId::new(node),
            action: ActionId::plain(0),
            name: "A",
            maintenance,
            var_changed: changed,
        }
    }

    #[test]
    fn acted_nodes_excludes_maintenance() {
        let mut t = Trace::new();
        t.record_action(rec(1.0, 1, false, true));
        t.record_action(rec(2.0, 2, true, false));
        t.record_action(rec(3.0, 3, false, false));
        assert_eq!(
            t.acted_nodes_since(SimTime::ZERO),
            BTreeSet::from([NodeId::new(1), NodeId::new(3)])
        );
        assert_eq!(
            t.acted_nodes_since(SimTime::new(2.5)),
            BTreeSet::from([NodeId::new(3)])
        );
    }

    #[test]
    fn acted_nodes_fast_path_matches_the_scan() {
        let mut t = Trace::new();
        t.record_action(rec(1.0, 1, false, true));
        t.record_action(rec(2.0, 2, true, false));
        t.record_action(rec(3.0, 1, false, false));
        t.record_action(rec(4.0, 5, false, false));
        for since in [0.0, 1.0, 2.5, 9.0] {
            let since = SimTime::new(since);
            let scanned: BTreeSet<NodeId> = t
                .actions
                .iter()
                .filter(|r| !r.maintenance && r.time >= since)
                .map(|r| r.node)
                .collect();
            assert_eq!(t.acted_nodes_since(since), scanned, "since {since}");
        }
    }

    #[test]
    fn last_var_change_and_counts() {
        let mut t = Trace::new();
        t.record_action(rec(1.0, 1, false, true));
        t.record_action(rec(4.0, 2, false, true));
        assert_eq!(
            t.last_var_change_since(SimTime::ZERO),
            Some(SimTime::new(4.0))
        );
        assert_eq!(t.last_var_change_since(SimTime::new(5.0)), None);
        assert_eq!(t.total_actions(), 2);
        assert_eq!(t.actions_at(NodeId::new(1)), 1);
    }

    #[test]
    fn timeline_groups_by_node() {
        let mut t = Trace::new();
        t.record_action(rec(1.0, 7, false, true));
        t.record_action(rec(2.0, 7, false, true));
        let tl = t.timeline();
        assert_eq!(tl[&NodeId::new(7)].len(), 2);
    }

    #[test]
    fn reset_clears_records_and_counters() {
        let mut t = Trace::new();
        t.record_action(rec(1.0, 1, false, true));
        assert_eq!(t.actions.len(), 1);
        assert_eq!(t.total_actions(), 1);
        t.reset();
        assert!(t.actions.is_empty());
        assert_eq!(t.total_actions(), 0);
    }
}
