//! The incremental observation plane: a dense, versioned route view.
//!
//! Every consumer of routing state used to call [`Engine::route_table`]
//! and diff the result — O(n) per observation, which turns an O(changes)
//! recovery into an O(events × n) measurement. The engine instead
//! maintains a [`RouteView`]: a dense per-slot copy of each node's
//! observable routing state (`(d, p)` plus the containment flag),
//! refreshed at the single point effects are applied, so it is *always*
//! current at O(1) cost per state change.
//!
//! Consumers that need change feeds (flap counters, loop monitors,
//! legitimacy trackers) obtain a [`RouteCursor`] and read
//! [`RouteDelta`]s instead of rebuilding tables:
//!
//! * [`RouteView::cursor`] marks a position in the change log;
//! * [`RouteView::deltas_since`] returns every change after a cursor, in
//!   the exact order the engine applied them;
//! * [`RouteView::trim`] discards log entries every live cursor has
//!   passed.
//!
//! Delta logging is **off** until the first cursor is taken (via
//! [`Engine::route_cursor`]): bare engine runs pay only the dense-entry
//! refresh, never log growth. The change-cursor contract: a cursor is
//! valid from the moment it is taken until someone trims past it;
//! reading with a trimmed or never-issued cursor panics rather than
//! silently skipping changes.
//!
//! [`Engine::route_table`]: crate::engine::Engine::route_table
//! [`Engine::route_cursor`]: crate::engine::Engine::route_cursor

use lsrp_graph::{NodeId, RouteEntry, RouteTable};

use crate::slots::NodeSlots;

/// One node's observable routing state, as the view tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The problem-specific variables `(d.v, p.v)`.
    pub route: RouteEntry,
    /// Whether the node is in a containment wave (`ghost.v` for LSRP).
    pub containment: bool,
}

/// One observed change: a node's entry went from `old` to `new`.
///
/// `old = None` means the node joined; `new = None` means it fail-stopped.
/// The two are never both `None`, and `old != new` always holds — the view
/// logs only *actual* changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDelta {
    /// The node whose entry changed.
    pub node: NodeId,
    /// The entry before the change (`None` = node was absent).
    pub old: Option<ViewEntry>,
    /// The entry after the change (`None` = node removed).
    pub new: Option<ViewEntry>,
}

/// An opaque position in a [`RouteView`]'s change log.
///
/// Obtained from [`RouteView::cursor`] (or
/// [`Engine::route_cursor`](crate::engine::Engine::route_cursor), which
/// also turns logging on). Advance it with [`RouteCursor::advanced`] after
/// consuming a slice returned by [`RouteView::deltas_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteCursor(u64);

impl RouteCursor {
    /// The cursor `n` deltas past `self` — call with the length of the
    /// slice just consumed from [`RouteView::deltas_since`].
    #[must_use]
    pub fn advanced(self, n: usize) -> RouteCursor {
        RouteCursor(self.0 + n as u64)
    }
}

/// The dense, versioned route view the engine maintains (see the module
/// docs for the contract).
#[derive(Debug, Clone, Default)]
pub struct RouteView {
    entries: NodeSlots<ViewEntry>,
    log: Vec<RouteDelta>,
    /// Cursor position of `log[0]` (deltas before it were trimmed).
    base: u64,
    logging: bool,
}

impl RouteView {
    /// The tracked entry of `v`, if the node is up.
    pub fn entry(&self, v: NodeId) -> Option<ViewEntry> {
        self.entries.get(v).copied()
    }

    /// Iterates `(node, entry)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ViewEntry)> + '_ {
        self.entries.iter().map(|(v, e)| (v, *e))
    }

    /// Number of tracked (up) nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Materializes the `(d, p)` projection as a [`RouteTable`] —
    /// identical, entry for entry, to rebuilding from the protocol nodes.
    pub fn to_table(&self) -> RouteTable {
        self.iter().map(|(v, e)| (v, e.route)).collect()
    }

    /// The current end-of-log position.
    pub fn cursor(&self) -> RouteCursor {
        RouteCursor(self.base + self.log.len() as u64)
    }

    /// Whether change logging is on (it turns on with the first cursor
    /// taken through the engine and stays on).
    pub fn is_logging(&self) -> bool {
        self.logging
    }

    /// Every delta recorded after `cursor`, oldest first. Consume the
    /// slice, then continue from `cursor.advanced(slice.len())`.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` was trimmed past ([`RouteView::trim`]) or lies
    /// beyond the log end (a cursor from a different view).
    pub fn deltas_since(&self, cursor: RouteCursor) -> &[RouteDelta] {
        assert!(
            cursor.0 >= self.base,
            "route cursor {} was trimmed past (log starts at {})",
            cursor.0,
            self.base
        );
        let start = (cursor.0 - self.base) as usize;
        assert!(
            start <= self.log.len(),
            "route cursor {} is beyond the log end {}",
            cursor.0,
            self.base + self.log.len() as u64
        );
        &self.log[start..]
    }

    /// Discards log entries before `cursor` (no-op for already-trimmed
    /// positions). Call once every consumer has advanced past them;
    /// cursors left behind become invalid.
    pub fn trim(&mut self, cursor: RouteCursor) {
        if cursor.0 <= self.base {
            return;
        }
        let upto = ((cursor.0 - self.base) as usize).min(self.log.len());
        self.log.drain(..upto);
        self.base += upto as u64;
    }

    /// Turns delta logging on, from this point forward.
    pub(crate) fn enable_logging(&mut self) {
        self.logging = true;
    }

    /// Records `v`'s current entry (`None` = node down), updating the
    /// dense view and, when logging, the change log, and returns whether
    /// the entry changed. No-change refreshes are free and log nothing.
    pub(crate) fn record(&mut self, v: NodeId, new: Option<ViewEntry>) -> bool {
        let old = self.entries.get(v).copied();
        if old == new {
            return false;
        }
        match new {
            Some(e) => {
                self.entries.insert(v, e);
            }
            None => {
                self.entries.remove(v);
            }
        }
        if self.logging {
            self.log.push(RouteDelta { node: v, old, new });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_graph::Distance;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn entry(d: u64, p: u32) -> ViewEntry {
        ViewEntry {
            route: RouteEntry::new(Distance::Finite(d), v(p)),
            containment: false,
        }
    }

    #[test]
    fn record_updates_dense_entries_and_table() {
        let mut view = RouteView::default();
        view.record(v(0), Some(entry(0, 0)));
        view.record(v(1), Some(entry(1, 0)));
        assert_eq!(view.len(), 2);
        assert_eq!(view.entry(v(1)), Some(entry(1, 0)));
        let table = view.to_table();
        assert_eq!(table.entry(v(1)).unwrap().parent, v(0));
        view.record(v(1), None);
        assert_eq!(view.len(), 1);
        assert_eq!(view.entry(v(1)), None);
    }

    #[test]
    fn logging_is_off_until_enabled_and_skips_no_changes() {
        let mut view = RouteView::default();
        view.record(v(0), Some(entry(0, 0)));
        assert_eq!(view.cursor(), RouteCursor(0), "no log before enabling");
        view.enable_logging();
        let c = view.cursor();
        assert!(
            !view.record(v(0), Some(entry(0, 0))),
            "no change: nothing logged"
        );
        assert!(view.record(v(0), Some(entry(2, 1))));
        let deltas = view.deltas_since(c);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].node, v(0));
        assert_eq!(deltas[0].old, Some(entry(0, 0)));
        assert_eq!(deltas[0].new, Some(entry(2, 1)));
    }

    #[test]
    fn cursors_advance_and_trim_invalidates() {
        let mut view = RouteView::default();
        view.enable_logging();
        let c0 = view.cursor();
        view.record(v(1), Some(entry(1, 0)));
        view.record(v(2), Some(entry(2, 1)));
        let read = view.deltas_since(c0);
        assert_eq!(read.len(), 2);
        let c1 = c0.advanced(read.len());
        assert_eq!(c1, view.cursor());
        assert!(view.deltas_since(c1).is_empty());
        view.trim(c1);
        assert!(view.deltas_since(c1).is_empty(), "cursor at trim point ok");
        view.record(v(1), None);
        assert_eq!(view.deltas_since(c1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "trimmed past")]
    fn reading_a_trimmed_cursor_panics() {
        let mut view = RouteView::default();
        view.enable_logging();
        let stale = view.cursor();
        view.record(v(1), Some(entry(1, 0)));
        view.trim(view.cursor());
        let _ = view.deltas_since(stale);
    }

    #[test]
    #[should_panic(expected = "beyond the log end")]
    fn reading_a_future_cursor_panics() {
        let view = RouteView::default();
        let _ = view.deltas_since(RouteCursor(5));
    }
}
