//! Dense, `NodeId`-indexed storage for per-node and per-edge engine state.
//!
//! The engine's hot path touches per-node bookkeeping (protocol state,
//! clock, guard tracking, pending wakeups) on every event. Keyed
//! `BTreeMap`s pay a pointer chase per lookup; topologies in this
//! repository use compact ids (`0..n` from the generators), so a plain
//! vector indexed by [`NodeId::raw`] is both smaller and faster.
//! [`NodeSlots`] keeps the *deterministic ascending-id iteration order*
//! the maps provided — every consumer of engine iteration order (route
//! tables, quiescence checks, trace reports) relies on it. [`EdgeSlots`]
//! has no iteration at all, so no order of its rows is observable.

use lsrp_graph::NodeId;

/// A dense map from [`NodeId`] to `T`, backed by `Vec<Option<T>>`.
///
/// Slots grow on insert to cover the largest id seen; removal leaves a
/// hole (`None`) so ids can re-join later (fail-stop + join). Iteration
/// is always in ascending id order.
#[derive(Debug, Clone)]
pub struct NodeSlots<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for NodeSlots<T> {
    fn default() -> Self {
        NodeSlots::new()
    }
}

impl<T> NodeSlots<T> {
    /// An empty map.
    pub fn new() -> Self {
        NodeSlots {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Read access to the slot of `id`.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slots.get(id.raw() as usize).and_then(Option::as_ref)
    }

    /// Write access to the slot of `id`.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
    }

    /// Inserts (or replaces) the slot of `id`, returning the old value.
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the slot of `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let old = self.slots.get_mut(id.raw() as usize).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates occupied slots in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (NodeId::new(i as u32), t)))
    }

    /// Iterates occupied slots mutably in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|t| (NodeId::new(i as u32), t)))
    }

    /// Iterates occupied values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

/// A map from directed edges `(from, to)` to `T`, dense in `from`.
///
/// The `from` side is a vector indexed by [`NodeId::raw`] (every live node
/// sends on its edges constantly); the `to` side is a row of `(to, T)`
/// pairs sorted by `to` and binary-searched (a node's degree is tiny
/// compared to `n`, and an edge is inserted into its row once, on its
/// first touch).
#[derive(Debug, Clone, Default)]
pub struct EdgeSlots<T> {
    rows: Vec<Vec<(NodeId, T)>>,
}

impl<T> EdgeSlots<T> {
    /// An empty map.
    pub fn new() -> Self {
        EdgeSlots { rows: Vec::new() }
    }

    /// Read access to the state of edge `(from, to)`.
    pub fn get(&self, from: NodeId, to: NodeId) -> Option<&T> {
        let row = self.rows.get(from.raw() as usize)?;
        let i = row.binary_search_by_key(&to, |&(head, _)| head).ok()?;
        Some(&row[i].1)
    }
}

impl<T: Default> EdgeSlots<T> {
    /// Write access to the state of edge `(from, to)`, inserting a default
    /// value first if absent.
    pub fn entry(&mut self, from: NodeId, to: NodeId) -> &mut T {
        let idx = from.raw() as usize;
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, Vec::new);
        }
        let row = &mut self.rows[idx];
        let i = row
            .binary_search_by_key(&to, |&(head, _)| head)
            .unwrap_or_else(|i| {
                row.insert(i, (to, T::default()));
                i
            });
        &mut row[i].1
    }
}

/// The region-parallel engine's node addressing map: which region owns
/// each raw node id, and the node's dense *local* id inside that region.
///
/// Per-region state (slots, links, ports, emission counters) is indexed
/// by local id so a region's working set stays proportional to its own
/// size, not the global id space. Assignments are sticky: a node that
/// fails and later rejoins keeps its `(region, local)` pair, so its
/// emission counters continue where they left off — a prerequisite for
/// globally unique event keys across the node's whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct RegionMap {
    /// Region per raw id (`u32::MAX` = never seen).
    region_of: Vec<u32>,
    /// Local id per raw id (`u32::MAX` = never seen).
    local_of: Vec<u32>,
    /// Next free local id per region.
    next_local: Vec<u32>,
}

impl RegionMap {
    /// An empty map with `regions` region slots (at least one).
    pub fn new(regions: usize) -> Self {
        RegionMap {
            region_of: Vec::new(),
            local_of: Vec::new(),
            next_local: vec![0; regions.max(1)],
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.next_local.len()
    }

    /// The region owning `v`, or `None` if `v` was never assigned.
    pub fn region(&self, v: NodeId) -> Option<u32> {
        let r = *self.region_of.get(v.raw() as usize)?;
        (r != u32::MAX).then_some(r)
    }

    /// `v`'s dense local id inside its region.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never assigned.
    pub fn local(&self, v: NodeId) -> u32 {
        let l = self.local_of[v.raw() as usize];
        assert!(l != u32::MAX, "node {v:?} has no region assignment");
        l
    }

    /// Assigns `v` to `region`, returning its local id. Re-assigning an
    /// already-mapped node is a no-op that keeps (and returns) the
    /// original mapping — region identity is sticky across fail/rejoin.
    pub fn assign(&mut self, v: NodeId, region: u32) -> u32 {
        let idx = v.raw() as usize;
        if idx >= self.region_of.len() {
            self.region_of.resize(idx + 1, u32::MAX);
            self.local_of.resize(idx + 1, u32::MAX);
        }
        if self.region_of[idx] != u32::MAX {
            return self.local_of[idx];
        }
        let r = region as usize;
        assert!(r < self.next_local.len(), "region {region} out of range");
        let l = self.next_local[r];
        self.next_local[r] = l + 1;
        self.region_of[idx] = region;
        self.local_of[idx] = l;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn node_slots_insert_get_remove() {
        let mut s = NodeSlots::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(v(3), "c"), None);
        assert_eq!(s.insert(v(1), "a"), None);
        assert_eq!(s.insert(v(1), "b"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(v(1)), Some(&"b"));
        assert!(s.contains(v(3)));
        assert!(!s.contains(v(0)));
        assert_eq!(s.remove(v(3)), Some("c"));
        assert_eq!(s.remove(v(3)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn node_slots_iterate_in_ascending_id_order() {
        let mut s = NodeSlots::new();
        for i in [5u32, 0, 9, 2] {
            s.insert(v(i), i);
        }
        let order: Vec<u32> = s.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(order, vec![0, 2, 5, 9]);
        let values: Vec<u32> = s.values().copied().collect();
        assert_eq!(values, vec![0, 2, 5, 9]);
        for (_, t) in s.iter_mut() {
            *t += 1;
        }
        assert_eq!(s.get(v(5)), Some(&6));
    }

    #[test]
    fn edge_slots_default_and_entry() {
        let mut e: EdgeSlots<bool> = EdgeSlots::new();
        assert_eq!(e.get(v(1), v(2)), None);
        *e.entry(v(1), v(2)) = true;
        assert_eq!(e.get(v(1), v(2)), Some(&true));
        assert_eq!(e.get(v(2), v(1)), None);
        *e.entry(v(0), v(7)) |= false;
        assert_eq!(e.get(v(0), v(7)), Some(&false));
    }

    #[test]
    fn edge_slots_row_of_a_clos_switch_degree() {
        // Forty heads (a Clos switch's degree), every third id, touched in
        // a shuffled order: each row insert lands mid-row at least once.
        let mut heads: Vec<u32> = (0..40).map(|i| 3 * i + 1).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..heads.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            heads.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut e: EdgeSlots<u32> = EdgeSlots::new();
        for &h in &heads {
            *e.entry(v(5), v(h)) += 1000 + h;
        }
        for &h in &heads {
            *e.entry(v(5), v(h)) += 1; // a second touch finds, not inserts
        }
        for id in 0..130 {
            let want = (id % 3 == 1 && id < 120).then_some(1001 + id);
            assert_eq!(e.get(v(5), v(id)).copied(), want, "head {id}");
        }
        assert_eq!(e.get(v(4), v(1)), None);
        assert_eq!(e.get(v(6), v(1)), None);
    }
}
