//! Hold tracking: which of a node's guards are inside a
//! continuous-enablement interval, and since which generation.

use crate::node::{ActionId, EnabledSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GuardTrack {
    pub(crate) generation: u64,
    pub(crate) fingerprint: u64,
}

/// A guard whose hold starts with this evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Started {
    /// Position in the evaluation's emission order.
    emitted: u32,
    /// Position in the merged guard vector.
    at: u32,
    pub(crate) id: ActionId,
    /// Hold-time, on the node's local clock.
    pub(crate) hold: f64,
    pub(crate) generation: u64,
}

/// One [`EnabledSet::entries`] item behind its emission position.
type Emitted = (u32, ActionId, f64, Option<u64>);

/// Buffers [`Guards::track`] reuses from one evaluation to the next.
#[derive(Default)]
pub(crate) struct TrackScratch {
    /// The enabled set, in id order.
    enabled: Vec<Emitted>,
    merged: Vec<(ActionId, GuardTrack)>,
    /// The holds the last call started, in emission order.
    pub(crate) started: Vec<Started>,
}

/// A node's tracked guards, sorted by action id: a handful of entries
/// that come and go with every enable and fire. The vector keeps its
/// buffer across them, where a map allocates and frees a leaf each time.
#[derive(Default)]
pub(crate) struct Guards(pub(crate) Vec<(ActionId, GuardTrack)>);

impl Guards {
    /// Where `id` is tracked, or else where it would be inserted.
    pub(crate) fn find(&self, id: ActionId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |e| e.0)
    }

    pub(crate) fn get(&self, id: ActionId) -> Option<&GuardTrack> {
        Some(&self.0[self.find(id).ok()?].1)
    }

    pub(crate) fn remove(&mut self, id: ActionId) {
        if let Ok(at) = self.find(id) {
            self.0.remove(at);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = ActionId> + '_ {
        self.0.iter().map(|e| e.0)
    }

    /// Brings the tracked guards in line with a fresh evaluation, in one
    /// merge of the two id-ordered sequences. An action stays
    /// "continuously enabled" only while its guard is true AND its
    /// fingerprint (the values the guard witnesses) is unchanged; every
    /// other enabled action starts a new hold, listed in
    /// `scratch.started`. An id emitted more than once is one action: its
    /// first hold, its first fingerprint. Generations are handed out in
    /// **emission** order whatever order the merge ran in — the caller
    /// pushes one timer per started hold, and the order of those pushes
    /// is part of every event key. `non_maintenance` follows the number
    /// of tracked guards `is_maintenance` rejects.
    pub(crate) fn track(
        &mut self,
        set: &EnabledSet,
        scratch: &mut TrackScratch,
        generation: &mut u64,
        non_maintenance: &mut usize,
        is_maintenance: fn(ActionId) -> bool,
    ) {
        let TrackScratch {
            enabled,
            merged,
            started,
        } = scratch;
        enabled.clear();
        merged.clear();
        started.clear();
        let emitted = set.entries().enumerate();
        enabled
            .extend(emitted.map(|(i, (id, hold, fingerprint))| (i as u32, id, hold, fingerprint)));
        // One protocol instance emits in id order; a multiplexing node
        // tags per instance, which is not.
        let in_id_order = enabled.windows(2).all(|w| w[0].1 <= w[1].1);
        if !in_id_order {
            enabled.sort_by_key(|e| e.1); // stable: emission order within an id
        }
        let counted = |id| usize::from(!is_maintenance(id));
        let mut tracked = self.0.iter().peekable();
        let mut enabled = enabled.iter().copied().peekable();
        while let Some((emitted, id, hold, mut fingerprint)) = enabled.next() {
            while let Some(again) = enabled.next_if(|e| e.1 == id) {
                fingerprint = fingerprint.or(again.3);
            }
            while let Some(disabled) = tracked.next_if(|t| t.0 < id) {
                *non_maintenance -= counted(disabled.0);
            }
            let held = tracked.next_if(|t| t.0 == id).map(|t| t.1);
            if held.is_none() {
                *non_maintenance += counted(id);
            }
            // A changed fingerprint restarts the hold of a tracked guard.
            let unchanged = held.filter(|t| fingerprint.is_none_or(|f| f == t.fingerprint));
            let track = unchanged.unwrap_or_else(|| {
                started.push(Started {
                    emitted,
                    at: merged.len() as u32,
                    id,
                    hold,
                    generation: 0,
                });
                GuardTrack {
                    generation: 0,
                    fingerprint: fingerprint.unwrap_or(0),
                }
            });
            merged.push((id, track));
        }
        for disabled in tracked {
            *non_maintenance -= counted(disabled.0);
        }
        if !in_id_order {
            started.sort_unstable_by_key(|s| s.emitted);
        }
        for s in started.iter_mut() {
            *generation += 1;
            s.generation = *generation;
            merged[s.at as usize].1.generation = *generation;
        }
        self.0.clear();
        self.0.extend_from_slice(merged);
    }
}
