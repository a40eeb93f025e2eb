//! Test-only oracle: hold tracking as the engine did it before
//! [`Guards::track`] — drop what is no longer continuously enabled with a
//! linear lookup per tracked guard, then a binary search and an insert per
//! enabled action — over the enabled set as it was then read, two lists
//! with a linear lookup each. The suite at the bottom holds the merge to
//! it, step for step.

use crate::guards::{GuardTrack, Guards};
use crate::node::ActionId;

/// The enabled set's two lists and their former readers.
#[derive(Default)]
struct Enabled {
    actions: Vec<(ActionId, f64)>,
    fingerprints: Vec<(ActionId, u64)>,
}

impl Enabled {
    fn fingerprint_of(&self, id: ActionId) -> Option<u64> {
        self.fingerprints
            .iter()
            .find(|&&(fid, _)| fid == id)
            .map(|&(_, fp)| fp)
    }

    fn is_enabled(&self, id: ActionId) -> bool {
        self.actions.iter().any(|&(aid, _)| aid == id)
    }
}

impl Guards {
    fn retain(&mut self, mut keep: impl FnMut(ActionId, &GuardTrack) -> bool) {
        self.0.retain(|e| keep(e.0, &e.1));
    }

    /// Tracks `id` with `track()` unless it is tracked already; returns
    /// the new track if so.
    fn insert_if_vacant(
        &mut self,
        id: ActionId,
        track: impl FnOnce() -> GuardTrack,
    ) -> Option<GuardTrack> {
        let at = self.find(id).err()?;
        self.0.insert(at, (id, track()));
        Some(self.0[at].1)
    }
}

/// The body of `Core::reevaluate_floored` between guard evaluation and
/// timer pushes, with the hold where the fire time (`now` + the hold on
/// the node's clock) stood.
fn track(
    tracked: &mut Guards,
    set: &Enabled,
    generation: &mut u64,
    counter: &mut usize,
    is_maintenance: fn(ActionId) -> bool,
    to_schedule: &mut Vec<(ActionId, f64, u64)>,
) {
    tracked.retain(|id, track| {
        let keep = set.is_enabled(id)
            && set.fingerprint_of(id).unwrap_or(track.fingerprint) == track.fingerprint;
        if !keep && !is_maintenance(id) {
            *counter -= 1;
        }
        keep
    });
    for &(id, hold) in &set.actions {
        let inserted = tracked.insert_if_vacant(id, || {
            *generation += 1;
            GuardTrack {
                generation: *generation,
                fingerprint: set.fingerprint_of(id).unwrap_or(0),
            }
        });
        if let Some(track) = inserted {
            if !is_maintenance(id) {
                *counter += 1;
            }
            to_schedule.push((id, hold, track.generation));
        }
    }
}

mod equivalence {
    use super::*;
    use crate::guards::TrackScratch;
    use crate::node::EnabledSet;
    use lsrp_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    // 12,800 steps in all.
    const NODES: usize = 64;
    const STEPS_PER_NODE: usize = 200;
    const MAINTENANCE: u8 = 5;

    fn is_maintenance(id: ActionId) -> bool {
        id.kind == MAINTENANCE
    }

    /// What the generator must have produced for the run to count.
    #[derive(Debug, Default)]
    struct Coverage {
        in_id_order: usize,
        out_of_id_order: usize,
        several_instances: usize,
        duplicated_id: usize,
        fingerprint_appeared: usize,
        fingerprint_flipped: usize,
        fingerprint_disappeared: usize,
        kept: usize,
        started: usize,
        dropped: usize,
        maintenance_started: usize,
        fired: usize,
    }

    /// One node's life: the same emissions fed to both trackers.
    struct Node {
        /// The ids this node's guards range over, in id order.
        pool: Vec<ActionId>,
        /// Whether the node emits in id order (one protocol instance) or
        /// instance by instance (a multiplexing node).
        by_instance: bool,
        /// The fingerprint each id was last emitted with.
        last: Vec<Option<u64>>,
        new: (Guards, u64, usize),
        old: (Guards, u64, usize),
    }

    fn node(rng: &mut StdRng) -> Node {
        let instances: &[u32] = if rng.gen_bool(0.5) { &[0] } else { &[1, 2, 7] };
        let mut pool = Vec::new();
        for &instance in instances {
            for kind in 0..=MAINTENANCE {
                let params = if kind == 1 { rng.gen_range(1..=6) } else { 0 };
                pool.push(ActionId::plain(kind).for_instance(instance));
                for k in 0..params {
                    pool.push(ActionId::with_param(kind, NodeId::new(k)).for_instance(instance));
                }
            }
        }
        pool.sort();
        Node {
            last: vec![None; pool.len()],
            pool,
            by_instance: instances.len() > 1,
            new: (Guards::default(), 0, 0),
            old: (Guards::default(), 0, 0),
        }
    }

    /// One evaluation's emissions `(pool index, hold, fingerprint)`, in
    /// emission order.
    fn emissions(n: &Node, rng: &mut StdRng) -> Vec<(usize, f64, Option<u64>)> {
        let density = [0.0, 0.2, 0.6, 1.0][rng.gen_range(0..4usize)];
        let mut picked: Vec<usize> = (0..n.pool.len())
            .filter(|_| rng.gen_bool(density))
            .collect();
        if n.by_instance {
            picked.sort_by_key(|&i| (n.pool[i].instance, n.pool[i]));
        }
        if rng.gen_bool(0.1) {
            picked.shuffle(rng);
        }
        if !picked.is_empty() && rng.gen_bool(0.15) {
            let again = picked[rng.gen_range(0..picked.len())];
            picked.insert(rng.gen_range(0..=picked.len()), again);
        }
        let emit = |i: usize| {
            // Mostly what it was last time; else absent, or one of a few
            // values (0 is what an absent fingerprint is recorded as).
            let fingerprint = match rng.gen_range(0..10) {
                0 => None,
                1 | 2 => Some(rng.gen_range(0..3u64)),
                _ => n.last[i],
            };
            (i, [0.0, 1.0, 17.0][rng.gen_range(0..3usize)], fingerprint)
        };
        picked.into_iter().map(emit).collect()
    }

    #[test]
    fn merge_tracking_equals_retain_and_insert() {
        let mut rng = StdRng::seed_from_u64(0x23_0023);
        let mut c = Coverage::default();
        let mut set = EnabledSet::none();
        let mut scratch = TrackScratch::default();
        let mut to_schedule = Vec::new();
        for case in 0..NODES {
            let mut n = node(&mut rng);
            for step in 0..STEPS_PER_NODE {
                let emitted = emissions(&n, &mut rng);
                set.clear();
                let mut old_set = Enabled::default();
                for &(i, hold, fingerprint) in &emitted {
                    let id = n.pool[i];
                    old_set.actions.push((id, hold));
                    match fingerprint {
                        Some(fp) => {
                            set.enable_with_fingerprint(id, hold, fp);
                            old_set.fingerprints.push((id, fp));
                        }
                        None => {
                            set.enable(id, hold);
                        }
                    }
                }
                record(&mut c, &n, &emitted);

                let (guards, generation, counter) = &mut n.new;
                guards.track(&set, &mut scratch, generation, counter, is_maintenance);
                let (guards, generation, counter) = &mut n.old;
                to_schedule.clear();
                track(
                    guards,
                    &old_set,
                    generation,
                    counter,
                    is_maintenance,
                    &mut to_schedule,
                );

                let at = format!("node {case} step {step}: {emitted:?}");
                assert_eq!(n.new.0 .0, n.old.0 .0, "tracked guards, {at}");
                assert_eq!(n.new.1, n.old.1, "generation, {at}");
                assert_eq!(n.new.2, n.old.2, "enabled_non_maintenance, {at}");
                let started: Vec<_> = scratch
                    .started
                    .iter()
                    .map(|s| (s.id, s.hold, s.generation))
                    .collect();
                assert_eq!(started, to_schedule, "schedule order, {at}");
                let tracked = n.new.0 .0.iter();
                assert_eq!(
                    n.new.2,
                    tracked.filter(|t| !is_maintenance(t.0)).count(),
                    "{at}"
                );
                c.started += started.len();
                c.maintenance_started += started.iter().filter(|s| is_maintenance(s.0)).count();

                for &(i, _, fingerprint) in emitted.iter().rev() {
                    n.last[i] = fingerprint; // the first emission of an id wins
                }
                // A hold runs out: the engine untracks the guard it fires.
                if !n.new.0 .0.is_empty() && rng.gen_bool(0.3) {
                    let id = n.new.0 .0[rng.gen_range(0..n.new.0 .0.len())].0;
                    for (guards, _, counter) in [&mut n.new, &mut n.old] {
                        guards.remove(id);
                        *counter -= usize::from(!is_maintenance(id));
                    }
                    c.fired += 1;
                }
            }
        }
        let floor = NODES * STEPS_PER_NODE / 100;
        let reached = [
            c.in_id_order,
            c.out_of_id_order,
            c.several_instances,
            c.duplicated_id,
            c.fingerprint_appeared,
            c.fingerprint_flipped,
            c.fingerprint_disappeared,
            c.kept,
            c.started,
            c.dropped,
            c.maintenance_started,
            c.fired,
        ];
        assert!(reached.iter().all(|&n| n >= floor), "thin coverage: {c:?}");
    }

    fn record(c: &mut Coverage, n: &Node, emitted: &[(usize, f64, Option<u64>)]) {
        let ids: Vec<ActionId> = emitted.iter().map(|e| n.pool[e.0]).collect();
        if ids.windows(2).all(|w| w[0] <= w[1]) {
            c.in_id_order += 1;
        } else {
            c.out_of_id_order += 1;
        }
        let mut sorted = ids.clone();
        sorted.sort();
        c.duplicated_id += usize::from(sorted.windows(2).any(|w| w[0] == w[1]));
        c.several_instances += usize::from(ids.iter().any(|id| id.instance != ids[0].instance));
        let tracked = &n.old.0;
        for &(i, _, fingerprint) in emitted {
            let Some(track) = tracked.get(n.pool[i]) else {
                continue;
            };
            match (n.last[i], fingerprint) {
                (None, Some(_)) => c.fingerprint_appeared += 1,
                (Some(_), None) => c.fingerprint_disappeared += 1,
                (Some(a), Some(b)) if a != b => c.fingerprint_flipped += 1,
                _ => {}
            }
            c.kept += usize::from(fingerprint.is_none_or(|f| f == track.fingerprint));
        }
        c.dropped += tracked.keys().filter(|id| !ids.contains(id)).count();
    }
}
