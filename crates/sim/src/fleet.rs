//! Worker fleet runtime state.
//!
//! The paper's worker model (Definition 2): a worker is **idle** or
//! **busy** delivering exactly one order group; after the last drop-off it
//! becomes idle at that location. The fleet tracks `(location, busy_until)`
//! per worker and answers nearest-idle queries.

use watter_core::{Dur, NodeId, TravelBound, Ts, Worker, WorkerId};

/// Mutable runtime state of one worker.
#[derive(Clone, Copy, Debug)]
struct WorkerState {
    loc: NodeId,
    busy_until: Ts,
}

/// The worker fleet.
#[derive(Clone, Debug)]
pub struct Fleet {
    workers: Vec<Worker>,
    state: Vec<WorkerState>,
    /// The least `busy_until` over the fleet (`Ts::MAX` when it is empty):
    /// while it is later than `now` nobody is idle, and
    /// [`Fleet::nearest_idle`] answers without a scan. `assign` rescans
    /// only when it moved the worker that held it.
    first_idle: Ts,
}

impl Fleet {
    /// Build a fleet; every worker starts idle at its home location.
    pub fn new(workers: Vec<Worker>) -> Self {
        let state = workers
            .iter()
            .map(|w| WorkerState {
                loc: w.home,
                busy_until: Ts::MIN,
            })
            .collect();
        let mut fleet = Self {
            workers,
            state,
            first_idle: Ts::MAX,
        };
        fleet.first_idle = fleet.least_busy_until();
        fleet
    }

    /// The least `busy_until` by a full scan (`Ts::MAX` for no workers).
    fn least_busy_until(&self) -> Ts {
        self.state
            .iter()
            .map(|s| s.busy_until)
            .min()
            .unwrap_or(Ts::MAX)
    }

    /// Number of workers.
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Static description of a worker.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.index()]
    }

    /// Current location of a worker (for busy workers: the location where
    /// they will next become idle).
    pub fn location(&self, id: WorkerId) -> NodeId {
        self.state[id.index()].loc
    }

    /// Whether the worker is idle at `now`.
    pub fn is_idle(&self, id: WorkerId, now: Ts) -> bool {
        self.state[id.index()].busy_until <= now
    }

    /// Iterate over idle workers at `now`.
    pub fn idle_workers(&self, now: Ts) -> impl Iterator<Item = WorkerId> + '_ {
        self.state
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.busy_until <= now)
            .map(|(i, _)| WorkerId(i as u32))
    }

    /// Whether some worker is idle at `now`: one compare, no scan.
    pub fn any_idle(&self, now: Ts) -> bool {
        self.first_idle <= now
    }

    /// Locations of idle workers at `now` (for supply snapshots).
    pub(crate) fn idle_locations(&self, now: Ts) -> impl Iterator<Item = NodeId> + '_ {
        self.state
            .iter()
            .filter(move |s| s.busy_until <= now)
            .map(|s| s.loc)
    }

    /// The idle worker closest to `target` (by travel time) with capacity
    /// at least `min_capacity`, or `None` if no such worker is idle.
    ///
    /// Ties on approach cost break toward the **lowest `WorkerId`** — an
    /// explicit part of the contract, not an accident of scan order.
    ///
    /// Bound-guided ([`TravelBound::cost_if_below`]): a worker whose
    /// admissible bound already reaches the incumbent's cost is skipped
    /// without the exact approach query. Workers are scanned in ascending
    /// id, so such a worker could at best tie — and a tie goes to the
    /// incumbent.
    pub fn nearest_idle<C: TravelBound>(
        &self,
        target: NodeId,
        now: Ts,
        min_capacity: u32,
        oracle: &C,
    ) -> Option<WorkerId> {
        if !self.any_idle(now) {
            return None;
        }
        let mut best: Option<(Dur, WorkerId)> = None;
        for (i, s) in self.state.iter().enumerate() {
            if s.busy_until > now || self.workers[i].capacity < min_capacity {
                continue;
            }
            // Strict improvement only: ids ascend, so the lowest id among
            // equidistant workers wins deterministically.
            let to_beat = best.map_or(Dur::MAX, |(bd, _)| bd);
            if let Some(d) = oracle.cost_if_below(s.loc, target, to_beat) {
                best = Some((d, WorkerId(i as u32)));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Capture the fleet's serializable state.
    pub(crate) fn snapshot(&self) -> crate::snapshot::FleetSnapshot {
        crate::snapshot::FleetSnapshot {
            workers: self.workers.clone(),
            locations: self.state.iter().map(|s| s.loc).collect(),
            busy_until: self.state.iter().map(|s| s.busy_until).collect(),
        }
    }

    /// Overwrite runtime state from a snapshot taken of this roster.
    /// Callers validate vector alignment (`DispatchCore::restore`).
    pub(crate) fn restore_state(&mut self, snap: &crate::snapshot::FleetSnapshot) {
        debug_assert_eq!(self.workers.len(), snap.locations.len());
        for (i, s) in self.state.iter_mut().enumerate() {
            s.loc = snap.locations[i];
            s.busy_until = snap.busy_until[i];
        }
        self.first_idle = self.least_busy_until();
    }

    /// Mark a worker busy until `busy_until`, ending at `end_loc`.
    ///
    /// # Panics
    /// Panics (debug) if the worker was already busy.
    pub fn assign(&mut self, id: WorkerId, end_loc: NodeId, now: Ts, travel: Dur) {
        let s = &mut self.state[id.index()];
        debug_assert!(s.busy_until <= now, "assigning busy worker {id}");
        let held_first = s.busy_until == self.first_idle;
        s.loc = end_loc;
        s.busy_until = now + travel;
        self.first_idle = if held_first {
            self.least_busy_until()
        } else {
            self.first_idle.min(s.busy_until)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use watter_core::TravelCost;

    struct Line;
    impl TravelCost for Line {
        fn cost(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 10
        }
    }
    impl TravelBound for Line {
        fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
            (a.0 as i64 - b.0 as i64).abs() * 6
        }
    }

    fn fleet() -> Fleet {
        Fleet::new(vec![
            Worker::new(WorkerId(0), NodeId(0), 2),
            Worker::new(WorkerId(1), NodeId(10), 4),
            Worker::new(WorkerId(2), NodeId(20), 4),
        ])
    }

    #[test]
    fn all_start_idle_at_home() {
        let f = fleet();
        assert_eq!(f.idle_workers(0).count(), 3);
        assert!(f.is_idle(WorkerId(2), 0));
        assert_eq!(f.location(WorkerId(1)), NodeId(10));
    }

    #[test]
    fn nearest_idle_by_travel_time() {
        let f = fleet();
        assert_eq!(f.nearest_idle(NodeId(8), 0, 1, &Line), Some(WorkerId(1)));
        assert_eq!(f.nearest_idle(NodeId(2), 0, 1, &Line), Some(WorkerId(0)));
    }

    #[test]
    fn capacity_filter_applies() {
        let f = fleet();
        // Worker 0 (capacity 2) is closest to node 2 but we need 3 seats.
        assert_eq!(f.nearest_idle(NodeId(2), 0, 3, &Line), Some(WorkerId(1)));
    }

    #[test]
    fn assignment_makes_worker_busy_then_idle() {
        let mut f = fleet();
        f.assign(WorkerId(0), NodeId(5), 100, 60);
        assert!(!f.is_idle(WorkerId(0), 100));
        assert!(!f.is_idle(WorkerId(0), 159));
        assert!(f.is_idle(WorkerId(0), 160));
        assert_eq!(f.location(WorkerId(0)), NodeId(5));
        assert_eq!(f.idle_workers(100).count(), 2);
    }

    #[test]
    fn equidistant_workers_tie_break_by_lowest_id() {
        // Workers 1 (node 10) and 2 (node 20) are both 50 from node 15;
        // the contract picks the lower WorkerId.
        let f = fleet();
        assert_eq!(f.nearest_idle(NodeId(15), 0, 3, &Line), Some(WorkerId(1)));
    }

    /// `nearest_idle` as a plain scan: the least approach cost among idle
    /// workers with enough seats, the lowest id among equals.
    fn scan(f: &Fleet, target: NodeId, now: Ts, min_capacity: u32) -> Option<WorkerId> {
        (0..f.len())
            .map(|i| WorkerId(i as u32))
            .filter(|&w| f.is_idle(w, now) && f.worker(w).capacity >= min_capacity)
            .min_by_key(|&w| (Line.cost(f.location(w), target), w.0))
    }

    proptest! {
        /// Over random rosters, assignments, restores and clocks that run
        /// forward and back, the "nobody is idle" fast path and the scan
        /// behind it answer what a plain scan answers, and `first_idle` is
        /// the least `busy_until`.
        #[test]
        fn nearest_idle_matches_a_plain_scan(
            roster in prop::collection::vec((0u32..30, 1u32..5), 0..10),
            ops in prop::collection::vec((0u8..4, 0u32..30, -200i64..300, 1u32..5), 1..40)
        ) {
            let mut f = Fleet::new(
                roster
                    .iter()
                    .enumerate()
                    .map(|(i, &(home, seats))| Worker::new(WorkerId(i as u32), NodeId(home), seats))
                    .collect(),
            );
            let mut now: Ts = 0;
            for &(kind, node, x, seats) in &ops {
                match kind {
                    // Assign the `node`-th worker idle now, if any.
                    0 | 1 => {
                        let idle: Vec<WorkerId> = f.idle_workers(now).collect();
                        if let Some(&w) = idle.get(node as usize % idle.len().max(1)) {
                            f.assign(w, NodeId(node), now, x.abs());
                        }
                    }
                    2 => now += x,
                    _ => {
                        let mut snap = f.snapshot();
                        for (i, b) in snap.busy_until.iter_mut().enumerate() {
                            *b = now + x - 40 * i as i64;
                            snap.locations[i] = NodeId((node + 7 * i as u32) % 30);
                        }
                        f.restore_state(&snap);
                    }
                }
                prop_assert_eq!(f.first_idle, f.least_busy_until());
                for probe in [now - 150, now, now + 150] {
                    for target in [NodeId(node), NodeId(29 - node)] {
                        prop_assert_eq!(
                            f.nearest_idle(target, probe, seats, &Line),
                            scan(&f, target, probe, seats)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_idle_worker_returns_none() {
        let mut f = Fleet::new(vec![Worker::new(WorkerId(0), NodeId(0), 4)]);
        f.assign(WorkerId(0), NodeId(1), 0, 1_000);
        assert_eq!(f.nearest_idle(NodeId(0), 500, 1, &Line), None);
    }
}
