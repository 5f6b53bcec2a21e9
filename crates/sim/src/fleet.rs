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
        Self { workers, state }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
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

    /// When the worker becomes idle.
    pub fn busy_until(&self, id: WorkerId) -> Ts {
        self.state[id.index()].busy_until
    }

    /// Iterate over idle workers at `now`.
    pub fn idle_workers(&self, now: Ts) -> impl Iterator<Item = WorkerId> + '_ {
        self.state
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.busy_until <= now)
            .map(|(i, _)| WorkerId(i as u32))
    }

    /// Locations of idle workers at `now` (for supply snapshots).
    pub fn idle_locations(&self, now: Ts) -> impl Iterator<Item = NodeId> + '_ {
        self.state
            .iter()
            .filter(move |s| s.busy_until <= now)
            .map(|s| s.loc)
    }

    /// Count idle workers at `now`.
    pub fn idle_count(&self, now: Ts) -> usize {
        self.state.iter().filter(|s| s.busy_until <= now).count()
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
    pub fn snapshot(&self) -> crate::snapshot::FleetSnapshot {
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
    }

    /// Mark a worker busy until `busy_until`, ending at `end_loc`.
    ///
    /// # Panics
    /// Panics (debug) if the worker was already busy.
    pub fn assign(&mut self, id: WorkerId, end_loc: NodeId, now: Ts, travel: Dur) {
        let s = &mut self.state[id.index()];
        debug_assert!(s.busy_until <= now, "assigning busy worker {id}");
        s.loc = end_loc;
        s.busy_until = now + travel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line;
    impl watter_core::TravelCost for Line {
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
        assert_eq!(f.idle_count(0), 3);
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
        assert_eq!(f.idle_count(100), 2);
    }

    #[test]
    fn equidistant_workers_tie_break_by_lowest_id() {
        // Workers 1 (node 10) and 2 (node 20) are both 50 from node 15;
        // the contract picks the lower WorkerId.
        let f = fleet();
        assert_eq!(f.nearest_idle(NodeId(15), 0, 3, &Line), Some(WorkerId(1)));
    }

    #[test]
    fn no_idle_worker_returns_none() {
        let mut f = Fleet::new(vec![Worker::new(WorkerId(0), NodeId(0), 4)]);
        f.assign(WorkerId(0), NodeId(1), 0, 1_000);
        assert_eq!(f.nearest_idle(NodeId(0), 500, 1, &Line), None);
    }
}
