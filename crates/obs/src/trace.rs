//! Structured event journal: a bounded ring buffer of typed trace
//! events with monotone sequence numbers.
//!
//! The journal is the "what happened, in order" complement to the
//! numeric registry: every notable state transition (order admitted or
//! shed, a group formed, the backpressure policy flipping degrade on,
//! a checkpoint landing) is appended as a [`TraceRecord`] and drained
//! as JSON lines by `--trace PATH`. Events are functions of the input
//! stream alone, so a resumed run re-emits what the crashed one did;
//! process history (cache warmth) is counted, never journalled.
//!
//! Sequence numbers are the recovery contract: a snapshot carries the
//! journal's next sequence number, and a restored run resumes from it
//! (`Recorder::bump_trace_seq_to`), so a kill → restore → replay never
//! renumbers or double-counts the events it re-emits. The buffer is
//! bounded ([`JOURNAL_CAP`]); overflow drops the *oldest* records and
//! counts them, so a slow drainer loses history, never memory.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Ring-buffer capacity of the in-memory journal.
pub const JOURNAL_CAP: usize = 65_536;

/// One typed trace event. Fields are plain integers so the journal
/// stays decoupled from the domain crates above it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An order passed ingest validation and was admitted.
    OrderAdmitted { order: u64 },
    /// Backpressure shed an admitted order before dispatch.
    OrderShed { order: u64 },
    /// Backpressure blocked ingest while this order waited.
    OrderBlocked { order: u64 },
    /// An order was admitted under degrade (solo-only dispatch).
    OrderDegraded { order: u64 },
    /// An order reached a worker's route.
    OrderServed {
        order: u64,
        worker: u64,
        group_size: u64,
    },
    /// An order ran out of deadline slack and was rejected.
    OrderRejected { order: u64 },
    /// A pooled group (2+ riders) was committed to a worker.
    GroupFormed { worker: u64, size: u64 },
    /// The backpressure hysteresis flipped degrade on (`true`) or off.
    DegradeFlip { engaged: bool },
    /// A checkpoint generation hit disk (after `lines` input lines).
    CheckpointWritten { lines: u64 },
}

impl TraceEvent {
    /// Stable snake_case tag (the Prometheus/JSON event label).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::OrderAdmitted { .. } => "order_admitted",
            TraceEvent::OrderShed { .. } => "order_shed",
            TraceEvent::OrderBlocked { .. } => "order_blocked",
            TraceEvent::OrderDegraded { .. } => "order_degraded",
            TraceEvent::OrderServed { .. } => "order_served",
            TraceEvent::OrderRejected { .. } => "order_rejected",
            TraceEvent::GroupFormed { .. } => "group_formed",
            TraceEvent::DegradeFlip { .. } => "degrade_flip",
            TraceEvent::CheckpointWritten { .. } => "checkpoint_written",
        }
    }
}

/// One journal entry: a monotone sequence number, the virtual-time
/// stamp of the run clock, and the typed event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotone sequence number, continued across snapshot/restore.
    pub seq: u64,
    /// Virtual-time stamp (run clock seconds).
    pub at: i64,
    /// The event payload.
    pub event: TraceEvent,
}

/// The bounded in-memory journal (lives behind the registry mutex).
#[derive(Debug, Default)]
pub struct Journal {
    next_seq: u64,
    dropped: u64,
    records: VecDeque<TraceRecord>,
}

impl Journal {
    /// Append an event, assigning the next sequence number. Overflow
    /// evicts the oldest record.
    pub(crate) fn push(&mut self, at: i64, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() >= JOURNAL_CAP {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { seq, at, event });
    }

    /// Remove and return every buffered record (oldest first).
    pub(crate) fn drain(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }

    /// The sequence number the *next* event will receive.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raise the next sequence number to at least `seq` (used when a
    /// restored snapshot carries the journal position of the crashed
    /// run). Never lowers it.
    pub(crate) fn bump_to(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Records evicted by overflow since the journal was created.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotone_across_drains() {
        let mut j = Journal::default();
        j.push(1, TraceEvent::OrderAdmitted { order: 1 });
        j.push(2, TraceEvent::OrderShed { order: 2 });
        let first = j.drain();
        assert_eq!(first.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1]);
        j.push(3, TraceEvent::DegradeFlip { engaged: true });
        let second = j.drain();
        assert_eq!(second[0].seq, 2);
        assert_eq!(j.next_seq(), 3);
    }

    #[test]
    fn bump_never_lowers() {
        let mut j = Journal::default();
        j.bump_to(10);
        assert_eq!(j.next_seq(), 10);
        j.bump_to(5);
        assert_eq!(j.next_seq(), 10);
        j.push(0, TraceEvent::CheckpointWritten { lines: 4 });
        assert_eq!(j.drain()[0].seq, 10);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut j = Journal::default();
        for i in 0..(JOURNAL_CAP as u64 + 3) {
            j.push(0, TraceEvent::OrderAdmitted { order: i });
        }
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.records.len(), JOURNAL_CAP);
        let drained = j.drain();
        // Oldest retained record is seq 3; numbering has no gaps after.
        assert_eq!(drained[0].seq, 3);
        assert_eq!(
            drained.last().expect("non-empty").seq,
            JOURNAL_CAP as u64 + 2
        );
    }

    #[test]
    fn records_round_trip_as_json_lines() {
        let rec = TraceRecord {
            seq: 7,
            at: 3600,
            event: TraceEvent::OrderServed {
                order: 12,
                worker: 3,
                group_size: 2,
            },
        };
        let line = serde_json::to_string(&rec).expect("serialize");
        let back: TraceRecord = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, rec);
        assert_eq!(rec.event.kind(), "order_served");
    }
}
