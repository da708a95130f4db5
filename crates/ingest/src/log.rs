//! The append log: producers push row batches, the maintenance thread
//! drains and folds them.
//!
//! Each appended batch is stamped with a dense, monotonically increasing
//! **sequence number** that doubles as a barrier (the risingwave-style
//! consistency marker): once [`IngestLog::wait_folded`] returns for a
//! sequence number, every batch up to and including it is part of the
//! served generation. Producers are backpressured — [`append`] blocks
//! while more than `max_pending_rows` rows wait to be folded — which is
//! what makes staleness *bounded* rather than merely measured.
//!
//! [`append`]: IngestLog::append

use crate::IngestError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tabula_storage::{validate_row, Schema, Value};

/// Lock `mutex`, recovering the guard when a holder panicked: every
/// critical section of this crate only pushes, drains or assigns, and none
/// can panic midway, so a poisoned state is still a whole one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `condvar`, recovering the guard as [`lock`] does.
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// One appended batch of rows, stamped with its barrier sequence number.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Barrier sequence number: dense, 1-based, assigned at append time.
    pub seq: u64,
    /// Row tuples, schema-validated against the served table.
    pub rows: Vec<Vec<Value>>,
    /// When the batch entered the log — the freshness-lag clock starts
    /// here and stops when the generation containing the batch is
    /// published.
    pub appended_at: Instant,
}

#[derive(Debug)]
struct LogState {
    pending: VecDeque<Batch>,
    pending_rows: usize,
    /// Sequence number the next appended batch will receive.
    next_seq: u64,
    /// Highest sequence number folded into a *published* generation.
    folded_seq: u64,
    appended_batches: u64,
    appended_rows: u64,
    /// Set by [`IngestLog::close`]: no further appends are accepted; the
    /// maintenance thread drains what is pending and halts.
    closed: bool,
    /// Set when the maintenance loop exits (clean drain or fold failure)
    /// so barrier waiters are never left blocking on progress that will
    /// not come.
    halted: bool,
}

/// Bounded multi-producer append log feeding the maintenance thread.
#[derive(Debug)]
pub struct IngestLog {
    schema: Schema,
    state: Mutex<LogState>,
    /// Producers → maintenance: batches arrived, or the log closed.
    arrival: Condvar,
    /// Maintenance → waiters: `folded_seq` advanced, backpressure freed,
    /// or the loop halted.
    progress: Condvar,
    max_pending_rows: usize,
}

impl IngestLog {
    /// An empty log for rows of `schema`, backpressuring producers once
    /// `max_pending_rows` rows wait to be folded.
    pub fn new(schema: Schema, max_pending_rows: usize) -> Self {
        IngestLog {
            schema,
            state: Mutex::new(LogState {
                pending: VecDeque::new(),
                pending_rows: 0,
                next_seq: 1,
                folded_seq: 0,
                appended_batches: 0,
                appended_rows: 0,
                closed: false,
                halted: false,
            }),
            arrival: Condvar::new(),
            progress: Condvar::new(),
            max_pending_rows: max_pending_rows.max(1),
        }
    }

    /// Schema every appended row must satisfy.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append one batch, returning its barrier sequence number.
    ///
    /// Rows are validated against the schema *here*, at the producer, so
    /// a malformed row fails its own append instead of poisoning the
    /// maintenance thread later. Blocks while the log is over its
    /// pending-row bound (bounded staleness); a batch larger than the
    /// bound is still accepted when the log is otherwise empty.
    pub fn append(&self, rows: Vec<Vec<Value>>) -> Result<u64, IngestError> {
        if rows.is_empty() {
            return Err(IngestError::EmptyBatch);
        }
        for row in &rows {
            validate_row(&self.schema, row).map_err(IngestError::Row)?;
        }
        let mut s = lock(&self.state);
        while !s.closed
            && !s.pending.is_empty()
            && s.pending_rows + rows.len() > self.max_pending_rows
        {
            s = wait(&self.progress, s);
        }
        if s.closed {
            return Err(IngestError::Closed);
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.pending_rows += rows.len();
        s.appended_batches += 1;
        s.appended_rows += rows.len() as u64;
        s.pending.push_back(Batch { seq, rows, appended_at: Instant::now() });
        drop(s);
        self.arrival.notify_one();
        Ok(seq)
    }

    /// Maintenance side: wait until a batch is pending or the log has
    /// closed, then drain at most `max_batches` batches (empty only when
    /// the log closed with nothing left).
    pub(crate) fn wait_drain(&self, max_batches: usize) -> Vec<Batch> {
        let mut s = lock(&self.state);
        while s.pending.is_empty() && !s.closed {
            s = wait(&self.arrival, s);
        }
        let take = max_batches.max(1).min(s.pending.len());
        let drained: Vec<Batch> = s.pending.drain(..take).collect();
        s.pending_rows -= drained.iter().map(|b| b.rows.len()).sum::<usize>();
        drop(s);
        if !drained.is_empty() {
            // Backpressured producers may proceed; rows now in flight are
            // bounded by one fold's worth on top of `max_pending_rows`.
            self.progress.notify_all();
        }
        drained
    }

    /// Maintenance side: everything up to `seq` is now served.
    pub(crate) fn mark_folded(&self, seq: u64) {
        let mut s = lock(&self.state);
        s.folded_seq = s.folded_seq.max(seq);
        drop(s);
        self.progress.notify_all();
    }

    /// Maintenance side: the loop exited; wake every waiter for good.
    pub(crate) fn mark_halted(&self) {
        let mut s = lock(&self.state);
        s.halted = true;
        drop(s);
        self.progress.notify_all();
        self.arrival.notify_all();
    }

    /// Stop accepting appends and let the maintenance thread drain out.
    pub fn close(&self) {
        let mut s = lock(&self.state);
        s.closed = true;
        drop(s);
        self.arrival.notify_all();
        self.progress.notify_all();
    }

    /// Highest barrier sequence number folded into a served generation.
    pub fn folded_seq(&self) -> u64 {
        lock(&self.state).folded_seq
    }

    /// Sequence number of the most recently appended batch (0 if none).
    pub fn last_appended_seq(&self) -> u64 {
        lock(&self.state).next_seq - 1
    }

    /// Block until every batch up to `seq` is part of the served
    /// generation. Returns `false` if the maintenance loop halted before
    /// getting there (shutdown or fold failure).
    pub fn wait_folded(&self, seq: u64) -> bool {
        let mut s = lock(&self.state);
        loop {
            if s.folded_seq >= seq {
                return true;
            }
            if s.halted {
                return false;
            }
            s = wait(&self.progress, s);
        }
    }

    /// Unfolded backlog: (batches, rows).
    pub fn pending(&self) -> (usize, usize) {
        let s = lock(&self.state);
        (s.pending.len(), s.pending_rows)
    }

    /// Totals accepted so far: (batches, rows).
    pub fn appended(&self) -> (u64, u64) {
        let s = lock(&self.state);
        (s.appended_batches, s.appended_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::{TaxiConfig, TaxiGenerator};

    fn rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
        let t = TaxiGenerator::new(TaxiConfig { rows: n, seed }).generate();
        (0..t.len()).map(|r| t.row(r)).collect()
    }

    #[test]
    fn sequence_numbers_are_dense_and_validated() {
        let schema =
            TaxiGenerator::new(TaxiConfig { rows: 1, seed: 1 }).generate().schema().clone();
        let log = IngestLog::new(schema, 1 << 20);
        assert_eq!(log.append(rows(3, 1)).unwrap(), 1);
        assert_eq!(log.append(rows(2, 2)).unwrap(), 2);
        assert_eq!(log.last_appended_seq(), 2);
        assert_eq!(log.pending(), (2, 5));
        // Empty and malformed batches are rejected at the producer.
        assert_eq!(log.append(Vec::new()), Err(IngestError::EmptyBatch));
        assert!(matches!(log.append(vec![vec![Value::Int64(1)]]), Err(IngestError::Row(_))));
        // Draining preserves order and frees the backlog accounting.
        let drained = log.wait_drain(8);
        assert_eq!(drained.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(log.pending(), (0, 0));
        log.mark_folded(2);
        assert!(log.wait_folded(2));
    }

    #[test]
    fn close_rejects_appends_and_halt_unblocks_waiters() {
        let schema =
            TaxiGenerator::new(TaxiConfig { rows: 1, seed: 1 }).generate().schema().clone();
        let log = IngestLog::new(schema, 16);
        log.append(rows(1, 3)).unwrap();
        log.close();
        assert_eq!(log.append(rows(1, 4)), Err(IngestError::Closed));
        // Batch 1 never folds; a halted log must not hang the waiter.
        log.mark_halted();
        assert!(!log.wait_folded(1));
    }

    #[test]
    fn a_poisoned_log_still_appends_and_drains() {
        let schema =
            TaxiGenerator::new(TaxiConfig { rows: 1, seed: 1 }).generate().schema().clone();
        let log = IngestLog::new(schema, 16);
        log.append(rows(2, 5)).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = log.state.lock();
                panic!("a holder dies with the log locked");
            })
            .join()
        });
        assert!(panicked.is_err() && log.state.is_poisoned());
        assert_eq!(log.append(rows(1, 6)).unwrap(), 2);
        assert_eq!(log.pending(), (2, 3));
        let drained = log.wait_drain(8);
        assert_eq!(drained.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1, 2]);
        log.mark_folded(2);
        assert!(log.wait_folded(2));
        assert_eq!(log.folded_seq(), 2);
    }
}
