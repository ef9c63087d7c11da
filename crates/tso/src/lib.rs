//! `ccsim-tso` — basic timestamp ordering (T/O), after Bernstein & Goodman.
//!
//! The concurrency control family behind several of the contradictory
//! studies the paper reconciles (`[Gall82]` and `[Lin83]` compared locking to
//! basic timestamp ordering with opposite conclusions). Every transaction
//! attempt carries a unique timestamp (its start time, with the transaction
//! id as tie-break); operations must execute in timestamp order per object:
//!
//! * **read(X, ts)** — rejected if a transaction with a *larger* timestamp
//!   already committed a write to `X` (the read arrived too late). If an
//!   *uncommitted* prewrite with a smaller timestamp is pending, the read
//!   must **wait** for that writer's fate (the version it should observe
//!   does not exist yet). Otherwise it is granted and raises the read
//!   timestamp.
//! * **prewrite(X, ts)** — rejected if a read or committed write with a
//!   larger timestamp exists (the write arrived too late). Otherwise it is
//!   buffered (deferred updates).
//! * **commit** — applies the buffered writes. A write whose timestamp is
//!   below the object's committed-write timestamp is *skipped*: the Thomas
//!   write rule (the newer version logically overwrites it anyway).
//! * **abort** — drops the pending prewrites, waking any waiting readers.
//!
//! Readers wait only for *smaller*-timestamp writers and writers never
//! wait, so waits-for chains strictly decrease in timestamp: basic T/O is
//! deadlock-free by construction.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::HashMap;

use ccsim_des::{SimDuration, SimTime};
use ccsim_workload::{ObjId, ObjMap, TxnId};

/// A transaction timestamp: attempt start time, transaction id as
/// tie-break. Totally ordered and unique per attempt.
pub type Ts = (SimTime, TxnId);

/// Outcome of a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read may proceed.
    Granted,
    /// A smaller-timestamp prewrite is pending; the reader must wait for
    /// that writer to commit or abort, then retry the read.
    Wait,
    /// The read arrived too late (a larger-timestamp write committed);
    /// restart with a fresh timestamp.
    Reject,
}

/// Outcome of a prewrite request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The prewrite is buffered.
    Granted,
    /// The write arrived too late (a larger-timestamp read or committed
    /// write exists); restart with a fresh timestamp.
    Reject,
}

#[derive(Debug, Default)]
struct ObjState {
    /// Largest granted read timestamp.
    rts: Option<Ts>,
    /// Largest committed write timestamp.
    wts: Option<Ts>,
    /// Uncommitted buffered prewrites.
    pending: Vec<Ts>,
    /// Readers waiting for a smaller pending prewrite to resolve.
    waiting: Vec<TxnId>,
}

impl ObjState {
    fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.waiting.is_empty()
    }
}

/// The timestamp-ordering manager.
#[derive(Debug, Default)]
pub struct TsoManager {
    objects: HashMap<ObjId, ObjState>,
    /// Objects each live attempt has prewritten (for commit/abort).
    prewrites: HashMap<TxnId, Vec<ObjId>>,
    /// Objects each waiting reader is parked on.
    parked: HashMap<TxnId, ObjId>,
    rejects: u64,
    waits: u64,
}

impl TsoManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> Self {
        TsoManager::default()
    }

    /// Request a read of `obj` at timestamp `ts` for `txn`.
    ///
    /// A [`ReadOutcome::Wait`] parks the reader; it is returned by the
    /// wake-up lists of [`TsoManager::commit_into`] /
    /// [`TsoManager::abort_into`] and must then re-issue the read.
    pub fn read(&mut self, txn: TxnId, obj: ObjId, ts: Ts) -> ReadOutcome {
        let state = self.objects.entry(obj).or_default();
        if state.wts.is_some_and(|w| w > ts) {
            self.rejects += 1;
            return ReadOutcome::Reject;
        }
        // The reader's own prewrites cannot exist (reads precede writes in
        // the transaction program), but be robust anyway.
        if state
            .pending
            .iter()
            .any(|&(at, t)| (at, t) < ts && t != txn)
        {
            state.waiting.push(txn);
            self.parked.insert(txn, obj);
            self.waits += 1;
            return ReadOutcome::Wait;
        }
        if state.rts.is_none_or(|r| r < ts) {
            state.rts = Some(ts);
        }
        ReadOutcome::Granted
    }

    /// Request a prewrite of `obj` at timestamp `ts` for `txn`.
    pub fn prewrite(&mut self, txn: TxnId, obj: ObjId, ts: Ts) -> WriteOutcome {
        let state = self.objects.entry(obj).or_default();
        if state.rts.is_some_and(|r| r > ts) || state.wts.is_some_and(|w| w > ts) {
            self.rejects += 1;
            return WriteOutcome::Reject;
        }
        state.pending.push(ts);
        self.prewrites.entry(txn).or_default().push(obj);
        WriteOutcome::Granted
    }

    /// Commit `txn` at timestamp `ts`: apply its buffered writes (Thomas
    /// write rule skips stale ones) and wake readers that were parked on
    /// them. The woken readers are appended to `woken` and the applied
    /// writes — the objects whose committed version this transaction now
    /// owns — to `applied`; existing contents are untouched, so callers
    /// reuse both buffers across commits.
    pub fn commit_into(
        &mut self,
        txn: TxnId,
        ts: Ts,
        woken: &mut Vec<TxnId>,
        applied: &mut Vec<ObjId>,
    ) {
        let objs = self.prewrites.remove(&txn).unwrap_or_default();
        for obj in objs {
            let state = self
                .objects
                .get_mut(&obj)
                .expect("prewritten object exists");
            state.pending.retain(|&p| p != ts);
            if state.wts.is_none_or(|w| w < ts) {
                state.wts = Some(ts);
                applied.push(obj);
            }
            // All waiting readers get a wake-up; they re-run their read
            // check and may wait again on another pending prewrite.
            for reader in state.waiting.drain(..) {
                self.parked.remove(&reader);
                woken.push(reader);
            }
            if state.is_quiescent() && state.rts.is_none() && state.wts.is_none() {
                self.objects.remove(&obj);
            }
        }
    }

    /// Abort `txn`'s attempt with timestamp `ts`: drop its prewrites and
    /// cancel its parked read (if any). The readers to wake are appended to
    /// `woken` (existing contents are untouched).
    pub fn abort_into(&mut self, txn: TxnId, ts: Ts, woken: &mut Vec<TxnId>) {
        if let Some(obj) = self.parked.remove(&txn) {
            if let Some(state) = self.objects.get_mut(&obj) {
                state.waiting.retain(|&t| t != txn);
            }
        }
        for obj in self.prewrites.remove(&txn).unwrap_or_default() {
            let Some(state) = self.objects.get_mut(&obj) else {
                continue;
            };
            state.pending.retain(|&p| p != ts);
            for reader in state.waiting.drain(..) {
                self.parked.remove(&reader);
                woken.push(reader);
            }
        }
    }

    /// The object a transaction is parked on, if any.
    #[must_use]
    pub fn parked_on(&self, txn: TxnId) -> Option<ObjId> {
        self.parked.get(&txn).copied()
    }

    /// Lifetime counters: `(rejects, waits)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.rejects, self.waits)
    }

    /// Verify internal invariants (test aid).
    ///
    /// # Panics
    /// Panics if the cross-indexes disagree with the object table.
    pub fn assert_consistent(&self) {
        for (txn, obj) in &self.parked {
            assert!(
                self.objects
                    .get(obj)
                    .is_some_and(|s| s.waiting.contains(txn)),
                "{txn} parked on {obj} but not in its waiting list"
            );
        }
        for (txn, objs) in &self.prewrites {
            for obj in objs {
                assert!(
                    self.objects
                        .get(obj)
                        .is_some_and(|s| s.pending.iter().any(|&(_, t)| t == *txn)),
                    "{txn} prewrite on {obj} missing from pending set"
                );
            }
        }
    }
}

/// One object's TicToc timestamp-interval state: the logical write
/// timestamp of its latest committed version and the furthest logical time
/// any committed reader has extended that version's validity to.
/// `wts <= rts` always; the default (never accessed) entry is `(0, 0)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtWord {
    /// Logical commit timestamp of the latest committed version.
    pub wts: SimTime,
    /// Latest logical time the version is known valid to (read extension).
    pub rts: SimTime,
}

/// Why a TicToc commit-timestamp derivation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtConflict {
    /// The read object whose observed version was superseded.
    pub obj: ObjId,
    /// The logical write timestamp of the superseding version.
    pub superseded_by: SimTime,
}

/// TicToc-style timestamp recomputation (Yu et al.).
///
/// Unlike basic T/O, transactions carry **no** a-priori timestamp: each
/// access records the version it observed (the object's `wts` at read
/// time), and the commit point *derives* a commit timestamp that lies
/// within every accessed interval — at or after every observed version, and
/// strictly after every read extension of the objects being written. A
/// transaction aborts only when a read version was superseded *and* the
/// derived timestamp cannot retreat inside the window the read observed
/// (`[wts, rts]` at access time), so neither physical arrival order nor a
/// concurrent writer by itself forces a restart.
///
/// Logical commit timestamps are [`SimTime`]s advanced in 1 µs ticks; they
/// order the serialization, not the simulation clock — a read-only
/// transaction can serialize logically *before* writers that physically
/// preceded it.
#[derive(Debug, Default)]
pub struct TicTocManager {
    words: ObjMap<TtWord>,
    validations: u64,
    failures: u64,
    extensions: u64,
}

impl TicTocManager {
    /// The logical tick separating a new version from the read extensions
    /// of its predecessor.
    const TICK: SimDuration = SimDuration::from_micros(1);

    /// An empty manager (every object at the `(0, 0)` interval).
    #[must_use]
    pub fn new() -> Self {
        TicTocManager::default()
    }

    /// The word a reader observes for `obj` right now.
    #[must_use]
    pub fn word(&self, obj: ObjId) -> TtWord {
        self.words.get(obj).unwrap_or_default()
    }

    /// The `wts` a read of `obj` records at access time.
    #[must_use]
    pub fn observe(&self, obj: ObjId) -> SimTime {
        self.word(obj).wts
    }

    /// Derive a commit timestamp for a transaction whose reads observed
    /// `reads` (`(object, word observed at read time)`) and whose write set
    /// is `writes` and, on success, publish it: extend the `rts` of every
    /// still-current read version to the commit timestamp and install the
    /// written objects' new versions at it. Writes must be a subset of
    /// reads (the workload always reads what it writes).
    ///
    /// This is where TicToc beats Silo: a read whose version *was*
    /// superseded is still valid when the commit timestamp fits inside the
    /// version's observed validity window (`commit_ts <= rts` recorded at
    /// read time) — the transaction simply serializes logically before the
    /// superseding writer. That is sound because every superseder installs
    /// strictly above the rts it saw, and rts only grows while a version
    /// is current, so the observed rts always undercuts the first
    /// superseding wts.
    ///
    /// # Errors
    /// Returns the first [`TtConflict`] found: a read version superseded by
    /// a later committed write *and* a commit timestamp forced past the
    /// version's observed validity, so no timestamp can make the read and
    /// the supersession coexist.
    pub fn validate_and_commit(
        &mut self,
        reads: &[(ObjId, TtWord)],
        writes: &[ObjId],
    ) -> Result<SimTime, TtConflict> {
        self.validations += 1;
        // The commit timestamp must cover every observed version and land
        // strictly after every read extension of the objects being written.
        let mut commit_ts = SimTime::ZERO;
        for &(_, observed) in reads {
            commit_ts = commit_ts.max(observed.wts);
        }
        for &obj in writes {
            let w = self.word(obj);
            commit_ts = commit_ts.max(w.rts + Self::TICK);
        }
        // A superseded read is fatal only if the commit timestamp cannot
        // retreat into the version's observed validity window.
        for &(obj, observed) in reads {
            let current = self.word(obj).wts;
            if current != observed.wts && commit_ts > observed.rts {
                self.failures += 1;
                return Err(TtConflict {
                    obj,
                    superseded_by: current,
                });
            }
        }
        for &(obj, observed) in reads {
            let mut word = self.word(obj);
            // Only a still-current version's entry may be extended; a
            // superseded read needs no extension (its validity through
            // `commit_ts` was already witnessed at read time).
            if word.wts == observed.wts && word.rts < commit_ts {
                word.rts = commit_ts;
                self.words.insert(obj, word);
                self.extensions += 1;
            }
        }
        for &obj in writes {
            self.words.insert(
                obj,
                TtWord {
                    wts: commit_ts,
                    rts: commit_ts,
                },
            );
        }
        Ok(commit_ts)
    }

    /// Number of objects with a non-default word.
    #[must_use]
    pub fn tracked_objects(&self) -> usize {
        self.words.len()
    }

    /// Lifetime counters: `(validations, failures, rts_extensions)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.validations, self.failures, self.extensions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64, id: u64) -> Ts {
        (SimTime::from_secs(s), TxnId(id))
    }
    fn o(v: u64) -> ObjId {
        ObjId(v)
    }
    fn t(v: u64) -> TxnId {
        TxnId(v)
    }
    /// `(woken, applied)` of one commit, into fresh buffers.
    fn commit(m: &mut TsoManager, txn: TxnId, ts: Ts) -> (Vec<TxnId>, Vec<ObjId>) {
        let (mut woken, mut applied) = (Vec::new(), Vec::new());
        m.commit_into(txn, ts, &mut woken, &mut applied);
        (woken, applied)
    }
    /// The readers one abort wakes, into a fresh buffer.
    fn abort(m: &mut TsoManager, txn: TxnId, ts: Ts) -> Vec<TxnId> {
        let mut woken = Vec::new();
        m.abort_into(txn, ts, &mut woken);
        woken
    }

    #[test]
    fn reads_and_writes_in_timestamp_order_flow_through() {
        let mut m = TsoManager::new();
        assert_eq!(m.read(t(1), o(1), ts(1, 1)), ReadOutcome::Granted);
        assert_eq!(m.prewrite(t(2), o(1), ts(2, 2)), WriteOutcome::Granted);
        let (woken, applied) = commit(&mut m, t(2), ts(2, 2));
        assert!(woken.is_empty());
        assert_eq!(applied, vec![o(1)]);
        assert_eq!(m.read(t(3), o(1), ts(3, 3)), ReadOutcome::Granted);
        m.assert_consistent();
    }

    #[test]
    fn late_read_is_rejected() {
        let mut m = TsoManager::new();
        m.prewrite(t(2), o(1), ts(5, 2));
        commit(&mut m, t(2), ts(5, 2));
        assert_eq!(m.read(t(1), o(1), ts(3, 1)), ReadOutcome::Reject);
        assert_eq!(m.counters().0, 1);
    }

    #[test]
    fn late_write_is_rejected_by_read_timestamp() {
        let mut m = TsoManager::new();
        m.read(t(9), o(1), ts(9, 9));
        assert_eq!(m.prewrite(t(1), o(1), ts(3, 1)), WriteOutcome::Reject);
    }

    #[test]
    fn late_write_is_rejected_by_committed_write() {
        let mut m = TsoManager::new();
        m.prewrite(t(9), o(1), ts(9, 9));
        commit(&mut m, t(9), ts(9, 9));
        assert_eq!(m.prewrite(t(1), o(1), ts(3, 1)), WriteOutcome::Reject);
    }

    #[test]
    fn reader_waits_for_smaller_pending_prewrite() {
        let mut m = TsoManager::new();
        assert_eq!(m.prewrite(t(1), o(1), ts(1, 1)), WriteOutcome::Granted);
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Wait);
        assert_eq!(m.parked_on(t(5)), Some(o(1)));
        m.assert_consistent();
        // The writer commits: the reader wakes and its retry is granted.
        let (woken, _) = commit(&mut m, t(1), ts(1, 1));
        assert_eq!(woken, vec![t(5)]);
        assert_eq!(m.parked_on(t(5)), None);
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Granted);
        m.assert_consistent();
    }

    #[test]
    fn reader_does_not_wait_for_larger_pending_prewrite() {
        let mut m = TsoManager::new();
        m.prewrite(t(9), o(1), ts(9, 9));
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Granted);
    }

    #[test]
    fn aborting_writer_wakes_waiting_reader() {
        let mut m = TsoManager::new();
        m.prewrite(t(1), o(1), ts(1, 1));
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Wait);
        let woken = abort(&mut m, t(1), ts(1, 1));
        assert_eq!(woken, vec![t(5)]);
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Granted);
        m.assert_consistent();
    }

    #[test]
    fn thomas_write_rule_skips_stale_commit() {
        let mut m = TsoManager::new();
        m.prewrite(t(1), o(1), ts(1, 1));
        m.prewrite(t(2), o(1), ts(2, 2));
        // The younger write commits first...
        let (_, applied) = commit(&mut m, t(2), ts(2, 2));
        assert_eq!(applied, vec![o(1)]);
        // ...so the older one is skipped at its commit.
        let (_, applied) = commit(&mut m, t(1), ts(1, 1));
        assert!(applied.is_empty(), "stale write must be skipped");
        // And readers between the two timestamps now reject.
        assert_eq!(
            m.read(t(9), o(1), (SimTime::from_millis(1500), t(9))),
            ReadOutcome::Reject
        );
    }

    #[test]
    fn aborted_attempt_cancels_parked_read() {
        let mut m = TsoManager::new();
        m.prewrite(t(1), o(1), ts(1, 1));
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Wait);
        // The *reader* aborts (e.g. wounded elsewhere): its parking is
        // cancelled, and the writer's later commit wakes nobody.
        let woken = abort(&mut m, t(5), ts(5, 5));
        assert!(woken.is_empty());
        let (woken, _) = commit(&mut m, t(1), ts(1, 1));
        assert!(woken.is_empty());
        m.assert_consistent();
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let mut m = TsoManager::new();
        m.prewrite(t(1), o(1), ts(1, 1));
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Wait);
        assert_eq!(m.read(t(6), o(1), ts(6, 6)), ReadOutcome::Wait);
        let (mut woken, _) = commit(&mut m, t(1), ts(1, 1));
        woken.sort();
        assert_eq!(woken, vec![t(5), t(6)]);
    }

    #[test]
    fn wakeup_buffers_are_appended_to() {
        let mut m = TsoManager::new();
        let (mut woken, mut applied) = (vec![t(99)], vec![o(99)]);
        m.prewrite(t(1), o(1), ts(1, 1));
        assert_eq!(m.read(t(5), o(1), ts(5, 5)), ReadOutcome::Wait);
        m.commit_into(t(1), ts(1, 1), &mut woken, &mut applied);
        assert_eq!((woken, applied), (vec![t(99), t(5)], vec![o(99), o(1)]));
        let mut woken = vec![t(99)];
        m.prewrite(t(2), o(2), ts(2, 2));
        assert_eq!(m.read(t(6), o(2), ts(6, 6)), ReadOutcome::Wait);
        m.abort_into(t(2), ts(2, 2), &mut woken);
        assert_eq!(woken, vec![t(99), t(6)]);
    }

    #[test]
    fn rts_advances_monotonically() {
        let mut m = TsoManager::new();
        m.read(t(5), o(1), ts(5, 5));
        m.read(t(3), o(1), ts(3, 3)); // smaller read is fine
                                      // A write between 3 and 5 must still reject (rts = 5).
        assert_eq!(m.prewrite(t(4), o(1), ts(4, 4)), WriteOutcome::Reject);
    }

    #[test]
    fn counters_track() {
        let mut m = TsoManager::new();
        m.prewrite(t(1), o(1), ts(5, 1));
        commit(&mut m, t(1), ts(5, 1));
        m.read(t(2), o(1), ts(1, 2)); // reject
        m.prewrite(t(3), o(2), ts(1, 3));
        m.read(t(4), o(2), ts(9, 4)); // wait
        assert_eq!(m.counters(), (1, 1));
    }

    fn fresh() -> TtWord {
        TtWord::default()
    }

    #[test]
    fn tictoc_reader_of_current_versions_commits_at_max_wts() {
        let mut m = TicTocManager::new();
        let w = m.validate_and_commit(&[(o(1), fresh())], &[o(1)]).unwrap();
        assert!(w > SimTime::ZERO);
        // A reader that observed the new version serializes at or after it.
        let word = m.word(o(1));
        let r = m.validate_and_commit(&[(o(1), word)], &[]).unwrap();
        assert_eq!(r, w);
        assert_eq!(m.word(o(1)).rts, w);
    }

    #[test]
    fn tictoc_superseded_read_aborts_when_pushed_past_its_window() {
        let mut m = TicTocManager::new();
        // Supersede obj1 and install a version on obj2.
        let w1 = m.validate_and_commit(&[(o(1), fresh())], &[o(1)]).unwrap();
        m.validate_and_commit(&[(o(2), fresh())], &[o(2)]).unwrap();
        let o2_now = m.word(o(2));
        // A reader of obj1's pre-write version whose obj2 read drags the
        // commit timestamp past obj1's observed validity (rts 0) must fail.
        let err = m
            .validate_and_commit(&[(o(1), fresh()), (o(2), o2_now)], &[])
            .unwrap_err();
        assert_eq!(err.obj, o(1));
        assert_eq!(err.superseded_by, w1);
        assert_eq!(m.counters().1, 1);
    }

    #[test]
    fn tictoc_superseded_read_commits_inside_its_observed_window() {
        let mut m = TicTocManager::new();
        // A first committer extends obj1's validity past time zero.
        m.validate_and_commit(&[(o(1), fresh()), (o(2), fresh())], &[o(2)])
            .unwrap();
        let observed = m.word(o(1));
        assert!(observed.rts > SimTime::ZERO);
        let o2_word = m.word(o(2));
        // Now obj1 is superseded...
        let sup = m.validate_and_commit(&[(o(1), observed)], &[o(1)]).unwrap();
        // ...yet a reader holding the old observation still commits, by
        // serializing logically before the superseder.
        let r = m
            .validate_and_commit(&[(o(1), observed), (o(2), o2_word)], &[])
            .unwrap();
        assert!(r <= observed.rts);
        assert!(r < sup, "past-commit must precede the superseder");
        assert_eq!(m.counters().1, 0, "no failures");
    }

    #[test]
    fn tictoc_write_of_a_superseded_object_still_aborts() {
        let mut m = TicTocManager::new();
        let w1 = m.validate_and_commit(&[(o(1), fresh())], &[o(1)]).unwrap();
        // A read-modify-write that observed the pre-write version cannot
        // retreat: its own write must land above the current rts.
        let err = m
            .validate_and_commit(&[(o(1), fresh())], &[o(1)])
            .unwrap_err();
        assert_eq!(err.obj, o(1));
        assert_eq!(err.superseded_by, w1);
    }

    #[test]
    fn tictoc_writer_lands_after_read_extensions() {
        let mut m = TicTocManager::new();
        // A committed reader extends obj1's rts to its commit timestamp...
        m.validate_and_commit(&[(o(1), fresh()), (o(2), fresh())], &[o(2)])
            .unwrap();
        let word = m.word(o(1));
        assert!(word.rts > SimTime::ZERO);
        // ...so a later writer of obj1 must serialize strictly after it.
        let w = m.validate_and_commit(&[(o(1), word)], &[o(1)]).unwrap();
        assert!(
            w > word.rts,
            "writer {w:?} must clear the read extension {:?}",
            word.rts
        );
        assert_eq!(m.word(o(1)), TtWord { wts: w, rts: w });
    }

    #[test]
    fn tictoc_physical_order_does_not_force_aborts() {
        // The signature TicToc behaviour: a late-arriving reader of an old
        // snapshot commits by serializing logically before a writer that
        // already committed, as long as its versions still stand.
        let mut m = TicTocManager::new();
        let w1 = m.validate_and_commit(&[(o(1), fresh())], &[o(1)]).unwrap();
        // Reader observed obj2 before any write; obj2 is untouched, so the
        // read version stands and the commit derives a timestamp (≤ w1,
        // logically "before" obj1's writer as far as obj2 is concerned).
        let r = m.validate_and_commit(&[(o(2), fresh())], &[]).unwrap();
        assert!(r <= w1);
    }

    #[test]
    fn tictoc_extensions_count() {
        let mut m = TicTocManager::new();
        m.validate_and_commit(&[(o(1), fresh())], &[o(1)]).unwrap();
        let word = m.word(o(1));
        m.validate_and_commit(&[(o(1), word), (o(2), fresh())], &[o(2)])
            .unwrap();
        let (validations, failures, extensions) = m.counters();
        assert_eq!(validations, 2);
        assert_eq!(failures, 0);
        assert!(extensions >= 1);
        assert_eq!(m.tracked_objects(), 2);
    }
}
