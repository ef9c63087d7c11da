//! Basic timestamp ordering (Bernstein–Goodman), over `ccsim-tso`.

use ccsim_des::SimTime;
use ccsim_lockmgr::LockMode;
use ccsim_tso::{ReadOutcome, TsoManager, WriteOutcome};
use ccsim_workload::{ObjId, TxnId};

use super::{AbortCause, AttemptEnd, CcAction, Protocol};
use crate::engine::Simulator;
use crate::trace::TraceEvent;
use crate::txn::{ProgramShape, Step};

/// Basic T/O: reads and prewrites must respect timestamp order; late
/// operations restart with a fresh timestamp; readers wait out pending
/// smaller-timestamp prewrites.
#[derive(Default)]
pub(crate) struct BasicTo {
    tso: TsoManager,
    /// Readers a commit or abort wakes, reused across attempts.
    woken: Vec<TxnId>,
    /// Writes a commit applied (the Thomas write rule skips stale ones).
    applied: Vec<ObjId>,
}

impl Protocol for BasicTo {
    const SHAPE: ProgramShape = ProgramShape::Dynamic2pl;

    fn request(
        &mut self,
        sim: &mut Simulator,
        term: usize,
        obj: ObjId,
        mode: LockMode,
        now: SimTime,
    ) -> CcAction {
        let txn = sim.arena.get(term).expect("live txn");
        let (tid, ts) = (txn.id, (txn.attempt_start, txn.id));
        let granted = match mode {
            LockMode::Read => match self.tso.read(tid, obj, ts) {
                ReadOutcome::Granted => true,
                ReadOutcome::Wait => {
                    sim.block(term, obj, now);
                    return CcAction::Suspend;
                }
                ReadOutcome::Reject => false,
            },
            LockMode::Write => self.tso.prewrite(tid, obj, ts) == WriteOutcome::Granted,
        };
        if !granted {
            sim.emit(now, TraceEvent::TsRejected(tid, obj));
            sim.abort_and_restart(self, term, AbortCause::TsRejected, now);
            return CcAction::Suspend;
        }
        sim.arena.advance(term);
        if mode == LockMode::Read && sim.history.is_some() {
            // The version this read observes is decided *now*: record the
            // grant instant as the read time.
            sim.arena.push_read_time(term, now);
        }
        CcAction::Proceed
    }

    /// Reads are recorded at the timestamp-check grant instead (the version
    /// is fixed there; a larger-timestamp writer may legally publish
    /// between the grant and this access completion).
    fn observe_read(&self, _: &mut Simulator, _: usize, _: usize, _: SimTime) {}

    /// Commit applies the buffered prewrites, abort drops them (and a
    /// parked read); either way the readers parked on them resume. Unlike
    /// lock grants, a woken read is *re-checked*, not advanced past: the
    /// reader may wait again on another pending prewrite, be granted, or
    /// reject.
    fn release(&mut self, sim: &mut Simulator, term: usize, end: AttemptEnd, now: SimTime) {
        let txn = sim.arena.get(term).expect("live txn");
        let (tid, ts) = (txn.id, (txn.attempt_start, txn.id));
        match end {
            AttemptEnd::Abort => self.tso.abort_into(tid, ts, &mut self.woken),
            AttemptEnd::Commit => {
                self.tso
                    .commit_into(tid, ts, &mut self.woken, &mut self.applied);
                // The Thomas write rule may have skipped stale writes: only
                // the applied ones were published (fix the history record).
                if let Some(history) = sim.history.as_mut() {
                    debug_assert_eq!(history.txns().last().map(|t| t.id), Some(tid));
                    history.amend_last_writes(&self.applied);
                }
                self.applied.clear();
            }
        }
        for &w in &self.woken {
            let Some(term) = sim.unblock(w) else {
                continue;
            };
            // A T/O wait only ever happens on a read step; report which
            // object the reader resumes on.
            if let Step::LockRead(i) = sim.arena.get(term).expect("live txn").step() {
                let obj = sim.arena.read_at(term, i);
                sim.emit(now, TraceEvent::Grant(w, obj, LockMode::Read));
            }
        }
        self.woken.clear();
    }
}
