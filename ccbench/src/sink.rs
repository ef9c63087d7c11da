//! A counting [`EventSink`]: exact per-kind event counts, the resource
//! centers' flow totals, and (optionally) the lock manager's op stream
//! reconstructed from `Acquire` / `Block` / `Deadlock` / `LocksReleased` /
//! `Grant` so that it can be replayed through `LockManager`.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim_core::{EventSink, FlowStats, LockMode, ObjId, Report, TraceEvent, TxnId};
use ccsim_des::SimTime;

/// One lock-manager call the engine made, with the outcome it observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOp {
    /// `request` that was granted at once.
    Granted(TxnId, ObjId, LockMode),
    /// `request` that queued. The mode is not in the event: a transaction
    /// that already holds a read lock on the object is upgrading.
    Queued(TxnId, ObjId),
    /// `find_deadlock` after a block, and whether it found a cycle.
    FindDeadlock(TxnId, bool),
    /// `release_all` of a transaction holding `held` locks, and the queued
    /// requests it granted, in order.
    ReleaseAll {
        txn: TxnId,
        held: u32,
        grants: Vec<(TxnId, ObjId, LockMode)>,
    },
}

/// Exact event counts of one run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub arrive: u64,
    pub acquire: u64,
    pub block: u64,
    pub deadlock: u64,
    pub restart: u64,
    pub validation_failure: u64,
    pub commit: u64,
    pub locks_released: u64,
    pub flow: Option<FlowStats>,
    pub lock_ops: Vec<LockOp>,
}

#[derive(Default)]
struct State {
    counts: Counts,
    record_locks: bool,
    /// Deadlock found by `detector`; waiting for `victim`'s release.
    awaiting_victim: Option<(TxnId, TxnId)>,
    /// A detector still blocked after its victim's release: the engine
    /// calls `find_deadlock` for it again.
    pending_recheck: Option<TxnId>,
}

impl State {
    fn flush_recheck(&mut self) {
        if let Some(d) = self.pending_recheck.take() {
            self.counts.lock_ops.push(LockOp::FindDeadlock(d, false));
        }
    }

    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Acquire(t, o, m) => {
                self.flush_recheck();
                self.counts.lock_ops.push(LockOp::Granted(t, o, m));
            }
            TraceEvent::Block(t, o) => {
                self.flush_recheck();
                self.counts.lock_ops.push(LockOp::Queued(t, o));
                self.counts.lock_ops.push(LockOp::FindDeadlock(t, false));
            }
            TraceEvent::Deadlock { detector, victim } => {
                self.flush_recheck();
                if let Some(LockOp::FindDeadlock(_, found)) = self
                    .counts
                    .lock_ops
                    .iter_mut()
                    .rev()
                    .find(|op| matches!(op, LockOp::FindDeadlock(t, _) if *t == detector))
                {
                    *found = true;
                }
                self.awaiting_victim = Some((detector, victim));
            }
            TraceEvent::LocksReleased(t, held) => {
                match self.awaiting_victim {
                    Some((d, v)) if v == t => {
                        self.awaiting_victim = None;
                        if d != v {
                            self.pending_recheck = Some(d);
                        }
                    }
                    _ => self.flush_recheck(),
                }
                self.counts.lock_ops.push(LockOp::ReleaseAll {
                    txn: t,
                    held,
                    grants: Vec::new(),
                });
            }
            TraceEvent::Grant(t, o, m) => {
                if self.pending_recheck == Some(t) {
                    self.pending_recheck = None;
                }
                if let Some(LockOp::ReleaseAll { grants, .. }) = self.counts.lock_ops.last_mut() {
                    grants.push((t, o, m));
                }
            }
            TraceEvent::Restart(_) => {}
            _ => self.flush_recheck(),
        }
    }
}

/// The sink half: moved into the simulator.
pub struct CountingSink(Rc<RefCell<State>>);

/// The reader half: kept by the benchmark.
pub struct CountsHandle(Rc<RefCell<State>>);

/// A sink and the handle that reads it after the run. With
/// `record_locks`, the lock op stream is kept as well.
#[must_use]
pub fn counting_sink(record_locks: bool) -> (CountingSink, CountsHandle) {
    let st = Rc::new(RefCell::new(State {
        record_locks,
        ..State::default()
    }));
    (CountingSink(Rc::clone(&st)), CountsHandle(st))
}

impl CountsHandle {
    /// The counts so far (the lock stream is moved out).
    #[must_use]
    pub fn take(&self) -> Counts {
        let mut st = self.0.borrow_mut();
        st.flush_recheck();
        std::mem::take(&mut st.counts)
    }
}

impl EventSink for CountingSink {
    fn on_event(&mut self, _now: SimTime, ev: &TraceEvent) {
        let mut st = self.0.borrow_mut();
        let c = &mut st.counts;
        match ev {
            TraceEvent::Arrive(_) => c.arrive += 1,
            TraceEvent::Acquire(..) => c.acquire += 1,
            TraceEvent::Block(..) => c.block += 1,
            TraceEvent::Deadlock { .. } => c.deadlock += 1,
            TraceEvent::Restart(_) => c.restart += 1,
            TraceEvent::ValidationFailure(..) => c.validation_failure += 1,
            TraceEvent::Commit(_) => c.commit += 1,
            TraceEvent::LocksReleased(..) => c.locks_released += 1,
            _ => {}
        }
        if st.record_locks {
            st.record(ev);
        }
    }

    fn on_run_end(&mut self, _now: SimTime, _report: &Report, flow: &FlowStats) {
        self.0.borrow_mut().counts.flow = Some(*flow);
    }
}
