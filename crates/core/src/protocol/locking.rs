//! The locking family: one strict-2PL lock table protocol whose conflict
//! rule — what a request that cannot be granted does — is a compile-time
//! parameter. Blocking and static locking share the waiting rule (static
//! locking's canonical preclaim order makes its deadlock search a no-op);
//! immediate-restart and no-waiting share the denial rule and differ only
//! in the restart delay.

use ccsim_des::SimTime;
use ccsim_lockmgr::{Grant, LockManager, LockMode, RequestOutcome};
use ccsim_workload::{ObjId, TxnId};

use super::{AbortCause, AttemptEnd, CcAction, Protocol};
use crate::algorithm::VictimPolicy;
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::trace::TraceEvent;
use crate::txn::{ProgramShape, Step, TxnState};

/// Wait on conflict; detect deadlocks at every block and restart a victim
/// from the cycle (paper §2).
pub(crate) const BLOCKING: u8 = 0;
/// [`BLOCKING`] with every lock preclaimed before the first access.
pub(crate) const STATIC_LOCKING: u8 = 1;
/// Restart on any denial, after the restart delay (paper §2).
pub(crate) const IMMEDIATE_RESTART: u8 = 2;
/// [`IMMEDIATE_RESTART`] without the restart delay.
pub(crate) const NO_WAITING: u8 = 3;
/// An older requester waits; a younger one dies.
pub(crate) const WAIT_DIE: u8 = 4;
/// An older requester wounds (aborts) younger holders; a younger one waits.
pub(crate) const WOUND_WAIT: u8 = 5;

/// The lock table plus the scratch buffers its cascades reuse, so lock
/// releases and blocker queries never allocate in steady state.
pub(crate) struct Locking<const RULE: u8> {
    lm: LockManager,
    grants: Vec<Grant>,
    blockers: Vec<TxnId>,
    victim: VictimPolicy,
}

/// A transaction's priority under wait-die / wound-wait and the victim
/// policies: its original arrival (which survives restarts), the id
/// breaking ties. Smaller is older.
fn timestamp_of(sim: &Simulator, tid: TxnId) -> (SimTime, TxnId) {
    let t = sim.arena.get(sim.term_of(tid)).expect("live txn");
    debug_assert_eq!(t.id, tid);
    (t.arrival, t.id)
}

impl<const RULE: u8> Locking<RULE> {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let p = &cfg.params;
        Locking {
            lm: LockManager::with_capacity(p.db_size as usize, p.num_terms as usize),
            grants: Vec::new(),
            blockers: Vec::new(),
            victim: cfg.victim,
        }
    }

    /// Detect and break deadlocks after `term` blocked, until `term` is no
    /// longer blocked or no cycle remains.
    fn resolve_deadlocks(&mut self, sim: &mut Simulator, term: usize, now: SimTime) {
        loop {
            let txn = sim.arena.get(term).expect("live txn");
            if txn.state != TxnState::Blocked {
                return;
            }
            let detector = txn.id;
            let Some(cycle) = self.lm.find_deadlock(detector) else {
                return;
            };
            let key = |tid: &TxnId| timestamp_of(sim, *tid);
            let victim = *match self.victim {
                VictimPolicy::Youngest => cycle.iter().max_by_key(|t| key(t)),
                VictimPolicy::Oldest => cycle.iter().min_by_key(|t| key(t)),
                VictimPolicy::FewestLocks => cycle
                    .iter()
                    .min_by_key(|t| (self.lm.locks_held(**t), key(t))),
            }
            .expect("cycle");
            sim.emit(now, TraceEvent::Deadlock { detector, victim });
            sim.abort_and_restart(self, sim.term_of(victim), AbortCause::Deadlock, now);
        }
    }

    /// Wound-wait: wound younger blockers one at a time, re-reading the
    /// blocker set after each abort (releasing a victim's locks can
    /// cascade and retire other would-be victims). Holders past their
    /// commit point are spared: wounding them gains nothing. Returns
    /// whether the requester's attempt survived the cascade.
    fn wound_younger(
        &mut self,
        sim: &mut Simulator,
        term: usize,
        tid: TxnId,
        obj: ObjId,
        mode: LockMode,
        now: SimTime,
    ) -> bool {
        let my_ts = timestamp_of(sim, tid);
        loop {
            self.lm.blockers_into(tid, obj, mode, &mut self.blockers);
            let victim = self.blockers.iter().copied().find(|&b| {
                sim.arena.get(sim.term_of(b)).is_some_and(|bt| {
                    bt.id == b
                        && (bt.arrival, bt.id) > my_ts
                        && bt.state.is_active()
                        && !matches!(bt.step(), Step::UpdateIo(_) | Step::Commit)
                })
            });
            self.blockers.clear();
            let Some(b) = victim else { break };
            sim.abort_and_restart(self, sim.term_of(b), AbortCause::Wounded, now);
        }
        // The cascade can come full circle: a dispatched waiter older than
        // the requester may have wounded it in turn.
        let txn = sim.arena.get(term).expect("live txn");
        txn.id == tid && txn.state == TxnState::Running
    }

    /// Wait-die: does an older transaction block this request?
    fn older_blocker(&mut self, sim: &Simulator, tid: TxnId, obj: ObjId, mode: LockMode) -> bool {
        let my_ts = timestamp_of(sim, tid);
        self.lm.blockers_into(tid, obj, mode, &mut self.blockers);
        let older = self.blockers.iter().any(|&b| timestamp_of(sim, b) < my_ts);
        self.blockers.clear();
        older
    }
}

impl<const RULE: u8> Protocol for Locking<RULE> {
    const SHAPE: ProgramShape = if RULE == STATIC_LOCKING {
        ProgramShape::Static2pl
    } else {
        ProgramShape::Dynamic2pl
    };

    fn request(
        &mut self,
        sim: &mut Simulator,
        term: usize,
        obj: ObjId,
        mode: LockMode,
        now: SimTime,
    ) -> CcAction {
        // Start pulling the object's lock-table line in while the
        // requester's record loads (a pure hint).
        self.lm.prefetch(obj);
        let tid = sim.arena.get(term).expect("live txn").id;
        let outcome = match RULE {
            IMMEDIATE_RESTART | NO_WAITING => self.lm.try_request(tid, obj, mode),
            // Die: restart keeping the original timestamp (arrival
            // survives restarts), which guarantees eventual progress.
            WAIT_DIE if self.older_blocker(sim, tid, obj, mode) => RequestOutcome::Denied,
            // A wound cascade that came back around to the requester ends
            // its attempt.
            WOUND_WAIT if !self.wound_younger(sim, term, tid, obj, mode, now) => {
                return CcAction::Suspend
            }
            _ => self.lm.request(tid, obj, mode),
        };
        match outcome {
            RequestOutcome::Granted => {
                sim.arena.advance(term);
                sim.emit(now, TraceEvent::Acquire(tid, obj, mode));
                return CcAction::Proceed;
            }
            RequestOutcome::Queued => {
                sim.block(term, obj, now);
                if RULE == BLOCKING || RULE == STATIC_LOCKING {
                    self.resolve_deadlocks(sim, term, now);
                }
            }
            RequestOutcome::Denied => {
                let cause = if RULE == WAIT_DIE {
                    AbortCause::Died
                } else {
                    AbortCause::Denial
                };
                sim.abort_and_restart(self, term, cause, now);
            }
        }
        CcAction::Suspend
    }

    /// Strict 2PL: every lock is released at the end of the attempt, and
    /// the waiters this grants resume past their lock step.
    fn release(&mut self, sim: &mut Simulator, term: usize, end: AttemptEnd, now: SimTime) {
        if end == AttemptEnd::Commit && sim.take_lock_leak() {
            return;
        }
        let tid = sim.arena.get(term).expect("live txn").id;
        let held = self.lm.locks_held(tid) as u32;
        self.lm.release_all_into(tid, &mut self.grants);
        sim.emit(now, TraceEvent::LocksReleased(tid, held));
        for &g in &self.grants {
            let Some(term) = sim.unblock(g.txn) else {
                debug_assert!(false, "{} granted a lock it did not wait for", g.txn);
                continue;
            };
            debug_assert!(matches!(
                sim.arena.get(term).expect("live txn").step(),
                Step::PreclaimLock(_) | Step::LockRead(_) | Step::LockWrite(_)
            ));
            sim.arena.advance(term);
            sim.emit(now, TraceEvent::Grant(g.txn, g.obj, g.mode));
        }
        self.grants.clear();
    }

    fn restart_delay_applies(for_all: bool) -> bool {
        match RULE {
            IMMEDIATE_RESTART => true,
            // No-waiting is immediate-restart *without* the delay — that is
            // its defining difference, so the Fig. 11 flag does not apply.
            NO_WAITING => false,
            _ => for_all,
        }
    }

    fn peak_lock_table(&self) -> usize {
        self.lm.peak_locks_in_table()
    }
}
