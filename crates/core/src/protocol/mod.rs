//! Concurrency control protocols behind one interface (DESIGN.md §8).
//!
//! The paper varies only the concurrency control module of one closed
//! model (Figs. 1–2). [`Protocol`] is that module's boundary: the engine
//! ([`Simulator`]) calls a protocol at the few points where concurrency
//! control decides anything, and each protocol owns its own state. The
//! engine's event loop is monomorphized per protocol.

mod certify;
mod locking;
mod tso;

use ccsim_des::SimTime;
use ccsim_lockmgr::LockMode;
use ccsim_workload::ObjId;

use crate::engine::Simulator;
use crate::txn::ProgramShape;

pub(crate) use certify::{MvccSi, NoCc, Optimistic, SiloOcc, TicToc};
pub(crate) use locking::{
    Locking, BLOCKING, IMMEDIATE_RESTART, NO_WAITING, STATIC_LOCKING, WAIT_DIE, WOUND_WAIT,
};
pub(crate) use tso::BasicTo;

/// Outcome of a concurrency-control step from the requester's viewpoint.
pub(crate) enum CcAction {
    /// The step is done: continue to the next step.
    Proceed,
    /// The requester blocked (or was handled entirely elsewhere — e.g.
    /// granted or restarted during deadlock resolution); stop dispatching.
    Suspend,
}

/// Why a transaction is being aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortCause {
    /// Deadlock victim (blocking algorithm).
    Deadlock,
    /// Lock denial (immediate-restart / no-waiting).
    Denial,
    /// Failed commit-time certification (OCC, SI, Silo, TicToc).
    Validation,
    /// Wounded by an older transaction (wound-wait).
    Wounded,
    /// Died on conflict with an older holder (wait-die).
    Died,
    /// A timestamp-ordering operation arrived too late (basic T/O).
    TsRejected,
}

/// A commit-point certification (see [`Protocol::validate`]).
pub(crate) type Certified = Result<Option<SimTime>, ObjId>;

/// How an attempt ends, as [`Protocol::release`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptEnd {
    /// The attempt aborted and will restart.
    Abort,
    /// The transaction committed (its deferred updates are done).
    Commit,
}

/// One concurrency control algorithm, as the engine drives it. A value
/// of the type is one run's protocol state.
///
/// Every hook has a default that suits a protocol without the
/// corresponding mechanism; `NoCc` overrides none.
pub(crate) trait Protocol {
    /// The step program this protocol's transactions execute: lock steps
    /// interleaved with accesses, all locks preclaimed, or (the default)
    /// none.
    const SHAPE: ProgramShape = ProgramShape::LockFree;

    /// Access-time concurrency control for a lock step (`PreclaimLock`,
    /// `LockRead`, `LockWrite`): a lock request or a timestamp check on
    /// `obj`. The step's CC-CPU charge is already paid. On success the hook
    /// advances the transaction and returns [`CcAction::Proceed`].
    fn request(
        &mut self,
        _sim: &mut Simulator,
        _term: usize,
        _obj: ObjId,
        _mode: LockMode,
        _now: SimTime,
    ) -> CcAction {
        unreachable!("{:?} programs have no lock steps", Self::SHAPE)
    }

    /// Record what the `i`-th read observed, at its `ReadCpu` completion.
    /// The default records the completion instant when history is on.
    fn observe_read(&self, sim: &mut Simulator, term: usize, i: usize, now: SimTime) {
        if sim.history.is_some() {
            debug_assert_eq!(sim.arena.read_times(term).len(), i);
            sim.arena.push_read_time(term, now);
        }
    }

    /// The commit-point test (the `Validate` step): `Ok` with the instant
    /// the attempt's writes publish at (`None`: at its commit), or `Err`
    /// with a conflicting object, which restarts the attempt. The default
    /// certifies everything.
    fn validate(&mut self, _sim: &Simulator, _term: usize, _now: SimTime) -> Certified {
        Ok(None)
    }

    /// Release the attempt's concurrency-control state and wake whoever
    /// waited on it: called once per abort (after the `Restart` event) and
    /// once per commit (after the `Commit` event).
    fn release(&mut self, _sim: &mut Simulator, _term: usize, _end: AttemptEnd, _now: SimTime) {}

    /// Housekeeping at each batch boundary.
    fn on_batch_end(&mut self, _sim: &Simulator, _now: SimTime) {}

    /// Does the restart-delay policy apply to this protocol's restarts?
    /// `for_all` is the Fig. 11 ablation flag
    /// (`SimConfig::restart_delay_for_all`). Only immediate-restart needs
    /// the delay, "otherwise the same lock conflict will occur repeatedly"
    /// (paper §2): a deadlock cannot recur, and an optimistic conflict is
    /// with an already committed transaction.
    fn restart_delay_applies(for_all: bool) -> bool {
        for_all
    }

    /// Peak number of locks held in the lock table at once (0 without one).
    fn peak_lock_table(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shapes() {
        assert_eq!(Locking::<STATIC_LOCKING>::SHAPE, ProgramShape::Static2pl);
        for shape in [
            Locking::<BLOCKING>::SHAPE,
            Locking::<IMMEDIATE_RESTART>::SHAPE,
            Locking::<NO_WAITING>::SHAPE,
            Locking::<WAIT_DIE>::SHAPE,
            Locking::<WOUND_WAIT>::SHAPE,
        ] {
            assert_eq!(shape, ProgramShape::Dynamic2pl);
        }
        // Basic T/O runs the locking program: its timestamp checks sit
        // where the lock steps would.
        assert_eq!(BasicTo::SHAPE, ProgramShape::Dynamic2pl);
        for shape in [
            Optimistic::SHAPE,
            NoCc::SHAPE,
            MvccSi::SHAPE,
            SiloOcc::SHAPE,
            TicToc::SHAPE,
        ] {
            assert_eq!(shape, ProgramShape::LockFree);
        }
    }

    #[test]
    fn restart_delay_applies_to_immediate_restart_only_by_default() {
        for for_all in [false, true] {
            // Immediate-restart always delays; no-waiting never does (that
            // is its defining difference, so the Fig. 11 flag is moot).
            assert!(Locking::<IMMEDIATE_RESTART>::restart_delay_applies(for_all));
            assert!(!Locking::<NO_WAITING>::restart_delay_applies(for_all));
            // Everyone else delays only under the Fig. 11 ablation.
            assert_eq!(Locking::<BLOCKING>::restart_delay_applies(for_all), for_all);
            assert_eq!(Locking::<WAIT_DIE>::restart_delay_applies(for_all), for_all);
            assert_eq!(BasicTo::restart_delay_applies(for_all), for_all);
            assert_eq!(Optimistic::restart_delay_applies(for_all), for_all);
            assert_eq!(TicToc::restart_delay_applies(for_all), for_all);
        }
    }
}
