//! The commit-time family: protocols whose transactions run without
//! access-time concurrency control and are certified (or not) at their
//! commit point — Kung–Robinson optimistic, snapshot isolation, Silo and
//! TicToc — plus the unsafe `NoCc` baseline, which certifies nothing.

use ccsim_des::SimTime;
use ccsim_mvcc::MvccManager;
use ccsim_occ::{SiloValidator, Validator};
use ccsim_tso::{TicTocManager, TtWord};
use ccsim_workload::ObjId;

use super::{AttemptEnd, Certified, Protocol};
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::trace::TraceEvent;

/// No concurrency control at all: the data-contention-free throughput
/// bound. Every default hook applies.
pub(crate) struct NoCc;

impl Protocol for NoCc {}

/// Classic optimistic CC: serial validation of the read set against every
/// commit since the attempt started (paper §2).
pub(crate) struct Optimistic(Validator);

impl Optimistic {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Optimistic(Validator::with_capacity(cfg.params.db_size as usize))
    }
}

impl Protocol for Optimistic {
    fn validate(&mut self, sim: &Simulator, term: usize, now: SimTime) -> Certified {
        let start = sim.arena.get(term).expect("live txn").attempt_start;
        // Kung–Robinson critical section: stamp writes at validation.
        self.0
            .validate_and_commit(
                start,
                now,
                sim.arena.reads(term),
                sim.arena.write_objs(term).iter().copied(),
            )
            .map(|()| Some(now))
            .map_err(|c| c.obj)
    }
}

/// Snapshot isolation: every read sees the attempt-start snapshot, and the
/// commit point enforces first-committer-wins over the write set only.
#[derive(Default)]
pub(crate) struct MvccSi(MvccManager);

impl Protocol for MvccSi {
    /// Snapshot isolation reads as of the attempt start: recording that
    /// instant makes the history checker's "last writer committed at or
    /// before read time" rule derive exactly the snapshot's version.
    fn observe_read(&self, sim: &mut Simulator, term: usize, i: usize, _now: SimTime) {
        if sim.history.is_some() {
            debug_assert_eq!(sim.arena.read_times(term).len(), i);
            let snapshot = sim.arena.get(term).expect("live txn").attempt_start;
            sim.arena.push_read_time(term, snapshot);
        }
    }

    fn validate(&mut self, sim: &Simulator, term: usize, now: SimTime) -> Certified {
        let txn = sim.arena.get(term).expect("live txn");
        self.0
            .check_and_install(txn.attempt_start, now, txn.id, sim.arena.write_objs(term))
            .map(|_installed| Some(now))
            .map_err(|c| c.obj)
    }

    /// The versions were installed at validation; announcing them at the
    /// commit gives the auditor a conservation obligation to discharge
    /// (every MVCC commit accounts for its writes).
    fn release(&mut self, sim: &mut Simulator, term: usize, end: AttemptEnd, now: SimTime) {
        if end == AttemptEnd::Commit {
            let tid = sim.arena.get(term).expect("live txn").id;
            let installed = sim.arena.write_objs(term).len() as u32;
            sim.emit(now, TraceEvent::VersionInstalled(tid, installed));
        }
    }

    /// Version chains only grow at commits; a batch boundary is a cheap,
    /// deterministic place to drop versions no live snapshot can reach.
    fn on_batch_end(&mut self, sim: &Simulator, now: SimTime) {
        let horizon = sim
            .arena
            .live()
            .filter(|t| t.state.is_active())
            .map(|t| t.attempt_start)
            .min()
            .unwrap_or(now);
        self.0.prune_before(horizon);
    }
}

/// Silo-style epoch OCC: reads record the per-object TID word they saw,
/// and the commit point re-checks that every recorded word is unchanged.
#[derive(Default)]
pub(crate) struct SiloOcc {
    silo: SiloValidator,
    /// `(object, observed-at)` pairs of the read set, reused across commits.
    scratch: Vec<(ObjId, SimTime)>,
}

impl Protocol for SiloOcc {
    /// Validation needs the observation instant whether or not history is
    /// recorded.
    fn observe_read(&self, sim: &mut Simulator, term: usize, i: usize, now: SimTime) {
        debug_assert_eq!(sim.arena.read_times(term).len(), i);
        sim.arena.push_read_time(term, now);
    }

    fn validate(&mut self, sim: &Simulator, term: usize, now: SimTime) -> Certified {
        self.scratch.clear();
        self.scratch.extend(
            sim.arena
                .reads(term)
                .iter()
                .copied()
                .zip(sim.arena.read_times(term).iter().copied()),
        );
        self.silo.validate(&self.scratch).map_err(|c| c.obj)?;
        self.silo
            .commit(now, sim.arena.write_objs(term).iter().copied());
        Ok(Some(now))
    }
}

/// TicToc: each read records the version's `(wts, rts)` interval, and the
/// commit point derives a commit timestamp inside every interval instead
/// of rejecting on physical-time order.
#[derive(Default)]
pub(crate) struct TicToc {
    tictoc: TicTocManager,
    /// `(object, observed word)` pairs of the read set, reused across
    /// commits.
    scratch: Vec<(ObjId, TtWord)>,
}

impl Protocol for TicToc {
    /// TicToc reads a *version* — identified by its write timestamp — not
    /// an instant; validation needs the whole observed word (the `rts`
    /// bound is what lets a superseded read still commit in the past), and
    /// the history records the wts.
    fn observe_read(&self, sim: &mut Simulator, term: usize, i: usize, _now: SimTime) {
        let observed = self.tictoc.word(sim.arena.read_at(term, i));
        debug_assert_eq!(sim.arena.read_times(term).len(), i);
        sim.arena.push_read_obs(term, observed.wts, observed.rts);
    }

    fn validate(&mut self, sim: &Simulator, term: usize, _now: SimTime) -> Certified {
        self.scratch.clear();
        self.scratch.extend(
            sim.arena
                .reads(term)
                .iter()
                .zip(sim.arena.read_times(term))
                .zip(sim.arena.read_auxes(term))
                .map(|((&obj, &wts), &rts)| (obj, TtWord { wts, rts })),
        );
        // On success the commit publishes at the *logical* commit
        // timestamp: the history follows TicToc's timestamp order rather
        // than physical validation order.
        self.tictoc
            .validate_and_commit(&self.scratch, sim.arena.write_objs(term))
            .map(Some)
            .map_err(|c| c.obj)
    }
}
