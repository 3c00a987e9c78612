//! A pool of GRAPE-5 systems — one per domain shard of a
//! cluster-decomposed treecode run — with a shard lifecycle supervisor.
//!
//! The GRAPE-6A cluster configuration hangs one accelerator card off
//! each PC; in-process we model that as K independent [`Grape5`]
//! instances with independent fault state, clock accounting, and board
//! quarantine. Each shard's force evaluation opens an ordinary
//! [`DeviceSession`](crate::session::DeviceSession) over its device, so
//! the whole per-board retry/quarantine machinery applies unchanged
//! within a shard.
//!
//! What the session layer cannot recover from is *whole-shard loss*:
//! every board of one device quarantined. [`ClusterSession::shard_fatal`]
//! classifies device errors into that bucket; the host backend reacts
//! by marking the shard dead ([`ClusterSession::kill`]) and
//! re-decomposing the particle set over the survivors — the cluster
//! analogue of removing a dead PC from the ring.
//!
//! ## Shard lifecycle
//!
//! Multi-day cluster campaigns lose cards *and get them back* (a
//! reseated cable, a swapped board). Each shard therefore carries a
//! [`ShardHealth`] state:
//!
//! ```text
//! Alive ──straggler / quarantine──▶ Degraded ──clean eval──▶ Alive
//!   │                                  │
//!   └────────── shard-fatal ◀──────────┘
//!                    │
//!                    ▼
//!                  Dead ──probe──▶ Probation ──self-test clean──▶ Readmitted
//!                    ▲                  │                             │
//!                    └──self-test fails─┘              serves an eval │
//!                                                                    ▼
//!                                                                  Alive
//! ```
//!
//! [`ClusterSession::probe`] drives the Dead → Probation → Readmitted
//! arc: quarantines are provisionally lifted, the device self-test
//! re-runs, and hardware it still convicts goes straight back out of
//! service. A dead shard whose persistent fault has been repaired
//! ([`Grape5::clear_persistent_faults`]) passes and is re-admitted; the
//! host backend then re-decomposes to hand it a domain again.

use crate::clock::ClockAccounting;
use crate::config::Grape5Config;
use crate::fault::{DeviceError, FaultConfig};
use crate::system::Grape5;

/// Lifecycle state of one cluster shard.
///
/// `Alive`, `Degraded` and `Readmitted` are all *in service* (the shard
/// owns a domain and serves evaluations); `Dead` and `Probation` are
/// out of service. `Degraded` marks a serving shard the supervisor is
/// watching (it blew a straggler deadline or carries quarantined
/// hardware); `Readmitted` marks a shard back from probation that has
/// not yet served an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// In service, no supervisor concern.
    Alive,
    /// In service, but flagged: straggler deadline hit or hardware
    /// quarantined. Returns to `Alive` after a clean evaluation.
    Degraded,
    /// Out of service (shard-fatal device error or an explicit kill).
    Dead,
    /// Out of service, probe in flight: quarantines lifted, self-test
    /// running. Transient — resolves to `Readmitted` or back to `Dead`
    /// within [`ClusterSession::probe`].
    Probation,
    /// Probe passed; in service again, awaiting its first evaluation.
    Readmitted,
}

impl ShardHealth {
    /// Does this state serve evaluations (own a domain)?
    pub fn in_service(self) -> bool {
        matches!(self, ShardHealth::Alive | ShardHealth::Degraded | ShardHealth::Readmitted)
    }

    /// Stable numeric code for checkpoint manifests.
    pub fn code(self) -> u8 {
        match self {
            ShardHealth::Alive => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Dead => 2,
            ShardHealth::Probation => 3,
            ShardHealth::Readmitted => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<ShardHealth> {
        Some(match code {
            0 => ShardHealth::Alive,
            1 => ShardHealth::Degraded,
            2 => ShardHealth::Dead,
            3 => ShardHealth::Probation,
            4 => ShardHealth::Readmitted,
            _ => return None,
        })
    }
}

/// What one [`ClusterSession::probe`] call found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// A dead shard passed its self-test and is back in service
    /// (`Dead → Probation → Readmitted`).
    Readmitted {
        /// The re-admitted slot.
        slot: usize,
    },
    /// A dead shard's self-test still convicts hardware; it stays dead.
    StillDead {
        /// The probed slot.
        slot: usize,
    },
    /// A serving shard regained quarantined hardware: `boards` boards
    /// and `pipes` pipes passed re-test and returned to service.
    HardwareRestored {
        /// The probed slot.
        slot: usize,
        /// Boards returned to service.
        boards: usize,
        /// Pipes returned to service.
        pipes: usize,
    },
}

/// One shard: a device plus its lifecycle state.
#[derive(Debug)]
struct Shard {
    g5: Grape5,
    health: ShardHealth,
}

/// K pooled [`Grape5`] devices, one per domain shard.
///
/// Out-of-service shards keep their slot (indices are stable for the
/// lifetime of the session) but are skipped by [`alive_devices_mut`]
/// (`ClusterSession::alive_devices_mut`) and excluded from fault-state
/// capture.
#[derive(Debug)]
pub struct ClusterSession {
    shards: Vec<Shard>,
    cfg: Grape5Config,
}

impl ClusterSession {
    /// Open `shards` identical devices from one configuration.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn open(cfg: Grape5Config, shards: usize) -> ClusterSession {
        assert!(shards >= 1, "cluster needs at least one shard");
        let shards = (0..shards)
            .map(|_| Shard { g5: Grape5::open(cfg), health: ShardHealth::Alive })
            .collect();
        ClusterSession { shards, cfg }
    }

    /// The configuration every shard was opened with.
    pub fn config(&self) -> &Grape5Config {
        &self.cfg
    }

    /// Total shard slots (in service + out of service).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards in service.
    pub fn alive(&self) -> usize {
        self.shards.iter().filter(|s| s.health.in_service()).count()
    }

    /// Is shard `k` in service? (`false` for out-of-range slots.)
    pub fn is_alive(&self, k: usize) -> bool {
        self.shards.get(k).is_some_and(|s| s.health.in_service())
    }

    /// Lifecycle state of shard `k` (`None` out of range).
    pub fn health(&self, k: usize) -> Option<ShardHealth> {
        self.shards.get(k).map(|s| s.health)
    }

    /// Lifecycle state of every slot.
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.shards.iter().map(|s| s.health).collect()
    }

    /// Force shard `k`'s lifecycle state (checkpoint restore path).
    /// Out-of-range slots are ignored.
    pub fn set_health(&mut self, k: usize, health: ShardHealth) {
        if let Some(s) = self.shards.get_mut(k) {
            s.health = health;
        }
    }

    /// Mark shard `k` dead. Idempotent and range-checked: returns the
    /// state the slot held *before* the kill, or `None` for an
    /// out-of-range slot (killing an already-dead shard returns
    /// `Some(Dead)` and changes nothing).
    pub fn kill(&mut self, k: usize) -> Option<ShardHealth> {
        let s = self.shards.get_mut(k)?;
        let prior = s.health;
        s.health = ShardHealth::Dead;
        Some(prior)
    }

    /// Flag a serving shard as degraded (straggler deadline hit). Dead
    /// and out-of-range slots are left alone.
    pub fn mark_degraded(&mut self, k: usize) {
        if let Some(s) = self.shards.get_mut(k) {
            if s.health.in_service() {
                s.health = ShardHealth::Degraded;
            }
        }
    }

    /// Promote a serving shard back to `Alive` after a clean
    /// evaluation (`Degraded → Alive`, `Readmitted → Alive`).
    pub fn mark_alive(&mut self, k: usize) {
        if let Some(s) = self.shards.get_mut(k) {
            if s.health.in_service() {
                s.health = ShardHealth::Alive;
            }
        }
    }

    /// Probe shard `k`: provisionally lift every quarantine, re-run the
    /// device self-test, and put whatever it still convicts straight
    /// back out of service.
    ///
    /// * A `Dead` shard passes through `Probation`; a clean self-test
    ///   re-admits it (`Readmitted`), otherwise it stays `Dead`.
    /// * A serving shard with quarantined hardware regains any board or
    ///   pipe the self-test no longer convicts.
    ///
    /// Returns `None` when there was nothing to probe (healthy shard
    /// with no quarantines, or out-of-range slot). Re-admitted boards
    /// come back with empty j-memory; the next device session reloads.
    pub fn probe(&mut self, k: usize) -> Option<ProbeOutcome> {
        let s = self.shards.get_mut(k)?;
        match s.health {
            ShardHealth::Dead => {
                s.health = ShardHealth::Probation;
                s.g5.return_to_service();
                let report = s.g5.self_test();
                for &(b, p) in &report.stuck_pipes {
                    s.g5.quarantine_pipe(b, p);
                }
                for &b in &report.dead_boards {
                    s.g5.quarantine_board(b);
                }
                if report.is_clean() && s.g5.active_boards() > 0 {
                    s.health = ShardHealth::Readmitted;
                    Some(ProbeOutcome::Readmitted { slot: k })
                } else {
                    s.health = ShardHealth::Dead;
                    Some(ProbeOutcome::StillDead { slot: k })
                }
            }
            _ if s.health.in_service() => {
                let (qb, qp) = s.g5.quarantined();
                if qb.is_empty() && qp.is_empty() {
                    return None;
                }
                s.g5.return_to_service();
                let report = s.g5.self_test();
                for &(b, p) in &report.stuck_pipes {
                    s.g5.quarantine_pipe(b, p);
                }
                for &b in &report.dead_boards {
                    s.g5.quarantine_board(b);
                }
                let (qb2, qp2) = s.g5.quarantined();
                let boards = qb.len().saturating_sub(qb2.len());
                let pipes = qp.len().saturating_sub(qp2.len());
                if boards > 0 || pipes > 0 {
                    s.health = ShardHealth::Degraded;
                    Some(ProbeOutcome::HardwareRestored { slot: k, boards, pipes })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Probe every slot that has something to re-test (dead shards and
    /// serving shards with quarantined hardware), in slot order.
    pub fn probe_all(&mut self) -> Vec<ProbeOutcome> {
        (0..self.shards.len()).filter_map(|k| self.probe(k)).collect()
    }

    /// Shared access to shard `k`'s device.
    pub fn device(&self, k: usize) -> &Grape5 {
        &self.shards[k].g5
    }

    /// Mutable access to shard `k`'s device (any state — fault
    /// injection setup may address a shard before any evaluation).
    pub fn device_mut(&mut self, k: usize) -> &mut Grape5 {
        &mut self.shards[k].g5
    }

    /// Mutable borrows of every *in-service* device, tagged with shard
    /// index — the fan-out for a per-shard evaluation pass.
    pub fn alive_devices_mut(&mut self) -> Vec<(usize, &mut Grape5)> {
        self.shards
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| s.health.in_service())
            .map(|(k, s)| (k, &mut s.g5))
            .collect()
    }

    /// Is this error unrecoverable at the shard level — i.e. has the
    /// per-board retry/quarantine machinery inside [`DeviceSession`]
    /// already exhausted the device?
    ///
    /// [`DeviceSession`]: crate::session::DeviceSession
    pub fn shard_fatal(err: &DeviceError) -> bool {
        match err {
            DeviceError::NoBoardsLeft => true,
            // The session's retry loop stores the final failure's
            // Display text; an exhausted retry whose last attempt found
            // no boards is just as dead as the direct report.
            DeviceError::RetriesExhausted { last, .. } => last.contains("all boards quarantined"),
            _ => false,
        }
    }

    /// Arm shard `k`'s fault injector.
    pub fn set_fault_injector(&mut self, k: usize, cfg: FaultConfig) {
        self.shards[k].g5.set_fault_injector(cfg);
    }

    /// Arm *every* shard's injector from one base configuration, with
    /// per-shard seeds derived by [`crate::fault::splitmix`]
    /// ([`FaultConfig::for_shard`]) — K shards opened from one
    /// `FaultConfig` must not replay identical fault streams.
    pub fn set_fault_injectors(&mut self, base: FaultConfig) {
        for k in 0..self.shards.len() {
            let cfg = base.for_shard(k);
            self.shards[k].g5.set_fault_injector(cfg);
        }
    }

    /// Serialized fault-injector state of every in-service shard that
    /// has one, as `(shard index, state words)` — the per-shard payload
    /// a cluster checkpoint manifest records.
    pub fn fault_states(&self) -> Vec<(usize, Vec<u64>)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health.in_service())
            .filter_map(|(k, s)| s.g5.fault_state_words().map(|w| (k, w)))
            .collect()
    }

    /// Restore shard `k`'s fault-injector state (the injector must
    /// already be armed with its configuration). A slot outside the
    /// cluster — a damaged manifest — is `BadFaultState`, not a panic.
    pub fn restore_fault_state(&mut self, k: usize, words: &[u64]) -> Result<(), DeviceError> {
        self.shards.get_mut(k).ok_or(DeviceError::BadFaultState)?.g5.restore_fault_state(words)
    }

    /// Clock accounting of shard `k` alone.
    pub fn shard_accounting(&self, k: usize) -> ClockAccounting {
        self.shards[k].g5.accounting()
    }

    /// Clock accounting merged across all shards — aggregate work.
    /// (A real cluster runs shards concurrently; critical-path time is
    /// the *max* of per-shard [`ClockReport`](crate::clock::ClockReport)
    /// totals, which callers derive from [`shard_accounting`]
    /// (`ClusterSession::shard_accounting`).)
    pub fn accounting(&self) -> ClockAccounting {
        self.shards.iter().fold(ClockAccounting::default(), |acc, s| acc.merged(s.g5.accounting()))
    }

    /// Reset clock accounting on every shard.
    pub fn reset_accounting(&mut self) {
        for s in &mut self.shards {
            s.g5.reset_accounting();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BoardDropout, StuckPipe};

    fn tiny() -> Grape5Config {
        Grape5Config::single_board()
    }

    #[test]
    fn open_kill_track_liveness() {
        let mut c = ClusterSession::open(tiny(), 4);
        assert_eq!(c.shards(), 4);
        assert_eq!(c.alive(), 4);
        assert_eq!(c.kill(2), Some(ShardHealth::Alive));
        assert_eq!(c.alive(), 3);
        assert_eq!(c.kill(2), Some(ShardHealth::Dead), "kill is idempotent");
        assert_eq!(c.alive(), 3);
        assert_eq!(c.kill(99), None, "out-of-range kill is rejected, not a panic");
        assert!(!c.is_alive(2));
        assert!(!c.is_alive(99));
        assert_eq!(c.health(2), Some(ShardHealth::Dead));
        assert_eq!(c.health(99), None);
        let tagged: Vec<usize> = c.alive_devices_mut().into_iter().map(|(k, _)| k).collect();
        assert_eq!(tagged, vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ClusterSession::open(tiny(), 0);
    }

    #[test]
    fn health_state_machine_transitions() {
        let mut c = ClusterSession::open(tiny(), 2);
        c.mark_degraded(0);
        assert_eq!(c.health(0), Some(ShardHealth::Degraded));
        assert!(c.is_alive(0), "degraded shards keep serving");
        c.mark_alive(0);
        assert_eq!(c.health(0), Some(ShardHealth::Alive));
        c.kill(0);
        c.mark_degraded(0);
        c.mark_alive(0);
        assert_eq!(c.health(0), Some(ShardHealth::Dead), "dead shards stay dead");
        for h in
            [ShardHealth::Alive, ShardHealth::Degraded, ShardHealth::Dead, ShardHealth::Probation]
        {
            assert_eq!(ShardHealth::from_code(h.code()), Some(h));
        }
        assert_eq!(
            ShardHealth::from_code(ShardHealth::Readmitted.code()),
            Some(ShardHealth::Readmitted)
        );
        assert_eq!(ShardHealth::from_code(99), None);
    }

    #[test]
    fn probe_readmits_a_healthy_dead_shard() {
        let mut c = ClusterSession::open(tiny(), 3);
        c.kill(1);
        assert_eq!(c.alive(), 2);
        assert_eq!(c.probe(1), Some(ProbeOutcome::Readmitted { slot: 1 }));
        assert_eq!(c.health(1), Some(ShardHealth::Readmitted));
        assert_eq!(c.alive(), 3);
        c.mark_alive(1);
        assert_eq!(c.health(1), Some(ShardHealth::Alive));
        // nothing to probe on a healthy shard
        assert_eq!(c.probe(0), None);
        assert_eq!(c.probe(7), None);
    }

    #[test]
    fn probe_keeps_a_faulty_shard_dead_until_repaired() {
        let mut c = ClusterSession::open(tiny(), 2);
        // single-board shard whose board is persistently dropped out
        // (after_call: 0 manifests immediately); the session layer has
        // quarantined the only board and killed the shard
        c.set_fault_injector(1, FaultConfig::dropout(5, BoardDropout { after_call: 0, board: 0 }));
        c.device_mut(1).quarantine_board(0);
        c.kill(1);

        assert_eq!(c.probe(1), Some(ProbeOutcome::StillDead { slot: 1 }));
        assert_eq!(c.health(1), Some(ShardHealth::Dead));
        assert_eq!(c.device(1).active_boards(), 0, "convicted board re-quarantined");

        // repair, re-probe: the shard comes back
        c.device_mut(1).clear_persistent_faults();
        assert_eq!(c.probe(1), Some(ProbeOutcome::Readmitted { slot: 1 }));
        assert_eq!(c.device(1).active_boards(), 1);
        assert_eq!(c.alive(), 2);
    }

    #[test]
    fn probe_restores_quarantined_hardware_on_a_serving_shard() {
        let cfg = Grape5Config::paper(); // 2 boards
        let mut c = ClusterSession::open(cfg, 1);
        // a stuck pipe was quarantined; the fault has since been repaired
        c.set_fault_injector(
            0,
            FaultConfig::stuck(6, StuckPipe { after_call: 0, board: 0, pipe: 2 }),
        );
        // stuck pipes manifest once calls > after_call: advance the call
        // counter through the fault-state words (index 5 = calls)
        let mut words = c.fault_states()[0].1.clone();
        words[5] = 1;
        c.restore_fault_state(0, &words).unwrap();
        c.device_mut(0).quarantine_pipe(0, 2);
        assert_eq!(c.probe(0), None, "fault still manifests: nothing freed");
        c.device_mut(0).clear_persistent_faults();
        assert_eq!(
            c.probe(0),
            Some(ProbeOutcome::HardwareRestored { slot: 0, boards: 0, pipes: 1 })
        );
        assert_eq!(c.health(0), Some(ShardHealth::Degraded), "restored shard is watched");
        assert!(c.device(0).quarantined().1.is_empty());
        c.mark_alive(0);
        assert_eq!(c.probe_all(), vec![]);
    }

    #[test]
    fn fatal_classifier() {
        assert!(ClusterSession::shard_fatal(&DeviceError::NoBoardsLeft));
        assert!(ClusterSession::shard_fatal(&DeviceError::RetriesExhausted {
            attempts: 7,
            last: DeviceError::NoBoardsLeft.to_string(),
        }));
        assert!(!ClusterSession::shard_fatal(&DeviceError::RetriesExhausted {
            attempts: 7,
            last: "board 0 timed out".into(),
        }));
        assert!(!ClusterSession::shard_fatal(&DeviceError::BoardTimeout { board: 0 }));
    }

    #[test]
    fn fault_states_skip_dead_and_unarmed() {
        let mut c = ClusterSession::open(tiny(), 3);
        c.set_fault_injector(0, FaultConfig::transient(1, 0.0));
        c.set_fault_injector(2, FaultConfig::transient(2, 0.0));
        c.kill(2);
        let states = c.fault_states();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].0, 0);
        // round-trip through restore
        let words = states[0].1.clone();
        c.restore_fault_state(0, &words).unwrap();
        // a slot past the cluster (a damaged manifest) is typed, not a panic
        assert_eq!(c.restore_fault_state(3, &words), Err(DeviceError::BadFaultState));
        assert_eq!(c.restore_fault_state(usize::MAX, &words), Err(DeviceError::BadFaultState));
    }

    #[test]
    fn base_seed_arms_distinct_per_shard_streams() {
        let mut c = ClusterSession::open(tiny(), 4);
        c.set_fault_injectors(FaultConfig::transient(42, 0.5));
        let states = c.fault_states();
        assert_eq!(states.len(), 4, "every shard armed");
        // derived seeds put each RNG in a distinct state
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                assert_ne!(states[i].1, states[j].1, "shards {i}/{j} share fault state");
            }
        }
        // round-trip: the derived config is what restore re-arms
        let words = states[2].1.clone();
        c.restore_fault_state(2, &words).unwrap();
        assert_eq!(c.fault_states()[2].1, words);
    }

    #[test]
    fn accounting_merges_across_shards() {
        let c = ClusterSession::open(tiny(), 2);
        let merged = c.accounting();
        assert_eq!(merged.calls, 0);
        assert_eq!(c.shard_accounting(0).calls, 0);
    }
}
