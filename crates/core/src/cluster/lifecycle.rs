//! The shard lifecycle: health, probes, the shard-fatal classifier,
//! straggler deadlines, the recovery ledger and the resume state.

use super::{remote_trees, shard_eval, split_live, ClusterTreeGrape, ShardOutcome};
use crate::backends::{ForceBackend, ForceError};
use crate::checkpoint::{invalid, ClusterLifecycle, ResumeState};
use g5util::vec3::Vec3;
use grape5::{DeviceError, FaultConfig, RecoveryStats};
use std::io;

/// The shard lifecycle supervisor's knobs. The default turns both
/// mechanisms **off**, which keeps the backend's device-call sequence
/// bit-identical to a supervisor-less run — self-healing is opt-in.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifecyclePolicy {
    /// Re-probe dead shards and quarantined hardware every this many
    /// evaluations (`0` = never probe). A passing probe re-admits the
    /// hardware and triggers a capacity-weighted re-decomposition.
    pub probe_interval: u64,
    /// Straggler deadline: a shard whose *modeled* device time for one
    /// evaluation exceeds `factor × median` is declared Degraded and
    /// its groups re-execute on the fastest survivor within the same
    /// `try_compute`. `None` = no deadline. Deadlines compare modeled
    /// clock only, never host wall-clock, so firing is deterministic.
    pub straggler_factor: Option<f64>,
}

/// Lifecycle state of one cluster shard.
///
/// `Alive`, `Degraded` and `Readmitted` are *in service* (the shard owns
/// a domain and serves evaluations); `Dead` is not. Multi-day cluster
/// campaigns lose cards *and get them back* (a reseated cable, a swapped
/// board), so a dead slot keeps its record and can return:
///
/// ```text
/// Alive ──straggler / quarantine──▶ Degraded ──clean eval──▶ Alive
///   │                                  │
///   └────────── shard-fatal ◀──────────┘
///                    │
///                    ▼
///                  Dead ──probe, self-test clean──▶ Readmitted ──clean eval──▶ Alive
///                    ▲                │
///                    └─ still convicts┘
/// ```
///
/// A probe ([`LifecyclePolicy::probe_interval`]) lifts the slot's
/// quarantines, re-runs the device self-test
/// ([`Grape5::self_test`](grape5::Grape5::self_test)) and puts whatever
/// it still convicts straight back out of service: a dead
/// shard whose persistent fault was repaired
/// ([`ClusterTreeGrape::clear_persistent_faults`]) is re-admitted, a
/// serving one regains hardware, and either is handed a domain again by
/// a capacity-weighted re-decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// In service, no supervisor concern.
    Alive,
    /// In service, but flagged: straggler deadline hit or hardware
    /// quarantined. Returns to `Alive` after a clean evaluation.
    Degraded,
    /// Out of service (shard-fatal device error or an explicit kill).
    Dead,
    /// Probe passed; in service again, awaiting its first evaluation.
    Readmitted,
}

impl ShardHealth {
    /// Does this state serve evaluations (own a domain)?
    pub fn in_service(self) -> bool {
        self != ShardHealth::Dead
    }

    /// Stable numeric code for checkpoint manifests (3 is retired).
    pub fn code(self) -> u8 {
        match self {
            ShardHealth::Alive => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Dead => 2,
            ShardHealth::Readmitted => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<ShardHealth> {
        Some(match code {
            0 => ShardHealth::Alive,
            1 => ShardHealth::Degraded,
            2 => ShardHealth::Dead,
            4 => ShardHealth::Readmitted,
            _ => return None,
        })
    }
}

/// Ordered record of every recovery-relevant event of a cluster run —
/// kills, quarantines, probes, re-admissions, stragglers,
/// re-decompositions — for post-mortem and for determinism checks (two
/// runs of the same seeded schedule must produce identical ledgers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    events: Vec<String>,
}

impl RecoveryLedger {
    pub(super) fn record(&mut self, eval: u64, msg: impl AsRef<str>) {
        self.events.push(format!("eval {eval}: {}", msg.as_ref()));
    }

    /// The events, oldest first, as `"eval N: <what happened>"` lines.
    pub fn events(&self) -> &[String] {
        &self.events
    }
}

/// Why an evaluation error costs its shard the whole shard, as the
/// ledger's `killed (…)` note: the device is exhausted (every board
/// quarantined — past what the per-board retry/quarantine machinery of
/// [`DeviceSession`](grape5::DeviceSession) recovers from), or the
/// evaluation thread panicked. `None` for an error the shard survives.
pub(super) fn shard_fatal(err: &ForceError) -> Option<String> {
    match err {
        ForceError::Device(DeviceError::NoBoardsLeft) => {
            Some("(shard-fatal device error)".to_string())
        }
        // The session's retry loop stores the final failure's Display
        // text; an exhausted retry whose last attempt found no boards is
        // just as dead as the direct report.
        ForceError::Device(DeviceError::RetriesExhausted { last, .. })
            if last.contains("all boards quarantined") =>
        {
            Some("(shard-fatal device error)".to_string())
        }
        // its forces never materialized and its state is suspect
        ForceError::ShardPanic(msg) => Some(format!("(evaluation thread panicked: {msg})")),
        _ => None,
    }
}

impl ClusterTreeGrape {
    /// Kill shard `k` by hand (the test/fault-drill entry point — in
    /// anger, shard death is detected from device errors). Invalidates
    /// the decomposition so the next evaluation re-decomposes over the
    /// survivors. Idempotent; an out-of-range slot is ignored.
    pub fn kill_shard(&mut self, k: usize) {
        self.kill(k, "by operator");
    }

    /// Lifecycle state of shard `k` (`None` out of range).
    pub fn shard_health(&self, k: usize) -> Option<ShardHealth> {
        self.shards.get(k).map(|s| s.health)
    }

    /// The recovery ledger so far.
    pub fn ledger(&self) -> &RecoveryLedger {
        &self.ledger
    }

    /// Evaluations completed (the supervisor's clock).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Per-slot recovery totals, `(slot, stats)` for slots with any
    /// recovery activity.
    pub fn shard_recovery_stats(&self) -> Vec<(usize, RecoveryStats)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.recovery != RecoveryStats::default())
            .map(|(k, s)| (k, s.recovery))
            .collect()
    }

    /// Repair shard `k`'s persistent faults (stuck pipe, board
    /// dropout) — the chaos harness's "technician swaps the card"
    /// event. The hardware stays quarantined until a probe re-tests it.
    pub fn clear_persistent_faults(&mut self, k: usize) {
        self.shards[k].g5.clear_persistent_faults();
    }

    /// Arm shard `k`'s fault injector.
    pub fn set_fault_injector(&mut self, k: usize, fault: FaultConfig) {
        self.shards[k].g5.set_fault_injector(fault);
    }

    /// Arm *every* shard's injector from one base configuration, with
    /// per-shard seeds derived by [`grape5::splitmix`]
    /// ([`FaultConfig::for_shard`]) — K shards armed from one
    /// `FaultConfig` must not replay identical fault streams.
    pub fn set_fault_injectors(&mut self, base: FaultConfig) {
        for (k, s) in self.shards.iter_mut().enumerate() {
            s.g5.set_fault_injector(base.for_shard(k));
        }
    }

    /// Take slot `k` out of service, noting `why` on the ledger if it
    /// was serving; the next evaluation re-decomposes over the
    /// survivors.
    fn kill(&mut self, k: usize, why: &str) {
        if let Some(s) = self.shards.get_mut(k) {
            let serving = s.health.in_service();
            s.health = ShardHealth::Dead;
            if serving && !self.replaying {
                self.ledger.record(self.evals, format!("shard {k} killed {why}"));
            }
        }
        self.invalidate();
    }

    /// Drop the decomposition: the next evaluation re-decomposes.
    fn invalidate(&mut self) {
        self.decomp = None;
        self.live.clear();
    }

    /// Give a serving shard a new health; a dead slot stays dead.
    pub(super) fn set_serving(&mut self, k: usize, health: ShardHealth) {
        let s = &mut self.shards[k];
        if s.health.in_service() {
            s.health = health;
        }
    }

    /// The supervisor's tick at the top of an evaluation: count it and,
    /// every `probe_interval` evaluations, probe every slot in slot
    /// order. Returns the slots a probe brought back, which stay watched
    /// through this evaluation. A replay evaluation (checkpoint resume)
    /// re-creates one the interrupted run already made its decisions
    /// for, so the supervisor stands down entirely.
    pub(super) fn supervise(&mut self) -> Vec<usize> {
        let mut flagged = Vec::new();
        if !self.replaying {
            self.evals += 1;
            let interval = self.cfg.lifecycle.probe_interval;
            if interval > 0 && self.evals.is_multiple_of(interval) {
                for k in 0..self.shards.len() {
                    self.probe(k, &mut flagged);
                }
            }
        }
        flagged
    }

    /// Probe slot `k`: lift every quarantine, re-run the device
    /// self-test, and put whatever it still convicts straight back out
    /// of service. A dead shard that tests clean is `Readmitted`; a
    /// serving one regains whatever hardware passed and is `Degraded`.
    /// Either is recorded, flagged and re-decomposed over; a dead shard
    /// the self-test still convicts is recorded and stays dead. A
    /// serving shard with nothing quarantined is left alone.
    /// Re-admitted boards come back with empty j-memory; the next
    /// device session reloads.
    pub(super) fn probe(&mut self, k: usize, flagged: &mut Vec<usize>) {
        let s = &mut self.shards[k];
        let dead = s.health == ShardHealth::Dead;
        let (boards, pipes) = s.g5.quarantined();
        if !dead && boards.is_empty() && pipes.is_empty() {
            return;
        }
        s.g5.return_to_service();
        let report = s.g5.self_test();
        for &(b, p) in &report.stuck_pipes {
            s.g5.quarantine_pipe(b, p);
        }
        for &b in &report.dead_boards {
            s.g5.quarantine_board(b);
        }
        let event = if dead {
            if !report.is_clean() || s.g5.active_boards() == 0 {
                self.ledger.record(self.evals, format!("shard {k} probed, still dead"));
                return;
            }
            s.health = ShardHealth::Readmitted;
            format!("shard {k} re-admitted by probe")
        } else {
            let (still_boards, still_pipes) = s.g5.quarantined();
            let boards = boards.len().saturating_sub(still_boards.len());
            let pipes = pipes.len().saturating_sub(still_pipes.len());
            if boards == 0 && pipes == 0 {
                return;
            }
            s.health = ShardHealth::Degraded;
            format!("shard {k} regained {boards} board(s), {pipes} pipe(s)")
        };
        self.ledger.record(self.evals, event);
        flagged.push(k);
        self.invalidate();
    }

    /// Per-evaluation *modeled* clock deltas of the shards that served,
    /// in seconds and outcome order, each shard's throughput folded into its
    /// measured rate — taken before any straggler re-execution, so
    /// re-executed work never pollutes a shard's own throughput
    /// measurement. Modeled time, never host wall-clock: deadlines and
    /// capacity weights must be deterministic.
    pub(super) fn measure(&mut self, outcomes: &[ShardOutcome]) -> Vec<f64> {
        let grape = &self.cfg.base.grape;
        outcomes
            .iter()
            .map(|o| {
                let s = &mut self.shards[o.slot];
                let (inter, secs) = s.clock(grape);
                let (p_inter, p_secs) = std::mem::replace(&mut s.prev_clock, (inter, secs));
                let (d_inter, d_secs) = (inter - p_inter, secs - p_secs);
                if !self.replaying && d_secs > 0.0 && d_inter > 0 {
                    s.rate = d_inter as f64 / d_secs;
                }
                d_secs
            })
            .collect()
    }

    /// Fold each served shard's recovery into the totals, flag (and
    /// record) the shards that quarantined hardware, and kill every
    /// shard the evaluation cost ([`shard_fatal`]). `Ok(true)`: the
    /// survivors re-own the dead shards' particles and the evaluation
    /// starts over — the work the healthy shards did this round is
    /// discarded, shard death being rare enough that simplicity wins.
    /// Otherwise the first error of any other kind.
    pub(super) fn triage(
        &mut self,
        outcomes: &[ShardOutcome],
        flagged: &mut Vec<usize>,
    ) -> Result<bool, ForceError> {
        let mut fatal: Vec<(usize, String)> = Vec::new();
        let mut first_err: Option<ForceError> = None;
        for o in outcomes {
            let recovery = o.eval.recovery;
            self.recovery = self.recovery.merged(recovery);
            let s = &mut self.shards[o.slot];
            s.recovery = s.recovery.merged(recovery);
            if recovery.quarantined_boards > 0 || recovery.quarantined_pipes > 0 {
                self.set_serving(o.slot, ShardHealth::Degraded);
                flagged.push(o.slot);
                if !self.replaying {
                    self.ledger.record(
                        self.evals,
                        format!(
                            "shard {} quarantined {} board(s), {} pipe(s)",
                            o.slot, recovery.quarantined_boards, recovery.quarantined_pipes
                        ),
                    );
                }
            }
            if let Some(e) = &o.eval.err {
                match shard_fatal(e) {
                    Some(why) => fatal.push((o.slot, why)),
                    None => {
                        first_err.get_or_insert_with(|| e.clone());
                    }
                }
            }
        }
        for (k, why) in &fatal {
            self.kill(*k, why);
        }
        match first_err {
            Some(e) if fatal.is_empty() => Err(e),
            _ => Ok(!fatal.is_empty()),
        }
    }

    /// Straggler deadline: a shard whose modeled time for this
    /// evaluation exceeds `factor` × median is Degraded and its
    /// interaction groups re-execute on the fastest survivor — same
    /// trees, same LET machinery, same position window — into fresh
    /// buffers that replace its own. Off during replay (the interrupted
    /// run already decided).
    pub(super) fn straggler_deadline(
        &mut self,
        factor: f64,
        outcomes: &mut [ShardOutcome],
        secs: &[f64],
        pos: &[Vec3],
        flagged: &mut Vec<usize>,
    ) {
        if self.replaying || outcomes.len() < 2 {
            return;
        }
        let mut times = secs.to_vec();
        times.sort_by(|a, b| a.partial_cmp(b).expect("modeled times are finite"));
        let mid = times.len() / 2;
        let median = if times.len().is_multiple_of(2) {
            0.5 * (times[mid - 1] + times[mid])
        } else {
            times[mid]
        };
        let lagging: Vec<usize> =
            (0..outcomes.len()).filter(|&i| secs[i] > factor * median).collect();
        if lagging.is_empty() || lagging.len() == outcomes.len() {
            return;
        }
        // the fastest non-straggler; on a tie the lowest slot (outcomes
        // are in slot order and `min_by` keeps the first minimum)
        let best = (0..outcomes.len())
            .filter(|i| !lagging.contains(i))
            .min_by(|&a, &b| secs[a].partial_cmp(&secs[b]).expect("modeled times are finite"))
            .expect("a non-straggler exists");
        let survivor = outcomes[best].slot;
        for &i in &lagging {
            let (slot, t) = (outcomes[i].slot, secs[i]);
            let (mut acc, mut pot) = (Vec::new(), Vec::new());
            let redo = {
                let (trees, mut jobs) = split_live(&mut self.shards, &self.live);
                let engine = jobs[i].engine;
                let remote = remote_trees(&trees, slot);
                let g5 = &mut *jobs[best].g5;
                shard_eval(g5, engine, &remote, pos, &self.cfg.base, &mut acc, &mut pot)
            };
            if redo.err.is_none() {
                self.recovery = self.recovery.merged(redo.recovery);
                let s = &mut self.shards[survivor];
                s.recovery = s.recovery.merged(redo.recovery);
                let s = &mut self.shards[slot];
                (s.acc, s.pot) = (acc, pot);
                outcomes[i].eval.tally = redo.tally;
                self.set_serving(slot, ShardHealth::Degraded);
                flagged.push(slot);
                self.ledger.record(
                    self.evals,
                    format!(
                        "shard {slot} straggled ({t:.3e} s > {factor} x median {median:.3e} s); \
                         groups re-executed on shard {survivor}"
                    ),
                );
            } else {
                self.ledger.record(
                    self.evals,
                    format!(
                        "shard {slot} straggled but re-execution on shard {survivor} failed; \
                         original result kept"
                    ),
                );
            }
            // the survivor's own throughput must not be charged for the
            // straggler's groups
            let s = &mut self.shards[survivor];
            s.prev_clock = s.clock(&self.cfg.base.grape);
        }
    }

    /// A clean evaluation promotes watched shards: Degraded and freshly
    /// Readmitted shards that served without incident return to Alive.
    /// Flagged shards stay as they are.
    pub(super) fn promote(&mut self, outcomes: &[ShardOutcome], flagged: &[usize]) {
        for o in outcomes {
            if !flagged.contains(&o.slot) {
                self.set_serving(o.slot, ShardHealth::Alive);
            }
        }
    }

    /// The resume state: the shards in service at this instant (a
    /// resumed run re-decomposes over that count), the fault words of
    /// every armed slot — a dead one's too, so a resumed probe finds the
    /// fault the uninterrupted run's would — and the supervisor: shard
    /// healths, measured rates, the weights of the decomposition in
    /// force, the eval clock and the recovery ledger.
    pub(super) fn save_state(&self) -> ResumeState {
        // Readmitted checkpoints as Degraded: both are "serving, watched"
        let durable = |h| match h {
            ShardHealth::Readmitted => ShardHealth::Degraded,
            other => other,
        };
        let slots = self.shards.iter().enumerate();
        ResumeState {
            fault_state: None,
            shards: Some(self.alive_shards()),
            shard_fault_states: slots
                .clone()
                .filter_map(|(k, s)| s.g5.fault_state_words().map(|w| (k, w)))
                .collect(),
            lifecycle: Some(ClusterLifecycle {
                evals: self.evals,
                healths: slots.clone().map(|(k, s)| (k, durable(s.health).code())).collect(),
                rates: slots
                    .filter(|(_, s)| s.rate > 0.0)
                    .map(|(k, s)| (k, s.rate.to_bits()))
                    .collect(),
                cut_weights: self.cut_weights.clone(),
                ledger: self.ledger.events.clone(),
            }),
        }
    }

    /// Restore the shard fault words and the supervisor, entering replay
    /// mode: the next evaluation (the resume's force recompute)
    /// re-creates the interrupted run's decomposition from the stored
    /// cut weights and makes no supervisor decisions of its own, so the
    /// resumed trajectory and ledger are bit-identical to the
    /// uninterrupted run's. As many shards must then serve as the
    /// checkpoint recorded — the cuts depend on that count. A slot past
    /// the cluster or an unknown health code is `InvalidData`.
    pub(super) fn load_state(&mut self, state: &ResumeState) -> io::Result<()> {
        let Some(shards) = state.shards.filter(|_| state.fault_state.is_none()) else {
            return Err(invalid(format!("not a cluster checkpoint, for {}", self.name())));
        };
        let k_total = self.shards.len();
        let unplaced = |key: &str, k: usize| {
            invalid(format!("{key} for slot {k} of a {k_total}-shard cluster"))
        };
        for (slot, words) in &state.shard_fault_states {
            self.shards
                .get_mut(*slot)
                .map_or(Err(DeviceError::BadFaultState), |s| s.g5.restore_fault_state(words))
                .map_err(|e| invalid(format!("shard {slot} fault restore failed: {e}")))?;
        }
        if let Some(lc) = &state.lifecycle {
            for &(k, code) in &lc.healths {
                let health = ShardHealth::from_code(code)
                    .ok_or_else(|| invalid(format!("shard {k}: unknown health code {code}")))?;
                self.shards.get_mut(k).ok_or_else(|| unplaced("shard_health", k))?.health = health;
            }
            for s in &mut self.shards {
                s.rate = 0.0;
            }
            for &(k, bits) in &lc.rates {
                self.shards.get_mut(k).ok_or_else(|| unplaced("shard_rate", k))?.rate =
                    f64::from_bits(bits);
            }
            self.evals = lc.evals;
            self.ledger = RecoveryLedger { events: lc.ledger.clone() };
            self.replay_weights = (!lc.cut_weights.is_empty()).then(|| lc.cut_weights.clone());
            self.replaying = true;
            self.invalidate();
        }
        if self.alive_shards() != shards {
            let alive = self.alive_shards();
            return Err(invalid(format!("checkpoint of {shards} serving shards restored {alive}")));
        }
        Ok(())
    }
}
