//! Deterministic fault injection and device-error taxonomy.
//!
//! A production-scale GRAPE installation loses pipelines and boards
//! mid-run (Makino et al. describe exactly this for GRAPE-6): DRAM bits
//! flip during j-memory loads, a pipeline's arithmetic unit goes
//! stuck-at, a whole board stops answering DMA. The host library has to
//! *detect* the resulting garbage, *retry* what is transient,
//! *quarantine* what is persistent, and keep the run alive. This module
//! provides the device half of that story for the simulator: a seeded,
//! fully reproducible fault process that [`crate::Grape5`] consults on
//! every j-load and force call.
//!
//! Four fault classes are modeled, matching the failure signatures of
//! the real hardware stack:
//!
//! | class | where it fires | signature on the host |
//! |---|---|---|
//! | [transient readback corruption](FaultConfig::transient_rate) | interface readback of one force word | non-finite component (exponent bits stuck high) |
//! | [j-memory load corruption](FaultConfig::jmem_corrupt_rate) | one word of one `set_j_particles` DMA | forces exceed the host's magnitude bound (saturated accumulators) |
//! | [stuck pipeline](FaultConfig::stuck_pipe) | every lane served by one pipe, persistently | non-finite components on a fixed lane stride |
//! | [board dropout](FaultConfig::board_dropout) | the whole board, persistently | the call errors with [`DeviceError::BoardTimeout`] |
//!
//! Every decision is drawn from a seeded generator whose full state can
//! be serialized ([`FaultState::to_words`]) into a checkpoint manifest
//! and restored, so an interrupted faulty run resumes with exactly the
//! faults the uninterrupted run would have seen.

use std::error::Error;
use std::fmt;

// ----------------------------------------------------------------------
// Device errors
// ----------------------------------------------------------------------

/// A typed failure surfaced by the device layer or its host-side
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// An input position was NaN/inf: declaring a range over it would
    /// silently poison the coordinate window for every particle.
    NonFinitePosition {
        /// Index of the offending position in the input slice.
        index: usize,
    },
    /// A board stopped answering within the DMA timeout.
    BoardTimeout {
        /// Index of the unresponsive board.
        board: usize,
    },
    /// A returned force failed host-side validation (non-finite, or
    /// outside the magnitude bound the j-set implies).
    InvalidForce {
        /// i-particle index of the bad force word.
        index: usize,
        /// The offending component value.
        value: f64,
        /// The bound it violated (infinite bound = finiteness check).
        bound: f64,
    },
    /// Recovery gave up: every retry (including post-quarantine ones)
    /// kept failing.
    RetriesExhausted {
        /// Attempts made (first try + retries).
        attempts: u32,
        /// Description of the last failure.
        last: String,
    },
    /// Every board is quarantined — no hardware left to compute on.
    NoBoardsLeft,
    /// A fault-state blob from a checkpoint manifest could not be
    /// restored (wrong version or length).
    BadFaultState,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NonFinitePosition { index } => {
                write!(f, "non-finite position at index {index}")
            }
            DeviceError::BoardTimeout { board } => {
                write!(f, "board {board} timed out")
            }
            DeviceError::InvalidForce { index, value, bound } => {
                write!(f, "invalid force at i-particle {index}: {value} (bound {bound})")
            }
            DeviceError::RetriesExhausted { attempts, last } => {
                write!(f, "recovery failed after {attempts} attempts: {last}")
            }
            DeviceError::NoBoardsLeft => write!(f, "all boards quarantined"),
            DeviceError::BadFaultState => write!(f, "unreadable fault-state blob"),
        }
    }
}

impl Error for DeviceError {}

// ----------------------------------------------------------------------
// Fault configuration
// ----------------------------------------------------------------------

/// A persistently stuck pipeline: from device call `after_call` on,
/// every lane served by pipe `pipe` of board `board` reads back
/// garbage, until the host quarantines the pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckPipe {
    /// Device force-call index at which the pipe fails (0 = from the
    /// first call).
    pub after_call: u64,
    /// Board carrying the stuck pipe.
    pub board: usize,
    /// Pipe index within the board.
    pub pipe: usize,
}

/// A whole-board dropout: from device call `after_call` on, the board
/// stops answering and every force call times out until the host
/// quarantines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardDropout {
    /// Device force-call index at which the board dies.
    pub after_call: u64,
    /// The dying board.
    pub board: usize,
}

/// Configuration of the injected fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault RNG — same seed, same call sequence ⇒ same
    /// faults, bit for bit.
    pub seed: u64,
    /// Per-force-call probability of corrupting one readback word
    /// (models an interface/DRAM transient; the corrupted component
    /// becomes non-finite).
    pub transient_rate: f64,
    /// Per-j-load probability of corrupting one loaded mass word
    /// (models a DMA bit-flip; forces computed from the corrupted set
    /// blow past the host's magnitude bound).
    pub jmem_corrupt_rate: f64,
    /// Optional persistent stuck pipeline.
    pub stuck_pipe: Option<StuckPipe>,
    /// Optional persistent whole-board dropout.
    pub board_dropout: Option<BoardDropout>,
}

impl FaultConfig {
    /// No faults at all (the implicit default of a device opened
    /// without an injector).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            jmem_corrupt_rate: 0.0,
            stuck_pipe: None,
            board_dropout: None,
        }
    }

    /// Transient readback corruption only, at the given per-call rate.
    pub fn transient(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig { transient_rate: rate, ..FaultConfig::none(seed) }
    }

    /// j-memory load corruption only, at the given per-load rate.
    pub fn jmem(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig { jmem_corrupt_rate: rate, ..FaultConfig::none(seed) }
    }

    /// One pipeline goes stuck-at partway into the run.
    pub fn stuck(seed: u64, stuck: StuckPipe) -> FaultConfig {
        FaultConfig { stuck_pipe: Some(stuck), ..FaultConfig::none(seed) }
    }

    /// One board drops out partway into the run.
    pub fn dropout(seed: u64, drop: BoardDropout) -> FaultConfig {
        FaultConfig { board_dropout: Some(drop), ..FaultConfig::none(seed) }
    }

    /// The same fault process re-seeded for shard `k` of a cluster:
    /// rates and persistent faults are kept, the seed is derived with
    /// [`splitmix`] so distinct shards draw independent streams.
    /// Checkpoint round-trips are unaffected — the serialized state
    /// words carry the *evolved* RNG, never the seed.
    pub fn for_shard(&self, k: usize) -> FaultConfig {
        FaultConfig { seed: splitmix(self.seed, k as u64), ..*self }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.transient_rate),
            "transient rate {} outside [0,1]",
            self.transient_rate
        );
        assert!(
            (0.0..=1.0).contains(&self.jmem_corrupt_rate),
            "jmem corruption rate {} outside [0,1]",
            self.jmem_corrupt_rate
        );
    }
}

// ----------------------------------------------------------------------
// Seeded RNG with checkpointable state
// ----------------------------------------------------------------------

/// The `k`-th draw of the SplitMix64 sequence seeded at `base`.
///
/// This is the standard child-seed derivation: `splitmix(base, k)` for
/// distinct `k` yields decorrelated seeds from one base seed, so the K
/// shards of a cluster armed from a single [`FaultConfig`] each see an
/// independent fault stream instead of K replays of the same one
/// ([`FaultConfig::for_shard`]). The same function also seeds
/// `FaultRng`'s state words.
pub fn splitmix(base: u64, k: u64) -> u64 {
    let mut z = base.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ with SplitMix64 seeding — tiny, fast, and with a state
/// small enough to live in a checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    fn seed_from_u64(seed: u64) -> FaultRng {
        FaultRng { s: [splitmix(seed, 0), splitmix(seed, 1), splitmix(seed, 2), splitmix(seed, 3)] }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (n > 0).
    fn next_index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ----------------------------------------------------------------------
// Corruption primitives
// ----------------------------------------------------------------------

/// "Exponent bits stuck high" readback corruption: the classic
/// signature of a failed interface transfer. Always yields inf or NaN,
/// so host-side finiteness validation catches every occurrence.
#[inline]
pub fn corrupt_readback(x: f64) -> f64 {
    f64::from_bits(x.to_bits() | 0x7FF0_0000_0000_0000)
}

/// j-memory corruption: a high exponent bit of the stored mass flips
/// upward (×2^600). Forces computed from the corrupted word saturate
/// the on-board accumulators, which the host's magnitude bound flags as
/// long as `Σm/max(ε,quantum)²` sits below the accumulator ceiling.
#[inline]
pub fn corrupt_mass(m: f64) -> f64 {
    m * f64::exp2(600.0)
}

// ----------------------------------------------------------------------
// Fault process state
// ----------------------------------------------------------------------

/// Serialization version tag of [`FaultState::to_words`].
const FAULT_STATE_VERSION: u64 = 1;

/// The live fault process attached to a device: configuration, RNG and
/// event counters. Owned by [`crate::Grape5`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    cfg: FaultConfig,
    rng: FaultRng,
    /// Force calls the device has served since the injector was armed.
    pub calls: u64,
    /// j-loads the device has served since the injector was armed.
    pub loads: u64,
}

/// What a force call should suffer, as decided by the fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CallFault {
    /// No injected fault this call.
    Clean,
    /// Corrupt readback component `word` of i-particle `index`
    /// (word 0..3 = ax, ay, az, pot).
    Transient { index: usize, word: usize },
    /// The (unquarantined) board is dead: fail the call.
    Timeout { board: usize },
}

impl FaultState {
    /// Arm a fault process.
    pub fn new(cfg: FaultConfig) -> FaultState {
        cfg.validate();
        FaultState { cfg, rng: FaultRng::seed_from_u64(cfg.seed), calls: 0, loads: 0 }
    }

    /// The configuration this process was armed with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Clear the persistent fault classes (stuck pipe, board dropout) —
    /// the "card was reseated / replaced" repair event a chaos schedule
    /// fires before a probation re-test. Transient rates, the RNG
    /// position and the call/load counters are untouched, so the
    /// serialized state words keep round-tripping.
    pub fn clear_persistent(&mut self) {
        self.cfg.stuck_pipe = None;
        self.cfg.board_dropout = None;
    }

    /// Decide the fate of the next force call on `ni` i-particles.
    /// `dead_board_active` reports whether a scheduled dropout board is
    /// still in active service (not yet quarantined by the host).
    pub(crate) fn on_force_call(
        &mut self,
        ni: usize,
        board_active: impl Fn(usize) -> bool,
    ) -> CallFault {
        let call = self.calls;
        self.calls += 1;
        if let Some(d) = self.cfg.board_dropout {
            if call >= d.after_call && board_active(d.board) {
                return CallFault::Timeout { board: d.board };
            }
        }
        if ni > 0 && self.cfg.transient_rate > 0.0 && self.rng.next_f64() < self.cfg.transient_rate
        {
            return CallFault::Transient {
                index: self.rng.next_index(ni),
                word: self.rng.next_index(4),
            };
        }
        CallFault::Clean
    }

    /// The stuck pipe currently manifesting, if any — queried *after*
    /// [`on_force_call`](Self::on_force_call) has counted the call, so
    /// the current call index is `calls - 1`. The caller decides
    /// whether it is quarantined.
    pub(crate) fn manifesting_stuck_pipe(&self) -> Option<StuckPipe> {
        self.cfg.stuck_pipe.filter(|s| self.calls > s.after_call)
    }

    /// The board dropout currently manifesting, if any.
    pub(crate) fn manifesting_dropout(&self) -> Option<BoardDropout> {
        self.cfg.board_dropout.filter(|d| self.calls >= d.after_call)
    }

    /// Decide whether the next j-load of `nwords` words is corrupted;
    /// returns the index of the corrupted word.
    pub(crate) fn on_j_load(&mut self, nwords: usize) -> Option<usize> {
        self.loads += 1;
        if nwords > 0
            && self.cfg.jmem_corrupt_rate > 0.0
            && self.rng.next_f64() < self.cfg.jmem_corrupt_rate
        {
            Some(self.rng.next_index(nwords))
        } else {
            None
        }
    }

    /// Serialize RNG + counters for a checkpoint manifest. The
    /// configuration itself is *not* included — the resuming host
    /// re-arms the same [`FaultConfig`] it launched with and restores
    /// the process position on top.
    pub fn to_words(&self) -> Vec<u64> {
        vec![
            FAULT_STATE_VERSION,
            self.rng.s[0],
            self.rng.s[1],
            self.rng.s[2],
            self.rng.s[3],
            self.calls,
            self.loads,
        ]
    }

    /// Restore a process position saved by [`to_words`](Self::to_words).
    pub fn restore(cfg: FaultConfig, words: &[u64]) -> Result<FaultState, DeviceError> {
        if words.len() != 7 || words[0] != FAULT_STATE_VERSION {
            return Err(DeviceError::BadFaultState);
        }
        cfg.validate();
        Ok(FaultState {
            cfg,
            rng: FaultRng { s: [words[1], words[2], words[3], words[4]] },
            calls: words[5],
            loads: words[6],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_reproduce() {
        let mut a = FaultRng::seed_from_u64(7);
        let mut b = FaultRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn corrupt_readback_is_never_finite() {
        for x in [0.0, 1.0, -3.5e300, 1e-308, f64::MIN_POSITIVE] {
            assert!(!corrupt_readback(x).is_finite(), "corruption of {x} stayed finite");
        }
    }

    #[test]
    fn transient_decisions_reproduce_and_fire() {
        let cfg = FaultConfig::transient(11, 0.5);
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg);
        let mut fired = 0;
        for _ in 0..200 {
            let fa = a.on_force_call(64, |_| true);
            let fb = b.on_force_call(64, |_| true);
            assert_eq!(fa, fb);
            if let CallFault::Transient { index, word } = fa {
                assert!(index < 64 && word < 4);
                fired += 1;
            }
        }
        assert!(fired > 50, "rate 0.5 fired only {fired}/200");
    }

    #[test]
    fn dropout_fires_at_schedule_until_quarantined() {
        let cfg = FaultConfig::dropout(3, BoardDropout { after_call: 2, board: 1 });
        let mut st = FaultState::new(cfg);
        assert_eq!(st.on_force_call(8, |_| true), CallFault::Clean);
        assert_eq!(st.on_force_call(8, |_| true), CallFault::Clean);
        assert_eq!(st.on_force_call(8, |_| true), CallFault::Timeout { board: 1 });
        // once the host quarantines board 1, calls go through again
        assert_eq!(st.on_force_call(8, |b| b != 1), CallFault::Clean);
    }

    #[test]
    fn state_roundtrips_through_words() {
        let cfg = FaultConfig::transient(5, 0.3);
        let mut st = FaultState::new(cfg);
        for _ in 0..17 {
            st.on_force_call(10, |_| true);
        }
        st.on_j_load(100);
        let words = st.to_words();
        let mut back = FaultState::restore(cfg, &words).unwrap();
        // the restored process continues identically
        let mut orig = st.clone();
        for _ in 0..50 {
            assert_eq!(orig.on_force_call(32, |_| true), back.on_force_call(32, |_| true));
            assert_eq!(orig.on_j_load(64), back.on_j_load(64));
        }
    }

    #[test]
    fn bad_state_blob_rejected() {
        let cfg = FaultConfig::none(0);
        assert_eq!(FaultState::restore(cfg, &[9, 9]).unwrap_err(), DeviceError::BadFaultState);
        assert_eq!(
            FaultState::restore(cfg, &[99, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            DeviceError::BadFaultState
        );
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_rate_rejected() {
        FaultState::new(FaultConfig::transient(0, 1.5));
    }

    #[test]
    fn shard_seeds_derive_distinct_streams() {
        let base = FaultConfig::transient(1234, 0.5);
        let seeds: Vec<u64> = (0..8).map(|k| base.for_shard(k).seed).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert_ne!(*a, base.seed, "shard {i} replays the base seed");
            for (j, b) in seeds.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "shards {i} and {j} share a seed");
            }
        }
        // derived processes draw different fault decisions
        let mut a = FaultState::new(base.for_shard(0));
        let mut b = FaultState::new(base.for_shard(1));
        let da: Vec<CallFault> = (0..64).map(|_| a.on_force_call(16, |_| true)).collect();
        let db: Vec<CallFault> = (0..64).map(|_| b.on_force_call(16, |_| true)).collect();
        assert_ne!(da, db, "derived shard streams are identical");
        // and the derivation is itself deterministic
        assert_eq!(base.for_shard(3), base.for_shard(3));
    }

    #[test]
    fn derived_shard_state_roundtrips_through_words() {
        let cfg = FaultConfig::transient(9, 0.4).for_shard(5);
        let mut st = FaultState::new(cfg);
        for _ in 0..11 {
            st.on_force_call(8, |_| true);
        }
        let words = st.to_words();
        let mut back = FaultState::restore(cfg, &words).unwrap();
        for _ in 0..30 {
            assert_eq!(st.on_force_call(8, |_| true), back.on_force_call(8, |_| true));
        }
    }

    #[test]
    fn clear_persistent_keeps_rates_and_counters() {
        let mut cfg = FaultConfig::stuck(3, StuckPipe { after_call: 0, board: 0, pipe: 1 });
        cfg.board_dropout = Some(BoardDropout { after_call: 100, board: 1 });
        cfg.transient_rate = 0.25;
        let mut st = FaultState::new(cfg);
        for _ in 0..5 {
            st.on_force_call(4, |_| true);
        }
        let calls_before = st.calls;
        st.clear_persistent();
        assert_eq!(st.config().stuck_pipe, None);
        assert_eq!(st.config().board_dropout, None);
        assert_eq!(st.config().transient_rate, 0.25);
        assert_eq!(st.calls, calls_before);
        assert_eq!(st.manifesting_stuck_pipe(), None);
        assert_eq!(st.manifesting_dropout(), None);
        // the repaired process still serializes and restores
        let words = st.to_words();
        let back = FaultState::restore(*st.config(), &words).unwrap();
        assert_eq!(back, st);
    }
}
