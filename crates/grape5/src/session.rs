//! Per-step device session: the host-library protocol around a batch of
//! force calls, with validation and fault recovery.
//!
//! Every force computation against GRAPE-5 repeats the same preamble —
//! declare the coordinate window (`g5_set_range`), set the softening,
//! then stream j-sets through the board memory, chunking any set larger
//! than the memory. [`DeviceSession`] owns that protocol for one
//! evaluation (one simulation step), so every backend drives the device
//! through the same code path instead of re-implementing the
//! window/eps/chunking dance.
//!
//! A session borrows the device mutably for its lifetime: the range and
//! softening it declares stay valid exactly as long as the session
//! lives, which is the invariant the hardware requires (changing the
//! range invalidates loaded j-particles).
//!
//! ## Recovery
//!
//! At production scale the device misbehaves (see [`crate::fault`]),
//! so the session's `try_*` calls treat every returned force set as
//! suspect:
//!
//! 1. **validate** — every component must be finite and within the
//!    magnitude bound the j-set implies (`Σ|m| / max(ε, quantum)²`,
//!    with a small margin for LNS arithmetic), and no board's
//!    accumulator may have clamped;
//! 2. **retry** — a failed call is re-driven with exponential backoff,
//!    re-loading the j-memory (a corrupted DMA is healed by
//!    re-transferring);
//! 3. **quarantine** — after [`RetryPolicy::quarantine_after`] failed
//!    attempts the device self-test runs, persistently-bad pipelines
//!    are taken out of service (their lanes re-spread over surviving
//!    pipes at a cycle penalty) and dead boards are dropped with the
//!    j-set redistributed over the remainder — graceful degradation
//!    instead of a crash.
//!
//! Every recovery action lands in [`RecoveryStats`] so callers can
//! report retry/quarantine overhead.

use crate::fault::DeviceError;
use crate::pipeline::Force;
use crate::system::Grape5;
use g5util::vec3::Vec3;

/// A padded scalar window covering every coordinate — what the host
/// library passes to `g5_set_range` each step as the system evolves.
///
/// A single NaN/inf position would silently poison the window (every
/// particle would then quantize against a garbage grid), so non-finite
/// input is a typed error, not a garbage range.
pub fn bounding_window(pos: &[Vec3]) -> Result<(f64, f64), DeviceError> {
    // One serial pass: a session opens once per evaluation, often over
    // ~1,000 particles, where a thread per pass cost more than the scan.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (index, p) in pos.iter().enumerate() {
        if !p.is_finite() {
            return Err(DeviceError::NonFinitePosition { index });
        }
        lo = lo.min(p.min_component());
        hi = hi.max(p.max_component());
    }
    let pad = ((hi - lo) * 0.01).max(1e-12);
    if lo <= hi && !((hi + pad).is_finite() && (lo - pad).is_finite()) {
        // finite coordinates whose window overflows poison the grid just
        // the same: blame the first particle on either extreme
        let index = pos.iter().position(|p| p.max_component() == hi || p.min_component() == lo);
        return Err(DeviceError::NonFinitePosition { index: index.unwrap_or(0) });
    }
    Ok((lo - pad, hi + pad))
}

/// How the session retries and escalates failed device calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt before giving up.
    pub max_retries: u32,
    /// Failed attempts tolerated before the self-test runs and
    /// persistent faults are quarantined.
    pub quarantine_after: u32,
    /// First backoff delay; doubles per retry (0 = no waiting).
    pub backoff_base_s: f64,
    /// Backoff ceiling.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            quarantine_after: 2,
            backoff_base_s: 1e-4,
            backoff_cap_s: 1e-2,
        }
    }
}

impl RetryPolicy {
    /// Default escalation without real-time sleeping — for tests and
    /// simulated-time runs where wall-clock backoff is meaningless.
    pub fn no_wait() -> Self {
        RetryPolicy { backoff_base_s: 0.0, ..RetryPolicy::default() }
    }
}

/// Tally of recovery actions a session performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Failed attempts that were retried.
    pub retries: u64,
    /// j-memory re-transfers driven by retries.
    pub j_reloads: u64,
    /// Returned force sets rejected by host validation.
    pub validation_failures: u64,
    /// Device-side errors (timeouts).
    pub device_errors: u64,
    /// Pipelines taken out of service.
    pub quarantined_pipes: u64,
    /// Boards taken out of service.
    pub quarantined_boards: u64,
    /// Wall-clock seconds spent in backoff sleeps.
    pub backoff_s: f64,
}

impl RecoveryStats {
    /// Component-wise sum.
    pub fn merged(self, o: RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            retries: self.retries + o.retries,
            j_reloads: self.j_reloads + o.j_reloads,
            validation_failures: self.validation_failures + o.validation_failures,
            device_errors: self.device_errors + o.device_errors,
            quarantined_pipes: self.quarantined_pipes + o.quarantined_pipes,
            quarantined_boards: self.quarantined_boards + o.quarantined_boards,
            backoff_s: self.backoff_s + o.backoff_s,
        }
    }

    /// Did any recovery action fire at all?
    pub fn any(&self) -> bool {
        self.retries > 0 || self.quarantined_pipes > 0 || self.quarantined_boards > 0
    }
}

/// One step's worth of device protocol: range + softening declared
/// once, j-memory chunking, validation and recovery handled per force
/// call.
pub struct DeviceSession<'a> {
    g5: &'a mut Grape5,
    eps: f64,
    retry: RetryPolicy,
    stats: RecoveryStats,
    /// Copy of the resident j-set loaded via [`load_j`](Self::load_j),
    /// kept host-side so a corrupted or redistributed j-memory can be
    /// re-driven without the caller's involvement. The buffers are
    /// retained across loads, so re-loading allocates nothing once they
    /// have grown to the working list length.
    resident: Option<(Vec<Vec3>, Vec<f64>)>,
}

impl<'a> DeviceSession<'a> {
    /// Open a session for a snapshot: declare the bounding window of
    /// `pos` (the unit window for an empty one) and the softening, then
    /// hand back the configured device. Non-finite positions surface as
    /// [`DeviceError::NonFinitePosition`].
    pub fn try_open(g5: &'a mut Grape5, pos: &[Vec3], eps: f64) -> Result<Self, DeviceError> {
        // no particle has no extent (`bounding_window` folds nothing
        // and returns the empty interval): any window serves, since
        // nothing will be quantized against it
        let (lo, hi) = if pos.is_empty() { (-1.0, 1.0) } else { bounding_window(pos)? };
        g5.set_range(lo, hi);
        g5.set_eps(eps);
        Ok(DeviceSession {
            g5,
            eps,
            retry: RetryPolicy::default(),
            stats: RecoveryStats::default(),
            resident: None,
        })
    }

    /// Like [`try_open`](Self::try_open), panicking on invalid input.
    pub fn open(g5: &'a mut Grape5, pos: &[Vec3], eps: f64) -> DeviceSession<'a> {
        DeviceSession::try_open(g5, pos, eps)
            .unwrap_or_else(|e| panic!("cannot open device session: {e}"))
    }

    /// Replace the retry/escalation policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Recovery actions performed so far in this session.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Total j-particles the boards in service can hold at once.
    pub fn jmem_capacity(&self) -> usize {
        self.g5.jmem_capacity()
    }

    /// Load a j-set that fits the board memory, keeping it resident for
    /// subsequent [`force_on`](Self::force_on) calls. The session keeps
    /// a host-side copy so recovery can re-drive the transfer.
    ///
    /// # Panics
    /// If the set exceeds [`jmem_capacity`](Self::jmem_capacity); use
    /// [`try_force_for`](Self::try_force_for) for arbitrary sizes.
    pub fn load_j(&mut self, jpos: &[Vec3], jmass: &[f64]) {
        self.g5.set_j_particles(jpos, jmass);
        let (rpos, rmass) = self.resident.get_or_insert_with(Default::default);
        rpos.clear();
        rpos.extend_from_slice(jpos);
        rmass.clear();
        rmass.extend_from_slice(jmass);
    }

    /// Forces on `xi` from the resident j-set — fast path without
    /// validation or recovery.
    pub fn force_on(&mut self, xi: &[Vec3]) -> Vec<Force> {
        self.g5.force_on(xi)
    }

    /// Forces on `xi` from the resident j-set, validated and recovered:
    /// a bad result is retried (re-loading the j-memory from the
    /// host-side copy), persistent faults are quarantined.
    pub fn try_force_on(&mut self, xi: &[Vec3]) -> Result<Vec<Force>, DeviceError> {
        let (jpos, jmass) = self
            .resident
            .take()
            .expect("try_force_on requires a resident j-set (call load_j first)");
        let out = self.recovering_call(&jpos, &jmass, xi, true);
        self.resident = Some((jpos, jmass));
        out
    }

    /// Forces on `xi` from an arbitrary j-set, validated and recovered:
    /// loaded whole when it fits the board memory, otherwise chunked
    /// through it in passes with the partials summed on the host.
    pub fn try_force_for(
        &mut self,
        jpos: &[Vec3],
        jmass: &[f64],
        xi: &[Vec3],
    ) -> Result<Vec<Force>, DeviceError> {
        self.recovering_call(jpos, jmass, xi, false)
    }

    // ------------------------------------------------------------------
    // Recovery internals
    // ------------------------------------------------------------------

    /// Magnitude bounds implied by a j-set: no valid acceleration
    /// component can exceed `Σ|m| / r_min²` and no potential
    /// `Σ|m| / r_min`, where `r_min = max(ε, quantum)` is the smallest
    /// nonzero separation the hardware can represent (the zero-distance
    /// guard removes r = 0). The 5 % margin covers LNS round-off.
    ///
    /// `msum` is `Σ|m|` over the host's masses in list order. For a set
    /// that fits the j-memory the load has it already
    /// ([`Grape5::j_abs_mass`]: same adds, same order, so the same
    /// number a scan of `jmass` here would give — a ≈ 1,500-long serial
    /// add chain per call at `n_g = 32`); only a chunked set is scanned.
    fn bounds(&self, msum: f64) -> (f64, f64) {
        let r_min = self.eps.max(self.g5.quantum());
        (1.05 * msum / (r_min * r_min), 1.05 * msum / r_min)
    }

    fn validate(f: &[Force], acc_bound: f64, pot_bound: f64) -> Result<(), DeviceError> {
        for (index, w) in f.iter().enumerate() {
            for (value, bound) in [
                (w.acc.x, acc_bound),
                (w.acc.y, acc_bound),
                (w.acc.z, acc_bound),
                (w.pot, pot_bound),
            ] {
                if !value.is_finite() {
                    return Err(DeviceError::InvalidForce { index, value, bound: f64::INFINITY });
                }
                // a non-finite bound — a NaN or infinite mass in the
                // j-set — validates nothing
                if !bound.is_finite() || value.abs() > bound {
                    return Err(DeviceError::InvalidForce { index, value, bound });
                }
            }
        }
        Ok(())
    }

    /// One device call, refused when a board's accumulator clamped: the
    /// answer is then the fixed-point range's, not the j-set's.
    fn unclamped_force_on(&mut self, xi: &[Vec3]) -> Result<Vec<Force>, DeviceError> {
        let forces = self.g5.try_force_on(xi)?;
        match self.g5.clamped_partial() {
            Some((index, value, bound)) => Err(DeviceError::InvalidForce { index, value, bound }),
            None => Ok(forces),
        }
    }

    /// One attempt: (re)load the j-set if asked, run the call(s),
    /// validate the result. With `load` false the resident set must be
    /// the one [`load_j`](Self::load_j) put there.
    fn attempt(
        &mut self,
        jpos: &[Vec3],
        jmass: &[f64],
        xi: &[Vec3],
        load: bool,
    ) -> Result<Vec<Force>, DeviceError> {
        let cap = self.g5.jmem_capacity();
        if cap == 0 {
            return Err(DeviceError::NoBoardsLeft);
        }
        let (forces, msum) = if jpos.len() <= cap {
            if load {
                self.g5.set_j_particles(jpos, jmass);
            }
            (self.unclamped_force_on(xi)?, self.g5.j_abs_mass())
        } else {
            // chunk the j-set through memory, merging partials on the
            // host; validation sees the merged result (corruption
            // survives merging: non-finite stays non-finite, saturated
            // values stay over the bound)
            let mut total = vec![Force::ZERO; xi.len()];
            let mut start = 0;
            while start < jpos.len() {
                let end = (start + cap).min(jpos.len());
                self.g5.set_j_particles(&jpos[start..end], &jmass[start..end]);
                for (t, p) in total.iter_mut().zip(self.unclamped_force_on(xi)?) {
                    *t = t.merged(p);
                }
                start = end;
            }
            (total, jmass.iter().map(|m| m.abs()).sum())
        };
        let (acc_bound, pot_bound) = self.bounds(msum);
        Self::validate(&forces, acc_bound, pot_bound)?;
        Ok(forces)
    }

    /// The retry / backoff / quarantine loop around [`attempt`].
    /// `resident` marks the j-set as already loaded, so the first
    /// attempt skips the transfer and only retries re-drive it.
    fn recovering_call(
        &mut self,
        jpos: &[Vec3],
        jmass: &[f64],
        xi: &[Vec3],
        resident: bool,
    ) -> Result<Vec<Force>, DeviceError> {
        let mut attempts = 0u32;
        loop {
            let load = !(resident && attempts == 0);
            if load && attempts > 0 {
                self.stats.j_reloads += 1;
            }
            let err = match self.attempt(jpos, jmass, xi, load) {
                Ok(f) => return Ok(f),
                Err(e) => e,
            };
            match &err {
                DeviceError::InvalidForce { .. } => self.stats.validation_failures += 1,
                _ => self.stats.device_errors += 1,
            }
            attempts += 1;
            if attempts > self.retry.max_retries {
                return Err(DeviceError::RetriesExhausted { attempts, last: err.to_string() });
            }
            self.stats.retries += 1;
            self.backoff(attempts);
            if attempts > self.retry.quarantine_after {
                // persistent fault: scan the hardware and cut out
                // whatever the self-test convicts
                let report = self.g5.self_test();
                for (b, p) in report.stuck_pipes {
                    self.g5.quarantine_pipe(b, p);
                    self.stats.quarantined_pipes += 1;
                }
                for b in report.dead_boards {
                    self.stats.quarantined_boards += 1;
                    if self.g5.quarantine_board(b) == 0 {
                        return Err(DeviceError::NoBoardsLeft);
                    }
                }
            }
        }
    }

    /// Exponential backoff before retry `attempt` (1-based).
    fn backoff(&mut self, attempt: u32) {
        if self.retry.backoff_base_s <= 0.0 {
            return;
        }
        let delay = (self.retry.backoff_base_s * f64::exp2((attempt - 1) as f64))
            .min(self.retry.backoff_cap_s);
        self.stats.backoff_s += delay;
        std::thread::sleep(std::time::Duration::from_secs_f64(delay));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Grape5Config;
    use crate::fault::{BoardDropout, FaultConfig, StuckPipe};

    #[test]
    fn window_covers_and_pads() {
        let pos = vec![Vec3::new(-1.0, 0.0, 0.5), Vec3::new(2.0, -3.0, 1.0)];
        let (lo, hi) = bounding_window(&pos).unwrap();
        assert!(lo < -3.0 && hi > 2.0);
        assert!((hi - lo) > 5.0);
    }

    #[test]
    fn window_degenerate_point_still_valid() {
        let pos = vec![Vec3::new(1.0, 1.0, 1.0)];
        let (lo, hi) = bounding_window(&pos).unwrap();
        assert!(lo < 1.0 && hi > 1.0);
    }

    #[test]
    fn window_rejects_non_finite_positions() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pos = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, bad, 0.0)];
            assert_eq!(
                bounding_window(&pos).unwrap_err(),
                DeviceError::NonFinitePosition { index: 1 }
            );
        }
        let mut g5 = Grape5::open(Grape5Config::paper_exact());
        let pos = vec![Vec3::new(f64::NAN, 0.0, 0.0)];
        assert!(matches!(
            DeviceSession::try_open(&mut g5, &pos, 0.01),
            Err(DeviceError::NonFinitePosition { index: 0 })
        ));
    }

    /// What no retry can heal is still refused, typed: a sum a board's
    /// accumulator clamped — even when the other board's partial brings
    /// the merged force back inside every bound — and a j-set whose NaN
    /// or infinite mass leaves nothing to validate against.
    #[test]
    fn clamped_accumulators_and_non_finite_masses_fail_validation() {
        // j-particles alternate between the two boards: the first
        // board's x-accumulator clamps at +2³¹, the second's at −2³¹
        let pos = [-1.0, 1.0, 0.0].map(|x| Vec3::new(x, 0.0, 0.0));
        for (mass, clamps) in [
            ([3e9, 3e9, 1.0], true),
            ([3e9, 1.0, 1.0], true),
            ([1e9, 1e9, 1.0], false),
            ([1.0, f64::NAN, 1.0], true),
            ([1.0, f64::INFINITY, 1.0], true),
        ] {
            for cfg in [Grape5Config::paper_exact(), Grape5Config::paper()] {
                let mut g5 = Grape5::open(cfg);
                let mut s =
                    DeviceSession::open(&mut g5, &pos, 0.01).with_retry(RetryPolicy::no_wait());
                let got = s.try_force_for(&pos, &mass, &pos[2..]);
                let failures = s.recovery_stats().validation_failures;
                match got {
                    Err(DeviceError::RetriesExhausted { attempts, last }) => {
                        assert!(clamps, "{mass:?}: {last}");
                        assert_eq!((attempts, failures), (7, 7), "{mass:?}: {last}");
                        assert!(last.contains("invalid force"), "{mass:?}: {last}");
                    }
                    Ok(f) => assert!(!clamps && f[0].acc.x.abs() < 1e3, "{mass:?}: {f:?}"),
                    Err(e) => panic!("{mass:?}: {e}"),
                }
            }
        }
    }

    #[test]
    fn session_matches_manual_protocol() {
        let pos: Vec<Vec3> = (0..300)
            .map(|k| {
                let t = k as f64 * 0.1;
                Vec3::new(t.sin(), (1.3 * t).cos(), 0.3 * t.sin() * t.cos())
            })
            .collect();
        let mass = vec![1.0 / 300.0; 300];
        let xi = &pos[..64];

        let mut a = Grape5::open(Grape5Config::paper_exact());
        let (lo, hi) = bounding_window(&pos).unwrap();
        a.set_range(lo, hi);
        a.set_eps(0.01);
        a.set_j_particles(&pos, &mass);
        let manual = a.force_on(xi);

        let mut b = Grape5::open(Grape5Config::paper_exact());
        let mut s = DeviceSession::open(&mut b, &pos, 0.01);
        let via_session = s.try_force_for(&pos, &mass, xi).expect("a fault-free call");

        for (m, v) in manual.iter().zip(&via_session) {
            assert_eq!(m.acc, v.acc);
            assert_eq!(m.pot, v.pot);
        }
    }

    #[test]
    fn session_chunks_oversized_j_sets() {
        let cfg = Grape5Config { jmem_capacity: 64, ..Grape5Config::paper_exact() };
        let pos: Vec<Vec3> = (0..500)
            .map(|k| {
                let t = k as f64 * 0.07;
                Vec3::new(t.cos(), (0.7 * t).sin(), (0.3 * t).cos())
            })
            .collect();
        let mass = vec![2e-3; 500];
        let xi = &pos[..32];

        let mut small = Grape5::open(cfg);
        let mut s = DeviceSession::open(&mut small, &pos, 0.02);
        assert!(pos.len() > s.jmem_capacity());
        let chunked = s.try_force_for(&pos, &mass, xi).expect("a fault-free call");

        let mut big = Grape5::open(Grape5Config::paper_exact());
        let mut s2 = DeviceSession::open(&mut big, &pos, 0.02);
        let whole = s2.try_force_for(&pos, &mass, xi).expect("a fault-free call");

        for (c, w) in chunked.iter().zip(&whole) {
            assert!((c.acc - w.acc).norm() <= 1e-12 * w.acc.norm().max(1.0));
            assert!((c.pot - w.pot).abs() <= 1e-12 * w.pot.abs().max(1.0));
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn cloud(n: usize) -> (Vec<Vec3>, Vec<f64>) {
        let pos = (0..n)
            .map(|k| {
                let t = k as f64 * 0.13;
                Vec3::new(t.sin(), (0.6 * t).cos(), (0.31 * t).sin() * 0.5)
            })
            .collect();
        (pos, vec![1.0 / n as f64; n])
    }

    /// Forces under each fault class, recovered, must equal the
    /// fault-free forces bit for bit (transient classes) or to fixed-
    /// point re-grouping accuracy (board dropout).
    #[test]
    fn recovery_restores_fault_free_forces() {
        let (pos, mass) = cloud(200);
        let mut clean_dev = Grape5::open(Grape5Config::paper_exact());
        let mut clean = DeviceSession::open(&mut clean_dev, &pos, 0.01);
        let reference = clean.try_force_for(&pos, &mass, &pos).unwrap();
        assert!(!clean.recovery_stats().any());

        let transient_like = [
            FaultConfig::transient(3, 0.8),
            FaultConfig::jmem(4, 0.8),
            FaultConfig::stuck(5, StuckPipe { after_call: 0, board: 1, pipe: 7 }),
        ];
        for cfg in transient_like {
            let mut dev = Grape5::open(Grape5Config::paper_exact());
            dev.set_fault_injector(cfg);
            let mut s = DeviceSession::open(&mut dev, &pos, 0.01)
                .with_retry(RetryPolicy { max_retries: 30, ..RetryPolicy::no_wait() });
            let recovered = s.try_force_for(&pos, &mass, &pos).unwrap();
            assert!(s.recovery_stats().retries > 0, "{cfg:?} never exercised recovery");
            assert_eq!(recovered, reference, "{cfg:?} not bit-identical after recovery");
        }

        // whole-board dropout: the machine degrades to one board; the
        // re-split changes fixed-point accumulation grouping, so equality
        // is to rounding, not bitwise
        let mut dev = Grape5::open(Grape5Config::paper_exact());
        dev.set_fault_injector(FaultConfig::dropout(6, BoardDropout { after_call: 0, board: 0 }));
        let mut s = DeviceSession::open(&mut dev, &pos, 0.01).with_retry(RetryPolicy::no_wait());
        let recovered = s.try_force_for(&pos, &mass, &pos).unwrap();
        let st = s.recovery_stats();
        assert_eq!(st.quarantined_boards, 1);
        for (r, w) in recovered.iter().zip(&reference) {
            assert!((r.acc - w.acc).norm() <= 1e-12 * w.acc.norm().max(1.0));
            assert!((r.pot - w.pot).abs() <= 1e-12 * w.pot.abs().max(1.0));
        }
        assert_eq!(dev.active_boards(), 1);
    }

    #[test]
    fn resident_path_recovers_with_reload() {
        let (pos, mass) = cloud(150);
        let mut clean_dev = Grape5::open(Grape5Config::paper_exact());
        let mut clean = DeviceSession::open(&mut clean_dev, &pos, 0.01);
        clean.load_j(&pos, &mass);
        let reference = clean.try_force_on(&pos).unwrap();

        let mut dev = Grape5::open(Grape5Config::paper_exact());
        dev.set_fault_injector(FaultConfig::jmem(11, 1.0)); // every load corrupted...
        let mut s = DeviceSession::open(&mut dev, &pos, 0.01).with_retry(RetryPolicy {
            max_retries: 40, // ...so recovery needs the lucky uncorrupted retry
            ..RetryPolicy::no_wait()
        });
        s.load_j(&pos, &mass);
        let out = s.try_force_on(&pos);
        // rate 1.0 corrupts every reload, but the corrupted word is
        // drawn fresh each time; the call only succeeds if some reload's
        // corrupted mass aliases the zero-distance guard. Either outcome
        // is legitimate; what matters is that reloads were driven and
        // no garbage ever escaped validation.
        if let Ok(f) = out {
            assert_eq!(f, reference);
        }
        assert!(s.recovery_stats().j_reloads > 0);

        // at a survivable rate the resident path heals exactly
        let mut dev2 = Grape5::open(Grape5Config::paper_exact());
        dev2.set_fault_injector(FaultConfig::jmem(12, 0.5));
        let mut s2 = DeviceSession::open(&mut dev2, &pos, 0.01)
            .with_retry(RetryPolicy { max_retries: 20, ..RetryPolicy::no_wait() });
        s2.load_j(&pos, &mass);
        for _ in 0..5 {
            assert_eq!(s2.try_force_on(&pos).unwrap(), reference);
        }
    }

    #[test]
    fn retries_exhausted_is_an_error_not_a_crash() {
        let (pos, mass) = cloud(60);
        let mut dev = Grape5::open(Grape5Config::paper_exact());
        // transient corruption on every call: quarantine cannot help
        // (the self-test only convicts persistent faults) and every
        // retry fails, so recovery must give up with a typed error
        dev.set_fault_injector(FaultConfig::transient(1, 1.0));
        let mut s = DeviceSession::open(&mut dev, &pos, 0.01)
            .with_retry(RetryPolicy { max_retries: 3, ..RetryPolicy::no_wait() });
        let err = s.try_force_for(&pos, &mass, &pos).unwrap_err();
        assert!(matches!(err, DeviceError::RetriesExhausted { attempts: 4, .. }), "{err}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut dev = Grape5::open(Grape5Config::paper_exact());
        let pos = vec![Vec3::ZERO];
        let mut s = DeviceSession::open(&mut dev, &pos, 0.01).with_retry(RetryPolicy {
            backoff_base_s: 1e-6,
            backoff_cap_s: 3e-6,
            ..RetryPolicy::default()
        });
        s.backoff(1);
        s.backoff(2);
        s.backoff(3); // 4e-6 capped to 3e-6
        assert!((s.recovery_stats().backoff_s - 6e-6).abs() < 1e-12);
    }
}
