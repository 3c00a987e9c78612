//! The GRAPE-5 system: processor boards + host interfaces, exposed
//! through an API shaped like the real `g5_*` host library.
//!
//! Usage mirrors the hardware's programming model:
//!
//! ```
//! use grape5::{Grape5, Grape5Config};
//! use g5util::Vec3;
//!
//! let mut g5 = Grape5::open(Grape5Config::paper_exact());
//! g5.set_range(-10.0, 10.0);      // coordinate window (g5_set_range)
//! g5.set_eps(0.01);               // softening       (g5_set_eps_to_all)
//! let pos = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(-1.0, 0.0, 0.0)];
//! let mass = [1.0, 1.0];
//! g5.set_j_particles(&pos, &mass); // load j-memory   (g5_set_xmj / g5_set_n)
//! let f = g5.force_on(&pos);       // g5_calculate_force_on_x
//! assert!(f[0].acc.x < 0.0 && f[1].acc.x > 0.0); // mutual attraction
//! ```
//!
//! With several boards the j-set is split across boards; every board
//! computes the partial force from its share on the same i-particles
//! and the host sums the partials in double precision — the scheme the
//! paper's host library uses, which is why peak throughput is
//! `32 pipelines × 90 MHz`.

use crate::board::ProcessorBoard;
use crate::clock::ClockAccounting;
use crate::config::Grape5Config;
use crate::cutoff::CutoffTable;
use crate::fault::{
    corrupt_mass, corrupt_readback, CallFault, DeviceError, FaultConfig, FaultState,
};
use crate::lanes::{self, LanePath, SelfScratch};
use crate::pipeline::{Force, G5Pipeline};
use g5util::cores;
use g5util::fixed::RangeScaler;
use g5util::vec3::Vec3;

/// Interface words per j-particle (x, y, z, m).
const WORDS_PER_J: u64 = 4;
/// Interface words sent per i-particle (x, y, z).
const WORDS_PER_I: u64 = 3;
/// Interface words read back per i-particle (ax, ay, az, pot).
const WORDS_PER_F: u64 = 4;

/// Interactions (`ni × nj`) a force call needs before its boards are
/// worth running on separate threads; smaller calls — and every call
/// of a caller whose [`cores::share`] is one core — run them one after
/// the other on the calling thread.
///
/// Derivation (measured, EXPERIMENTS.md E11's short-call row, recorded
/// in `BENCH_pr19.json`):
/// spawning and joining one scoped thread costs 23–78 µs (47 µs in that
/// run), and the exact-mode lane kernel runs 2.1–2.9 ns per interaction
/// since PR 18 (2.85 in that run), so splitting `W` interactions over
/// two boards' threads saves `W × 1.05–1.45 ns`. Break-even is
/// `W ≈ 16,000–74,000` (the row's own figure: 33,000) — above one
/// `n_g = 32` call (9 × 1,556), which measured 2× *slower* threaded. At
/// 2¹⁷ the split saves 0.14–0.19 ms, 2–4× what the spawn usually costs
/// and still ahead of its worst case, so the constant stays where PR 13
/// put it; LNS mode (≈ 3× per interaction) only makes that margin
/// wider. Forces do not depend on the choice: each board writes its own
/// partial, merged in board order.
const SPAWN_REPAY_INTERACTIONS: u64 = 1 << 17;

/// Run `compute` for every in-service board holding j-particles, each
/// into its own partial buffer: in board order on the calling thread,
/// or — `parallel` — by recursive halving over [`rayon::join`], the
/// caller keeping one half itself.
fn run_boards<F>(
    boards: &[ProcessorBoard],
    ok: &[bool],
    partials: &mut [Vec<Force>],
    parallel: bool,
    compute: &F,
) where
    F: Fn(&ProcessorBoard, &mut Vec<Force>) + Sync,
{
    if parallel && boards.len() > 1 {
        let mid = boards.len() / 2;
        let (left, right) = partials.split_at_mut(mid);
        rayon::join(
            || run_boards(&boards[..mid], &ok[..mid], left, true, compute),
            || run_boards(&boards[mid..], &ok[mid..], right, true, compute),
        );
    } else {
        for ((b, _), out) in
            boards.iter().zip(ok).zip(partials).filter(|((b, &ok), _)| ok && b.nj() > 0)
        {
            compute(b, out);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Self calls the symmetric kernel evaluated on this thread.
    static SELF_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What the device's built-in self-test reports: persistent faults
/// currently manifesting on hardware still in active service. The host
/// recovery layer runs this after repeated failures to decide what to
/// quarantine (the real library's equivalent is a JTAG/test-pattern
/// scan of each pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfTest {
    /// `(board, pipe)` pairs returning garbage on their lanes.
    pub stuck_pipes: Vec<(usize, usize)>,
    /// Boards not answering DMA.
    pub dead_boards: Vec<usize>,
}

impl SelfTest {
    /// No persistent fault found.
    pub fn is_clean(&self) -> bool {
        self.stuck_pipes.is_empty() && self.dead_boards.is_empty()
    }
}

/// An open GRAPE-5 system.
#[derive(Debug, Clone)]
pub struct Grape5 {
    cfg: Grape5Config,
    boards: Vec<ProcessorBoard>,
    scaler: RangeScaler,
    pipeline: G5Pipeline,
    eps: f64,
    cutoff: Option<CutoffTable>,
    force_scale: f64,
    clock: ClockAccounting,
    nj_total: usize,
    /// `Σ|m|` over the host masses of the loaded j-set, summed in list
    /// order by the load itself (before any injected corruption).
    j_abs_mass: f64,
    /// Injected-fault process, if armed.
    fault: Option<FaultState>,
    /// Host quarantine state: `false` = board taken out of service.
    board_ok: Vec<bool>,
    /// Host quarantine state: pipes taken out of service.
    quarantined_pipes: Vec<(usize, usize)>,
    /// Reusable per-board partial-force buffers: the b-th board's batch
    /// kernel writes its share here, the merge loop reads them back in
    /// board order. Capacity persists across calls, so the steady-state
    /// force loop never allocates.
    partials: Vec<Vec<Force>>,
    /// Reusable quantized i-coordinate buffer.
    i_scratch: Vec<[i64; 3]>,
    /// Reusable working set of the symmetric self-call kernel.
    self_scratch: SelfScratch,
    /// Host-forced exact-mode lane path, surviving pipeline rebuilds.
    lane_override: Option<LanePath>,
}

impl Grape5 {
    /// Power on a system with the given configuration.
    ///
    /// The coordinate window defaults to `[-1, 1)`; call
    /// [`set_range`](Self::set_range) before loading particles that
    /// live elsewhere.
    pub fn open(cfg: Grape5Config) -> Self {
        cfg.validate();
        let boards = (0..cfg.boards).map(|_| ProcessorBoard::new(&cfg)).collect();
        let scaler = RangeScaler::new(-1.0, 1.0, cfg.coord_bits);
        let pipeline = G5Pipeline::new(&cfg, scaler.quantum(), 0.0);
        let nb = cfg.boards;
        Grape5 {
            cfg,
            boards,
            scaler,
            pipeline,
            eps: 0.0,
            cutoff: None,
            force_scale: 1.0,
            clock: ClockAccounting::new(),
            nj_total: 0,
            j_abs_mass: 0.0,
            fault: None,
            board_ok: vec![true; nb],
            quarantined_pipes: Vec::new(),
            partials: vec![Vec::new(); nb],
            i_scratch: Vec::new(),
            self_scratch: SelfScratch::default(),
            lane_override: None,
        }
    }

    fn rebuild_pipeline(&mut self) {
        self.pipeline = G5Pipeline::new(&self.cfg, self.scaler.quantum(), self.eps)
            .with_cutoff(self.cutoff.clone());
        if let Some(path) = self.lane_override {
            self.pipeline.set_lane_path(path);
        }
    }

    /// Force the exact-mode batch kernel onto a specific lane
    /// implementation (see [`LanePath`]); sticks across `set_range` /
    /// `set_eps` pipeline rebuilds. Used by the perf harness and the
    /// bit-identity referees.
    pub fn set_lane_path(&mut self, path: LanePath) {
        self.lane_override = Some(path);
        self.pipeline.set_lane_path(path);
    }

    /// The lane implementation currently active in the exact-mode batch
    /// kernel.
    pub fn lane_path(&self) -> LanePath {
        self.pipeline.lane_path()
    }

    /// The configuration this system was opened with.
    pub fn config(&self) -> &Grape5Config {
        &self.cfg
    }

    /// The processor boards, in board order (read-only: their j-memory
    /// columns, capacities and pipe counts).
    pub fn boards(&self) -> &[ProcessorBoard] {
        &self.boards
    }

    // ------------------------------------------------------------------
    // Fault injection and quarantine
    // ------------------------------------------------------------------

    /// Arm (or replace) the deterministic fault injector. Every fault
    /// the device suffers from here on is drawn from `cfg`'s seeded
    /// process; the same seed and call sequence reproduce the same
    /// faults bit for bit.
    pub fn set_fault_injector(&mut self, cfg: FaultConfig) {
        self.fault = Some(FaultState::new(cfg));
    }

    /// Disarm the injector (quarantine state is host-side and stays).
    pub fn clear_fault_injector(&mut self) {
        self.fault = None;
    }

    /// Checkpointable position of the fault process (RNG + counters),
    /// if an injector is armed. Quarantine state is deliberately *not*
    /// included: persistent faults re-manifest after a restore and the
    /// recovery layer re-quarantines them, which affects only the
    /// timing model, never the forces.
    pub fn fault_state_words(&self) -> Option<Vec<u64>> {
        self.fault.as_ref().map(|f| f.to_words())
    }

    /// Restore a fault-process position saved by
    /// [`fault_state_words`](Self::fault_state_words). An injector with
    /// the original [`FaultConfig`] must already be armed.
    pub fn restore_fault_state(&mut self, words: &[u64]) -> Result<(), DeviceError> {
        let cfg = *self.fault.as_ref().ok_or(DeviceError::BadFaultState)?.config();
        self.fault = Some(FaultState::restore(cfg, words)?);
        Ok(())
    }

    /// Run the device self-test: report persistent faults manifesting
    /// on hardware still in active service.
    pub fn self_test(&self) -> SelfTest {
        let mut report = SelfTest::default();
        if let Some(f) = &self.fault {
            if let Some(s) = f.manifesting_stuck_pipe() {
                if self.board_ok[s.board] && !self.quarantined_pipes.contains(&(s.board, s.pipe)) {
                    report.stuck_pipes.push((s.board, s.pipe));
                }
            }
            if let Some(d) = f.manifesting_dropout() {
                if self.board_ok[d.board] {
                    report.dead_boards.push(d.board);
                }
            }
        }
        report
    }

    /// Take a whole board out of service. Its j-memory share is gone —
    /// reload the j-set to redistribute over the survivors. Returns the
    /// number of boards still active.
    pub fn quarantine_board(&mut self, board: usize) -> usize {
        if board < self.board_ok.len() && self.board_ok[board] {
            self.board_ok[board] = false;
            self.boards[board].clear_j();
            self.nj_total = self.boards.iter().map(|b| b.nj()).sum();
        }
        self.active_boards()
    }

    /// Take one pipeline out of service: its lanes re-spread over the
    /// board's remaining pipes at a cycle-count penalty.
    pub fn quarantine_pipe(&mut self, board: usize, pipe: usize) {
        if board < self.boards.len() && !self.quarantined_pipes.contains(&(board, pipe)) {
            self.quarantined_pipes.push((board, pipe));
            self.boards[board].disable_pipe();
        }
    }

    /// Undo every host-side quarantine: all boards and pipes back in
    /// service. This is the probation entry point — the caller runs
    /// [`self_test`](Self::self_test) right after and re-quarantines
    /// whatever it still convicts, so a persistent fault that has not
    /// been repaired goes straight back out of service. Quarantined
    /// boards come back with empty j-memory; reload the j-set before
    /// computing.
    pub fn return_to_service(&mut self) {
        for ok in &mut self.board_ok {
            *ok = true;
        }
        for b in &mut self.boards {
            b.enable_all_pipes();
        }
        self.quarantined_pipes.clear();
        self.nj_total = self.boards.iter().map(|b| b.nj()).sum();
    }

    /// Repair the persistent fault classes of the armed injector (stuck
    /// pipe, board dropout) — the "card was replaced" event a chaos
    /// schedule fires so a later probation self-test can pass. No-op
    /// without an injector; transient rates and the RNG position stay.
    pub fn clear_persistent_faults(&mut self) {
        if let Some(f) = &mut self.fault {
            f.clear_persistent();
        }
    }

    /// Boards currently in service.
    pub fn active_boards(&self) -> usize {
        self.board_ok.iter().filter(|&&ok| ok).count()
    }

    /// Host quarantine state: `(quarantined boards, quarantined pipes)`.
    pub fn quarantined(&self) -> (Vec<usize>, Vec<(usize, usize)>) {
        let boards = (0..self.board_ok.len()).filter(|&b| !self.board_ok[b]).collect();
        (boards, self.quarantined_pipes.clone())
    }

    /// Declare the coordinate window (`g5_set_range`). Invalidate any
    /// loaded j-set: particles must be reloaded on the new grid.
    pub fn set_range(&mut self, min: f64, max: f64) {
        self.scaler = RangeScaler::new(min, max, self.cfg.coord_bits);
        self.rebuild_pipeline();
        for b in &mut self.boards {
            b.clear_j();
        }
        self.nj_total = 0;
        self.j_abs_mass = 0.0;
    }

    /// Current coordinate window.
    pub fn range(&self) -> (f64, f64) {
        (self.scaler.min(), self.scaler.max())
    }

    /// Size of one coordinate quantum in simulation units.
    pub fn quantum(&self) -> f64 {
        self.scaler.quantum()
    }

    /// Set the softening length ε shared by all interactions
    /// (`g5_set_eps_to_all`).
    pub fn set_eps(&mut self, eps: f64) {
        assert!(eps >= 0.0, "negative softening");
        self.eps = eps;
        self.rebuild_pipeline();
    }

    /// Load (or clear) the hardware cutoff table — the P³M/TreePM mode
    /// of the real library. The table survives range and softening
    /// changes until explicitly cleared.
    pub fn set_cutoff(&mut self, cutoff: Option<CutoffTable>) {
        self.cutoff = cutoff;
        self.rebuild_pipeline();
    }

    /// The loaded cutoff table, if any.
    pub fn cutoff(&self) -> Option<&CutoffTable> {
        self.cutoff.as_ref()
    }

    /// Current softening length.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Declare the unit of the on-board force accumulators. Accumulated
    /// components saturate at `acc_format.max_value() × scale`.
    pub fn set_force_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "non-positive force scale");
        self.force_scale = scale;
    }

    /// Total j-memory capacity across boards in service, in particles.
    pub fn jmem_capacity(&self) -> usize {
        self.cfg.jmem_capacity * self.active_boards()
    }

    /// Number of j-particles currently loaded.
    pub fn nj(&self) -> usize {
        self.nj_total
    }

    /// `Σ|m|` of the j-set last passed to
    /// [`set_j_particles`](Self::set_j_particles): the host's masses,
    /// added in list order from 0 — bit for bit the serial sum over the
    /// slice, which the load takes in its own pass.
    pub(crate) fn j_abs_mass(&self) -> f64 {
        self.j_abs_mass
    }

    /// The first component of the last force call's per-board partials
    /// that sits on an end of the accumulator's range — a sum the board
    /// clamped, not one it computed — as `(i-particle, value, the range
    /// end)`. The merged force hides it: a clamp on one board can be
    /// cancelled by another board's partial.
    pub(crate) fn clamped_partial(&self) -> Option<(usize, f64, f64)> {
        let fmt = self.cfg.acc_format;
        let (lo, hi) = (fmt.min_value() * self.force_scale, fmt.max_value() * self.force_scale);
        let live = self.boards.iter().zip(&self.board_ok).zip(&self.partials);
        live.filter(|((b, &ok), _)| ok && b.nj() > 0).find_map(|(_, partial)| {
            partial.iter().enumerate().find_map(|(index, f)| {
                let clamped = |v: &f64| *v <= lo || *v >= hi;
                let v = [f.acc.x, f.acc.y, f.acc.z, f.pot].into_iter().find(clamped)?;
                Some((index, v, if v < 0.0 { lo } else { hi }))
            })
        })
    }

    /// Load the j-particle set (`g5_set_n` + `g5_set_xmj`), splitting it
    /// evenly across boards and charging the interface transfer.
    ///
    /// # Panics
    /// If the set exceeds [`jmem_capacity`](Self::jmem_capacity); chunk
    /// larger sets with [`DeviceSession::try_force_for`](crate::DeviceSession::try_force_for).
    pub fn set_j_particles(&mut self, pos: &[Vec3], mass: &[f64]) {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        assert!(
            pos.len() <= self.jmem_capacity(),
            "j-set of {} exceeds total j-memory {}",
            pos.len(),
            self.jmem_capacity()
        );
        let n = pos.len();
        // injected DMA corruption: this load may flip a mass bit upward
        // in one word; a retry re-drives the transfer with a fresh draw.
        // Drawn once per load, before any column is written.
        let corrupt =
            self.fault.as_mut().and_then(|f| f.on_j_load(n)).map(|k| (k, corrupt_mass(mass[k])));
        // Even split: the b-th board in service takes the b-th
        // contiguous share, quantized straight into its columns.
        let per = n.div_ceil(self.active_boards().max(1)).max(1);
        let mut shares = pos.chunks(per).zip(mass.chunks(per));
        let mut start = 0;
        let mut max_words_one_iface = 0u64;
        self.j_abs_mass = 0.0;
        for (board, &ok) in self.boards.iter_mut().zip(&self.board_ok) {
            // a board out of service takes no share
            let Some((p, m)) = ok.then(|| shares.next()).flatten() else {
                board.clear_j();
                continue;
            };
            self.j_abs_mass =
                board.load_j_particles(&self.scaler, &self.pipeline, p, m, self.j_abs_mass);
            if let Some((k, bad)) = corrupt.filter(|&(k, _)| (start..start + p.len()).contains(&k))
            {
                board.set_mass(k - start, bad, &self.pipeline);
            }
            start += p.len();
            max_words_one_iface = max_words_one_iface.max(p.len() as u64 * WORDS_PER_J);
        }
        self.nj_total = n;
        // j-load moves through per-board interfaces in parallel: charge
        // the busiest one, no pipeline cycles, no call latency (the
        // transfer piggybacks on the next force call). Tracked as
        // j-words so double-buffered pricing can overlap it.
        self.clock.record_j_load(max_words_one_iface);
    }

    /// Compute forces on `xi` from the loaded j-set
    /// (`g5_calculate_force_on_x`).
    ///
    /// # Panics
    /// On an injected device fault that would need host-side recovery;
    /// use [`try_force_on`](Self::try_force_on) (or the recovering
    /// [`crate::DeviceSession`]) when an injector is armed.
    pub fn force_on(&mut self, xi: &[Vec3]) -> Vec<Force> {
        self.try_force_on(xi).unwrap_or_else(|e| panic!("unrecovered device error: {e}"))
    }

    /// Fallible force call: like [`force_on`](Self::force_on) but a
    /// dead board surfaces as [`DeviceError::BoardTimeout`] instead of
    /// a panic, and injected corruption reaches the returned forces for
    /// the host validation layer to catch.
    pub fn try_force_on(&mut self, xi: &[Vec3]) -> Result<Vec<Force>, DeviceError> {
        // the fault process decides this call's fate first; the call
        // counter advances even on a timeout (the host burned a DMA)
        let call_fault = match &mut self.fault {
            None => CallFault::Clean,
            Some(f) => {
                let ok = &self.board_ok;
                f.on_force_call(xi.len(), |b| ok.get(b).copied().unwrap_or(false))
            }
        };
        if let CallFault::Timeout { board } = call_fault {
            // the call dies at the interface: charge the call overhead,
            // no pipeline work, no data moved
            self.clock.record_call(0, 0, 0);
            return Err(DeviceError::BoardTimeout { board });
        }

        self.i_scratch.clear();
        self.i_scratch.extend(xi.iter().map(|p| {
            [self.scaler.quantize(p.x), self.scaler.quantize(p.y), self.scaler.quantize(p.z)]
        }));

        let stuck = self.fault.as_ref().and_then(|f| f.manifesting_stuck_pipe()).filter(|s| {
            s.board < self.boards.len()
                && self.board_ok[s.board]
                && !self.quarantined_pipes.contains(&(s.board, s.pipe))
        });

        // Dispatch every in-service board; each writes its partials
        // into its own scratch buffer, so the later host merge runs in
        // fixed board order no matter where or when a board ran —
        // forces are deterministic under any thread schedule. Short
        // calls stay on this thread (see SPAWN_REPAY_INTERACTIONS). A
        // self call on this thread — the i-set is the resident j-set,
        // board by board — writes every board's partial from one pass
        // over its unordered pairs instead, unless the kernel declines.
        let interactions = xi.len() as u64 * self.nj_total as u64;
        {
            let (pipeline, raw, force_scale) =
                (&self.pipeline, &self.i_scratch[..], self.force_scale);
            let fmt = self.cfg.acc_format;
            let parallel = interactions >= SPAWN_REPAY_INTERACTIONS
                && cores::share() > 1
                && self.boards.len() > 1;
            let live = |(b, ok): &(&ProcessorBoard, &bool)| **ok && b.nj() > 0;
            let boards = self.boards.iter().zip(&self.board_ok);
            let scratch = &mut self.self_scratch;
            if !parallel
                && xi.len() == self.nj_total
                && pipeline.interact_self(
                    raw,
                    boards.clone().filter(live).map(|(b, _)| b.j_slices()),
                    force_scale,
                    fmt,
                    scratch,
                )
            {
                #[cfg(test)]
                SELF_CALLS.with(|c| c.set(c.get() + 1));
                let outs = boards.zip(&mut self.partials).filter(|(b, _)| live(b));
                for (words, (_, out)) in scratch.acc.chunks(xi.len().max(1)).zip(outs) {
                    out.clear();
                    out.extend(words.iter().map(|&w| lanes::force_of(w, force_scale, fmt)));
                }
            } else {
                run_boards(
                    &self.boards,
                    &self.board_ok,
                    &mut self.partials,
                    parallel,
                    &|b, out| b.compute_into(pipeline, raw, force_scale, out),
                );
            }
        }

        let mut total: Vec<Force> = vec![Force::ZERO; xi.len()];
        let mut max_cycles = 0u64;
        let pipes = self.cfg.pipes_per_board();
        for (bi, b) in self.boards.iter().enumerate() {
            if !self.board_ok[bi] || b.nj() == 0 {
                continue;
            }
            let partial = &mut self.partials[bi];
            if let Some(s) = stuck.filter(|s| s.board == bi) {
                // every lane the stuck pipe serves reads back garbage
                for k in (s.pipe..partial.len()).step_by(pipes) {
                    partial[k].acc.x = corrupt_readback(partial[k].acc.x);
                    partial[k].acc.y = corrupt_readback(partial[k].acc.y);
                    partial[k].acc.z = corrupt_readback(partial[k].acc.z);
                    partial[k].pot = corrupt_readback(partial[k].pot);
                }
            }
            for (t, p) in total.iter_mut().zip(partial.iter()) {
                *t = t.merged(*p);
            }
            max_cycles = max_cycles.max(b.cycles_for(xi.len()));
        }
        if let CallFault::Transient { index, word } = call_fault {
            let f = &mut total[index];
            match word {
                0 => f.acc.x = corrupt_readback(f.acc.x),
                1 => f.acc.y = corrupt_readback(f.acc.y),
                2 => f.acc.z = corrupt_readback(f.acc.z),
                _ => f.pot = corrupt_readback(f.pot),
            }
        }
        let words = xi.len() as u64 * (WORDS_PER_I + WORDS_PER_F);
        self.clock.record_call(max_cycles, words, interactions);
        Ok(total)
    }

    /// Compute forces on `xi` through the pre-batch scalar path:
    /// sequential per-board [`ProcessorBoard::compute_reference`] with
    /// formula LNS converters, merged in board order. No fault
    /// injection and no accounting — this exists so the perf harness
    /// can measure the pre-batch baseline in the same run and the
    /// golden tests can pin `force_on` to it bit for bit.
    pub fn force_on_reference(&self, xi: &[Vec3]) -> Vec<Force> {
        let raw: Vec<[i64; 3]> = xi
            .iter()
            .map(|p| {
                [self.scaler.quantize(p.x), self.scaler.quantize(p.y), self.scaler.quantize(p.z)]
            })
            .collect();
        let mut total: Vec<Force> = vec![Force::ZERO; xi.len()];
        for (bi, b) in self.boards.iter().enumerate() {
            if !self.board_ok[bi] || b.nj() == 0 {
                continue;
            }
            let partial = b.compute_reference(&self.pipeline, &raw, self.force_scale);
            for (t, p) in total.iter_mut().zip(partial) {
                *t = t.merged(p);
            }
        }
        total
    }

    /// Snapshot of the hardware-work accounting.
    pub fn accounting(&self) -> ClockAccounting {
        self.clock
    }

    /// Zero the hardware-work accounting.
    pub fn reset_accounting(&mut self) {
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArithMode;

    fn two_body_system(mode: ArithMode) -> (Grape5, Vec<Vec3>, Vec<f64>) {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let mut g5 = Grape5::open(cfg);
        g5.set_range(-4.0, 4.0);
        g5.set_eps(0.0);
        let pos = vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(-1.0, 0.0, 0.0)];
        let mass = vec![2.0, 3.0];
        (g5, pos, mass)
    }

    #[test]
    fn two_body_forces_exact_mode() {
        let (mut g5, pos, mass) = two_body_system(ArithMode::Exact);
        g5.set_j_particles(&pos, &mass);
        let f = g5.force_on(&pos);
        // a_0 = m_1 (x_1 - x_0)/|..|^3 = 3 * (-2)/8 = -0.75
        assert!((f[0].acc.x + 0.75).abs() < 1e-6);
        // a_1 = m_0 (x_0 - x_1)/8 = 2 * 2 / 8 = 0.5
        assert!((f[1].acc.x - 0.5).abs() < 1e-6);
        // potentials: p_0 = m_1/2, p_1 = m_0/2
        assert!((f[0].pot - 1.5).abs() < 1e-6);
        assert!((f[1].pot - 1.0).abs() < 1e-6);
        // Newton's third law for the force (mass-weighted)
        assert!((mass[0] * f[0].acc.x + mass[1] * f[1].acc.x).abs() < 1e-6);
    }

    #[test]
    fn two_body_forces_lns_mode_within_hardware_error() {
        let (mut g5, pos, mass) = two_body_system(ArithMode::Lns);
        g5.set_j_particles(&pos, &mass);
        let f = g5.force_on(&pos);
        assert!((f[0].acc.x + 0.75).abs() < 0.75 * 0.01);
        assert!((f[1].acc.x - 0.5).abs() < 0.5 * 0.01);
    }

    #[test]
    fn accounting_counts_cycles_words_interactions() {
        let (mut g5, pos, mass) = two_body_system(ArithMode::Exact);
        g5.set_j_particles(&pos, &mass);
        let _ = g5.force_on(&pos);
        let a = g5.accounting();
        assert_eq!(a.calls, 1);
        assert_eq!(a.interactions, 4); // 2 i × 2 j
                                       // 2 boards, 1 j each: slowest board streams 1 j + latency
        assert_eq!(a.pipeline_cycles, 1 + Grape5Config::paper().pipeline_latency_cycles);
        // words: j-load max(4,4)=4, i send 2×3, f read 2×4
        assert_eq!(a.iface_words, 4 + 6 + 8);
        g5.reset_accounting();
        assert_eq!(g5.accounting(), ClockAccounting::new());
    }

    #[test]
    fn range_change_invalidates_j_set() {
        let (mut g5, pos, mass) = two_body_system(ArithMode::Exact);
        g5.set_j_particles(&pos, &mass);
        assert_eq!(g5.nj(), 2);
        g5.set_range(-8.0, 8.0);
        assert_eq!(g5.nj(), 0);
        let f = g5.force_on(&pos);
        assert_eq!(f[0], Force::ZERO);
    }

    #[test]
    fn out_of_range_positions_saturate_not_crash() {
        let (mut g5, _, _) = two_body_system(ArithMode::Exact);
        let far = vec![Vec3::new(1e9, -1e9, 0.0)];
        g5.set_j_particles(&far, &[1.0]);
        let f = g5.force_on(&[Vec3::ZERO]);
        assert!(f[0].acc.is_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds total j-memory")]
    fn oversize_j_set_rejected() {
        let cfg = Grape5Config {
            mode: ArithMode::Exact,
            jmem_capacity: 1,
            boards: 1,
            ..Grape5Config::paper()
        };
        let mut g5 = Grape5::open(cfg);
        let pos = vec![Vec3::ZERO, Vec3::ONE];
        g5.set_j_particles(&pos, &[1.0, 1.0]);
    }

    #[test]
    fn cutoff_suppresses_far_interactions() {
        use crate::cutoff::CutoffTable;
        let (mut g5, _, _) = two_body_system(ArithMode::Exact);
        // cutoff at r = 1.5: the pair at separation 2 must vanish
        g5.set_cutoff(Some(CutoffTable::treepm(0.3, 1.5, 10, 20)));
        let pos = vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(-1.0, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        g5.set_j_particles(&pos, &mass);
        let f = g5.force_on(&pos);
        assert_eq!(f[0], Force::ZERO);
        // a close pair still interacts, with a sub-Newtonian factor
        let close = vec![Vec3::new(0.05, 0.0, 0.0), Vec3::new(-0.05, 0.0, 0.0)];
        g5.set_j_particles(&close, &mass);
        let fc = g5.force_on(&close);
        assert!(fc[0].acc.x < 0.0, "close pair must still attract");
        let newton = 1.0 / (0.1f64 * 0.1);
        assert!(fc[0].acc.x.abs() <= newton);
        // clearing the table restores plain gravity
        g5.set_cutoff(None);
        g5.set_j_particles(&close, &mass);
        let fn_ = g5.force_on(&close);
        assert!((fn_[0].acc.x.abs() - newton).abs() / newton < 1e-5);
    }

    #[test]
    fn cutoff_survives_range_and_eps_changes() {
        use crate::cutoff::CutoffTable;
        let (mut g5, pos, mass) = two_body_system(ArithMode::Exact);
        g5.set_cutoff(Some(CutoffTable::treepm(0.3, 1.5, 8, 16)));
        g5.set_range(-8.0, 8.0);
        g5.set_eps(0.01);
        assert!(g5.cutoff().is_some());
        g5.set_j_particles(&pos, &mass);
        let f = g5.force_on(&pos);
        assert_eq!(f[0], Force::ZERO, "separation 2 > cutoff 1.5 must vanish");
    }

    #[test]
    fn cutoff_lns_mode_matches_exact_mode_shape() {
        use crate::cutoff::CutoffTable;
        let mut exact = two_body_system(ArithMode::Exact).0;
        let mut lns = two_body_system(ArithMode::Lns).0;
        let pos = vec![Vec3::new(0.2, 0.1, 0.0), Vec3::new(-0.2, -0.1, 0.0)];
        let mass = vec![1.0, 2.0];
        for g in [&mut exact, &mut lns] {
            g.set_cutoff(Some(CutoffTable::treepm(0.25, 1.0, 10, 20)));
            g.set_j_particles(&pos, &mass);
        }
        let fe = exact.force_on(&pos);
        let fl = lns.force_on(&pos);
        let rel = (fe[0].acc - fl[0].acc).norm() / fe[0].acc.norm();
        assert!(rel < 0.02, "LNS cutoff path off by {rel}");
    }

    mod faults {
        use super::*;
        use crate::fault::{BoardDropout, FaultConfig, StuckPipe};

        /// Bit patterns of every force component — corrupted outputs are
        /// NaN, so reproducibility checks cannot use `==` on `f64`.
        fn force_bits(f: &[Force]) -> Vec<[u64; 4]> {
            f.iter()
                .map(|w| [w.acc.x.to_bits(), w.acc.y.to_bits(), w.acc.z.to_bits(), w.pot.to_bits()])
                .collect()
        }

        fn loaded_system() -> (Grape5, Vec<Vec3>, Vec<f64>) {
            let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
            let mut g5 = Grape5::open(cfg);
            g5.set_range(-2.0, 2.0);
            g5.set_eps(0.05);
            let pos: Vec<Vec3> = (0..40)
                .map(|k| Vec3::new((k as f64 * 0.04) - 0.8, (k % 5) as f64 * 0.1, 0.2))
                .collect();
            let mass = vec![0.025; 40];
            (g5, pos, mass)
        }

        #[test]
        fn transient_corruption_is_non_finite_and_reproducible() {
            let (mut clean, pos, mass) = loaded_system();
            clean.set_j_particles(&pos, &mass);
            let reference = clean.force_on(&pos);

            let mut runs = Vec::new();
            for _ in 0..2 {
                let (mut g5, _, _) = loaded_system();
                g5.set_fault_injector(FaultConfig::transient(42, 0.7));
                g5.set_j_particles(&pos, &mass);
                let mut forces = Vec::new();
                for _ in 0..20 {
                    forces.push(g5.try_force_on(&pos).unwrap());
                }
                runs.push(forces);
            }
            for (a, b) in runs[0].iter().zip(&runs[1]) {
                assert_eq!(force_bits(a), force_bits(b), "same seed must inject identical faults");
            }
            let mut corrupted_calls = 0;
            for f in &runs[0] {
                let bad: Vec<_> =
                    f.iter().filter(|w| !(w.acc.is_finite() && w.pot.is_finite())).collect();
                if !bad.is_empty() {
                    corrupted_calls += 1;
                    assert_eq!(bad.len(), 1, "transient corrupts exactly one word");
                }
            }
            assert!(corrupted_calls >= 8, "rate 0.7 corrupted only {corrupted_calls}/20 calls");
            // uncorrupted calls match the fault-free device bit for bit
            let clean_call =
                runs[0].iter().find(|f| f.iter().all(|w| w.acc.is_finite() && w.pot.is_finite()));
            assert_eq!(clean_call.unwrap(), &reference);
        }

        #[test]
        fn jmem_corruption_blows_past_the_mass_scale() {
            let (mut g5, pos, mass) = loaded_system();
            g5.set_fault_injector(FaultConfig::jmem(9, 1.0)); // corrupt every load
            g5.set_j_particles(&pos, &mass);
            let f = g5.force_on(&pos);
            // total mass is 1; with eps = 0.05 the force bound is
            // Σm/ε² = 400 — a 2^600-scaled mass saturates far beyond it
            let worst = f.iter().map(|w| w.acc.norm().max(w.pot.abs())).fold(0.0, f64::max);
            assert!(worst > 400.0, "corrupted load stayed under the bound: {worst}");
        }

        #[test]
        fn board_dropout_times_out_until_quarantined() {
            let (mut g5, pos, mass) = loaded_system();
            g5.set_fault_injector(FaultConfig::dropout(
                1,
                BoardDropout { after_call: 2, board: 1 },
            ));
            g5.set_j_particles(&pos, &mass);
            let f0 = g5.try_force_on(&pos).unwrap();
            let _ = g5.try_force_on(&pos).unwrap();
            let err = g5.try_force_on(&pos).unwrap_err();
            assert_eq!(err, DeviceError::BoardTimeout { board: 1 });
            assert_eq!(g5.self_test().dead_boards, vec![1]);
            // quarantine halves the machine; the j-set must be reloaded
            assert_eq!(g5.quarantine_board(1), 1);
            assert_eq!(g5.jmem_capacity(), g5.config().jmem_capacity);
            g5.set_j_particles(&pos, &mass);
            let f1 = g5.try_force_on(&pos).unwrap();
            assert!(g5.self_test().is_clean());
            for (a, b) in f0.iter().zip(&f1) {
                assert!((a.acc - b.acc).norm() <= 1e-12 * a.acc.norm().max(1.0));
            }
        }

        #[test]
        fn stuck_pipe_corrupts_its_lanes_until_quarantined() {
            let (mut g5, pos, mass) = loaded_system();
            let stuck = StuckPipe { after_call: 0, board: 0, pipe: 3 };
            g5.set_fault_injector(FaultConfig::stuck(1, stuck));
            g5.set_j_particles(&pos, &mass);
            let f = g5.try_force_on(&pos).unwrap();
            let pipes = g5.config().pipes_per_board();
            for (k, w) in f.iter().enumerate() {
                let on_stuck_lane = k % pipes == stuck.pipe;
                assert_eq!(
                    !(w.acc.is_finite() && w.pot.is_finite()),
                    on_stuck_lane,
                    "lane {k} corruption mismatch"
                );
            }
            assert_eq!(g5.self_test().stuck_pipes, vec![(0, 3)]);
            // 32 i-particles: 2 passes over 16 pipes, 3 over 15 — the
            // quarantine penalty is visible in the schedule
            let cycles_before = {
                let mut probe = g5.clone();
                probe.reset_accounting();
                let _ = probe.try_force_on(&pos[..32]).unwrap();
                probe.accounting().pipeline_cycles
            };
            g5.quarantine_pipe(0, 3);
            assert!(g5.self_test().is_clean());
            g5.reset_accounting();
            let f2 = g5.try_force_on(&pos[..32]).unwrap();
            assert!(f2.iter().all(|w| w.acc.is_finite() && w.pot.is_finite()));
            // graceful degradation: the board runs on, slower
            assert!(
                g5.accounting().pipeline_cycles > cycles_before,
                "quarantine must cost cycles: {} vs {cycles_before}",
                g5.accounting().pipeline_cycles
            );
        }

        #[test]
        fn return_to_service_reverses_quarantine_after_repair() {
            let (mut g5, pos, mass) = loaded_system();
            g5.set_fault_injector(FaultConfig::dropout(
                4,
                BoardDropout { after_call: 0, board: 1 },
            ));
            g5.set_j_particles(&pos, &mass);
            let err = g5.try_force_on(&pos).unwrap_err();
            assert_eq!(err, DeviceError::BoardTimeout { board: 1 });
            assert_eq!(g5.quarantine_board(1), 1);

            // un-repaired: service restore + self-test convicts it again
            g5.return_to_service();
            assert_eq!(g5.active_boards(), 2);
            assert_eq!(g5.self_test().dead_boards, vec![1]);
            assert_eq!(g5.quarantine_board(1), 1);

            // repaired: the probe passes and the full machine returns
            g5.clear_persistent_faults();
            g5.return_to_service();
            assert!(g5.self_test().is_clean());
            assert_eq!(g5.active_boards(), 2);
            assert_eq!(g5.jmem_capacity(), 2 * g5.config().jmem_capacity);
            g5.set_j_particles(&pos, &mass);
            let f = g5.try_force_on(&pos).unwrap();
            assert!(f.iter().all(|w| w.acc.is_finite() && w.pot.is_finite()));
        }

        #[test]
        fn return_to_service_restores_pipe_schedule() {
            let (mut g5, pos, mass) = loaded_system();
            g5.set_j_particles(&pos, &mass);
            g5.reset_accounting();
            let _ = g5.try_force_on(&pos[..32]).unwrap();
            let healthy_cycles = g5.accounting().pipeline_cycles;
            g5.quarantine_pipe(0, 3);
            g5.reset_accounting();
            let _ = g5.try_force_on(&pos[..32]).unwrap();
            assert!(g5.accounting().pipeline_cycles > healthy_cycles);
            g5.return_to_service();
            assert!(g5.quarantined().1.is_empty());
            g5.reset_accounting();
            let _ = g5.try_force_on(&pos[..32]).unwrap();
            assert_eq!(g5.accounting().pipeline_cycles, healthy_cycles);
        }

        #[test]
        fn fault_state_roundtrip_resumes_the_same_fault_stream() {
            let (mut g5, pos, mass) = loaded_system();
            let cfg = FaultConfig::transient(77, 0.5);
            g5.set_fault_injector(cfg);
            g5.set_j_particles(&pos, &mass);
            for _ in 0..7 {
                let _ = g5.try_force_on(&pos).unwrap();
            }
            let words = g5.fault_state_words().unwrap();

            // a "restarted" device armed with the same config + state
            let (mut resumed, _, _) = loaded_system();
            resumed.set_fault_injector(cfg);
            resumed.restore_fault_state(&words).unwrap();
            resumed.set_j_particles(&pos, &mass);
            // fault decisions diverge if the j-load advanced only one
            // process — both counted it, so streams stay aligned
            g5.set_j_particles(&pos, &mass);
            for _ in 0..10 {
                let a = g5.try_force_on(&pos).unwrap();
                let b = resumed.try_force_on(&pos).unwrap();
                assert_eq!(force_bits(&a), force_bits(&b));
            }
        }
    }

    /// The j-memory golden: after `set_j_particles` every board column
    /// holds what `load_j` stores for reference `JWord`s built the
    /// pre-one-pass way (scalar `quantize`, `encode_mass`, even split),
    /// and an armed j-memory fault is drawn once, lands on the same
    /// word with the same value, and leaves the RNG where the reference
    /// draw leaves it.
    #[test]
    fn jmem_golden_columns_match_reference_words_with_and_without_faults() {
        use crate::fault::{FaultConfig, FaultState};
        use crate::pipeline::JWord;
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            for (n, fault) in [
                (0usize, None),
                (1, None),
                (2, None),
                (3, Some(FaultConfig::jmem(5, 1.0))),
                (37, None),
                (37, Some(FaultConfig::jmem(21, 1.0))),
                (38, Some(FaultConfig::jmem(22, 1.0))),
                (38, Some(FaultConfig::jmem(23, 0.5))),
                (600, Some(FaultConfig::jmem(24, 1.0))),
            ] {
                let cfg = Grape5Config { mode, ..Grape5Config::paper() };
                let mut g5 = Grape5::open(cfg);
                g5.set_range(-3.0, 5.0);
                g5.set_eps(0.01);
                let pos: Vec<Vec3> = (0..n)
                    .map(|k| {
                        let t = k as f64 * 0.37;
                        // a few particles outside the window saturate
                        Vec3::new(4.0 * t.sin() + 1.0, 4.5 * (1.3 * t).cos() + 1.0, 0.1 * t - 2.0)
                    })
                    .collect();
                let mass: Vec<f64> = (0..n).map(|k| 0.5 + (k % 7) as f64 * 0.25).collect();

                // reference: words, then the fault draw, then the split
                let mut words: Vec<JWord> = pos
                    .iter()
                    .zip(&mass)
                    .map(|(p, &m)| JWord {
                        raw: [
                            g5.scaler.quantize(p.x),
                            g5.scaler.quantize(p.y),
                            g5.scaler.quantize(p.z),
                        ],
                        m_lns: g5.pipeline.encode_mass(m),
                        m,
                    })
                    .collect();
                let mut reference_fault = fault.map(FaultState::new);
                if let Some(k) = reference_fault.as_mut().and_then(|f| f.on_j_load(n)) {
                    words[k].m = corrupt_mass(words[k].m);
                    words[k].m_lns = g5.pipeline.encode_mass(words[k].m);
                }
                let per = n.div_ceil(cfg.boards).max(1);
                let mut shares = words.chunks(per);

                if let Some(f) = fault {
                    g5.set_fault_injector(f);
                }
                g5.set_j_particles(&pos, &mass);
                assert_eq!(g5.nj(), n);
                assert_eq!(
                    g5.fault_state_words(),
                    reference_fault.as_ref().map(FaultState::to_words),
                    "{mode:?} n = {n}: fault RNG position"
                );
                for (b, board) in g5.boards().iter().enumerate() {
                    let mut want = ProcessorBoard::new(&cfg);
                    want.load_j(shares.next().unwrap_or(&[]));
                    let (got, want) = (board.j_slices(), want.j_slices());
                    let what = format!("{mode:?} n = {n} fault {fault:?} board {b}");
                    assert_eq!((got.x, got.y, got.z), (want.x, want.y, want.z), "{what}");
                    assert_eq!(got.m, want.m, "{what}: masses");
                    assert!(got.in_window && want.in_window, "{what}: 32-bit words");
                    if mode == ArithMode::Lns {
                        assert_eq!((got.m_lns, got.m_word), (want.m_lns, want.m_word), "{what}");
                    } else {
                        // exact mode never reads the log words
                        assert!(got.m_lns.is_empty() && got.m_word.is_empty(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn inline_dispatch_runs_both_boards_on_the_calling_thread() {
        use std::sync::Mutex;
        let (mut g5, pos, mass) = two_body_system(ArithMode::Exact);
        g5.set_j_particles(&pos, &mass);
        let ran = Mutex::new(Vec::new());
        let note = |b: &ProcessorBoard, _: &mut Vec<Force>| {
            ran.lock().unwrap().push((b.nj(), std::thread::current().id()));
        };
        let me = std::thread::current().id();
        run_boards(&g5.boards, &g5.board_ok, &mut g5.partials, false, &note);
        assert_eq!(*ran.lock().unwrap(), [(1, me), (1, me)], "board order, calling thread");
        // the threaded dispatch keeps one half on the caller too
        ran.lock().unwrap().clear();
        run_boards(&g5.boards, &g5.board_ok, &mut g5.partials, true, &note);
        let ran = ran.into_inner().unwrap();
        assert_eq!(ran.len(), 2);
        assert!(ran.iter().any(|&(_, id)| id == me));
        // an out-of-service or empty board is never dispatched
        g5.quarantine_board(0);
        let count = Mutex::new(0);
        run_boards(&g5.boards, &g5.board_ok, &mut g5.partials, false, &|_, _| {
            *count.lock().unwrap() += 1;
        });
        assert_eq!(count.into_inner().unwrap(), 1);
    }

    #[test]
    fn quarantined_board_takes_no_share_of_a_load() {
        let cfg = Grape5Config { mode: ArithMode::Exact, boards: 3, ..Grape5Config::paper() };
        let mut g5 = Grape5::open(cfg);
        g5.set_range(-2.0, 2.0);
        let pos: Vec<Vec3> = (0..10).map(|k| Vec3::new(k as f64 * 0.1, 0.1, 0.2)).collect();
        g5.set_j_particles(&pos, &[1.0; 10]);
        assert_eq!(g5.boards().iter().map(|b| b.nj()).collect::<Vec<_>>(), [4, 4, 2]);
        assert_eq!(g5.quarantine_board(1), 2);
        assert_eq!(g5.nj(), 6, "the quarantined board's share is gone");
        g5.set_j_particles(&pos, &[1.0; 10]);
        assert_eq!(g5.boards().iter().map(|b| b.nj()).collect::<Vec<_>>(), [5, 0, 5]);
        // board 2 holds the second share, not the third
        assert_eq!(g5.boards()[2].j_slices().x[0], g5.scaler.quantize(0.5));
    }

    #[test]
    fn load_carries_the_serial_abs_mass_sum_bit_for_bit() {
        // masses whose sum depends on the order of the adds, some
        // negative; the load's number must be the one a serial scan of
        // the host slice gives, however the boards share the set and
        // whatever the injector does to the words afterwards
        let mut k = 0u64;
        let mut draw = || {
            k += 1;
            let u = (crate::fault::splitmix(19, k) >> 11) as f64 / (1u64 << 53) as f64;
            (u - 0.3) * f64::exp2(40.0 * u - 20.0)
        };
        for (boards, n) in [(1, 0), (1, 1), (2, 2), (2, 1521), (3, 1000), (4, 7)] {
            let cfg = Grape5Config { mode: ArithMode::Exact, boards, ..Grape5Config::paper() };
            let mut g5 = Grape5::open(cfg);
            g5.set_range(-2.0, 2.0);
            g5.set_fault_injector(FaultConfig::jmem(9, 1.0));
            let pos: Vec<Vec3> = (0..n).map(|k| Vec3::splat(k as f64 * 1e-3 - 0.5)).collect();
            let mass: Vec<f64> = (0..n).map(|_| draw()).collect();
            let serial: f64 = mass.iter().map(|m| m.abs()).sum();
            g5.set_j_particles(&pos, &mass);
            assert_eq!(g5.j_abs_mass().to_bits(), (serial + 0.0).to_bits(), "{boards} x {n}");
            if boards > 1 && n > boards {
                // a different split after a board is lost: same chain
                g5.quarantine_board(0);
                g5.set_j_particles(&pos, &mass);
                assert_eq!(g5.j_abs_mass().to_bits(), serial.to_bits(), "{boards} x {n}, one out");
            }
            g5.set_range(-2.0, 2.0);
            assert_eq!(g5.j_abs_mass(), 0.0, "an emptied memory has no mass");
        }
    }

    #[test]
    fn wide_formats_settle_the_window_guard_at_the_load() {
        // 56-bit words: the quantizer's clamp no longer implies the
        // magic window, so the load reads what it wrote — once
        let wide = Grape5Config { mode: ArithMode::Exact, coord_bits: 56, ..Grape5Config::paper() };
        let near: Vec<Vec3> = (0..40).map(|k| Vec3::splat(1e-4 * k as f64)).collect();
        let mut far = near.clone();
        far[29] = Vec3::new(0.0, -0.9, 0.0); // |word| ~ 0.9 x 2^55, on the second board
        let xi = [Vec3::new(0.01, 0.02, -0.03), Vec3::new(-0.5, 0.25, 0.125)];
        for (pos, in_window) in [(&near, [true, true]), (&far, [true, false])] {
            let mut forces = Vec::new();
            for path in [LanePath::Avx2, LanePath::Scalar] {
                let mut g5 = Grape5::open(wide);
                g5.set_lane_path(path);
                g5.set_range(-1.0, 1.0);
                g5.set_j_particles(pos, &vec![1.0; pos.len()]);
                let flags: Vec<bool> = g5.boards().iter().map(|b| b.j_slices().in_window).collect();
                assert_eq!(flags, in_window, "{path:?}");
                forces.push(g5.force_on(&xi));
            }
            assert_eq!(forces[0], forces[1], "AVX2 entry (guarded) vs the definition");
        }
        // any format up to 50 bits is inside by the clamp alone, at the
        // window's very edge too
        let cfg = Grape5Config { mode: ArithMode::Exact, coord_bits: 50, ..Grape5Config::paper() };
        let mut g5 = Grape5::open(cfg);
        g5.set_range(-1.0, 1.0);
        g5.set_j_particles(&[Vec3::splat(-5.0), Vec3::splat(5.0)], &[1.0; 2]);
        for b in g5.boards() {
            let j = b.j_slices();
            assert!(j.in_window && crate::lanes::words_in_magic_window(j.x));
        }
        // a cleared memory is vacuously inside again
        let mut g5 = Grape5::open(wide);
        g5.set_range(-1.0, 1.0);
        g5.set_j_particles(&far, &vec![1.0; far.len()]);
        g5.set_range(-1.0, 1.0);
        assert!(g5.boards().iter().all(|b| b.j_slices().in_window));
    }

    /// `calls` self calls of `pos` — load, then forces on the same set —
    /// on a device on `path`: per call, the force bits, whether the
    /// symmetric kernel ran and whether the load was corrupted.
    fn self_calls(
        cfg: Grape5Config,
        path: LanePath,
        (eps, scale): (f64, f64),
        (pos, mass): (&[Vec3], &[f64]),
        fault: Option<FaultConfig>,
        calls: usize,
    ) -> Vec<(Vec<[u64; 4]>, bool, bool)> {
        let runs = || SELF_CALLS.with(std::cell::Cell::get);
        let mut g5 = Grape5::open(cfg);
        g5.set_lane_path(path);
        g5.set_range(-1.0, 1.0);
        g5.set_eps(eps);
        g5.set_force_scale(scale);
        if let Some(f) = fault {
            g5.set_fault_injector(f);
        }
        (0..calls)
            .map(|_| {
                g5.set_j_particles(pos, mass);
                let corrupted = g5.boards().iter().flat_map(|b| b.j_slices().m).ne(mass);
                let before = runs();
                let f = g5.try_force_on(pos).expect("no board can time out");
                let bits = f.iter().map(|w| [w.acc.x, w.acc.y, w.acc.z, w.pot].map(f64::to_bits));
                (bits.collect(), runs() > before, corrupted)
            })
            .collect()
    }

    /// The symmetric self-call kernel (`lanes::block_exact_self`) against
    /// the scalar definition, bit for bit, through whole force calls: one
    /// to three boards, n from 1 to 2,000, ε ∈ {0, 10⁻³, 0.05}, force scale
    /// ∈ {1, ⅛, 3}, a coincident pair (across boards where there are
    /// several), words on the edge of the magic window and past it, terms
    /// past the encode window, and an injector arming transient faults,
    /// j-memory corruption and a stuck pipe. The kernel must have run on
    /// every call that can take it (`eligible`; `None`: ε = 0 with a
    /// coincident pair, which it may decline) and on no other.
    #[test]
    fn self_calls_match_the_scalar_definition_bit_for_bit() {
        use crate::fault::StuckPipe;
        use rand::{Rng, SeedableRng};
        // a registered caller per core: every call runs its boards on this
        // thread however long it is, so none is kept from the kernel
        let _one_core: Vec<cores::Caller> = (0..cores::total()).map(|_| cores::enter()).collect();
        fn check(
            what: &str,
            cfg: Grape5Config,
            params: (f64, f64),
            set: (&[Vec3], &[f64]),
            fault: Option<FaultConfig>,
            calls: usize,
            eligible: Option<bool>,
        ) {
            let got = self_calls(cfg, LanePath::Avx2, params, set, fault, calls);
            let want = self_calls(cfg, LanePath::Scalar, params, set, fault, calls);
            for (k, ((got, ran, corrupted), (want, scalar_ran, _))) in
                got.iter().zip(&want).enumerate()
            {
                assert!(got == want, "{what}, call {k}: forces differ from the definition");
                assert!(!scalar_ran, "{what}, call {k}: the scalar path ran the symmetric kernel");
                if let Some(eligible) = eligible {
                    let want = crate::lanes::cpu_lanes()[0] && eligible && !corrupted;
                    assert_eq!(*ran, want, "{what}, call {k}: symmetric kernel ran");
                }
            }
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5e1f);
        let mut sphere = |n: usize, half: f64| {
            let mut c = || rng.random_range(-half..half);
            let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(c(), c(), c())).collect();
            let mass: Vec<f64> = (0..n).map(|_| (1.0 + c() / half) / n as f64).collect();
            (pos, mass)
        };
        let exact = |boards, coord_bits| Grape5Config {
            mode: ArithMode::Exact,
            boards,
            coord_bits,
            ..Grape5Config::paper()
        };
        let params = [0.0, 1e-3, 0.05].map(|e| [1.0, 0.125, 3.0].map(|s| (e, s))).concat();
        let mut turn = params.iter().copied().cycle();
        for n in (1..=9).chain([31, 64, 65, 127, 300, 1031, 2000]) {
            // 2,000 on one board, a `g5serve` tenant's call, only: its
            // scalar reference takes seconds in a debug build
            for boards in 1..=if n < 2000 { 3 } else { 1 } {
                // every (ε, scale) on the short sets, the next in turn on the long
                for (eps, scale) in turn.by_ref().take(if n <= 127 { params.len() } else { 1 }) {
                    let (mut pos, mass) = sphere(n, 0.9);
                    let coincident = n > 1 && (n + boards) % 2 == 0;
                    if coincident {
                        pos[n - 1] = pos[0];
                    }
                    let what = format!("n {n}, {boards} boards, eps {eps}, scale {scale}");
                    let eligible = (eps > 0.0 || !coincident).then_some(true);
                    let cfg = exact(boards, 32);
                    check(&what, cfg, (eps, scale), (&pos, &mass), None, 1, eligible);
                }
            }
        }
        for boards in 1..=3 {
            // 50-bit words, many clamped to the window's ends (±2⁴⁹, some
            // coincident): inside; 51-bit ones reach −2⁵⁰: outside
            let (pos, mass) = sphere(65, 3.0);
            for (bits, eligible) in [(50, true), (51, false)] {
                let what = format!("{bits}-bit words, {boards} boards");
                let set = (&pos[..], &mass[..]);
                check(&what, exact(boards, bits), (0.05, 1.0), set, None, 1, Some(eligible));
            }
            // terms past the encode window decline the call
            let (pos, mut mass) = sphere(65, 0.9);
            mass[17] = 1e30;
            let set = (&pos[..], &mass[..]);
            check("huge terms", exact(boards, 32), (0.01, 1.0), set, None, 1, Some(false));
            // faults land on the partials and the readback after the
            // kernel; a corrupted load declines the call
            let stuck = StuckPipe { after_call: 4, board: boards - 1, pipe: 5 };
            let fault = FaultConfig {
                transient_rate: 0.3,
                jmem_corrupt_rate: 0.3,
                stuck_pipe: Some(stuck),
                ..FaultConfig::none(boards as u64)
            };
            for n in [64, 300] {
                let (pos, mass) = sphere(n, 0.9);
                let (what, set) =
                    (format!("faults, n {n}, {boards} boards"), (&pos[..], &mass[..]));
                check(&what, exact(boards, 32), (0.01, 0.125), set, Some(fault), 12, Some(true));
            }
        }
    }

    #[test]
    fn boards_split_j_work() {
        // 2 boards, 10 j: each board streams 5 j per i-chunk
        let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
        let mut g5 = Grape5::open(cfg);
        g5.set_range(-2.0, 2.0);
        let jpos: Vec<Vec3> = (0..10).map(|k| Vec3::new(k as f64 * 0.1, 0.1, 0.2)).collect();
        let jm = vec![1.0; 10];
        g5.set_j_particles(&jpos, &jm);
        let _ = g5.force_on(&[Vec3::ZERO]);
        let a = g5.accounting();
        assert_eq!(a.pipeline_cycles, 5 + cfg.pipeline_latency_cycles);
        assert_eq!(a.interactions, 10);
    }
}
