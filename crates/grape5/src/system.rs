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
use crate::lanes::{self, LanePath, PairScratch};
use crate::pipeline::{Force, G5Pipeline};
use crate::window::{PairWindow, WindowCall};
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

/// What a force call knows of its i-set: nothing beyond its length,
/// that it is the j-set's particles from a run's start on, or that it is
/// a call of the open window (whose plan knows where its run starts).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallHint {
    None,
    Run(usize),
    Window(usize),
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
    /// Reusable working set of the pair pass.
    pair_scratch: PairScratch,
    /// The open pair window, if any, with its deposits.
    window: PairWindow,
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
            pair_scratch: PairScratch::default(),
            window: PairWindow::new(),
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
        self.force_call(xi, CallHint::None)
    }

    /// [`try_force_on`](Self::try_force_on) for an i-set that is part of
    /// its own interaction list: `xi` are the loaded j-set's particles
    /// from `run_at` on — a tree group's members inside the group's list,
    /// a direct-summation chunk inside the whole set. The pipelines
    /// cannot use Newton's third law; the host that simulates them
    /// evaluates each pair of the run once (DESIGN.md, "pair blocks").
    /// Forces, accounting and faults are those of `try_force_on`; a hint
    /// that does not hold costs one look at `xi` and changes nothing.
    pub fn try_force_on_run(
        &mut self,
        xi: &[Vec3],
        run_at: usize,
    ) -> Result<Vec<Force>, DeviceError> {
        self.force_call(xi, CallHint::Run(run_at))
    }

    /// Open a window over `calls`, the force calls to come in this order,
    /// each on its own list (DESIGN.md, "pair blocks"): each call's run is
    /// recorded and, where the device runs the pass (no fault injector
    /// armed: a per-call fault must not reach a partner's forces; the x86
    /// lane path; no cutoff) and every list fits the j-memory, the pairs
    /// two lists' runs of each other's bodies share are planned to be
    /// evaluated once; `false` where none is. Forces, accounting and
    /// faults of each call are those of [`try_force_on_run`](Self::try_force_on_run).
    pub fn open_window<'a>(&mut self, calls: impl Iterator<Item = WindowCall<'a>> + Clone) -> bool {
        let cap = self.jmem_capacity();
        let pairs = self.fault.is_none()
            && self.pipeline.pairs_on().is_some()
            && calls.clone().all(|c| c.list_len <= cap);
        self.window.open(calls, self.active_boards(), pairs)
    }

    /// Call `call` of the open window on the loaded j-set (its list):
    /// [`try_force_on_run`](Self::try_force_on_run) on the call's run,
    /// with the window's rectangles while the window is live.
    pub fn try_force_in_window(
        &mut self,
        xi: &[Vec3],
        call: usize,
    ) -> Result<Vec<Force>, DeviceError> {
        self.force_call(xi, CallHint::Window(call))
    }

    /// End the window early: no later call of it uses a deposit.
    pub fn kill_window(&mut self) {
        self.window.kill();
    }

    /// Close the window and drop its calls and deposits (buffers kept).
    pub fn close_window(&mut self) {
        self.window.close();
    }

    /// Can no prefix of any board's ordered accumulate chain clamp, in
    /// any order of the terms? Each term of a loaded mass `m` is at most
    /// `|m| / r_min²` (force) or `|m| / r_min` (potential) with `r_min =
    /// max(ε, quantum)`, the least separation the pipeline sees (a zero
    /// displacement is guarded); four times that bound, to cover LNS
    /// round-off with room to spare, over the loaded set's `Σ|m|`, in
    /// accumulator units and plus half a unit of rounding per term, must
    /// stay inside half the format's range. Then every board's words are
    /// its terms' integer sum whatever order they are added in (DESIGN.md,
    /// "pair blocks"). NaN masses fail it.
    fn order_free(&self) -> bool {
        let fmt = self.cfg.acc_format;
        let r_min = self.eps.max(self.scaler.quantum());
        let per_mass = (1.0 / (r_min * r_min)).max(1.0 / r_min);
        let bound = 4.0 * self.j_abs_mass * per_mass / self.force_scale * fmt.encode_scale()
            + self.nj_total as f64;
        let room = fmt.raw_max().min(fmt.raw_min().saturating_neg()) as f64;
        self.fault.is_none() && bound <= 0.5 * room
    }

    /// The force call, where `xi` may be the j-set's particles from a
    /// run's start on — always so, from 0, when it is as long as the set.
    pub(crate) fn force_call(
        &mut self,
        xi: &[Vec3],
        hint: CallHint,
    ) -> Result<Vec<Force>, DeviceError> {
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
        // call on this thread whose i-set is a run of the j-set may write
        // every board's partial through the pair pass instead
        // (`PairWindow::run_call`), unless it declines.
        let interactions = xi.len() as u64 * self.nj_total as u64;
        let parallel =
            interactions >= SPAWN_REPAY_INTERACTIONS && cores::share() > 1 && self.boards.len() > 1;
        let run = (!parallel)
            .then(|| self.window.run_of(hint, xi.len(), self.nj_total))
            .flatten()
            .map(|(at, call)| (at, call, self.order_free()));
        {
            let (pipeline, raw, force_scale) =
                (&self.pipeline, &self.i_scratch[..], self.force_scale);
            let fmt = self.cfg.acc_format;
            let live = |(b, ok): &(&ProcessorBoard, &bool)| **ok && b.nj() > 0;
            let boards = self.boards.iter().zip(&self.board_ok);
            let scratch = &mut self.pair_scratch;
            let live_j = boards.clone().filter(live).map(|(b, _)| b.j_slices());
            if run.is_some_and(|run| {
                self.window.run_call(pipeline, raw, live_j, run, (force_scale, fmt), scratch)
            }) {
                let n = xi.len();
                let outs = boards.zip(&mut self.partials).filter(|(b, _)| live(b));
                for (k, (_, out)) in outs.enumerate() {
                    out.clear();
                    let words = (0..n).map(|i| scratch.words4(4 * k * n + i, n));
                    out.extend(words.map(|w| lanes::force_of(w, force_scale, fmt)));
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

    /// Per self call: the force bits, what the self-block counters
    /// (`lanes::PAIR_STATS`) moved by, whether the load was corrupted.
    type Calls = Vec<(Vec<[u64; 4]>, [u64; 8], bool)>;

    /// `calls` self calls on a device on `path`: load the list `(pos,
    /// mass)`, then forces on its particles `at .. at + n` with the run
    /// hint `hint` (the whole list from 0: `try_force_on`, no hint).
    fn self_calls(
        cfg: Grape5Config,
        path: LanePath,
        (eps, scale): (f64, f64),
        (pos, mass): (&[Vec3], &[f64]),
        (at, n, hint): (usize, usize, usize),
        (fault, calls): (Option<FaultConfig>, usize),
    ) -> Calls {
        let stats = || crate::lanes::PAIR_STATS.with(std::cell::Cell::get);
        let mut g5 = Grape5::open(cfg);
        g5.set_lane_path(path);
        g5.set_range(-1.0, 1.0);
        g5.set_eps(eps);
        g5.set_force_scale(scale);
        if let Some(f) = fault {
            g5.set_fault_injector(f);
        }
        let bits = |m: &f64| m.to_bits();
        (0..calls)
            .map(|_| {
                g5.set_j_particles(pos, mass);
                let loaded = g5.boards().iter().flat_map(|b| b.j_slices().m);
                let corrupted = loaded.map(bits).ne(mass.iter().map(bits));
                let before = stats();
                let f = if (at, n, hint) == (0, pos.len(), 0) {
                    g5.try_force_on(pos)
                } else {
                    g5.try_force_on_run(&pos[at..at + n], hint)
                };
                let f = f.expect("no board can time out");
                let moved = std::array::from_fn(|k| stats()[k] - before[k]);
                let f = f.iter().map(|w| [w.acc.x, w.acc.y, w.acc.z, w.pot].map(f64::to_bits));
                (f.collect(), moved, corrupted)
            })
            .collect()
    }

    /// The masses of a run of `n`: all equal; a heavier one every
    /// seventh (mixed inside a lane group); equal with +0 every eleventh
    /// and −0 every thirteenth; all different; equal but for one NaN.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Masses {
        Equal,
        Mixed,
        SignedZeros,
        Distinct,
        Nan,
    }

    fn masses(kind: Masses, n: usize) -> Vec<f64> {
        let m = 1.0 / n as f64;
        (0..n)
            .map(|k| match kind {
                Masses::Mixed if k % 7 == 3 => 3.0 * m,
                Masses::SignedZeros if k % 11 == 5 => 0.0,
                Masses::SignedZeros if k % 13 == 6 => -0.0,
                Masses::Distinct => m * (1.0 + (k as f64 * 0.618).fract()),
                Masses::Nan if k == n / 2 => f64::NAN,
                _ => m,
            })
            .collect()
    }

    /// The self blocks (the diagonal blocks of `lanes::block_exact_pairs`,
    /// `lanes::block_lns_pairs`) against the scalar definition, bit for
    /// bit, through whole force calls in both arithmetic modes: the whole
    /// set on one to three boards (n from 1 to 2,000 exact, to 300 LNS), a
    /// run at the start, inside, at the end of a longer list and across a
    /// board boundary, ε ∈ {0, 10⁻³, 0.05}, force scale ∈ {1, ⅛, 3}, masses
    /// equal, mixed inside a lane group, ±0, all different and NaN, a
    /// coincident pair (across boards where there are several), words on
    /// the edge of the magic window and past it, terms past the encode
    /// window, LNS displacements on the converters' breakpoints, words
    /// before a run that leave it no headroom, and an injector arming
    /// transient faults, j-memory corruption and a stuck pipe. The kernel
    /// must have run on every call that can take it (`eligible`; `None`:
    /// where it may decline) and on no other, and over the whole test
    /// every path must have run in each mode: a self block, one back, two
    /// backs, a decline (and in LNS a group through the definition).
    #[test]
    fn self_calls_match_the_scalar_definition_bit_for_bit() {
        use crate::fault::StuckPipe;
        use rand::{Rng, SeedableRng};
        // a registered caller per core: every call runs its boards on this
        // thread however long it is, so none is kept from the kernel
        let _one_core: Vec<cores::Caller> = (0..cores::total()).map(|_| cores::enter()).collect();
        struct Case<'a> {
            what: String,
            cfg: Grape5Config,
            params: (f64, f64),
            set: (&'a [Vec3], &'a [f64]),
            run: (usize, usize, usize),
            fault: (Option<FaultConfig>, usize),
            eligible: Option<bool>,
        }
        let mut totals = [[0u64; 8]; 2];
        let mut check = |c: Case<'_>| {
            let got = self_calls(c.cfg, LanePath::Avx2, c.params, c.set, c.run, c.fault);
            let want = self_calls(c.cfg, LanePath::Scalar, c.params, c.set, c.run, c.fault);
            let what = format!("{:?} {}", c.cfg.mode, c.what);
            for (k, ((got, moved, corrupted), (want, scalar_moved, _))) in
                got.iter().zip(&want).enumerate()
            {
                assert!(got == want, "{what}, call {k}: forces differ from the definition");
                assert_eq!(*scalar_moved, [0; 8], "{what}, call {k}: the scalar path ran a block");
                assert!(moved[0] + moved[3] <= 1, "{what}, call {k}: {moved:?}");
                if let Some(eligible) = c.eligible {
                    let want = crate::lanes::cpu_lanes()[0] && eligible && !corrupted;
                    assert_eq!(moved[0] == 1, want, "{what}, call {k}: self block ran");
                }
                let t = &mut totals[usize::from(c.cfg.mode == ArithMode::Lns)];
                t.iter_mut().zip(moved).for_each(|(t, m)| *t += m);
            }
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5e1f);
        let mut sphere = |n: usize, half: f64| -> Vec<Vec3> {
            let mut c = || rng.random_range(-half..half);
            (0..n).map(|_| Vec3::new(c(), c(), c())).collect()
        };
        let device = |mode, boards, coord_bits| Grape5Config {
            mode,
            boards,
            coord_bits,
            ..Grape5Config::paper()
        };
        let kinds = [Masses::Distinct, Masses::Equal, Masses::Mixed, Masses::SignedZeros];
        let params = [0.0, 1e-3, 0.05].map(|e| [1.0, 0.125, 3.0].map(|s| (e, s))).concat();
        let mut turn = params.iter().copied().cycle();
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let lns = mode == ArithMode::Lns;
            // the whole set: a `DirectGrape` chunk covering N, a `g5serve`
            // tenant's call (2,000 on one board: the scalar reference
            // takes seconds in a debug build; LNS stops at 1,031)
            let sizes = (1..=9).chain([31, 64, 65, 127, 300, 1031]).chain((!lns).then_some(2000));
            for (t, n) in sizes.enumerate() {
                for boards in 1..=if n < 2000 { 3 } else { 1 } {
                    // every (ε, scale) on the short sets, the next in turn on the long
                    for (eps, scale) in turn.by_ref().take(if n <= 127 { params.len() } else { 1 })
                    {
                        let (mut pos, kind) = (sphere(n, 0.9), kinds[(t + boards) % 4]);
                        let coincident = n > 1 && (n + boards) % 2 == 0;
                        if coincident {
                            pos[n - 1] = pos[0];
                        }
                        // LNS: a zero distance is three zero words, no NaN
                        let eligible = (lns || eps > 0.0 || !coincident).then_some(true);
                        check(Case {
                            what: format!(
                                "n {n}, {boards} boards, eps {eps}, scale {scale}, {kind:?}"
                            ),
                            cfg: device(mode, boards, 32),
                            params: (eps, scale),
                            set: (&pos, &masses(kind, n)),
                            run: (0, n, 0),
                            fault: (None, 1),
                            eligible,
                        });
                    }
                }
            }
            // a run of 150 (ragged against eight and sixteen lanes) inside
            // a list of 455 — cells and other bodies, heavier and all
            // different — at its start, across the first board boundary,
            // in its middle, at its end; and the hint on a run too short
            // to pay, and on words that are not the i-set
            let (len, n): (usize, usize) = (455, 150);
            let others: Vec<f64> = (0..len).map(|k| 0.01 + 1e-4 * k as f64).collect();
            for boards in 1..=3 {
                let per = len.div_ceil(boards);
                let starts = [0, per.min(len - n) - n / 3, (len - n) / 2, len - n];
                for (s, at) in starts.into_iter().enumerate() {
                    let kind = [Masses::Equal, Masses::Mixed, Masses::SignedZeros, Masses::Nan]
                        [(s + boards) % 4];
                    let (pos, mut mass) = (sphere(len, 0.9), others.clone());
                    mass[at..at + n].copy_from_slice(&masses(kind, n));
                    let (eps, scale) = turn.next().expect("a cycle");
                    let what =
                        format!("run {at}..{}, {boards} boards, eps {eps}, {kind:?}", at + n);
                    let cfg = device(mode, boards, 32);
                    let eligible = match kind {
                        Masses::Nan => None,
                        _ => Some(true),
                    };
                    let set = (&pos[..], &mass[..]);
                    let (params, fault) = ((eps.max(1e-3), scale), (None, 1));
                    check(Case { what, cfg, params, set, run: (at, n, at), fault, eligible });
                    let short = format!("run {at}..{}, {boards} boards", at + 100);
                    let run = (at, 100, at);
                    check(Case {
                        what: short,
                        cfg,
                        params,
                        set,
                        run,
                        fault,
                        eligible: Some(false),
                    });
                    let hint = if at > 0 { at - 1 } else { 1 };
                    let what = format!("run {at}..{} hinted at {hint}, {boards} boards", at + n);
                    let (run, eligible) = ((at, n, hint), Some(false));
                    check(Case { what, cfg, params, set, run, fault, eligible });
                }
                // a huge mass before the run: its words leave the run no
                // headroom, so the block declines; after it, the rest of
                // the list takes it through the ordered path
                let (pos, mut mass) = (sphere(len, 0.9), others.clone());
                mass[..n + 10].copy_from_slice(&masses(Masses::Equal, n + 10));
                let at = 10;
                for (huge, eligible) in [(5, false), (len - 3, true)] {
                    mass[huge] = 1e30;
                    let what = format!("mass 1e30 at {huge}, {boards} boards");
                    let set = (&pos[..], &mass[..]);
                    let cfg = device(mode, boards, 32);
                    let fault = (None, 1);
                    let params = (0.01, 1.0);
                    check(Case {
                        what,
                        cfg,
                        params,
                        set,
                        run: (at, n, at),
                        fault,
                        eligible: Some(eligible),
                    });
                    mass[huge] = others[huge];
                }
            }
            for boards in 1..=3 {
                // 50-bit words, many clamped to the window's ends (±2⁴⁹, some
                // coincident): inside; 51-bit ones reach −2⁵⁰: outside
                let pos = sphere(65, 3.0);
                let mass = masses(Masses::Distinct, 65);
                for (bits, eligible) in [(50, true), (51, false)] {
                    check(Case {
                        what: format!("{bits}-bit words, {boards} boards"),
                        cfg: device(mode, boards, bits),
                        params: (0.05, 1.0),
                        set: (&pos, &mass),
                        run: (0, 65, 0),
                        fault: (None, 1),
                        eligible: Some(eligible),
                    });
                }
                // terms past the encode window decline the call
                let (pos, mut mass) = (sphere(65, 0.9), masses(Masses::Equal, 65));
                mass[17] = 1e30;
                check(Case {
                    what: format!("huge terms, {boards} boards"),
                    cfg: device(mode, boards, 32),
                    params: (0.01, 1.0),
                    set: (&pos, &mass),
                    run: (0, 65, 0),
                    fault: (None, 1),
                    eligible: Some(false),
                });
                // faults land on the partials and the readback after the
                // kernel; a corrupted load declines the call
                let stuck = StuckPipe { after_call: 4, board: boards - 1, pipe: 5 };
                let fault = FaultConfig {
                    transient_rate: 0.3,
                    jmem_corrupt_rate: 0.3,
                    stuck_pipe: Some(stuck),
                    ..FaultConfig::none(boards as u64)
                };
                for (len, run) in [(64, (0, 64, 0)), (300, (0, 300, 0)), (300, (40, 150, 40))] {
                    let (pos, mass) = (sphere(len, 0.9), masses(Masses::Mixed, len));
                    check(Case {
                        what: format!("faults, {len} bodies, run {run:?}, {boards} boards"),
                        cfg: device(mode, boards, 32),
                        params: (0.01, 0.125),
                        set: (&pos, &mass),
                        run,
                        fault: (Some(fault), 12),
                        // a corrupted word outside a run leaves the block to run
                        eligible: (run.1 == len).then_some(true),
                    });
                }
            }
        }
        // LNS displacements on the encoder's breakpoints: with the window
        // [−1, 1) at 32 bits the quantum is 2⁻³¹, so a word's displacement
        // from the body at the origin carries the word's own mantissa,
        // here within 2⁻³⁰ of the breakpoint of fraction k
        let f = Grape5Config::paper().lns.frac_bits;
        let pos: Vec<Vec3> = std::iter::once(Vec3::ZERO)
            .chain((1..=1u32 << f).map(|k| {
                let bp = ((f64::from(k) - 0.5) / f64::from(1u32 << f)).exp2();
                let word = ((bp.to_bits() & ((1 << 52) - 1)) | 1 << 52) >> 22;
                Vec3::new(word as f64 / f64::from(1u32 << 31), 0.0, 0.0)
            }))
            .collect();
        let n = pos.len();
        for boards in 1..=2 {
            check(Case {
                what: format!("breakpoint displacements, {boards} boards"),
                cfg: device(ArithMode::Lns, boards, 32),
                params: (0.01, 1.0),
                set: (&pos, &masses(Masses::Equal, n)),
                run: (0, n, 0),
                fault: (None, 1),
                eligible: Some(true),
            });
        }
        if crate::lanes::cpu_lanes()[0] {
            for (mode, t) in ["exact", "LNS"].iter().zip(totals) {
                assert!(t[..4].iter().all(|&t| t > 0), "{mode}: a path never ran: {t:?}");
            }
            assert!(totals[1][4] > 0, "LNS: no group went through the definition");
        }
    }

    /// A synthetic pair window: bodies of one numbering, groups of them,
    /// and per group a list of its own run, runs of other groups' bodies
    /// and cells (`Cells(k)`: `k` far terms of their own; `Mass(m)`: one
    /// of mass `m`; `Altered(r, b, d, f)`: the bodies `r` with body `b`
    /// moved by `d` and its mass times `f`).
    #[derive(Debug, Clone)]
    enum Piece {
        Bodies(std::ops::Range<usize>),
        Cells(usize),
        Mass(f64),
        Altered(std::ops::Range<usize>, usize, Vec3, f64),
    }

    /// What a window's calls gave: per call its force bits and what the
    /// pair counters (`lanes::PAIR_STATS`) moved by; whether the window
    /// opened.
    type WindowRun = (Vec<(Vec<[u64; 4]>, [u64; 8])>, bool);

    /// How a window run is driven: on the x86 lanes with the window
    /// opened, or the definition call by call; and what it does besides.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Drive {
        Window,
        /// The window, ended by hand after the first call.
        KilledAfterFirst,
        Definition,
    }

    /// The calls of `groups` (body ranges) over `lists`, each list loaded
    /// and its group's forces taken in turn, as `drive` says.
    fn window_calls(
        cfg: Grape5Config,
        drive: Drive,
        (eps, scale, cutoff, fault): (f64, f64, bool, Option<FaultConfig>),
        (pos, mass): (&[Vec3], &[f64]),
        groups: &[std::ops::Range<usize>],
        lists: &[Vec<Piece>],
    ) -> WindowRun {
        let stats = || crate::lanes::PAIR_STATS.with(std::cell::Cell::get);
        let mut g5 = Grape5::open(cfg);
        let path = if drive == Drive::Definition { LanePath::Scalar } else { LanePath::Avx2 };
        g5.set_lane_path(path);
        g5.set_range(-1.0, 1.0);
        g5.set_eps(eps);
        g5.set_force_scale(scale);
        if cutoff {
            g5.set_cutoff(Some(CutoffTable::from_shapes(1.0, 4, 8, |x| 1.0 - x, |x| 1.0 - x)));
        }
        if let Some(f) = fault {
            g5.set_fault_injector(f);
        }
        // each list resolved: positions, masses, runs of bodies, own run
        let cell = |k: usize| {
            let t = k as f64 * 0.618_034;
            (Vec3::new(t.sin() * 0.9, (2.0 * t).cos() * 0.9, (3.0 * t).sin() * 0.9), 0.003)
        };
        let resolved: Vec<_> = groups
            .iter()
            .zip(lists)
            .map(|(g, list)| {
                let (mut jpos, mut jmass, mut bodies, mut at) = (vec![], vec![], vec![], 0);
                for piece in list {
                    match piece {
                        Piece::Bodies(r) | Piece::Altered(r, ..) => {
                            if r.start == g.start {
                                at = jpos.len();
                            }
                            bodies.push([jpos.len(), r.start, r.len()]);
                            jpos.extend_from_slice(&pos[r.clone()]);
                            jmass.extend_from_slice(&mass[r.clone()]);
                            if let &Piece::Altered(ref r, b, d, f) = piece {
                                let k = jpos.len() - r.len() + (b - r.start);
                                jpos[k] += d;
                                jmass[k] *= f;
                            }
                        }
                        &Piece::Cells(k) => {
                            for c in 0..k {
                                let (p, m) = cell(jpos.len() * 7 + c);
                                jpos.push(p);
                                jmass.push(m);
                            }
                        }
                        &Piece::Mass(m) => {
                            jpos.push(cell(jpos.len() * 7).0);
                            jmass.push(m);
                        }
                    }
                }
                (jpos, jmass, bodies, at)
            })
            .collect();
        let plan = groups.iter().zip(&resolved).map(|(g, (jpos, _, bodies, at))| WindowCall {
            list_len: jpos.len(),
            first: g.start,
            members: g.len(),
            members_at: *at,
            bodies,
        });
        let opened = drive != Drive::Definition && g5.open_window(plan);
        let calls = groups
            .iter()
            .zip(&resolved)
            .enumerate()
            .map(|(k, (g, (jpos, jmass, _, _)))| {
                g5.set_j_particles(jpos, jmass);
                let before = stats();
                let f = match drive {
                    Drive::Definition => g5.try_force_on(&pos[g.clone()]),
                    _ => g5.try_force_in_window(&pos[g.clone()], k),
                };
                if drive == Drive::KilledAfterFirst {
                    g5.kill_window();
                }
                let f = f.expect("no board can time out");
                let moved = std::array::from_fn(|s| stats()[s] - before[s]);
                let f = f.iter().map(|w| [w.acc.x, w.acc.y, w.acc.z, w.pot].map(f64::to_bits));
                (f.collect(), moved)
            })
            .collect();
        g5.close_window();
        (calls, opened)
    }

    /// The pair windows (`window::PairWindow`, the pair pass's
    /// rectangles) against the scalar definition, bit for bit, in both
    /// arithmetic modes: three groups whose lists hold runs of each
    /// other's bodies — at a list's start, in its middle, at its end,
    /// across a board boundary (planned as two rectangles) — and cells,
    /// on one to three boards, with masses equal, mixed inside a lane
    /// group, ±0, all different and NaN, ε ∈ {0, 10⁻³, 0.05}; LNS
    /// displacements on the converters' breakpoints inside a rectangle;
    /// and every decline: an armed injector, the scalar lane path or a
    /// cutoff (the window does not open), a NaN or huge mass (no order-
    /// free bound: the calls that hold it run no rectangle), a term past
    /// the encode window (the pass declines), a window ended by hand after
    /// its first call (no later call may start from a deposit). With no
    /// order-free bound in any call but headroom before every run, each
    /// call runs its diagonal and no rectangle, and a call whose words
    /// before its run leave no headroom declines. The counters
    /// (`lanes::PAIR_STATS`) must show, in each mode, rectangles evaluated
    /// out and deposits taken in, one and two backs, declines and ended
    /// windows.
    #[test]
    fn pair_windows_match_the_scalar_definition_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let _one_core: Vec<cores::Caller> = (0..cores::total()).map(|_| cores::enter()).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9a1d);
        let mut sphere = |n: usize, half: f64| -> Vec<Vec3> {
            let mut c = || rng.random_range(-half..half);
            (0..n).map(|_| Vec3::new(c(), c(), c())).collect()
        };
        use Piece::{Bodies, Cells};
        // bodies 0..70 | 70..160 | 160..210
        let groups = [0..70, 70..160, 160..210];
        let lists = [
            vec![Cells(20), Bodies(0..70), Cells(5), Bodies(70..110), Cells(30), Bodies(170..210)],
            vec![Bodies(5..60), Cells(10), Bodies(70..160), Bodies(160..180), Cells(50)],
            vec![Cells(40), Bodies(160..210), Bodies(100..160), Cells(3), Bodies(0..35)],
        ];
        let mut totals = [[0u64; 8]; 2];
        let mut check = |what: &str,
                         cfg: Grape5Config,
                         params: (f64, f64, bool, Option<FaultConfig>),
                         set: (&[Vec3], &[f64]),
                         want_open: Option<bool>| {
            let (want, _) = window_calls(cfg, Drive::Definition, params, set, &groups, &lists);
            let what = format!("{:?} {what}", cfg.mode);
            for drive in [Drive::Window, Drive::KilledAfterFirst] {
                let (got, opened) = window_calls(cfg, drive, params, set, &groups, &lists);
                if let Some(w) = want_open {
                    assert_eq!(opened, w && crate::lanes::cpu_lanes()[0], "{what}: window opened");
                }
                let mut ended = false;
                for (k, ((got, moved), (want, _))) in got.iter().zip(&want).enumerate() {
                    assert!(got == want, "{what}, {drive:?}, call {k}: forces differ");
                    if ended {
                        assert_eq!(
                            moved[5] + moved[6],
                            0,
                            "{what}, {drive:?}, call {k}: {moved:?}"
                        );
                    }
                    ended |= moved[7] > 0 || (drive == Drive::KilledAfterFirst && k == 0);
                    let t = &mut totals[usize::from(cfg.mode == ArithMode::Lns)];
                    t.iter_mut().zip(moved).for_each(|(t, m)| *t += m);
                }
            }
        };
        let device = |mode, boards| Grape5Config { mode, boards, ..Grape5Config::paper() };
        let kinds = [Masses::Equal, Masses::Mixed, Masses::SignedZeros, Masses::Distinct];
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            for boards in 1..=3 {
                for (t, eps) in [0.0f64, 1e-3, 0.05].into_iter().enumerate() {
                    let kind = kinds[(t + boards) % 4];
                    let pos = sphere(210, 0.9);
                    let what = format!("{boards} boards, eps {eps}, {kind:?}");
                    let set = (&pos[..], &masses(kind, 210)[..]);
                    // exact mode with ε = 0 has no order-free bound at
                    // the quantum: such a window may end early
                    let params = (eps.max(1e-3), 1.0, false, None);
                    check(&what, device(mode, boards), params, set, Some(true));
                    check(
                        &format!("{what}, ε {eps}"),
                        device(mode, boards),
                        (eps, 0.125, false, None),
                        set,
                        None,
                    );
                    // partials past 2⁵³ units: the merge rounds, so each
                    // board's words must be its own
                    let fine = (0.1, 1e-6, false, None);
                    check(
                        &format!("{what}, scale 1e-6"),
                        device(mode, boards),
                        fine,
                        set,
                        Some(true),
                    );
                }
                let pos = sphere(210, 0.9);
                let mass = masses(Masses::Equal, 210);
                let set = (&pos[..], &mass[..]);
                let cfg = device(mode, boards);
                // declines where the window never opens
                let fault = FaultConfig::transient(3, 0.2);
                check("injector armed", cfg, (0.01, 1.0, false, Some(fault)), set, Some(false));
                check("cutoff", cfg, (0.01, 1.0, true, None), set, Some(false));
                // a NaN, a huge mass: no bound in the calls that hold it
                for (k, m) in [(100, f64::NAN), (120, 1e30), (5, 1e30)] {
                    let mut mass = mass.clone();
                    mass[k] = m;
                    check(
                        &format!("mass {m} at {k}"),
                        cfg,
                        (0.01, 1.0, false, None),
                        (&pos, &mass),
                        Some(true),
                    );
                }
                // a heavy body beside a member of its group: terms past the
                // encode window inside the bound, the pass declines
                let (mut pos, mut mass) = (pos.clone(), mass.clone());
                mass[75] = 1.0;
                pos[76] = pos[75] + Vec3::new(0.02, 0.0, 0.0);
                check(
                    "terms past the window",
                    cfg,
                    (0.01, 1e-3, false, None),
                    (&pos, &mass),
                    Some(true),
                );
            }
        }
        // LNS displacements on the encoder's breakpoints inside a
        // rectangle: the body at the origin (group 0) against group 1's
        let f = Grape5Config::paper().lns.frac_bits;
        let bp: Vec<Vec3> = (1..=1u32 << f)
            .map(|k| {
                let bp = ((f64::from(k) - 0.5) / f64::from(1u32 << f)).exp2();
                let word = ((bp.to_bits() & ((1 << 52) - 1)) | 1 << 52) >> 22;
                Vec3::new(word as f64 / f64::from(1u32 << 31), 0.0, 0.0)
            })
            .collect();
        let mut pos = sphere(210, 0.9);
        pos[0] = Vec3::ZERO;
        pos[70..70 + bp.len().min(90)].copy_from_slice(&bp[..bp.len().min(90)]);
        for boards in 1..=2 {
            let set = (&pos[..], &masses(Masses::Equal, 210)[..]);
            check(
                "breakpoints",
                device(ArithMode::Lns, boards),
                (0.01, 1.0, false, None),
                set,
                Some(true),
            );
        }
        // a heavy cell at the end of every list: no call has an
        // order-free bound, every run its headroom — each call runs its
        // diagonal in the definition's order around the run, and no
        // rectangle; a heavy cell before group 1's run too: that call
        // declines
        let lanes = crate::lanes::cpu_lanes()[0];
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            for boards in 1..=3 {
                for (kind, before) in
                    [Masses::Equal, Masses::Mixed].into_iter().flat_map(|k| [(k, false), (k, true)])
                {
                    let mut lists = lists.clone();
                    lists.iter_mut().for_each(|l| l.push(Piece::Mass(1e30)));
                    if before {
                        lists[1].insert(0, Piece::Mass(1e30));
                    }
                    let (pos, mass) = (sphere(210, 0.9), masses(kind, 210));
                    let (cfg, set) = (device(mode, boards), (&pos[..], &mass[..]));
                    let params = (0.01, 1.0, false, None);
                    let what =
                        format!("{mode:?} {boards} boards, {kind:?}, heavy before: {before}");
                    let (want, _) =
                        window_calls(cfg, Drive::Definition, params, set, &groups, &lists);
                    let (got, opened) =
                        window_calls(cfg, Drive::Window, params, set, &groups, &lists);
                    assert_eq!(opened, lanes, "{what}: window opened");
                    for (k, ((got, moved), (want, _))) in got.iter().zip(&want).enumerate() {
                        assert!(got == want, "{what}, call {k}: forces differ");
                        let diag = u64::from(lanes && !(before && k == 1));
                        let declined = u64::from(lanes) - diag;
                        let (pairs, rects) = ((moved[0], moved[3]), moved[5] + moved[6]);
                        assert_eq!((pairs, rects), ((diag, declined), 0), "{what}, call {k}");
                    }
                }
            }
        }
        // a later call's list holds an altered copy of an earlier call's
        // body — one coordinate word, or the mass: the call that took a
        // deposit from the earlier one without it refuses it
        for (mode, boards) in [ArithMode::Exact, ArithMode::Lns].map(|m| [(m, 1), (m, 2)]).concat()
        {
            let (pos, mass) = (sphere(210, 0.9), masses(Masses::Mixed, 210));
            let (cfg, set, params) =
                (device(mode, boards), (&pos[..], &mass[..]), (0.01, 1.0, false, None));
            let plain = window_calls(cfg, Drive::Window, params, set, &groups, &lists).0;
            for (d, f) in [(Vec3::new(1e-6, 0.0, 0.0), 1.0), (Vec3::ZERO, 1.5)] {
                let mut lists = lists.clone();
                lists[2][4] = Piece::Altered(0..35, 10, d, f);
                let what = format!("{mode:?} {boards} boards, body 10 moved {d:?}, mass × {f}");
                let want = window_calls(cfg, Drive::Definition, params, set, &groups, &lists).0;
                let got = window_calls(cfg, Drive::Window, params, set, &groups, &lists).0;
                assert!(got.iter().zip(&want).all(|(g, w)| g.0 == w.0), "{what}: forces differ");
                assert!(!lanes || got[2].1[6] < plain[2].1[6], "{what}: the deposit was taken");
            }
        }
        // the scalar lane path opens no window
        let mut g5 = Grape5::open(device(ArithMode::Exact, 2));
        g5.set_lane_path(LanePath::Scalar);
        assert!(!g5.open_window(std::iter::empty()), "a window on the scalar path");
        if crate::lanes::cpu_lanes()[0] {
            for (mode, t) in ["exact", "LNS"].iter().zip(totals) {
                // out, in, one back, two backs, a decline, an ended window
                for s in [5, 6, 1, 2, 3, 7] {
                    assert!(t[s] > 0, "{mode}: counter {s} never moved: {t:?}");
                }
            }
            assert!(totals[1][4] > 0, "LNS: no rectangle group went through the definition");
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
