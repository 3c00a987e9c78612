//! The GRAPE-5 processor board: 8 G5 chips (16 pipelines) and a
//! j-particle memory.
//!
//! A board evaluates forces **from** every particle in its j-memory
//! **on** an arbitrary set of i-particles. The 16 pipelines serve 16
//! i-particles concurrently while j-particles stream from memory one
//! per cycle, so a call with `ni` i-particles and `nj` j-particles
//! costs `ceil(ni/16) × (nj + pipeline_latency)` chip cycles.
//!
//! Per-pipeline force accumulation happens on the board in wide
//! fixed-point registers (`acc_format`), scaled by a host-declared
//! force scale; only the final sums cross the interface.

use crate::config::Grape5Config;
use crate::lanes;
use crate::pipeline::{Force, G5Pipeline, JSlices, JWord};
use g5util::fixed::{Fixed, FixedFormat, RangeScaler};
use g5util::lns::Lns;
use g5util::vec3::Vec3;
use rayon::prelude::*;

/// One processor board.
///
/// The j-memory is held as structure-of-arrays columns — the layout the
/// batch kernel streams — rather than an array of [`JWord`]s. The host
/// library fills the columns in one pass from positions and masses
/// (`load_j_particles`, behind `Grape5::set_j_particles`); `load_j` still
/// accepts the interface's word form and is the reference the one-pass
/// load is held to.
#[derive(Debug, Clone)]
pub struct ProcessorBoard {
    jx: Vec<i64>,
    jy: Vec<i64>,
    jz: Vec<i64>,
    jm: Vec<f64>,
    jm_lns: Vec<Lns>,
    /// `jm_lns` packed for the LNS lane kernel ([`lanes::mass_word`]),
    /// derived once per load so force calls allocate nothing.
    jm_word: Vec<i32>,
    /// Every coordinate word in memory is inside the lane kernels'
    /// magic window ([`lanes::words_in_magic_window`]); set by each
    /// load, read by every force call through [`JSlices::in_window`].
    j_in_window: bool,
    capacity: usize,
    pipes: usize,
    /// Pipelines taken out of service by the host (fault quarantine).
    /// Work is re-spread over the survivors, so the schedule degrades
    /// gracefully instead of the board dying with its pipe.
    disabled_pipes: usize,
    latency: u64,
    acc_format: FixedFormat,
}

impl ProcessorBoard {
    /// Build an empty board per the system configuration.
    pub fn new(cfg: &Grape5Config) -> Self {
        ProcessorBoard {
            jx: Vec::new(),
            jy: Vec::new(),
            jz: Vec::new(),
            jm: Vec::new(),
            jm_lns: Vec::new(),
            jm_word: Vec::new(),
            j_in_window: true,
            capacity: cfg.jmem_capacity,
            pipes: cfg.pipes_per_board(),
            disabled_pipes: 0,
            latency: cfg.pipeline_latency_cycles,
            acc_format: cfg.acc_format,
        }
    }

    /// Pipelines currently in service.
    #[inline]
    pub fn active_pipes(&self) -> usize {
        self.pipes - self.disabled_pipes
    }

    /// Take one pipeline out of service; its i-lanes are redistributed
    /// over the remaining pipes (at a cycle-count penalty). Returns the
    /// number of pipes still active. The last pipe cannot be disabled —
    /// a board with nothing left should be quarantined whole.
    pub fn disable_pipe(&mut self) -> usize {
        if self.active_pipes() > 1 {
            self.disabled_pipes += 1;
        }
        self.active_pipes()
    }

    /// Return every disabled pipeline to service — the repair path:
    /// after a probation self-test comes back clean, the host undoes
    /// the quarantine penalty. Schedule-only; forces never depended on
    /// the pipe count.
    pub fn enable_all_pipes(&mut self) {
        self.disabled_pipes = 0;
    }

    /// Particles currently in j-memory.
    #[inline]
    pub fn nj(&self) -> usize {
        self.jx.len()
    }

    /// j-memory capacity in particles.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Load the j-particle memory from interface words, replacing its
    /// contents.
    ///
    /// # Panics
    /// If `words` exceeds the memory capacity — the host library layer
    /// is responsible for chunking larger j-sets into multiple passes.
    pub fn load_j(&mut self, words: &[JWord]) {
        self.check_capacity(words.len());
        self.clear_j();
        for w in words {
            self.jx.push(w.raw[0]);
            self.jy.push(w.raw[1]);
            self.jz.push(w.raw[2]);
            self.jm.push(w.m);
            self.jm_lns.push(w.m_lns);
            self.jm_word.push(lanes::mass_word(w.m_lns));
        }
        // interface words carry no format: read them once, here
        self.j_in_window = self.columns_in_window();
    }

    fn columns_in_window(&self) -> bool {
        [&self.jx, &self.jy, &self.jz].into_iter().all(|c| lanes::words_in_magic_window(c))
    }

    /// Empty the j-memory (the column capacity stays for the next load).
    pub fn clear_j(&mut self) {
        self.jx.clear();
        self.jy.clear();
        self.jz.clear();
        self.jm.clear();
        self.jm_lns.clear();
        self.jm_word.clear();
        self.j_in_window = true;
    }

    fn check_capacity(&self, n: usize) {
        assert!(n <= self.capacity, "j-set of {n} exceeds board memory capacity {}", self.capacity);
    }

    /// The host library's `g5_set_xmj`: replace the j-memory contents
    /// with `pos`/`mass`, quantized onto the `scaler` grid straight into
    /// the coordinate columns by the lane quantizer of `pipe`'s lane
    /// path — no intermediate [`JWord`]s, no reallocation once the
    /// columns have grown to the working size. Word for word what
    /// [`load_j`](Self::load_j) stores for the same particles, except
    /// that the mass log-word columns are written only in the
    /// arithmetic mode that reads them
    /// ([`G5Pipeline::reads_mass_words`]) and stay empty otherwise.
    ///
    /// The load also carries the host's running `Σ|m|` forward:
    /// `abs_mass` comes in as the sum over the shares loaded before this
    /// one and goes out with this share's masses added in order — the
    /// one serial add chain the session's force bound
    /// ([`crate::DeviceSession`]) needs.
    ///
    /// # Panics
    /// If the set exceeds the memory capacity.
    pub(crate) fn load_j_particles(
        &mut self,
        scaler: &RangeScaler,
        pipe: &G5Pipeline,
        pos: &[Vec3],
        mass: &[f64],
        abs_mass: f64,
    ) -> f64 {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        let n = pos.len();
        self.check_capacity(n);
        // resize keeps the words already there: only growth past the
        // previous load is zero-filled before the quantizer overwrites it
        self.jx.resize(n, 0);
        self.jy.resize(n, 0);
        self.jz.resize(n, 0);
        let cols = [&mut self.jx[..], &mut self.jy[..], &mut self.jz[..]];
        lanes::quantize_columns(pipe.lane_path(), scaler, pos, cols);
        // the quantizer clamps to the format, so a format inside the
        // window needs no look at the words; a wider one is read once
        self.j_in_window = scaler.bits() <= lanes::MAGIC_WINDOW_BITS || self.columns_in_window();
        self.jm.clear();
        self.jm.extend_from_slice(mass);
        // a loop of its own: inside `extend`, whose growth path is a
        // call, the add chain can be kept in memory (+2 ns per j)
        let abs_mass = mass.iter().fold(abs_mass, |sum, m| sum + m.abs());
        self.jm_lns.clear();
        self.jm_word.clear();
        if pipe.reads_mass_words() {
            self.jm_lns.extend(mass.iter().map(|&m| pipe.encode_mass(m)));
            self.jm_word.extend(self.jm_lns.iter().map(|&w| lanes::mass_word(w)));
        }
        abs_mass
    }

    /// Overwrite the mass of the j-particle at `index` in every column
    /// that holds it (the injected-corruption hook: a flipped mass word
    /// carries its re-encoded log words with it).
    pub(crate) fn set_mass(&mut self, index: usize, m: f64, pipe: &G5Pipeline) {
        self.jm[index] = m;
        if !self.jm_lns.is_empty() {
            let w = pipe.encode_mass(m);
            self.jm_lns[index] = w;
            self.jm_word[index] = lanes::mass_word(w);
        }
    }

    /// The j-memory contents as structure-of-arrays slices.
    #[inline]
    pub fn j_slices(&self) -> JSlices<'_> {
        JSlices {
            x: &self.jx,
            y: &self.jy,
            z: &self.jz,
            m: &self.jm,
            m_lns: &self.jm_lns,
            m_word: &self.jm_word,
            in_window: self.j_in_window,
        }
    }

    /// Chip cycles needed to evaluate `ni` i-particles against the
    /// current j-memory contents.
    #[inline]
    pub fn cycles_for(&self, ni: usize) -> u64 {
        if ni == 0 || self.jx.is_empty() {
            return 0;
        }
        let nj = self.jx.len() as u64;
        let chunks = ni.div_ceil(self.active_pipes()) as u64;
        chunks * (nj + self.latency)
    }

    /// Evaluate the partial force from this board's j-memory on each
    /// i-particle (raw grid coordinates), returning the per-particle
    /// force read back over the interface.
    ///
    /// `force_scale` is the host-declared unit of the fixed-point
    /// accumulators: accumulated values saturate at
    /// `acc_format.max_value() × force_scale`.
    pub fn compute(&self, pipe: &G5Pipeline, xi: &[[i64; 3]], force_scale: f64) -> Vec<Force> {
        let mut out = Vec::new();
        self.compute_into(pipe, xi, force_scale, &mut out);
        out
    }

    /// [`compute`](Self::compute) into a caller-owned buffer, so a
    /// steady-state force loop performs no per-call allocation. The
    /// buffer is cleared and refilled to `xi.len()`.
    pub fn compute_into(
        &self,
        pipe: &G5Pipeline,
        xi: &[[i64; 3]],
        force_scale: f64,
        out: &mut Vec<Force>,
    ) {
        assert!(force_scale > 0.0, "non-positive force scale");
        out.clear();
        out.resize(xi.len(), Force::ZERO);
        pipe.interact_block(xi, &self.j_slices(), force_scale, self.acc_format, out);
    }

    /// The pre-batch board compute, verbatim: one scalar
    /// [`G5Pipeline::interact_reference`] call per (i, j) pair with
    /// per-i fixed-point accumulation. The batch kernel must reproduce
    /// its output bit for bit; kept callable for the golden-vector
    /// tests and the perf harness's same-run baseline.
    pub fn compute_reference(
        &self,
        pipe: &G5Pipeline,
        xi: &[[i64; 3]],
        force_scale: f64,
    ) -> Vec<Force> {
        assert!(force_scale > 0.0, "non-positive force scale");
        let fmt = self.acc_format;
        xi.par_iter()
            .map(|&x| {
                let mut ax = Fixed::zero(fmt);
                let mut ay = Fixed::zero(fmt);
                let mut az = Fixed::zero(fmt);
                let mut ap = Fixed::zero(fmt);
                for jj in 0..self.jx.len() {
                    let m = self.jm[jj];
                    // exact-mode loads leave the log-word column empty
                    let m_lns = self.jm_lns.get(jj).copied().unwrap_or_else(|| pipe.encode_mass(m));
                    let w = JWord { raw: [self.jx[jj], self.jy[jj], self.jz[jj]], m_lns, m };
                    let f = pipe.interact_reference(x, &w);
                    ax = ax.accumulate(f.acc.x / force_scale);
                    ay = ay.accumulate(f.acc.y / force_scale);
                    az = az.accumulate(f.acc.z / force_scale);
                    ap = ap.accumulate(f.pot / force_scale);
                }
                Force {
                    acc: Vec3::new(
                        ax.to_f64() * force_scale,
                        ay.to_f64() * force_scale,
                        az.to_f64() * force_scale,
                    ),
                    pot: ap.to_f64() * force_scale,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArithMode;

    fn setup(mode: ArithMode) -> (ProcessorBoard, G5Pipeline) {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, 1.0 / (1u64 << 24) as f64, 0.0);
        (board, pipe)
    }

    fn jw(pipe: &G5Pipeline, raw: [i64; 3], m: f64) -> JWord {
        JWord { raw, m_lns: pipe.encode_mass(m), m }
    }

    #[test]
    fn empty_board_returns_zero_forces() {
        let (board, pipe) = setup(ArithMode::Exact);
        let out = board.compute(&pipe, &[[0, 0, 0], [1, 2, 3]], 1.0);
        assert_eq!(out, vec![Force::ZERO, Force::ZERO]);
        assert_eq!(board.cycles_for(2), 0);
    }

    #[test]
    fn cycle_model_matches_schedule() {
        let cfg = Grape5Config::paper(); // 16 pipes/board, latency 56
        let mut board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, 1e-6, 0.0);
        let words: Vec<JWord> = (0..100).map(|k| jw(&pipe, [k, 0, 0], 1.0)).collect();
        board.load_j(&words);
        // 16 i fit in one pass: 100 + 56 cycles
        assert_eq!(board.cycles_for(16), 156);
        // 17 i need two passes
        assert_eq!(board.cycles_for(17), 312);
        assert_eq!(board.cycles_for(0), 0);
    }

    #[test]
    fn disabled_pipes_slow_the_schedule_but_keep_the_board() {
        let cfg = Grape5Config::paper(); // 16 pipes/board, latency 56
        let mut board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, 1e-6, 0.0);
        let words: Vec<JWord> = (0..100).map(|k| jw(&pipe, [k, 0, 0], 1.0)).collect();
        board.load_j(&words);
        assert_eq!(board.cycles_for(16), 156); // one 16-wide pass
        assert_eq!(board.disable_pipe(), 15);
        // 16 i over 15 pipes: two passes now
        assert_eq!(board.cycles_for(16), 312);
        // forces are unaffected — only the schedule degrades
        let f = board.compute(&pipe, &[[5, 5, 5]], 1.0);
        assert_ne!(f[0], Force::ZERO);
        // the last pipe can never be disabled
        for _ in 0..40 {
            board.disable_pipe();
        }
        assert_eq!(board.active_pipes(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds board memory capacity")]
    fn overfull_jmem_panics() {
        let cfg = Grape5Config { jmem_capacity: 2, ..Grape5Config::paper() };
        let mut board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, 1e-6, 0.0);
        let words: Vec<JWord> = (0..3).map(|k| jw(&pipe, [k, 0, 0], 1.0)).collect();
        board.load_j(&words);
    }

    #[test]
    fn exact_mode_matches_direct_sum() {
        let (mut board, pipe) = setup(ArithMode::Exact);
        let q = pipe.quantum();
        let raws = [[1_000_000i64, 0, 0], [0, 2_000_000, 0], [-500_000, -500_000, 777]];
        let masses = [1.0, 2.5, 0.5];
        let words: Vec<JWord> = raws.iter().zip(&masses).map(|(&r, &m)| jw(&pipe, r, m)).collect();
        board.load_j(&words);
        let xi = [[10_000i64, 20_000, -30_000]];
        let out = board.compute(&pipe, &xi, 1.0);

        let mut expect = Force::ZERO;
        for (r, &m) in raws.iter().zip(&masses) {
            let dx = Vec3::new(
                (r[0] - xi[0][0]) as f64 * q,
                (r[1] - xi[0][1]) as f64 * q,
                (r[2] - xi[0][2]) as f64 * q,
            );
            let r2 = dx.norm2();
            expect.acc += dx * (m / (r2 * r2.sqrt()));
            expect.pot += m / r2.sqrt();
        }
        assert!((out[0].acc - expect.acc).norm() / expect.acc.norm() < 1e-8);
        assert!((out[0].pot - expect.pot).abs() / expect.pot < 1e-8);
    }

    #[test]
    fn lns_mode_is_close_to_exact_mode() {
        let (mut bl, pl) = setup(ArithMode::Lns);
        let (mut be, pe) = setup(ArithMode::Exact);
        let words: Vec<JWord> = (1..200)
            .map(|k| {
                let r = [k * 37_501, (k % 13) * 91_001 - 500_000, k * k % 800_000];
                jw(&pl, r, 1.0 + (k % 5) as f64)
            })
            .collect();
        bl.load_j(&words);
        be.load_j(&words);
        let xi = [[123i64, -456, 789]];
        let fl = bl.compute(&pl, &xi, 1.0);
        let fe = be.compute(&pe, &xi, 1.0);
        let rel = (fl[0].acc - fe[0].acc).norm() / fe[0].acc.norm();
        assert!(rel < 0.01, "board LNS vs exact rel err {rel}");
        assert!(rel > 0.0);
    }

    #[test]
    fn accumulator_saturates_at_force_scale_range() {
        // force_scale tiny => accumulator clamps rather than wrapping
        let cfg = Grape5Config {
            mode: ArithMode::Exact,
            acc_format: FixedFormat::new(16, 8),
            ..Grape5Config::paper()
        };
        let mut board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, 1e-3, 0.0);
        let words: Vec<JWord> = (1..50).map(|k| jw(&pipe, [k, 0, 0], 1e6)).collect();
        board.load_j(&words);
        let out = board.compute(&pipe, &[[0, 0, 0]], 1.0);
        let max = FixedFormat::new(16, 8).max_value();
        assert!(out[0].acc.x <= max + 1e-9, "saturated value {} > {}", out[0].acc.x, max);
    }

    #[test]
    fn zero_distance_j_contributes_nothing() {
        let (mut board, pipe) = setup(ArithMode::Exact);
        let words = vec![jw(&pipe, [5, 5, 5], 3.0)];
        board.load_j(&words);
        let out = board.compute(&pipe, &[[5, 5, 5]], 1.0);
        assert_eq!(out[0], Force::ZERO);
    }
}
