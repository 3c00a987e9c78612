//! The G5 force pipeline.
//!
//! One pipeline evaluates, per clock cycle, one pairwise interaction
//!
//! ```text
//! f_ij = m_j · dx / (r² + ε²)^(3/2),      p_ij = m_j / (r² + ε²)^(1/2)
//! ```
//!
//! with `dx = x_j − x_i` formed **exactly** in fixed point (both
//! coordinates sit on the same `set_range` grid, so their difference is
//! an integer number of quanta) and everything downstream of the
//! squarer carried in the logarithmic number system. The reproduction
//! applies a rounding to the LNS grid after each table/functional unit,
//! which is precisely the error model of the real chip at
//! full-resolution tables.
//!
//! The pipeline also implements the chip's **zero-distance guard**: an
//! interaction with `dx = dy = dz = 0` contributes nothing, which is
//! what lets the treecode include a particle in its own group's
//! interaction list.

use crate::config::{ArithMode, Grape5Config};
use crate::cutoff::CutoffTable;
use crate::lanes::{self, LanePath, LnsLanes, Wide};
use g5util::fixed::FixedFormat;
use g5util::lns::{Lns, LnsConfig};
use g5util::lns_table::{conv_tables, LnsConvTables};
use g5util::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Per-particle pipeline output: acceleration contribution and (positive)
/// potential sum `Σ m_j / r`. The host applies the −G convention.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Force {
    /// Acceleration contribution (force per unit i-mass).
    pub acc: Vec3,
    /// Positive potential `Σ m_j (r²+ε²)^(−1/2)`.
    pub pot: f64,
}

impl Force {
    /// The zero contribution.
    pub const ZERO: Force = Force { acc: Vec3::ZERO, pot: 0.0 };

    /// Component-wise sum.
    #[inline]
    pub fn merged(self, o: Force) -> Force {
        Force { acc: self.acc + o.acc, pot: self.pot + o.pot }
    }
}

/// A j-particle as stored in board memory: raw fixed-point coordinates
/// plus the mass in both LNS and `f64` form (the memory feeds whichever
/// arithmetic path is active).
#[derive(Debug, Clone, Copy)]
pub struct JWord {
    /// Fixed-point grid coordinates (quantized by the range scaler).
    pub raw: [i64; 3],
    /// Mass in the pipeline's logarithmic format.
    pub m_lns: Lns,
    /// Mass in `f64`, for the fast exact mode.
    pub m: f64,
}

/// The j-particle memory of one board viewed as structure-of-arrays
/// slices — the layout the batch kernel streams.
#[derive(Debug, Clone, Copy)]
pub struct JSlices<'a> {
    /// Fixed-point x coordinates.
    pub x: &'a [i64],
    /// Fixed-point y coordinates.
    pub y: &'a [i64],
    /// Fixed-point z coordinates.
    pub z: &'a [i64],
    /// Masses in `f64` (exact mode).
    pub m: &'a [f64],
    /// Masses in the pipeline's logarithmic format. Only LNS mode
    /// reads this column; the host-library load leaves it empty in
    /// exact mode.
    pub m_lns: &'a [Lns],
    /// The same log words packed for the LNS lane kernel
    /// (`raw << 1 | negative`, zero as a below-range sentinel), as the
    /// board's j-loads write them (empty where `m_lns` is).
    pub m_word: &'a [i32],
    /// Every word of `x`, `y`, `z` is inside `(−2⁵⁰, 2⁵⁰)`, the window
    /// of the AVX2 kernels' exact `i64 → f64` conversion — established
    /// by the board's j-load, so no force call re-reads the columns.
    pub(crate) in_window: bool,
}

impl JSlices<'_> {
    /// Number of j-particles in the slices.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when no j-particles are loaded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// The functional model of one G5 pipeline.
///
/// Stateless apart from the softening, scale and cutoff registers, so a
/// single instance can be shared by every simulated pipeline in the
/// system.
#[derive(Debug, Clone)]
pub struct G5Pipeline {
    lns: LnsConfig,
    mode: ArithMode,
    /// Size of one coordinate quantum in simulation units.
    quantum: f64,
    /// ε² in simulation units, plus its LNS encoding.
    eps2: f64,
    eps2_lns: Lns,
    /// Optional hardware cutoff table (P³M/TreePM short-range support).
    cutoff: Option<CutoffTable>,
    /// Table-driven LNS converter set (`None` for formats too wide to
    /// tabulate, which fall back to the formula converters).
    conv: Option<&'static LnsConvTables>,
    /// Which lane implementation the no-cutoff batch kernel dispatches
    /// to (see [`lanes`]).
    lane_path: LanePath,
    /// Whether the x86 lane path runs its AVX-512 kernels.
    wide: Wide,
    /// State of the LNS lane kernels; `None` in exact mode and for the
    /// formats and quanta that keep the scalar skeleton.
    lns_lanes: Option<LnsLanes>,
}

impl G5Pipeline {
    /// Build a pipeline for a given configuration, coordinate quantum
    /// and softening.
    pub fn new(cfg: &Grape5Config, quantum: f64, eps: f64) -> Self {
        assert!(quantum > 0.0, "non-positive coordinate quantum");
        assert!(eps >= 0.0, "negative softening");
        let eps2 = eps * eps;
        let eps2_lns = cfg.lns.encode(eps2);
        let conv = conv_tables(cfg.lns);
        let lns_lanes = match (cfg.mode, conv) {
            (ArithMode::Lns, Some(conv)) => LnsLanes::new(conv, quantum, eps2_lns),
            _ => None,
        };
        let (lane_path, wide) = lanes::detected();
        G5Pipeline {
            lns: cfg.lns,
            mode: cfg.mode,
            quantum,
            eps2,
            eps2_lns,
            cutoff: None,
            conv,
            lane_path,
            wide,
            lns_lanes,
        }
    }

    /// The lane implementation the no-cutoff batch kernel uses.
    #[inline]
    pub fn lane_path(&self) -> LanePath {
        self.lane_path
    }

    /// Override the lane implementation — used by the perf harness to
    /// A/B the SIMD and scalar paths, and by tests to referee
    /// them against each other.
    pub fn set_lane_path(&mut self, path: LanePath) {
        self.lane_path = path;
    }

    /// The LNS lane-kernel state, when this pipeline qualifies for it.
    #[cfg(test)]
    pub(crate) fn lns_lanes(&self) -> Option<&LnsLanes> {
        self.lns_lanes.as_ref()
    }

    /// For the referees that pick the x86 path's kernels.
    #[cfg(test)]
    pub(crate) fn set_wide(&mut self, wide: Wide) {
        self.wide = wide;
    }

    /// Load (or clear) the cutoff table — `g5_set_cutoff_table` in the
    /// real library's P³M mode.
    pub fn with_cutoff(mut self, cutoff: Option<CutoffTable>) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// The loaded cutoff table, if any.
    pub fn cutoff(&self) -> Option<&CutoffTable> {
        self.cutoff.as_ref()
    }

    /// The coordinate quantum this pipeline was configured with.
    #[inline]
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Encode a mass for j-memory, through the converter tables this
    /// pipeline already holds (the formula converter for untabulated
    /// formats) — the same words `LnsConfig::encode` returns, without
    /// its per-call lookup of the process-wide table cache.
    #[inline]
    pub fn encode_mass(&self, m: f64) -> Lns {
        match self.conv {
            Some(conv) => conv.encode(m),
            None => self.lns.encode_libm(m),
        }
    }

    /// `true` when the arithmetic mode reads the mass log-word columns
    /// of j-memory (`m_lns`, `m_word`); exact mode streams `m` only.
    #[inline]
    pub fn reads_mass_words(&self) -> bool {
        self.mode == ArithMode::Lns
    }

    /// Evaluate one pairwise interaction between an i-particle at raw
    /// grid position `xi` and a j-word.
    #[inline]
    pub fn interact(&self, xi: [i64; 3], j: &JWord) -> Force {
        let d = [j.raw[0] - xi[0], j.raw[1] - xi[1], j.raw[2] - xi[2]];
        if d == [0, 0, 0] {
            return Force::ZERO; // zero-distance guard
        }
        match (self.mode, self.conv) {
            (ArithMode::Exact, _) => {
                Self::pair_exact(self.quantum, self.eps2, self.cutoff.as_ref(), d, j.m)
            }
            (ArithMode::Lns, Some(conv)) if self.cutoff.is_none() => {
                Self::pair_lns_tab(conv, self.eps2_lns, self.quantum, d, j.m_lns)
            }
            (ArithMode::Lns, _) => self.pair_lns_reference(d, j.m_lns),
        }
    }

    /// Evaluate one pairwise interaction through the pre-batch scalar
    /// path: formula LNS converters (`f64::log2`/`exp2` per operand) and
    /// the LNS → `f64` → re-encode cutoff round trip. The batch kernel
    /// and the table converters are required to reproduce this path bit
    /// for bit; it is kept callable so the golden-vector tests and the
    /// perf harness can compare against it in the same build.
    #[inline]
    pub fn interact_reference(&self, xi: [i64; 3], j: &JWord) -> Force {
        let d = [j.raw[0] - xi[0], j.raw[1] - xi[1], j.raw[2] - xi[2]];
        if d == [0, 0, 0] {
            return Force::ZERO; // zero-distance guard
        }
        match self.mode {
            ArithMode::Exact => {
                Self::pair_exact(self.quantum, self.eps2, self.cutoff.as_ref(), d, j.m)
            }
            ArithMode::Lns => self.pair_lns_reference(d, j.m_lns),
        }
    }

    /// `f64` path: position quantization only.
    #[inline(always)]
    pub(crate) fn pair_exact(
        quantum: f64,
        eps2: f64,
        cutoff: Option<&CutoffTable>,
        d: [i64; 3],
        m: f64,
    ) -> Force {
        let dx = Vec3::new(d[0] as f64 * quantum, d[1] as f64 * quantum, d[2] as f64 * quantum);
        let r2_raw = dx.norm2();
        let r2 = r2_raw + eps2;
        let rinv = 1.0 / r2.sqrt();
        let rinv3 = rinv / r2;
        let (gf, gp) = match cutoff {
            None => (1.0, 1.0),
            Some(t) => (t.force_factor(r2_raw), t.pot_factor(r2_raw)),
        };
        Force { acc: dx * (m * rinv3 * gf), pot: m * rinv * gp }
    }

    /// Table-driven LNS path without a cutoff: same functional units as
    /// the reference path but every converter and adder is an integer
    /// table lookup. Each table is proven bit-identical to its formula
    /// counterpart, so this path reproduces
    /// [`pair_lns_reference`](Self::pair_lns_reference) exactly.
    #[inline(always)]
    pub(crate) fn pair_lns_tab(
        conv: &LnsConvTables,
        eps2_lns: Lns,
        quantum: f64,
        d: [i64; 3],
        m: Lns,
    ) -> Force {
        // dx enters the LNS converter after the exact fixed-point subtract
        let dx = conv.encode(d[0] as f64 * quantum);
        let dy = conv.encode(d[1] as f64 * quantum);
        let dz = conv.encode(d[2] as f64 * quantum);
        // squarers are exact in LNS (log doubling)
        let r2 = conv.add(conv.add(dx.square(), dy.square()), dz.square());
        let r2e = conv.add(r2, eps2_lns);
        // combined sqrt + reciprocal-cube unit (integer log scaling)
        let rinv3 = r2e.pow_neg_3_2();
        let rinv = r2e.powi_rational(-1, 2);
        let mf = m.mul(rinv3);
        let mp = m.mul(rinv);
        Force {
            acc: Vec3::new(
                conv.decode(dx.mul(mf)),
                conv.decode(dy.mul(mf)),
                conv.decode(dz.mul(mf)),
            ),
            pot: conv.decode(mp),
        }
    }

    /// The pre-batch scalar LNS path, verbatim: libm converters, one
    /// rounding to the log grid after each functional unit, and the
    /// cutoff round trip through `f64` (the hardware cutoff unit: a
    /// table addressed by the LNS r², its factors re-encoded into the
    /// log format before the multipliers). It is also the path of the
    /// formats too wide to tabulate, and of every call with a cutoff.
    fn pair_lns_reference(&self, d: [i64; 3], m: Lns) -> Force {
        let c = self.lns;
        let dx = c.encode_libm(d[0] as f64 * self.quantum);
        let dy = c.encode_libm(d[1] as f64 * self.quantum);
        let dz = c.encode_libm(d[2] as f64 * self.quantum);
        let r2 = dx.square().add(dy.square()).add(dz.square());
        let r2e = r2.add(self.eps2_lns);
        let rinv3 = r2e.pow_neg_3_2();
        let rinv = r2e.powi_rational(-1, 2);
        let (gf, gp) = match &self.cutoff {
            None => (None, None),
            Some(t) => {
                let r2_val = r2.to_f64();
                (
                    Some(c.encode_libm(t.force_factor(r2_val))),
                    Some(c.encode_libm(t.pot_factor(r2_val))),
                )
            }
        };
        let mut mf = m.mul(rinv3);
        if let Some(g) = gf {
            mf = mf.mul(g);
        }
        let mut mp = m.mul(rinv);
        if let Some(g) = gp {
            mp = mp.mul(g);
        }
        Force {
            acc: Vec3::new(dx.mul(mf).to_f64(), dy.mul(mf).to_f64(), dz.mul(mf).to_f64()),
            pot: mp.to_f64(),
        }
    }

    /// Batch kernel: evaluate the force from every j-particle in `j` on
    /// every i-particle in `xi`, accumulating in the board's fixed-point
    /// format and writing one readback word per i-particle into `out`.
    ///
    /// The loop is tiled — a pipeline-width group of i-particles shares
    /// each streamed block of j-data, the structure Makino's modified
    /// tree algorithm feeds the real hardware — and all per-call
    /// invariants (mode and cutoff dispatch, converter/adder tables,
    /// ε² word, quantum) are hoisted out of the pair loop. Per-i
    /// accumulation order over j is ascending, identical to the scalar
    /// path, so every saturating fixed-point sum matches bit for bit.
    pub fn interact_block(
        &self,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        force_scale: f64,
        fmt: FixedFormat,
        out: &mut [Force],
    ) {
        assert_eq!(xi.len(), out.len(), "output length mismatch");
        assert!(force_scale > 0.0, "non-positive force scale");
        let nj = j.x.len();
        assert!(j.y.len() == nj && j.z.len() == nj && j.m.len() == nj, "ragged j-slices");
        assert!(
            !self.reads_mass_words() || (j.m_lns.len() == nj && j.m_word.len() == nj),
            "j-slices without mass log words in LNS mode"
        );
        // The x86 lane kernels take the dominant configuration — no
        // cutoff, the `Avx2` lane path, coordinates inside their window
        // (the kernel's own guard); every other call runs the scalar
        // skeleton they are held to (with a cutoff the factors are
        // per-pair table lookups; in LNS through the reference path's
        // f64 round trip).
        let lanes_on = self.cutoff.is_none() && self.lane_path == LanePath::Avx2;
        match (self.mode, self.conv) {
            (ArithMode::Exact, _) => {
                let (quantum, eps2, cutoff) = (self.quantum, self.eps2, self.cutoff.as_ref());
                if lanes_on
                    && lanes::block_exact_avx2(
                        self.wide,
                        quantum,
                        eps2,
                        xi,
                        j,
                        force_scale,
                        fmt,
                        out,
                    )
                {
                    return;
                }
                lanes::block_pairs(xi, j, force_scale, fmt, out, |d, jj| {
                    Self::pair_exact(quantum, eps2, cutoff, d, j.m[jj])
                });
            }
            (ArithMode::Lns, Some(conv)) if self.cutoff.is_none() => {
                if let (true, Some(c)) = (lanes_on, &self.lns_lanes) {
                    if lanes::block_lns_avx2(self.wide, c, xi, j, force_scale, fmt, out) {
                        return;
                    }
                }
                let (eps2_lns, quantum) = (self.eps2_lns, self.quantum);
                lanes::block_pairs(xi, j, force_scale, fmt, out, |d, jj| {
                    Self::pair_lns_tab(conv, eps2_lns, quantum, d, j.m_lns[jj])
                });
            }
            (ArithMode::Lns, _) => {
                lanes::block_pairs(xi, j, force_scale, fmt, out, |d, jj| {
                    self.pair_lns_reference(d, j.m_lns[jj])
                });
            }
        }
    }

    /// A self call — `xi` is the `boards`' coordinate words concatenated
    /// in board order, all inside the magic window, no share longer than
    /// `fmt` sums from zero (`len · 2⁵⁰ ≤ raw_max`) — in one pass over its
    /// unordered pairs ([`lanes::block_exact_self`]), each board's partial
    /// words left in `scratch.acc`. `false`, nothing to read, for any
    /// other call, where this pipeline would not run the AVX2 exact
    /// kernel, and where that kernel declines. Out of line: the O(n)
    /// recognition stays out of every other call's code.
    #[inline(never)]
    pub(crate) fn interact_self<'a>(
        &self,
        xi: &[[i64; 3]],
        boards: impl Iterator<Item = JSlices<'a>>,
        force_scale: f64,
        fmt: FixedFormat,
        s: &mut lanes::SelfScratch,
    ) -> bool {
        if (self.mode, self.lane_path) != (ArithMode::Exact, LanePath::Avx2)
            || self.cutoff.is_some()
        {
            return false;
        }
        s.img.iter_mut().for_each(Vec::clear);
        s.m.clear();
        s.ends.clear();
        for j in boards {
            let (at, end) = (s.m.len(), s.m.len() + j.len());
            let cols = j.x.iter().zip(j.y).zip(j.z);
            let same = (xi.get(at..end))
                .is_some_and(|x| x.iter().zip(cols).all(|(x, ((&a, &b), &c))| *x == [a, b, c]));
            if !(same && j.in_window) || j.len() as i64 > fmt.raw_max() >> 50 {
                return false;
            }
            for (img, col) in s.img.iter_mut().zip([j.x, j.y, j.z]) {
                img.extend(col.iter().map(|&w| w as f64)); // exact: |w| < 2⁵⁰
            }
            s.m.extend_from_slice(j.m);
            s.ends.push(end);
        }
        let consts = (self.quantum, self.eps2);
        s.m.len() == xi.len() && lanes::block_exact_self(self.wide, consts, xi, force_scale, fmt, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5util::fixed::RangeScaler;

    fn pipe(mode: ArithMode, quantum: f64, eps: f64) -> G5Pipeline {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        G5Pipeline::new(&cfg, quantum, eps)
    }

    fn jword(p: &G5Pipeline, raw: [i64; 3], m: f64) -> JWord {
        JWord { raw, m_lns: p.encode_mass(m), m }
    }

    #[test]
    fn zero_distance_guard() {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let p = pipe(mode, 1e-6, 0.0);
            let j = jword(&p, [42, -7, 3], 1.0);
            assert_eq!(p.interact([42, -7, 3], &j), Force::ZERO);
        }
    }

    #[test]
    fn exact_mode_matches_f64_formula() {
        let q = 1.0 / 1024.0;
        let p = pipe(ArithMode::Exact, q, 0.01);
        let j = jword(&p, [1024, 0, 0], 2.0); // x_j = 1.0
        let f = p.interact([0, 0, 0], &j);
        let r2: f64 = 1.0 + 0.0001;
        let expect_ax = 2.0 / (r2 * r2.sqrt());
        assert!((f.acc.x - expect_ax).abs() < 1e-12);
        assert_eq!(f.acc.y, 0.0);
        assert!((f.pot - 2.0 / r2.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn lns_mode_relative_error_is_small_but_nonzero() {
        let q = 1.0 / (1 << 20) as f64;
        let pl = pipe(ArithMode::Lns, q, 0.0);
        let pe = pipe(ArithMode::Exact, q, 0.0);
        let j_l = jword(&pl, [123_456, -654_321, 777_777], 1.5);
        let f_l = pl.interact([1000, 2000, -3000], &j_l);
        let f_e = pe.interact([1000, 2000, -3000], &j_l);
        let rel = (f_l.acc - f_e.acc).norm() / f_e.acc.norm();
        assert!(rel > 0.0, "LNS path must differ from exact");
        assert!(rel < 0.01, "rel={rel} exceeds 1 %");
    }

    #[test]
    fn pairwise_error_rms_is_about_0_3_percent() {
        // §2 of the paper: "calculates a pair-wise force with a relative
        // error of about 0.3%". Sample random geometries and check the
        // RMS relative force error lands in that band.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let scaler = RangeScaler::new(-1.0, 1.0, 32);
        let q = scaler.quantum();
        let pl = pipe(ArithMode::Lns, q, 0.0);
        let mut sum_sq = 0.0;
        let n = 4000;
        for _ in 0..n {
            let xi = [0i64, 0, 0];
            let raw = [
                scaler.quantize(rng.random_range(-0.9..0.9)),
                scaler.quantize(rng.random_range(-0.9..0.9)),
                scaler.quantize(rng.random_range(-0.9..0.9)),
            ];
            if raw == [0, 0, 0] {
                continue;
            }
            let m = rng.random_range(0.1..10.0);
            let j = JWord { raw, m_lns: pl.encode_mass(m), m };
            let f = pl.interact(xi, &j);
            // reference: exact f64 on the same quantized geometry
            let dx = Vec3::new(raw[0] as f64 * q, raw[1] as f64 * q, raw[2] as f64 * q);
            let r2 = dx.norm2();
            let fe = dx * (m / (r2 * r2.sqrt()));
            sum_sq += (f.acc - fe).norm2() / fe.norm2();
        }
        let rms = (sum_sq / n as f64).sqrt();
        assert!(
            (0.001..0.006).contains(&rms),
            "pairwise RMS force error {rms:.5} outside the 0.1–0.6 % band"
        );
    }

    #[test]
    fn force_is_antisymmetric_under_swap_in_exact_mode() {
        let q = 1e-5;
        let p = pipe(ArithMode::Exact, q, 0.0);
        let a = [100, 200, 300];
        let b = [-400, 50, 0];
        let m = 1.0;
        let fab = p.interact(a, &jword(&p, b, m));
        let fba = p.interact(b, &jword(&p, a, m));
        assert!((fab.acc + fba.acc).norm() < 1e-15);
    }

    #[test]
    fn merged_forces_add() {
        let f1 = Force { acc: Vec3::new(1.0, 2.0, 3.0), pot: 4.0 };
        let f2 = Force { acc: Vec3::new(-1.0, 0.5, 0.0), pot: 1.0 };
        let m = f1.merged(f2);
        assert_eq!(m.acc, Vec3::new(0.0, 2.5, 3.0));
        assert_eq!(m.pot, 5.0);
    }

    #[test]
    fn softening_regularizes_close_pairs() {
        let q = 1e-6;
        let p = pipe(ArithMode::Exact, q, 0.1);
        // one quantum apart: without softening the force would be ~1e12
        let j = jword(&p, [1, 0, 0], 1.0);
        let f = p.interact([0, 0, 0], &j);
        assert!(f.acc.norm() < 1.0 / (0.1f64.powi(2)), "softening must bound the force");
    }
}
