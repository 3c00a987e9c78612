//! Lane-parallel force kernels, one per arithmetic mode.
//!
//! The real pipeline's throughput comes from evaluating many j-particles
//! per cycle against a held i-set; this module models that data
//! parallelism on CPU lanes over the SoA [`JSlices`] streams — four
//! j-particles per iteration in `Exact` mode, eight or sixteen in `Lns`
//! mode:
//!
//! ```text
//!   window::PairWindow::run_call (the i-set a run of the j-set: a window call, a run, the whole set)
//!        ├── the rest of each list ──────────► interact_into: a live window's order-free call gathers
//!        │                                     each block of rows' columns into one span; else the list
//!        │                                     before the run (words checked for headroom), after the pass
//!        ├── the run's triangle + the ───────► avx2::block_exact_pairs(_vl) / block_lns(16)_pairs,
//!        │   outgoing rectangles (order-free)  one front per pair, one back where the masses match;
//!        │                                     row side into the boards' words, column side into
//!        │                                     the rows' board or a deposit
//!        ├── the incoming rectangles ────────► their rows start from the deposits
//!        └── (declines) ─────────────────────► interact_block, per board:
//!   interact_block / interact_into (no cutoff), per board
//!        │ detect_lane_path()          G5_LANE_PATH, is_x86_feature_detected!
//!        ├── LanePath::Avx2 ──────► avx2::block_exact / avx2::block_lns; where the CPU
//!        │                          has AVX-512 and FMA, block_exact_vl / block_lns16
//!        │    (a call the x86 kernels cannot take: coordinates outside the
//!        │     magic window — falls through to the skeleton)
//!        └── LanePath::Scalar ────► the per-pair skeleton (pair_exact /
//!                                   pair_lns_tab), the definition; also every
//!                                   CPU without AVX2
//! ```
//!
//! **Files.** This module is the skeleton and the dispatch: [`LanePath`],
//! the tiling skeleton and its scalar accumulate (`block_tiled`,
//! `ScalarAcc`, `Words`), the per-pair skeleton (`block_pairs`), the
//! magic-window guard and the LNS lane state (`LnsLanes`, `mass_word`).
//! `pairs` holds the pair pass's working set (`Block`, `PairScratch`)
//! and its test counters, `quantize` the j-memory quantizer, and `avx2`
//! the x86 kernels behind safe entries that check the CPU and the
//! coordinate guard themselves: `avx2::columns` the accumulate columns,
//! `avx2::exact` the exact bodies, `avx2::lns` the LNS stages. Every
//! intrinsic, raw pointer and `#[target_feature]` call of the lanes,
//! outside their tests, is under `avx2`.
//!
//! Both run inside one tiling skeleton (`block_tiled`; the AVX2 exact
//! kernel spells the same loop out, for its per-block image) and end in
//! the same saturating fixed-point accumulate. Why a CPU without AVX2
//! gets the skeleton and not a portable lane twin: DESIGN.md, device
//! kernel. Each x86 entry is compiled once per mode and op column and
//! has no partial form: it is timed whole, against the divider floor in
//! exact mode (`exp_kernel`; DESIGN.md, "how kernels are measured").
//!
//! **Bit-identity contract, exact mode.** Every path reproduces the
//! scalar `pair_exact` + `Fixed::accumulate` sequence bit for bit:
//!
//! * IEEE 754 mul/add/div/sqrt are deterministic and correctly rounded,
//!   in scalar and vector forms alike, and no FMA contraction is ever
//!   emitted from explicit intrinsics — so vectorizing the identical
//!   operation sequence preserves every bit. (The module's one explicit
//!   FMA, `avx2::AccOps::in_window` on AVX-512VL, feeds a compare: FMA
//!   may appear in a test, never in a value.)
//! * The AVX2 kernel converts a j-block's coordinate columns to `f64`
//!   once per (i-tile, j-block) with the exact `2⁵²+2⁵¹` shifter and
//!   subtracts in doubles. A coordinate-magnitude guard routes any call
//!   with raw words ≥ 2⁵⁰ to the scalar skeleton, so both operands and
//!   their difference are integers a double holds exactly: the result
//!   is `(a − b) as f64` bit for bit, `+0.0` when `a = b`.
//! * `FixedFormat::encode`'s round-half-away-from-zero is emulated as
//!   `trunc(x + copysign(pred(½), x))` (`round_half_away`), and its
//!   saturation as clamp-after-round, equivalent for `|scaled| < 2⁵⁰`;
//!   any term outside that window — or NaN — falls back to the scalar
//!   `encode` itself.
//! * The rounded terms of a j-span are summed in four *column*
//!   accumulators (`Σfx, Σfy, Σfz, Σpot`, lane = j mod 4) and folded
//!   into the running words once per span. Integer adds are
//!   associative, so whenever no prefix of the ordered saturating chain
//!   can clamp — every term inside the encode window, the carried-in
//!   word with 2⁶⁰ of headroom, a span of at most `J_BLOCK` terms —
//!   the column sums *are* that chain. The first group that cannot
//!   show this flushes the columns and goes through the ordered
//!   per-j accumulate, the one slow path and the definition.
//! * The zero-distance guard makes a guarded lane a raw `0` term — a
//!   bitwise no-op on the accumulator, like the scalar path's
//!   `continue`. The AVX2 kernel masks only the potential: a guarded
//!   force lane is `0·s`, ±0 for finite `s` and NaN otherwise,
//!   `encode(±0) = encode(NaN) = 0`, and a NaN sends its group down the
//!   ordered path.
//! * **Front and back.** The AVX2 kernel cuts a j-group's work at the
//!   divider — front: loads to the term vectors `[fx, fy, fz, pot]`, a
//!   pure function of the group; back: the accumulate — and issues
//!   `front(g + D)` before `back(g)`, through a ring, so the divider
//!   works on one group while the vector ports round another (in one
//!   body they took turns: DESIGN.md). Backs run in ascending j.
//!
//! Accumulation order over j is ascending per i on every path, so the
//! saturating fixed-point sums agree bit for bit.
//!

use crate::pipeline::{Force, G5Pipeline, JSlices};
use g5util::fixed::{Fixed, FixedFormat};
use g5util::lns::Lns;
use g5util::lns_table::{LnsConvTables, LnsLaneRoms};
use g5util::vec3::Vec3;
use std::sync::OnceLock;

pub(crate) mod avx2;
mod pairs;
mod quantize;
#[cfg(test)]
mod tests;

#[cfg(test)]
pub(crate) use pairs::PAIR_STATS;
pub(crate) use pairs::{count_pairs, Block, PairScratch};
pub(crate) use quantize::quantize_columns;

/// j-particles per exact-mode lane iteration.
pub const LANES: usize = 4;
/// j-particles per LNS-mode lane iteration.
pub const LNS_LANES: usize = 8;

/// i-particles sharing one streamed j-block (pipelines per chip set).
const I_TILE: usize = 16;
/// j-particles per block; the SoA streams stay well inside L1.
const J_BLOCK: usize = 512;
/// j-groups the front of the AVX2 exact kernel runs ahead of its back,
/// so a group's sqrt → div → div chain has retired when its back is
/// issued (2–8 measure alike: DESIGN.md, device kernel).
#[cfg(any(test, target_arch = "x86_64"))]
const EXACT_DEPTH: usize = 4;

/// Which implementation the no-cutoff `interact_block` dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePath {
    /// Explicit x86 `core::arch` intrinsics: AVX2, with the cheapest op
    /// column and the widest LNS lanes the CPU has (`Wide`).
    Avx2,
    /// The pre-lane per-pair skeleton — the definition the x86 lanes are
    /// held to, the A/B reference for the perf harness, and the path of
    /// every CPU without AVX2.
    Scalar,
}

/// Whether the x86 lane path has the CPU's AVX-512 F/BW/DQ/VL subset and
/// FMA in use: in both modes the AVX-512VL column of the accumulate's op
/// table (`avx2::AccOps`), in LNS mode also sixteen-lane groups. Private
/// field, set here only: never `true` unless `cpu_lanes()[1]` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wide(bool);

/// Resolve a `G5_LANE_PATH` value against the CPU (`cpu_lanes`) —
/// the lane path, and whether it is [`Wide`]:
/// `scalar` is honoured as given; anything else, and no value at all,
/// pick the x86 intrinsics when the CPU has AVX2, wide where it can be,
/// and the scalar skeleton otherwise; `avx2` does the same but pins the
/// AVX2 column and eight lanes (and on other hardware degrades rather
/// than faults).
fn parse_lane_path(var: Option<&str>, [has_avx2, has_wide]: [bool; 2]) -> (LanePath, Wide) {
    if var == Some("scalar") || !has_avx2 {
        return (LanePath::Scalar, Wide(false));
    }
    (LanePath::Avx2, Wide(has_wide && var != Some("avx2")))
}

/// What the CPU has for the x86 lane path: `[AVX2, AVX2 and the FMA and
/// AVX-512 subsets of avx2::block_exact_vl and avx2::block_lns16]`.
pub(crate) fn cpu_lanes() -> [bool; 2] {
    #[cfg(target_arch = "x86_64")]
    let has = {
        let avx2 = std::is_x86_feature_detected!("avx2");
        let wide = std::is_x86_feature_detected!("fma")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl");
        [avx2, avx2 && wide]
    };
    #[cfg(not(target_arch = "x86_64"))]
    let has = [false; 2];
    has
}

/// [`parse_lane_path`] of this process's `G5_LANE_PATH`, resolved once;
/// later changes to the variable are not seen.
pub(crate) fn detected() -> (LanePath, Wide) {
    static PATH: OnceLock<(LanePath, Wide)> = OnceLock::new();
    *PATH
        .get_or_init(|| parse_lane_path(std::env::var("G5_LANE_PATH").ok().as_deref(), cpu_lanes()))
}

/// The lane path of this process: the `G5_LANE_PATH` environment
/// variable, then runtime CPU feature detection (`parse_lane_path`).
pub fn detect_lane_path() -> LanePath {
    detected().0
}

/// How the per-interaction terms are mapped into accumulator units —
/// hoisted once per block call, bit-identical to dividing by the scale.
#[derive(Debug, Clone, Copy)]
enum ScaleMode {
    /// `force_scale == 1.0`: terms pass through.
    One,
    /// Power-of-two scale: its reciprocal is exact, and multiplying by
    /// it rounds the same real value division would.
    Pow2Mul(f64),
    /// General scale: divide.
    Div(f64),
}

fn scale_mode(force_scale: f64) -> ScaleMode {
    let inv_scale = 1.0 / force_scale;
    let pow2_scale = force_scale.to_bits() & ((1u64 << 52) - 1) == 0
        && force_scale.is_normal()
        && inv_scale.is_normal();
    if force_scale == 1.0 {
        ScaleMode::One
    } else if pow2_scale {
        ScaleMode::Pow2Mul(inv_scale)
    } else {
        ScaleMode::Div(force_scale)
    }
}

impl ScaleMode {
    #[inline(always)]
    fn apply(self, t: f64) -> f64 {
        match self {
            ScaleMode::One => t,
            ScaleMode::Pow2Mul(inv) => t * inv,
            ScaleMode::Div(s) => t / s,
        }
    }
}

/// The largest double below one half, `½ − 2⁻⁵⁴`.
const HALF_PRED: f64 = 0.499_999_999_999_999_94;

/// Round half away from zero as one add and a truncation:
/// `x.round() as i64` for every `x` (NaN is 0, as the cast has it). The
/// AVX2 `round_away_to_i64` and both `round_term` columns are this in
/// vector form; this scalar statement of it is the referees' alone.
///
/// Why `pred(½)` and not `½`: for `x = n + f ≥ 0` the sum must stay
/// below `n + 1` whenever `f < ½` — adding `½` to `pred(½)` itself
/// rounds up to `1.0` — and must still reach `n + 1` when `f = ½`,
/// where `n + 1 − 2⁻⁵⁴` rounds to the double `n + 1` because nothing
/// representable is nearer (the one tie, at `n = 0`, goes to the even
/// `1.0`). From 2⁵² on `x` is an integer and the add returns it.
/// DESIGN.md (device-kernel section) walks through the cases; the
/// `lanes_round_half_away_*` referees hold it to `f64::round`.
#[cfg(test)]
fn round_half_away(x: f64) -> i64 {
    (x + HALF_PRED.copysign(x)) as i64
}

/// The scalar end of every kernel: unscale one interaction's terms and
/// add them to the raw accumulator words `[ax, ay, az, pot]` with the
/// format's saturating encode-and-add.
#[derive(Clone, Copy)]
struct ScalarAcc {
    fmt: FixedFormat,
    /// `2^frac_bits`, hoisted out of the pair loops.
    enc: f64,
    sm: ScaleMode,
}

impl ScalarAcc {
    fn new(fmt: FixedFormat, force_scale: f64) -> ScalarAcc {
        ScalarAcc { fmt, enc: fmt.encode_scale(), sm: scale_mode(force_scale) }
    }

    #[inline(always)]
    fn add(&self, a: &mut [i64; 4], t: [f64; 4]) {
        for (a, t) in a.iter_mut().zip(t) {
            *a = Fixed { raw: *a, fmt: self.fmt }
                .accumulate_with_scale(self.enc, self.sm.apply(t))
                .raw;
        }
    }

    #[inline(always)]
    fn add_force(&self, a: &mut [i64; 4], f: Force) {
        self.add(a, [f.acc.x, f.acc.y, f.acc.z, f.pot]);
    }
}

/// Where a batch kernel's raw accumulator words `[ax, ay, az, pot]`,
/// one set per i-particle, start and end up.
pub(crate) enum Words<'a> {
    /// From zero, read back as the forces.
    Forces(&'a mut [Force]),
    /// Carried in and left in place: `len` i-particles' words, component
    /// `c` of i-particle `t` at `w[c · n + t]` — a board's words in a
    /// pair block's [`PairScratch`], from some i-particle on.
    Rows { w: &'a mut [i64], n: usize, len: usize },
}

impl Words<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Words::Forces(f) => f.len(),
            Words::Rows { len, .. } => *len,
        }
    }

    /// The running words of the `len` i-particles from `t` on.
    #[inline(always)]
    fn open(&self, t: usize, len: usize) -> [[i64; 4]; I_TILE] {
        match self {
            Words::Forces(_) => [[0; 4]; I_TILE],
            Words::Rows { w, n, .. } => rows_open(w, *n, t, len),
        }
    }

    /// Leave the running words of the `len` i-particles from `t` on.
    #[inline(always)]
    fn close(
        &mut self,
        (t, len): (usize, usize),
        acc: &[[i64; 4]; I_TILE],
        fs: f64,
        fmt: FixedFormat,
    ) {
        match self {
            Words::Forces(f) => store_tile(&mut f[t..t + len], acc, fs, fmt),
            Words::Rows { w, n, .. } => rows_close(w, *n, (t, len), acc),
        }
    }
}

/// [`Words::open`] on rows. Out of line, like [`rows_close`]: once per
/// i-tile of a pair block's list, and the kernels keep their size.
#[inline(never)]
fn rows_open(w: &[i64], n: usize, t: usize, len: usize) -> [[i64; 4]; I_TILE] {
    let mut acc = [[0; 4]; I_TILE];
    for (i, a) in acc[..len].iter_mut().enumerate() {
        *a = [w[t + i], w[n + t + i], w[2 * n + t + i], w[3 * n + t + i]];
    }
    acc
}

/// [`Words::close`] on rows.
#[inline(never)]
fn rows_close(w: &mut [i64], n: usize, (t, len): (usize, usize), acc: &[[i64; 4]; I_TILE]) {
    for (i, a) in acc[..len].iter().enumerate() {
        for (c, &a) in a.iter().enumerate() {
            w[c * n + t + i] = a;
        }
    }
}

/// Shared tiling skeleton of every batch kernel: i-tiles the width of
/// one chip's pipeline set, j-blocks sized to stay cache-resident, per-i
/// raw fixed-point accumulator words `[ax, ay, az, pot]` carried across
/// j-blocks, opened and closed on `out`. `span(acc, x, js, je)` adds the
/// terms of j-particles `js..je` on the i-particle at `x`, in ascending
/// j order.
#[inline(always)]
fn block_tiled(
    xi: &[[i64; 3]],
    nj: usize,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
    mut span: impl FnMut(&mut [i64; 4], [i64; 3], usize, usize),
) {
    for (t, xc) in (0..).step_by(I_TILE).zip(xi.chunks(I_TILE)) {
        let mut acc = out.open(t, xc.len());
        let mut js = 0;
        while js < nj {
            let je = (js + J_BLOCK).min(nj);
            for (a, &x) in acc.iter_mut().zip(xc) {
                span(a, x, js, je);
            }
            js = je;
        }
        out.close((t, xc.len()), &acc, force_scale, fmt);
    }
}

/// The forces of one i-tile from its raw accumulator words.
#[inline(always)]
fn store_tile(oc: &mut [Force], acc: &[[i64; 4]; I_TILE], force_scale: f64, fmt: FixedFormat) {
    for (o, &a) in oc.iter_mut().zip(acc) {
        *o = force_of(a, force_scale, fmt);
    }
}

/// One readback word from the raw accumulator words `[ax, ay, az, pot]`.
#[inline(always)]
pub(crate) fn force_of(a: [i64; 4], force_scale: f64, fmt: FixedFormat) -> Force {
    let [ax, ay, az, pot] = a.map(|raw| Fixed { raw, fmt }.to_f64() * force_scale);
    Force { acc: Vec3::new(ax, ay, az), pot }
}

/// The scalar skeleton: one `pair(d, jj)` evaluation per non-coincident
/// (i, j) pair. Every lane kernel also ends its spans with this loop
/// (remainder tails, flagged LNS groups).
#[inline(always)]
fn span_pairs(
    sa: &ScalarAcc,
    a: &mut [i64; 4],
    x: [i64; 3],
    j: &JSlices<'_>,
    (js, je): (usize, usize),
    pair: impl Fn([i64; 3], usize) -> Force,
) {
    for jj in js..je {
        let d = [j.x[jj] - x[0], j.y[jj] - x[1], j.z[jj] - x[2]];
        if (d[0] | d[1] | d[2]) != 0 {
            sa.add_force(a, pair(d, jj)); // else: zero-distance guard
        }
    }
}

/// The scalar-skeleton block kernel over an arbitrary pair function.
#[inline(always)]
pub(crate) fn block_pairs(
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
    pair: impl Fn([i64; 3], usize) -> Force,
) {
    let sa = ScalarAcc::new(fmt, force_scale);
    block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
        span_pairs(&sa, a, x, j, (js, je), &pair)
    });
}

/// Exact-mode pair function over the j-slices.
#[inline(always)]
fn exact_pair<'a>(
    quantum: f64,
    eps2: f64,
    j: &'a JSlices<'_>,
) -> impl Fn([i64; 3], usize) -> Force + 'a {
    move |d, jj| G5Pipeline::pair_exact(quantum, eps2, None, d, j.m[jj])
}

#[cfg(test)]
thread_local! {
    /// Calls the x86 block kernels took on this thread (`avx2::block`).
    static LANE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Widest coordinate format whose every word is inside the magic
/// window: [`RangeScaler::quantize`] clamps to `±2^(bits − 1)`, and
/// `−2⁵⁰` itself (51 bits) is already outside.
pub(crate) const MAGIC_WINDOW_BITS: u32 = 50;

/// Are all of `words` inside the magic window `(−2⁵⁰, 2⁵⁰)`?
pub(crate) fn words_in_magic_window(words: &[i64]) -> bool {
    let lim = 1i64 << MAGIC_WINDOW_BITS;
    words.iter().all(|&v| -lim < v && v < lim)
}

/// The distinguished LNS zero inside the lane kernels: a log word far
/// below every representable one (see the module docs).
const ZERO_WORD: i32 = -(1 << 26);

/// Pack a mass log word for j-memory's lane column: `raw << 1 | negative`
/// with [`ZERO_WORD`] standing in for a zero mass. Only the LNS lane
/// kernel reads the column, and only for tabulated formats, whose raw
/// words fit 23 bits.
#[inline]
pub(crate) fn mass_word(m: Lns) -> i32 {
    let raw = if m.is_zero() { ZERO_WORD } else { m.raw() as i32 };
    raw.wrapping_shl(1) | i32::from(m.signum() < 0)
}

/// Per-pipeline state of the LNS lane kernels: the ROM images plus the
/// registers the scalar `pair_lns_tab` takes, so a flagged group can be
/// re-run through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LnsLanes {
    conv: &'static LnsConvTables,
    roms: LnsLaneRoms<'static>,
    quantum: f64,
    eps2_lns: Lns,
    /// ε² as a core word ([`ZERO_WORD`] when it encodes to zero).
    eps2_word: i32,
}

impl LnsLanes {
    /// The lane state for a pipeline, or `None` when it must keep the
    /// scalar skeleton: a format without lane ROMs, or a quantum for
    /// which some non-zero displacement `d · quantum` (`1 ≤ |d| < 2⁵¹`)
    /// could leave the normal, non-underflowing `f64` range the integer
    /// encoder handles.
    pub(crate) fn new(conv: &'static LnsConvTables, quantum: f64, eps2_lns: Lns) -> Option<Self> {
        let roms = conv.lane_roms()?;
        let cfg = conv.config();
        if !(quantum >= f64::from(cfg.exp_min).exp2() && quantum <= 900f64.exp2()) {
            return None;
        }
        let cells = 2usize << cfg.frac_bits;
        assert!(
            roms.enc_cells.len() == cells
                && roms.dec_frac.len() == cells / 2
                && !roms.sb.is_empty(),
            "lane ROM sizes do not match the format"
        );
        let eps2_word = mass_word(eps2_lns) >> 1;
        Some(LnsLanes { conv, roms, quantum, eps2_lns, eps2_word })
    }

    /// The scalar definition, as a pair function over the j-slices.
    #[inline(always)]
    fn pair<'a>(&'a self, j: &'a JSlices<'_>) -> impl Fn([i64; 3], usize) -> Force + 'a {
        move |d, jj| {
            G5Pipeline::pair_lns_tab(self.conv, self.eps2_lns, self.quantum, d, j.m_lns[jj])
        }
    }

    /// The scalar definition on a mass word, [`mass_word`] undone.
    #[cfg(target_arch = "x86_64")]
    fn pair_word(&self, d: [i64; 3], w: i32) -> Force {
        let (cfg, raw) = (self.conv.config(), w >> 1);
        let m = match (raw, w & 1) {
            (ZERO_WORD, _) => Lns::zero(cfg),
            (raw, neg) => Lns::from_raw(1 - 2 * neg as i8, i64::from(raw), cfg),
        };
        G5Pipeline::pair_lns_tab(self.conv, self.eps2_lns, self.quantum, d, m)
    }
}
