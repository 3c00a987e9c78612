//! Lane-parallel force kernels, one per arithmetic mode.
//!
//! The real pipeline's throughput comes from evaluating many j-particles
//! per cycle against a held i-set; this module models that data
//! parallelism on CPU lanes over the SoA [`JSlices`] streams — four
//! j-particles per iteration in `Exact` mode, eight or sixteen in `Lns`
//! mode:
//!
//! ```text
//!   interact_block (no cutoff)
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
//! Both run inside one tiling skeleton (`block_tiled`; the AVX2 exact
//! kernel spells the same loop out, for its per-block image) and end in
//! the same saturating fixed-point accumulate. Why a CPU without AVX2
//! gets the skeleton and not a portable lane twin: DESIGN.md, device
//! kernel.
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
//! **LNS mode** mirrors the GRAPE-5 pipeline's own stage order — after
//! the input converter every stage is a small-integer operation on log
//! words, which is what lanes want:
//!
//! ```text
//!   hardware stage            lane stage (8 or 16 j per group, two
//!                             groups in flight: each stage runs on both)
//!   fixed-point subtract      vpsubq on the coordinate words
//!   log converter ROM         magic i64→f64 × quantum, then one gather
//!                             of a packed encoder cell per coordinate,
//!                             indexed by the f64's own mantissa bits
//!   squarers / adders         i32 adds; sb ROM gather at min(d, last)
//!   (·)^-3/2, (·)^-1/2        integer scaling of the log word
//!   multipliers (m, dx)       i32 adds
//!   antilog ROM               mantissa-ROM gather | exponent field,
//!                             per component (no per-j transpose)
//!   fixed-point accumulate    the exact kernel's column accumulators
//! ```
//!
//! Two arguments carry the LNS contract (`pair_lns_tab` stays the
//! definition; `tests/golden_kernel.rs` and the in-crate referees hold
//! every path to it):
//!
//! * **Sentinel zero.** The distinguished zero is the word
//!   `ZERO_WORD = −2²⁶`, far below every `raw_min ≥ −2²²`. Each
//!   functional unit already applies the hardware rule "result
//!   `< raw_min` ⇒ zero", here a compare-and-blend back to the
//!   sentinel, so a zero operand needs no flag lane: in a multiplier
//!   the sum stays below `raw_min` (`−2²⁶ + raw_max < raw_min`); in the
//!   adder the distance to any live word exceeds the `sb` ROM, whose
//!   clamped last entry is the asymptote 0, so the live operand passes
//!   through, and two zeros sum to a word still ≤ `−2²⁶ + 3·2^f`; in
//!   the power unit `−3/2 ·` or `−1/2 ·` that word clamps to `raw_max`,
//!   the scalar unit's `0^negative` saturation. The output words are
//!   rebased so that zero is the all-zero word and decodes to `0.0`.
//! * **Group fallback.** Whatever the integer stages cannot decide
//!   exactly — a mantissa within one ROM offset unit of an encoder
//!   breakpoint (a superset of the libm guard band) — raises a flag
//!   lane, and a flagged group is retried narrower — the pair's groups
//!   one at a time, a group of sixteen as two of eight — until a group
//!   of eight re-runs its pairs through `pair_lns_tab`, all in j order.
//!   Pipeline-level preconditions (`2^exp_min ≤
//!   quantum ≤ 2⁹⁰⁰`, a factored decoder, an `sb` ROM without
//!   `FALLBACK` entries) keep subnormal, infinite and underflowing
//!   displacements and un-hoistable adder roundings out of the lanes
//!   altogether; a pipeline that fails them keeps the scalar skeleton.
//!
//! Accumulation order over j is ascending per i on every path, so the
//! saturating fixed-point sums agree bit for bit.
//!
//! **j-memory quantizer.** The host library's coordinate conversion
//! (`g5_set_xmj`) runs on the same lanes and the same [`LanePath`]:
//! `quantize_columns` writes a j-set's fixed-point words straight
//! into the board's SoA columns, held word for word to
//! `RangeScaler::quantize` (IEEE subtract and divide kept, saturation
//! as a clamp, round-half-away as the `round_half_away` above). The
//! scalar path, the last 1–3 particles and windows wider than 51 bits
//! run the definition itself.

use crate::pipeline::{Force, G5Pipeline, JSlices};
use g5util::fixed::{Fixed, FixedFormat, RangeScaler};
use g5util::lns::Lns;
use g5util::lns_table::{LnsConvTables, LnsLaneRoms};
use g5util::vec3::Vec3;
use std::sync::OnceLock;

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
fn cpu_lanes() -> [bool; 2] {
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

/// Shared tiling skeleton of every batch kernel: i-tiles the width of
/// one chip's pipeline set, j-blocks sized to stay cache-resident, per-i
/// raw fixed-point accumulator words `[ax, ay, az, pot]` carried across
/// j-blocks. `span(acc, x, js, je)` adds the terms of j-particles
/// `js..je` on the i-particle at `x`, in ascending j order.
#[inline(always)]
fn block_tiled(
    xi: &[[i64; 3]],
    nj: usize,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut [Force],
    mut span: impl FnMut(&mut [i64; 4], [i64; 3], usize, usize),
) {
    for (xc, oc) in xi.chunks(I_TILE).zip(out.chunks_mut(I_TILE)) {
        let mut acc = [[0i64; 4]; I_TILE];
        let mut js = 0;
        while js < nj {
            let je = (js + J_BLOCK).min(nj);
            for (a, &x) in acc.iter_mut().zip(xc) {
                span(a, x, js, je);
            }
            js = je;
        }
        store_tile(oc, &acc, force_scale, fmt);
    }
}

/// The forces of one i-tile from its raw accumulator words.
#[inline(always)]
fn store_tile(oc: &mut [Force], acc: &[[i64; 4]; I_TILE], force_scale: f64, fmt: FixedFormat) {
    for (o, a) in oc.iter_mut().zip(acc) {
        let [ax, ay, az, pot] = a.map(|raw| Fixed { raw, fmt }.to_f64() * force_scale);
        *o = Force { acc: Vec3::new(ax, ay, az), pot };
    }
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
    out: &mut [Force],
    pair: impl Fn([i64; 3], usize) -> Force,
) {
    let sa = ScalarAcc::new(fmt, force_scale);
    block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
        span_pairs(&sa, a, x, j, (js, je), &pair)
    });
}

// ---------------------------------------------------------------------
// Exact mode
// ---------------------------------------------------------------------

/// Exact-mode pair function over the j-slices.
#[inline(always)]
fn exact_pair<'a>(
    quantum: f64,
    eps2: f64,
    j: &'a JSlices<'_>,
) -> impl Fn([i64; 3], usize) -> Force + 'a {
    move |d, jj| G5Pipeline::pair_exact(quantum, eps2, None, d, j.m[jj])
}

/// Prefixes of the exact lane kernel, for per-stage timing: running the
/// AVX2 kernel [`G5Pipeline::interact_block_exact_upto`] a stage shows
/// what the simulated accumulator costs next to the force itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactStage {
    /// Load, fixed-point subtract, `i64 → f64`, the force and potential
    /// terms, zero-distance guard.
    Force,
    /// … plus unscale, `× 2^frac_bits` and round-half-away to `i64`.
    Round,
    /// The whole kernel: window test, column adds, the per-span fold.
    Accumulate,
}

impl ExactStage {
    /// Every stage, in pipeline order.
    pub const ALL: [ExactStage; 3] = [ExactStage::Force, ExactStage::Round, ExactStage::Accumulate];
}

/// Run the AVX2 exact kernel truncated after `upto` (earlier results
/// are folded into the accumulators so nothing is optimized away —
/// `out` is only meaningful for [`ExactStage::Accumulate`], the whole
/// kernel). Returns `false` without touching `out` when the AVX2 kernel
/// cannot take this call: no AVX2, or coordinates outside the magic
/// window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_exact_avx2_upto(
    upto: ExactStage,
    wide: Wide,
    quantum: f64,
    eps2: f64,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut [Force],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && coords_in_magic_window(xi, j) {
        // SAFETY: AVX2 was detected and the coordinate guard passed; a
        // `Wide` is only set where the FMA and AVX-512 subsets were.
        unsafe {
            macro_rules! upto {
                ($s:ident) => {{
                    const UPTO: u8 = ExactStage::$s as u8;
                    if wide.0 {
                        avx2::block_exact_vl::<UPTO>(quantum, eps2, xi, j, force_scale, fmt, out)
                    } else {
                        avx2::block_exact::<UPTO>(quantum, eps2, xi, j, force_scale, fmt, out)
                    }
                }};
            }
            match upto {
                ExactStage::Force => upto!(Force),
                ExactStage::Round => upto!(Round),
                ExactStage::Accumulate => upto!(Accumulate),
            }
        }
        return true;
    }
    let _ = (upto, wide, quantum, eps2, xi, j, force_scale, fmt, out);
    false
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

/// Coordinate-magnitude guard of the AVX2 kernels: `|a|, |b| < 2⁵⁰`
/// bounds every subtract `|a − b| < 2⁵¹`, the window where the vector
/// i64 → f64 conversion is exact. Wider coordinate formats (coord_bits
/// can reach 62) take the scalar skeleton instead. The j side is a fact
/// of the loaded memory, settled by the board when it was loaded
/// ([`JSlices::in_window`]); only the few i words are read per call.
#[cfg(target_arch = "x86_64")]
fn coords_in_magic_window(xi: &[[i64; 3]], j: &JSlices<'_>) -> bool {
    j.in_window && xi.iter().all(|x| words_in_magic_window(x))
}

// ---------------------------------------------------------------------
// j-memory coordinate quantizer
// ---------------------------------------------------------------------

/// Widest coordinate word the lane quantizer takes: `|raw| ≤ 2⁵⁰`, the
/// window of the magic-number conversions (and one where the raw bounds
/// are exact in `f64`). Wider words go through
/// [`RangeScaler::quantize`] itself, like the exact kernel's
/// wide-coordinate guard.
#[cfg(any(test, target_arch = "x86_64"))]
const QUANT_LANE_BITS: u32 = 51;

/// The per-window constants of [`RangeScaler::quantize`], hoisted out
/// of the per-coordinate loop. `quantum()` is a deterministic function
/// of the window, so the hoisted value is the one `quantize` recomputes
/// per call.
#[cfg(any(test, target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
struct QuantCtx {
    center: f64,
    quantum: f64,
    /// `raw_min` / `raw_max` as `f64` (exact: at most 51 bits).
    minf: f64,
    maxf: f64,
}

#[cfg(any(test, target_arch = "x86_64"))]
impl QuantCtx {
    /// `None` for windows wider than [`QUANT_LANE_BITS`].
    fn new(s: &RangeScaler) -> Option<QuantCtx> {
        (s.bits() <= QUANT_LANE_BITS).then(|| QuantCtx {
            center: s.center(),
            quantum: s.quantum(),
            minf: s.raw_min() as f64,
            maxf: s.raw_max() as f64,
        })
    }
}

/// Quantize `pos` onto the `scaler` grid straight into the three
/// coordinate columns `[x, y, z]` of a board's j-memory (each exactly
/// `pos.len()` long), every word equal to [`RangeScaler::quantize`] of
/// its coordinate. `path` selects the implementation like it does for
/// the force kernels: `Avx2` four coordinates per `vdivpd`, leaving
/// the last 1–3 particles to the definition; `Scalar` (and a window
/// wider than [`QUANT_LANE_BITS`]) the definition throughout.
pub(crate) fn quantize_columns(
    path: LanePath,
    scaler: &RangeScaler,
    pos: &[Vec3],
    cols: [&mut [i64]; 3],
) {
    assert!(cols.iter().all(|c| c.len() == pos.len()), "ragged coordinate columns");
    let [x, y, z] = cols;
    let done = match path {
        #[cfg(target_arch = "x86_64")]
        LanePath::Avx2 if std::is_x86_feature_detected!("avx2") => {
            QuantCtx::new(scaler).map_or(0, |ctx| {
                // SAFETY: AVX2 was detected; the column lengths were
                // checked above and the window fits the magic
                // conversions (`QuantCtx`).
                unsafe { avx2::quantize_columns(&ctx, pos, [&mut *x, &mut *y, &mut *z]) }
            })
        }
        _ => 0,
    };
    let tail = pos[done..].iter().zip(x[done..].iter_mut().zip(&mut y[done..]).zip(&mut z[done..]));
    for (p, ((x, y), z)) in tail {
        (*x, *y, *z) = (scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z));
    }
}

// ---------------------------------------------------------------------
// LNS mode
// ---------------------------------------------------------------------

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
}

/// Prefixes of the LNS lane pipeline, for per-stage timing: running the
/// AVX2 kernel [`G5Pipeline::interact_block_lns_upto`] a stage shows
/// what each stage adds to the time per interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LnsStage {
    /// Load, fixed-point subtract, `i64 → f64`, log-converter ROM.
    Encode,
    /// … plus the squarers and the three `sb`-ROM adds (`r² + ε²`).
    Adder,
    /// … plus the power units, multipliers and sign logic.
    Scale,
    /// … plus the antilog ROM.
    Decode,
    /// The whole kernel, fixed-point accumulate included.
    Accumulate,
}

impl LnsStage {
    /// Every stage, in pipeline order.
    pub const ALL: [LnsStage; 5] = [
        LnsStage::Encode,
        LnsStage::Adder,
        LnsStage::Scale,
        LnsStage::Decode,
        LnsStage::Accumulate,
    ];
}

/// Run the AVX2 LNS kernel truncated after `upto` (earlier results are
/// folded into the accumulators so nothing is optimized away — `out` is
/// only meaningful for [`LnsStage::Accumulate`], the whole kernel).
/// Returns `false` without touching `out` when the AVX2 kernel cannot
/// take this call: no AVX2, or coordinates outside the magic window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_lns_avx2_upto(
    upto: LnsStage,
    wide: Wide,
    c: &LnsLanes,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut [Force],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && coords_in_magic_window(xi, j) {
        // SAFETY: AVX2 was detected and the coordinate guard passed; a
        // `Wide` is only set where the FMA and AVX-512 subsets were.
        unsafe {
            macro_rules! upto {
                ($s:ident) => {
                    if wide.0 {
                        avx2::block_lns16::<{ LnsStage::$s as u8 }>(c, xi, j, force_scale, fmt, out)
                    } else {
                        avx2::block_lns::<{ LnsStage::$s as u8 }>(c, xi, j, force_scale, fmt, out)
                    }
                };
            }
            match upto {
                LnsStage::Encode => upto!(Encode),
                LnsStage::Adder => upto!(Adder),
                LnsStage::Scale => upto!(Scale),
                LnsStage::Decode => upto!(Decode),
                LnsStage::Accumulate => upto!(Accumulate),
            }
        }
        return true;
    }
    let _ = (upto, wide, c, xi, j, force_scale, fmt, out);
    false
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        block_tiled, exact_pair, scale_mode, span_pairs, store_tile, words_in_magic_window,
        ExactStage, LnsLanes, LnsStage, QuantCtx, ScalarAcc, ScaleMode, EXACT_DEPTH, HALF_PRED,
        I_TILE, J_BLOCK, LANES, LNS_LANES, ZERO_WORD,
    };
    use crate::pipeline::{Force, JSlices};
    use core::arch::x86_64::{_mm256_castpd_si256 as to_i, *};
    use g5util::fixed::{Fixed, FixedFormat};
    use g5util::vec3::Vec3;
    use std::marker::PhantomData;

    /// `2⁵² + 2⁵¹`: the shifter that makes i64 ↔ f64 conversion exact
    /// for `|v| < 2⁵¹` (the integer lands in the double's mantissa).
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    /// The same shifter as raw double bits, for the integer-domain side.
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
    /// Fast-path window for the vector encode: `|scaled| < 2⁵⁰` keeps
    /// the magic conversion exact and round-then-clamp equivalent to
    /// `FixedFormat::encode`'s saturate-then-round.
    const ENC_LIM: f64 = (1u64 << 50) as f64;

    /// Vector unscale, fixed per call.
    #[derive(Clone, Copy)]
    enum VScale {
        None,
        Mul(__m256d),
        Div(__m256d),
    }

    /// Headroom a span needs on its carried-in accumulator words for
    /// its column sums to equal the ordered saturating chain: a span is
    /// at most `J_BLOCK` terms, each at most 2⁵⁰ once rounded.
    const SPAN_HEADROOM: i64 = 1 << 60;
    const _: () = assert!((J_BLOCK as i64) << 50 < SPAN_HEADROOM);

    /// Hoisted per-call constants of the vector fixed accumulate — the
    /// one copy both kernels end in.
    #[derive(Clone, Copy)]
    struct AccCtx {
        encv: __m256d,
        enc: f64,
        fmt: FixedFormat,
        rmin: __m256i,
        rmax: __m256i,
        vs: VScale,
        /// Column fast path available: the format's range covers the
        /// encode window (so the per-term clamp cannot bind) and leaves
        /// [`SPAN_HEADROOM`] on both sides to test the running
        /// accumulator against.
        group_fast: bool,
        hmax: i64,
        hmin: i64,
    }

    impl AccCtx {
        #[target_feature(enable = "avx2")]
        unsafe fn new(fmt: FixedFormat, force_scale: f64) -> AccCtx {
            let enc = fmt.encode_scale();
            let hmax = fmt.raw_max().saturating_sub(SPAN_HEADROOM);
            let hmin = fmt.raw_min().saturating_add(SPAN_HEADROOM);
            AccCtx {
                encv: _mm256_set1_pd(enc),
                enc,
                fmt,
                rmin: _mm256_set1_epi64x(fmt.raw_min()),
                rmax: _mm256_set1_epi64x(fmt.raw_max()),
                vs: match scale_mode(force_scale) {
                    ScaleMode::One => VScale::None,
                    ScaleMode::Pow2Mul(inv) => VScale::Mul(_mm256_set1_pd(inv)),
                    ScaleMode::Div(s) => VScale::Div(_mm256_set1_pd(s)),
                },
                group_fast: fmt.raw_max() >= (1i64 << 50)
                    && fmt.raw_min() <= -(1i64 << 50)
                    && hmin < hmax,
                hmax,
                hmin,
            }
        }

        /// Whether a span carried in on `a` may run on the columns.
        #[inline]
        fn headroom(&self, a: &[i64; 4]) -> bool {
            self.group_fast && a.iter().all(|&w| self.hmin <= w && w <= self.hmax)
        }

        /// The four component vectors in accumulator units.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn unscale(&self, f: [__m256d; 4]) -> [__m256d; 4] {
            match self.vs {
                VScale::None => f,
                VScale::Mul(iv) => f.map(|f| _mm256_mul_pd(f, iv)),
                VScale::Div(sv) => f.map(|f| _mm256_div_pd(f, sv)),
            }
        }

        /// … and times `2^frac_bits`, ready to round.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn encode(&self, v: [__m256d; 4]) -> [__m256d; 4] {
            v.map(|v| _mm256_mul_pd(v, self.encv))
        }
    }

    /// `v as f64`, exact for `|v| < 2⁵¹` (the coordinate guard).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn i64x4_to_f64(v: __m256i) -> __m256d {
        let shifted = _mm256_add_epi64(v, _mm256_set1_epi64x(MAGIC_BITS));
        _mm256_sub_pd(_mm256_castsi256_pd(shifted), _mm256_set1_pd(MAGIC))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn clamp_epi64(v: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
        _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs_pd(v: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), v)
    }

    /// [`round_away_to_i64`] short of its last step: the rounded
    /// integer still riding the shifter, i.e. the i64 plus
    /// [`MAGIC_BITS`]. Lane for lane the scalar `round_half_away`
    /// the referees hold it to — add the signed
    /// `pred(½)`, truncate — then the exact magic conversion; valid for
    /// `|scaled| ≤ 2⁵⁰`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn round_away_biased(scaled: __m256d) -> __m256i {
        let sign = _mm256_and_pd(scaled, _mm256_set1_pd(-0.0));
        let half = _mm256_or_pd(sign, _mm256_set1_pd(HALF_PRED));
        let rounded = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(
            scaled, half,
        ));
        _mm256_castpd_si256(_mm256_add_pd(rounded, _mm256_set1_pd(MAGIC)))
    }

    /// Round half away from zero and convert to i64 — `scaled.round()
    /// as i64`, bit for bit, valid for `|scaled| ≤ 2⁵⁰`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn round_away_to_i64(scaled: __m256d) -> __m256i {
        _mm256_sub_epi64(round_away_biased(scaled), _mm256_set1_epi64x(MAGIC_BITS))
    }

    /// One vector `Fixed::accumulate_with_scale` over the 4 components
    /// `[fx, fy, fz, pot]` of a single j-interaction (already unscaled).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn accumulate4(acc: __m256i, v: __m256d, c: &AccCtx) -> __m256i {
        let scaled = _mm256_mul_pd(v, c.encv);
        let ok = _mm256_cmp_pd::<_CMP_LT_OQ>(abs_pd(scaled), _mm256_set1_pd(ENC_LIM));
        if _mm256_movemask_pd(ok) != 0b1111 {
            // Rare: a term saturates the format or is NaN. The scalar
            // encode is the definition of correctness — defer to it.
            let mut a = [0i64; 4];
            let mut t = [0f64; 4];
            _mm256_storeu_si256(a.as_mut_ptr().cast(), acc);
            _mm256_storeu_pd(t.as_mut_ptr(), v);
            for k in 0..4 {
                a[k] = Fixed { raw: a[k], fmt: c.fmt }.accumulate_with_scale(c.enc, t[k]).raw;
            }
            return _mm256_loadu_si256(a.as_ptr().cast());
        }
        // encode = round (window checked above), then its saturation;
        // sat_add: wrapping add, overflow detected by sign algebra,
        // clamped to the format range.
        let term = clamp_epi64(round_away_to_i64(scaled), c.rmin, c.rmax);
        let sum = _mm256_add_epi64(acc, term);
        let ovf = _mm256_and_si256(_mm256_xor_si256(acc, sum), _mm256_xor_si256(term, sum));
        let ovf = _mm256_cmpgt_epi64(_mm256_setzero_si256(), ovf);
        let acc_neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), acc);
        let sat =
            _mm256_blendv_epi8(_mm256_set1_epi64x(i64::MAX), _mm256_set1_epi64x(i64::MIN), acc_neg);
        clamp_epi64(_mm256_blendv_epi8(sum, sat, ovf), c.rmin, c.rmax)
    }

    /// The slow path of the accumulate and its definition: transpose
    /// four consecutive j-interactions from component vectors (already
    /// unscaled) to per-j `[fx, fy, fz, pot]` and take them through
    /// [`accumulate4`] one j at a time. Kept out of line (and away from
    /// [`Columns`], which must stay in registers) by [`add_ordered`].
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn add_ordered_avx2(a: &mut [i64; 4], v: [__m256d; 4], c: &AccCtx) {
        let t0 = _mm256_unpacklo_pd(v[0], v[1]);
        let t1 = _mm256_unpackhi_pd(v[0], v[1]);
        let t2 = _mm256_unpacklo_pd(v[2], v[3]);
        let t3 = _mm256_unpackhi_pd(v[2], v[3]);
        let mut av = _mm256_loadu_si256(a.as_ptr().cast());
        av = accumulate4(av, _mm256_permute2f128_pd::<0x20>(t0, t2), c);
        av = accumulate4(av, _mm256_permute2f128_pd::<0x20>(t1, t3), c);
        av = accumulate4(av, _mm256_permute2f128_pd::<0x31>(t0, t2), c);
        av = accumulate4(av, _mm256_permute2f128_pd::<0x31>(t1, t3), c);
        _mm256_storeu_si256(a.as_mut_ptr().cast(), av);
    }

    /// [`add_ordered_avx2`] as a call that stays one: rustc drops
    /// `#[inline(never)]` from a `#[target_feature]` function.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cold]
    #[inline(never)]
    unsafe fn add_ordered(a: &mut [i64; 4], v: [__m256d; 4], c: &AccCtx) {
        add_ordered_avx2(a, v, c)
    }

    /// The ops of the fixed accumulate both kernels end in (`round_term`,
    /// `in_window`) and of the exact front's mask steps (`zero_guard`,
    /// `guarded_pot`), as a table — declaration, AVX2 body, AVX-512VL
    /// body, each on 4 × 64 bits in a 256-bit register. Row for row the
    /// two are the same function of their lanes wherever the result is
    /// used (DESIGN.md, device kernel); what is written over them exists
    /// once.
    ///
    /// # Safety
    /// Every method executes its column's instructions, which the CPU
    /// must have: AVX2 for [`Avx2Ops`]; AVX2, FMA and AVX-512 F, DQ and
    /// VL for [`VlOps`] (`cpu_lanes()[1]`). Like [`LnsLane`]'s they are
    /// `#[inline(always)]` without `#[target_feature]`, instructions and
    /// not calls once inlined into a `#[target_feature]` `block_*` entry.
    macro_rules! acc_ops {
        ($($(#[$doc:meta])* fn $name:ident($($arg:tt)*) -> $ret:ty { $avx2:expr, $vl:expr })+) => {
            pub(super) trait AccOps {
                /// What [`round_term`](AccOps::round_term) leaves on each term.
                const BIAS: i64;
                /// The zero-distance lanes of a j-group.
                type Guard: Copy;
                $($(#[$doc])* unsafe fn $name($($arg)*) -> $ret;)+
            }
            pub(super) struct Avx2Ops;
            pub(super) struct VlOps;
            impl AccOps for Avx2Ops {
                const BIAS: i64 = MAGIC_BITS;
                type Guard = __m256i;
                $(#[inline(always)] unsafe fn $name($($arg)*) -> $ret { $avx2 })+
            }
            impl AccOps for VlOps {
                const BIAS: i64 = 0;
                type Guard = __mmask8;
                $(#[inline(always)] unsafe fn $name($($arg)*) -> $ret { $vl })+
            }
        };
    }
    acc_ops! {
        /// `s.round() as i64 + BIAS` per lane, for `|s| < 2⁵⁰`: the magic
        /// shifter's biased integer, or the scalar `round_half_away`
        /// verbatim — `(s & sign) | pred(½)`, add, truncating convert.
        fn round_term(s: __m256d) -> __m256i {
            round_away_biased(s),
            {
                let (sign, half) = (_mm256_set1_epi64x(i64::MIN), _mm256_set1_pd(HALF_PRED));
                let half = _mm256_ternarylogic_epi64::<0xEA>(to_i(s), sign, to_i(half));
                _mm256_cvttpd_epi64(_mm256_add_pd(s, _mm256_castsi256_pd(half)))
            }
        }
        /// A group's window test: `true` only if every term of `s` is
        /// finite and `|s| < 2⁵⁰` — as `Σ|s| < 2⁵⁰`, or as `Σs² < 2¹⁰⁰` in a
        /// multiply and three FMAs (in a test, never in a value that is
        /// accumulated). A rounded sum of non-negatives is at least each
        /// addend, NaN and ±inf propagate through it, and a group it
        /// rejects although each term alone would pass merely takes the
        /// ordered path, which is exact for any input.
        fn in_window(s: [__m256d; 4]) -> bool {
            {
                let lo = _mm256_add_pd(abs_pd(s[0]), abs_pd(s[1]));
                let sum = _mm256_add_pd(lo, _mm256_add_pd(abs_pd(s[2]), abs_pd(s[3])));
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(sum, _mm256_set1_pd(ENC_LIM))) == 0b1111
            },
            {
                let sq = _mm256_fmadd_pd(s[1], s[1], _mm256_mul_pd(s[0], s[0]));
                let sq = _mm256_fmadd_pd(s[3], s[3], _mm256_fmadd_pd(s[2], s[2], sq));
                _mm256_cmp_pd_mask::<_CMP_LT_OQ>(sq, _mm256_set1_pd(ENC_LIM * ENC_LIM)) == 0b1111
            }
        }
        /// The lanes whose three displacements are all `+0.0` — exact
        /// integer-valued differences, `x − x = +0.0`: a bit-pattern test
        /// (AVX2: the guarded lanes; VL: a `k` mask of the others).
        fn zero_guard(d: [__m256d; 3]) -> Self::Guard {
            _mm256_cmpeq_epi64(to_i(_mm256_or_pd(_mm256_or_pd(d[0], d[1]), d[2])), _mm256_setzero_si256()),
            {
                let any = _mm256_ternarylogic_epi64::<0xFE>(to_i(d[0]), to_i(d[1]), to_i(d[2]));
                _mm256_test_epi64_mask(any, any)
            }
        }
        /// `m · rinv`, `+0.0` in the guarded lanes.
        fn guarded_pot(zero: Self::Guard, m: __m256d, rinv: __m256d) -> __m256d {
            _mm256_andnot_pd(_mm256_castsi256_pd(zero), _mm256_mul_pd(m, rinv)),
            _mm256_maskz_mul_pd(zero, m, rinv)
        }
    }

    /// The four column accumulators `Σfx, Σfy, Σfz, Σpot` of one
    /// (i-particle, j-span), on the ops of column `O`: lane `l` of a
    /// column holds the rounded terms of the span's j-particles
    /// `≡ l (mod 4)` not yet folded into the running words.
    ///
    /// Invariant: while `fast`, the running words had
    /// [`SPAN_HEADROOM`] when it was last set, and every term added
    /// since — at most `J_BLOCK` per word, the value lives for one span
    /// — is at most 2⁵⁰ in magnitude. So no prefix of the ordered
    /// saturating chain over those terms can clamp or overflow, and the
    /// chain equals the plain integer sum the columns hold, in any
    /// order. While `!fast` the columns stay zero. Which groups leave
    /// the columns may differ between two `O`; what they add may not.
    ///
    /// The terms go in as [`AccOps::round_term`] leaves them, each
    /// [`AccOps::BIAS`] too large: wrapping adds are exact modulo 2⁶⁴, so
    /// the bias comes off once per fold (`groups` × `BIAS` per lane)
    /// instead of once per term.
    ///
    /// # Safety
    /// Every method needs AVX2 and `O`'s CPU features ([`AccOps`]), and
    /// is an `#[inline(always)]` body with no intrinsic in a closure;
    /// `a` must be the running words the span was opened on.
    struct Columns<O: AccOps> {
        sum: [__m256i; 4],
        /// Groups added since the last fold.
        groups: i64,
        fast: bool,
        ops: PhantomData<O>,
    }

    impl<O: AccOps> Columns<O> {
        /// Start a span carried in on the running words `a`.
        #[inline(always)]
        unsafe fn open(a: &[i64; 4], c: &AccCtx) -> Self {
            let sum = [_mm256_setzero_si256(); 4];
            Columns { sum, groups: 0, fast: c.headroom(a), ops: PhantomData }
        }

        /// Add four consecutive j-interactions, given as the component
        /// vectors `[fx, fy, fz, pot]` (lane = j), in ascending j order.
        /// A group that fails [`AccOps::in_window`] takes the slow path:
        /// fold the columns, add the group in order ([`add_ordered`]),
        /// then see whether what follows may use the columns (again).
        #[inline(always)]
        unsafe fn add(&mut self, a: &mut [i64; 4], f: [__m256d; 4], c: &AccCtx) {
            let v = c.unscale(f);
            let s = c.encode(v);
            if self.fast && O::in_window(s) {
                for (sum, s) in self.sum.iter_mut().zip(s) {
                    *sum = _mm256_add_epi64(*sum, O::round_term(s));
                }
                self.groups += 1;
            } else {
                self.flush(a);
                add_ordered(a, v, c);
                self.fast = c.headroom(a);
            }
        }

        /// Fold the columns into the running words (one horizontal sum
        /// per component) and clear them. Must precede anything else
        /// that reads or writes `a`; after scalar work on `a`, `fast`
        /// is to be re-derived from [`AccCtx::headroom`].
        #[inline(always)]
        unsafe fn flush(&mut self, a: &mut [i64; 4]) {
            // wrapping: the true sum is in range by the struct
            // invariant, the biased one is not (and the truncated
            // profiling prefixes fold their sink through here)
            let bias = (LANES as i64 * self.groups).wrapping_mul(O::BIAS);
            for (a, sum) in a.iter_mut().zip(&mut self.sum) {
                let mut l = [0i64; LANES];
                _mm256_storeu_si256(l.as_mut_ptr().cast(), *sum);
                let terms = l.iter().fold(bias.wrapping_neg(), |t, &l| t.wrapping_add(l));
                *a = a.wrapping_add(terms);
                *sum = _mm256_setzero_si256();
            }
            self.groups = 0;
        }

        /// Keep a truncated profiling prefix's result alive.
        #[inline(always)]
        unsafe fn sink(&mut self, v: __m256i) {
            self.sum[0] = _mm256_xor_si256(self.sum[0], v);
        }
    }

    /// The AVX2 coordinate quantizer: four particles (three vectors of
    /// the flat `x y z x …` stream) per iteration, quantized in stream
    /// order and de-interleaved into the columns as 64-bit words.
    /// Returns how many leading particles it wrote (a multiple of 4;
    /// the caller finishes the tail).
    ///
    /// Per lane this is [`RangeScaler::quantize`](super::RangeScaler::quantize),
    /// word for word and branch-free: the same IEEE `vsubpd` and `vdivpd`
    /// (no reciprocal) give the same `scaled`; round-half-away is
    /// monotone and both bounds are integers, so rounding the *clamped*
    /// value equals the definition's saturate-else-round; the exact
    /// kernel's truncate-and-signed-bump [`round_away_to_i64`] is
    /// `f64::round` there, valid because the clamped value is within
    /// `±2⁵⁰`; a NaN lane is masked to the definition's 0.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `x`, `y`, `z` must each hold at
    /// least `pos.len()` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_columns(
        q: &QuantCtx,
        pos: &[Vec3],
        [x, y, z]: [&mut [i64]; 3],
    ) -> usize {
        let flat = Vec3::flat(pos);
        let (center, quantum) = (_mm256_set1_pd(q.center), _mm256_set1_pd(q.quantum));
        let (minf, maxf) = (_mm256_set1_pd(q.minf), _mm256_set1_pd(q.maxf));
        let word4 = |p: *const f64| {
            let s = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(p), center), quantum);
            // vmaxpd/vminpd return their second operand on NaN, so a
            // NaN lane leaves the clamp as a bound; the ordered mask
            // turns it into the definition's 0
            let c = _mm256_min_pd(_mm256_max_pd(s, minf), maxf);
            let ord = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_ORD_Q>(s, s));
            _mm256_and_si256(round_away_to_i64(c), ord)
        };
        let lanes_end = pos.len() / LANES * LANES;
        for k in (0..lanes_end).step_by(LANES) {
            debug_assert!(3 * (k + LANES) <= flat.len(), "three vectors past the stream");
            debug_assert!([&x, &y, &z].iter().all(|c| k + LANES <= c.len()), "short column");
            let p = flat.as_ptr().add(3 * k);
            // v0 = x0 y0 z0 x1, v1 = y1 z1 x2 y2, v2 = z2 x3 y3 z3
            let v0 = word4(p);
            let v1 = word4(p.add(4));
            let v2 = word4(p.add(8));
            // pick each column's four words (two dword-pair blends),
            // then put them in particle order
            let xs =
                _mm256_blend_epi32::<0b0000_1100>(_mm256_blend_epi32::<0b0011_0000>(v0, v1), v2);
            let ys =
                _mm256_blend_epi32::<0b0011_0000>(_mm256_blend_epi32::<0b0000_1100>(v1, v0), v2);
            let zs =
                _mm256_blend_epi32::<0b0011_0000>(_mm256_blend_epi32::<0b0000_1100>(v2, v1), v0);
            // in bounds: asserted above (k + 4 ≤ each column's length)
            _mm256_storeu_si256(
                x.as_mut_ptr().add(k).cast(),
                _mm256_permute4x64_epi64::<0b01_10_11_00>(xs),
            );
            _mm256_storeu_si256(
                y.as_mut_ptr().add(k).cast(),
                _mm256_permute4x64_epi64::<0b10_11_00_01>(ys),
            );
            _mm256_storeu_si256(
                z.as_mut_ptr().add(k).cast(),
                _mm256_permute4x64_epi64::<0b11_00_01_10>(zs),
            );
        }
        lanes_end
    }

    /// The x86 exact-mode block kernel on the ops of column `O`,
    /// truncated after stage `UPTO` (an [`ExactStage`] discriminant;
    /// `Accumulate` is the whole kernel); module docs, "front and back".
    ///
    /// # Safety
    /// The CPU must support AVX2 and `O`'s features ([`AccOps`]), and
    /// every coordinate word in `xi` and `j` must be inside `(-2⁵⁰, 2⁵⁰)`
    /// (`coords_in_magic_window`). An `#[inline(always)]` body for the
    /// `#[target_feature]` entries below; no closure in it may hold an
    /// intrinsic ([`AccOps`]).
    #[inline(always)]
    unsafe fn exact_body<O: AccOps, const UPTO: u8>(
        quantum: f64,
        eps2: f64,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        force_scale: f64,
        fmt: FixedFormat,
        out: &mut [Force],
    ) {
        /// The terms `[fx, fy, fz, pot]` of the j-group at `k` of a block
        /// (coordinate image, masses) seen from `xv`, `[quantum, ε², 1]`
        /// splatted: after the divides, five multiplies and a mask.
        #[inline(always)]
        unsafe fn front<O: AccOps>(
            img: &[[f64; J_BLOCK]; 3],
            bm: &[f64],
            xv: [__m256d; 3],
            [qv, e2v, onev]: [__m256d; 3],
            k: usize,
        ) -> [__m256d; 4] {
            debug_assert!(k + LANES <= bm.len() && k + LANES <= J_BLOCK);
            // SAFETY: k + LANES is at most the length of bm and of each
            // img column.
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(img[0].as_ptr().add(k)), xv[0]);
            let d1 = _mm256_sub_pd(_mm256_loadu_pd(img[1].as_ptr().add(k)), xv[1]);
            let d2 = _mm256_sub_pd(_mm256_loadu_pd(img[2].as_ptr().add(k)), xv[2]);
            let m4 = _mm256_loadu_pd(bm.as_ptr().add(k));
            let zero = O::zero_guard([d0, d1, d2]);
            let dx = _mm256_mul_pd(d0, qv);
            let dy = _mm256_mul_pd(d1, qv);
            let dz = _mm256_mul_pd(d2, qv);
            // (dx² + dy²) + dz² — explicit mul/add, never FMA,
            // matching pair_exact's association
            let r2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            let r2e = _mm256_add_pd(r2, e2v);
            let rinv = _mm256_div_pd(onev, _mm256_sqrt_pd(r2e));
            let rinv3 = _mm256_div_pd(rinv, r2e);
            let s = _mm256_mul_pd(m4, rinv3);
            // zero-distance guard, potential lane only: a guarded
            // force lane is 0·s, ±0 or NaN, a raw 0 either way
            let pot = O::guarded_pot(zero, m4, rinv);
            [_mm256_mul_pd(dx, s), _mm256_mul_pd(dy, s), _mm256_mul_pd(dz, s), pot]
        }
        const D: usize = EXACT_DEPTH;
        let ctx = AccCtx::new(fmt, force_scale);
        let sa = ScalarAcc::new(fmt, force_scale);
        let pair = exact_pair(quantum, eps2, j);
        let consts = [_mm256_set1_pd(quantum), _mm256_set1_pd(eps2), _mm256_set1_pd(1.0)];
        // block_tiled's loop, plus the j-block's coordinate columns as
        // integer-valued doubles: converted once per (i-tile, j-block)
        // and shared by the tile's i-particles
        let mut img = [[0.0f64; J_BLOCK]; 3];
        for (xc, oc) in xi.chunks(I_TILE).zip(out.chunks_mut(I_TILE)) {
            let mut acc = [[0i64; 4]; I_TILE];
            for js in (0..j.len()).step_by(J_BLOCK) {
                let je = (js + J_BLOCK).min(j.len());
                // slicing bounds-checks the block against the j-columns
                let bm = &j.m[js..je];
                let lanes_end = bm.len() / LANES * LANES;
                for (img, col) in img.iter_mut().zip([j.x, j.y, j.z]) {
                    let col = &col[js..je];
                    for k in (0..lanes_end).step_by(LANES) {
                        debug_assert!(k + LANES <= col.len() && k + LANES <= img.len());
                        // SAFETY: k + LANES ≤ lanes_end ≤ je − js = col.len()
                        // ≤ J_BLOCK = img.len(); the words are inside the
                        // magic window (caller's contract).
                        let w = _mm256_loadu_si256(col.as_ptr().add(k).cast());
                        _mm256_storeu_pd(img.as_mut_ptr().add(k), i64x4_to_f64(w));
                    }
                }
                for (a, &x) in acc.iter_mut().zip(xc) {
                    debug_assert!(words_in_magic_window(&x), "i-word outside the window");
                    let (x0, x1, x2) = (x[0] as f64, x[1] as f64, x[2] as f64); // exact: |x| < 2⁵⁰
                    let xv = [_mm256_set1_pd(x0), _mm256_set1_pd(x1), _mm256_set1_pd(x2)];
                    let groups = lanes_end / LANES;
                    let mut cols = Columns::<O>::open(a, &ctx);
                    let mut ring = [[_mm256_setzero_pd(); 4]; D];
                    for (g, slot) in ring.iter_mut().enumerate().take(groups) {
                        *slot = front::<O>(&img, bm, xv, consts, g * LANES);
                    }
                    for g in 0..groups {
                        let f = ring[g % D];
                        if g + D < groups {
                            ring[g % D] = front::<O>(&img, bm, xv, consts, (g + D) * LANES);
                        }
                        if UPTO == ExactStage::Force as u8 {
                            cols.sink(_mm256_castpd_si256(xor4(f)));
                        } else if UPTO == ExactStage::Round as u8 {
                            let [t0, t1, t2, t3] = ctx.encode(ctx.unscale(f));
                            cols.sink(_mm256_xor_si256(
                                _mm256_xor_si256(O::round_term(t0), O::round_term(t1)),
                                _mm256_xor_si256(O::round_term(t2), O::round_term(t3)),
                            ));
                        } else {
                            cols.add(a, f, &ctx);
                        }
                    }
                    cols.flush(a);
                    span_pairs(&sa, a, x, j, (js + lanes_end, je), &pair);
                }
            }
            store_tile(oc, &acc, force_scale, fmt);
        }
    }

    /// The `#[target_feature]` entries of [`exact_body`], one per column.
    ///
    /// # Safety
    /// As for [`exact_body`]: coordinates in the magic window, AVX2, and
    /// for `block_exact_vl` FMA and AVX-512 F, DQ and VL (`cpu_lanes()[1]`).
    macro_rules! exact_entries {
        ($($name:ident: $ops:ty, $features:literal;)+) => {$(
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name<const UPTO: u8>(
                quantum: f64, eps2: f64, xi: &[[i64; 3]], j: &JSlices<'_>,
                force_scale: f64, fmt: FixedFormat, out: &mut [Force],
            ) {
                exact_body::<$ops, UPTO>(quantum, eps2, xi, j, force_scale, fmt, out)
            }
        )+};
    }
    exact_entries! {
        block_exact: Avx2Ops, "avx2";
        block_exact_vl: VlOps, "avx2,fma,avx512f,avx512dq,avx512vl";
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn xor4(v: [__m256d; 4]) -> __m256d {
        _mm256_xor_pd(_mm256_xor_pd(v[0], v[1]), _mm256_xor_pd(v[2], v[3]))
    }

    /// The lanes of the LNS stages: `W` × i32 in one register, the same
    /// register read as `W / 2` × i64 at the coordinate and the decoder
    /// end (the `…64` methods). `__m256i` is the AVX2 instantiation,
    /// `__m512i` the AVX-512 (F, BW, DQ, VL) one; method for method the
    /// two are the same function of each lane, which is all the
    /// bit-identity of the two widths rests on: the stage code over them
    /// ([`LnsCtx`]) exists once. Written as a table — the declaration,
    /// then the `__m256i` and the `__m512i` body — so each pair can be
    /// read side by side.
    ///
    /// # Safety
    /// Every method executes its implementor's instructions, which the
    /// CPU must have; one that takes a pointer says what it reads. The
    /// implementations are `#[inline(always)]` and carry no
    /// `#[target_feature]`, like the bodies written over them: the
    /// intrinsics become instructions, not calls, once all of it is
    /// inlined into a `#[target_feature]` entry ([`block_lns`],
    /// [`block_lns16`]).
    macro_rules! lns_lanes {
        ($($(#[$doc:meta])* fn $name:ident$(<const $n:ident: i32>)?($($arg:tt)*) -> $ret:ty
            { $on8:expr, $on16:expr })+) => {
            pub(super) trait LnsLane: Copy {
                /// j-particles per group.
                const W: usize;
                $($(#[$doc])* unsafe fn $name$(<const $n: i32>)?($($arg)*) -> $ret;)+
            }
            impl LnsLane for __m256i {
                const W: usize = LNS_LANES;
                $(#[inline(always)] unsafe fn $name$(<const $n: i32>)?($($arg)*) -> $ret { $on8 })+
            }
            impl LnsLane for __m512i {
                const W: usize = 2 * LNS_LANES;
                $(#[inline(always)] unsafe fn $name$(<const $n: i32>)?($($arg)*) -> $ret { $on16 })+
            }
        };
    }
    lns_lanes! {
        fn splat(v: i32) -> Self { _mm256_set1_epi32(v), _mm512_set1_epi32(v) }
        fn splat64(v: i64) -> Self { _mm256_set1_epi64x(v), _mm512_set1_epi64(v) }
        /// The `W` i32 words at `p`, which must be readable.
        fn load(p: *const i32) -> Self { _mm256_loadu_si256(p.cast()), _mm512_loadu_si512(p.cast()) }
        fn add(self, b: Self) -> Self { _mm256_add_epi32(self, b), _mm512_add_epi32(self, b) }
        fn sub(self, b: Self) -> Self { _mm256_sub_epi32(self, b), _mm512_sub_epi32(self, b) }
        fn min(self, b: Self) -> Self { _mm256_min_epi32(self, b), _mm512_min_epi32(self, b) }
        fn max(self, b: Self) -> Self { _mm256_max_epi32(self, b), _mm512_max_epi32(self, b) }
        /// Unsigned minimum.
        fn min_u(self, b: Self) -> Self { _mm256_min_epu32(self, b), _mm512_min_epu32(self, b) }
        fn abs(self) -> Self { _mm256_abs_epi32(self), _mm512_abs_epi32(self) }
        fn and(self, b: Self) -> Self { _mm256_and_si256(self, b), _mm512_and_si512(self, b) }
        fn or(self, b: Self) -> Self { _mm256_or_si256(self, b), _mm512_or_si512(self, b) }
        fn xor(self, b: Self) -> Self { _mm256_xor_si256(self, b), _mm512_xor_si512(self, b) }
        /// (The 512-bit immediate shifts take a `u32`: these pass theirs
        /// as a count, which folds to the same instruction.)
        fn srli<const N: i32>(self) -> Self
            { _mm256_srli_epi32::<N>(self), _mm512_srl_epi32(self, _mm_cvtsi32_si128(N)) }
        fn srai<const N: i32>(self) -> Self
            { _mm256_srai_epi32::<N>(self), _mm512_sra_epi32(self, _mm_cvtsi32_si128(N)) }
        fn slli<const N: i32>(self) -> Self
            { _mm256_slli_epi32::<N>(self), _mm512_sll_epi32(self, _mm_cvtsi32_si128(N)) }
        /// Logical right shift of every lane by the count in `n`.
        fn srl(self, n: __m128i) -> Self { _mm256_srl_epi32(self, n), _mm512_srl_epi32(self, n) }
        /// Left shift of every i64 lane by the count in `n`.
        fn sll64(self, n: __m128i) -> Self { _mm256_sll_epi64(self, n), _mm512_sll_epi64(self, n) }
        /// `base[idx]` per lane; every index must be inside the table.
        fn gather(base: *const i32, idx: Self) -> Self
            { _mm256_i32gather_epi32::<4>(base, idx), _mm512_i32gather_epi32::<4>(idx, base) }
        fn gather64(base: *const i64, idx: Self) -> Self
            { _mm256_i64gather_epi64::<8>(base, idx), _mm512_i64gather_epi64::<8>(idx, base) }
        /// `then` in the lanes where `a < b`, `self` elsewhere: a blend
        /// on the compare's lanes, a move under its `k` mask.
        fn if_lt(self, a: Self, b: Self, then: Self) -> Self {
            _mm256_blendv_epi8(self, then, _mm256_cmpgt_epi32(b, a)),
            _mm512_mask_mov_epi32(self, _mm512_cmplt_epi32_mask(a, b), then)
        }
        /// Is `self < b` in any lane?
        fn any_lt(self, b: Self) -> bool {
            _mm256_movemask_epi8(_mm256_cmpgt_epi32(b, self)) != 0,
            _mm512_cmplt_epi32_mask(self, b) != 0
        }
        /// `−self`, zero or `self` as `s` is negative, zero or positive:
        /// `vpsignd`, or negate under the sign mask and keep under the
        /// non-zero one.
        fn neg_by_sign(self, s: Self) -> Self {
            _mm256_sign_epi32(self, s),
            _mm512_maskz_mov_epi32(
                _mm512_test_epi32_mask(s, s),
                _mm512_mask_sub_epi32(self, _mm512_movepi32_mask(s), _mm512_setzero_si512(), self),
            )
        }
        /// Folded to 256 bits, for [`Columns::sink`].
        fn folded(self) -> __m256i {
            self,
            _mm256_xor_si256(_mm512_castsi512_si256(self), _mm512_extracti64x4_epi64::<1>(self))
        }
        /// The dwords zero-extended to i64 lanes: `[low half, high half]`.
        fn widen(self) -> [Self; 2] {
            [_mm256_cvtepu32_epi64(_mm256_castsi256_si128(self)),
             _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(self))],
            [_mm512_cvtepu32_epi64(_mm512_castsi512_si256(self)),
             _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(self))]
        }
        /// The i64 lanes as doubles, four at a time, in lane order (past
        /// `W / 8` quarters: junk).
        fn quarters(self) -> [__m256d; 2] {
            [_mm256_castsi256_pd(self); 2],
            [_mm256_castsi256_pd(_mm512_castsi512_si256(self)),
             _mm256_castsi256_pd(_mm512_extracti64x4_epi64::<1>(self))]
        }
        /// Fixed-point subtract and the log converter's input: the f64
        /// bits of `(p[l] − x) · q` for the `W` i64 words at `p`
        /// (readable; every difference inside the magic window), as
        /// `[low dword of bits >> enc_shift, high dword of bits]`.
        fn bits(p: *const i64, x: i64, q: f64, enc_shift: __m128i) -> [Self; 2] {
            {
                // per half of four: f64 bits by the magic shifter, then
                // [bits >> enc_shift | high dword] packed so one dword
                // permute (even dwords low, odd high) separates the two
                let (xv, qv) = (_mm256_set1_epi64x(x), _mm256_set1_pd(q));
                let sorted = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
                let da = _mm256_sub_epi64(_mm256_loadu_si256(p.cast()), xv);
                let db = _mm256_sub_epi64(_mm256_loadu_si256(p.add(4).cast()), xv);
                let a = _mm256_castpd_si256(_mm256_mul_pd(i64x4_to_f64(da), qv));
                let b = _mm256_castpd_si256(_mm256_mul_pd(i64x4_to_f64(db), qv));
                let pa = _mm256_blend_epi32::<0b1010_1010>(_mm256_srl_epi64(a, enc_shift), a);
                let pb = _mm256_blend_epi32::<0b1010_1010>(_mm256_srl_epi64(b, enc_shift), b);
                let pa = _mm256_permutevar8x32_epi32(pa, sorted);
                let pb = _mm256_permutevar8x32_epi32(pb, sorted);
                [_mm256_permute2x128_si256::<0x20>(pa, pb), _mm256_permute2x128_si256::<0x31>(pa, pb)]
            },
            {
                // per half of eight: `vcvtqq2pd`, exact wherever the
                // shifter is; one `vpermt2d` per output packs both halves
                let (xv, qv) = (_mm512_set1_epi64(x), _mm512_set1_pd(q));
                let da = _mm512_sub_epi64(_mm512_loadu_si512(p.cast()), xv);
                let db = _mm512_sub_epi64(_mm512_loadu_si512(p.add(8).cast()), xv);
                let a = _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtepi64_pd(da), qv));
                let b = _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtepi64_pd(db), qv));
                let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
                let odd = _mm512_or_si512(even, _mm512_set1_epi32(1));
                let (lo_a, lo_b) = (_mm512_srl_epi64(a, enc_shift), _mm512_srl_epi64(b, enc_shift));
                [_mm512_permutex2var_epi32(lo_a, even, lo_b), _mm512_permutex2var_epi32(a, odd, b)]
            }
        }
    }

    /// Hoisted per-call state of the LNS kernel on `L`-wide groups: the
    /// constants of the integer stages and the fixed-point back end.
    ///
    /// Invariant, set up by [`LnsCtx::new`]: `cells`, `sb` and `dec`
    /// point at the `'static` ROM images of one `LnsLanes`, and
    /// `cell_mask`, `sb_last` and `frac_mask` are each at most the last
    /// index of their table — a gather whose indices went through that
    /// mask (or unsigned min) reads inside the table whatever they were.
    pub(super) struct LnsCtx<'a, L: LnsLane> {
        lanes: &'a LnsLanes,
        j: &'a JSlices<'a>,
        acc: AccCtx,
        sa: ScalarAcc,
        enc_shift: __m128i,
        /// `20 − f`: moves the f64 exponent field down to `eb << f`.
        exp_shift: __m128i,
        /// `52 − f`: moves a decoder word's exponent field up to bit 52.
        dec_shift: __m128i,
        cell_mask: L,
        bias: L,
        rmin: L,
        rmax: L,
        zero_word: L,
        sb_last: L,
        eps2: L,
        frac_mask: L,
        exp_mask: L,
        cells: *const i32,
        sb: *const i32,
        dec: *const i64,
    }

    /// One (i-particle, j-span) of the LNS kernel: the span's coordinate
    /// and mass-word columns and the i-particle's words.
    struct LnsSpan<'a> {
        x: [&'a [i64]; 3],
        w: &'a [i32],
        xi: [i64; 3],
    }

    /// # Safety
    /// Every method needs `L`'s CPU features and AVX2; those that read
    /// j-memory say what else. They are `#[inline(always)]` bodies with
    /// no closure in them — a closure would be a function of its own,
    /// compiled without the entry's target features ([`LnsLane`]).
    impl<'a, L: LnsLane> LnsCtx<'a, L> {
        #[inline(always)]
        pub(super) unsafe fn new(
            c: &'a LnsLanes,
            j: &'a JSlices<'a>,
            force_scale: f64,
            fmt: FixedFormat,
        ) -> Self {
            let r = &c.roms;
            let f = r.frac_bits as i32;
            let frac_mask = (1i64 << f) - 1;
            // the struct invariant (`LnsLanes::new` asserts exact sizes)
            debug_assert!(((2usize << f) - 1) < r.enc_cells.len(), "cell_mask past enc_cells");
            debug_assert!(!r.sb.is_empty() && r.sb.len() <= i32::MAX as usize, "sb_last past sb");
            debug_assert!((frac_mask as usize) < r.dec_frac.len(), "frac_mask past dec_frac");
            LnsCtx {
                lanes: c,
                j,
                acc: AccCtx::new(fmt, force_scale),
                sa: ScalarAcc::new(fmt, force_scale),
                enc_shift: _mm_cvtsi32_si128(r.enc_shift as i32),
                exp_shift: _mm_cvtsi32_si128(20 - f),
                dec_shift: _mm_cvtsi32_si128(52 - f),
                cell_mask: L::splat((2 << f) - 1),
                bias: L::splat(r.word_bias()),
                rmin: L::splat(r.raw_min),
                rmax: L::splat(r.raw_max),
                zero_word: L::splat(ZERO_WORD),
                sb_last: L::splat(r.sb.len() as i32 - 1),
                eps2: L::splat(c.eps2_word),
                frac_mask: L::splat64(frac_mask),
                exp_mask: L::splat64(0x7fff_ffff & !frac_mask),
                cells: r.enc_cells.as_ptr().cast(),
                sb: r.sb.as_ptr(),
                dec: r.dec_frac.as_ptr().cast(),
            }
        }

        /// Fixed-point subtract and log-converter ROM for one coordinate
        /// of the `L::W` j-particles at `p` (readable; every
        /// displacement from `x` inside the magic-conversion window):
        /// the canonical core words, the displacement signs (bit 31; the
        /// lower bits are junk), and the mantissa's distance from the
        /// cell's breakpoint — below 2 the lane asks for a redo.
        #[inline(always)]
        pub(super) unsafe fn encode(&self, p: *const i64, x: i64) -> [L; 3] {
            let [v, hi] = L::bits(p, x, self.lanes.quantum, self.enc_shift);
            // SAFETY: cell gather; index masked to the table's 2^(f+1)
            // entries (the `LnsCtx` invariant)
            let cell = L::gather(self.cells, v.srli::<18>().and(self.cell_mask));
            let o = v.and(L::splat((1 << 18) - 1)).add(L::splat(1));
            let diff = o.sub(cell.and(L::splat((1 << 19) - 1)));
            let k = cell.srli::<19>().add(diff.srai::<31>());
            let ebf = hi.and(L::splat(0x7ff0_0000)).srl(self.exp_shift);
            [self.canon(ebf.add(k).sub(self.bias)), hi, diff.abs()]
        }

        /// Range rules of a functional unit: `< raw_min` ⇒ zero word,
        /// clamp at `raw_max`.
        #[inline(always)]
        unsafe fn canon(&self, r: L) -> L {
            r.min(self.rmax).if_lt(r, self.rmin, self.zero_word)
        }

        /// Same-sign LNS add.
        #[inline(always)]
        unsafe fn add(&self, a: L, b: L) -> L {
            let hi = a.max(b);
            // SAFETY: unsigned min — whatever the difference holds, the
            // index is at most `sb_last`, inside the table (the `LnsCtx`
            // invariant)
            let k = L::gather(self.sb, hi.sub(a.min(b)).min_u(self.sb_last));
            hi.add(k).min(self.rmax)
        }

        /// A product word rebased for the decoder (0 for zero).
        #[inline(always)]
        unsafe fn out_word(&self, s: L) -> L {
            s.min(self.rmax).add(self.bias).if_lt(s, self.rmin, L::splat(0))
        }

        /// Antilog ROM on the decoder words of a group's four components:
        /// the terms `[fx, fy, fz, pot]` of its `W / 4` quarters of four
        /// j-particles each, ascending (the quarters past those: junk).
        #[inline(always)]
        #[allow(clippy::needless_range_loop)]
        unsafe fn decode(&self, w: [L; 4]) -> [[__m256d; 4]; 4] {
            let mut t = [[_mm256_setzero_pd(); 4]; 4];
            for c in 0..4 {
                let halves = w[c].widen();
                for h in 0..2 {
                    let w = halves[h];
                    // SAFETY: index masked to the table's 2^f entries
                    // (the `LnsCtx` invariant)
                    let frac = L::gather64(self.dec, w.and(self.frac_mask));
                    let exp = w.and(self.exp_mask).sll64(self.dec_shift);
                    let sign = w.sll64(_mm_cvtsi32_si128(32)).and(L::splat64(i64::MIN));
                    let v = frac.or(exp).or(sign).quarters();
                    for q in 0..L::W / 8 {
                        t[h * (L::W / 8) + q][c] = v[q];
                    }
                }
            }
            t
        }

        /// The one stage body of the LNS kernel: `G` consecutive
        /// `L::W`-lane j-groups of span `b` from its j-particle `k` on
        /// (`k + L::W·G` inside the span), carried through the stages in
        /// lock-step (each stage runs on all `G` groups before the next
        /// starts, so one group's ROM-gather latency hides behind the
        /// other's ALU work), truncated after stage `UPTO`; the terms
        /// reach `cols` in ascending j. `false`, with nothing accumulated,
        /// when a lane of any group asks for the scalar converters.
        #[inline(always)]
        #[allow(clippy::needless_range_loop)]
        unsafe fn stages<O: AccOps, const UPTO: u8, const G: usize>(
            &self,
            b: &LnsSpan<'_>,
            k: usize,
            cols: &mut Columns<O>,
            a: &mut [i64; 4],
        ) -> bool {
            let end = k + L::W * G;
            debug_assert!(b.x.iter().all(|x| end <= x.len()) && end <= b.w.len());
            let zero = L::splat(0);
            // what a truncated prefix keeps alive (dead in the kernel)
            let mut kept = zero;
            // --- subtract + log converter: core word and sign per axis ---
            let (mut r, mut s, mut near) = ([[zero; 3]; G], [[zero; 3]; G], L::splat(i32::MAX));
            for g in 0..G {
                for c in 0..3 {
                    // SAFETY: `k + W·g + W ≤ end ≤` each column's length
                    let e = self.encode(b.x[c].as_ptr().add(k + L::W * g), b.xi[c]);
                    ([r[g][c], s[g][c]], near) = ([e[0], e[1]], near.min(e[2]));
                    kept = kept.xor(e[0].xor(e[1]));
                }
            }
            if UPTO == LnsStage::Encode as u8 {
                cols.sink(kept.xor(near).folded());
                return true;
            }
            if near.any_lt(L::splat(2)) {
                return false;
            }
            // --- squarers, r² adder, + ε² ---
            let (mut sq, mut r2e) = ([[zero; 3]; G], [zero; G]);
            for g in 0..G {
                for c in 0..3 {
                    sq[g][c] = self.canon(r[g][c].add(r[g][c]));
                }
                r2e[g] = sq[g][0];
            }
            for c in 1..=3 {
                for g in 0..G {
                    r2e[g] = self.add(r2e[g], if c < 3 { sq[g][c] } else { self.eps2 });
                }
            }
            let mut w = [[zero; 4]; G];
            for g in 0..G {
                if UPTO == LnsStage::Adder as u8 {
                    cols.sink(r2e[g].folded());
                    continue;
                }
                // --- power units: round-half-away −3r/2 and −r/2 ---
                let (ar, nr, one) = (r2e[g].abs(), zero.sub(r2e[g]), L::splat(1));
                let rinv3 = self.canon(ar.add(ar).add(ar.add(one)).srli::<1>().neg_by_sign(nr));
                let rinv = ar.add(one).srli::<1>().neg_by_sign(nr);
                // --- multipliers and signs ---
                // SAFETY: `k + W·g + W ≤ end ≤ b.w.len()` i32 words
                let mw = L::load(b.w.as_ptr().add(k + L::W * g));
                let (m, msign) = (mw.srai::<1>(), mw.slli::<31>());
                let mf = self.canon(m.add(rinv3));
                for c in 0..3 {
                    let sign = s[g][c].xor(msign).and(L::splat(i32::MIN));
                    w[g][c] = self.out_word(r[g][c].add(mf)).or(sign);
                }
                // m · rinv; `out_word` applies rinv's range rules too (a
                // zero m keeps the sum below raw_min either way). Three
                // zero words — the highest of the three below raw_min —
                // are the zero-distance guard: no potential.
                let highest = r[g][0].max(r[g][1]).max(r[g][2]);
                let wp = self.out_word(m.add(self.canon(rinv)));
                w[g][3] = wp.if_lt(highest, self.rmin, zero).or(msign);
                if UPTO == LnsStage::Scale as u8 {
                    cols.sink(w[g][0].xor(w[g][1]).xor(w[g][2].xor(w[g][3])).folded());
                }
            }
            if UPTO <= LnsStage::Scale as u8 {
                return true;
            }
            // --- antilog ROM per component, then the fixed-point
            // accumulate a quarter (four j) at a time, ascending j ---
            let mut t = [[[_mm256_setzero_pd(); 4]; 4]; G];
            for g in 0..G {
                t[g] = self.decode(w[g]);
            }
            for g in 0..G {
                for q in 0..L::W / LANES {
                    if UPTO == LnsStage::Decode as u8 {
                        cols.sink(_mm256_castpd_si256(xor4(t[g][q])));
                    } else {
                        cols.add(a, t[g][q], &self.acc);
                    }
                }
            }
            true
        }

        /// The group loop over the j-particles `k .. end` of span `b`
        /// (`end − k` a multiple of `L::W`): two groups in flight; an
        /// odd last group, and both groups of a pair with a flagged
        /// lane, go one at a time in ascending j. Returns the first
        /// group that is flagged on its own — everything before it is
        /// accumulated, nothing of it is — or `end`.
        #[inline(always)]
        unsafe fn groups<O: AccOps, const UPTO: u8>(
            &self,
            b: &LnsSpan<'_>,
            (mut k, end): (usize, usize),
            cols: &mut Columns<O>,
            a: &mut [i64; 4],
        ) -> usize {
            while k < end {
                let pair_end = (k + 2 * L::W).min(end);
                if pair_end - k == 2 * L::W && self.stages::<O, UPTO, 2>(b, k, cols, a) {
                    k = pair_end;
                }
                while k < pair_end {
                    if !self.stages::<O, UPTO, 1>(b, k, cols, a) {
                        return k;
                    }
                    k += L::W;
                }
            }
            end
        }

        /// Add the terms of the j-particles `js..je` on the i-particle
        /// at `x` to its running words `a`, truncated after stage `UPTO`
        /// (an [`LnsStage`] discriminant; `Accumulate` is the kernel).
        /// What `L` cannot decide it hands down: a lane flagged in a
        /// sixteen-lane group sends that group through the stages of
        /// `eight`, a lane flagged there sends its eight pairs through
        /// `span_pairs`, the definition; `eight` also takes the group a
        /// span has past its last sixteen. Every coordinate word of `x`
        /// and `j` must be inside `(-2⁵⁰, 2⁵⁰)`.
        #[inline(always)]
        unsafe fn span<O: AccOps, const UPTO: u8>(
            &self,
            eight: &LnsCtx<'_, __m256i>,
            a: &mut [i64; 4],
            x: [i64; 3],
            (js, je): (usize, usize),
        ) {
            let (j, pair) = (self.j, self.lanes.pair(self.j));
            // slicing bounds-checks the span; `stages` asserts every load
            let (jx, w) = ([&j.x[js..je], &j.y[js..je], &j.z[js..je]], &j.m_word[js..je]);
            let b = LnsSpan { x: jx, w, xi: x };
            let wide_end = (je - js) / L::W * L::W;
            let lanes_end = (je - js) / LNS_LANES * LNS_LANES;
            let mut cols = Columns::<O>::open(a, &self.acc);
            let mut k = 0;
            while k < lanes_end {
                if k < wide_end {
                    k = self.groups::<O, UPTO>(&b, (k, wide_end), &mut cols, a);
                }
                // the group `L` could not decide, or the one past the
                // last whole `L`: eight lanes at a time
                let narrow_end = if k < wide_end { k + L::W } else { lanes_end };
                while k < narrow_end {
                    if L::W != LNS_LANES {
                        k = eight.groups::<O, UPTO>(&b, (k, narrow_end), &mut cols, a);
                    }
                    if k < narrow_end {
                        // a lane asked for the scalar converters: the
                        // whole group goes through the definition
                        cols.flush(a);
                        span_pairs(&self.sa, a, x, j, (js + k, js + k + LNS_LANES), &pair);
                        cols.fast = self.acc.headroom(a);
                        k += LNS_LANES;
                    }
                }
            }
            cols.flush(a);
            span_pairs(&self.sa, a, x, j, (js + lanes_end, je), &pair);
        }
    }

    /// The LNS-mode block kernel at eight lanes, truncated after stage
    /// `UPTO` ([`LnsCtx::span`]).
    ///
    /// # Safety
    /// The CPU must support AVX2, and every coordinate word in `xi` and
    /// `j` must be inside `(-2⁵⁰, 2⁵⁰)` (`coords_in_magic_window`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_lns<const UPTO: u8>(
        c: &LnsLanes,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        force_scale: f64,
        fmt: FixedFormat,
        out: &mut [Force],
    ) {
        let l = LnsCtx::<__m256i>::new(c, j, force_scale, fmt);
        block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
            l.span::<Avx2Ops, UPTO>(&l, a, x, (js, je))
        });
    }

    /// [`block_lns`] at sixteen lanes, accumulating (the eight-lane
    /// retries too) on the AVX-512VL column.
    ///
    /// # Safety
    /// As for [`block_lns`], and the CPU must support FMA and AVX-512 F,
    /// BW, DQ and VL (`cpu_lanes()[1]`).
    #[target_feature(enable = "avx2,fma,avx512f,avx512bw,avx512dq,avx512vl")]
    pub(super) unsafe fn block_lns16<const UPTO: u8>(
        c: &LnsLanes,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        force_scale: f64,
        fmt: FixedFormat,
        out: &mut [Force],
    ) {
        let l = LnsCtx::<__m512i>::new(c, j, force_scale, fmt);
        let eight = LnsCtx::<__m256i>::new(c, j, force_scale, fmt);
        block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
            l.span::<VlOps, UPTO>(&eight, a, x, (js, je))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::ProcessorBoard;
    use crate::config::{ArithMode, Grape5Config};
    use crate::pipeline::JWord;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Board j-memory holding the given particles — the SoA columns
    /// (mass log words included) exactly as `load_j` lays them out.
    fn jmem(raw: &[[i64; 3]], m: &[f64]) -> ProcessorBoard {
        let cfg = Grape5Config::paper();
        let words: Vec<JWord> = raw
            .iter()
            .zip(m)
            .map(|(&raw, &m)| JWord { raw, m_lns: cfg.lns.encode(m), m })
            .collect();
        let mut board = ProcessorBoard::new(&cfg);
        board.load_j(&words);
        board
    }

    /// A lane path and, on `Avx2`, whether it runs its AVX-512 kernels
    /// (exact: the AVX-512VL op column; LNS: that and sixteen lanes).
    type Path = (LanePath, bool);
    const SCALAR: Path = (LanePath::Scalar, false);

    /// Pick the x86 path's kernels: the AVX-512 ones only where the CPU
    /// has them (the invariant of `Wide`; elsewhere a no-op).
    fn set_wide(p: &mut G5Pipeline, wide: bool) {
        p.set_wide(Wide(wide && cpu_lanes()[1]));
    }

    /// Run one block through a forced lane path.
    #[allow(clippy::too_many_arguments)]
    fn run_path(
        mode: ArithMode,
        (path, wide): Path,
        quantum: f64,
        eps: f64,
        xi: &[[i64; 3]],
        j: &ProcessorBoard,
        force_scale: f64,
        fmt: FixedFormat,
    ) -> Vec<Force> {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let mut p = G5Pipeline::new(&cfg, quantum, eps);
        p.set_lane_path(path);
        set_wide(&mut p, wide);
        let mut out = vec![Force::ZERO; xi.len()];
        p.interact_block(xi, &j.j_slices(), force_scale, fmt, &mut out);
        out
    }

    fn assert_bits_equal(a: &[Force], b: &[Force], what: &str) {
        for (i, (fa, fb)) in a.iter().zip(b).enumerate() {
            let pa = [fa.acc.x, fa.acc.y, fa.acc.z, fa.pot].map(f64::to_bits);
            let pb = [fb.acc.x, fb.acc.y, fb.acc.z, fb.pot].map(f64::to_bits);
            assert_eq!(pa, pb, "{what}: bit mismatch at i-particle {i}: {fa:?} vs {fb:?}");
        }
    }

    /// Every path must equal the scalar skeleton on this block.
    #[allow(clippy::too_many_arguments)]
    fn assert_paths_agree(
        mode: ArithMode,
        quantum: f64,
        eps: f64,
        xi: &[[i64; 3]],
        j: &ProcessorBoard,
        force_scale: f64,
        fmt: FixedFormat,
        what: &str,
    ) {
        let refr = run_path(mode, SCALAR, quantum, eps, xi, j, force_scale, fmt);
        for path in all_paths() {
            let got = run_path(mode, path, quantum, eps, xi, j, force_scale, fmt);
            assert_bits_equal(&refr, &got, &format!("{mode:?} {path:?} {what}"));
        }
    }

    const MODES: [ArithMode; 2] = [ArithMode::Exact, ArithMode::Lns];

    /// Random i-set and j-particles (raw words, masses) with some
    /// coincident-with-i, zero-mass and negative-mass entries.
    fn random_particles(
        rng: &mut ChaCha8Rng,
        ni: usize,
        nj: usize,
        span: i64,
    ) -> (Vec<[i64; 3]>, Vec<[i64; 3]>, Vec<f64>) {
        let mut coord = || rng.random_range(-span..span);
        let xi: Vec<[i64; 3]> = (0..ni).map(|_| [coord(), coord(), coord()]).collect();
        // every 17th: coincident with some i-particle (zero-distance lane)
        let jraw = (0..nj)
            .map(|k| if k % 17 == 3 && ni > 0 { xi[k % ni] } else { [coord(), coord(), coord()] })
            .collect();
        let jm = (0..nj)
            .map(|k| match k % 23 {
                7 => 0.0,
                11 => -rng.random_range(0.01f64..10.0),
                _ => rng.random_range(0.01..10.0),
            })
            .collect();
        (xi, jraw, jm)
    }

    fn random_block(
        rng: &mut ChaCha8Rng,
        ni: usize,
        nj: usize,
        span: i64,
    ) -> (Vec<[i64; 3]>, ProcessorBoard) {
        let (xi, jraw, jm) = random_particles(rng, ni, nj, span);
        (xi, jmem(&jraw, &jm))
    }

    /// Every x86 lane path this CPU runs, on each op column (none
    /// without AVX2: the skeleton is then all there is).
    fn all_paths() -> Vec<Path> {
        let [avx2, wide] = cpu_lanes();
        [(avx2, false), (wide, true)]
            .into_iter()
            .filter_map(|(has, wide)| has.then_some((LanePath::Avx2, wide)))
            .collect()
    }

    #[test]
    fn lane_paths_agree_bitwise_on_random_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let fmt = FixedFormat::new(64, 32);
        // j-counts cover remainder tails (≢ 0 mod 4, mod 8) and block edges
        for &nj in &[0usize, 1, 3, 4, 5, 7, 8, 9, 17, 301, 512, 513, 1000] {
            for &ni in &[1usize, 2, 16, 17] {
                let (xi, j) = random_block(&mut rng, ni, nj, 1 << 30);
                for mode in MODES {
                    for &(eps, fs) in &[(0.0, 1.0), (0.01, 0.25), (0.01, 1.37e-7)] {
                        let what = format!("nj={nj} ni={ni} eps={eps} fs={fs}");
                        assert_paths_agree(mode, 2e-10, eps, &xi, &j, fs, fmt, &what);
                    }
                }
            }
        }
    }

    fn p(e: i32) -> f64 {
        f64::from(e).exp2()
    }

    /// A placed term of `|f| + |pot| = 2^49` per j: column-eligible.
    fn in_window() -> f64 {
        p(48)
    }

    /// The i-set of the placed-term referees.
    const PLACED_XI: [[i64; 3]; 3] = [[0; 3], [0, 0, 2], [1, 1, 1]];

    /// Terms that leave the column accumulators' preconditions.
    fn placed_specials() -> [f64; 8] {
        [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            p(50), // just outside the encode window
            -p(50),
            p(50) - 0.125, // the largest term inside it …
            p(49) + 1.0,   // … and one only the |f| + |pot| test rejects
            -(p(49) + 0.5),
        ]
    }

    /// Every path against the scalar chain on placed terms: j-particle
    /// `k` sits one grid step up axis `k mod 3` and carries `masses[k]`.
    fn check_placed(masses: &[f64], what: &str) {
        let jraw: Vec<[i64; 3]> = (0..masses.len())
            .map(|k| {
                let mut r = [0i64; 3];
                r[k % 3] = 1;
                r
            })
            .collect();
        let j = jmem(&jraw, masses);
        for fmt in [FixedFormat::new(64, 0), FixedFormat::new(32, 0)] {
            for mode in MODES {
                let what = format!("{what} {fmt:?}");
                assert_paths_agree(mode, 1.0, 0.0, &PLACED_XI, &j, 1.0, fmt, &what);
            }
        }
    }

    #[test]
    fn saturating_terms_agree_via_encode_fallback() {
        // Huge masses push |scaled| past 2^50 (and, in LNS mode, the log
        // words to raw_max): the vector accumulate must defer to the
        // scalar encode, including format saturation.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for fmt in [FixedFormat::new(64, 32), FixedFormat::new(16, 8)] {
            let (xi, jraw, mut jm) = random_particles(&mut rng, 5, 37, 1 << 20);
            jm.iter_mut().step_by(3).for_each(|m| *m *= 1e30);
            let j = jmem(&jraw, &jm);
            for mode in MODES {
                assert_paths_agree(mode, 1e-6, 0.001, &xi, &j, 1.0, fmt, &format!("fmt={fmt:?}"));
            }
        }

        // Placed terms. With quantum 1, eps 0, unit force scale and no
        // fraction bits, a j-particle one grid step up an axis from the
        // i-particle at the origin, with mass m, adds exactly m to that
        // component and m to the potential (the LNS kernels see its
        // log-rounded twin; the other i-particles see it obliquely).
        // That steers the ordered saturating chain — the scalar path —
        // at will, and the column accumulators must reproduce it
        // wherever a term or the running word leaves their
        // preconditions (`check_placed`).
        let (xi, in_window) = (PLACED_XI, in_window());
        let (specials, check) = (placed_specials(), check_placed);
        for tail in 0..=7 {
            // a special term first / mid / last in a 512-j span (and
            // somewhere in the tail, past the last whole group)
            for (s, &special) in specials.iter().enumerate() {
                for at in [0, 255, 511] {
                    let mut m: Vec<f64> = (0..512 + tail)
                        .map(|k| in_window * rng.random_range(-1.0..1.0) * f64::from(k % 5 != 0))
                        .collect();
                    m[at] = special;
                    if tail > 0 {
                        m[512 + (s + at) % tail] = special;
                    }
                    check(&m, &format!("special {special:e} at {at}, tail {tail}"));
                }
            }
            for sign in [1.0, -1.0] {
                // span 0 leaves x a step from the headroom line and the
                // potential within 2^52 of the range end, neither
                // saturated, so span 1 must start on the slow path: its
                // in-window terms saturate the potential, then walk it
                // back
                let mut m = vec![0.0; 1024 + tail];
                (0..21).step_by(3).for_each(|k| m[k] = sign * p(60));
                m[22] = sign * (p(60) - p(52));
                m[512..768].fill(sign * in_window);
                m[768..].fill(-sign * in_window);
                check(&m, &format!("preloaded, sign {sign}, tail {tail}"));
                // one span: starts with headroom; a mid-span term takes
                // it away without saturating (flush, ordered add,
                // headroom gone); what follows saturates the potential
                // some hundred terms later and walks it back
                let mut m = vec![sign * in_window; 512 + tail];
                m[200] = sign * (p(63) - p(57));
                m[400..].fill(-sign * in_window);
                check(&m, &format!("headroom lost mid-span, sign {sign}, tail {tail}"));
            }
        }

        // The LNS kernel's other way out of the columns: a group
        // re-run through the scalar converters. With the quantum on an
        // encoder breakpoint a unit displacement is flagged; its mass
        // puts the potential a few log steps under the range end, and
        // the unflagged groups after it (displacement 3) saturate it.
        let f = Grape5Config::paper().lns.frac_bits;
        let q = (0.5 / f64::from(1u32 << f)).exp2();
        let mut jraw = vec![[3i64, 0, 0]; 512];
        let mut m = vec![0.9 * 3.0 * p(49); 512];
        jraw[40] = [1, 0, 0];
        m[40] = p(63) * (-2.0 / f64::from(1u32 << f)).exp2();
        m[300..].iter_mut().for_each(|m| *m = -*m);
        let j = jmem(&jraw, &m);
        for mode in MODES {
            let fmt = FixedFormat::new(64, 0);
            assert_paths_agree(mode, q, 0.0, &xi, &j, 1.0, fmt, "headroom lost in a redo group");
        }
    }

    /// The AVX2 LNS kernel keeps two groups of 8 or 16 lanes (a pair,
    /// 16 or 32 j) in flight: every j-count to 70 — both sides of 8, 16,
    /// 32, 48 and 64 — puts zero to two whole pairs, an odd last group,
    /// the eight past the last sixteen and every scalar tail behind a
    /// `J_BLOCK` edge and at the start of a span.
    #[test]
    fn lane_paths_agree_on_every_pair_boundary() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a1e);
        for (base, t) in [0, J_BLOCK].into_iter().flat_map(|b| (0..=70).map(move |t| (b, t))) {
            let (xi, j) = random_block(&mut rng, 3, base + t, 1 << 30);
            for fmt in [FixedFormat::new(64, 32), FixedFormat::new(32, 16)] {
                for mode in MODES {
                    let what = format!("nj = {base} + {t}, {fmt:?}");
                    assert_paths_agree(mode, 2e-10, 0.01, &xi, &j, 0.25, fmt, &what);
                }
            }
        }
    }

    /// Redo lanes (a unit displacement, up each axis in turn, with the
    /// quantum on an encoder breakpoint; displacement 3 is not flagged)
    /// in each of the 32 lanes an in-flight pair can have — the first
    /// group of the pair, the second, at 8 lanes and at 16 — and in
    /// two groups at once. Seen from the i-particle at the origin the
    /// first flagged j (mass 2⁶⁴) saturates the potential and a second
    /// one (−2⁶²) walks it back; a flagged group of eight is otherwise
    /// four in-window terms up and four down, like every group before
    /// the pair; the rest of the pair only pulls down, the 32 j after it
    /// push into the clamp again, the rest pull down. So a fallback
    /// that drops a group of the pair, swaps two, or leaves the columns
    /// `fast` after one, ends on a different word.
    #[test]
    fn redo_lanes_in_either_group_of_a_pair_agree() {
        let f = Grape5Config::paper().lns.frac_bits;
        let q = (0.5 / f64::from(1u32 << f)).exp2();
        let term = 0.9 * 3.0 * p(49);
        let singles: Vec<Vec<usize>> = (0..32).map(|at| vec![at]).collect();
        let several = [vec![3, 8 + 5], vec![7, 8], vec![0, 15], vec![15, 16], vec![3, 16 + 5]];
        // pair 1 of the first span; pair 0 of the second; the last
        // whole pair before an odd sixteen, an eight and a tail
        for (base, nj) in [(32, 512), (J_BLOCK, 2 * J_BLOCK), (64, 64 + 32 + 16 + 8 + 5)] {
            for (n, flagged) in singles.iter().chain(&several).enumerate() {
                let in_flagged_group = |k: usize| flagged.iter().any(|at| (base + at) / 8 == k / 8);
                let mut unit = [0i64; 3];
                unit[n % 3] = 1;
                let mut jraw = vec![[3i64, 0, 0]; nj];
                let mut m: Vec<f64> = (0..nj)
                    .map(|k| {
                        if k < base || in_flagged_group(k) {
                            [term, -term][k % 8 / 4]
                        } else if (base + 32..base + 64).contains(&k) {
                            term
                        } else {
                            -term
                        }
                    })
                    .collect();
                for (n, &at) in flagged.iter().enumerate() {
                    jraw[base + at] = unit;
                    m[base + at] = if n == 0 { p(64) } else { -p(62) };
                }
                let j = jmem(&jraw, &m);
                for fmt in [FixedFormat::new(64, 0), FixedFormat::new(32, 0)] {
                    for mode in MODES {
                        let what = format!("redo lanes {flagged:?} of the pair at {base}, {fmt:?}");
                        assert_paths_agree(mode, q, 0.0, &PLACED_XI, &j, 1.0, fmt, &what);
                    }
                }
            }
        }
    }

    /// The placed-term referees of the column accumulators
    /// (`saturating_terms_agree_via_encode_fallback`) at the positions
    /// an in-flight pair brings, at either width: a term outside the
    /// columns' preconditions in each of a pair's 32 lanes (the lane
    /// picks the axis), and headroom lost on the last j of one group or
    /// quarter or the first of the next.
    #[test]
    fn placed_terms_in_the_second_group_of_a_pair_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let in_window = in_window();
        for tail in [0, 5] {
            for special in placed_specials() {
                for at in (0..32).chain([32 * 7 + 9, 32 * 7 + 25, 32 * 15 + 28]) {
                    // a second span of a pair, an odd sixteen and an eight
                    let mut m: Vec<f64> = (0..512 + 32 + 16 + 8 + tail)
                        .map(|k| in_window * rng.random_range(-1.0..1.0) * f64::from(k % 5 != 0))
                        .collect();
                    m[at] = special;
                    m[512 + 32 + at % 16] = special; // in the odd last sixteen …
                    m[512 + 48 + at % 8] = special; // … and in the eight past it
                    check_placed(&m, &format!("special {special:e} at {at}, tail {tail}"));
                }
            }
            for sign in [1.0, -1.0] {
                // headroom goes without saturating; what follows — the
                // rest of the pair first — saturates the potential on
                // the ordered path and walks it back
                for at in [7, 8, 15, 16, 19, 20, 31].map(|l| 32 * 6 + l) {
                    let mut m = vec![sign * in_window; 512 + tail];
                    m[at] = sign * (p(63) - p(57));
                    m[400..].fill(-sign * in_window);
                    check_placed(&m, &format!("headroom lost at {at}, sign {sign}, tail {tail}"));
                }
            }
        }
    }

    /// The AVX2 exact kernel runs the front of group `g + D` beside the
    /// back of group `g` through a `D`-slot ring: j-counts of `4·g + t`
    /// put spans shorter than the ring, exactly one ring, a ring and a
    /// bit, and every scalar tail at the start of a call and behind a
    /// `J_BLOCK` edge; 15 / 16 / 17 / 33 i-particles end a tile short,
    /// full, and start further ones, so the per-(tile, block) `f64`
    /// image is rebuilt and reused.
    #[test]
    fn lane_paths_agree_on_every_ring_boundary() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x18);
        for base in [0, J_BLOCK] {
            for (g, t) in (0..=EXACT_DEPTH + 2).flat_map(|g| (0..=3).map(move |t| (g, t))) {
                for ni in [15, 16, 17, 33] {
                    let (xi, j) = random_block(&mut rng, ni, base + 4 * g + t, 1 << 30);
                    for fmt in [FixedFormat::new(64, 32), FixedFormat::new(32, 16)] {
                        for mode in MODES {
                            let what = format!("nj = {base} + 4·{g} + {t}, ni = {ni}, {fmt:?}");
                            assert_paths_agree(mode, 2e-10, 0.01, &xi, &j, 0.25, fmt, &what);
                        }
                    }
                }
            }
        }
    }

    /// A zero-distance pair at every lane of the first, a middle and
    /// the last group of a full span and of a short one, its j-particle
    /// duplicated on the next j (so the guard fires twice, across a
    /// group, block or tail edge) and carrying an ordinary, zero,
    /// negative or infinite mass; ε = 0 makes the guarded force lanes
    /// NaN (`0 · ∞`), ε > 0 leaves them ±0 — unless the mass is
    /// infinite. Only the potential lane is masked, so every one of
    /// these must still add nothing.
    #[test]
    fn zero_distance_pairs_agree_in_every_lane_and_group() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x2e20);
        let nj = J_BLOCK + 4 * 20 + 3;
        let groups = [0, 2, 64, 127, 128, 128 + 9, 128 + 19];
        for (group, lane) in groups.into_iter().flat_map(|g| (0..4).map(move |l| (g, l))) {
            for mass in [1.5, 0.0, -2.5, f64::INFINITY] {
                let (xi, mut jraw, mut jm) = random_particles(&mut rng, 5, nj, 1 << 30);
                let at = 4 * group + lane;
                (jraw[at], jraw[at + 1]) = (xi[2], xi[2]);
                jm[at] = mass;
                // … and a duplicated j-particle no i-particle sits on
                jraw[(at + 7) % nj] = jraw[(at + 6) % nj];
                let j = jmem(&jraw, &jm);
                for fmt in [FixedFormat::new(64, 32), FixedFormat::new(32, 16)] {
                    for (mode, eps) in MODES.into_iter().flat_map(|m| [(m, 0.0), (m, 0.01)]) {
                        let what = format!("mass {mass} at group {group} lane {lane}, {fmt:?}");
                        assert_paths_agree(mode, 2e-10, eps, &xi, &j, 0.25, fmt, &what);
                    }
                }
            }
        }
    }

    /// The placed-term referees of the column accumulators with the
    /// rejected group in each ring slot of the pipelined exact kernel,
    /// on the ring's first and second turn: when the back of group `g`
    /// flushes, adds in order and re-derives `fast`, the fronts of
    /// groups `g + 1 ..= g + D` are already in the ring, and a second
    /// rejected group among them must still come after it.
    #[test]
    fn placed_terms_in_every_ring_slot_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let in_window = in_window();
        let slots = (0..2 * EXACT_DEPTH).flat_map(|s| [4 * s, 4 * s + 3]);
        for (n, at) in slots.clone().enumerate() {
            for special in placed_specials() {
                let mut m: Vec<f64> = (0..512 + 5)
                    .map(|k| in_window * rng.random_range(-1.0..1.0) * f64::from(k % 5 != 0))
                    .collect();
                m[at] = special;
                if n % 2 == 1 {
                    m[at + 2] = -special; // the next group is rejected too
                }
                check_placed(&m, &format!("special {special:e} at {at}"));
            }
            for sign in [1.0, -1.0] {
                // headroom goes in this slot without saturating; the
                // groups already in the ring are the first to saturate
                // the potential on the ordered path, the rest walk it back
                let mut m = vec![sign * in_window; 512 + 5];
                m[at] = sign * (p(63) - p(57));
                m[400..].fill(-sign * in_window);
                check_placed(&m, &format!("headroom lost at {at}, sign {sign}"));
            }
        }
    }

    /// Four doubles as a vector.
    #[cfg(target_arch = "x86_64")]
    fn pd(x: [f64; 4]) -> std::arch::x86_64::__m256d {
        // SAFETY: both are 4 × 64 bits, any bit pattern valid.
        unsafe { std::mem::transmute::<[f64; 4], std::arch::x86_64::__m256d>(x) }
    }

    /// `round_term` of column `O`, its bias taken off.
    ///
    /// # Safety
    /// The CPU must have `O`'s features.
    #[cfg(target_arch = "x86_64")]
    unsafe fn round_term_of<O: avx2::AccOps>(x: [f64; 4]) -> [i64; 4] {
        let t = std::mem::transmute::<std::arch::x86_64::__m256i, [i64; 4]>(O::round_term(pd(x)));
        t.map(|t| t.wrapping_sub(O::BIAS))
    }

    /// `f64::round() as i64`, the definition `round_half_away`, the AVX2
    /// `round_away_to_i64` and both `round_term` columns are held to.
    fn assert_rounds_like_f64_round(xs: &[f64]) {
        for &x in xs {
            assert_eq!(round_half_away(x), x.round() as i64, "round_half_away({x:e})");
        }
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            for x4 in xs.chunks(4) {
                let mut x = [0.0; 4];
                x[..x4.len()].copy_from_slice(x4);
                let want = x.map(round_half_away);
                // SAFETY: AVX2 detected above, the VL column's features
                // by `cpu_lanes`; all four are 4 × 64 bits.
                unsafe {
                    let r = avx2::round_away_to_i64(pd(x));
                    let got = std::mem::transmute::<std::arch::x86_64::__m256i, [i64; 4]>(r);
                    assert_eq!(got, want, "round_away_to_i64({x:?})");
                    assert_eq!(round_term_of::<avx2::Avx2Ops>(x), want, "avx2 round_term({x:?})");
                    if cpu_lanes()[1] {
                        assert_eq!(round_term_of::<avx2::VlOps>(x), want, "vl round_term({x:?})");
                    }
                }
            }
        }
    }

    /// The window test of both op columns: *a pass implies every term
    /// finite and inside the encode window* — with the window's edge
    /// values, four terms that only add up to it, and NaN / ±inf in each
    /// of a group's sixteen (component, lane) positions, alone and over a
    /// background of in-window terms. Which groups a column rejects
    /// beyond that is its own business (the ordered path is exact), but
    /// a plainly in-window group must pass, or the columns are never used.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lanes_window_test_passes_only_groups_inside_the_window() {
        use avx2::{AccOps, Avx2Ops, VlOps};
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x2100);
        let lim = p(50);
        let pred_lim = f64::from_bits(lim.to_bits() - 1);
        let inside = |s: &[[f64; 4]; 4]| s.iter().flatten().all(|t| t.is_finite() && t.abs() < lim);
        // SAFETY (both closures' callers): AVX2 was detected, and the VL
        // column is only asked where `cpu_lanes()[1]`.
        let passes = |s: &[[f64; 4]; 4]| unsafe {
            let v = s.map(pd);
            [Some(Avx2Ops::in_window(v)), cpu_lanes()[1].then(|| VlOps::in_window(v))]
        };
        let check = |s: &[[f64; 4]; 4]| {
            for (col, pass) in passes(s).into_iter().enumerate() {
                assert!(pass != Some(true) || inside(s), "column {col} passed {s:?}");
            }
        };
        let specials = [
            lim,
            -lim,
            pred_lim,
            -pred_lim,
            p(51),
            p(100),
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for round in 0..200 {
            // backgrounds: empty, small, just under a quarter of the
            // window, and 2^49.9 — four of which only add up past it
            let scale = [0.0, 1.0, p(48) - 1.0, 49.9f64.exp2()][round % 4];
            let mut base = [[0.0; 4]; 4];
            for t in base.iter_mut().flatten() {
                *t = scale * if round < 4 { 1.0 } else { rng.random_range(-1.0..1.0) };
            }
            check(&base);
            for special in specials {
                for (c, l) in (0..4).flat_map(|c| (0..4).map(move |l| (c, l))) {
                    let mut s = base;
                    s[c][l] = special;
                    check(&s);
                    s[(c + 1) % 4][l] = -special; // two in one lane
                    check(&s);
                }
            }
        }
        // in-window groups every column must take: small terms, and the
        // window's last value alone in its lane
        let mut edge = [[0.0; 4]; 4];
        (edge[0][0], edge[1][1], edge[2][2], edge[3][3]) = (pred_lim, -pred_lim, pred_lim, 1.0);
        for s in [[[0.0; 4]; 4], [[1.5, -2.5, 1e-300, -0.0]; 4], [[p(47); 4]; 4], edge] {
            assert!(inside(&s));
            for (col, pass) in passes(&s).into_iter().enumerate() {
                assert_ne!(pass, Some(false), "column {col} rejected {s:?}");
            }
        }
    }

    #[test]
    fn lanes_round_half_away_matches_f64_round() {
        let lim = 50f64.exp2();
        let mut xs = vec![
            0.0,
            -0.0,
            HALF_PRED,
            0.5,
            0.5 + f64::EPSILON / 4.0,
            1.0 - f64::EPSILON / 2.0,
            1.5 - f64::EPSILON,
            f64::MIN_POSITIVE,
            5e-324,
            lim - 0.5,
            lim - 0.625,
            lim - 1.0,
            lim - 0.125,
        ];
        xs.extend((0..1 << 12).map(|k| f64::from(k) + 0.5));
        xs.extend((1..1 << 12).flat_map(|k| {
            let tie = f64::from(k) + 0.5;
            [f64::from_bits(tie.to_bits() - 1), f64::from_bits(tie.to_bits() + 1)]
        }));
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        assert_eq!(HALF_PRED.to_bits() + 1, 0.5f64.to_bits());
        assert_rounds_like_f64_round(&xs);
        // the scalar twin is `round` well past the lanes' window too
        for x in [lim, 52f64.exp2() - 0.5, 52f64.exp2() + 1.0, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(round_half_away(x), x.round() as i64, "{x:e}");
            assert_eq!(round_half_away(-x), (-x).round() as i64, "-{x:e}");
        }
    }

    proptest::proptest! {
        #[test]
        fn lanes_round_half_away_matches_f64_round_on_random_values(
            x in -1_125_899_906_842_624.0f64..1_125_899_906_842_624.0, // ±2^50
            down in 0i32..60,
        ) {
            // the value itself, the same mantissa in a lower binade,
            // and the ties and near-ties next to both
            let y = x * f64::from(-down).exp2();
            let near = |v: f64| {
                let tie = v.trunc() + 0.5f64.copysign(v);
                [v, tie, f64::from_bits(tie.to_bits() - 1), f64::from_bits(tie.to_bits() + 1)]
            };
            let xs: Vec<f64> =
                near(x).into_iter().chain(near(y)).filter(|v| v.abs() < 50f64.exp2()).collect();
            assert_rounds_like_f64_round(&xs);
        }
    }

    #[test]
    fn wide_coordinates_take_the_guard_and_agree() {
        // Raw words at ±2^60: outside the magic-conversion window, so
        // the AVX2 kernels must decline the call whole and leave it to
        // the scalar skeleton.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let fmt = FixedFormat::new(64, 32);
        let (xi, j) = random_block(&mut rng, 4, 29, 1 << 60);
        for mode in MODES {
            assert_paths_agree(mode, 1e-19, 0.0, &xi, &j, 1.0, fmt, "wide coords");
            let p = G5Pipeline::new(&Grape5Config { mode, ..Grape5Config::paper() }, 1e-19, 0.0);
            let mut out = vec![Force::ZERO; xi.len()];
            let (j, acc) = (j.j_slices(), ExactStage::Accumulate);
            assert!(!p.interact_block_exact_upto(acc, &xi, &j, 1.0, fmt, &mut out), "{mode:?}");
            let acc = LnsStage::Accumulate;
            assert!(!p.interact_block_lns_upto(acc, &xi, &j, 1.0, fmt, &mut out), "{mode:?}");
        }
    }

    #[test]
    fn lns_lanes_survive_underflow_saturation_and_ineligible_quanta() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let fmt = FixedFormat::new(64, 32);
        let (xi, j) = random_block(&mut rng, 9, 70, 1 << 20);
        let lns = Grape5Config::paper().lns;
        for (quantum, eps, in_lanes) in [
            // squares underflow (2^-600 < 2^exp_min): r² is the zero word,
            // with and without ε² to fall back on (0^-3/2 saturates)
            (300f64.exp2().recip(), 0.0, true),
            (300f64.exp2().recip(), 1e-80, true),
            // displacements saturate at raw_max
            (600f64.exp2(), 0.0, true),
            // below 2^exp_min a displacement could encode to zero, above
            // 2^900 overflow to infinity: the pipeline keeps the skeleton
            (f64::from(lns.exp_min - 1).exp2(), 0.0, false),
            (950f64.exp2(), 0.0, false),
            (f64::MIN_POSITIVE / 8.0, 0.0, false),
        ] {
            let cfg = Grape5Config { mode: ArithMode::Lns, ..Grape5Config::paper() };
            let p = G5Pipeline::new(&cfg, quantum, eps);
            assert_eq!(p.lns_lanes().is_some(), in_lanes, "quantum {quantum:e}");
            let what = format!("quantum {quantum:e} eps {eps:e}");
            assert_paths_agree(ArithMode::Lns, quantum, eps, &xi, &j, 1.0, fmt, &what);
        }
    }

    #[test]
    fn lns_guard_band_and_cell_edge_displacements_agree() {
        // quantum = 1: the displacement IS the f64, so mantissas can be
        // placed exactly — powers of two (a cell's left edge), and every
        // encoder breakpoint ± offsets inside the libm guard band
        // (2^16 ulps), inside the lane ROM's coarser redo band (2^25),
        // and outside both. The breakpoint for fraction k sits where
        // log2(1.m)·2^f crosses k − ½, located here to a few hundred ulps.
        let f = Grape5Config::paper().lns.frac_bits;
        let mut ds: Vec<i64> = (0..50).map(|e| 1i64 << e).collect();
        for k in 1..=(1u32 << f) {
            let x = ((f64::from(k) - 0.5) / f64::from(1u32 << f)).exp2();
            let bp = x.to_bits() & ((1 << 52) - 1);
            for off in [0i64, 1, -1, 40_000, -40_000, 70_000, -70_000, 1 << 26, -(1 << 26)] {
                let m = ((1u64 << 52) | bp).saturating_add_signed(off);
                ds.push((m >> 3) as i64); // a 50-bit integer with those leading bits
            }
        }
        let n = ds.len();
        let coord = |k: usize, shift: usize| match (k + shift) % 3 {
            0 => ds[k] >> 1,
            1 => -(ds[(k * 7 + shift) % n] >> 1),
            _ => (k as i64 % 2001) - 1000,
        };
        let jraw: Vec<[i64; 3]> = (0..n).map(|k| [coord(k, 0), coord(k, 1), coord(k, 2)]).collect();
        let jm: Vec<f64> = (0..n).map(|k| 0.5 + k as f64 * 1e-3).collect();
        let j = jmem(&jraw, &jm);
        let xi = [[0i64, 0, 0], [1, -1, 2]];
        for fmt in [FixedFormat::new(64, 32), FixedFormat::new(32, 16)] {
            assert_paths_agree(ArithMode::Lns, 1.0, 0.0, &xi, &j, 1.0, fmt, "placed mantissas");
            assert_paths_agree(ArithMode::Lns, 1.0, 3.0, &xi, &j, 0.5, fmt, "placed mantissas");
        }
    }

    /// The lanes of `v` as words (i32 lanes; i64 lanes read as two).
    #[cfg(target_arch = "x86_64")]
    unsafe fn words<L: avx2::LnsLane>(v: L) -> Vec<i32> {
        let mut w = [0i32; 16];
        w.as_mut_ptr().cast::<L>().write_unaligned(v);
        w[..L::W].to_vec()
    }

    #[cfg(target_arch = "x86_64")]
    const BITS: usize = 20;

    /// [`LnsLane`](avx2::LnsLane) method number `op` on the first
    /// `L::W` lanes of the operands (`None` past the last method). Gather
    /// indices are masked into `rom`; `q` and the shift counts are fixed.
    ///
    /// # Safety
    /// The CPU must have `L`'s features; each operand holds `L::W` words,
    /// `d` as many `|d| < 2⁵¹`, and `rom` 256 entries.
    #[cfg(target_arch = "x86_64")]
    unsafe fn lane_op<L: avx2::LnsLane>(
        op: usize,
        [a, b, c]: [&[i32]; 3],
        d: &[i64],
        rom: (&[i32], &[i64]),
    ) -> Option<Vec<i32>> {
        use std::arch::x86_64::{_mm256_castpd_si256, _mm_cvtsi32_si128};
        let [x, y, z] = [a, b, c].map(|v| L::load(v.as_ptr()));
        let n = _mm_cvtsi32_si128(7);
        let one = |v: L| Some(words(v));
        let two = |[u, v]: [L; 2]| Some([words(u), words(v)].concat());
        match op {
            0 => one(x.add(y)),
            1 => one(x.sub(y)),
            2 => one(x.min(y)),
            3 => one(x.max(y)),
            4 => one(x.min_u(y)),
            5 => one(x.abs()),
            6 => one(x.and(y)),
            7 => one(x.or(y)),
            8 => one(x.xor(y)),
            9 => one(x.srli::<5>()),
            10 => one(x.srai::<5>()),
            11 => one(x.slli::<5>()),
            12 => one(x.srl(n)),
            13 => one(x.sll64(n)),
            14 => one(L::gather(rom.0.as_ptr(), x.and(L::splat(255)))),
            15 => one(L::gather64(rom.1.as_ptr(), x.and(L::splat64(255)))),
            16 => one(x.if_lt(y, z, L::splat(-7))),
            17 => one(x.neg_by_sign(y)),
            18 => one(L::splat(0x1234_5678).xor(L::splat64(0x0123_4567_89ab_cdef))),
            19 => two(x.widen()),
            BITS => two(L::bits(d.as_ptr(), 12_345, 0.75, n)),
            21 => Some(
                (x.quarters()[..L::W / 8].iter())
                    .flat_map(|&q| words(_mm256_castpd_si256(q))[..8].to_vec())
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Every method of the sixteen-lane instantiation is the eight-lane
    /// method on each half — the whole of what the width referees above
    /// take on trust from the lane trait — on operands salted with
    /// zeros, extremes and equal pairs (a sign operand of zero, a compare
    /// of equals); and the two reductions are the reductions of the halves.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sixteen_lane_methods_are_the_eight_lane_methods_on_each_half() {
        use avx2::LnsLane;
        use std::arch::x86_64::{__m256i, __m512i};
        if !cpu_lanes()[1] {
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x512);
        let rom: (Vec<i32>, Vec<i64>) =
            ((0..256).map(|_| rng.random()).collect(), (0..256).map(|_| rng.random()).collect());
        for round in 0..4000 {
            let mut word = |k: usize| match (rng.random_range(0..10), k) {
                (0, _) => 0,
                (1, _) => [i32::MIN, i32::MAX, -1, 1][k % 4],
                (2, _) => k as i32 / 3, // equal across operands
                _ => rng.random::<i32>() >> rng.random_range(0..32),
            };
            let ops: [Vec<i32>; 3] = std::array::from_fn(|_| (0..16).map(&mut word).collect());
            let d: Vec<i64> =
                (0..16).map(|_| rng.random_range(-(1i64 << 50)..1 << 50) >> (round % 50)).collect();
            let half = |h: usize| [0, 1, 2].map(|o| &ops[o][8 * h..][..8]);
            let whole = [0, 1, 2].map(|o| &ops[o][..]);
            let rom = (&rom.0[..], &rom.1[..]);
            // SAFETY: AVX-512 F/BW/DQ/VL and AVX2 detected above; sixteen
            // words per operand, |d| < 2^50, 256-entry tables.
            unsafe {
                for op in 0.. {
                    let Some(wide) = lane_op::<__m512i>(op, whole, &d, rom) else { break };
                    let lo = lane_op::<__m256i>(op, half(0), &d[..8], rom).unwrap();
                    let hi = lane_op::<__m256i>(op, half(1), &d[8..], rom).unwrap();
                    // `bits` returns two registers, each the halves' in turn
                    let want = match op {
                        BITS => [&lo[..8], &hi[..8], &lo[8..], &hi[8..]].concat(),
                        _ => [lo, hi].concat(),
                    };
                    assert_eq!(wide, want, "method {op}, operands {ops:?} {d:?}");
                }
                let (x, y) = (<__m512i as LnsLane>::load(whole[0].as_ptr()), whole[1]);
                let halves = [0, 1].map(|h| <__m256i as LnsLane>::load(half(h)[0].as_ptr()));
                let y8 = [0, 1].map(|h| <__m256i as LnsLane>::load(y[8 * h..].as_ptr()));
                let any = halves[0].any_lt(y8[0]) || halves[1].any_lt(y8[1]);
                assert_eq!(x.any_lt(LnsLane::load(y.as_ptr())), any, "any_lt, {ops:?}");
                assert_eq!(words(x.folded()), words(halves[0].xor(halves[1])), "folded, {ops:?}");
            }
        }
    }

    /// The vector log converter of lane type `L` on `L::W` displacements
    /// against a zero i-coordinate: `(core word, sign bit, redo)` each.
    ///
    /// # Safety
    /// The CPU must have `L`'s features, and `|d| < 2⁵¹` must hold.
    #[cfg(target_arch = "x86_64")]
    unsafe fn encode_words<L: avx2::LnsLane>(c: &LnsLanes, d: &[i64]) -> Vec<[i32; 3]> {
        assert_eq!(d.len(), L::W);
        let none = jmem(&[], &[]);
        let j = none.j_slices();
        let l = avx2::LnsCtx::<L>::new(c, &j, 1.0, FixedFormat::new(64, 32));
        let [r, s, near] = l.encode(d.as_ptr(), 0);
        let words = [r, s.srli::<31>(), near].map(|v| {
            let mut w = [0i32; 16];
            w.as_mut_ptr().cast::<L>().write_unaligned(v);
            w
        });
        (0..L::W).map(|l| [words[0][l], words[1][l], -i32::from(words[2][l] < 2)]).collect()
    }

    /// The vector log converter, at either width, against the scalar
    /// ROM lookup, word for word and flag for flag, on placed and random
    /// mantissas.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_log_converter_matches_the_scalar_rom_lookup() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        let cfg = Grape5Config { mode: ArithMode::Lns, ..Grape5Config::paper() };
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut ds: Vec<i64> = vec![0, 1, -1, 2, 3, -(1 << 50), (1 << 51) - 1, 1 - (1 << 51)];
        for k in 1..=256u32 {
            let bp = ((f64::from(k) - 0.5) / 256.0).exp2().to_bits() & ((1 << 52) - 1);
            for off in [0i64, 60_000, -60_000, 70_000, 1 << 25, -(1 << 25), 3 << 25] {
                ds.push((((1u64 << 52) | bp).saturating_add_signed(off) >> 2) as i64);
            }
        }
        ds.extend((0..4000).map(|_| rng.random_range(-(1i64 << 51) + 1..1 << 51)));
        ds.resize(ds.len().next_multiple_of(16), 5);
        let widths = if cpu_lanes()[1] { &[8, 16][..] } else { &[8] };
        for quantum in [1.0, 2e-10, 300f64.exp2().recip(), 600f64.exp2()] {
            let p = G5Pipeline::new(&cfg, quantum, 0.0);
            let c = p.lns_lanes().expect("lane-eligible pipeline");
            for &w in widths {
                let mut flagged = 0;
                for dw in ds.chunks_exact(w) {
                    // SAFETY: the features of `w` lanes were detected
                    // above; |d| < 2^51 by construction.
                    let got = unsafe {
                        match w {
                            8 => encode_words::<std::arch::x86_64::__m256i>(c, dw),
                            _ => encode_words::<std::arch::x86_64::__m512i>(c, dw),
                        }
                    };
                    for (&d, got) in dw.iter().zip(got) {
                        let bits = (d as f64 * quantum).to_bits();
                        let (raw, redo) = c.roms.encode_word(bits);
                        // the range rules: below raw_min is zero, above
                        // raw_max saturates
                        let (lo, hi) = (c.roms.raw_min, c.roms.raw_max);
                        let core = if raw < lo { ZERO_WORD } else { raw.min(hi) };
                        let want = [core, (bits >> 63) as i32, -i32::from(redo)];
                        assert_eq!(got, want, "d = {d} q = {quantum:e}, {w} lanes");
                        flagged += usize::from(redo);
                    }
                }
                // at quantum 1 the displacement is the f64, so the placed
                // mantissas land in their redo bands
                assert!(quantum != 1.0 || flagged >= 256, "flagged {flagged}");
                assert!(flagged < ds.len() / 2, "flagged {flagged}");
            }
        }
    }

    #[test]
    fn truncated_kernels_at_the_last_stage_are_the_kernels() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let fmt = FixedFormat::new(64, 32);
        let (xi, j) = random_block(&mut rng, 5, 61, 1 << 30);
        for mode in MODES {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            let mut p = G5Pipeline::new(&cfg, 2e-10, 0.01);
            let mut want = vec![Force::ZERO; xi.len()];
            p.interact_block(&xi, &j.j_slices(), 0.25, fmt, &mut want);
            let on_avx2 = p.lane_path() == LanePath::Avx2;
            for wide in [false, true] {
                set_wide(&mut p, wide);
                let mut got = vec![Force::ZERO; xi.len()];
                // the hook of the other mode declines; this mode's runs
                // every prefix, the last one being the kernel itself
                for stage in ExactStage::ALL {
                    let ran =
                        p.interact_block_exact_upto(stage, &xi, &j.j_slices(), 0.25, fmt, &mut got);
                    assert_eq!(ran, on_avx2 && mode == ArithMode::Exact, "{stage:?}");
                }
                for stage in LnsStage::ALL {
                    let ran =
                        p.interact_block_lns_upto(stage, &xi, &j.j_slices(), 0.25, fmt, &mut got);
                    assert_eq!(ran, on_avx2 && mode == ArithMode::Lns, "{stage:?}");
                }
                if on_avx2 {
                    assert_bits_equal(&want, &got, &format!("{mode:?} upto Accumulate, {wide}"));
                }
            }
        }
    }

    /// The quantizer's lane paths (`Avx2` is the definition where the
    /// CPU lacks it).
    const QUANT_PATHS: [LanePath; 2] = [LanePath::Avx2, LanePath::Scalar];

    /// Every lane path of the coordinate quantizer against the
    /// definition, word for word.
    fn assert_quantizer_matches(scaler: &RangeScaler, coords: &[f64], what: &str) {
        // the same values in every column at shifted offsets, so each
        // one meets every lane of the de-interleave; tails of 1–7
        let at = |k: usize| coords[k % coords.len()];
        for n in [coords.len() + 3, 1, 2, 3, 4, 5, 6, 7, 0] {
            let pos: Vec<Vec3> = (0..n).map(|k| Vec3::new(at(k), at(k + 1), at(k + 2))).collect();
            let want: [Vec<i64>; 3] = [
                pos.iter().map(|p| scaler.quantize(p.x)).collect(),
                pos.iter().map(|p| scaler.quantize(p.y)).collect(),
                pos.iter().map(|p| scaler.quantize(p.z)).collect(),
            ];
            for path in QUANT_PATHS {
                // poisoned columns: every word must be overwritten
                let (mut x, mut y, mut z) =
                    (vec![i64::MIN; n], vec![i64::MIN; n], vec![i64::MIN; n]);
                quantize_columns(path, scaler, &pos, [&mut x, &mut y, &mut z]);
                for (axis, (got, want)) in [x, y, z].iter().zip(&want).enumerate() {
                    if let Some(k) = (0..n).find(|&k| got[k] != want[k]) {
                        let v = [pos[k].x, pos[k].y, pos[k].z][axis];
                        panic!(
                            "{what}: {path:?}, n = {n}, axis {axis}, particle {k}: \
                             quantize({v:e}) = {} but the lane wrote {}",
                            want[k], got[k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_quantizer_matches_range_scaler_word_for_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a17);
        // 52 and 62 are past the magic window: the lane paths must take
        // the RangeScaler fallback (QuantCtx refuses them)
        for bits in [2u32, 24, 32, 50, 51, 52, 62] {
            for (min, max) in [(-1.0, 1.0), (-3.7, 12.9), (1e-300, 3e-300), (-4e15, 9e15)] {
                let s = RangeScaler::new(min, max, bits);
                assert_eq!(QuantCtx::new(&s).is_some(), bits <= 51, "bits {bits}");
                let (c, q) = (s.center(), s.quantum());
                let (lo, hi) = (s.raw_min() as f64, s.raw_max() as f64);
                let mut coords = vec![
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MAX,
                    f64::MIN,
                    c,
                    -0.0,
                    0.0,
                    f64::MIN_POSITIVE,
                    -f64::MIN_POSITIVE,
                    5e-324,
                    -5e-324,
                ];
                // scaled values placed by construction: exact ties, the
                // largest double below one half, the -0.0 quotient, and
                // the saturation edges with their neighbours
                for scaled in [
                    0.5,
                    -0.5,
                    1.5,
                    -1.5,
                    2.5,
                    -2.5,
                    1023.5,
                    -1023.5,
                    0.49999999999999994,
                    -0.49999999999999994,
                    0.5000000000000001,
                    1.0,
                    -1.0,
                    -0.0,
                    hi,
                    hi - 0.5,
                    hi - 1.0,
                    hi + 0.5,
                    hi * 2.0,
                    lo,
                    lo + 0.5,
                    lo + 1.0,
                    lo - 0.5,
                    lo * 2.0,
                ] {
                    coords.push(c + scaled * q);
                    coords.push(scaled * q); // exact when the window is centred on 0
                }
                // in-window and far-out-of-window random coordinates
                for _ in 0..400 {
                    coords.push(rng.random_range(min..max));
                    coords.push(c + (max - min) * rng.random_range(-4.0..4.0));
                }
                assert_quantizer_matches(&s, &coords, &format!("bits {bits} [{min:e}, {max:e})"));
            }
        }
    }

    #[test]
    fn lanes_quantizer_rounds_ties_away_and_saturates() {
        // the named cases, checked against literal words (not only
        // against `quantize`): window [-16, 16) on 5 bits has quantum 1
        let s = RangeScaler::new(-16.0, 16.0, 5);
        assert_eq!(s.quantum(), 1.0);
        let cases = [
            (f64::NAN, 0),
            (f64::INFINITY, 15),
            (f64::NEG_INFINITY, -16),
            (1e300, 15),
            (-1e300, -16),
            (14.5, 15),
            (14.49, 14),
            (-15.5, -16),
            (0.5, 1),
            (-0.5, -1),
            (2.5, 3),
            (-2.5, -3),
            (0.49999999999999994, 0),
            (-0.49999999999999994, 0),
            (-0.0, 0),
            (5e-324, 0),
        ];
        let pos: Vec<Vec3> = cases.iter().map(|&(v, _)| Vec3::new(v, -v, v)).collect();
        for path in QUANT_PATHS {
            let n = pos.len();
            let (mut x, mut y, mut z) = (vec![0; n], vec![0; n], vec![0; n]);
            quantize_columns(path, &s, &pos, [&mut x, &mut y, &mut z]);
            for (k, &(v, want)) in cases.iter().enumerate() {
                assert_eq!(x[k], want, "{path:?}: quantize({v:e})");
                assert_eq!(z[k], want, "{path:?}: quantize({v:e}) in z");
                assert_eq!(y[k], s.quantize(-v), "{path:?}: quantize({:e})", -v);
            }
        }
    }

    #[test]
    fn lane_path_parse_covers_every_spelling() {
        for (has_avx2, has_avx512) in [(false, false), (true, false), (true, true)] {
            let parse = |var| parse_lane_path(var, [has_avx2, has_avx512]);
            // a CPU without AVX2 runs the skeleton, whatever is asked
            let native = if has_avx2 { LanePath::Avx2 } else { LanePath::Scalar };
            assert_eq!(parse(Some("scalar")), (LanePath::Scalar, Wide(false)));
            // avx2 pins the AVX2 op column and eight lanes — in both
            // modes, it is the one boolean — and degrades without AVX2;
            // garbage (the retired "portable" among it) and unset mean
            // "detect", the wide kernels included
            assert_eq!(parse(Some("avx2")), (native, Wide(false)));
            for var in [Some("portable"), Some("AVX-512"), Some(""), None] {
                assert_eq!(parse(var), (native, Wide(has_avx512)), "{var:?}");
            }
        }
        // the wide kernels need AVX2 as well: never on the skeleton
        assert_eq!(parse_lane_path(None, [false, true]), (LanePath::Scalar, Wide(false)));
        // what this process resolved is what this CPU has, pin aside
        let pinned = matches!(std::env::var("G5_LANE_PATH").as_deref(), Ok("avx2"));
        let want = cpu_lanes()[1] && !pinned && detect_lane_path() == LanePath::Avx2;
        assert_eq!(detected().1, Wide(want));
        // and the process-wide resolution is stable
        assert_eq!(detect_lane_path(), detect_lane_path());
    }
}
