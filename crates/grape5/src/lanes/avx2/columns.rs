//! The fixed-point accumulate both x86 kernels end in: the exact
//! magic-number conversions, round-half-away, the op table of the two
//! columns (`AccOps`: AVX2 and AVX-512VL) and the column accumulators
//! (module docs, "bit-identity contract"); and the coordinate quantizer,
//! the same conversions and rounding the other way.

use crate::lanes::quantize::QuantCtx;
use crate::lanes::{scale_mode, ScaleMode, HALF_PRED, J_BLOCK, LANES};
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
pub(super) struct AccCtx {
    encv: __m256d,
    enc: f64,
    fmt: FixedFormat,
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
    pub(super) unsafe fn new(fmt: FixedFormat, force_scale: f64) -> AccCtx {
        let enc = fmt.encode_scale();
        let hmax = fmt.raw_max().saturating_sub(SPAN_HEADROOM);
        let hmin = fmt.raw_min().saturating_add(SPAN_HEADROOM);
        AccCtx {
            encv: _mm256_set1_pd(enc),
            enc,
            fmt,
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
    pub(super) fn headroom(&self, a: &[i64; 4]) -> bool {
        self.group_fast && a.iter().all(|&w| self.hmin <= w && w <= self.hmax)
    }

    /// The four component vectors in accumulator units.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn unscale(&self, f: [__m256d; 4]) -> [__m256d; 4] {
        match self.vs {
            VScale::None => f,
            VScale::Mul(iv) => f.map(|f| _mm256_mul_pd(f, iv)),
            VScale::Div(sv) => f.map(|f| _mm256_div_pd(f, sv)),
        }
    }

    /// … and times `2^frac_bits`, ready to round.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn encode(&self, v: [__m256d; 4]) -> [__m256d; 4] {
        v.map(|v| _mm256_mul_pd(v, self.encv))
    }
}

/// `v as f64`, exact for `|v| < 2⁵¹` (the coordinate guard).
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
pub(super) unsafe fn i64x4_to_f64(v: __m256i) -> __m256d {
    let shifted = _mm256_add_epi64(v, _mm256_set1_epi64x(MAGIC_BITS));
    _mm256_sub_pd(_mm256_castsi256_pd(shifted), _mm256_set1_pd(MAGIC))
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
    let rounded =
        _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(scaled, half));
    _mm256_castpd_si256(_mm256_add_pd(rounded, _mm256_set1_pd(MAGIC)))
}

/// Round half away from zero and convert to i64 — `scaled.round()
/// as i64`, bit for bit, valid for `|scaled| ≤ 2⁵⁰`.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
pub(in crate::lanes) unsafe fn round_away_to_i64(scaled: __m256d) -> __m256i {
    _mm256_sub_epi64(round_away_biased(scaled), _mm256_set1_epi64x(MAGIC_BITS))
}

/// The slow path of the accumulate and its definition: four
/// consecutive j-interactions, given as the component vectors
/// `[fx, fy, fz, pot]` (lane = j, already unscaled), through
/// `Fixed::accumulate_with_scale` one j at a time. Kept out of line,
/// away from [`Columns`], which must stay in registers; a plain
/// function with no intrinsic in it, because rustc drops
/// `#[inline(never)]` from a `#[target_feature]` one.
#[cold]
#[inline(never)]
fn add_ordered(a: &mut [i64; 4], v: [__m256d; 4], c: &AccCtx) {
    // SAFETY: four vectors of four doubles are sixteen doubles, and
    // every bit pattern is a double.
    let t = unsafe { std::mem::transmute::<[__m256d; 4], [[f64; 4]; 4]>(v) };
    for j in 0..LANES {
        for (a, t) in a.iter_mut().zip(&t) {
            *a = Fixed { raw: *a, fmt: c.fmt }.accumulate_with_scale(c.enc, t[j]).raw;
        }
    }
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
        pub(in crate::lanes) trait AccOps {
            /// What [`round_term`](AccOps::round_term) leaves on each term.
            const BIAS: i64;
            /// The zero-distance lanes of a j-group.
            type Guard: Copy;
            $($(#[$doc])* unsafe fn $name($($arg)*) -> $ret;)+
        }
        pub(in crate::lanes) struct Avx2Ops;
        pub(in crate::lanes) struct VlOps;
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
pub(super) struct Columns<O: AccOps> {
    sum: [__m256i; 4],
    /// Groups added since the last fold.
    groups: i64,
    pub(super) fast: bool,
    ops: PhantomData<O>,
}

impl<O: AccOps> Columns<O> {
    /// Start a span carried in on the running words `a`.
    #[inline(always)]
    pub(super) unsafe fn open(a: &[i64; 4], c: &AccCtx) -> Self {
        let sum = [_mm256_setzero_si256(); 4];
        Columns { sum, groups: 0, fast: c.headroom(a), ops: PhantomData }
    }

    /// Add four consecutive j-interactions, given as the component
    /// vectors `[fx, fy, fz, pot]` (lane = j), in ascending j order.
    /// A group that fails [`AccOps::in_window`] takes the slow path:
    /// fold the columns, add the group in order ([`add_ordered`]),
    /// then see whether what follows may use the columns (again).
    #[inline(always)]
    pub(super) unsafe fn add(&mut self, a: &mut [i64; 4], f: [__m256d; 4], c: &AccCtx) {
        let v = c.unscale(f);
        let s = c.encode(v);
        if self.fast && O::in_window(s) {
            self.add_in_window(s);
        } else {
            self.flush(a);
            add_ordered(a, v, c);
            self.fast = c.headroom(a);
        }
    }

    /// Add a group's scaled terms that passed [`AccOps::in_window`].
    #[inline(always)]
    unsafe fn add_in_window(&mut self, s: [__m256d; 4]) {
        for (sum, s) in self.sum.iter_mut().zip(s) {
            *sum = _mm256_add_epi64(*sum, O::round_term(s));
        }
        self.groups += 1;
    }

    /// Add a group's terms as [`AccOps::round_term`] left them.
    #[inline(always)]
    unsafe fn add_rounded(&mut self, r: [__m256i; 4]) {
        for (sum, r) in self.sum.iter_mut().zip(r) {
            *sum = _mm256_add_epi64(*sum, r);
        }
        self.groups += 1;
    }

    /// Fold the columns into the running words (one horizontal sum
    /// per component) and clear them. Must precede anything else
    /// that reads or writes `a`; after scalar work on `a`, `fast`
    /// is to be re-derived from [`AccCtx::headroom`].
    #[inline(always)]
    pub(super) unsafe fn flush(&mut self, a: &mut [i64; 4]) {
        // wrapping: the true sum is in range by the struct
        // invariant, the biased one is not
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
}

/// A pair pass's backs of four columns, from their
/// scaled terms: the a-side's `sa` into `cols`, the b-side's added to
/// the words at `p` (component `c` of j-particle `l` at `p + c·n + l`)
/// — where `sb` is `None` (equal masses) the a-side words with the
/// force words negated and the potential words the same, since
/// round-half-away is odd, else `sb`'s own. `false` when a term left
/// the encode window (with the group half added).
///
/// # Safety
/// As for [`Columns`]; `p + 3n + LANES` is inside the rows.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
pub(super) unsafe fn pair_backs<O: AccOps>(
    cols: &mut Columns<O>,
    (sa, sb): ([__m256d; 4], Option<[__m256d; 4]>),
    p: *mut i64,
    n: usize,
) -> bool {
    let window_b = match sb {
        Some(sb) => O::in_window(sb),
        None => true,
    };
    if !(O::in_window(sa) && window_b) {
        return false;
    }
    let bias = _mm256_set1_epi64x(O::BIAS);
    let mut r = [_mm256_setzero_si256(); 4];
    for c in 0..4 {
        r[c] = O::round_term(sa[c]);
    }
    cols.add_rounded(r);
    match sb {
        None => {
            for c in 0..3 {
                r[c] = _mm256_sub_epi64(bias, r[c]);
            }
            r[3] = _mm256_sub_epi64(r[3], bias);
        }
        Some(sb) => {
            for c in 0..4 {
                r[c] = _mm256_sub_epi64(O::round_term(sb[c]), bias);
            }
        }
    }
    for c in 0..4 {
        let d = p.add(c * n).cast::<__m256i>();
        _mm256_storeu_si256(d, _mm256_add_epi64(_mm256_loadu_si256(d), r[c]));
    }
    true
}

/// Fold a pair pass's a-side columns into the words at `p`, one
/// component every `n` words.
///
/// # Safety
/// As for [`Columns`]; `p + 3n` is inside the rows.
#[inline(always)]
pub(super) unsafe fn flush_to<O: AccOps>(cols: &mut Columns<O>, p: *mut i64, n: usize) {
    let mut w = [0; 4];
    cols.flush(&mut w);
    for (c, w) in w.into_iter().enumerate() {
        *p.add(c * n) = (*p.add(c * n)).wrapping_add(w);
    }
}

/// Quantize the leading particles of `pos` into the columns, four at a
/// time, on AVX2 where the CPU has it: how many it wrote (a multiple of
/// 4, or 0), for the caller to finish.
pub(in crate::lanes) fn quantize(q: &QuantCtx, pos: &[Vec3], cols: [&mut [i64]; 3]) -> usize {
    assert!(cols.iter().all(|c| c.len() == pos.len()), "ragged coordinate columns");
    if !std::is_x86_feature_detected!("avx2") {
        return 0;
    }
    // SAFETY: AVX2 was detected; the column lengths were checked above
    // and the window fits the magic conversions (`QuantCtx`).
    unsafe { quantize_columns(q, pos, cols) }
}

/// The AVX2 coordinate quantizer: four particles (three vectors of
/// the flat `x y z x …` stream) per iteration, quantized in stream
/// order and de-interleaved into the columns as 64-bit words.
/// Returns how many leading particles it wrote (a multiple of 4;
/// the caller finishes the tail).
///
/// Per lane this is `RangeScaler::quantize`,
/// word for word and branch-free: the same IEEE `vsubpd` and `vdivpd`
/// (no reciprocal) give the same `scaled`; round-half-away is
/// monotone and both bounds are integers, so rounding the *clamped*
/// value equals the definition's saturate-else-round; the exact
/// kernel's truncate-and-signed-bump `round_away_to_i64` is
/// `f64::round` there, valid because the clamped value is within
/// `±2⁵⁰`; a NaN lane is masked to the definition's 0.
///
/// # Safety
/// The CPU must support AVX2 and `x`, `y`, `z` must each hold at
/// least `pos.len()` words.
#[target_feature(enable = "avx2")]
unsafe fn quantize_columns(q: &QuantCtx, pos: &[Vec3], [x, y, z]: [&mut [i64]; 3]) -> usize {
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
        let xs = _mm256_blend_epi32::<0b0000_1100>(_mm256_blend_epi32::<0b0011_0000>(v0, v1), v2);
        let ys = _mm256_blend_epi32::<0b0011_0000>(_mm256_blend_epi32::<0b0000_1100>(v1, v0), v2);
        let zs = _mm256_blend_epi32::<0b0011_0000>(_mm256_blend_epi32::<0b0000_1100>(v2, v1), v0);
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
