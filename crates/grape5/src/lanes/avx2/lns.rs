//! The LNS-mode x86 kernels: the block kernel and the pair pass on
//! eight or sixteen i32 lanes.
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

use super::columns::{flush_to, i64x4_to_f64, pair_backs, AccCtx, AccOps, Avx2Ops, Columns, VlOps};
use crate::lanes::pairs::{count_pairs, PairScratch, MASSLESS, SELF_PAD};
use crate::lanes::{block_tiled, span_pairs, LnsLanes, ScalarAcc, Words};
use crate::lanes::{LANES, LNS_LANES, ZERO_WORD};
use crate::pipeline::JSlices;
use core::arch::x86_64::*;
use g5util::fixed::FixedFormat;

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
    /// Is `self == b` in every lane?
    fn eq_all(self, b: Self) -> bool {
        _mm256_movemask_epi8(_mm256_cmpeq_epi32(self, b)) == -1,
        _mm512_cmpneq_epi32_mask(self, b) == 0
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
#[derive(Clone, Copy)]
struct LnsSpan<'a> {
    x: [&'a [i64]; 3],
    w: &'a [i32],
    xi: [i64; 3],
}

/// The front of one `L`-wide j-group ([`LnsCtx::fronts`]): per axis
/// the core word and the displacement sign (bit 31), r⁻³ and the
/// unclamped r⁻¹ log words.
#[derive(Clone, Copy)]
struct LnsFront<L> {
    r: [L; 3],
    s: [L; 3],
    rinv3: L,
    rinv: L,
}

/// Lane numbers, for a self block's massless lanes.
static IOTA: [i32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// What became of a self block's lane groups.
enum Pass {
    Done,
    /// A lane asked for the scalar converters; nothing was added.
    Flagged,
    /// A term left the encode window: the block declines.
    Out,
}

/// The LNS pair pass's row `a` against one block's columns: the
/// points as a span from `a`'s words, `a`'s mass word, and where in
/// the words component 0 of `a`'s row-side words sits (`to_a`, each
/// further component `na` on) and of column `b`'s (`to_b + b`, each
/// further component `nb` on; `to_b` wraps below zero, the sum does
/// not).
struct PairPass<'a> {
    span: LnsSpan<'a>,
    mwa: i32,
    words: *mut i64,
    to_a: usize,
    na: usize,
    to_b: usize,
    nb: usize,
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

    /// The front of the stage body — subtract and log converter,
    /// squarers, adders and power units — on `G` consecutive
    /// `L::W`-lane j-groups of span `b` from its j-particle `k` on
    /// (`k + L::W·G` inside the span), carried through the stages in
    /// lock-step (each stage runs on all `G` groups before the next
    /// starts, so one group's ROM-gather latency hides behind the
    /// other's ALU work). `None` when a lane of any group asks for
    /// the scalar converters. Up to the displacement signs, which it
    /// keeps apart, the front of `(i, j)` is the front of `(j, i)`:
    /// `−d · quantum` is exact and the encoder reads the magnitude.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn fronts<const G: usize>(&self, b: &LnsSpan<'_>, k: usize) -> Option<[LnsFront<L>; G]> {
        let end = k + L::W * G;
        debug_assert!(b.x.iter().all(|x| end <= x.len()) && end <= b.w.len());
        let zero = L::splat(0);
        // --- subtract + log converter: core word and sign per axis ---
        let (mut r, mut s, mut near) = ([[zero; 3]; G], [[zero; 3]; G], L::splat(i32::MAX));
        for g in 0..G {
            for c in 0..3 {
                // SAFETY: `k + W·g + W ≤ end ≤` each column's length
                let e = self.encode(b.x[c].as_ptr().add(k + L::W * g), b.xi[c]);
                ([r[g][c], s[g][c]], near) = ([e[0], e[1]], near.min(e[2]));
            }
        }
        if near.any_lt(L::splat(2)) {
            return None;
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
        let mut f = [LnsFront { r: [zero; 3], s: [zero; 3], rinv3: zero, rinv: zero }; G];
        for g in 0..G {
            // --- power units: round-half-away −3r/2 and −r/2 ---
            let (ar, nr, one) = (r2e[g].abs(), zero.sub(r2e[g]), L::splat(1));
            let rinv3 = self.canon(ar.add(ar).add(ar.add(one)).srli::<1>().neg_by_sign(nr));
            let rinv = ar.add(one).srli::<1>().neg_by_sign(nr);
            f[g] = LnsFront { r: r[g], s: s[g], rinv3, rinv };
        }
        Some(f)
    }

    /// The back's multipliers and signs: a front's decoder words for
    /// the mass words `mw`, every displacement sign flipped by the
    /// sign bit of `flip` (the reverse pairs of a self block).
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn back(&self, f: &LnsFront<L>, mw: L, flip: L) -> [L; 4] {
        let (m, msign) = (mw.srai::<1>(), mw.slli::<31>());
        let mf = self.canon(m.add(f.rinv3));
        let mut w = [L::splat(0); 4];
        for c in 0..3 {
            let sign = f.s[c].xor(msign).xor(flip).and(L::splat(i32::MIN));
            w[c] = self.out_word(f.r[c].add(mf)).or(sign);
        }
        // m · rinv; `out_word` applies rinv's range rules too (a
        // zero m keeps the sum below raw_min either way). Three
        // zero words — the highest of the three below raw_min —
        // are the zero-distance guard: no potential.
        let highest = f.r[0].max(f.r[1]).max(f.r[2]);
        let wp = self.out_word(m.add(self.canon(f.rinv)));
        w[3] = wp.if_lt(highest, self.rmin, L::splat(0)).or(msign);
        w
    }

    /// The one stage body of the LNS kernel: [`fronts`](Self::fronts)
    /// of `G` groups, their backs on the span's mass words, the
    /// antilog ROM, and the terms into `cols` in ascending j.
    /// `false`, with nothing accumulated, when a lane of any group
    /// asks for the scalar converters.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn stages<O: AccOps, const G: usize>(
        &self,
        b: &LnsSpan<'_>,
        k: usize,
        cols: &mut Columns<O>,
        a: &mut [i64; 4],
    ) -> bool {
        let Some(f) = self.fronts::<G>(b, k) else {
            return false;
        };
        let zero = L::splat(0);
        let mut w = [[zero; 4]; G];
        for g in 0..G {
            // SAFETY: `k + W·g + W ≤ end ≤ b.w.len()` i32 words
            let mw = L::load(b.w.as_ptr().add(k + L::W * g));
            w[g] = self.back(&f[g], mw, zero);
        }
        // --- antilog ROM per component, then the fixed-point
        // accumulate a quarter (four j) at a time, ascending j ---
        let mut t = [[[_mm256_setzero_pd(); 4]; 4]; G];
        for g in 0..G {
            t[g] = self.decode(w[g]);
        }
        for g in 0..G {
            for q in 0..L::W / LANES {
                cols.add(a, t[g][q], &self.acc);
            }
        }
        true
    }

    /// The pair-pass stage body ([`pair_body`]'s LNS twin) on `G`
    /// groups of `p`'s columns from `k` on, a group past `end` massless
    /// lane by lane: one front, the a-side back on the run's mass
    /// words into `cols`, and the b-side — the a-side words with the
    /// force words negated where the group's masses all equal
    /// `m_a`, its own back on `m_a` with the signs flipped
    /// elsewhere — added to `p`'s deposit rows.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn pair_stages<O: AccOps, const G: usize>(
        &self,
        p: &PairPass<'_>,
        (k, end): (usize, usize),
        cols: &mut Columns<O>,
    ) -> Pass {
        let Some(f) = self.fronts::<G>(&p.span, k) else {
            return Pass::Flagged;
        };
        let (zero, massless) = (L::splat(0), L::splat(MASSLESS));
        // SAFETY: IOTA holds sixteen words, W at most sixteen
        let iota = L::load(IOTA.as_ptr());
        let (mut wa, mut wb, mut one) = ([[zero; 4]; G], [[zero; 4]; G], [false; G]);
        for g in 0..G {
            let kg = k + L::W * g;
            let valid = L::splat((end - kg) as i32);
            // SAFETY: `kg + W ≤ n + SELF_PAD`, the mass words' length
            let mb = massless.if_lt(iota, valid, L::load(p.span.w.as_ptr().add(kg)));
            let ma = massless.if_lt(iota, valid, L::splat(p.mwa));
            wa[g] = self.back(&f[g], mb, zero);
            one[g] = mb.eq_all(ma);
            if !one[g] {
                wb[g] = self.back(&f[g], ma, L::splat(i32::MIN));
            }
        }
        let (mut ta, mut tb) =
            ([[[_mm256_setzero_pd(); 4]; 4]; G], [[[_mm256_setzero_pd(); 4]; 4]; G]);
        for g in 0..G {
            ta[g] = self.decode(wa[g]);
            if !one[g] {
                tb[g] = self.decode(wb[g]);
            }
        }
        for g in 0..G {
            count_pairs(1 + usize::from(!one[g]), 1);
            for q in 0..L::W / LANES {
                let sa = self.acc.encode(self.acc.unscale(ta[g][q]));
                let sb =
                    if one[g] { None } else { Some(self.acc.encode(self.acc.unscale(tb[g][q]))) };
                // SAFETY: at most SELF_PAD past the block's columns
                // from `to_b`, inside the words (`fits`)
                let b = p.words.add(p.to_b.wrapping_add(k + L::W * g + LANES * q));
                if !pair_backs(cols, (sa, sb), b, p.nb) {
                    return Pass::Out;
                }
            }
        }
        Pass::Done
    }

    /// [`pair_stages`](Self::pair_stages) over the groups of `p`'s columns
    /// from `k` to `end` (the last one ragged), two in flight, like
    /// [`groups`](Self::groups): the first group flagged on its own —
    /// everything before it is added, nothing of it — or `end`;
    /// `None` when a term left the window.
    #[inline(always)]
    unsafe fn pair_groups<O: AccOps>(
        &self,
        p: &PairPass<'_>,
        (mut k, end): (usize, usize),
        cols: &mut Columns<O>,
    ) -> Option<usize> {
        while k < end {
            let two = k + L::W < end;
            if two {
                match self.pair_stages::<O, 2>(p, (k, end), cols) {
                    Pass::Done => {
                        k += 2 * L::W;
                        continue;
                    }
                    Pass::Out => return None,
                    Pass::Flagged => {}
                }
            }
            let stop = (k + if two { 2 * L::W } else { L::W }).min(end);
            while k < stop {
                match self.pair_stages::<O, 1>(p, (k, end), cols) {
                    Pass::Done => k += L::W,
                    Pass::Out => return None,
                    Pass::Flagged => return Some(k),
                }
            }
        }
        Some(end)
    }

    /// The pairs of `p`'s `a` with the columns `k..end`, both ways,
    /// the row side into `cols`: [`pair_groups`](Self::pair_groups)
    /// on `L`, a flagged group of sixteen on `eight`, a flagged group
    /// of eight through the definition ([`LnsCtx::pair_defs`]), like
    /// [`span`](Self::span) does. `false` when a term left the
    /// window.
    #[inline(always)]
    unsafe fn pair_range<O: AccOps>(
        &self,
        eight: &LnsCtx<'_, __m256i>,
        p: &PairPass<'_>,
        (mut k, end): (usize, usize),
        cols: &mut Columns<O>,
    ) -> bool {
        while k < end {
            let Some(flagged) = self.pair_groups::<O>(p, (k, end), cols) else {
                return false;
            };
            k = flagged;
            let stop = (k + L::W).min(end);
            while k < stop {
                if L::W != LNS_LANES {
                    let Some(flagged) = eight.pair_groups::<O>(p, (k, stop), cols) else {
                        return false;
                    };
                    k = flagged;
                }
                if k < stop {
                    let e = (k + LNS_LANES).min(stop);
                    count_pairs(4, 1);
                    if !self.pair_defs(p, (k, e)) {
                        return false;
                    }
                    k = e;
                }
            }
        }
        true
    }

    /// The definition, both ways, for the pairs of `p`'s `a` with the
    /// columns `k..end`: each term rounded alone and added to its
    /// words. `false` when a term left the window.
    ///
    /// # Safety
    /// `p`'s words hold the words it points at.
    #[inline(always)]
    unsafe fn pair_defs(&self, p: &PairPass<'_>, (k, end): (usize, usize)) -> bool {
        let x = &p.span;
        for b in k..end {
            let d = [x.x[0][b] - x.xi[0], x.x[1][b] - x.xi[1], x.x[2][b] - x.xi[2]];
            if d == [0; 3] {
                continue; // the zero-distance guard
            }
            let back = [
                (d, x.w[b], p.to_a, p.na),
                ([-d[0], -d[1], -d[2]], p.mwa, p.to_b.wrapping_add(b), p.nb),
            ];
            for (d, mw, at, stride) in back {
                let mut t = [0; 4];
                self.sa.add_force(&mut t, self.lanes.pair_word(d, mw));
                for (c, t) in t.into_iter().enumerate() {
                    if t.unsigned_abs() > 1 << 50 {
                        return false;
                    }
                    let w = p.words.add(at + c * stride);
                    *w = (*w).wrapping_add(t);
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
    unsafe fn groups<O: AccOps>(
        &self,
        b: &LnsSpan<'_>,
        (mut k, end): (usize, usize),
        cols: &mut Columns<O>,
        a: &mut [i64; 4],
    ) -> usize {
        while k < end {
            let pair_end = (k + 2 * L::W).min(end);
            if pair_end - k == 2 * L::W && self.stages::<O, 2>(b, k, cols, a) {
                k = pair_end;
            }
            while k < pair_end {
                if !self.stages::<O, 1>(b, k, cols, a) {
                    return k;
                }
                k += L::W;
            }
        }
        end
    }

    /// Add the terms of the j-particles `js..je` on the i-particle
    /// at `x` to its running words `a`. What `L` cannot decide it
    /// hands down: a lane flagged in a sixteen-lane group sends that
    /// group through the stages of
    /// `eight`, a lane flagged there sends its eight pairs through
    /// `span_pairs`, the definition; `eight` also takes the group a
    /// span has past its last sixteen. Every coordinate word of `x`
    /// and `j` must be inside `(-2⁵⁰, 2⁵⁰)`.
    #[inline(always)]
    unsafe fn span<O: AccOps>(
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
                k = self.groups::<O>(&b, (k, wide_end), &mut cols, a);
            }
            // the group `L` could not decide, or the one past the
            // last whole `L`: eight lanes at a time
            let narrow_end = if k < wide_end { k + L::W } else { lanes_end };
            while k < narrow_end {
                if L::W != LNS_LANES {
                    k = eight.groups::<O>(&b, (k, narrow_end), &mut cols, a);
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

/// The LNS-mode block kernel at eight lanes ([`LnsCtx::span`]).
///
/// # Safety
/// The CPU must support AVX2, and every coordinate word in `xi` and
/// `j` must be inside `(-2⁵⁰, 2⁵⁰)` (`coords_in_magic_window`).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn block_lns(
    c: &LnsLanes,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
) {
    let l = LnsCtx::<__m256i>::new(c, j, force_scale, fmt);
    block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
        l.span::<Avx2Ops>(&l, a, x, (js, je))
    });
}

/// [`block_lns`] at sixteen lanes, accumulating (the eight-lane
/// retries too) on the AVX-512VL column.
///
/// # Safety
/// As for [`block_lns`], and the CPU must support FMA and AVX-512 F,
/// BW, DQ and VL (`cpu_lanes()[1]`).
#[target_feature(enable = "avx2,fma,avx512f,avx512bw,avx512dq,avx512vl")]
pub(super) unsafe fn block_lns16(
    c: &LnsLanes,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
) {
    let l = LnsCtx::<__m512i>::new(c, j, force_scale, fmt);
    let eight = LnsCtx::<__m256i>::new(c, j, force_scale, fmt);
    block_tiled(xi, j.len(), force_scale, fmt, out, |a, x, js, je| {
        l.span::<VlOps>(&eight, a, x, (js, je))
    });
}

/// The LNS pair pass on lanes `L` and column `O`, `eight` for the
/// retries (module docs, "pair blocks"): [`pair_body`]'s loops, the
/// groups through [`LnsCtx::pair_range`]. `false` at the first term
/// outside the encode window.
///
/// # Safety
/// AVX2, `L`'s and `O`'s features; `s` sealed and its blocks inside
/// it ([`block_lns_pairs`]).
#[inline(always)]
unsafe fn lns_pair_body<L: LnsLane, O: AccOps>(
    c: &LnsLanes,
    force_scale: f64,
    fmt: FixedFormat,
    s: &mut PairScratch,
) -> bool {
    let PairScratch { words, m_word, w, blocks, .. } = s;
    debug_assert!(words.iter().all(|c| c.len() == m_word.len()) && m_word.len() >= SELF_PAD);
    let x = [&words[0][..], &words[1][..], &words[2][..]];
    // the points as j-slices for the stage bodies (no pair pass reads
    // their masses); the caller checked the boards' windows
    let (m, m_lns, in_window) = (&[][..], &[][..], true);
    let j = JSlices { x: x[0], y: x[1], z: x[2], m, m_lns, m_word, in_window };
    let l = LnsCtx::<L>::new(c, &j, force_scale, fmt);
    let eight = LnsCtx::<__m256i>::new(c, &j, force_scale, fmt);
    let words = w.as_mut_ptr();
    for blk in blocks.iter() {
        let ((rs, re), (cs, end)) = (blk.rows, blk.cols);
        for a in rs..re {
            let span = LnsSpan { x, w: m_word, xi: [x[0][a], x[1][a], x[2][a]] };
            let lo = if blk.diag { cs.max(a + 1) } else { cs };
            let (to_a, na) = (blk.to_a.0 + (a - rs), blk.to_a.1);
            let (to_b, nb) = (blk.to_b.0.wrapping_sub(cs), blk.to_b.1);
            let p = PairPass { span, mwa: m_word[a], words, to_a, na, to_b, nb };
            let mut cols = Columns::<O>::open(&[0; 4], &l.acc); // `fast` unused
            if !l.pair_range::<O>(&eight, &p, (lo, end), &mut cols) {
                return false;
            }
            flush_to(&mut cols, words.add(to_a), na);
        }
    }
    true
}

/// The `#[target_feature]` entries of [`lns_pair_body`]: eight lanes
/// on the AVX2 column, sixteen on the AVX-512VL one.
///
/// # Safety
/// As for [`lns_pair_body`]; the CPU must support AVX2, and for
/// `block_lns16_pairs` FMA and AVX-512 F, BW, DQ and VL.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn block_lns_pairs(
    c: &LnsLanes,
    force_scale: f64,
    fmt: FixedFormat,
    s: &mut PairScratch,
) -> bool {
    lns_pair_body::<__m256i, Avx2Ops>(c, force_scale, fmt, s)
}

/// [`block_lns_pairs`] at sixteen lanes, on the AVX-512VL column.
///
/// # Safety
/// As for [`block_lns_pairs`].
#[target_feature(enable = "avx2,fma,avx512f,avx512bw,avx512dq,avx512vl")]
pub(super) unsafe fn block_lns16_pairs(
    c: &LnsLanes,
    force_scale: f64,
    fmt: FixedFormat,
    s: &mut PairScratch,
) -> bool {
    lns_pair_body::<__m512i, VlOps>(c, force_scale, fmt, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArithMode, Grape5Config};
    use crate::lanes::cpu_lanes;
    use crate::lanes::tests::jmem;
    use crate::pipeline::G5Pipeline;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The lanes of `v` as words (i32 lanes; i64 lanes read as two).
    unsafe fn words<L: LnsLane>(v: L) -> Vec<i32> {
        let mut w = [0i32; 16];
        w.as_mut_ptr().cast::<L>().write_unaligned(v);
        w[..L::W].to_vec()
    }

    const BITS: usize = 20;

    /// [`LnsLane`](LnsLane) method number `op` on the first
    /// `L::W` lanes of the operands (`None` past the last method). Gather
    /// indices are masked into `rom`; `q` and the shift counts are fixed.
    ///
    /// # Safety
    /// The CPU must have `L`'s features; each operand holds `L::W` words,
    /// `d` as many `|d| < 2⁵¹`, and `rom` 256 entries.
    unsafe fn lane_op<L: LnsLane>(
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
    /// of equals); and the reduction is the reduction of the halves.
    #[test]
    fn sixteen_lane_methods_are_the_eight_lane_methods_on_each_half() {
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
                // eq_all: against itself, and with each lane in turn changed
                assert!(x.eq_all(x) && halves.iter().all(|&h| h.eq_all(h)), "eq_all, {ops:?}");
                for lane in 0..16 {
                    let mut z: [i32; 16] = whole[0].try_into().expect("sixteen words");
                    z[lane] ^= 1 << (lane % 31);
                    let z8 = [0, 1].map(|h| <__m256i as LnsLane>::load(z[8 * h..].as_ptr()));
                    let all = halves[0].eq_all(z8[0]) && halves[1].eq_all(z8[1]);
                    assert!(!all && !x.eq_all(LnsLane::load(z.as_ptr())), "eq_all, lane {lane}");
                }
            }
        }
    }

    /// The vector log converter of lane type `L` on `L::W` displacements
    /// against a zero i-coordinate: `(core word, sign bit, redo)` each.
    ///
    /// # Safety
    /// The CPU must have `L`'s features, and `|d| < 2⁵¹` must hold.
    unsafe fn encode_words<L: LnsLane>(c: &LnsLanes, d: &[i64]) -> Vec<[i32; 3]> {
        assert_eq!(d.len(), L::W);
        let none = jmem(&[], &[]);
        let j = none.j_slices();
        let l = LnsCtx::<L>::new(c, &j, 1.0, FixedFormat::new(64, 32));
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
}
