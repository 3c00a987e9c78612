//! The exact-mode x86 kernels: the divider's front, the block kernel
//! and the pair pass (module docs, "front and back", "pair blocks"),
//! entered once per op column.

use super::columns::{flush_to, i64x4_to_f64, pair_backs, AccCtx, AccOps, Avx2Ops, Columns, VlOps};
use crate::lanes::pairs::{count_pairs, PairScratch, SELF_PAD};
use crate::lanes::{exact_pair, span_pairs, words_in_magic_window, ScalarAcc, Words};
use crate::lanes::{EXACT_DEPTH, I_TILE, J_BLOCK, LANES};
use crate::pipeline::JSlices;
use core::arch::x86_64::*;
use g5util::fixed::FixedFormat;

/// The divider's half of an exact j-group: the zero-distance lanes,
/// `d = (x_j − x_i) · quantum`, `r⁻¹`, `r⁻³` — the same for `(i, j)`
/// and `(j, i)` up to the sign of `d` (module docs, "self calls").
#[derive(Clone, Copy)]
struct Front<G> {
    zero: G,
    d: [__m256d; 3],
    rinv: __m256d,
    rinv3: __m256d,
}

/// The [`Front`] of the j-group at `k` of the images `img` seen from
/// `xv`, `[quantum, ε², 1]` splatted.
///
/// # Safety
/// AVX2 and `O`'s features; `k + LANES` ≤ each column's length.
#[inline(always)]
unsafe fn front<O: AccOps>(
    img: [&[f64]; 3],
    k: usize,
    xv: [__m256d; 3],
    [qv, e2v, onev]: [__m256d; 3],
) -> Front<O::Guard> {
    debug_assert!(img.iter().all(|c| k + LANES <= c.len()));
    // SAFETY: k + LANES is at most the length of each img column.
    let d0 = _mm256_sub_pd(_mm256_loadu_pd(img[0].as_ptr().add(k)), xv[0]);
    let d1 = _mm256_sub_pd(_mm256_loadu_pd(img[1].as_ptr().add(k)), xv[1]);
    let d2 = _mm256_sub_pd(_mm256_loadu_pd(img[2].as_ptr().add(k)), xv[2]);
    let zero = O::zero_guard([d0, d1, d2]);
    let dx = _mm256_mul_pd(d0, qv);
    let dy = _mm256_mul_pd(d1, qv);
    let dz = _mm256_mul_pd(d2, qv);
    // (dx² + dy²) + dz² — explicit mul/add, never FMA, matching
    // pair_exact's association
    let r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz),
    );
    let r2e = _mm256_add_pd(r2, e2v);
    let rinv = _mm256_div_pd(onev, _mm256_sqrt_pd(r2e));
    Front { zero, d: [dx, dy, dz], rinv, rinv3: _mm256_div_pd(rinv, r2e) }
}

/// The terms `[fx, fy, fz, pot]` of a front: `d · (mf · r⁻³)` and
/// `mp · r⁻¹`, guarded on the potential lane only (a guarded force
/// lane is `0 · s`, ±0 or NaN, a raw 0 either way).
///
/// # Safety
/// AVX2 and `O`'s features.
#[inline(always)]
unsafe fn terms<O: AccOps>(f: &Front<O::Guard>, mf: __m256d, mp: __m256d) -> [__m256d; 4] {
    let s = _mm256_mul_pd(mf, f.rinv3);
    let [dx, dy, dz] = f.d;
    let pot = O::guarded_pot(f.zero, mp, f.rinv);
    [_mm256_mul_pd(dx, s), _mm256_mul_pd(dy, s), _mm256_mul_pd(dz, s), pot]
}

/// The x86 exact-mode block kernel on the ops of column `O`; module
/// docs, "front and back".
///
/// # Safety
/// The CPU must support AVX2 and `O`'s features ([`AccOps`]), and
/// every coordinate word in `xi` and `j` must be inside `(-2⁵⁰, 2⁵⁰)`
/// (`coords_in_magic_window`). An `#[inline(always)]` body for the
/// `#[target_feature]` entries below; no closure in it may hold an
/// intrinsic ([`AccOps`]).
#[inline(always)]
unsafe fn exact_body<O: AccOps>(
    quantum: f64,
    eps2: f64,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
) {
    /// [`terms`] of the [`front`] of the j-group at `k` of a block.
    #[inline(always)]
    unsafe fn group<O: AccOps>(
        img: &[[f64; J_BLOCK]; 3],
        bm: &[f64],
        xv: [__m256d; 3],
        consts: [__m256d; 3],
        k: usize,
    ) -> [__m256d; 4] {
        debug_assert!(k + LANES <= bm.len());
        // SAFETY: k + LANES is at most the length of bm.
        let m4 = _mm256_loadu_pd(bm.as_ptr().add(k));
        terms::<O>(&front::<O>([&img[0], &img[1], &img[2]], k, xv, consts), m4, m4)
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
    for (t, xc) in (0..).step_by(I_TILE).zip(xi.chunks(I_TILE)) {
        let mut acc = out.open(t, xc.len());
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
                    *slot = group::<O>(&img, bm, xv, consts, g * LANES);
                }
                for g in 0..groups {
                    let f = ring[g % D];
                    if g + D < groups {
                        ring[g % D] = group::<O>(&img, bm, xv, consts, (g + D) * LANES);
                    }
                    cols.add(a, f, &ctx);
                }
                cols.flush(a);
                span_pairs(&sa, a, x, j, (js + lanes_end, je), &pair);
            }
        }
        out.close((t, xc.len()), &acc, force_scale, fmt);
    }
}

/// The pair-pass kernel on column `O` (module docs, "pair blocks"):
/// for each block, each row `a` against the block's columns `b` (past
/// `a` in a diagonal block) one [`front`] per pair, through
/// [`exact_body`]'s ring, and one back where the group's four masses
/// equal `m_a` — the column side's words are then the row side's, the
/// force words negated — two elsewhere. A block's last group is
/// padded with massless lanes on both sides. `false` at the first
/// group a window test rejects.
///
/// # Safety
/// AVX2 and `O`'s features; `s` sealed and its blocks inside it
/// ([`block_exact_pairs`]). No closure in this body may hold an
/// intrinsic.
#[inline(always)]
unsafe fn pair_body<O: AccOps>(
    quantum: f64,
    eps2: f64,
    force_scale: f64,
    fmt: FixedFormat,
    s: &mut PairScratch,
) -> bool {
    const D: usize = EXACT_DEPTH;
    let ctx = AccCtx::new(fmt, force_scale);
    let consts = [_mm256_set1_pd(quantum), _mm256_set1_pd(eps2), _mm256_set1_pd(1.0)];
    let PairScratch { img, m, w, blocks, .. } = s;
    let img = [&img[0][..], &img[1][..], &img[2][..]];
    debug_assert!(img.iter().all(|c| c.len() == m.len()) && m.len() >= SELF_PAD);
    let w = w.as_mut_ptr();
    let iota = _mm256_setr_epi64x(0, 1, 2, 3);
    for blk in blocks.iter() {
        let ((rs, re), (cs, end)) = (blk.rows, blk.cols);
        for a in rs..re {
            let xv =
                [_mm256_set1_pd(img[0][a]), _mm256_set1_pd(img[1][a]), _mm256_set1_pd(img[2][a])];
            let (ma, neg_ma) = (_mm256_set1_pd(m[a]), _mm256_set1_pd(-m[a]));
            // in a diagonal block the b ≤ a, the diagonal among them,
            // are other rows' pairs
            let lo = if blk.diag { cs.max(a + 1) } else { cs };
            let groups = end.saturating_sub(lo).div_ceil(LANES);
            let mut cols = Columns::<O>::open(&[0; 4], &ctx); // `fast` unused
            let z = _mm256_setzero_pd();
            let mut ring = [Front { zero: O::zero_guard([z; 3]), d: [z; 3], rinv: z, rinv3: z }; D];
            for (g, slot) in ring.iter_mut().enumerate().take(groups) {
                *slot = front::<O>(img, lo + g * LANES, xv, consts);
            }
            for g in 0..groups {
                let (k, f) = (lo + g * LANES, ring[g % D]);
                if g + D < groups {
                    ring[g % D] = front::<O>(img, k + D * LANES, xv, consts);
                }
                // lanes past the block's end are massless both ways
                let past = _mm256_set1_epi64x((end - k) as i64);
                let keep = _mm256_castsi256_pd(_mm256_cmpgt_epi64(past, iota));
                // SAFETY: k < end ≤ the points, and m holds SELF_PAD more
                let mb = _mm256_and_pd(_mm256_loadu_pd(m.as_ptr().add(k)), keep);
                let to_a = ctx.encode(ctx.unscale(terms::<O>(&f, mb, mb)));
                // one back where d · (−m_a r⁻³) = −(d · (m_b r⁻³))
                let one = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(mb, ma)) == 0b1111;
                let to_b = if one {
                    None
                } else {
                    let (mf, mp) = (_mm256_and_pd(neg_ma, keep), _mm256_and_pd(ma, keep));
                    Some(ctx.encode(ctx.unscale(terms::<O>(&f, mf, mp))))
                };
                count_pairs(1 + usize::from(!one), 1);
                // SAFETY: k − cs + LANES ≤ the block's columns + SELF_PAD
                // past `to_b`, inside the words (`fits`)
                let b = w.add(blk.to_b.0 + (k - cs));
                if !pair_backs(&mut cols, (to_a, to_b), b, blk.to_b.1) {
                    return false;
                }
            }
            flush_to(&mut cols, w.add(blk.to_a.0 + (a - rs)), blk.to_a.1);
        }
    }
    true
}

/// The `#[target_feature]` entries of [`exact_body`] and of
/// [`pair_body`], one of each per column.
///
/// # Safety
/// As for [`exact_body`] and [`pair_body`]: coordinates in the magic
/// window, AVX2, and for the `_vl` entries FMA and AVX-512 F, DQ and
/// VL (`cpu_lanes()[1]`).
macro_rules! exact_entries {
    ($($name:ident, $self_name:ident: $ops:ty, $features:literal;)+) => {$(
        #[target_feature(enable = $features)]
        pub(super) unsafe fn $name(
            quantum: f64, eps2: f64, xi: &[[i64; 3]], j: &JSlices<'_>,
            force_scale: f64, fmt: FixedFormat, out: &mut Words<'_>,
        ) {
            exact_body::<$ops>(quantum, eps2, xi, j, force_scale, fmt, out)
        }
        #[target_feature(enable = $features)]
        pub(super) unsafe fn $self_name(
            quantum: f64, eps2: f64, force_scale: f64, fmt: FixedFormat, s: &mut PairScratch,
        ) -> bool {
            pair_body::<$ops>(quantum, eps2, force_scale, fmt, s)
        }
    )+};
}
exact_entries! {
    block_exact, block_exact_pairs: Avx2Ops, "avx2";
    block_exact_vl, block_exact_pairs_vl: VlOps, "avx2,fma,avx512f,avx512dq,avx512vl";
}
