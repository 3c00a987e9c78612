//! The x86 lane kernels (module docs of `lanes`): the accumulate columns
//! and the coordinate quantizer (`columns`), the exact-mode bodies
//! (`exact`), the LNS stages (`lns`). Every `unsafe` of the lanes is
//! under this module: the entries `block`, `pair_pass` and `quantize` are
//! safe, and each checks the CPU — `block` the coordinate guard too —
//! before it enters a `#[target_feature]` kernel; each returns `false`
//! (`quantize`: 0 words) where it cannot take the call, and the caller
//! runs the scalar skeleton.

#[cfg(target_arch = "x86_64")]
mod columns;
#[cfg(target_arch = "x86_64")]
mod exact;
#[cfg(target_arch = "x86_64")]
mod lns;

#[cfg(target_arch = "x86_64")]
pub(in crate::lanes) use columns::quantize;
#[cfg(all(test, target_arch = "x86_64"))]
pub(in crate::lanes) use columns::{round_away_to_i64, AccOps, Avx2Ops, VlOps};

use super::pairs::PairScratch;
#[cfg(target_arch = "x86_64")]
use super::words_in_magic_window;
use super::{LnsLanes, Wide, Words};
use crate::pipeline::JSlices;
use g5util::fixed::FixedFormat;

/// Whether a block kernel takes `xi` against `j` here: the CPU has AVX2
/// and every coordinate word is inside the magic window. `|a|, |b| < 2⁵⁰`
/// bounds every subtract `|a − b| < 2⁵¹`, the window where the vector
/// i64 → f64 conversion is exact; wider coordinate formats (coord_bits
/// can reach 62) take the scalar skeleton instead. The j side is a fact
/// of the loaded memory, settled by the board when it was loaded
/// ([`JSlices::in_window`]); only the few i words are read per call.
#[cfg(target_arch = "x86_64")]
fn takes(xi: &[[i64; 3]], j: &JSlices<'_>) -> bool {
    let takes = std::is_x86_feature_detected!("avx2")
        && j.in_window
        && xi.iter().all(|x| words_in_magic_window(x));
    #[cfg(test)]
    super::LANE_CALLS.with(|c| c.set(c.get() + u64::from(takes)));
    takes
}

/// Run the x86 block kernel — of exact mode, or of LNS mode on
/// `lns_lanes` — on `wide`'s op column (in LNS mode sixteen lanes where `wide`,
/// eight elsewhere). Returns `false` without touching `out` when it
/// cannot take this call: no AVX2, or coordinates outside the magic
/// window.
pub(crate) fn block(
    wide: Wide,
    (lns_lanes, quantum, eps2): (Option<&LnsLanes>, f64, f64),
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut Words<'_>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if takes(xi, j) {
        // SAFETY: AVX2 was detected and the coordinate guard passed; a
        // `Wide` is only set where the FMA and AVX-512 subsets were.
        unsafe {
            match (lns_lanes, wide.0) {
                (None, false) => exact::block_exact(quantum, eps2, xi, j, force_scale, fmt, out),
                (None, true) => exact::block_exact_vl(quantum, eps2, xi, j, force_scale, fmt, out),
                (Some(c), false) => lns::block_lns(c, xi, j, force_scale, fmt, out),
                (Some(c), true) => lns::block_lns16(c, xi, j, force_scale, fmt, out),
            }
        }
        return true;
    }
    let _ = (wide, lns_lanes, quantum, eps2, xi, j, force_scale, fmt, out);
    false
}

/// The pair pass over `s`'s blocks ([`PairScratch::push`], then
/// [`PairScratch::seal`]; module docs, "pair blocks") in exact mode, or
/// in LNS mode on `lns_lanes`: one front per pair, each side's terms
/// added to its words, or `false` (no AVX2, a term outside the encode
/// window) for the caller to run each board's kernel. In LNS mode a lane
/// in the converters' guard band sends its pairs through the definition,
/// both ways. Every term added is inside the window, so the sums are the
/// definition's chain wherever the words they continue leave `len · 2⁵⁰`
/// of headroom (the caller's check). The points were loaded from boards
/// inside the magic window (`G5Pipeline::load_run`).
pub(crate) fn pair_pass(
    wide: Wide,
    (lns_lanes, quantum, eps2): (Option<&LnsLanes>, f64, f64),
    force_scale: f64,
    fmt: FixedFormat,
    s: &mut PairScratch,
) -> bool {
    assert!(s.fits(lns_lanes.is_some()), "a pair block's points or words not sealed for its mode");
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected, every block reads and writes inside
        // the sealed points and words (`fits`), and a `Wide` is only set
        // where FMA and AVX-512 were detected.
        return unsafe {
            match (lns_lanes, wide.0) {
                (None, false) => exact::block_exact_pairs(quantum, eps2, force_scale, fmt, s),
                (None, true) => exact::block_exact_pairs_vl(quantum, eps2, force_scale, fmt, s),
                (Some(c), false) => lns::block_lns_pairs(c, force_scale, fmt, s),
                (Some(c), true) => lns::block_lns16_pairs(c, force_scale, fmt, s),
            }
        };
    }
    let _ = (wide, lns_lanes, quantum, eps2, force_scale, fmt);
    false
}
