//! The j-memory coordinate quantizer: the host library's coordinate
//! conversion (`g5_set_xmj`) on the same lanes and the same [`LanePath`]
//! as the force kernels. `quantize_columns` writes a j-set's fixed-point
//! words straight into the board's SoA columns, held word for word to
//! `RangeScaler::quantize` (IEEE subtract and divide kept, saturation as
//! a clamp, round-half-away as `round_half_away`). The scalar path, the
//! last 1–3 particles and windows wider than 51 bits run the definition
//! itself.

#[cfg(target_arch = "x86_64")]
use super::avx2;
use super::LanePath;
use g5util::fixed::RangeScaler;
use g5util::vec3::Vec3;

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
pub(super) struct QuantCtx {
    pub(super) center: f64,
    pub(super) quantum: f64,
    /// `raw_min` / `raw_max` as `f64` (exact: at most 51 bits).
    pub(super) minf: f64,
    pub(super) maxf: f64,
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
        LanePath::Avx2 => QuantCtx::new(scaler)
            .map_or(0, |ctx| avx2::quantize(&ctx, pos, [&mut *x, &mut *y, &mut *z])),
        _ => 0,
    };
    let tail = pos[done..].iter().zip(x[done..].iter_mut().zip(&mut y[done..]).zip(&mut z[done..]));
    for (p, ((x, y), z)) in tail {
        (*x, *y, *z) = (scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
}
