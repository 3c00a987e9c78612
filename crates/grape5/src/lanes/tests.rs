//! The lane kernels' referees: every lane path against the scalar
//! skeleton, bit for bit.

use super::*;
use crate::board::ProcessorBoard;
use crate::config::{ArithMode, Grape5Config};
use crate::cutoff::CutoffTable;
use crate::pipeline::JWord;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Board j-memory holding the given particles — the SoA columns
/// (mass log words included) exactly as `load_j` lays them out.
pub(super) fn jmem(raw: &[[i64; 3]], m: &[f64]) -> ProcessorBoard {
    let cfg = Grape5Config::paper();
    let words: Vec<JWord> =
        raw.iter().zip(m).map(|(&raw, &m)| JWord { raw, m_lns: cfg.lns.encode(m), m }).collect();
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

/// The self-block kernels of both modes on each op column (and both
/// LNS widths) against every board's scalar skeleton on the whole
/// set: one to three boards of uneven shares, set sizes through two
/// rings of groups and a tail at every offset, each size with random
/// masses — zero and negative ones among them (two backs) — and with
/// equal ones (one back), ε = 0, and a pair of coincident words
/// across the first and last board.
#[test]
fn self_calls_agree_with_the_skeleton_on_both_op_columns() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e1f);
    // a quantum that keeps every term of these sets inside the
    // encode window, ε = 0 included: only a coincident pair may decline
    let (fmt, q) = (FixedFormat::new(64, 32), 2e-9);
    for n in (1..=4 * (2 * EXACT_DEPTH + 1)).chain([97, 515]) {
        for boards in 1..=3 {
            let (_, mut x, random) = random_particles(&mut rng, 0, n, 1 << 30);
            let coincident = n % 3 == 1 && n > 1;
            if coincident {
                x[n - 1] = x[0];
            }
            let per = n.div_ceil(boards);
            // random masses (two backs), then all equal (one back)
            let sets = [("random", random), ("equal", vec![1.5; n])];
            for (mode, (masses, m), (eps, fs)) in MODES.into_iter().flat_map(|mode| {
                let params = [(0.01, 0.25), (0.0, 1.0), (0.05, 3.0)];
                sets.iter().flat_map(move |m| params.map(|p| (mode, m, p)))
            }) {
                let shares: Vec<ProcessorBoard> =
                    x.chunks(per).zip(m.chunks(per)).map(|(x, m)| jmem(x, m)).collect();
                let what = format!("{mode:?} n = {n}, {boards} boards, eps {eps}, {masses} masses");
                let want: Vec<Vec<Force>> = (shares.iter())
                    .map(|b| run_path(mode, SCALAR, q, eps, &x, b, fs, fmt))
                    .collect();
                for (path, wide) in all_paths() {
                    let cfg = Grape5Config { mode, ..Grape5Config::paper() };
                    let mut p = G5Pipeline::new(&cfg, q, eps);
                    p.set_lane_path(path);
                    set_wide(&mut p, wide);
                    let mut s = PairScratch::default();
                    let boards = shares.iter().map(ProcessorBoard::j_slices);
                    let mut w = crate::window::PairWindow::default();
                    let ran = w.run_call(&p, &x, boards, (0, None, false), (fs, fmt), &mut s);
                    let may_decline = coincident && eps == 0.0 && mode == ArithMode::Exact;
                    assert!(ran || may_decline, "{what} wide {wide}: declined");
                    for (k, want) in want.iter().enumerate().filter(|_| ran) {
                        let got = (0..n).map(|i| force_of(s.words4(4 * k * n + i, n), fs, fmt));
                        let what = format!("{what} wide {wide}, board {k}");
                        assert_bits_equal(want, &got.collect::<Vec<_>>(), &what);
                    }
                }
            }
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
    }
}

/// `interact_block` enters the x86 block kernels where it should and
/// nowhere else: every referee above compares against the skeleton,
/// so one that never reached the lanes would pass them all.
#[test]
fn interact_block_enters_the_lane_kernels_only_where_they_apply() {
    let calls = || LANE_CALLS.with(std::cell::Cell::get);
    let mut rng = ChaCha8Rng::seed_from_u64(0x1a2e);
    let fmt = FixedFormat::new(64, 32);
    let (xi, j) = random_block(&mut rng, 5, 61, 1 << 30);
    let (wide_xi, wide_j) = random_block(&mut rng, 5, 61, 1 << 60);
    let cutoff = CutoffTable::treepm(0.05, 0.2, 10, 12);
    let runs =
        |mode, (path, wide): Path, cut: Option<&CutoffTable>, xi: &[_], j: &ProcessorBoard| {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            let mut p = G5Pipeline::new(&cfg, 2e-10, 0.01).with_cutoff(cut.cloned());
            p.set_lane_path(path);
            set_wide(&mut p, wide);
            let mut out = vec![Force::ZERO; xi.len()];
            let before = calls();
            p.interact_block(xi, &j.j_slices(), 0.25, fmt, &mut out);
            calls() - before
        };
    for mode in MODES {
        for path in all_paths() {
            let what = format!("{mode:?} {path:?}");
            assert_eq!(runs(mode, path, None, &xi, &j), 1, "{what}: in window");
            assert_eq!(runs(mode, path, None, &wide_xi, &wide_j), 0, "{what}: ±2^60 words");
            assert_eq!(runs(mode, path, Some(&cutoff), &xi, &j), 0, "{what}: cutoff");
        }
        assert_eq!(runs(mode, SCALAR, None, &xi, &j), 0, "{mode:?}: scalar path");
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
