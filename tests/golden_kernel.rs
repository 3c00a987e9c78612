//! Golden-vector bit-identity suite for the batched device kernel.
//!
//! `tests/golden/interact_v1.txt` pins the per-pair output bits of the
//! pre-batch scalar pipeline (captured before the table-driven
//! converters and batch kernel landed). These tests prove the chain
//!
//! ```text
//! checked-in fixture == interact_reference == interact == batch kernel
//! ```
//!
//! holds in both arithmetic modes, with and without softening and
//! cutoff, and that the board-parallel system dispatch reproduces the
//! sequential reference merge bit for bit.

use grape5_nbody::grape5::pipeline::JWord;
use grape5_nbody::grape5::{ArithMode, CutoffTable, G5Pipeline, Grape5, Grape5Config};
use grape5_nbody::util::fixed::RangeScaler;
use grape5_nbody::util::lns::Lns;
use grape5_nbody::util::vec3::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/interact_v1.txt");
const EPS: [f64; 2] = [0.0, 0.01];

fn fixture_pipelines(q: f64) -> Vec<G5Pipeline> {
    let cutoff = CutoffTable::treepm(0.3, 1.5, 10, 20);
    let mut pipes = Vec::new();
    for &eps in &EPS {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            pipes.push(G5Pipeline::new(&cfg, q, eps));
            pipes.push(G5Pipeline::new(&cfg, q, eps).with_cutoff(Some(cutoff.clone())));
        }
    }
    pipes
}

struct GoldenPair {
    xi: [i64; 3],
    j: JWord,
    /// Per-combo recorded bits: `[ax, ay, az, pot]`.
    bits: Vec<[u64; 4]>,
}

fn load_fixture() -> (f64, Vec<GoldenPair>) {
    let text = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    let lns = Grape5Config::paper().lns;
    let mut quantum = None;
    let mut pairs = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().unwrap();
        match head {
            "quantum" => {
                let bits = u64::from_str_radix(tok.next().unwrap(), 16).unwrap();
                quantum = Some(f64::from_bits(bits));
            }
            "eps" => {
                for want in EPS {
                    let bits = u64::from_str_radix(tok.next().unwrap(), 16).unwrap();
                    assert_eq!(bits, want.to_bits(), "fixture eps grid changed");
                }
            }
            "lns" => {
                let f: u32 = tok.next().unwrap().parse().unwrap();
                let lo: i32 = tok.next().unwrap().parse().unwrap();
                let hi: i32 = tok.next().unwrap().parse().unwrap();
                assert_eq!((f, lo, hi), (lns.frac_bits, lns.exp_min, lns.exp_max));
            }
            _ => {
                let next_i64 = |s: Option<&str>| s.unwrap().parse::<i64>().unwrap();
                let xi0: i64 = head.parse().unwrap();
                let xi = [xi0, next_i64(tok.next()), next_i64(tok.next())];
                let jr = [next_i64(tok.next()), next_i64(tok.next()), next_i64(tok.next())];
                let m = f64::from_bits(u64::from_str_radix(tok.next().unwrap(), 16).unwrap());
                let m_sign: i8 = tok.next().unwrap().parse().unwrap();
                let m_raw = next_i64(tok.next());
                let m_lns =
                    if m_sign == 0 { Lns::zero(lns) } else { Lns::from_raw(m_sign, m_raw, lns) };
                // the mass encoder itself must still land on the
                // recorded word, or the j-memory contents drifted
                assert_eq!(lns.encode(m), m_lns, "mass encode drift for m = {m:e}");
                let mut bits = Vec::with_capacity(8);
                while let Some(w) = tok.next() {
                    bits.push([
                        u64::from_str_radix(w, 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                    ]);
                }
                assert_eq!(bits.len(), 8, "fixture line has wrong combo count");
                pairs.push(GoldenPair { xi, j: JWord { raw: jr, m_lns, m }, bits });
            }
        }
    }
    (quantum.expect("fixture quantum header"), pairs)
}

fn force_bits(f: &grape5_nbody::grape5::Force) -> [u64; 4] {
    [f.acc.x.to_bits(), f.acc.y.to_bits(), f.acc.z.to_bits(), f.pot.to_bits()]
}

/// Every checked-in (xi, j) pair reproduces its recorded bits through
/// both the current scalar path and the kept pre-batch reference path,
/// across all 8 eps × mode × cutoff combos.
#[test]
fn scalar_paths_reproduce_golden_bits() {
    let (q, pairs) = load_fixture();
    let scaler = RangeScaler::new(-2.0, 2.0, 32);
    assert_eq!(q.to_bits(), scaler.quantum().to_bits(), "fixture grid changed");
    let pipes = fixture_pipelines(q);
    assert!(pairs.len() >= 500, "fixture lost pairs: {}", pairs.len());
    for (k, pair) in pairs.iter().enumerate() {
        for (ci, p) in pipes.iter().enumerate() {
            let want = pair.bits[ci];
            let now = p.interact(pair.xi, &pair.j);
            assert_eq!(force_bits(&now), want, "interact drift at pair {k} combo {ci}");
            let reference = p.interact_reference(pair.xi, &pair.j);
            assert_eq!(force_bits(&reference), want, "reference drift at pair {k} combo {ci}");
        }
    }
}

/// The batch kernel reproduces the recorded bits too: each golden pair
/// is pushed through a one-i, one-j board compute (fixed-point
/// accumulation of a single term at force scale 1 is exact for these
/// magnitudes, so the readback equals the raw pipeline output whenever
/// the value fits the accumulator grid — which the fixture's unit-scale
/// workloads do for every finite component on the coarse grid check
/// below via the reference board).
#[test]
fn batch_board_matches_reference_board_on_golden_pairs() {
    let (q, pairs) = load_fixture();
    let cutoff = CutoffTable::treepm(0.3, 1.5, 10, 20);
    for &eps in &EPS {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            for with_cut in [false, true] {
                let cfg = Grape5Config { mode, ..Grape5Config::paper() };
                let mut board = ProcessorBoard::new(&cfg);
                let pipe =
                    G5Pipeline::new(&cfg, q, eps).with_cutoff(with_cut.then(|| cutoff.clone()));
                let words: Vec<JWord> = pairs.iter().map(|p| p.j).collect();
                let xi: Vec<[i64; 3]> = pairs.iter().map(|p| p.xi).collect();
                board.load_j(&words[..words.len().min(board.capacity())]);
                let batch = board.compute(&pipe, &xi, 1.0);
                let reference = board.compute_reference(&pipe, &xi, 1.0);
                for (k, (a, b)) in batch.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        force_bits(a),
                        force_bits(b),
                        "batch/reference divergence at i {k} mode {mode:?} eps {eps} cut {with_cut}"
                    );
                }
            }
        }
    }
}

/// Board-level bit identity on a bulk random workload, including an
/// accumulator-saturating force scale.
#[test]
fn batch_board_matches_reference_board_bulk() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let scaler = RangeScaler::new(-1.0, 1.0, 32);
    let q = scaler.quantum();
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let mut board = ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, q, 0.003);
        let words: Vec<JWord> = (0..300)
            .map(|_| {
                let raw = [
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                ];
                let m = rng.random_range(0.01..10.0);
                JWord { raw, m_lns: pipe.encode_mass(m), m }
            })
            .collect();
        board.load_j(&words);
        let mut xi: Vec<[i64; 3]> = (0..37)
            .map(|_| {
                [
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                ]
            })
            .collect();
        xi.push(words[5].raw); // exercise the zero-distance guard
        for force_scale in [1.0, 1e-7] {
            let batch = board.compute(&pipe, &xi, force_scale);
            let reference = board.compute_reference(&pipe, &xi, force_scale);
            for (k, (a, b)) in batch.iter().zip(&reference).enumerate() {
                assert_eq!(
                    force_bits(a),
                    force_bits(b),
                    "bulk divergence at i {k} mode {mode:?} scale {force_scale}"
                );
            }
        }
    }
}

/// System level: the board-parallel dispatch with reused scratch
/// buffers matches the sequential reference merge bit for bit, and
/// repeated calls are reproducible.
#[test]
fn parallel_dispatch_matches_sequential_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let pos: Vec<Vec3> = (0..160)
        .map(|_| {
            Vec3::new(
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
            )
        })
        .collect();
    let mass: Vec<f64> = (0..160).map(|_| rng.random_range(0.01..1.0)).collect();
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        for with_cut in [false, true] {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            let mut g5 = Grape5::open(cfg);
            g5.set_range(-1.0, 1.0);
            g5.set_eps(0.01);
            if with_cut {
                g5.set_cutoff(Some(CutoffTable::treepm(0.2, 0.8, 10, 20)));
            }
            g5.set_j_particles(&pos, &mass);
            let reference = g5.force_on_reference(&pos);
            let a = g5.force_on(&pos);
            let b = g5.force_on(&pos);
            for (k, ((fa, fb), fr)) in a.iter().zip(&b).zip(&reference).enumerate() {
                assert_eq!(
                    force_bits(fa),
                    force_bits(fr),
                    "parallel/sequential divergence at i {k} mode {mode:?} cut {with_cut}"
                );
                assert_eq!(force_bits(fa), force_bits(fb), "repeat-call drift at i {k}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lane-path suite: the x86 lane kernels of both arithmetic modes
// against the fixture and the scalar skeleton.
// ---------------------------------------------------------------------

use grape5_nbody::grape5::board::ProcessorBoard;
use grape5_nbody::grape5::pipeline::JSlices;
use grape5_nbody::grape5::{Force, LanePath};
use grape5_nbody::util::fixed::{Fixed, FixedFormat};

/// Every lane path available on this machine, plus the scalar referee.
fn lane_paths() -> Vec<LanePath> {
    let mut v = vec![LanePath::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        v.push(LanePath::Avx2);
    }
    v
}

/// `LanePath::Avx2` runs the cheapest accumulate op column and the
/// widest LNS lanes the CPU has — in both modes — and which those are is
/// a fact of the process (`G5_LANE_PATH`, then the CPU). A process that
/// resolved it from the CPU alone runs this whole binary once more in a
/// child pinned to the AVX2 column and eight lanes
/// (`G5_LANE_PATH=avx2`; the same kernels again where the CPU has no
/// AVX-512), so one `cargo test` holds both instantiations of the exact
/// and of the LNS kernel to the goldens. In the child, and under any
/// forced path, this is a no-op.
#[test]
fn every_golden_holds_pinned_to_eight_lns_lanes() {
    if std::env::var_os("G5_LANE_PATH").is_some() {
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("the test binary"))
        .env("G5_LANE_PATH", "avx2")
        .output()
        .expect("re-run the test binary");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && text.contains("test result: ok"), "pinned to avx2:\n{text}");
}

/// Board j-memory loaded with `words`: the kernels' SoA columns exactly
/// as `load_j` lays them out.
fn jmem(words: &[JWord]) -> ProcessorBoard {
    let mut board = ProcessorBoard::new(&Grape5Config::paper());
    board.load_j(words);
    board
}

/// `interact_block` through every lane path; the scalar skeleton's
/// output comes first.
fn block_on_every_path(
    pipe: &mut G5Pipeline,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
) -> Vec<(LanePath, Vec<Force>)> {
    lane_paths()
        .into_iter()
        .map(|path| {
            pipe.set_lane_path(path);
            let mut out = vec![Force::ZERO; xi.len()];
            pipe.interact_block(xi, j, force_scale, fmt, &mut out);
            (path, out)
        })
        .collect()
}

fn assert_paths_match_scalar(outs: &[(LanePath, Vec<Force>)], what: &str) {
    let (_, scalar) = &outs[0];
    for (path, out) in &outs[1..] {
        for (k, (a, b)) in scalar.iter().zip(out).enumerate() {
            assert_eq!(force_bits(a), force_bits(b), "{path:?} diverges at i {k}: {what}");
        }
    }
}

/// The lane kernels reproduce the checked-in fixture: for each golden
/// pair, a one-i × one-j `interact_block` readback must equal the
/// fixture-recorded pipeline output pushed through one fixed-point
/// accumulate — the definitional readback of a single term. This pins
/// the lane paths' fixed-point dx subtract and quantization to the same
/// bits `pair_exact` produced when the fixture was captured.
#[test]
fn lane_block_reproduces_golden_bits_in_exact_mode() {
    let (q, pairs) = load_fixture();
    let fmt = Grape5Config::paper().acc_format;
    for (ei, &eps) in EPS.iter().enumerate() {
        let combo = ei * 4; // (eps, Exact, no cutoff) in fixture order
        let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
        let mut pipe = G5Pipeline::new(&cfg, q, eps);
        for path in lane_paths() {
            pipe.set_lane_path(path);
            for (k, pair) in pairs.iter().enumerate() {
                let j = jmem(&[pair.j]);
                let mut out = [Force::ZERO];
                pipe.interact_block(&[pair.xi], &j.j_slices(), 1.0, fmt, &mut out);
                let want = pair.bits[combo]
                    .map(|b| Fixed::zero(fmt).accumulate(f64::from_bits(b)).to_f64().to_bits());
                assert_eq!(
                    force_bits(&out[0]),
                    want,
                    "lane {path:?} drifts from fixture at pair {k} eps {eps}"
                );
            }
        }
    }
}

/// The LNS lane kernels reproduce the fixture too. The LNS group is
/// eight j wide, so each golden j sits in lane `k mod 8` of a full
/// group whose other seven lanes coincide with the i-particle (the
/// zero-distance guard: they must contribute nothing, potential
/// included); the readback is then one accumulate of the recorded
/// `(eps, Lns, no cutoff)` bits.
#[test]
fn lane_block_reproduces_golden_bits_in_lns_mode() {
    let (q, pairs) = load_fixture();
    let fmt = Grape5Config::paper().acc_format;
    for (ei, &eps) in EPS.iter().enumerate() {
        let combo = ei * 4 + 2; // (eps, Lns, no cutoff) in fixture order
        let cfg = Grape5Config { mode: ArithMode::Lns, ..Grape5Config::paper() };
        let mut pipe = G5Pipeline::new(&cfg, q, eps);
        for path in lane_paths() {
            pipe.set_lane_path(path);
            for (k, pair) in pairs.iter().enumerate() {
                let filler = JWord { raw: pair.xi, m_lns: pipe.encode_mass(1.0), m: 1.0 };
                let mut words = [filler; 8];
                words[k % 8] = pair.j;
                let j = jmem(&words);
                let mut out = [Force::ZERO];
                pipe.interact_block(&[pair.xi], &j.j_slices(), 1.0, fmt, &mut out);
                let want = pair.bits[combo]
                    .map(|b| Fixed::zero(fmt).accumulate(f64::from_bits(b)).to_f64().to_bits());
                assert_eq!(
                    force_bits(&out[0]),
                    want,
                    "LNS lane {path:?} drifts from fixture at pair {k} eps {eps}"
                );
            }
        }
    }
}

/// Edge cases the lane structure could plausibly break — remainder
/// tails (j-counts ≢ 0 mod 4), zero-mass j-particles, coincident i/j
/// pairs — are bit-identical across the scalar and (where available)
/// AVX2 paths, at unit and accumulator-stressing force
/// scales, for a range of accumulator formats.
#[test]
fn lane_edge_cases_bit_identical_across_paths() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let scaler = RangeScaler::new(-1.0, 1.0, 32);
    let q = scaler.quantum();
    let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
    let mut pipe = G5Pipeline::new(&cfg, q, 0.005);
    let quant = |rng: &mut ChaCha8Rng| scaler.quantize(rng.random_range(-0.9..0.9));
    let mut xi: Vec<[i64; 3]> =
        (0..37).map(|_| [quant(&mut rng), quant(&mut rng), quant(&mut rng)]).collect();
    let mut words = Vec::new();
    for k in 0..301usize {
        let raw = if k % 13 == 2 {
            xi[k % xi.len()] // coincident with an i-particle
        } else {
            [quant(&mut rng), quant(&mut rng), quant(&mut rng)]
        };
        let m = if k % 11 == 5 { 0.0 } else { rng.random_range(0.01..10.0) };
        words.push(JWord { raw, m_lns: pipe.encode_mass(m), m });
    }
    xi.push(words[0].raw); // i coincident with j 0 (covers nj = 1)
    for &nj in &[1usize, 3, 5, 301] {
        let j = jmem(&words[..nj]);
        for fmt in [Grape5Config::paper().acc_format, FixedFormat::new(32, 16)] {
            for force_scale in [1.0, 1e-7] {
                let outs = block_on_every_path(&mut pipe, &xi, &j.j_slices(), force_scale, fmt);
                assert_paths_match_scalar(&outs, &format!("nj {nj} {fmt:?} scale {force_scale}"));
            }
        }
    }
}

/// The LNS twin: everything the eight-wide integer lanes could break.
/// Each scenario is one (quantum, eps, i-set, j-set); every scenario
/// runs at several j-counts (remainder tails around the group width),
/// in 64- and 32-bit accumulator formats, at unit and
/// accumulator-saturating force scales, and must match the scalar
/// skeleton bit for bit on every path.
#[test]
fn lane_edge_cases_bit_identical_across_paths_in_lns_mode() {
    let lns = Grape5Config::paper().lns;
    let cfg = Grape5Config { mode: ArithMode::Lns, ..Grape5Config::paper() };
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let word = |raw: [i64; 3], m: f64| JWord { raw, m_lns: lns.encode(m), m };
    let mut coord = |span: i64| rng.random_range(-span..span);
    struct Scenario {
        what: &'static str,
        quantum: f64,
        eps: f64,
        xi: Vec<[i64; 3]>,
        words: Vec<JWord>,
    }
    let mut scenarios = Vec::new();

    // random geometry with zero / negative masses and coincident pairs
    let span = 1i64 << 31;
    let xi: Vec<[i64; 3]> = (0..19).map(|_| [coord(span), coord(span), coord(span)]).collect();
    let words: Vec<JWord> = (0..301usize)
        .map(|k| {
            let raw =
                if k % 13 == 2 { xi[k % 19] } else { [coord(span), coord(span), coord(span)] };
            let m = [1.0, 0.0, -2.5, 0.37, 1e-3][k % 5];
            word(raw, m)
        })
        .collect();
    let q32 = RangeScaler::new(-1.0, 1.0, 32).quantum();
    for (what, eps) in [("random, softened", 0.005), ("random, eps = 0", 0.0)] {
        scenarios.push(Scenario { what, quantum: q32, eps, xi: xi.clone(), words: words.clone() });
    }

    // one- and two-coordinate-zero displacements, and power-of-two
    // displacements (mantissa 0: the left edge of encoder cell 0)
    let axis: Vec<JWord> = (0..64i64)
        .map(|k| {
            let p = 1i64 << (k % 40);
            let raw = match k % 6 {
                0 => [p, 0, 0],
                1 => [0, -p, 0],
                2 => [0, 0, p],
                3 => [p, -p, 0],
                4 => [0, p, 3 * p],
                _ => [-p, p, p],
            };
            word(raw, 1.0 + k as f64)
        })
        .collect();
    scenarios.push(Scenario {
        what: "axis-aligned and power-of-two displacements",
        quantum: q32,
        eps: 0.0,
        xi: vec![[0, 0, 0], [1, 0, 0], [0, -4, 0]],
        words: axis,
    });

    // quantum 1 makes the displacement the f64 itself, so mantissas can
    // be placed: every encoder breakpoint (where log2(1.m)·2^f crosses
    // k − ½) ± offsets inside the libm guard band (ENC_GUARD = 2^16
    // ulps), just outside it, and outside the lane ROM's redo band
    let mut placed = Vec::new();
    for k in 1..=(1u32 << lns.frac_bits) {
        let bp = ((f64::from(k) - 0.5) / f64::from(1u32 << lns.frac_bits)).exp2().to_bits();
        let bp = (bp & ((1 << 52) - 1)) | 1 << 52;
        for (n, off) in [0i64, 9, -9, 50_000, -50_000, 80_000, -80_000, 1 << 27].iter().enumerate()
        {
            let d = (bp.saturating_add_signed(*off) >> 3) as i64; // 50 bits, same leading bits
            let raw = [[d, 7, -3], [-5, -d, 11], [2, 1, d >> 9]][(k as usize + n) % 3];
            placed.push(word(raw, 0.75));
        }
    }
    scenarios.push(Scenario {
        what: "mantissas placed around encoder breakpoints",
        quantum: 1.0,
        eps: 2.0,
        xi: vec![[0, 0, 0]],
        words: placed,
    });

    // tiny quanta: squares underflow the log word (2^-600 < 2^exp_min)
    // in the lanes; below 2^exp_min the pipeline keeps the skeleton
    let small: Vec<JWord> =
        (0..40).map(|k| word([coord(1 << 20), coord(1 << 20), coord(4)], 1.0 + k as f64)).collect();
    for (what, quantum) in [
        ("squares underflow", 300f64.exp2().recip()),
        ("quantum below 2^exp_min", 520f64.exp2().recip()),
    ] {
        for eps in [0.0, 1e-85] {
            let xi = vec![[0, 0, 0], [5, 5, 5]];
            scenarios.push(Scenario { what, quantum, eps, xi, words: small.clone() });
        }
    }

    // huge masses: log words clamp at raw_max, terms saturate the
    // accumulator; huge quantum: displacements clamp at raw_max
    let heavy: Vec<JWord> = small.iter().map(|w| word(w.raw, w.m * 1e150)).collect();
    scenarios.push(Scenario {
        what: "masses at raw_max",
        quantum: q32,
        eps: 0.0,
        xi: vec![[0, 0, 0], [9, -9, 9]],
        words: heavy,
    });
    scenarios.push(Scenario {
        what: "displacements at raw_max",
        quantum: 600f64.exp2(),
        eps: 0.0,
        xi: vec![[0, 0, 0]],
        words: small.clone(),
    });

    // coordinates ≥ 2^50: the wide-coordinate guard (AVX2 → the skeleton)
    let wide: Vec<JWord> = (0..21)
        .map(|k| word([coord(1 << 60), coord(1 << 60), coord(1 << 60)], 1.0 + k as f64))
        .collect();
    scenarios.push(Scenario {
        what: "wide coordinates",
        quantum: 1e-19,
        eps: 0.0,
        xi: vec![[1 << 55, -(1 << 52), 3]],
        words: wide,
    });

    for sc in &scenarios {
        let mut pipe = G5Pipeline::new(&cfg, sc.quantum, sc.eps);
        let n = sc.words.len();
        for nj in [1usize, 7, 8, 9, 15, 17, n].into_iter().filter(|&nj| nj <= n) {
            let j = jmem(&sc.words[..nj]);
            for fmt in [Grape5Config::paper().acc_format, FixedFormat::new(32, 16)] {
                for force_scale in [1.0, 1e-7] {
                    let outs =
                        block_on_every_path(&mut pipe, &sc.xi, &j.j_slices(), force_scale, fmt);
                    let what = format!("{} (nj {nj} {fmt:?} scale {force_scale})", sc.what);
                    assert_paths_match_scalar(&outs, &what);
                    // and the scalar skeleton is the per-pair definition
                    if nj == 1 && force_scale == 1.0 {
                        for (x, f) in sc.xi.iter().zip(&outs[0].1) {
                            let t = pipe.interact(*x, &sc.words[0]);
                            let want = [t.acc.x, t.acc.y, t.acc.z, t.pot]
                                .map(|t| Fixed::zero(fmt).accumulate(t).to_f64().to_bits());
                            assert_eq!(force_bits(f), want, "skeleton vs interact: {what}");
                        }
                    }
                }
            }
        }
    }
}

/// System level: the full board-parallel `force_on` is bit-identical
/// whichever lane path is forced, in both arithmetic modes, and the
/// override survives the pipeline rebuild `set_range` / `set_eps`
/// trigger.
#[test]
fn system_force_is_lane_path_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let pos: Vec<Vec3> = (0..150)
        .map(|_| {
            Vec3::new(
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
            )
        })
        .collect();
    let mass: Vec<f64> = (0..150).map(|_| rng.random_range(0.01..1.0)).collect();
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let mut forces = Vec::new();
        for path in lane_paths() {
            let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
            g5.set_lane_path(path);
            g5.set_range(-1.0, 1.0); // rebuilds the pipeline: override must stick
            g5.set_eps(0.01);
            assert_eq!(g5.lane_path(), path, "lane override lost across rebuild");
            g5.set_j_particles(&pos, &mass);
            forces.push((path, g5.force_on(&pos)));
        }
        // the scalar skeleton is itself pinned to the pre-batch reference
        let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
        g5.set_range(-1.0, 1.0);
        g5.set_eps(0.01);
        g5.set_j_particles(&pos, &mass);
        forces.push((LanePath::Scalar, g5.force_on_reference(&pos)));
        assert_paths_match_scalar(&forces, &format!("system level, {mode:?}"));
    }
}

/// The j-memory golden, through the public host-library API: the board
/// columns `set_j_particles` writes (the one-pass lane quantizer of the
/// process's lane path, and of every forced path) equal the columns
/// `load_j` builds from reference `JWord`s — scalar
/// `RangeScaler::quantize`, `encode_mass`, the same even split. With a
/// j-memory fault armed, every path corrupts the same single word with
/// the same value (log words re-encoded) and leaves the fault process
/// at the same position.
#[test]
fn jmem_golden_set_j_particles_matches_reference_words() {
    use grape5_nbody::grape5::fault::corrupt_mass;
    use grape5_nbody::grape5::FaultConfig;
    let mut rng = ChaCha8Rng::seed_from_u64(1999);
    let n = 1557usize; // an n_g = 32 list length; odd, so the shares differ
    let pos: Vec<Vec3> = (0..n)
        .map(|k| {
            // every 97th outside the window: the saturation words
            let span = if k % 97 == 5 { 40.0 } else { 7.9 };
            Vec3::new(
                rng.random_range(-span..span),
                rng.random_range(-span..span),
                rng.random_range(-span..span),
            )
        })
        .collect();
    let mass: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..1.0)).collect();
    let scaler = RangeScaler::new(-8.0, 8.0, Grape5Config::paper().coord_bits);

    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let open = |path: Option<LanePath>| {
            let mut g5 = Grape5::open(cfg);
            if let Some(path) = path {
                g5.set_lane_path(path);
            }
            g5.set_range(-8.0, 8.0);
            g5.set_eps(0.01);
            g5
        };
        let pipe = G5Pipeline::new(&cfg, scaler.quantum(), 0.01);
        let words: Vec<JWord> = pos
            .iter()
            .zip(&mass)
            .map(|(p, &m)| JWord {
                raw: [scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z)],
                m_lns: pipe.encode_mass(m),
                m,
            })
            .collect();
        let per = n.div_ceil(cfg.boards);
        let paths: Vec<Option<LanePath>> =
            std::iter::once(None).chain(lane_paths().into_iter().map(Some)).collect();

        // fault-free: word for word the reference columns, per board
        for &path in &paths {
            let mut g5 = open(path);
            g5.set_j_particles(&pos, &mass);
            for (board, share) in g5.boards().iter().zip(words.chunks(per)) {
                let (got, want) = (board.j_slices(), jmem(share));
                let want = want.j_slices();
                let what = format!("{mode:?} {path:?}");
                assert_eq!(
                    (got.x, got.y, got.z, got.m),
                    (want.x, want.y, want.z, want.m),
                    "{what}"
                );
                if mode == ArithMode::Lns {
                    assert_eq!((got.m_lns, got.m_word), (want.m_lns, want.m_word), "{what}");
                }
            }
        }

        // armed: one corrupted word, the same on every path
        let mut seen = Vec::new();
        for &path in &paths {
            let mut g5 = open(path);
            g5.set_fault_injector(FaultConfig::jmem(77, 1.0));
            g5.set_j_particles(&pos, &mass);
            let loaded: Vec<f64> =
                g5.boards().iter().flat_map(|b| b.j_slices().m.to_vec()).collect();
            let bad: Vec<usize> = (0..n).filter(|&k| loaded[k] != mass[k]).collect();
            assert_eq!(bad.len(), 1, "{mode:?} {path:?}: rate 1.0 corrupts exactly one word");
            let k = bad[0];
            assert_eq!(loaded[k], corrupt_mass(mass[k]), "{mode:?} {path:?}: corrupted value");
            if mode == ArithMode::Lns {
                let s = g5.boards()[k / per].j_slices();
                let want =
                    jmem(&[JWord { m: loaded[k], m_lns: pipe.encode_mass(loaded[k]), ..words[k] }]);
                assert_eq!(s.m_lns[k % per], want.j_slices().m_lns[0], "re-encoded log word");
                assert_eq!(s.m_word[k % per], want.j_slices().m_word[0], "re-packed lane word");
            }
            // every other column is untouched by the fault
            for (board, share) in g5.boards().iter().zip(words.chunks(per)) {
                assert_eq!(board.j_slices().x, jmem(share).j_slices().x);
            }
            seen.push((k, g5.fault_state_words()));
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{mode:?}: fault draw differs by path");
    }
}
