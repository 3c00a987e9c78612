//! Regenerate the golden interaction-vector fixture used by
//! `tests/golden_kernel.rs`.
//!
//! The fixture pins the **bit patterns** of the device pipeline's
//! per-pair output (both arithmetic modes, with and without softening
//! and cutoff) so that kernel refactors can prove they did not move a
//! single bit. The checked-in copy was captured from the pre-batch
//! scalar path; regenerating it is only legitimate when the reference
//! path itself is deliberately changed.
//!
//! Usage: `cargo run --release -p g5-bench --bin gen_golden -- \
//!   [--out tests/golden/interact_v1.txt]`

use g5_bench::Args;
use g5util::fixed::RangeScaler;
use grape5::pipeline::JWord;
use grape5::{ArithMode, CutoffTable, G5Pipeline, Grape5Config};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const SEED: u64 = 42;
const N_RANDOM: usize = 496;
const EPS: [f64; 2] = [0.0, 0.01];

fn main() {
    let args = Args::parse(&["out"]);
    let out_path: String = args.get("out", "tests/golden/interact_v1.txt".to_string());

    let scaler = RangeScaler::new(-2.0, 2.0, 32);
    let q = scaler.quantum();
    let lns = Grape5Config::paper().lns;
    let cutoff = CutoffTable::treepm(0.3, 1.5, 10, 20);

    // 2 eps × 2 modes × {plain, cutoff} pipelines, fixed combo order.
    let mut pipes: Vec<G5Pipeline> = Vec::new();
    for &eps in &EPS {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            pipes.push(G5Pipeline::new(&cfg, q, eps));
            pipes.push(G5Pipeline::new(&cfg, q, eps).with_cutoff(Some(cutoff.clone())));
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut pairs: Vec<([i64; 3], [i64; 3], f64)> = Vec::new();
    // hand-picked edges: zero-distance guard, single-quantum offsets,
    // axis-aligned pairs, range-saturating separations
    let specials: [[i64; 3]; 12] = [
        [0, 0, 0],
        [1, 0, 0],
        [0, -1, 0],
        [0, 0, 1],
        [-1, -1, -1],
        [1 << 10, 0, 0],
        [0, 1 << 20, 0],
        [-(1 << 28), 1 << 28, 0],
        [(1 << 31) - 1, 0, 0],
        [-(1 << 31), (1 << 31) - 1, -(1 << 30)],
        [3, -4, 12],
        [1 << 4, 1 << 4, 1 << 4],
    ];
    for d in specials {
        pairs.push(([0, 0, 0], d, 1.0));
    }
    for k in 0..N_RANDOM {
        let mut d = [0i64; 3];
        for c in &mut d {
            if rng.random_range(0..8) == 0 {
                continue; // occasionally axis-degenerate
            }
            let s: u32 = rng.random_range(2..31);
            let mag: i64 = rng.random_range(0..(1i64 << s));
            *c = if rng.random_range(0..2) == 0 { mag } else { -mag };
        }
        let m = f64::exp2(rng.random_range(-9.0..9.0));
        let xi = if k >= N_RANDOM - 32 {
            // nonzero i-position: exercises the fixed-point subtract
            [
                rng.random_range(-(1i64 << 29)..(1i64 << 29)),
                rng.random_range(-(1i64 << 29)..(1i64 << 29)),
                rng.random_range(-(1i64 << 29)..(1i64 << 29)),
            ]
        } else {
            [0, 0, 0]
        };
        let jr =
            [xi[0].saturating_add(d[0]), xi[1].saturating_add(d[1]), xi[2].saturating_add(d[2])];
        pairs.push((xi, jr, m));
    }

    let mut text = String::new();
    writeln!(text, "# golden per-pair device-pipeline outputs (bit patterns)").unwrap();
    writeln!(text, "# generated by gen_golden, seed {SEED}, pre-batch scalar path").unwrap();
    writeln!(text, "# combo order: eps in {{0, 0.01}} x mode in {{exact, lns}} x cutoff in {{none, treepm(0.3,1.5,10,20)}}").unwrap();
    writeln!(text, "# line: xi0 xi1 xi2 j0 j1 j2 m_bits m_sign m_raw  8x(ax ay az pot) hex bits")
        .unwrap();
    writeln!(text, "quantum {:016x}", q.to_bits()).unwrap();
    writeln!(text, "eps {:016x} {:016x}", EPS[0].to_bits(), EPS[1].to_bits()).unwrap();
    writeln!(text, "lns {} {} {}", lns.frac_bits, lns.exp_min, lns.exp_max).unwrap();
    for &(xi, jr, m) in &pairs {
        let m_lns = lns.encode(m);
        let m_raw = (m_lns.log2_abs() * (lns.frac_bits as f64).exp2()).round();
        let m_raw = if m_lns.is_zero() { 0 } else { m_raw as i64 };
        let j = JWord { raw: jr, m_lns, m };
        write!(
            text,
            "{} {} {} {} {} {} {:016x} {} {}",
            xi[0],
            xi[1],
            xi[2],
            jr[0],
            jr[1],
            jr[2],
            m.to_bits(),
            m_lns.signum(),
            m_raw
        )
        .unwrap();
        for p in &pipes {
            let f = p.interact_reference(xi, &j);
            write!(
                text,
                " {:016x} {:016x} {:016x} {:016x}",
                f.acc.x.to_bits(),
                f.acc.y.to_bits(),
                f.acc.z.to_bits(),
                f.pot.to_bits()
            )
            .unwrap();
        }
        text.push('\n');
    }
    std::fs::create_dir_all(std::path::Path::new(&out_path).parent().unwrap()).unwrap();
    std::fs::write(&out_path, &text).unwrap();
    println!("wrote {} pairs x {} combos to {out_path}", pairs.len(), pipes.len());
}
