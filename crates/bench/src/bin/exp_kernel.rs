//! **E10 — batched SoA device kernel vs the pre-batch scalar path.**
//!
//! Drives the simulated GRAPE-5 directly (no tree) on a pinned-seed
//! Plummer workload and measures host-side kernel throughput two ways
//! *in the same run, against the same resident j-set*:
//!
//! * **batch** — the production `force_on` path: table-driven LNS
//!   converters, SoA j-memory, blocked i×j kernel, LNS-indexed cutoff,
//!   board-parallel dispatch;
//! * **reference** — the kept pre-batch scalar path
//!   (`force_on_reference`): per-pair `JWord` assembly, `libm`
//!   encode/decode per operand, cutoff LNS→f64→re-encode round trip.
//!
//! and, inside the batch path, the **lane kernel** of each arithmetic
//! mode against the scalar per-pair skeleton it replaced (the `lane x`
//! column; `G5_LANE_PATH` picks which lane implementation runs, and
//! the report records which accumulate op column it ran —
//! `"acc_ops": "avx2" | "avx512vl"` — and how wide its LNS groups
//! were). On AVX2 each mode's whole kernel is also timed on one board
//! and one thread through `G5Pipeline::interact_block`, the exact one
//! beside a same-round **divider floor**: a calibration loop of the one
//! `vsqrtpd` and two `vdivpd` per four lanes that exact mode's
//! definition cannot shed, and the kernel's ratio to it — how far from
//! the floor, as a number. A kernel is timed whole, the way the GRAPE-5
//! pipeline is priced (one interaction per clock, its stages
//! overlapped): timing it cut short after each stage mis-priced the
//! stages that overlap (DESIGN.md, device kernel). Where the CPU has the
//! AVX-512VL column and sixteen LNS lanes, both kernels are also timed
//! on the AVX2 column and at eight lanes, in children pinned with
//! `G5_LANE_PATH=avx2` (`--split-only`) between re-measurements of this
//! process's own, each side with the divider floor of its own rounds:
//! the exact kernel's ratio to its floor at both columns, from one run.
//!
//! A **self call** — one board, forces on the very set it holds, the
//! call every `g5serve` tenant makes — runs the symmetric exact kernel
//! (one front per unordered pair); its row times that call at
//! N ∈ {544, 1120, 1759} against the same pairs through the plain
//! kernel (the i-set reversed), on this process's accumulate column and,
//! where that is AVX-512VL, on the AVX2 column in the pinned children.
//!
//! All paths are proven bit-identical by `tests/golden_kernel.rs`;
//! this binary quantifies what each refactor bought. Results go to a
//! table, a `PhaseTimers` phase split for the headline run, and a
//! JSON report (default `artifacts/exp_kernel.json`, git-ignored — a
//! committed `BENCH_pr*.json` is only ever written by naming it; the
//! report of record is `BENCH_pr24.json`). Its rates are this machine's
//! wall clock: compare two builds on the same machine, not against a
//! committed report.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_kernel -- \
//!     [--quick] [--out artifacts/exp_kernel.json] [--split-only]
//! ```

use g5_bench::report::{self, Row};
use g5_bench::{fmt_count, fmt_secs, plummer, row, rule, Args};
use g5util::counters::{FlopConvention, InteractionRate};
use g5util::fixed::RangeScaler;
use grape5::board::ProcessorBoard;
use grape5::pipeline::JWord;
use grape5::{bounding_window, ArithMode, Force, G5Pipeline, Grape5, Grape5Config, LanePath};
use std::time::Instant;
use treegrape::perf::PhaseTimers;

const SEED: u64 = 42;
const EPS: f64 = 0.01;

struct KernelResult {
    n: usize,
    mode: ArithMode,
    nj: u64,
    /// j-quantization + transfer time (the `set_j_particles` call).
    load_s: f64,
    batch: InteractionRate,
    reference: InteractionRate,
    /// Lane path the batch phase ran on (detected, or env-forced).
    lane: LanePath,
    /// The same batch kernel forced onto the scalar per-pair skeleton —
    /// the A/B partner of the lane path, bit-identical to it (`None`
    /// when the run itself is forced onto the skeleton).
    scalar: Option<InteractionRate>,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.batch.per_second() / self.reference.per_second()
    }

    /// Lane kernel vs the scalar batch skeleton.
    fn lane_speedup(&self) -> Option<f64> {
        self.scalar.as_ref().map(|s| self.batch.per_second() / s.per_second())
    }
}

fn mode_str(mode: ArithMode) -> &'static str {
    match mode {
        ArithMode::Exact => "exact",
        ArithMode::Lns => "lns",
    }
}

fn lane_str(path: LanePath) -> &'static str {
    match path {
        LanePath::Avx2 => "avx2",
        LanePath::Scalar => "scalar",
    }
}

/// Whether `path` runs its AVX-512 kernels in this process — the rule
/// of `grape5::lanes`, restated here because the library exposes the
/// path, not the kernels under it: where the CPU has FMA and AVX-512 F,
/// BW, DQ and VL the x86 path accumulates on the AVX-512VL op column in
/// both modes and runs sixteen LNS lanes, unless `G5_LANE_PATH=avx2`
/// pins the AVX2 column and eight.
fn wide_kernels(path: LanePath) -> bool {
    #[cfg(target_arch = "x86_64")]
    let has_wide = std::is_x86_feature_detected!("fma")
        && std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512bw")
        && std::is_x86_feature_detected!("avx512dq")
        && std::is_x86_feature_detected!("avx512vl");
    #[cfg(not(target_arch = "x86_64"))]
    let has_wide = false;
    let pinned = std::env::var("G5_LANE_PATH").as_deref() == Ok("avx2");
    path == LanePath::Avx2 && has_wide && !pinned
}

/// j-particles per group of the LNS lane kernel on `path`.
fn lns_lane_width(path: LanePath) -> usize {
    match path {
        LanePath::Avx2 if wide_kernels(path) => 16,
        LanePath::Avx2 => 8,
        LanePath::Scalar => 1,
    }
}

/// The op column of the fixed-point accumulate on `path` (the scalar
/// path has none: its own name).
fn acc_ops(path: LanePath) -> &'static str {
    match path {
        LanePath::Avx2 if wide_kernels(path) => "avx512vl",
        path => lane_str(path),
    }
}

/// Time one (N, mode) cell: open a device, make the j-set resident,
/// then run the batch and reference paths back to back on rotating
/// i-windows until each phase has both a minimum wall-clock and a
/// minimum interaction count behind it.
fn measure(n: usize, mode: ArithMode, quick: bool) -> KernelResult {
    let snap = plummer(n, SEED);
    let cfg = Grape5Config { mode, ..Grape5Config::paper() };
    let mut g5 = Grape5::open(cfg);
    let (lo, hi) = bounding_window(&snap.pos).expect("finite workload");
    g5.set_range(lo, hi);
    g5.set_eps(EPS);

    let t_load = Instant::now();
    g5.set_j_particles(&snap.pos, &snap.mass);
    let load_s = t_load.elapsed().as_secs_f64();
    let nj = g5.nj() as u64;

    // per-phase budgets: enough interactions to amortize call overheads
    // and a minimum wall-clock so fast cells are not quantization noise;
    // the slow reference path gets a smaller interaction budget. The two
    // phases are measured in alternating rounds so slow drift of the
    // machine (thermal, competing load) biases neither side of the ratio.
    let (batch_target, ref_target, min_s, rounds) = if quick {
        (4_000_000u64, 1_000_000u64, 0.02, 2u64)
    } else {
        (36_000_000u64, 9_000_000u64, 0.12, 3u64)
    };
    let ni_for = |target: u64| (target.div_ceil(nj).clamp(16, n as u64)) as usize;

    // warm the device, the converter tables, and the branch predictors
    let lane = g5.lane_path();
    let _ = g5.force_on(&snap.pos[..16.min(n)]);
    let _ = g5.force_on_reference(&snap.pos[..16.min(n)]);
    // both modes additionally A/B their lane kernel against the scalar
    // batch skeleton it replaced (bit-identical by the golden suite)
    let measure_scalar = lane != LanePath::Scalar;
    if measure_scalar {
        g5.set_lane_path(LanePath::Scalar);
        let _ = g5.force_on(&snap.pos[..16.min(n)]);
        g5.set_lane_path(lane);
    }

    let run = |g5: &mut Grape5, target: u64, reference: bool, off: &mut usize| {
        let ni = ni_for(target);
        let mut interactions = 0u64;
        let t = Instant::now();
        while interactions < target || t.elapsed().as_secs_f64() < min_s {
            let end = (*off + ni).min(n);
            let xi = &snap.pos[*off..end];
            let f = if reference { g5.force_on_reference(xi) } else { g5.force_on(xi) };
            assert_eq!(f.len(), xi.len());
            interactions += xi.len() as u64 * nj;
            *off = if end == n { 0 } else { end };
        }
        (interactions, t.elapsed().as_secs_f64())
    };

    let (mut bi, mut bs, mut ri, mut rs) = (0u64, 0.0f64, 0u64, 0.0f64);
    let (mut si, mut ss) = (0u64, 0.0f64);
    let (mut off_b, mut off_r, mut off_s) = (0usize, 0usize, 0usize);
    for _ in 0..rounds {
        let (i, s) = run(&mut g5, batch_target / rounds, false, &mut off_b);
        bi += i;
        bs += s;
        if measure_scalar {
            g5.set_lane_path(LanePath::Scalar);
            let (i, s) = run(&mut g5, ref_target / rounds, false, &mut off_s);
            si += i;
            ss += s;
            g5.set_lane_path(lane);
        }
        let (i, s) = run(&mut g5, ref_target / rounds, true, &mut off_r);
        ri += i;
        rs += s;
    }
    let batch = InteractionRate::new(bi, bs);
    let reference = InteractionRate::new(ri, rs);
    let scalar = measure_scalar.then(|| InteractionRate::new(si, ss));
    KernelResult { n, mode, nj, load_s, batch, reference, lane, scalar }
}

/// ns/interaction of one mode's whole AVX2 lane kernel, fastest of its
/// rounds.
struct KernelTime {
    n: usize,
    mode: ArithMode,
    /// Lanes per j-group of the kernel measured (4 × f64, 8 or 16 × i32).
    lanes: usize,
    /// The accumulate op column it ended in ([`acc_ops`]).
    ops: &'static str,
    ns: f64,
    /// Exact mode: [`divider_floor_ns`], fastest of the same rounds.
    floor_ns: Option<f64>,
}

impl KernelTime {
    /// Keep the faster of two measurements of the same kernel.
    fn keep_best(&mut self, other: &KernelTime) {
        assert_eq!(
            (self.mode, self.lanes, self.ops, self.n),
            (other.mode, other.lanes, other.ops, other.n)
        );
        self.ns = self.ns.min(other.ns);
        self.floor_ns = match (self.floor_ns, other.floor_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// The kernel's ratio to its divider floor (NaN without one).
    fn over_floor(&self) -> f64 {
        self.ns / self.floor_ns.unwrap_or(f64::NAN)
    }

    fn row(&self) -> Row {
        let row = row! {
            "n": self.n, "mode": mode_str(self.mode), "lanes": self.lanes, "acc_ops": self.ops,
            "unit": "ns_per_interaction", "kernel": self.ns,
        };
        match self.floor_ns {
            Some(floor) => {
                row.put("divider_floor", floor).put("kernel_over_floor", self.over_floor())
            }
            None => row,
        }
    }
}

/// The exact kernel's floor, ns per interaction: a loop of nothing but
/// the `vsqrtpd` and the two `vdivpd` every four interactions need by
/// the mode's definition (`r⁻¹ = 1/√r²`, `r⁻³ = r⁻¹/r²`), on independent
/// L1-resident operands, so the divider is the only thing waited on.
#[cfg(target_arch = "x86_64")]
fn divider_floor_ns() -> f64 {
    use std::arch::x86_64::*;
    #[target_feature(enable = "avx2")]
    unsafe fn pass(r2: &[f64]) -> f64 {
        let one = _mm256_set1_pd(1.0);
        let mut sink = _mm256_setzero_pd();
        for c in r2.chunks_exact(4) {
            // SAFETY: a chunk of chunks_exact(4) is four doubles.
            let v = _mm256_loadu_pd(c.as_ptr());
            let rinv = _mm256_div_pd(one, _mm256_sqrt_pd(v));
            sink = _mm256_xor_pd(sink, _mm256_div_pd(rinv, v));
        }
        _mm256_cvtsd_f64(sink)
    }
    let r2: Vec<f64> = (0..2_048).map(|k| 0.5 + f64::from(k) * 1e-3).collect();
    let passes = 256;
    let t = Instant::now();
    for _ in 0..passes {
        // SAFETY: only called from `kernel_time` on the AVX2 lane path,
        // i.e. where AVX2 was detected.
        std::hint::black_box(unsafe { pass(std::hint::black_box(&r2)) });
    }
    t.elapsed().as_secs_f64() * 1e9 / (passes * r2.len()) as f64
}

/// No AVX2 kernel, no floor row (`kernel_time` is `None` before this).
#[cfg(not(target_arch = "x86_64"))]
fn divider_floor_ns() -> f64 {
    f64::INFINITY
}

/// Time `mode`'s whole AVX2 kernel (fastest round) on a resident
/// Plummer j-set, one board, this thread. `None` when that kernel is not
/// running on the AVX2 lanes.
fn kernel_time(mode: ArithMode, n: usize, quick: bool) -> Option<KernelTime> {
    let snap = plummer(n, SEED);
    let cfg = Grape5Config { mode, ..Grape5Config::paper() };
    let (lo, hi) = bounding_window(&snap.pos).expect("finite workload");
    let scaler = RangeScaler::new(lo, hi, cfg.coord_bits);
    let pipe = G5Pipeline::new(&cfg, scaler.quantum(), EPS);
    let quant =
        |p: &g5util::vec3::Vec3| [scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z)];
    let raw: Vec<[i64; 3]> = snap.pos.iter().map(quant).collect();
    let words: Vec<JWord> = raw
        .iter()
        .zip(&snap.mass)
        .map(|(&raw, &m)| JWord { raw, m_lns: pipe.encode_mass(m), m })
        .collect();
    if pipe.lane_path() != LanePath::Avx2 {
        return None;
    }
    let mut board = ProcessorBoard::new(&cfg);
    board.load_j(&words);
    let j = board.j_slices();
    let ni = if quick { 64 } else { 256 }.min(n);
    let rounds = if quick { 3 } else { 7 };
    let mut out = vec![Force::ZERO; ni];
    let (mut ns, mut floor_ns) = (f64::INFINITY, f64::INFINITY);
    for round in 0..=rounds {
        let xi = &raw[(round * ni) % (n - ni + 1)..][..ni];
        let t = Instant::now();
        pipe.interact_block(xi, &j, 1.0, cfg.acc_format, &mut out);
        if round > 0 {
            // round 0 warms caches and ROMs
            ns = ns.min(t.elapsed().as_secs_f64() * 1e9 / (ni * n) as f64);
        }
        if mode == ArithMode::Exact {
            floor_ns = floor_ns.min(divider_floor_ns());
        }
    }
    let floor_ns = floor_ns.is_finite().then_some(floor_ns);
    let lanes = match mode {
        ArithMode::Exact => 4,
        ArithMode::Lns => lns_lane_width(pipe.lane_path()),
    };
    let ops = acc_ops(pipe.lane_path());
    Some(KernelTime { n, mode, lanes, ops, ns, floor_ns })
}

/// Set sizes of the self-call row.
const SELF_CALL_NS: [usize; 3] = [544, 1_120, 1_759];

/// One self-call cell: ns/interaction of a one-board self call (the
/// symmetric kernel) and of the same pairs with the i-set reversed (the
/// plain kernel), fastest of alternating rounds.
struct SelfCall {
    n: usize,
    /// The accumulate op column both ran on ([`acc_ops`]).
    ops: &'static str,
    self_ns: f64,
    plain_ns: f64,
}

impl SelfCall {
    fn keep_best(&mut self, other: &SelfCall) {
        assert_eq!((self.n, self.ops), (other.n, other.ops));
        self.self_ns = self.self_ns.min(other.self_ns);
        self.plain_ns = self.plain_ns.min(other.plain_ns);
    }

    fn row(&self) -> Row {
        row! {
            "n": self.n, "acc_ops": self.ops, "unit": "ns_per_interaction",
            "self_ns": self.self_ns, "plain_ns": self.plain_ns,
            "self_speedup": self.plain_ns / self.self_ns,
        }
    }
}

/// The self-call cells, exact mode, on one board. `None` where the x86
/// lanes do not run (the symmetric kernel is theirs).
fn self_calls(quick: bool) -> Option<Vec<SelfCall>> {
    let cfg = Grape5Config { boards: 1, ..Grape5Config::paper_exact() };
    let rounds = if quick { 3 } else { 7 };
    let mut cells = Vec::new();
    for n in SELF_CALL_NS {
        let snap = plummer(n, SEED);
        let mut g5 = Grape5::open(cfg);
        let (lo, hi) = bounding_window(&snap.pos).expect("finite workload");
        g5.set_range(lo, hi);
        g5.set_eps(EPS);
        g5.set_j_particles(&snap.pos, &snap.mass);
        if g5.lane_path() != LanePath::Avx2 {
            return None;
        }
        let reversed: Vec<_> = snap.pos.iter().rev().copied().collect();
        let time = |g5: &mut Grape5, xi: &[g5util::vec3::Vec3]| {
            let t = Instant::now();
            let f = g5.force_on(xi);
            (t.elapsed().as_secs_f64() * 1e9 / (n * n) as f64, f)
        };
        let (mut self_ns, mut plain_ns) = (f64::INFINITY, f64::INFINITY);
        for round in 0..=rounds {
            let (s, fs) = time(&mut g5, &snap.pos);
            let (p, fp) = time(&mut g5, &reversed);
            assert!(fs.iter().eq(fp.iter().rev()), "N = {n}: the two kernels disagree");
            if round > 0 {
                (self_ns, plain_ns) = (self_ns.min(s), plain_ns.min(p)); // round 0 warms
            }
        }
        cells.push(SelfCall { n, ops: acc_ops(g5.lane_path()), self_ns, plain_ns });
    }
    Some(cells)
}

fn self_call_table(cells: &[SelfCall]) {
    println!();
    println!(
        "E10 — self calls: one board, forces on its own j-set, exact mode ({} accumulate)",
        cells[0].ops
    );
    rule(78);
    println!("{:>8} {:>22} {:>22} {:>12}", "N", "symmetric ns/int", "plain ns/int", "speedup");
    rule(78);
    for c in cells {
        println!(
            "{:>8} {:>22.3} {:>22.3} {:>11.2}x",
            c.n,
            c.self_ns,
            c.plain_ns,
            c.plain_ns / c.self_ns
        );
    }
    rule(78);
    println!("(plain: the same pairs with the i-set reversed, which is not a self call)");
}

/// `--split-only`: both kernel rows and the self-call cells as their
/// report rows, nothing else.
fn print_kernels(n: usize, quick: bool) {
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        if let Some(k) = kernel_time(mode, n, quick) {
            println!("{}", k.row().line());
        }
    }
    for cell in self_calls(quick).into_iter().flatten() {
        println!("{}", cell.row().line());
    }
}

/// The two kernels and the self-call cells of a child of this binary
/// pinned to the AVX2 op column and eight LNS lanes
/// (`G5_LANE_PATH=avx2 --split-only`), read back from its report lines.
fn kernels_pinned_to_avx2(n: usize, quick: bool) -> Option<([KernelTime; 2], Vec<SelfCall>)> {
    let mut cmd = std::process::Command::new(std::env::current_exe().ok()?);
    cmd.arg("--split-only").env("G5_LANE_PATH", "avx2");
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    // the pin held: the child says which column it ran
    let ops = "avx2";
    let read = |mode: ArithMode| {
        let line = text.lines().find(|l| {
            report::num(l, "kernel").is_some()
                && report::text(l, "mode").as_deref() == Some(mode_str(mode))
        })?;
        let (lanes, ns) = (report::num(line, "lanes")? as usize, report::num(line, "kernel")?);
        let floor_ns = report::num(line, "divider_floor");
        (report::num(line, "n")? as usize == n && report::text(line, "acc_ops")? == ops)
            .then_some(KernelTime { n, mode, lanes, ops, ns, floor_ns })
    };
    let cells = text.lines().filter(|l| report::num(l, "self_ns").is_some()).map(|l| {
        (report::text(l, "acc_ops")? == ops).then_some(SelfCall {
            n: report::num(l, "n")? as usize,
            ops,
            self_ns: report::num(l, "self_ns")?,
            plain_ns: report::num(l, "plain_ns")?,
        })
    });
    let kernels = [read(ArithMode::Exact)?, read(ArithMode::Lns)?];
    Some((kernels, cells.collect::<Option<_>>()?))
}

/// Every kernel measured, whole, beside the exact ones' divider floor.
fn kernel_table<'a>(kernels: impl Iterator<Item = &'a KernelTime>) {
    let kernels: Vec<&KernelTime> = kernels.collect();
    let Some(first) = kernels.first() else {
        return println!("(lane kernels: need the AVX2 lane path; skipped)");
    };
    println!();
    println!(
        "E10 — whole lane kernels, ns/interaction (N = {}, one board, one thread)",
        fmt_count(first.n as u64)
    );
    rule(78);
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>16} {:>14}",
        "mode", "lanes", "accumulate", "ns/int", "divider floor", "kernel/floor"
    );
    rule(78);
    for k in kernels {
        let width = if k.mode == ArithMode::Exact { "f64" } else { "i32" };
        let (floor, over) = match k.floor_ns {
            Some(f) => (format!("{f:.2}"), format!("{:.2}x", k.over_floor())),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<8} {:>12} {:>10} {:>10.2} {:>16} {:>14}",
            mode_str(k.mode),
            format!("{} × {width}", k.lanes),
            k.ops,
            k.ns,
            floor,
            over
        );
    }
    rule(78);
    println!(
        "(divider floor: 1 vsqrtpd + 2 vdivpd per 4 lanes, timed in the exact kernel's rounds)"
    );
}

fn result_row(r: &KernelResult) {
    let (scalar_col, lane_col) = match &r.scalar {
        Some(s) => {
            (format!("{:.3e}", s.per_second()), format!("{:.2}x", r.lane_speedup().unwrap()))
        }
        None => ("-".to_string(), "-".to_string()),
    };
    println!(
        "{:>8} {:>6} {:>12.3e} {:>10.1} {:>12} {:>8} {:>12.3e} {:>9.2}x {:>9.2}",
        r.n,
        mode_str(r.mode),
        r.batch.per_second(),
        r.batch.ns_per_interaction(),
        scalar_col,
        lane_col,
        r.reference.per_second(),
        r.speedup(),
        r.batch.gflops(FlopConvention::WarrenSalmon38),
    );
}

/// The headline run's wall-clock split in `PhaseTimers` form: j-load as
/// the build phase, the batch kernel as the device phase.
fn phase_split(r: &KernelResult) {
    let t = PhaseTimers {
        build_s: r.load_s,
        device_s: r.batch.seconds,
        force_wall_s: r.load_s + r.batch.seconds,
        ..PhaseTimers::default()
    };
    println!();
    println!(
        "E10 — phase split of the headline cell (N = {}, {} mode)",
        fmt_count(r.n as u64),
        mode_str(r.mode)
    );
    rule(78);
    println!("{:<34} {:>10} {:>14} {:>14}", "phase", "wall", "work", "ns/item");
    rule(78);
    println!(
        "{:<34} {:>10} {:>14} {:>14.1}",
        "j quantize + load (build_s)",
        fmt_secs(t.build_s),
        format!("{} words", fmt_count(r.nj)),
        t.build_s * 1e9 / r.nj as f64
    );
    println!(
        "{:<34} {:>10} {:>14} {:>14.1}",
        "batch force calls (device_s)",
        fmt_secs(t.device_s),
        format!("{:.2e} ints", r.batch.interactions as f64),
        r.batch.ns_per_interaction()
    );
    println!("{:<34} {:>10}", "force wall-clock (force_wall_s)", fmt_secs(t.force_wall_s));
    rule(78);
}

/// The report row of a cell; the lane A/B columns are `null` when the
/// run is forced onto the skeleton.
fn cell_row(r: &KernelResult) -> Row {
    let scalar = |f: fn(&InteractionRate) -> f64| r.scalar.as_ref().map(f);
    row! {
        "n": r.n, "mode": mode_str(r.mode), "nj": r.nj, "load_s": r.load_s,
        "batch_interactions": r.batch.interactions, "batch_seconds": r.batch.seconds,
        "batch_per_second": r.batch.per_second(),
        "batch_ns_per_interaction": r.batch.ns_per_interaction(),
        "batch_gflops38": r.batch.gflops(FlopConvention::WarrenSalmon38),
        "ref_interactions": r.reference.interactions, "ref_seconds": r.reference.seconds,
        "ref_per_second": r.reference.per_second(),
        "ref_ns_per_interaction": r.reference.ns_per_interaction(), "speedup": r.speedup(),
        "lane_path": lane_str(r.lane), "scalar_per_second": scalar(InteractionRate::per_second),
        "scalar_ns_per_interaction": scalar(InteractionRate::ns_per_interaction),
        "lane_speedup": r.lane_speedup(),
    }
}

fn main() {
    let args = Args::parse(&["quick", "out", "split-only"]);
    let quick = args.flag("quick");
    let out_path: String = args.get("out", "artifacts/exp_kernel.json".to_string());
    let sizes: &[usize] = if quick { &[4_096, 16_384] } else { &[16_384, 65_536, 262_144] };
    if args.flag("split-only") {
        return print_kernels(sizes[0], quick);
    }

    println!(
        "E10: batched SoA kernel vs pre-batch scalar reference (same run, same resident j-set{})",
        if quick { ", --quick" } else { "" }
    );
    println!("     workload: Plummer sphere, seed {SEED}, eps {EPS}; both paths bit-identical");
    println!();
    rule(96);
    println!(
        "{:>8} {:>6} {:>12} {:>10} {:>12} {:>8} {:>12} {:>10} {:>9}",
        "N",
        "mode",
        "batch i/s",
        "ns/int",
        "scalar i/s",
        "lane x",
        "ref i/s",
        "speedup",
        "Gflops38"
    );
    rule(96);
    let mut results = Vec::new();
    for &n in sizes {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let r = measure(n, mode, quick);
            result_row(&r);
            results.push(r);
        }
    }
    rule(96);
    println!("(Gflops38: batch rate priced at the paper's 38 ops/interaction convention)");
    println!("(scalar i/s / lane x: the batch kernel forced onto the scalar per-pair skeleton)");

    // phase split for the largest LNS cell — the acceptance workload
    let headline = results
        .iter()
        .filter(|r| r.mode == ArithMode::Lns)
        .max_by_key(|r| r.n)
        .expect("at least one LNS cell");
    phase_split(headline);
    println!();
    println!(
        "headline: N = {} LNS batch is {:.2}x the scalar reference (gate: >= 3x at N = 65536)",
        fmt_count(headline.n as u64),
        headline.speedup()
    );

    // LNS lane headline — the PR 12 acceptance gate — and the whole kernels
    let lns_lane: Vec<&KernelResult> =
        results.iter().filter(|r| r.mode == ArithMode::Lns && r.scalar.is_some()).collect();
    if let Some(worst) = lns_lane
        .iter()
        .min_by(|a, b| a.lane_speedup().unwrap().total_cmp(&b.lane_speedup().unwrap()))
    {
        println!(
            "headline: LNS-mode {} lanes ({} per group) are {:.2}x the scalar batch skeleton at \
             N = {} ({:.2}x at their worst N = {}; gate: >= 2x at every N)",
            lane_str(headline.lane),
            lns_lane_width(headline.lane),
            headline.lane_speedup().unwrap(),
            fmt_count(headline.n as u64),
            worst.lane_speedup().unwrap(),
            fmt_count(worst.n as u64)
        );
    }
    let mut kernels: Vec<KernelTime> = [ArithMode::Exact, ArithMode::Lns]
        .into_iter()
        .filter_map(|mode| kernel_time(mode, sizes[0], quick))
        .collect();
    // on the AVX-512 kernels: the same two on the AVX2 op column and at
    // eight lanes, from pinned children, in rounds that alternate with
    // re-measurements of this process's own (fastest on either side,
    // each side's divider floor from its own rounds)
    let mut own_self = self_calls(quick);
    let mut pinned: Option<[KernelTime; 2]> = None;
    let mut pinned_self: Option<Vec<SelfCall>> = None;
    if kernels.iter().any(|k| k.ops == "avx512vl") {
        for _ in 0..if quick { 2 } else { 3 } {
            let Some((child, child_self)) = kernels_pinned_to_avx2(sizes[0], quick) else { break };
            match &mut pinned {
                Some(best) => best.iter_mut().zip(&child).for_each(|(b, c)| b.keep_best(c)),
                None => pinned = Some(child),
            }
            match &mut pinned_self {
                Some(best) => best.iter_mut().zip(&child_self).for_each(|(b, c)| b.keep_best(c)),
                None => pinned_self = Some(child_self),
            }
            for own in &mut kernels {
                own.keep_best(&kernel_time(own.mode, sizes[0], quick).expect("ran before"));
            }
            if let (Some(own), Some(again)) = (&mut own_self, self_calls(quick)) {
                own.iter_mut().zip(&again).for_each(|(b, c)| b.keep_best(c));
            }
        }
    }
    kernel_table(kernels.iter().chain(pinned.iter().flatten()));
    if let (Some([exact2, lns8]), [exact, lns]) = (&pinned, &kernels[..]) {
        println!(
            "headline: the exact kernel on the {} accumulate is {:.2}x itself on {} ({:.2} vs \
             {:.2} ns/interaction; kernel / divider floor {:.2} vs {:.2})",
            exact.ops,
            exact2.ns / exact.ns,
            exact2.ops,
            exact.ns,
            exact2.ns,
            exact.over_floor(),
            exact2.over_floor()
        );
        println!(
            "headline: the LNS kernel at {} lanes is {:.2}x itself at {} ({:.2} vs {:.2} \
             ns/interaction)",
            lns.lanes,
            lns8.ns / lns.ns,
            lns8.lanes,
            lns.ns,
            lns8.ns
        );
    }
    for cells in own_self.iter().chain(&pinned_self) {
        self_call_table(cells);
    }

    // exact-mode lane headline — the PR 8 acceptance gate
    if let Some(exact) = results
        .iter()
        .filter(|r| r.mode == ArithMode::Exact && r.scalar.is_some())
        .max_by_key(|r| r.n)
    {
        println!(
            "headline: N = {} exact-mode {} lanes are {:.2}x the scalar batch skeleton \
             (gate: >= 3x at N = 65536..262144)",
            fmt_count(exact.n as u64),
            lane_str(exact.lane),
            exact.lane_speedup().unwrap()
        );
    }

    let rows: Vec<Row> = results.iter().map(cell_row).collect();
    let mut out = row! {
        "experiment": "exp_kernel", "quick": quick, "seed": SEED, "eps": EPS,
        "ops_per_interaction": 38u64, "lns_lanes": lns_lane_width(headline.lane),
        "acc_ops": acc_ops(headline.lane),
    };
    let tagged =
        kernels.iter().map(|k| (k, "")).chain(pinned.iter().flatten().map(|k| (k, "_pinned_avx2")));
    for (k, tag) in tagged {
        out = out.put(&format!("{}_kernel{tag}", mode_str(k.mode)), k.row());
    }
    for (cells, tag) in
        own_self.iter().map(|c| (c, "")).chain(pinned_self.iter().map(|c| (c, "_pinned_avx2")))
    {
        out = out
            .put(&format!("self_calls{tag}"), cells.iter().map(SelfCall::row).collect::<Vec<_>>());
    }
    out.put("results", rows).write(&out_path);
    println!();
    println!("wrote {} results to {out_path}", results.len());
}
