//! **The paper's table as one checked run** — E1/E6, E2, E3, E4, E5,
//! E7, E8 and the ablations A1–A4 (`DESIGN.md` §5).
//!
//! Every section appends rows to one table. A row holds the claim (its
//! unit in the text), the paper's value, ours, the clock it is on
//! (`modeled` = priced by the GRAPE-5 clock model and
//! `HostModel::ds10()`, `count` = a deterministic measurement, `wall` =
//! this machine's time), N, the arithmetic mode, and either a band with
//! its written source — the paper's stated precision or a measured
//! spread — or the reason the row is `info`. Wall-clock rows are always
//! `info`. The run prints the table as markdown, writes it as a report
//! and the Figure 4 PGM beside it, and exits 1 when a checked row fails.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_paper -- [--quick] [--out artifacts/exp_paper.json]
//! ```
//!
//! `--quick` runs the small sizes and keeps only the `count` and
//! `modeled` rows, so its report is the same bytes on every run and on
//! every lane path. The run of record is `BENCH_paper.json`, written
//! only by naming it.
//!
//! The sections share one setup: a Plummer sphere and its one `f64`
//! direct-sum reference (E3.2, E4, A1, A3), a standard-CDM sphere (E1,
//! E7), `HostModel::ds10()` and `Grape5Config::paper()`. E2, E5 and E8
//! sweep N and build their own spheres.

use g5_bench::{cdm, plummer, row, Args};
use g5ic::{CosmologicalIc, Snapshot};
use g5tree::eval::{eval_group, PointForce};
use g5tree::mac::MacKind;
use g5tree::traverse::Traversal;
use g5tree::tree::{Tree, TreeConfig};
use g5util::counters::FlopConvention;
use g5util::fixed::RangeScaler;
use g5util::lns::LnsConfig;
use g5util::lns_table::GaussLogTable;
use g5util::stats::Summary;
use g5util::vec3::Vec3;
use grape5::pipeline::{G5Pipeline, JWord};
use grape5::{ClockReport, CostModel, DeviceSession, Grape5, Grape5Config};
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;
use treegrape::accuracy::compare;
use treegrape::backends::ForceSet;
use treegrape::clustering::{two_point_correlation, CorrelationConfig};
use treegrape::halos::{friends_of_friends, FofConfig};
use treegrape::perf::{step_time_at_ng, HostModel, PaperProjection, RunMeasurement};
use treegrape::render::{project_slab, SlabSpec};
use treegrape::{DirectGrape, DirectHost, ForceBackend, Simulation};
use treegrape::{TreeGrape, TreeGrapeConfig, TreeHost};

/// Softening of the Plummer sections.
const EPS: f64 = 0.01;
/// Softening of the CDM sections (≈ 0.25 Mpc in sphere-radius units).
const EPS_CDM: f64 = 0.005;
/// The paper's wall-clock for 999 steps, I/O included.
const PAPER_WALL_S: f64 = 30_141.0;
const COUNT: &str = "count";
const MODELED: &str = "modeled";
const WALL: &str = "wall";
/// The band of a claim the paper writes as "about x" / "around x".
const ABOUT: &str = "'about' with one significant digit: within a factor 2 of the paper's value";
const SMALL_N: &str = "info: the paper's value is a 2.16 M-particle run averaged over \
                       z = 24 -> 0; this is one epoch at small N (ROADMAP item 5 checks it)";
const SWEEP: &str = "info: one point of the sweep";
const ABLATION: &str = "info: an ablation; the paper reports none";
const WALL_CLOCK: &str = "info: wall clock";

/// One line of the table (see the module doc).
struct Check {
    id: &'static str,
    claim: String,
    paper: Option<f64>,
    ours: f64,
    clock: &'static str,
    n: usize,
    mode: &'static str,
    /// `[lo, hi]` that `ours` must lie in; `None` for an `info` row.
    band: Option<(f64, f64)>,
    /// Where the band comes from, or why the row is `info`.
    source: &'static str,
}

impl Check {
    fn clock(&mut self, clock: &'static str) -> &mut Check {
        self.clock = clock;
        self
    }

    fn paper(&mut self, paper: f64) -> &mut Check {
        self.paper = Some(paper);
        self
    }

    fn within(&mut self, lo: f64, hi: f64, source: &'static str) -> &mut Check {
        (self.band, self.source) = (Some((lo, hi)), source);
        self
    }

    fn info(&mut self, why: &'static str) -> &mut Check {
        self.source = why;
        self
    }

    fn verdict(&self) -> &'static str {
        match self.band {
            Some((lo, hi)) if self.clock != WALL => {
                if (lo..=hi).contains(&self.ours) {
                    "pass"
                } else {
                    "fail"
                }
            }
            _ => "info",
        }
    }
}

/// What every section shares, and the rows so far.
struct Setup {
    quick: bool,
    /// The Plummer sphere of E3.2, E4, A1 and A3 ...
    plummer: Snapshot,
    /// ... and its `f64` direct-sum forces, the reference of every
    /// force error.
    exact: ForceSet,
    /// The standard-CDM sphere of E1 and E7.
    cdm: CosmologicalIc,
    host: HostModel,
    hw: Grape5Config,
    rows: Vec<Check>,
    /// The section, N and arithmetic mode of the next rows.
    at: (&'static str, usize, &'static str),
}

impl Setup {
    fn new(quick: bool) -> Setup {
        let plummer = plummer(if quick { 16_384 } else { 32_768 }, 17);
        let exact = DirectHost::new(EPS).compute(&plummer.pos, &plummer.mass);
        let (host, hw) = (HostModel::ds10(), Grape5Config::paper());
        let cdm = cdm(16_384, 1999);
        Setup { quick, plummer, exact, cdm, host, hw, rows: Vec::new(), at: ("", 0, "-") }
    }

    /// The quick or the full value of a size.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Rows from here on belong to section `id`, at `n` in `mode`.
    fn section(&mut self, id: &'static str, n: usize, mode: &'static str) {
        self.at = (id, n, mode);
    }

    /// A new `count` row; its builders make it checked or `info`.
    fn row(&mut self, claim: impl Into<String>, ours: f64) -> &mut Check {
        let ((id, n, mode), claim) = (self.at, claim.into());
        let (paper, clock, band, source) = (None, COUNT, None, "");
        self.rows.push(Check { id, claim, paper, ours, clock, n, mode, band, source });
        self.rows.last_mut().expect("just pushed")
    }
}

fn main() {
    let args = Args::parse(&["quick", "out"]);
    let out: String = args.get("out", "artifacts/exp_paper.json".to_string());
    let figure = Path::new(&out).with_file_name("figure4.pgm");
    if let Some(dir) = figure.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    let mut s = Setup::new(args.flag("quick"));
    e5_peak(&mut s);
    e6_cost(&mut s);
    e1_performance(&mut s);
    e2_optimal_ng(&mut s);
    e3_accuracy(&mut s);
    e4_modified_vs_original(&mut s);
    e7_figure4(&mut s, &figure);
    e8_scaling(&mut s);
    ablations(&mut s);
    if s.quick {
        s.rows.retain(|c| c.clock != WALL);
    }

    println!("| id | claim | paper | ours | clock | N | mode | band | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for c in &s.rows {
        let band = c.band.map_or(String::new(), |(lo, hi)| format!("[{}, {}]: ", sig(lo), sig(hi)));
        let paper = c.paper.map_or("—".to_string(), sig);
        let (id, claim, ours, verdict) = (c.id, &c.claim, sig(c.ours), c.verdict());
        let (clock, n, mode, source) = (c.clock, c.n, c.mode, c.source);
        println!("| {id} | {claim} | {paper} | {ours} | {clock} | {n} | {mode} | {band}{source} | {verdict} |");
    }
    let rows: Vec<_> = s
        .rows
        .iter()
        .map(|c| {
            row! {
                "id": c.id, "claim": c.claim.as_str(), "paper": c.paper, "ours": c.ours,
                "clock": c.clock, "n": c.n, "mode": c.mode, "lo": c.band.map(|b| b.0),
                "hi": c.band.map(|b| b.1), "source": c.source, "verdict": c.verdict(),
            }
        })
        .collect();
    let failed: Vec<&Check> = s.rows.iter().filter(|c| c.verdict() == "fail").collect();
    let checked = s.rows.iter().filter(|c| c.verdict() != "info").count();
    row! {
        "experiment": "exp_paper", "quick": s.quick, "checked": checked, "failed": failed.len(),
        "rows": rows,
    }
    .write(&out);
    let figure = figure.display();
    println!("\n{checked} checked rows, {} failed; report {out}, Figure 4 {figure}", failed.len());
    for c in &failed {
        eprintln!("FAIL {}: {} = {} outside {:?}: {}", c.id, c.claim, c.ours, c.band, c.source);
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// `v` to six significant digits, trailing zeros dropped.
fn sig(v: f64) -> String {
    let a = v.abs();
    if !v.is_finite() || (a != 0.0 && !(1e-3..1e9).contains(&a)) {
        return format!("{v:.5e}");
    }
    let decimals = if a == 0.0 { 0 } else { (5 - a.log10().floor() as i32).max(0) as usize };
    let s = format!("{v:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// RMS of the relative force errors `|a − a_ref| / |a_ref|`.
fn rms_error(pairs: impl Iterator<Item = (Vec3, Vec3)>) -> f64 {
    let errors: Vec<f64> = pairs.map(|(a, r)| (a - r).norm() / r.norm()).collect();
    Summary::of(&errors).rms()
}

/// E5 — §2: "The theoretical peak speed of the GRAPE-5 system is 109.44
/// Gflops. Total number of pipeline processors is 32. Each processor
/// pipeline operates 38 operations in a clock cycle." Direct N² sums
/// through the simulated system show the saturation toward it.
fn e5_peak(s: &mut Setup) {
    let hw = s.hw;
    s.section("E5", 0, "-");
    s.row("GRAPE-5 peak = 32 pipes x 90 MHz x 38 ops (Gflops)", hw.peak_flops() / 1e9)
        .clock(MODELED)
        .paper(109.44)
        .within(109.435, 109.445, "the paper's printed digits (109.44 +- 0.005)");
    s.row("pipeline processors", hw.total_pipes() as f64).paper(32.0).within(32.0, 32.0, "exact");
    let (mut n, mut last) = (1024, None);
    while n <= s.pick(16_384, 65_536) {
        let snap = plummer(n, 23);
        let mut direct = DirectGrape::new(Grape5Config::paper_exact(), EPS);
        direct.compute(&snap.pos, &snap.mass);
        let report = direct.grape_accounting().expect("a GRAPE backend").report(&hw);
        s.section("E5", n, "exact");
        s.row(format!("direct sum at N = {n}: sustained Gflops"), report.gflops())
            .clock(MODELED)
            .info("info: the paper gives no direct-sum curve; interface words and latency set it");
        (last, n) = (Some((n, report)), n * 2);
    }
    // the pipelines alone: each board streams its N/2 j-words past 16
    // i-particles per pass, one j per cycle after a 56-cycle fill
    let (n, report) = last.expect("at least one N");
    let pipes = ClockReport { transfer_s: 0.0, latency_s: 0.0, hidden_s: 0.0, ..report }.gflops();
    let half = (n / 2) as f64;
    let schedule = 32.0 * 90e6 * 38.0 / 1e9 * half / (half + 56.0);
    s.row(format!("pipelines alone at N = {n}: 109.44 x (N/2) / (N/2 + 56) Gflops"), pipes)
        .clock(MODELED)
        .paper(schedule)
        .within(
            schedule * (1.0 - 1e-9),
            schedule * (1.0 + 1e-9),
            "the pipeline schedule (one j per cycle per pipe, 56 cycles of fill per 16-i pass), \
             up to f64 rounding",
        );
}

/// E6 — §4–§5: the cost and speed arithmetic from the paper's own
/// printed inputs.
fn e6_cost(s: &mut Setup) {
    let cost = CostModel::paper();
    let gflops =
        |interactions| FlopConvention::WarrenSalmon38.flops_rate(interactions, PAPER_WALL_S) / 1e9;
    s.section("E6", 0, "-");
    s.row("system cost: 2 x 1.65 M + 1.4 M JPY at 115 JPY/$ ($)", cost.total_usd())
        .paper(40_900.0)
        .within(40_850.0, 40_950.0, "the paper's 'about $40,900' to its printed digits (+- 50)");
    s.row("raw Gflops = 2.90e13 interactions x 38 ops / 30,141 s", gflops(29_000_000_000_000))
        .paper(36.4)
        .within(
            36.35,
            36.6,
            "the paper's 36.4 to its printed digit (+- 0.05), widened up to 36.56: what its own \
             printed inputs give (the 30,141 s include I/O)",
        );
    s.row(
        "effective Gflops = 4.69e12 original-tree interactions x 38 / 30,141 s",
        gflops(4_690_000_000_000),
    )
    .paper(5.92)
    .within(
        5.91,
        5.925,
        "the paper's 5.92 to its printed digit (+- 0.005), widened down to 5.913: what its \
         own printed inputs give",
    );
    s.row("$/Mflops = $40,870 / 5.92 Gflops", cost.price_performance(5.92e9).usd_per_mflops)
        .paper(7.0)
        .within(
            6.9,
            7.05,
            "the paper's $7.0 to its printed digit (+- 0.05), widened down to $6.90: its own \
             inputs give $40,870 / 5.92 Gflops = $6.90, which it rounds to $7.0 \
             (grape5/src/cost.rs:78)",
        );
}

/// E1 — §5: the modified treecode on the simulated GRAPE-5 over the
/// first steps of the CDM sphere's 999-step schedule, priced on the
/// DS10 + GRAPE-5 clocks at this N.
fn e1_performance(s: &mut Setup) {
    // θ = 0.6 is inferred from the paper: it reproduces both the ≈ 0.1 %
    // force error of §2 and the original-algorithm per-target list
    // length 4.69e12 / (N · 999) = 2173 far better than the usual 0.75
    let (theta, steps) = (0.6, s.pick(2, 4));
    let (ic, n) = (&s.cdm, s.cdm.snapshot.len());
    let cfg = TreeGrapeConfig { theta, ..TreeGrapeConfig::paper(EPS_CDM) };
    let wall = Instant::now();
    let mut sim = Simulation::new(ic.snapshot.clone(), TreeGrape::new(cfg), ic.units.run_span().0);
    sim.run_schedule(&ic.units.a_uniform_schedule(999)[..steps]);
    let measured_wall_s = wall.elapsed().as_secs_f64();
    // the first evaluation, then one per step; §5's correction is the
    // original algorithm's count on the final snapshot
    let evals = steps as u64 + 1;
    let tree = Tree::build(&sim.state.pos, &sim.state.mass);
    let original_interactions = Traversal::new(theta).original_tally(&tree).interactions * evals;
    let (modified, grape, n_crit) = (sim.tally(), sim.backend().accounting(), cfg.n_crit);
    let m = RunMeasurement {
        n,
        steps: evals,
        theta,
        n_crit,
        modified,
        original_interactions,
        grape,
        measured_wall_s,
    };
    let ours = PaperProjection::project(&m, &s.host, &s.hw, &CostModel::paper());
    let paper = PaperProjection::paper_reference();
    let ratio = |p: &PaperProjection| p.interactions as f64 / p.original_interactions as f64;
    s.section("E1", n, "exact");
    for (claim, clock, paper, ours) in [
        ("mean interaction-list length", COUNT, paper.avg_list_len, ours.avg_list_len),
        ("modified / original-tree interactions", COUNT, ratio(&paper), ratio(&ours)),
        (
            "seconds per step (DS10 host + GRAPE-5)",
            MODELED,
            PAPER_WALL_S / 999.0,
            ours.step.total_s(),
        ),
        ("raw Gflops (38 ops)", MODELED, paper.raw_gflops, ours.raw_gflops),
        ("effective Gflops", MODELED, paper.effective_gflops, ours.effective_gflops),
        ("$/Mflops", MODELED, 7.0, ours.price.usd_per_mflops),
    ] {
        s.row(claim, ours).clock(clock).paper(paper).info(SMALL_N);
    }
    let ns = m.modified.rate(measured_wall_s).ns_per_interaction();
    s.row("this machine: ns per interaction", ns).clock(WALL).info(WALL_CLOCK);
}

/// E2 — §3: "There is, therefore, an optimal n_g at which the total
/// computing time is minimum. [...] the optimal n_g is around 2000."
/// At N = 16,384 every n_g ≥ 4000 is the same 8 groups; 32,768 is the
/// smallest N that separates the sweep around 2000.
fn e2_optimal_ng(s: &mut Setup) {
    let snap = plummer(s.pick(32_768, 131_072), 7);
    let n = snap.len();
    s.section("E2", n, "exact");
    let mut best = (0, f64::INFINITY);
    for n_crit in [125, 250, 500, 1000, 2000, 4000, 8000, 16000] {
        let mut tree_grape =
            TreeGrape::new(TreeGrapeConfig { n_crit, ..TreeGrapeConfig::paper(EPS) });
        let tally = tree_grape.compute(&snap.pos, &snap.mass).tally;
        let step = step_time_at_ng(&s.host, &s.hw, n, &tally, &tree_grape.accounting()).total_s();
        s.row(format!("seconds per step at n_g = {n_crit}, theta 0.75"), step)
            .clock(MODELED)
            .info(SWEEP);
        if step < best.1 {
            best = (n_crit, step);
        }
    }
    s.row("optimal group size n_g: the minimum of the step", best.0 as f64)
        .clock(MODELED)
        .paper(2000.0)
        .within(
            2000.0,
            2000.0,
            "the sweep's point at the paper's 'around 2000' (its neighbours are a factor 2 away)",
        );
}

/// E3 — §2: the pairwise error of the LNS pipeline ("about 0.3 %") and
/// the error budget of the whole system ("around 0.1 %, dominated by
/// the approximation made in the tree algorithm and not by the accuracy
/// of the hardware"; "practically the same [...] using standard 64-bit
/// floating point arithmetic"), by the force-error protocol of
/// Athanassoula et al.: every particle against the `f64` direct sum.
fn e3_accuracy(s: &mut Setup) {
    let cfg = Grape5Config::paper();
    let scaler = RangeScaler::new(-1.0, 1.0, cfg.coord_bits);
    let (pipe, q) = (G5Pipeline::new(&cfg, scaler.quantum(), 0.0), scaler.quantum());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
    let pairs = 20_000;
    let mut errors = Vec::with_capacity(pairs);
    while errors.len() < pairs {
        let raw = [(); 3].map(|_| scaler.quantize(rng.random_range(-0.9..0.9)));
        if raw != [0, 0, 0] {
            let m = rng.random_range(0.1..10.0);
            let f = pipe.interact([0, 0, 0], &JWord { raw, m_lns: pipe.encode_mass(m), m });
            let dx = Vec3::new(raw[0] as f64 * q, raw[1] as f64 * q, raw[2] as f64 * q);
            let exact = dx * (m / (dx.norm2() * dx.norm()));
            errors.push((f.acc - exact).norm() / exact.norm());
        }
    }
    s.section("E3.1", pairs, "lns");
    let pairwise = Summary::of(&errors).rms() * 100.0;
    s.row("pairwise force error of the LNS pipeline, RMS over random pairs (%)", pairwise)
        .paper(0.3)
        .within(0.15, 0.6, ABOUT);

    let (pos, mass, n) = (&s.plummer.pos, &s.plummer.mass, s.plummer.len());
    let rms = |fs: ForceSet| compare(&fs, &s.exact).rms * 100.0;
    // the paper's system: θ = 0.75, n_g = 2000, LNS arithmetic
    let lns = TreeGrapeConfig { grape: Grape5Config::paper(), ..TreeGrapeConfig::paper(EPS) };
    let system = rms(TreeGrape::new(lns).compute(pos, mass));
    let system64 = rms(TreeGrape::new(TreeGrapeConfig::paper(EPS)).compute(pos, mass));
    let tree = rms(TreeHost::modified(0.75, 2000, EPS).compute(pos, mass));
    let hardware = rms(DirectGrape::new(Grape5Config::paper(), EPS).compute(pos, mass));
    let share = hardware / tree;
    s.section("E3.2", n, "lns");
    s.row("force error of the system: tree + LNS GRAPE, theta 0.75, n_g 2000 (%)", system)
        .paper(0.1)
        .within(0.05, 0.2, ABOUT);
    let budget = "info: a term of the budget";
    s.row("hardware-only force error: direct sum on the LNS GRAPE (%)", hardware).info(budget);
    s.row("dominated by the tree: hardware-only / tree-only error", share).within(
        0.0,
        1.0 - 1e-9,
        "the paper's 'dominated by': the hardware's term is the smaller",
    );
    s.row(
        "practically the same in 64-bit arithmetic: LNS / 64-bit system error",
        system / system64,
    )
    .within(
        1.0 - share,
        1.0 + share,
        "the two differ by at most the hardware's own term, relative to the tree's: \
         abs(rms(a + b) - rms(a)) <= rms(b)",
    );
    s.section("E3.2", n, "f64");
    s.row("tree-only force error (%)", tree).info(budget);
}

/// E4 — §3 and §5: the modified algorithm evaluates more interactions
/// than the original one (2.90e13 against 4.69e12) and is "more
/// accurate [...] for the same accuracy parameter" (Barnes 1990, Kawai
/// & Makino 1999).
fn e4_modified_vs_original(s: &mut Setup) {
    let (pos, mass, n) = (&s.plummer.pos, &s.plummer.mass, s.plummer.len());
    let tree = Tree::build(pos, mass);
    let mut sweep = Vec::new();
    for theta in [0.4, 0.6, 0.75, 0.9, 1.0, 1.2] {
        let traversal = Traversal::new(theta);
        let more = traversal.modified_tally(&tree, 2000).interactions as f64
            / traversal.original_tally(&tree).interactions as f64;
        let error = |mut host: TreeHost| compare(&host.compute(pos, mass), &s.exact).rms;
        let modified = error(TreeHost::modified(theta, 2000, EPS));
        sweep.push((theta, more, modified / error(TreeHost::original(theta, EPS))));
    }
    s.section("E4", n, "f64");
    for &(theta, more, accurate) in &sweep {
        s.row(format!("theta {theta}: modified / original interactions"), more).info(SWEEP);
        s.row(format!("theta {theta}: modified / original force error"), accurate).info(SWEEP);
    }
    let at_06 = sweep.iter().find(|p| p.0 == 0.6).map_or(f64::NAN, |p| p.1);
    s.row("the modified algorithm does more interactions (theta 0.6)", at_06)
        .paper(29.0 / 4.69)
        .within(
            1.0 + 1e-9,
            f64::INFINITY,
            "the paper's 2.90e13 > 4.69e12: more than the original algorithm; the factor itself \
             moves with N, n_g and clustering, so only its side of 1 is the claim",
        );
    let worst = sweep.iter().map(|p| p.2).fold(0.0, f64::max);
    s.row("modified more accurate at equal theta: worst error ratio of the sweep", worst).within(
        0.0,
        1.0 - 1e-9,
        "the paper's 'more accurate [...] for the same accuracy parameter'",
    );
}

/// E7 — Figure 4: the CDM sphere from z = 24 to z = 0, its slab
/// rendered to `figure`, and the clustering that picture shows.
fn e7_figure4(s: &mut Setup, figure: &Path) {
    let (ic, n) = (&s.cdm, s.cdm.snapshot.len());
    let initial = Tree::build(&ic.snapshot.pos, &ic.snapshot.mass);
    let cfg = TreeGrapeConfig { n_crit: 500, ..TreeGrapeConfig::paper(EPS_CDM) };
    let mut sim = Simulation::new(ic.snapshot.clone(), TreeGrape::new(cfg), ic.units.run_span().0);
    sim.run_schedule(&ic.units.a_uniform_schedule(s.pick(30, 150)));
    let state = &sim.state;
    // the paper's 45 x 45 x 2.5 Mpc slab; at a = 1 physical == comoving
    let spec = SlabSpec { center: state.center_of_mass(), ..SlabSpec::figure4(512) };
    project_slab(&state.pos, &spec).write_pgm(figure).expect("write the Figure 4 PGM");
    let bins = CorrelationConfig { r_min: 0.02, r_max: 1.0, bins: 8, ..Default::default() };
    let xi = two_point_correlation(&state.pos, &bins)[0];
    let fof = FofConfig { linking_b: 0.2, min_members: 32 };
    let halos = friends_of_friends(&state.pos, &state.mass, &fof);
    let in_halos: usize = halos.iter().map(|h| h.members.len()).sum();
    // clustering lengthens the lists over the run: the paper's 13,431 is
    // an average over increasingly clustered states
    let list = |t: &Tree| Traversal::new(0.6).modified_tally(t, 2000).mean_len_per_target(n as u64);
    let growth = list(&Tree::build(&state.pos, &state.mass)) / list(&initial);
    s.section("E7", n, "exact");
    s.row(format!("Figure 4 at z = 0: xi(r) at r = {:.3}", xi.r), xi.xi).within(
        1.0,
        f64::INFINITY,
        "xi > 1 is the nonlinear clustering Figure 4 shows",
    );
    let why = "info: the paper shows Figure 4 only";
    s.row("friends-of-friends halos (b 0.2, >= 32 members)", halos.len() as f64).info(why);
    s.row("particles in those halos (%)", 100.0 * in_halos as f64 / n as f64).info(why);
    s.row("list length growth z = 24 -> 0 (theta 0.6, n_g 2000)", growth)
        .info("info: the clustering between E1's epoch and the paper's run average");
}

/// E8 — §1: direct summation costs O(N²), the treecode O(N log N).
fn e8_scaling(s: &mut Setup) {
    let mut counts = Vec::new();
    let mut n = 4096;
    while n <= s.pick(16_384, 65_536) {
        let snap = plummer(n, 9);
        let t0 = Instant::now();
        let direct = DirectHost::new(EPS).compute(&snap.pos, &snap.mass).tally.interactions;
        let t1 = Instant::now();
        let tree = TreeHost::modified(0.75, 512, EPS).compute(&snap.pos, &snap.mass);
        let speedup = (t1 - t0).as_secs_f64() / t1.elapsed().as_secs_f64();
        s.section("E8", n, "f64");
        s.row(format!("treecode speed-up over direct summation at N = {n}"), speedup)
            .clock(WALL)
            .info(WALL_CLOCK);
        counts.push((n as f64, direct as f64, tree.tally.interactions as f64));
        n *= 2;
    }
    let ((n0, d0, t0), (n1, d1, t1)) = (counts[0], counts[counts.len() - 1]);
    let exponent = |a: f64, b: f64| (b / a).ln() / (n1 / n0).ln();
    s.row("direct summation is O(N^2): growth exponent of its interactions", exponent(d0, d1))
        .paper(2.0)
        .within(2.0 - 1e-9, 2.0 + 1e-9, "N^2 pairs per evaluation, up to f64 rounding");
    s.row("the treecode is O(N log N): growth exponent of its interactions", exponent(t0, t1))
        .paper(exponent(n0 * n0.log2(), n1 * n1.log2()))
        .within(1.0, 1.5, "above linear and below the midpoint to N^2, the two laws §1 contrasts");
}

/// A1–A4 — the design choices behind the system, on the shared Plummer
/// sphere: the pipeline's word length, the Gaussian-log ROM, the host
/// refinements a monopole-only pipeline cannot use, and the leaf size.
fn ablations(s: &mut Setup) {
    let (pos, mass, n) = (&s.plummer.pos, &s.plummer.mass, s.plummer.len());
    let mut rows = Vec::new();
    // A1 on every 16th particle against all N: a word length other than
    // GRAPE-5's runs the scalar kernel
    let targets: Vec<usize> = (0..n).step_by(16).collect();
    let xi: Vec<Vec3> = targets.iter().map(|&i| pos[i]).collect();
    for bits in [4u32, 6, 8, 10, 12, 16] {
        let lns = LnsConfig::new(bits, -512, 511);
        let mut g5 = Grape5::open(Grape5Config { lns, ..Grape5Config::paper() });
        let mut session = DeviceSession::open(&mut g5, pos, EPS);
        session.load_j(pos, mass);
        let forces = session.force_on(&xi);
        let rms = rms_error(forces.iter().zip(&targets).map(|(f, &i)| (f.acc, s.exact.acc[i])));
        let claim = format!("{bits} fractional LNS bits: force error of every 16th particle (%)");
        rows.push(("A1", "lns", COUNT, claim, rms * 100.0));
    }
    for addr in [4u32, 6, 8, 10, 12, 14] {
        let max_error = GaussLogTable::new(addr, 24, 16.0).sb_max_error(1 << 16);
        rows.push((
            "A2",
            "lns",
            COUNT,
            format!("{addr}-bit Gaussian-log ROM: max adder error"),
            max_error,
        ));
    }
    for (label, quadrupole, kind) in [
        ("monopole, Barnes-Hut MAC (GRAPE-5's)", false, MacKind::BarnesHut),
        ("monopole, min-distance MAC", false, MacKind::MinDistance),
        ("quadrupole, Barnes-Hut MAC", true, MacKind::BarnesHut),
        ("quadrupole, min-distance MAC", true, MacKind::MinDistance),
    ] {
        let tree = Tree::build_with(pos, mass, TreeConfig { quadrupole, ..TreeConfig::default() });
        let mut traversal = Traversal::new(0.9);
        traversal.mac.kind = kind;
        let (mut out, mut list) = (vec![PointForce::ZERO; n], Vec::new());
        for g in traversal.find_groups(&tree, 256) {
            traversal.modified_list(&tree, g, &mut list);
            eval_group(&tree, g, &list, EPS, &mut out);
        }
        let interactions = traversal.modified_tally(&tree, 256).interactions as f64;
        let rms = rms_error(out.iter().zip(&s.exact.acc).map(|(p, &r)| (p.acc, r)));
        rows.push((
            "A3",
            "f64",
            COUNT,
            format!("{label}, theta 0.9: force error (%)"),
            rms * 100.0,
        ));
        rows.push(("A3", "f64", COUNT, format!("{label}, theta 0.9: interactions"), interactions));
    }
    for leaf_capacity in [1usize, 4, 8, 16, 32] {
        let t0 = Instant::now();
        let tree =
            Tree::build_with(pos, mass, TreeConfig { leaf_capacity, ..TreeConfig::default() });
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let terms = Traversal::new(0.75).modified_tally(&tree, 256).terms as f64;
        let at = format!("leaf capacity {leaf_capacity}");
        rows.push(("A4", "f64", COUNT, format!("{at}: list terms, theta 0.75, n_crit 256"), terms));
        rows.push(("A4", "f64", WALL, format!("{at}: tree build (ms)"), build_ms));
    }
    for (id, mode, clock, claim, ours) in rows {
        s.section(id, if id == "A2" { 0 } else { n }, mode);
        s.row(claim, ours).clock(clock).info(if clock == WALL { WALL_CLOCK } else { ABLATION });
    }
}
