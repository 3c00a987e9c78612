//! **E7 — the Figure 4 snapshot.**
//!
//! Runs the cosmological sphere from z = 24 to z = 0 at laptop scale
//! with the paper's system, then renders the Figure 4 analog: particles
//! in a 45 × 45 × 2.5 Mpc slab of the final snapshot, written as a PGM
//! image and printed as terminal ASCII art. Also tracks Lagrangian
//! radii so the collapse/clustering is visible in numbers.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_snapshot -- \
//!     [--n 17000] [--steps 200] [--out artifacts/figure4.pgm] [--ascii 64] \
//!     [--checkpoint-every 20] [--checkpoint-dir figure4_ckpt] [--resume]
//! ```
//!
//! With `--checkpoint-every` set, the run writes periodic checkpoints
//! (checksummed snapshot + manifest); a killed run restarted with
//! `--resume` continues from the newest valid checkpoint and lands on
//! the same final state bit-for-bit.

use g5_bench::{cdm, fmt_secs, Args};
use g5tree::traverse::Traversal;
use g5tree::tree::Tree;
use treegrape::checkpoint::{latest, Checkpointer};
use treegrape::clustering::{two_point_correlation, CorrelationConfig};
use treegrape::diagnostics::lagrangian_radii;
use treegrape::halos::{friends_of_friends, FofConfig};
use treegrape::render::{project_slab, SlabSpec};
use treegrape::{Simulation, TreeGrape, TreeGrapeConfig};

fn main() {
    let args = Args::parse();
    let n_target: usize = args.get("n", 17_000);
    let steps: u64 = args.get("steps", 200);
    let out: String = args.get("out", "artifacts/figure4.pgm".to_string());
    let ascii_px: usize = args.get("ascii", 64);
    let ckpt_every: u64 = args.get("checkpoint-every", 0);
    let ckpt_dir: String = args.get("checkpoint-dir", "figure4_ckpt".to_string());
    let resume = args.flag("resume");

    println!("E7: cosmological run to z = 0 (target {n_target} particles, {steps} steps)");
    let ic = cdm(n_target, 4);
    let initial_state = ic.snapshot.clone();
    let n = ic.snapshot.len();
    let (t_init, _) = ic.units.run_span();
    // shared timesteps uniform in the scale factor (constant dt would
    // make the first step several initial dynamical times long)
    let schedule = ic.units.a_uniform_schedule(steps);
    let eps = 0.005;

    let cfg = TreeGrapeConfig { n_crit: 500, ..TreeGrapeConfig::paper(eps) };
    let wall = std::time::Instant::now();
    let ckpt = (ckpt_every > 0).then(|| {
        Checkpointer::new(std::path::Path::new(&ckpt_dir), ckpt_every)
            .expect("create checkpoint dir")
    });
    // a checkpoint's step index counts completed schedule entries, so
    // resuming means skipping that prefix of the (deterministic)
    // schedule — the restart lands on the same final state bit-for-bit
    let mut sim = match resume
        .then_some(())
        .and(ckpt.as_ref())
        .and_then(|c| latest(c.dir()).expect("scan checkpoint dir"))
    {
        Some(ck) => {
            println!("resuming from checkpoint at step {} (t = {:.6})", ck.step, ck.time);
            ck.resume(TreeGrape::new(cfg)).expect("resume simulation")
        }
        None => Simulation::new(ic.snapshot, TreeGrape::new(cfg), t_init),
    };
    let fractions = [0.1, 0.5, 0.9];
    let report_every = (steps / 10).max(1);
    println!();
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "step", "z(t)", "r10%", "r50%", "r90%", "energy"
    );
    for &t in &schedule[sim.steps as usize..] {
        if sim.steps % report_every == 0 {
            let r = lagrangian_radii(&sim.state, &fractions);
            let z = redshift_of(sim.time, &ic.units);
            println!(
                "{:>8} {:>10.2} {:>10.4} {:>10.4} {:>10.4} {:>12.5}",
                sim.steps,
                z,
                r[0],
                r[1],
                r[2],
                sim.total_energy()
            );
        }
        sim.step_to(t);
        if let Some(c) = &ckpt {
            c.maybe_write(&sim).expect("write checkpoint");
        }
    }
    let r = lagrangian_radii(&sim.state, &fractions);
    println!(
        "{:>8} {:>10.2} {:>10.4} {:>10.4} {:>10.4} {:>12.5}",
        steps,
        redshift_of(sim.time, &ic.units),
        r[0],
        r[1],
        r[2],
        sim.total_energy()
    );
    println!("run took {} on this machine, N = {n}", fmt_secs(wall.elapsed().as_secs_f64()));

    // Figure 4: slab projection of the final state. The paper plots a
    // 45x45x2.5 Mpc comoving box; our positions are physical at a = 1,
    // where physical == comoving.
    let com = sim.state.center_of_mass();
    let spec = SlabSpec { center: com, ..SlabSpec::figure4(512) };
    let map = project_slab(&sim.state.pos, &spec);
    let out_path = std::path::Path::new(&out);
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    map.write_pgm(out_path).expect("write PGM");
    println!();
    println!(
        "Figure 4 analog: {} particles in the 45x45x2.5 Mpc slab -> {out} ({}x{} PGM)",
        map.selected, map.pixels, map.pixels
    );

    // for the terminal view use a thicker slab: at laptop-scale N the
    // paper's 2.5 Mpc depth selects too few particles to see structure
    let small =
        SlabSpec { center: com, pixels: ascii_px, half_depth: 0.15, ..SlabSpec::figure4(ascii_px) };
    let art = project_slab(&sim.state.pos, &small);
    println!(
        "terminal rendering ({}x{} bins, 15 Mpc-deep slab, log surface density):",
        ascii_px, ascii_px
    );
    print!("{}", art.ascii());

    // clustering lengthens the interaction lists over the run — the
    // factor E1's paper-scale projection needs (the paper's 13,431 is a
    // run average over increasingly clustered states)
    let tr = Traversal::new(0.6);
    let t_init = Tree::build(&initial_state.pos, &initial_state.mass);
    let t_final = Tree::build(&sim.state.pos, &sim.state.mass);
    let (nc, nn) = (2000, n as u64);
    let len_i = tr.modified_tally(&t_init, nc).mean_len_per_target(nn);
    let len_f = tr.modified_tally(&t_final, nc).mean_len_per_target(nn);
    println!();
    println!(
        "clustering factor for E1: mean list length (theta=0.6, n_crit={nc}) grew {:.0} -> {:.0} ({:.2}x) over the run",
        len_i, len_f, len_f / len_i
    );

    // quantify the clustering: two-point correlation function at z = 0
    let xi = two_point_correlation(
        &sim.state.pos,
        &CorrelationConfig { r_min: 0.02, r_max: 1.0, bins: 8, ..Default::default() },
    );
    println!();
    println!("two-point correlation function (r in units of 50 Mpc):");
    println!("{:>10} {:>12} {:>12}", "r", "xi(r)", "DD pairs");
    for b in &xi {
        println!("{:>10.3} {:>12.2} {:>12}", b.r, b.xi, b.dd);
    }
    println!("(xi >> 1 at small r = nonlinear clustering; ~0 at the sphere scale)");

    // friends-of-friends halo catalog: the science product of the run
    let halos = friends_of_friends(
        &sim.state.pos,
        &sim.state.mass,
        &FofConfig { linking_b: 0.2, min_members: 32 },
    );
    println!();
    println!("friends-of-friends halos (b = 0.2, >= 32 members): {}", halos.len());
    println!("{:>6} {:>10} {:>12} {:>12}", "rank", "members", "mass frac", "rms radius");
    for (k, h) in halos.iter().take(8).enumerate() {
        println!("{:>6} {:>10} {:>12.4} {:>12.4}", k + 1, h.members.len(), h.mass, h.rms_radius);
    }
    let in_halos: usize = halos.iter().map(|h| h.members.len()).sum();
    println!(
        "fraction of particles in halos: {:.1} %",
        in_halos as f64 / sim.state.len() as f64 * 100.0
    );
}

/// Invert EdS t(z) for display: `1+z = (t0/t)^(2/3)`.
fn redshift_of(t: f64, units: &g5ic::SimUnits) -> f64 {
    let t0 = units.time(0.0);
    (t0 / t).powf(2.0 / 3.0) - 1.0
}
