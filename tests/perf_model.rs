//! Integration of the performance model with real traversals: the §3
//! trade-off (host cost falls with n_g, GRAPE cost rises) must emerge
//! from measured work, and the E1 projection must produce finite,
//! ordered quantities.

use grape5_nbody::core::perf::{step_time_at_ng, HostModel, PaperProjection, RunMeasurement};
use grape5_nbody::core::{ForceBackend, TreeGrape, TreeGrapeConfig};
use grape5_nbody::grape5::{CostModel, Grape5Config};
use grape5_nbody::ic::plummer_sphere;
use rand::SeedableRng;

fn breakdown_at(ng: usize, pos: &[grape5_nbody::util::Vec3], mass: &[f64]) -> (f64, f64) {
    let mut backend = TreeGrape::new(TreeGrapeConfig {
        n_crit: ng,
        grape: Grape5Config::paper_exact(),
        ..TreeGrapeConfig::paper(0.01)
    });
    let fs = backend.compute(pos, mass);
    let acc = backend.accounting();
    let b = step_time_at_ng(&HostModel::ds10(), &Grape5Config::paper(), pos.len(), &fs.tally, &acc);
    // host time falls with n_g; GRAPE *pipeline* work (the paper's
    // "amount of work on GRAPE-5") rises. Transfer time moves the
    // other way (fewer, longer j-loads), which is part of why the
    // total is U-shaped.
    (b.host_s, b.pipeline_s)
}

#[test]
fn host_cost_falls_and_grape_work_rises_with_ng() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(55);
    // the trade-off shows at any N of a few n_g; this N keeps the debug
    // kernel (the tier-1 build) to seconds
    let s = plummer_sphere(8_000, &mut rng);

    let (host_small, pipe_small) = breakdown_at(64, &s.pos, &s.mass);
    let (host_large, pipe_large) = breakdown_at(4096, &s.pos, &s.mass);

    assert!(host_large < host_small, "host cost must fall with n_g: {host_small} -> {host_large}");
    assert!(
        pipe_large > pipe_small,
        "GRAPE pipeline work must rise with n_g: {pipe_small} -> {pipe_large}"
    );
}

#[test]
fn projection_of_a_real_small_run_is_sane() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(56);
    let s = plummer_sphere(6_000, &mut rng);
    let mut backend = TreeGrape::new(TreeGrapeConfig {
        n_crit: 1000,
        grape: Grape5Config::paper_exact(),
        ..TreeGrapeConfig::paper(0.01)
    });
    let fs = backend.compute(&s.pos, &s.mass);
    let m = RunMeasurement {
        n: s.len(),
        steps: 1,
        theta: 0.75,
        n_crit: 1000,
        modified: fs.tally,
        original_interactions: fs.tally.interactions / 6, // paper-like ratio
        grape: backend.accounting(),
        measured_wall_s: 0.0,
    };
    let p = PaperProjection::project(
        &m,
        &HostModel::ds10(),
        &Grape5Config::paper(),
        &CostModel::paper(),
    );
    assert!(p.wall_s > 0.0 && p.wall_s.is_finite());
    assert!(p.raw_gflops > p.effective_gflops);
    assert!(p.price.usd_per_mflops > 0.0);
    // average per-target list length: bounded below by ~n_crit-ish
    // direct terms and above by N
    assert!(p.avg_list_len > 100.0 && p.avg_list_len < s.len() as f64);
    // raw speed cannot exceed the hardware peak
    assert!(p.raw_gflops < 109.44);
}
