//! Output checks: is what the product computed correct?
//!
//! A timing of wrong forces is worth nothing, so every run compares
//! the product's outputs with an independent reference — `f64` direct
//! summation for accuracy, bit patterns for everything that claims to
//! be identical.

use g5ic::Snapshot;
use g5tree::eval::{pair_force, rms_relative_error, PointForce};
use g5util::vec3::Vec3;
use rand::{Rng, SeedableRng};

/// Targets in the force-error sample.
pub const SAMPLE_TARGETS: usize = 2048;

/// `count` distinct indices below `n`, ascending, drawn from `seed`
/// (all of `0..n` when `n <= count`).
pub fn sample_targets(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n <= count {
        return (0..n).collect();
    }
    // partial Fisher–Yates: the first `count` slots of a shuffled 0..n
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx.sort_unstable();
    idx
}

/// RMS relative acceleration error of `acc[t]` for `t` in `targets`
/// against `f64` direct summation over the whole snapshot (the
/// product's own error formula, [`rms_relative_error`], on the sample).
pub fn force_rms_err(pos: &[Vec3], mass: &[f64], eps: f64, targets: &[usize], acc: &[Vec3]) -> f64 {
    let eps2 = eps * eps;
    let exact: Vec<PointForce> = targets
        .iter()
        .map(|&t| {
            let mut sum = Vec3::ZERO;
            for (&xj, &mj) in pos.iter().zip(mass) {
                sum += pair_force(pos[t], xj, mj, eps2).acc;
            }
            PointForce { acc: sum, pot: 0.0 }
        })
        .collect();
    let sampled: Vec<PointForce> =
        targets.iter().map(|&t| PointForce { acc: acc[t], pot: 0.0 }).collect();
    rms_relative_error(&sampled, &exact)
}

fn vec3_bits(v: &[Vec3]) -> impl Iterator<Item = u64> + '_ {
    v.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
}

/// Are two vector arrays identical bit for bit (so `-0.0 != 0.0`, and a
/// NaN equals itself)?
pub fn same_vec3_bits(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len() && vec3_bits(a).eq(vec3_bits(b))
}

/// Are two scalar arrays identical bit for bit?
pub fn same_f64_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Are two particle states identical byte for byte?
pub fn same_snapshot(a: &Snapshot, b: &Snapshot) -> bool {
    same_vec3_bits(&a.pos, &b.pos)
        && same_vec3_bits(&a.vel, &b.vel)
        && same_f64_bits(&a.mass, &b.mass)
}

/// Relative drift `|e − e0| / |e0|`.
pub fn energy_drift(e0: f64, e: f64) -> f64 {
    (e - e0).abs() / e0.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_sorted_and_seeded() {
        let a = sample_targets(1000, 64, 42);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 1000));
        assert_eq!(a, sample_targets(1000, 64, 42));
        assert_ne!(a, sample_targets(1000, 64, 7));
        assert_eq!(sample_targets(5, 64, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exact_forces_have_zero_error_and_perturbed_ones_do_not() {
        let pos =
            vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0)];
        let mass = vec![1.0, 2.0, 3.0];
        let exact: Vec<Vec3> = (0..3)
            .map(|i| {
                let mut a = Vec3::ZERO;
                for j in 0..3 {
                    a += pair_force(pos[i], pos[j], mass[j], 0.01).acc;
                }
                a
            })
            .collect();
        assert_eq!(force_rms_err(&pos, &mass, 0.1, &[0, 1, 2], &exact), 0.0);
        let off: Vec<Vec3> = exact.iter().map(|&a| a * 1.01).collect();
        let e = force_rms_err(&pos, &mass, 0.1, &[0, 1, 2], &off);
        assert!((e - 0.01).abs() < 1e-12, "1% scaling must read as 1% error, got {e}");
    }

    #[test]
    fn bit_comparisons_see_what_float_equality_hides() {
        assert!(same_f64_bits(&[f64::NAN], &[f64::NAN]));
        assert!(!same_f64_bits(&[0.0], &[-0.0]));
        assert!(!same_f64_bits(&[1.0], &[1.0, 1.0]));
        let s = Snapshot {
            pos: vec![Vec3::new(1.0, 2.0, 3.0)],
            vel: vec![Vec3::ZERO],
            mass: vec![1.0],
        };
        let mut t = s.clone();
        assert!(same_snapshot(&s, &t));
        t.vel[0].z = -0.0;
        assert!(!same_snapshot(&s, &t));
    }

    #[test]
    fn drift_is_relative_to_the_baseline() {
        assert!((energy_drift(-0.25, -0.2475) - 0.01).abs() < 1e-12);
        assert_eq!(energy_drift(2.0, 2.0), 0.0);
    }
}
