//! Cutoff-function support — the GRAPE-5 hardware feature beyond plain
//! 1/r² gravity.
//!
//! Unlike its predecessors, the G5 chip can multiply the pairwise force
//! and potential by a **user-loaded cutoff function** g(r), which is
//! what lets GRAPE-5 compute the short-range (particle–particle) part
//! of P³M / TreePM forces in hardware (Kawai et al. 2000, the "\[11\]"
//! companion paper of this reproduction's target). The chip stores the
//! shape in a ROM-like table addressed by the squared distance and
//! multiplies the pipeline output by the looked-up factor.
//!
//! We model the table with `2^addr_bits` bins, uniform in `r²/r_cut²`,
//! values rounded to `frac_bits` fractional bits; beyond the cutoff
//! radius the factor is exactly zero (the hardware suppresses the
//! interaction). The standard TreePM/Ewald short-range shape
//! `erfc(r/2r_s) + (r/r_s√π)·exp(−r²/4r_s²)` is provided as a built-in
//! constructor alongside arbitrary user shapes.

use serde::{Deserialize, Serialize};

/// A hardware cutoff table pair: force multiplier and potential
/// multiplier as functions of `r²`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutoffTable {
    rcut2: f64,
    force: Vec<f64>,
    pot: Vec<f64>,
}

impl CutoffTable {
    /// Build a table from user shape functions of `x = r / r_cut`
    /// (force multiplier and potential multiplier, both expected in
    /// `[0, 1]`-ish range), sampled at bin centers.
    pub fn from_shapes<F, P>(
        rcut: f64,
        addr_bits: u32,
        frac_bits: u32,
        force_shape: F,
        pot_shape: P,
    ) -> CutoffTable
    where
        F: Fn(f64) -> f64,
        P: Fn(f64) -> f64,
    {
        assert!(rcut > 0.0, "non-positive cutoff radius");
        assert!((1..=20).contains(&addr_bits), "address bits {addr_bits} out of 1..=20");
        assert!(frac_bits <= 32, "fraction bits too large");
        let n = 1usize << addr_bits;
        let quant = (frac_bits as f64).exp2();
        let round = |v: f64| (v * quant).round() / quant;
        let mut force = Vec::with_capacity(n);
        let mut pot = Vec::with_capacity(n);
        for i in 0..n {
            // bin center in r^2/rcut^2
            let u = (i as f64 + 0.5) / n as f64;
            let x = u.sqrt();
            force.push(round(force_shape(x)));
            pot.push(round(pot_shape(x)));
        }
        CutoffTable { rcut2: rcut * rcut, force, pot }
    }

    /// The TreePM / Ewald short-range shape with split scale `r_s`:
    /// force multiplier `erfc(r/2r_s) + (r/(r_s√π))·e^(−r²/4r_s²)`,
    /// potential multiplier `erfc(r/2r_s)`.
    pub fn treepm(rs: f64, rcut: f64, addr_bits: u32, frac_bits: u32) -> CutoffTable {
        assert!(rs > 0.0, "non-positive split scale");
        CutoffTable::from_shapes(
            rcut,
            addr_bits,
            frac_bits,
            move |x| {
                let r = x * rcut;
                let a = r / (2.0 * rs);
                erfc(a) + (r / (rs * std::f64::consts::PI.sqrt())) * (-a * a).exp()
            },
            move |x| {
                let r = x * rcut;
                erfc(r / (2.0 * rs))
            },
        )
    }

    /// Cutoff radius squared.
    #[inline]
    pub fn rcut2(&self) -> f64 {
        self.rcut2
    }

    /// Table entries per function.
    pub fn len(&self) -> usize {
        self.force.len()
    }

    /// Always false (construction requires ≥ 2 entries).
    pub fn is_empty(&self) -> bool {
        self.force.is_empty()
    }

    #[inline]
    fn index(&self, r2: f64) -> Option<usize> {
        if r2 >= self.rcut2 {
            return None;
        }
        let n = self.force.len();
        Some(((r2 / self.rcut2) * n as f64) as usize)
    }

    /// Force multiplier at squared distance `r2`; zero beyond cutoff.
    #[inline]
    pub fn force_factor(&self, r2: f64) -> f64 {
        match self.index(r2) {
            Some(i) => self.force[i.min(self.force.len() - 1)],
            None => 0.0,
        }
    }

    /// Potential multiplier at squared distance `r2`; zero beyond cutoff.
    #[inline]
    pub fn pot_factor(&self, r2: f64) -> f64 {
        match self.index(r2) {
            Some(i) => self.pot[i.min(self.pot.len() - 1)],
            None => 0.0,
        }
    }
}

/// Complementary error function (Abramowitz & Stegun 7.1.26, |err| ≤
/// 1.5 × 10⁻⁷ — far below the table's own quantization).
pub fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let e = poly * (-x * x).exp();
    if sign_neg {
        2.0 - e
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_2)).abs() < 1e-6);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn factors_are_zero_beyond_cutoff() {
        let t = CutoffTable::treepm(0.3, 1.0, 8, 16);
        assert_eq!(t.force_factor(1.0), 0.0);
        assert_eq!(t.force_factor(25.0), 0.0);
        assert_eq!(t.pot_factor(1.0001), 0.0);
    }

    #[test]
    fn treepm_shape_limits() {
        // r -> 0: multiplier -> 1 (full Newtonian force at short range)
        let t = CutoffTable::treepm(0.25, 1.0, 10, 20);
        assert!((t.force_factor(1e-6) - 1.0).abs() < 0.01);
        // the potential shape falls linearly in r near 0, so the first
        // bin's center value sits a few percent below 1
        assert!((t.pot_factor(1e-6) - 1.0).abs() < 0.06);
        // monotone decline toward the cutoff
        let near = t.force_factor(0.01);
        let mid = t.force_factor(0.25);
        let far = t.force_factor(0.81);
        assert!(near > mid && mid > far, "{near} {mid} {far}");
        assert!(far < 0.1, "shape must be strongly suppressed near r_cut");
    }

    #[test]
    fn table_quantization_grid() {
        let t = CutoffTable::from_shapes(1.0, 4, 8, |x| 1.0 - x, |x| 1.0 - x * x);
        for i in 0..t.len() {
            let v = t.force[i] * 256.0;
            assert!((v - v.round()).abs() < 1e-9);
        }
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
    }

    #[test]
    fn finer_tables_are_more_accurate() {
        let shape = |x: f64| 1.0 - x * x;
        let coarse = CutoffTable::from_shapes(1.0, 3, 24, shape, shape);
        let fine = CutoffTable::from_shapes(1.0, 10, 24, shape, shape);
        let mut err_coarse = 0.0f64;
        let mut err_fine = 0.0f64;
        for s in 0..1000 {
            let r2 = s as f64 / 1000.0 * 0.999;
            let exact = shape(r2.sqrt());
            err_coarse = err_coarse.max((coarse.force_factor(r2) - exact).abs());
            err_fine = err_fine.max((fine.force_factor(r2) - exact).abs());
        }
        assert!(err_fine < err_coarse / 10.0, "{err_fine} vs {err_coarse}");
    }

    #[test]
    #[should_panic(expected = "non-positive cutoff")]
    fn zero_rcut_rejected() {
        CutoffTable::treepm(0.1, 0.0, 8, 8);
    }
}
