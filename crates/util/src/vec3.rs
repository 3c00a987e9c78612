//! A plain-old-data 3-vector of `f64`.
//!
//! Deliberately minimal: the hot loops in this workspace operate on
//! structure-of-arrays slices, and `Vec3` is the convenient interchange
//! type at API boundaries (positions, velocities, accelerations).

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-vector of `f64` components.
///
/// `repr(C)`: three consecutive `f64`s with no padding, so a slice of
/// vectors is also a flat component stream (see [`Vec3::flat`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// A vector with all three components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// A slice of vectors as its flat component stream
    /// `[x0, y0, z0, x1, …]` — what a vector unit loads from.
    #[inline]
    pub fn flat(v: &[Vec3]) -> &[f64] {
        const _: () = assert!(size_of::<Vec3>() == 24 && align_of::<Vec3>() == 8);
        // SAFETY: `Vec3` is `repr(C)` with exactly three `f64` fields
        // (size 24, align 8, checked above), so `v` covers `3 · len`
        // initialized, properly aligned `f64`s for the same lifetime.
        unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), v.len() * 3) }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist2(self, o: Vec3) -> f64 {
        (self - o).norm2()
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        self.dist2(o).sqrt()
    }

    /// Unit vector in the direction of `self`; `None` for the zero vector.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        (n > 0.0).then(|| self / n)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Smallest component.
    #[inline]
    pub fn min_component(self) -> f64 {
        self.x.min(self.y).min(self.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// `true` if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as an array `[x, y, z]`.
    #[inline]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Construct from an array `[x, y, z]`.
    #[inline]
    pub const fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.x, 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0]);
        assert_eq!(Vec3::from_array([1.0, 2.0, 3.0]), v);
        assert_eq!(Vec3::splat(4.0), Vec3::new(4.0, 4.0, 4.0));
        assert_eq!(Vec3::ZERO + v, v);
        let pair = [v, Vec3::new(-4.0, 5.5, 0.0)];
        assert_eq!(Vec3::flat(&pair), [1.0, 2.0, 3.0, -4.0, 5.5, 0.0]);
        assert!(Vec3::flat(&[]).is_empty());
    }

    #[test]
    fn index_mut_roundtrip() {
        let mut v = Vec3::ZERO;
        for i in 0..3 {
            v[i] = (i + 1) as f64;
        }
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));

        let mut c = a;
        c += b;
        c -= b;
        c *= 3.0;
        c /= 3.0;
        assert_eq!(c, a);
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(b.cross(a), Vec3::new(0.0, 0.0, -1.0));
        // cross product is perpendicular to both inputs
        let u = Vec3::new(1.3, -2.2, 0.7);
        let v = Vec3::new(0.4, 5.0, -1.1);
        let w = u.cross(v);
        assert!(w.dot(u).abs() < 1e-12);
        assert!(w.dot(v).abs() < 1e-12);
    }

    #[test]
    fn norms_and_distances() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm2(), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dist(Vec3::ZERO), 5.0);
        assert_eq!(v.dist2(Vec3::new(3.0, 0.0, 0.0)), 16.0);
        let n = v.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-15);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn component_ops() {
        let a = Vec3::new(1.0, 5.0, -3.0);
        let b = Vec3::new(2.0, 4.0, -1.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, -3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, -1.0));
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a.min_component(), -3.0);
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 3.0));
    }

    #[test]
    fn finiteness() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn sum_iterator() {
        let vs = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.0, 0.0, 3.0)];
        let s: Vec3 = vs.iter().copied().sum();
        assert_eq!(s, Vec3::new(1.0, 2.0, 3.0));
    }
}
