//! Two's-complement fixed-point formats.
//!
//! GRAPE-5 stores particle **positions** as fixed-point words scaled
//! over a host-declared coordinate window (the real library's
//! `g5_set_range`), and **accumulates forces** in wide (64-bit)
//! fixed-point registers so that summing tens of thousands of
//! interaction-list terms loses no precision relative to the ≈0.3 %
//! pipeline terms. This module provides both pieces:
//!
//! * [`FixedFormat`] / [`Fixed`] — a value with an explicit number of
//!   total and fractional bits, saturating arithmetic.
//! * [`RangeScaler`] — the `set_range` window: maps a real-valued
//!   coordinate interval onto the full signed range of an *n*-bit word.

use serde::{Deserialize, Serialize};

/// Description of a two's-complement fixed-point format.
///
/// A value with `frac_bits = f` represents `raw * 2^-f`. `bits` is the
/// total word width (including sign); representable raw values are
/// `[-2^(bits-1), 2^(bits-1) - 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedFormat {
    /// Total word width in bits (2..=64).
    pub bits: u32,
    /// Number of fractional bits; may be negative (coarse quanta) or
    /// exceed `bits` (sub-unity range).
    pub frac_bits: i32,
}

impl FixedFormat {
    /// Create a format, panicking on an unusable word width.
    pub fn new(bits: u32, frac_bits: i32) -> Self {
        assert!((2..=64).contains(&bits), "fixed-point width {bits} out of range 2..=64");
        FixedFormat { bits, frac_bits }
    }

    /// The smallest representable increment (one unit in the last place).
    #[inline]
    pub fn quantum(self) -> f64 {
        (-self.frac_bits as f64).exp2()
    }

    /// Largest representable raw value.
    #[inline]
    pub fn raw_max(self) -> i64 {
        if self.bits == 64 {
            i64::MAX
        } else {
            (1i64 << (self.bits - 1)) - 1
        }
    }

    /// Smallest (most negative) representable raw value.
    #[inline]
    pub fn raw_min(self) -> i64 {
        if self.bits == 64 {
            i64::MIN
        } else {
            -(1i64 << (self.bits - 1))
        }
    }

    /// Largest representable real value.
    #[inline]
    pub fn max_value(self) -> f64 {
        self.raw_max() as f64 * self.quantum()
    }

    /// Smallest representable real value.
    #[inline]
    pub fn min_value(self) -> f64 {
        self.raw_min() as f64 * self.quantum()
    }

    /// The multiplier `encode` applies before rounding (`2^frac_bits`).
    ///
    /// Batch kernels hoist this out of their pair loops and feed it to
    /// [`encode_with_scale`](Self::encode_with_scale); `exp2` is
    /// deterministic, so the hoisted value is the same one `encode`
    /// would recompute per call.
    #[inline]
    pub fn encode_scale(self) -> f64 {
        (self.frac_bits as f64).exp2()
    }

    /// Encode a real value: round to nearest representable, saturate at
    /// the ends of the range. NaN encodes to zero.
    #[inline]
    pub fn encode(self, x: f64) -> Fixed {
        self.encode_with_scale(self.encode_scale(), x)
    }

    /// [`encode`](Self::encode) with the `2^frac_bits` multiplier
    /// hoisted by the caller. Bit-identical to `encode` whenever
    /// `scale == self.encode_scale()`.
    #[inline]
    pub fn encode_with_scale(self, scale: f64, x: f64) -> Fixed {
        let scaled = x * scale;
        let raw = if scaled.is_nan() {
            0
        } else if scaled >= self.raw_max() as f64 {
            self.raw_max()
        } else if scaled <= self.raw_min() as f64 {
            self.raw_min()
        } else {
            // round half away from zero, like the hardware's rounder
            scaled.round() as i64
        };
        Fixed { raw, fmt: self }
    }

    /// Decode a raw word in this format.
    #[inline]
    pub fn decode_raw(self, raw: i64) -> f64 {
        raw as f64 * self.quantum()
    }
}

/// A fixed-point value: raw integer plus its format.
///
/// Arithmetic saturates rather than wraps — the hardware's accumulators
/// clamp on overflow, and saturation keeps errors bounded and visible
/// instead of catastrophic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fixed {
    /// Raw two's-complement word.
    pub raw: i64,
    /// The format the word is interpreted in.
    pub fmt: FixedFormat,
}

impl Fixed {
    /// The zero value in the given format.
    #[inline]
    pub fn zero(fmt: FixedFormat) -> Self {
        Fixed { raw: 0, fmt }
    }

    /// Decode back to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.fmt.decode_raw(self.raw)
    }

    /// Saturating addition; both operands must share a format.
    #[inline]
    pub fn sat_add(self, o: Fixed) -> Fixed {
        debug_assert_eq!(self.fmt, o.fmt, "fixed-point format mismatch");
        let raw = self.raw.saturating_add(o.raw).clamp(self.fmt.raw_min(), self.fmt.raw_max());
        Fixed { raw, fmt: self.fmt }
    }

    /// Saturating subtraction; both operands must share a format.
    #[inline]
    pub fn sat_sub(self, o: Fixed) -> Fixed {
        debug_assert_eq!(self.fmt, o.fmt, "fixed-point format mismatch");
        let raw = self.raw.saturating_sub(o.raw).clamp(self.fmt.raw_min(), self.fmt.raw_max());
        Fixed { raw, fmt: self.fmt }
    }

    /// Negation (saturating at the asymmetric minimum).
    #[inline]
    pub fn sat_neg(self) -> Fixed {
        let raw = self
            .raw
            .checked_neg()
            .unwrap_or(i64::MAX)
            .clamp(self.fmt.raw_min(), self.fmt.raw_max());
        Fixed { raw, fmt: self.fmt }
    }

    /// Accumulate a real-valued term into this accumulator: encode, add.
    ///
    /// This is how the force accumulator ingests per-interaction terms
    /// coming out of the LNS pipeline.
    #[inline]
    pub fn accumulate(self, term: f64) -> Fixed {
        self.sat_add(self.fmt.encode(term))
    }

    /// [`accumulate`](Self::accumulate) with the encode multiplier
    /// hoisted by the caller (see [`FixedFormat::encode_scale`]).
    #[inline]
    pub fn accumulate_with_scale(self, scale: f64, term: f64) -> Fixed {
        self.sat_add(self.fmt.encode_with_scale(scale, term))
    }
}

/// The `g5_set_range` coordinate window: maps the real interval
/// `[center - half, center + half)` onto the full signed range of an
/// `bits`-wide fixed-point word.
///
/// Coordinates outside the window saturate — exactly what the real
/// hardware does when a particle leaves the declared range, and why the
/// host library re-declares the range as the system expands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeScaler {
    center: f64,
    half: f64,
    bits: u32,
}

impl RangeScaler {
    /// Window covering `[min, max)` with an `bits`-bit signed word.
    pub fn new(min: f64, max: f64, bits: u32) -> Self {
        assert!(max > min, "degenerate range [{min}, {max})");
        assert!((2..=62).contains(&bits), "range-scaler width {bits} out of 2..=62");
        RangeScaler { center: 0.5 * (min + max), half: 0.5 * (max - min), bits }
    }

    /// Window min.
    #[inline]
    pub fn min(&self) -> f64 {
        self.center - self.half
    }

    /// Window max.
    #[inline]
    pub fn max(&self) -> f64 {
        self.center + self.half
    }

    /// Word width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Window center — the coordinate that quantizes to raw word 0.
    #[inline]
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Largest raw word (`2^(bits-1) - 1`).
    #[inline]
    pub fn raw_max(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Smallest raw word (`-2^(bits-1)`).
    #[inline]
    pub fn raw_min(&self) -> i64 {
        -(1i64 << (self.bits - 1))
    }

    /// Size of one quantization step in real units.
    #[inline]
    pub fn quantum(&self) -> f64 {
        self.half / (1i64 << (self.bits - 1)) as f64
    }

    /// Quantize a coordinate to its raw fixed-point word (saturating).
    ///
    /// This is the definition; batch quantizers (`grape5::lanes`) hoist
    /// [`center`](Self::center), [`quantum`](Self::quantum) and the raw
    /// bounds out of their loops and must reproduce it word for word.
    #[inline]
    pub fn quantize(&self, x: f64) -> i64 {
        let (max_raw, min_raw) = (self.raw_max(), self.raw_min());
        let scaled = (x - self.center) / self.quantum();
        if scaled.is_nan() {
            0
        } else if scaled >= max_raw as f64 {
            max_raw
        } else if scaled <= min_raw as f64 {
            min_raw
        } else {
            scaled.round() as i64
        }
    }

    /// Dequantize a raw word back to a real coordinate.
    #[inline]
    pub fn dequantize(&self, raw: i64) -> f64 {
        self.center + raw as f64 * self.quantum()
    }

    /// Quantize-then-dequantize: the value the hardware actually sees.
    #[inline]
    pub fn roundtrip(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_and_ranges() {
        let f = FixedFormat::new(16, 8);
        assert_eq!(f.quantum(), 1.0 / 256.0);
        assert_eq!(f.raw_max(), 32767);
        assert_eq!(f.raw_min(), -32768);
        assert!((f.max_value() - 32767.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn encode_rounds_to_nearest() {
        let f = FixedFormat::new(16, 8);
        assert_eq!(f.encode(1.0).raw, 256);
        assert_eq!(f.encode(1.0 + 0.4 / 256.0).raw, 256);
        assert_eq!(f.encode(1.0 + 0.6 / 256.0).raw, 257);
        assert_eq!(f.encode(-1.0).raw, -256);
    }

    #[test]
    fn encode_saturates() {
        let f = FixedFormat::new(8, 0);
        assert_eq!(f.encode(1e9).raw, 127);
        assert_eq!(f.encode(-1e9).raw, -128);
        assert_eq!(f.encode(f64::INFINITY).raw, 127);
        assert_eq!(f.encode(f64::NEG_INFINITY).raw, -128);
        assert_eq!(f.encode(f64::NAN).raw, 0);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_quantum() {
        let f = FixedFormat::new(32, 20);
        for &x in &[0.0, 0.1, -3.7, 123.456, -2047.9] {
            let err = (f.encode(x).to_f64() - x).abs();
            assert!(err <= 0.5 * f.quantum() + 1e-15, "x={x} err={err}");
        }
    }

    #[test]
    fn sixty_four_bit_format() {
        let f = FixedFormat::new(64, 40);
        assert_eq!(f.raw_max(), i64::MAX);
        assert_eq!(f.raw_min(), i64::MIN);
        let v = f.encode(1234.5);
        assert!((v.to_f64() - 1234.5).abs() < f.quantum());
    }

    #[test]
    fn saturating_arithmetic() {
        let f = FixedFormat::new(8, 0);
        let a = f.encode(100.0);
        let b = f.encode(100.0);
        assert_eq!(a.sat_add(b).raw, 127);
        assert_eq!(a.sat_sub(f.encode(-100.0)).raw, 127);
        assert_eq!(f.encode(-100.0).sat_sub(b).raw, -128);
        assert_eq!(f.encode(-128.0).sat_neg().raw, 127);
        assert_eq!(f.encode(5.0).sat_neg().raw, -5);
    }

    #[test]
    fn hoisted_scale_matches_encode_on_specials() {
        for f in [FixedFormat::new(64, 32), FixedFormat::new(16, 8), FixedFormat::new(8, 0)] {
            let s = f.encode_scale();
            for x in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                1e300,
                -1e300,
                0.5,
                -1.5,
                f.max_value(),
                f.min_value(),
            ] {
                assert_eq!(f.encode_with_scale(s, x).raw, f.encode(x).raw, "fmt={f:?} x={x}");
            }
        }
    }

    #[test]
    fn accumulate_many_small_terms() {
        // 64-bit accumulator with 2^-40 quantum: adding one million
        // terms of ~1e-3 must retain ~1e-12 absolute accuracy.
        let f = FixedFormat::new(64, 40);
        let mut acc = Fixed::zero(f);
        let term = 1.0e-3;
        for _ in 0..1_000_000 {
            acc = acc.accumulate(term);
        }
        let expect = 1.0e3;
        assert!((acc.to_f64() - expect).abs() < 1e-6, "got {}", acc.to_f64());
    }

    #[test]
    fn range_scaler_basics() {
        let r = RangeScaler::new(-10.0, 10.0, 16);
        assert_eq!(r.min(), -10.0);
        assert_eq!(r.max(), 10.0);
        assert!((r.quantum() - 20.0 / 65536.0).abs() < 1e-15);
        assert_eq!(r.quantize(0.0), 0);
        // saturation outside window
        assert_eq!(r.quantize(1e6), 32767);
        assert_eq!(r.quantize(-1e6), -32768);
        assert_eq!(r.quantize(f64::NAN), 0);
    }

    #[test]
    fn range_scaler_roundtrip_error() {
        let r = RangeScaler::new(-50.0, 50.0, 32);
        for &x in &[0.0, 1.234, -49.99, 49.0, 3.1e-7] {
            assert!((r.roundtrip(x) - x).abs() <= 0.5 * r.quantum() + 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn range_scaler_rejects_empty_window() {
        let _ = RangeScaler::new(1.0, 1.0, 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn encode_always_within_format_range(x in -1e12f64..1e12, bits in 4u32..=63, frac in -8i32..=30) {
            let f = FixedFormat::new(bits, frac);
            let v = f.encode(x);
            prop_assert!(v.raw >= f.raw_min());
            prop_assert!(v.raw <= f.raw_max());
        }

        #[test]
        fn roundtrip_within_half_quantum_when_in_range(x in -1000.0f64..1000.0) {
            let f = FixedFormat::new(48, 24);
            let v = f.encode(x);
            prop_assert!((v.to_f64() - x).abs() <= 0.5 * f.quantum() + 1e-12);
        }

        #[test]
        fn encode_with_hoisted_scale_is_bitwise_encode(
            x in any::<f64>(),
            bits in 4u32..=64,
            frac in -8i32..=48,
        ) {
            let f = FixedFormat::new(bits, frac);
            let hoisted = f.encode_scale();
            prop_assert_eq!(f.encode_with_scale(hoisted, x).raw, f.encode(x).raw);
            let acc = Fixed { raw: 123_456_789, fmt: f };
            prop_assert_eq!(
                acc.accumulate_with_scale(hoisted, x).raw,
                acc.accumulate(x).raw
            );
        }

        #[test]
        fn sat_add_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let f = FixedFormat::new(32, 8);
            let (x, y) = (f.encode(a), f.encode(b));
            prop_assert_eq!(x.sat_add(y), y.sat_add(x));
        }

        #[test]
        fn range_scaler_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let r = RangeScaler::new(-100.0, 100.0, 24);
            if a <= b {
                prop_assert!(r.quantize(a) <= r.quantize(b));
            } else {
                prop_assert!(r.quantize(a) >= r.quantize(b));
            }
        }
    }
}
