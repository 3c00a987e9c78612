//! Configuration of the simulated GRAPE-5 system.

use g5util::fixed::FixedFormat;
use g5util::lns::LnsConfig;
use serde::{Deserialize, Serialize};

/// How the pipeline arithmetic is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArithMode {
    /// Bit-faithful hardware arithmetic: fixed-point positions, LNS
    /// intermediates, fixed-point accumulation. Slow but reproduces the
    /// ≈ 0.3 % pairwise error of §2 of the paper. Use for accuracy
    /// experiments and validation.
    Lns,
    /// `f64` arithmetic with only the position quantization applied.
    /// Fast; identical cycle/transfer accounting. Use for long
    /// simulations where hardware round-off is irrelevant to the
    /// quantities being measured.
    Exact,
}

/// Full description of a GRAPE-5 installation.
///
/// Defaults reproduce the paper's system: 2 processor boards × 8 G5
/// chips × 2 pipelines at 90 MHz (⇒ 32 pipelines, peak
/// 32 × 90 MHz × 38 ops = 109.44 Gflops), 15 MHz board/interface logic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Grape5Config {
    /// Number of processor boards (paper: 2).
    pub boards: usize,
    /// G5 chips per board (paper: 8).
    pub chips_per_board: usize,
    /// Force pipelines per chip (paper: 2).
    pub pipes_per_chip: usize,
    /// Pipeline clock in Hz (paper: 90 MHz).
    pub chip_clock_hz: f64,
    /// Board-logic / host-interface clock in Hz (paper: 15 MHz). One
    /// 32-bit word moves per interface clock per board.
    pub iface_word_hz: f64,
    /// Fixed per-call host-interface latency in seconds (driver call,
    /// DMA setup).
    pub call_latency_s: f64,
    /// Pipeline fill latency in clock cycles, charged once per
    /// i-particle chunk.
    pub pipeline_latency_cycles: u64,
    /// Capacity of one board's j-particle memory, in particles.
    pub jmem_capacity: usize,
    /// Word format of the logarithmic pipeline intermediates.
    pub lns: LnsConfig,
    /// Bits of the fixed-point coordinate words (positions after
    /// `set_range` scaling).
    pub coord_bits: u32,
    /// Format of the on-board force/potential accumulators, relative to
    /// the declared force scale.
    pub acc_format: FixedFormat,
    /// Arithmetic simulation mode.
    pub mode: ArithMode,
    /// Price j-memory loads as double-buffered: the modeled clock hides
    /// j-load transfer words under pipeline time
    /// ([`crate::clock::ClockReport::hidden_s`]), the way a host that
    /// stages the next step's j-set while this step's groups are still
    /// streaming overlaps the reload with evaluation. Off by default —
    /// the paper-era library charged the load serially — and purely a
    /// pricing-mode change: recorded counters and computed forces are
    /// identical either way. (`serde(default)` keeps configs serialized
    /// before this flag loadable.)
    #[serde(default)]
    pub double_buffer_j: bool,
}

impl Default for Grape5Config {
    fn default() -> Self {
        Grape5Config::paper()
    }
}

impl Grape5Config {
    /// The exact configuration of the paper's system (§2).
    pub fn paper() -> Self {
        Grape5Config {
            boards: 2,
            chips_per_board: 8,
            pipes_per_chip: 2,
            chip_clock_hz: 90.0e6,
            iface_word_hz: 15.0e6,
            call_latency_s: 100.0e-6,
            pipeline_latency_cycles: 56,
            jmem_capacity: 1 << 20,
            lns: LnsConfig::GRAPE5,
            coord_bits: 32,
            // 64-bit accumulator, 2^-32 quantum relative to force scale:
            // dynamic range ±2^31 force units with ~2e-10 resolution.
            acc_format: FixedFormat { bits: 64, frac_bits: 32 },
            mode: ArithMode::Lns,
            double_buffer_j: false,
        }
    }

    /// Paper hardware but `f64` pipeline arithmetic (fast simulation).
    pub fn paper_exact() -> Self {
        Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() }
    }

    /// A single-board half system, as sold commercially (§4).
    pub fn single_board() -> Self {
        Grape5Config { boards: 1, ..Grape5Config::paper() }
    }

    /// Pipelines per board.
    #[inline]
    pub fn pipes_per_board(&self) -> usize {
        self.chips_per_board * self.pipes_per_chip
    }

    /// Total pipelines in the system (paper: 32).
    #[inline]
    pub fn total_pipes(&self) -> usize {
        self.boards * self.pipes_per_board()
    }

    /// Peak interactions per second with every pipeline busy.
    #[inline]
    pub fn peak_interactions_per_s(&self) -> f64 {
        self.total_pipes() as f64 * self.chip_clock_hz
    }

    /// Theoretical peak in flops under the 38-op convention
    /// (paper: 109.44 Gflops).
    #[inline]
    pub fn peak_flops(&self) -> f64 {
        self.peak_interactions_per_s() * 38.0
    }

    /// Sanity-check the configuration, panicking with a description of
    /// the first problem found.
    pub fn validate(&self) {
        assert!(self.boards > 0, "no boards");
        assert!(self.chips_per_board > 0, "no chips");
        assert!(self.pipes_per_chip > 0, "no pipelines");
        assert!(self.chip_clock_hz > 0.0, "non-positive chip clock");
        assert!(self.iface_word_hz > 0.0, "non-positive interface clock");
        assert!(self.jmem_capacity > 0, "empty j-memory");
        assert!((4..=62).contains(&self.coord_bits), "coordinate width out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_section_2() {
        let c = Grape5Config::paper();
        c.validate();
        assert_eq!(c.total_pipes(), 32);
        assert_eq!(c.pipes_per_board(), 16);
        // peak 109.44 Gflops as stated in the paper
        assert!((c.peak_flops() / 1e9 - 109.44).abs() < 1e-9);
    }

    #[test]
    fn single_board_is_half_peak() {
        let c = Grape5Config::single_board();
        assert!((c.peak_flops() - Grape5Config::paper().peak_flops() / 2.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "no boards")]
    fn validate_rejects_zero_boards() {
        Grape5Config { boards: 0, ..Grape5Config::paper() }.validate();
    }
}
