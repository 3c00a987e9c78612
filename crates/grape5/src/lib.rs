#![warn(missing_docs)]
//! # grape5 — a functional + timing simulator of the GRAPE-5 system
//!
//! GRAPE-5 ("GRAvity PipE 5") is the special-purpose computer the paper
//! runs on: 2 processor boards, each carrying 8 custom G5 chips (2
//! force pipelines per chip, 90 MHz) and a j-particle memory, attached
//! through host-interface boards to a workstation. The pipelines
//! evaluate softened pairwise gravity
//!
//! ```text
//! a_i = Σ_j m_j (x_j − x_i) / (|x_j − x_i|² + ε²)^(3/2)
//! p_i = Σ_j m_j / (|x_j − x_i|² + ε²)^(1/2)
//! ```
//!
//! in reduced-precision hardware arithmetic: positions quantized to
//! fixed point over a host-declared window, intermediates in a
//! logarithmic number system (≈ 0.3 % pairwise force error), partial
//! forces accumulated in wide fixed point.
//!
//! This crate reproduces the system at two coupled levels:
//!
//! * **functional** — [`pipeline::G5Pipeline`] computes forces with the
//!   same quantizations the hardware applies, so error statistics match
//!   §2 of the paper; an `Exact` mode keeps only the position
//!   quantization and runs at `f64` speed for long simulations. Both
//!   modes' batch kernels run on CPU lanes ([`lanes`]):
//!   [`LanePath::Avx2`] is the x86 intrinsics, the cheapest op column
//!   and the widest LNS lanes the CPU has (the AVX-512VL accumulate and
//!   sixteen lanes with AVX-512 and FMA, else the AVX2 one and eight),
//!   held bit-identical to [`LanePath::Scalar`], the per-pair skeleton
//!   that defines it and runs every call the lanes cannot take.
//! * **timing** — [`clock::ClockAccounting`] counts pipeline cycles and
//!   interface words exactly as the board schedule implies, and
//!   converts them to modeled wall-clock on the real 90 MHz / 15 MHz
//!   parts, which is how the paper-scale Gflops numbers are
//!   regenerated without owning the hardware.
//!
//! The structure mirrors Figure 1 of the paper: [`board::ProcessorBoard`]
//! (8 chips + j-memory) → [`system::Grape5`] (2 boards + host
//! interface) → host code in the `treegrape` crate. A PC-GRAPE cluster
//! is host code too: `treegrape::cluster` owns one [`Grape5`] per shard
//! slot and supervises the shards' health; this crate supplies what one
//! device knows of its own faults ([`Grape5::self_test`], quarantine,
//! [`Grape5::return_to_service`]).

pub mod board;
pub mod clock;
pub mod config;
pub mod cost;
pub mod cutoff;
pub mod fault;
pub mod lanes;
pub mod pipeline;
pub mod pool;
pub mod session;
pub mod system;
pub mod window;

pub use clock::{ClockAccounting, ClockReport};
pub use config::{ArithMode, Grape5Config};
pub use cost::{CostModel, PricePerformance};
pub use cutoff::CutoffTable;
pub use fault::{splitmix, BoardDropout, DeviceError, FaultConfig, StuckPipe};
pub use lanes::{detect_lane_path, LanePath};
pub use pipeline::{Force, G5Pipeline};
pub use pool::{DevicePool, PoolError, PoolLease, PoolUsage};
pub use session::{bounding_window, DeviceSession, RecoveryStats, RetryPolicy};
pub use system::{Grape5, SelfTest};
pub use window::{WindowCall, PAIR_GROUP_MIN};
