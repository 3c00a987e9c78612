#![warn(missing_docs)]
//! # g5util — shared substrate for the GRAPE-5 treecode reproduction
//!
//! Small, dependency-light building blocks used by every other crate in
//! the workspace:
//!
//! * [`vec3`] — a plain-old-data 3-vector of `f64` with the arithmetic
//!   an N-body code needs (no SIMD intrinsics; the compiler
//!   autovectorizes the structure-of-arrays loops that matter).
//! * [`fixed`] — parameterized two's-complement fixed-point values, the
//!   format GRAPE-5 uses for particle positions and force accumulation.
//! * [`lns`] — a logarithmic number system (sign + fixed-point log₂),
//!   the format the G5 pipeline uses internally; this is what gives the
//!   hardware its characteristic ≈0.3 % pairwise force error.
//! * [`morton`] — 3-D Morton (Z-order) codes used by the octree build.
//! * [`morton_sort`] — the shared quantize + LSD-radix-sort step the
//!   octree build and the cluster domain decomposition both start from.
//! * [`cores`] — the machine's core count, resolved once, and the equal
//!   share of it a caller that shares the process may size itself for.
//! * [`counters`] — interaction/flop accounting with the 38-operation
//!   convention the paper (and Warren & Salmon) use.
//! * [`stats`] — mean / RMS / percentile / histogram helpers used by the
//!   accuracy experiments.

pub mod cores;
pub mod counters;
pub mod dsu;
pub mod fixed;
pub mod lns;
pub mod lns_table;
pub mod morton;
pub mod morton_sort;
pub mod stats;
pub mod vec3;

pub use counters::{FlopConvention, InteractionCounter};
pub use fixed::Fixed;
pub use lns::{Lns, LnsConfig};
pub use vec3::Vec3;
