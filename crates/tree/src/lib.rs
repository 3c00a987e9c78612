#![warn(missing_docs)]
//! # g5tree — Barnes–Hut octree with original and Barnes-modified traversals
//!
//! The tree algorithm (Barnes & Hut 1986) reduces the cost of the
//! gravitational force calculation from O(N²) to O(N log N) by
//! replacing the force from a distant *cell* of particles with the
//! force from its center of mass. This crate provides:
//!
//! * [`tree::Tree`] — a Morton-sorted octree with monopole (center of
//!   mass) moments, the only moments GRAPE-5 can consume;
//! * [`mac`] — multipole acceptance criteria: the classic per-particle
//!   opening test and the per-group test of Barnes' modified algorithm;
//! * [`traverse`] — the **original** algorithm (one interaction list
//!   per particle) and the **modified** algorithm (Barnes 1990: one
//!   list shared by all particles of a *group* of ≤ n_crit neighbours,
//!   with intra-group forces evaluated directly as part of the list).
//!   The modified algorithm is the paper's §3: it divides host work by
//!   ≈ n_g and produces the long, GRAPE-friendly lists;
//! * [`eval`] — reference `f64` evaluation of interaction lists on the
//!   host, used by the accuracy experiments and the TreeHost backend;
//! * [`plan`] — the streaming force plan: group lists resolved by
//!   worker threads and handed through a bounded channel, so a device
//!   consumer overlaps traversal with force evaluation;
//! * [`domain`] — Morton-curve domain decomposition and
//!   local-essential-tree exchange for cluster-sharded force
//!   evaluation: K contiguous curve slices, one local tree each, with
//!   remote mass imported at MAC accuracy.

pub mod domain;
pub mod eval;
pub mod mac;
pub mod plan;
pub mod traverse;
pub mod tree;

pub use domain::{let_terms_into, Decomposition};
pub use mac::{GroupSphere, Mac};
pub use plan::{GroupWork, PlanConfig, PlanPool, PlanStats};
pub use traverse::{Group, ListTerm, ModifiedLists, Traversal, TraverseScratch};
pub use tree::{Node, NodeColumns, Tree, TreeConfig, NONE};
