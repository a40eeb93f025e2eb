//! Experiment scenarios regenerating every figure and analytical claim of
//! the paper.
//!
//! The `experiments` binary prints every experiment of DESIGN.md §4 — its
//! output is the source of EXPERIMENTS.md. Those with a checked-in file in
//! `scenarios/` run through the same campaign compiler `lsrp run` uses;
//! the rest call the hand-coded experiments in the modules here, which
//! return markdown [`Table`]s (plus rendered timelines where the paper
//! draws space-time diagrams).
//!
//! [`Table`]: lsrp_analysis::Table

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod figures;
pub mod loops_exp;
pub mod multi_exp;
pub mod overhead;
pub mod scaling;
pub mod selfstab;
pub mod waves;

// Tests only: the checked-in E7, E13/E14/E18, E20 and E21 scenario files
// and the `lsrp_scenario::cells` they compile to, held to the hand-coded
// loops they replaced. The suite has always printed these module names.
#[cfg(test)]
mod availability;
#[cfg(test)]
mod congestion_exp;
#[cfg(test)]
mod regions_exp;
#[cfg(test)]
mod traffic_exp;

/// The simulated-time horizon used by every experiment run.
pub const HORIZON: f64 = 5_000_000.0;
