//! Experiment scenarios regenerating every figure and analytical claim of
//! the paper, and the paired perf readings CI gates.
//!
//! Every experiment of DESIGN.md §4 is a checked-in file in `scenarios/`;
//! the `experiments` binary prints them all — its output is the source of
//! EXPERIMENTS.md — through the same campaign compiler `lsrp run` uses.
//! The modules here hold the hand-coded cells the `builtin` scenario
//! kinds still call ([`scenario_runner`]), returning markdown [`Table`]s
//! (plus rendered timelines where the paper draws space-time diagrams).
//! [`engine_perf`] is the `perf_smoke` binary's table of paired shape
//! readings; wall-clock numbers are `bash benchmark/run.sh`'s.
//!
//! [`Table`]: lsrp_analysis::Table

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod engine_perf;
pub mod figures;
pub mod loops_exp;
pub mod multi_exp;
pub mod overhead;
pub mod scaling;
pub mod scenario_runner;
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
