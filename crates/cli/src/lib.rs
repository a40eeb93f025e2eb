//! Command-line driver for LSRP scenarios.
//!
//! ```text
//! lsrp run scenarios/e21_congested_recovery.toml --jobs 4
//! lsrp scenario check scenarios/*.toml
//! lsrp chaos --topology grid:6x6 --runs 10 --seed 1
//! lsrp run --topology grid:8x8 --protocol lsrp --fault corrupt:9:0 --timeline
//! lsrp compare --topology grid:12x12 --fault corrupt:13:0
//! lsrp topo --topology ba:60:2
//! ```
//!
//! Argument parsing is hand-rolled (no extra dependencies); see
//! [`args::Command::parse`] for the grammar. The flag vocabulary
//! (topologies, destination sets, workloads, congestion knobs) is shared
//! with the declarative scenario loader via [`lsrp_scenario::spec`].
//! There is one front door for campaigns: the `chaos`/`traffic` flags
//! parse into a [`lsrp_scenario::Scenario`] value
//! ([`Command::Campaign`]), which runs through
//! [`lsrp_scenario::run_scenario`] exactly as `lsrp run <file.toml>` runs
//! a file. The library half exists so the parser and scenario driver are
//! unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod driver;

pub use crate::args::{Command, FaultSpec, TopologySpec};
pub use crate::driver::run_command;
