//! Declarative scenario files and the campaign compiler.
//!
//! This crate lifts the repo's hand-coded experiments into data: a
//! scenario is a TOML file declaring a topology, timing, fault process,
//! traffic workload, monitors, sweep axes and expectations. The
//! [`schema`] module parses files with line/field diagnostics, and the
//! [`exec`] module compiles a scenario into concrete cells handed to
//! the deterministic sharded runner — the rendered report is
//! byte-identical for any `--jobs` value and byte-identical to the
//! legacy hand-coded experiment paths the files replaced.
//!
//! Layering:
//!
//! - [`toml`] — a small hand-rolled TOML-subset parser (no crates.io
//!   dependency) with per-line spans.
//! - [`spec`] — shared flag/field vocabulary: topology specs,
//!   destination sets, workload/discipline/transport spellings and
//!   range checks, reused by the CLI's flag parser.
//! - [`schema`] — the scenario data model and loader.
//! - [`cells`] — the experiment cell primitives (recovery, multi-plane
//!   recovery, snapshot/live prefix-hijack), ported intact from the
//!   bench crate so scenario-compiled runs reproduce its bytes.
//! - [`exec`] — sweep expansion, cell execution, report rendering and
//!   expectation evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod exec;
pub mod schema;
pub mod spec;
pub mod toml;

pub use cells::{Protocol, ALL_PROTOCOLS};
pub use exec::{expand_list, run_scenario, ExecOptions, ScenarioOutcome, ScenarioResult};
pub use schema::{load_str, Scenario, ScenarioBody};
pub use spec::{DestinationsSpec, TopologySpec};
