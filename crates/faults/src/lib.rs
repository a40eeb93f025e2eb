//! Fault model and perturbation generators (§II fault model of the paper).
//!
//! The paper's fault classes: nodes and edges fail-stop, down nodes and
//! edges join, node state gets corrupted (any variable — including the
//! neighbor mirrors — to any value), and edge weights change. This crate
//! provides:
//!
//! * [`Fault`] — a declarative description of one fault, applied to a
//!   simulation of any protocol by [`Fault::apply`]; state corruption is
//!   a [`CorruptionKind`] (defined in `lsrp_sim`, which every protocol
//!   lands through its one hook);
//! * [`plan`] — fault plans, the forged-route builder
//!   ([`FaultPlan::forged_routes`]: a corruption the neighbours have
//!   already learned), plus the exact perturbation-size accounting of
//!   §III (via `lsrp_graph::concepts`);
//! * [`corruption`] — random corruption generators with a target
//!   *perturbation region* (contiguous node sets of a chosen size);
//! * [`regions`] — multi-region perturbations at controlled separations
//!   (Lemmas 2/3, Corollary 1);
//! * [`loops`] — corrupted-in routing loops of chosen length (Theorem 4);
//! * [`continuous`] — recurring-fault processes (Corollary 4, Theorem 5);
//! * [`schedule`] — time-ordered fault schedules with a replayable text
//!   serialization, applied best-effort (chaos campaigns);
//! * [`process`] — seeded stochastic fault processes (link flaps, node
//!   churn, partition-and-heal, corruptions) generating schedules;
//! * [`shrink`] — delta-debugging minimization of violating schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod continuous;
pub mod corruption;
pub mod fault;
pub mod loops;
mod model;
#[cfg(test)]
mod oracle;
pub mod plan;
pub mod process;
pub mod regions;
pub mod schedule;
pub mod shrink;

pub use crate::continuous::RecurringFault;
pub use crate::fault::{CorruptionKind, Fault};
pub use crate::plan::FaultPlan;
pub use crate::process::FaultProcess;
pub use crate::schedule::{FaultSchedule, ScheduleParseError, TimedFault};
pub use crate::shrink::shrink_schedule;
