//! Metrics and the experiment harness for the LSRP reproduction.
//!
//! The paper's quantitative claims are about four quantities, all measured
//! here from engine traces, uniformly across LSRP and the baselines:
//!
//! * **stabilization time** — last protocol-variable change after a fault;
//! * **perturbed / contaminated node sets** and the **range of
//!   contamination** (§III-A);
//! * **loop episodes** — whether, when and for how long routing loops
//!   existed (Theorems 3–4);
//! * **control overhead** — messages and action executions (§VI-B).
//!
//! The [`RoutingSimulation`] trait adapts [`lsrp_core::LsrpSimulation`],
//! [`lsrp_baselines::DbfSimulation`] and
//! [`lsrp_baselines::DualSimulation`] to one measurement interface, so
//! every experiment runs identically against all three protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod forwarding;
pub mod loops;
pub mod measure;
pub mod monitor;
pub mod multi_chaos;
pub mod parallel;
pub mod sim_trait;
pub mod table;
pub mod timeline;
pub mod traffic;
pub mod waves;

pub use crate::chaos::{
    minimize_run, replay, replay_repro, run_campaign, Campaign, CampaignConfig, CampaignRun,
    ChaosConfig, ReproCase, Target,
};
pub use crate::forwarding::{measure_availability, AvailabilityTrace, PacketFate};
pub use crate::loops::{measure_loop_breakage, LoopBreakage, LoopScreen};
pub use crate::measure::{measure_recovery, RecoveryMetrics};
pub use crate::monitor::{
    run_monitored, standard_monitors, ContaminationMonitor, ConvergenceMonitor, LoopMonitor,
    Monitor, MonitorReport, Violation, ViolationKind, WaveOrderMonitor,
};
pub use crate::parallel::run_sharded;
pub use crate::sim_trait::RoutingSimulation;
pub use crate::table::Table;
pub use crate::traffic::{
    AvailabilityMonitor, TrafficConfig, TrafficMode, TrafficSummary, WorkloadDriver, WorkloadKind,
    WorkloadSpec,
};
pub use crate::waves::{track_containment, wave_stats, ContainmentEpisode, WaveStats};
