//! Pinned campaign bytes: five `lsrp chaos|traffic` invocations, one per
//! report shape — single-destination chaos with minimized repros, multi
//! chaos, congested single traffic, multi traffic — plus the trace file
//! of a sharded, traced campaign, against `goldens/manifest.txt`.

mod common;

#[test]
fn single_destination_chaos_with_minimized_repros() {
    common::check("campaign/chaos-grid5x5-horizon-40");
}

#[test]
fn multi_destination_chaos() {
    common::check("campaign/chaos-grid3x3-destinations-2");
}

#[test]
fn congested_single_destination_traffic() {
    common::check("campaign/traffic-grid3x3-congested-ecn");
}

#[test]
fn multi_destination_traffic() {
    common::check("campaign/traffic-grid3x3-all-pairs");
}

#[test]
fn sharded_campaign_traces_run_zero() {
    common::check("campaign/trace-chaos-grid3x3-jobs-2");
}
