//! Scenario reports, traces, `experiments` output and the CLI campaigns
//! without a suite of their own, against `goldens/manifest.txt`; see
//! `common` for the contract and how to bless a change.

mod common;

#[test]
fn cheap_artefacts_match_the_manifest() {
    common::check_rest(false);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: a minute of simulation unoptimised"
)]
fn costly_artefacts_match_the_manifest() {
    common::check_rest(true);
}
