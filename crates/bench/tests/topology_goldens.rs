//! Baselines under topology change: DBF, DUAL-lite and path-vector each
//! run one scripted `grid:5x5` history, logged route delta by route delta,
//! against `goldens/manifest.txt`.

mod common;

#[test]
fn dbf_under_topology_change() {
    common::check("baseline/dbf");
}

#[test]
fn dual_under_topology_change() {
    common::check("baseline/dual");
}

#[test]
fn pv_under_topology_change() {
    common::check("baseline/pv");
}
