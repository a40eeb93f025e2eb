//! Engine trajectories: seeded full LSRP simulations under chaos and under
//! congested traffic, fingerprinted action by action, against
//! `goldens/manifest.txt`.

mod common;

#[test]
fn chaos_trajectories_are_pinned() {
    common::check("trajectory/chaos-");
}

#[test]
fn congested_traffic_trajectories_are_pinned() {
    common::check("trajectory/traffic-");
}
