//! Error-snapshot tests: the loader's diagnostics name the offending
//! line and field, exactly — and a run-time failure a scenario file can
//! provoke comes back as an error, never a panic.

use lsrp_scenario::exec::{run_scenario, ExecOptions};
use lsrp_scenario::schema::load_str;

fn err(src: &str) -> String {
    load_str(src).expect_err("scenario should be rejected")
}

#[test]
fn unknown_field_names_line_and_section() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"chaos\"\n\
               [topology]\n\
               spec = \"grid:4x4\"\n\
               [faults]\n\
               link_flapz = 3\n";
    assert_eq!(err(src), "line 7: unknown field 'link_flapz' in [faults]");
    // The trace encoding is JSONL only; there is no format to choose.
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"chaos\"\n\
               [topology]\n\
               spec = \"grid:4x4\"\n\
               [trace]\n\
               path = \"t.jsonl\"\n\
               format = \"jsonl\"\n";
    assert_eq!(err(src), "line 8: unknown field 'format' in [trace]");
}

#[test]
fn type_mismatch_names_expected_and_actual_types() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"traffic\"\n\
               [topology]\n\
               spec = \"grid:4x4\"\n\
               [workload]\n\
               flows = \"many\"\n";
    assert_eq!(
        err(src),
        "line 7: [workload] field 'flows' must be a integer, got string"
    );
}

#[test]
fn out_of_range_rate_is_rejected_with_the_shared_check_message() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"traffic\"\n\
               [topology]\n\
               spec = \"grid:4x4\"\n\
               [workload]\n\
               rate = -5.0\n";
    assert_eq!(
        err(src),
        "line 7: [workload] field 'rate' must be positive and finite"
    );
}

#[test]
fn contradictory_sweep_axes_are_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               protocol = \"lsrp\"\n\
               width = 8\n\
               p = 2\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"p\"]\n\
               [sweep]\n\
               p = [1, 2]\n\
               [[case]]\n\
               p = 1\n";
    assert_eq!(
        err(src),
        "line 13: contradictory sweep axes: [sweep] and [[case]] are mutually exclusive"
    );
}

#[test]
fn unknown_sweep_axis_lists_the_kind_vocabulary() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               protocol = \"lsrp\"\n\
               width = 8\n\
               p = 2\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"p\"]\n\
               [sweep]\n\
               duration = [1, 2]\n";
    assert_eq!(
        err(src),
        "line 12: unknown sweep axis 'duration' for kind 'recovery' (try protocol, width, p, loss)"
    );
}

#[test]
fn sections_outside_the_kind_are_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"chaos\"\n\
               [topology]\n\
               spec = \"grid:4x4\"\n\
               [workload]\n\
               flows = 8\n";
    assert_eq!(
        err(src),
        "line 6: unknown section [workload] for kind 'chaos'"
    );
}

#[test]
fn unknown_report_column_lists_the_mode_vocabulary() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"hijack\"\n\
               [hijack]\n\
               mode = \"snapshot\"\n\
               width = 8\n\
               p = 2\n\
               protocol = \"lsrp\"\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"goodput\"]\n";
    assert_eq!(
        err(src),
        "line 11: unknown column 'goodput' for kind 'hijack' (try protocol, min_avail, degraded, lost_avail)"
    );
}

#[test]
fn unknown_expectation_metric_lists_the_kind_vocabulary() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"chaos\"\n\
               expect = [\"goodput >= 0.9\"]\n\
               [topology]\n\
               spec = \"grid:4x4\"\n";
    assert_eq!(
        err(src),
        "line 4: unknown expectation metric 'goodput' for kind 'chaos' (try violating, runs)"
    );
}

#[test]
fn malformed_expectations_are_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"chaos\"\n\
               expect = [\"violating ~ 0\"]\n\
               [topology]\n\
               spec = \"grid:4x4\"\n";
    assert_eq!(
        err(src),
        "line 4: expectation 'violating ~ 0' has unknown operator '~' (try >=, <=, >, <, ==, !=)"
    );
}

#[test]
fn jitter_without_clock_rho_is_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               protocol = \"lsrp\"\n\
               width = 8\n\
               p = 2\n\
               [engine]\n\
               jitter = [0.5, 1.5]\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"p\"]\n";
    assert_eq!(
        err(src),
        "line 8: [engine] 'jitter' and 'clock_rho' must be set together (the harsh model needs both)"
    );
}

#[test]
fn unknown_kind_is_rejected_at_the_kind_line() {
    for kind in ["stress", "builtin"] {
        let src = format!("[scenario]\nname = \"x\"\nkind = \"{kind}\"\n");
        assert_eq!(
            err(&src),
            format!(
                "line 3: unknown scenario kind '{kind}' (try chaos, traffic, recovery, hijack)"
            )
        );
    }
}

#[test]
fn toml_syntax_errors_carry_the_line() {
    assert_eq!(err("[scenario\n"), "line 1: unclosed `[` table header");
    assert_eq!(
        err("[scenario]\nname = oops\n"),
        "line 2: invalid value `oops` (strings need quotes)"
    );
}

#[test]
fn fault_regions_without_topology_are_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               p = 4\n\
               seed = 5\n\
               [[fault.region]]\n\
               case = \"a\"\n\
               seed_node = 16\n";
    assert_eq!(
        err(src),
        "line 4: [[fault.region]] cases need a [topology] section"
    );
}

#[test]
fn fault_regions_reject_the_width_sweep_knob() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [topology]\n\
               spec = \"ring:64\"\n\
               [recovery]\n\
               width = 8\n\
               p = 4\n\
               seed = 5\n\
               [[fault.region]]\n\
               case = \"a\"\n\
               seed_node = 16\n";
    assert_eq!(
        err(src),
        "line 6: [recovery] 'width' does not apply to [[fault.region]] cases (set [topology] spec instead)"
    );
}

#[test]
fn fault_region_without_a_case_label_is_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [topology]\n\
               spec = \"ring:64\"\n\
               [recovery]\n\
               p = 4\n\
               seed = 5\n\
               [[fault.region]]\n\
               seed_node = 16\n";
    assert_eq!(
        err(src),
        "line 9: [[fault.region]] needs a 'case' label (regions with the same label run concurrently)"
    );
}

#[test]
fn topology_without_fault_regions_is_rejected() {
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [topology]\n\
               spec = \"ring:64\"\n\
               [recovery]\n\
               p = 4\n\
               seed = 5\n";
    assert_eq!(
        err(src),
        "line 6: [topology] on a recovery scenario needs [[fault.region]] cases (the sweep path builds a grid from 'width')"
    );
}

#[test]
fn unrecovered_require_correct_cell_is_an_error_naming_the_cell() {
    // `require_correct` defaults to true; with every message lost the
    // blackholed region can never be repaired, so the cell settles with
    // wrong routes.
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               protocol = \"lsrp\"\n\
               width = 4\n\
               p = 2\n\
               seed = 5\n\
               fault = \"blackhole-region\"\n\
               [engine]\n\
               syn_period = 5.0\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"loss\", \"routes_correct\"]\n\
               [sweep]\n\
               loss = [0.0, 1.0]\n";
    let scenario = load_str(src).expect("scenario parses");
    let err = run_scenario(&scenario, ExecOptions::default()).expect_err("cell cannot recover");
    assert_eq!(
        err,
        "recovery cell did not recover (quiescent=true, routes_correct=false): \
         protocol=lsrp width=4 p=2 loss=1.0 seed=5"
    );
}

#[test]
fn dbf_cell_recovers_on_a_grid_deeper_than_its_default_infinity() {
    // A 40x40 grid has nodes 78 hops from the destination. With DBF's
    // default bounded infinity of 64 they were clamped to no route even
    // in the legitimate state, and this cell failed with the error above
    // (quiescent=true, routes_correct=false) though nothing was wrong
    // with the run; `cells::build` now sizes the bound to the graph.
    let src = "[scenario]\n\
               name = \"x\"\n\
               kind = \"recovery\"\n\
               [recovery]\n\
               protocol = \"dbf\"\n\
               width = 40\n\
               p = 1\n\
               seed = 42\n\
               seed_mode = \"plus-width\"\n\
               fault = \"corrupt-region\"\n\
               [report]\n\
               title = \"t\"\n\
               columns = [\"protocol\", \"grid_n\", \"routes_correct\"]\n";
    let scenario = load_str(src).expect("scenario parses");
    let outcome = run_scenario(&scenario, ExecOptions::default()).expect("the cell recovers");
    let report = outcome.report();
    assert!(
        report.contains("| DBF") && report.contains("| 1600"),
        "{report}"
    );
}

#[test]
fn a_workload_heavier_than_2_53_packets_is_rejected_at_its_field() {
    // Each used to be accepted and overflowed the engine's weighted
    // packet counters: 1 flow at 1e300 packets/s; 2 transport flows
    // lasting 1e300 s; all-pairs flows, one per node (whatever `flows`
    // says), on a 60x60 grid at 1.2e13 packets/s; all-pairs flows to
    // every node of a 1000x1000 grid at the default rate; and a live
    // hijack's workload.
    let head = |kind: &str, topology: &str| {
        format!("[scenario]\nname = \"x\"\nkind = \"{kind}\"\n[topology]\nspec = \"{topology}\"\n")
    };
    let traffic = head("traffic", "grid:3x3");
    let cases = [
        (
            format!("{traffic}[workload]\nflows = 1\nrate = 1e300\n"),
            "line 8: [workload] field 'rate'",
        ),
        (
            format!(
                "{traffic}[workload]\nflows = 2\n[congestion]\nlink_rate = 200.0\ncc = \"aimd\"\n\
                 [traffic]\nduration = 1e300\n"
            ),
            "line 12: [traffic] field 'duration'",
        ),
        (
            format!(
                "{}[workload]\nkind = \"all-pairs\"\nflows = 1\nrate = 1.2e13\n",
                head("traffic", "grid:60x60")
            ),
            "line 9: [workload] field 'rate'",
        ),
        (
            format!(
                "{}[campaign]\ndestinations = \"all-pairs\"\n[workload]\nkind = \"all-pairs\"\n",
                head("traffic", "grid:1000x1000")
            ),
            "line 9: [workload] field 'kind'",
        ),
        (
            "[scenario]\nname = \"x\"\nkind = \"hijack\"\n[hijack]\nwidth = 12\np = 2\n\
             [workload]\nrate = 1e300\n[report]\ntitle = \"t\"\ncolumns = [\"p\"]\n"
                .to_string(),
            "line 8: [workload] field 'rate'",
        ),
    ];
    for (src, field) in cases {
        let msg = err(&src);
        assert!(
            msg.starts_with(&format!("{field} makes the workload offer"))
                && msg.ends_with("more than 2^53"),
            "{msg}"
        );
    }
}
