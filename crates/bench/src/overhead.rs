//! E11 (§VI-B): control overhead is a function of the perturbation size,
//! not the system size.

use lsrp_analysis::{table::fmt_f64, Table};

use crate::scaling::scaling_cell;
use lsrp_scenario::cells::ALL_PROTOCOLS;

/// E11 table: messages per recovery, sweeping network size at fixed
/// perturbation size and vice versa.
pub fn e11_overhead(widths: &[u32], sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E11 — §VI-B: control messages per recovery",
        &[
            "protocol",
            "n (grid)",
            "perturbation p",
            "messages",
            "actions",
            "time",
        ],
    );
    for protocol in ALL_PROTOCOLS {
        for &w in widths {
            for &p in sizes {
                let m = scaling_cell(protocol, w, p, 99);
                t.row(&[
                    m.protocol.to_string(),
                    format!("{}", w * w),
                    p.to_string(),
                    m.messages.to_string(),
                    m.actions.to_string(),
                    fmt_f64(m.stabilization_time),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_scenario::cells::Protocol;

    #[test]
    fn lsrp_overhead_is_local_dbf_global() {
        let lsrp_small = scaling_cell(Protocol::Lsrp, 8, 2, 7);
        let lsrp_large = scaling_cell(Protocol::Lsrp, 16, 2, 7);
        let dbf_small = scaling_cell(Protocol::Dbf, 8, 2, 7);
        let dbf_large = scaling_cell(Protocol::Dbf, 16, 2, 7);
        // LSRP messages stay roughly flat with n; DBF's grow superlinearly.
        assert!(
            lsrp_large.messages < lsrp_small.messages * 4,
            "LSRP: {} -> {}",
            lsrp_small.messages,
            lsrp_large.messages
        );
        assert!(
            dbf_large.messages > dbf_small.messages * 2,
            "DBF: {} -> {}",
            dbf_small.messages,
            dbf_large.messages
        );
    }
}
