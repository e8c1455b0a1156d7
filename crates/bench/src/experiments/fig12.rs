//! Fig. 12 — ACK spoofing: greedy percentage × loss rate grid (TCP,
//! 802.11b). More spoofing means more goodput at every loss rate.

use phy::PhyStandard;

use crate::experiments::fig11::spoof_pair;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the GP × BER grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig12",
        "Fig. 12: TCP goodput vs spoofing greedy percentage across loss rates (802.11b)",
        &["BER", "gp_pct", "NR_mbps", "GR_mbps"],
    );
    let grid: Vec<(f64, u32)> = [2e-5, 2e-4, 8e-4]
        .iter()
        .flat_map(|&ber| [0u32, 20, 50, 80, 100].iter().map(move |&gp| (ber, gp)))
        .collect();
    let rows = sweep(ctx, "fig12", &grid, |&(ber, gp), job| {
        let out = spoof_pair(q, job, PhyStandard::Dot11b, ber, gp as f64 / 100.0);
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&(ber, gp), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            format!("{ber:.0e}"),
            gp.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
