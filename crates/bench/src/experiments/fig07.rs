//! Fig. 7 — Varying the greedy percentage: inflating only a fraction of
//! CTS frames still pays handsomely (TCP, 802.11b).

use greedy80211::NavInflationConfig;

use crate::experiments::nav_two_pair;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the GP × inflation grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig7",
        "Fig. 7: TCP goodput vs greedy percentage for CTS-NAV inflation of 5/10/31 ms (802.11b)",
        &["gp_pct", "inflate_ms", "NR_mbps", "GR_mbps"],
    );
    let grid: Vec<(u32, u32)> = [5u32, 10, 31]
        .iter()
        .flat_map(|&ms| [0u32, 25, 50, 75, 100].iter().map(move |&gp| (ms, gp)))
        .collect();
    let rows = sweep(ctx, "fig7", &grid, |&(ms, gp), job| {
        let nav = NavInflationConfig::cts_only(ms * 1_000, gp as f64 / 100.0);
        let s = nav_two_pair(false, nav, q, job.seed);
        let out = job.plan(&s).execute().expect("valid scenario");
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&(ms, gp), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            gp.to_string(),
            ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
