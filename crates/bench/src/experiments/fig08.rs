//! Fig. 8 — Zero, one or two greedy receivers among two TCP pairs.
//! With both greedy, whoever grabs the medium first keeps it.

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig8",
        "Fig. 8: goodput under 0/1/2 greedy receivers, CTS NAV +5/10/31 ms (TCP, 802.11b)",
        &["inflate_ms", "num_greedy", "R1_mbps", "R2_mbps"],
    );
    let grid: Vec<(u32, usize)> = [5u32, 10, 31]
        .iter()
        .flat_map(|&ms| (0..=2usize).map(move |n| (ms, n)))
        .collect();
    let rows = sweep(ctx, "fig8", &grid, |&(ms, num_greedy), job| {
        let mut s = Scenario {
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let cfg = || GreedyConfig::nav_inflation(NavInflationConfig::cts_only(ms * 1_000, 1.0));
        s.greedy = match num_greedy {
            0 => vec![],
            1 => vec![(1, cfg())],
            _ => vec![(0, cfg()), (1, cfg())],
        };
        let out = job.plan(&s).execute().expect("valid scenario");
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&(ms, num_greedy), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            ms.to_string(),
            num_greedy.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
