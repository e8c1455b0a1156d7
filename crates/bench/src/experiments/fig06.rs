//! Fig. 6 — Eight TCP flows, one greedy receiver sweeping its CTS-NAV
//! inflation. ~10 ms suffices to dominate the cell.

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};

use crate::experiments::TCP_NAV_SWEEP_MS;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

const PAIRS: usize = 8;
const GREEDY: usize = 7;

/// Runs the sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig6",
        "Fig. 6: 8 TCP flows, one greedy receiver inflating CTS NAV (802.11b)",
        &["inflate_ms", "GR_mbps", "avg_NR_mbps", "min_NR_mbps"],
    );
    let rows = sweep(ctx, "fig6", TCP_NAV_SWEEP_MS, |&ms, job| {
        let mut s = Scenario {
            pairs: PAIRS,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        if ms > 0 {
            s.greedy = vec![(
                GREEDY,
                GreedyConfig::nav_inflation(NavInflationConfig::cts_only(ms * 1_000, 1.0)),
            )];
        }
        let out = job.plan(&s).execute().expect("valid scenario");
        let normals: Vec<f64> = (0..PAIRS)
            .filter(|&i| i != GREEDY)
            .map(|i| out.goodput_mbps(i))
            .collect();
        vec![
            out.goodput_mbps(GREEDY),
            normals.iter().sum::<f64>() / normals.len() as f64,
            normals.iter().cloned().fold(f64::INFINITY, f64::min),
        ]
    });
    for (&ms, vals) in TCP_NAV_SWEEP_MS.iter().zip(rows) {
        e.push_row(vec![
            ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
            mbps(vals[2]),
        ]);
    }
    e
}
