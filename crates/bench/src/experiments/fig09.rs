//! Fig. 9 — Eight TCP flows with a growing number of greedy receivers
//! (CTS NAV +31 ms, GP 100 %). Beyond one greedy receiver only a single
//! one survives: the first to grab the channel re-reserves it forever.

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

const PAIRS: usize = 8;

/// Runs the sweep over the number of greedy receivers.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut cols: Vec<String> = vec!["num_greedy".into()];
    cols.extend((0..PAIRS).map(|i| format!("R{i}_mbps")));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut e = Experiment::new(
        "fig9",
        "Fig. 9: 8 TCP flows, varying number of greedy receivers (CTS NAV +31 ms)",
        &col_refs,
    );
    let points: Vec<usize> = (0..=PAIRS).collect();
    let rows = sweep(ctx, "fig9", &points, |&num_greedy, job| {
        let mut s = Scenario {
            pairs: PAIRS,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        s.greedy = (0..num_greedy)
            .map(|i| {
                (
                    i,
                    GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, 1.0)),
                )
            })
            .collect();
        let out = job.plan(&s).execute().expect("valid scenario");
        (0..PAIRS).map(|i| out.goodput_mbps(i)).collect()
    });
    for (&num_greedy, vals) in points.iter().zip(rows) {
        let mut row = vec![num_greedy.to_string()];
        row.extend(vals.iter().map(|&v| mbps(v)));
        e.push_row(row);
    }
    e
}
