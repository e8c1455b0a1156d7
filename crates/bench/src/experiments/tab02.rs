//! Table II — Average TCP congestion window under CTS-NAV inflation,
//! one shared sender vs two independent senders.

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};

use crate::table::Experiment;
use crate::{sweep, RunCtx};

fn avg_cwnd(out: &greedy80211::RunOutcome, i: usize) -> f64 {
    out.metrics
        .flow(out.flows[i])
        .and_then(|f| f.avg_cwnd)
        .unwrap_or(f64::NAN)
}

/// Inflation amounts swept, in ms.
const INFLATE_MS: &[u32] = &[0, 1, 2, 5, 10, 20, 31];

/// Runs both columns of the table.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab2",
        "Table II: average TCP congestion window vs CTS-NAV inflation (802.11b)",
        &["inflate_ms", "S-NR", "S-GR", "NS-NR", "GS-GR"],
    );
    let rows = sweep(ctx, "tab2", INFLATE_MS, |&ms, job| {
        let greedy = |s: &mut Scenario| {
            if ms > 0 {
                s.greedy = vec![(
                    1,
                    GreedyConfig::nav_inflation(NavInflationConfig::cts_only(ms * 1_000, 1.0)),
                )];
            }
        };
        // One shared sender.
        let mut one = Scenario {
            shared_sender: true,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        greedy(&mut one);
        let one = job.plan(&one).execute().expect("valid");
        // Two senders.
        let mut two = Scenario {
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        greedy(&mut two);
        let two = job.plan(&two).execute().expect("valid");
        vec![
            avg_cwnd(&one, 0),
            avg_cwnd(&one, 1),
            avg_cwnd(&two, 0),
            avg_cwnd(&two, 1),
        ]
    });
    for (&ms, vals) in INFLATE_MS.iter().zip(rows) {
        e.push_row(vec![
            ms.to_string(),
            format!("{:.3}", vals[0]),
            format!("{:.3}", vals[1]),
            format!("{:.3}", vals[2]),
            format!("{:.3}", vals[3]),
        ]);
    }
    e
}
