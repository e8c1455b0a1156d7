//! Fig. 2 — Average contention window of the greedy and normal senders
//! as the NAV inflation grows (UDP, 802.11b). GS stays near CWmin while
//! NS's collisions drive its window up.

use greedy80211::NavInflationConfig;

use crate::experiments::{nav_two_pair, UDP_NAV_SWEEP_US};
use crate::table::Experiment;
use crate::{sweep, RunCtx};

/// Runs the sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig2",
        "Fig. 2: average contention window of GS and NS vs CTS-NAV inflation (UDP, 802.11b)",
        &["inflate_us", "NS_avg_cw", "GS_avg_cw"],
    );
    let rows = sweep(ctx, "fig2", UDP_NAV_SWEEP_US, |&inflate, job| {
        let s = nav_two_pair(
            true,
            NavInflationConfig::cts_only(inflate, 1.0),
            q,
            job.seed,
        );
        let out = job.plan(&s).execute().expect("valid scenario");
        let cw = |node| {
            out.metrics
                .node(node)
                .and_then(|n| n.avg_cw)
                .unwrap_or(f64::NAN)
        };
        vec![cw(out.senders[0]), cw(out.senders[1])]
    });
    for (&inflate, vals) in UDP_NAV_SWEEP_US.iter().zip(rows) {
        e.push_row(vec![
            inflate.to_string(),
            format!("{:.1}", vals[0]),
            format!("{:.1}", vals[1]),
        ]);
    }
    e
}
