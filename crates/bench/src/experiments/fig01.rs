//! Fig. 1 — Goodput of two UDP flows where the greedy receiver inflates
//! its CTS NAV (802.11b). Even a sub-millisecond inflation starves the
//! competing flow completely.

use greedy80211::NavInflationConfig;

use crate::experiments::{nav_two_pair, UDP_NAV_SWEEP_US};
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig1",
        "Fig. 1: UDP goodput vs CTS-NAV inflation (802.11b)",
        &["inflate_us", "NR_mbps", "GR_mbps"],
    );
    let rows = sweep(ctx, "fig1", UDP_NAV_SWEEP_US, |&inflate, job| {
        let s = nav_two_pair(
            true,
            NavInflationConfig::cts_only(inflate, 1.0),
            q,
            job.seed,
        );
        let out = job.plan(&s).execute().expect("valid scenario");
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&inflate, vals) in UDP_NAV_SWEEP_US.iter().zip(rows) {
        e.push_row(vec![inflate.to_string(), mbps(vals[0]), mbps(vals[1])]);
    }
    e
}
