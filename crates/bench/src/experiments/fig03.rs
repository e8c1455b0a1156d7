//! Fig. 3 — Sending ratio between the greedy and normal pairs: measured
//! RTS counts against the analytical model (paper Equations 1–2), fed
//! with the empirical contention-window distributions from the same run.

use greedy80211::{model, NavInflationConfig};

use crate::experiments::{nav_two_pair, UDP_NAV_SWEEP_US};
use crate::table::{ratio, Experiment};
use crate::{sweep, RunCtx};

/// Runs the sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig3",
        "Fig. 3: GS share of transmissions — simulation vs analytical model (UDP, 802.11b)",
        &["inflate_us", "measured_GS_share", "model_GS_share"],
    );
    let rows = sweep(ctx, "fig3", UDP_NAV_SWEEP_US, |&inflate, job| {
        let s = nav_two_pair(
            true,
            NavInflationConfig::cts_only(inflate, 1.0),
            q,
            job.seed,
        );
        let out = job.plan(&s).execute().expect("valid scenario");
        let ns = &out.metrics.node(out.senders[0]).unwrap().counters;
        let gs = &out.metrics.node(out.senders[1]).unwrap().counters;
        let measured = {
            let total = (ns.rts_sent.get() + gs.rts_sent.get()) as f64;
            if total == 0.0 {
                0.5
            } else {
                gs.rts_sent.get() as f64 / total
            }
        };
        let v_slots = model::inflation_us_to_slots(inflate, 20);
        let predicted =
            model::nav_inflation_model(v_slots, &gs.cw_distribution(), &ns.cw_distribution())
                .greedy_share();
        vec![measured, predicted]
    });
    for (&inflate, vals) in UDP_NAV_SWEEP_US.iter().zip(rows) {
        e.push_row(vec![inflate.to_string(), ratio(vals[0]), ratio(vals[1])]);
    }
    e
}
