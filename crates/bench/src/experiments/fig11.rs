//! Fig. 11 — ACK spoofing under TCP: goodput vs bit error rate for
//! 802.11b and 802.11a. The greedy gain peaks at moderate loss: too
//! little loss gives nothing to disable, too much loss hurts the greedy
//! flow itself.

use greedy80211::{GreedyConfig, Scenario};
use phy::PhyStandard;

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

/// BER values swept (paper Table III's grid, plus clean).
pub(crate) const BER_SWEEP: &[f64] = &[0.0, 1e-5, 1e-4, 2e-4, 3.2e-4, 4.4e-4, 8e-4];

pub(crate) fn spoof_pair(
    q: &Quality,
    job: &Job,
    phy: PhyStandard,
    ber: f64,
    gp: f64,
) -> greedy80211::RunOutcome {
    let mut s = Scenario {
        phy,
        byte_error_rate: ber,
        duration: q.duration,
        seed: job.seed,
        ..Scenario::default()
    };
    let base = job.plan(&s).execute().expect("valid");
    if gp > 0.0 {
        s.greedy = vec![(1, GreedyConfig::ack_spoofing(vec![base.receivers[0]], gp))];
        job.plan(&s).execute().expect("valid")
    } else {
        base
    }
}

/// Runs both PHYs over the BER sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig11",
        "Fig. 11: TCP goodput vs BER, R2 spoofs MAC ACKs for R1",
        &["phy", "BER", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"],
    );
    for phy in [PhyStandard::Dot11b, PhyStandard::Dot11a] {
        let label = format!("fig11/{phy}");
        let rows = sweep(ctx, &label, BER_SWEEP, |&ber, job| {
            let base = spoof_pair(q, job, phy, ber, 0.0);
            let attacked = spoof_pair(q, job, phy, ber, 1.0);
            vec![
                base.goodput_mbps(0),
                base.goodput_mbps(1),
                attacked.goodput_mbps(0),
                attacked.goodput_mbps(1),
            ]
        });
        for (&ber, vals) in BER_SWEEP.iter().zip(rows) {
            e.push_row(vec![
                phy.to_string(),
                format!("{ber:.1e}"),
                mbps(vals[0]),
                mbps(vals[1]),
                mbps(vals[2]),
                mbps(vals[3]),
            ]);
        }
    }
    e
}
