//! Fig. 24 — GRC against ACK spoofing across the loss-rate sweep: with
//! the RSSI vetting enabled, both flows track the no-attack curves.

use greedy80211::{GreedyConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// BER values swept.
const BERS: &[f64] = &[1e-5, 1e-4, 2e-4, 4.4e-4, 8e-4, 1.4e-3];

/// Runs the BER sweep for all three cases.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig24",
        "Fig. 24: GRC vs ACK spoofing across BER (TCP, 802.11b)",
        &[
            "BER", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR", "GRC_NR", "GRC_GR",
        ],
    );
    let rows = sweep(ctx, "fig24", BERS, |&ber, job| {
        let mut s = Scenario {
            byte_error_rate: ber,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let base = job.plan(&s).execute().expect("valid");
        s.greedy = vec![(1, GreedyConfig::ack_spoofing(vec![base.receivers[0]], 1.0))];
        let attacked = job.plan(&s).execute().expect("valid");
        s.grc = Some(true);
        let guarded = job.plan(&s).execute().expect("valid");
        vec![
            base.goodput_mbps(0),
            base.goodput_mbps(1),
            attacked.goodput_mbps(0),
            attacked.goodput_mbps(1),
            guarded.goodput_mbps(0),
            guarded.goodput_mbps(1),
        ]
    });
    for (&ber, vals) in BERS.iter().zip(rows) {
        let mut row = vec![format!("{ber:.1e}")];
        row.extend(vals.iter().map(|&v| mbps(v)));
        e.push_row(row);
    }
    e
}
