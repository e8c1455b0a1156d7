//! Fig. 17 — ACK spoofing against UDP traffic: one AP sending CBR to
//! two receivers. Disabling the victim's MAC retransmissions shifts
//! service time toward the greedy receiver, though less dramatically
//! than under TCP (no congestion-control amplification).

use greedy80211::{GreedyConfig, Scenario, TransportKind};

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// BER values swept.
const BERS: &[f64] = &[1e-5, 1e-4, 2e-4, 4.4e-4, 8e-4];

/// Runs the loss sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig17",
        "Fig. 17: UDP goodput vs loss rate, shared AP, R2 spoofs for R1 (802.11b)",
        &["BER", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"],
    );
    let rows = sweep(ctx, "fig17", BERS, |&ber, job| {
        let mut s = Scenario {
            shared_sender: true,
            transport: TransportKind::SATURATING_UDP,
            byte_error_rate: ber,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let base = job.plan(&s).execute().expect("valid");
        s.greedy = vec![(1, GreedyConfig::ack_spoofing(vec![base.receivers[0]], 1.0))];
        let out = job.plan(&s).execute().expect("valid");
        vec![
            base.goodput_mbps(0),
            base.goodput_mbps(1),
            out.goodput_mbps(0),
            out.goodput_mbps(1),
        ]
    });
    for (&ber, vals) in BERS.iter().zip(rows) {
        e.push_row(vec![
            format!("{ber:.1e}"),
            mbps(vals[0]),
            mbps(vals[1]),
            mbps(vals[2]),
            mbps(vals[3]),
        ]);
    }
    e
}
