//! Fig. 15 — ACK spoofing with remote TCP senders: the wired latency
//! multiplies the cost of end-to-end recovery. The gap peaks around
//! 200 ms, after which ACK clocking throttles the greedy flow too.

use greedy80211::{GreedyConfig, Scenario};
use sim::SimDuration;

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

/// Wire latencies swept, in ms (paper: 2–400 ms).
pub(crate) const WIRE_SWEEP_MS: &[u64] = &[2, 10, 50, 100, 200, 400];

pub(crate) fn remote_pair(
    q: &Quality,
    job: &Job,
    wire_ms: u64,
    gp: f64,
) -> greedy80211::RunOutcome {
    let mut s = Scenario {
        byte_error_rate: 2e-5,
        wire_delay: Some(SimDuration::from_millis(wire_ms)),
        // Remote runs need longer to amortize slow start over long RTTs.
        duration: (q.duration * 2).max(SimDuration::from_secs(10)),
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

/// Runs the latency sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig15",
        "Fig. 15: remote TCP senders over a wired backbone, R2 spoofs for R1 (BER 2e-5)",
        &["wire_ms", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"],
    );
    let rows = sweep(ctx, "fig15", WIRE_SWEEP_MS, |&wire_ms, job| {
        let base = remote_pair(q, job, wire_ms, 0.0);
        let attacked = remote_pair(q, job, wire_ms, 1.0);
        vec![
            base.goodput_mbps(0),
            base.goodput_mbps(1),
            attacked.goodput_mbps(0),
            attacked.goodput_mbps(1),
        ]
    });
    for (&wire_ms, vals) in WIRE_SWEEP_MS.iter().zip(rows) {
        e.push_row(vec![
            wire_ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
            mbps(vals[2]),
            mbps(vals[3]),
        ]);
    }
    e
}
