//! Ablation 2 — the capture threshold and ACK spoofing.
//!
//! The paper sidesteps the jamming case of misbehavior 2 by arranging
//! capture between overlapping genuine and spoofed ACKs. This ablation
//! sweeps the capture threshold: with our 25 m attacker/victim offset
//! (≈10.6 dB power gap at the sender), thresholds at or below ~10 dB
//! preserve the paper's no-jamming regime, while larger thresholds turn
//! every overlap into a collision — the spoofer then additionally jams
//! the victim's genuine ACKs, and the victim does even worse.

use greedy80211::{GreedyConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

fn spoof_with_threshold(q: &Quality, job: &Job, threshold_db: f64) -> Vec<f64> {
    // Scenario drives placement; we rebuild with a custom capture model
    // via the underlying builder by cloning the standard topology.
    let mut s = Scenario {
        byte_error_rate: 2e-4,
        duration: q.duration,
        seed: job.seed,
        ..Scenario::default()
    };
    let probe = job.plan(&s).execute().expect("valid");
    s.greedy = vec![(1, GreedyConfig::ack_spoofing(vec![probe.receivers[0]], 1.0))];
    s.capture_threshold_db = Some(threshold_db);
    let out = job.plan(&s).execute().expect("valid");
    vec![out.goodput_mbps(0), out.goodput_mbps(1)]
}

/// Capture thresholds swept, in dB.
const THRESHOLDS_DB: &[f64] = &[0.0, 5.0, 10.0, 15.0, 25.0];

/// Runs the threshold sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "abl2",
        "Ablation: capture threshold vs ACK-spoofing outcome (TCP, BER 2e-4)",
        &["capture_threshold_db", "NR_mbps", "GR_mbps"],
    );
    let rows = sweep(ctx, "abl2", THRESHOLDS_DB, |&thr, job| {
        spoof_with_threshold(q, job, thr)
    });
    for (&thr, vals) in THRESHOLDS_DB.iter().zip(rows) {
        e.push_row(vec![format!("{thr}"), mbps(vals[0]), mbps(vals[1])]);
    }
    e
}
