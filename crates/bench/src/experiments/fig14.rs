//! Fig. 14 — One spoofing receiver against a growing crowd of normal
//! pairs (TCP, BER 2e-4): shared AP vs one AP per pair. Head-of-line
//! blocking at a shared AP narrows the gap.

use greedy80211::{GreedyConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

fn run_case(q: &Quality, job: &Job, pairs: usize, shared: bool) -> Vec<f64> {
    let greedy_idx = pairs - 1;
    let mut s = Scenario {
        pairs,
        shared_sender: shared,
        byte_error_rate: 2e-4,
        duration: q.duration,
        seed: job.seed,
        ..Scenario::default()
    };
    let probe = job.plan(&s).execute().expect("valid");
    let victims: Vec<_> = (0..pairs - 1).map(|i| probe.receivers[i]).collect();
    s.greedy = vec![(greedy_idx, GreedyConfig::ack_spoofing(victims, 1.0))];
    let out = job.plan(&s).execute().expect("valid");
    let normals: Vec<f64> = (0..pairs - 1).map(|i| out.goodput_mbps(i)).collect();
    let avg_nr = normals.iter().sum::<f64>() / normals.len().max(1) as f64;
    vec![out.goodput_mbps(greedy_idx), avg_nr]
}

/// Runs both sub-figures over the pair count.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig14",
        "Fig. 14: one spoofing receiver vs N normal pairs (TCP, BER 2e-4, 802.11b)",
        &["topology", "normal_pairs", "GR_mbps", "avg_NR_mbps"],
    );
    for shared in [true, false] {
        let name = if shared { "one_AP" } else { "per_pair_APs" };
        let label = format!("fig14/{name}");
        let counts = [1usize, 2, 4, 7];
        let rows = sweep(ctx, &label, &counts, |&n, job| {
            run_case(q, job, n + 1, shared)
        });
        for (&n, vals) in counts.iter().zip(rows) {
            e.push_row(vec![
                name.into(),
                n.to_string(),
                mbps(vals[0]),
                mbps(vals[1]),
            ]);
        }
    }
    e
}
