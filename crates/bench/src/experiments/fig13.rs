//! Fig. 13 — Zero, one or two spoofing receivers (TCP, BER 2e-4).
//! With mutual spoofing both flows disable each other's MAC recovery
//! and total goodput collapses as GP grows.

use greedy80211::{GreedyConfig, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig13",
        "Fig. 13: goodput under 0/1/2 spoofing receivers (TCP, BER 2e-4, 802.11b)",
        &["num_greedy", "gp_pct", "R1_mbps", "R2_mbps", "total_mbps"],
    );
    let grid: Vec<(usize, u32)> = (0..=2usize)
        .flat_map(|n| [20u32, 50, 100].iter().map(move |&gp| (n, gp)))
        // baseline is GP-independent
        .filter(|&(n, gp)| !(n == 0 && gp != 100))
        .collect();
    let rows = sweep(ctx, "fig13", &grid, |&(num_greedy, gp), job| {
        let mut s = Scenario {
            byte_error_rate: 2e-4,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let probe = job.plan(&s).execute().expect("valid");
        let (r0, r1) = (probe.receivers[0], probe.receivers[1]);
        let gpf = gp as f64 / 100.0;
        s.greedy = match num_greedy {
            0 => vec![],
            1 => vec![(1, GreedyConfig::ack_spoofing(vec![r0], gpf))],
            _ => vec![
                (0, GreedyConfig::ack_spoofing(vec![r1], gpf)),
                (1, GreedyConfig::ack_spoofing(vec![r0], gpf)),
            ],
        };
        let out = job.plan(&s).execute().expect("valid");
        let (a, b) = (out.goodput_mbps(0), out.goodput_mbps(1));
        vec![a, b, a + b]
    });
    for (&(num_greedy, gp), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            num_greedy.to_string(),
            gp.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
            mbps(vals[2]),
        ]);
    }
    e
}
