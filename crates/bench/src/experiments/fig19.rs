//! Fig. 19 — One fake-ACKing receiver against a growing number of
//! normal pairs, at two loss rates. The absolute gap shrinks with more
//! competitors (per-flow goodput falls) but the *relative* advantage
//! persists.

use greedy80211::{GreedyConfig, Scenario, TransportKind};

use crate::experiments::fer_to_byte_rate;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the pairs × loss grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig19",
        "Fig. 19: one fake-ACK receiver vs N normal pairs under inherent loss (UDP, 802.11b)",
        &["data_FER", "normal_pairs", "GR_mbps", "avg_NR_mbps"],
    );
    let grid: Vec<(f64, usize)> = [0.2, 0.5]
        .iter()
        .flat_map(|&fer| [1usize, 2, 4, 6].iter().map(move |&n| (fer, n)))
        .collect();
    let rows = sweep(ctx, "fig19", &grid, |&(fer, n), job| {
        let pairs = n + 1;
        let mut s = Scenario {
            pairs,
            transport: TransportKind::SATURATING_UDP,
            rts: false,
            byte_error_rate: fer_to_byte_rate(fer),
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        s.greedy = vec![(pairs - 1, GreedyConfig::fake_acks(1.0))];
        let out = job.plan(&s).execute().expect("valid");
        let normals: Vec<f64> = (0..n).map(|i| out.goodput_mbps(i)).collect();
        vec![
            out.goodput_mbps(pairs - 1),
            normals.iter().sum::<f64>() / n as f64,
        ]
    });
    for (&(fer, n), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            format!("{fer}"),
            n.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
