//! Table V — Fake ACKs under inherent (noise) losses: a modest but
//! consistent gain for the faker; with two fakers both still improve
//! (backoff was pure waste against noise).

use greedy80211::{GreedyConfig, Scenario, TransportKind};

use crate::experiments::fer_to_byte_rate;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Frame error rates swept.
const FERS: &[f64] = &[0.2, 0.5, 0.8];

/// Runs the frame-error-rate grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab5",
        "Table V: UDP goodput under inherent losses with fake ACKs (802.11b)",
        &[
            "data_FER",
            "noGR_R1",
            "noGR_R2",
            "1GR_R1",
            "1GR_R2(GR)",
            "2GR_R1",
            "2GR_R2",
        ],
    );
    let rows = sweep(ctx, "tab5", FERS, |&fer, job| {
        let base_scenario = || Scenario {
            transport: TransportKind::SATURATING_UDP,
            rts: false,
            byte_error_rate: fer_to_byte_rate(fer),
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let no_gr = job.plan(&base_scenario()).execute().expect("valid");
        let mut one = base_scenario();
        one.greedy = vec![(1, GreedyConfig::fake_acks(1.0))];
        let one = job.plan(&one).execute().expect("valid");
        let mut two = base_scenario();
        two.greedy = vec![
            (0, GreedyConfig::fake_acks(1.0)),
            (1, GreedyConfig::fake_acks(1.0)),
        ];
        let two = job.plan(&two).execute().expect("valid");
        vec![
            no_gr.goodput_mbps(0),
            no_gr.goodput_mbps(1),
            one.goodput_mbps(0),
            one.goodput_mbps(1),
            two.goodput_mbps(0),
            two.goodput_mbps(1),
        ]
    });
    for (&fer, vals) in FERS.iter().zip(rows) {
        let mut row = vec![format!("{fer}")];
        row.extend(vals.iter().map(|&v| mbps(v)));
        e.push_row(row);
    }
    e
}
