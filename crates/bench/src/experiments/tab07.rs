//! Table VII — Testbed-equivalent: UDP throughput when the greedy
//! receiver inflates CTS and/or ACK NAVs to the maximum (802.11a,
//! 6 Mb/s, two pairs), with and without RTS/CTS.

use greedy80211::{GreedyConfig, InflatedFrames, NavInflationConfig, Scenario, TransportKind};
use phy::PhyStandard;

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

fn scenario(q: &Quality, job: &Job, rts: bool, frames: Option<InflatedFrames>) -> Vec<f64> {
    let mut s = Scenario {
        phy: PhyStandard::Dot11a,
        transport: TransportKind::SATURATING_UDP,
        rts,
        duration: q.duration,
        seed: job.seed,
        ..Scenario::default()
    };
    if let Some(frames) = frames {
        s.greedy = vec![(
            1,
            GreedyConfig::nav_inflation(NavInflationConfig {
                inflate_us: 32_767,
                gp: 1.0,
                frames,
            }),
        )];
    }
    let out = job.plan(&s).execute().expect("valid");
    vec![out.goodput_mbps(0), out.goodput_mbps(1)]
}

/// Runs all rows of the table.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab7",
        "Table VII: UDP throughput, GR inflates NAV to max (802.11a)",
        &["case", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"],
    );
    let cases: [(&str, bool, InflatedFrames); 3] = [
        ("noRTS_inflate_ACK", false, InflatedFrames::ACK),
        ("RTS_inflate_CTS", true, InflatedFrames::CTS),
        (
            "RTS_inflate_CTS_ACK",
            true,
            InflatedFrames {
                cts: true,
                ack: true,
                rts: false,
                data: false,
            },
        ),
    ];
    let rows = sweep(ctx, "tab7", &cases, |&(_, rts, frames), job| {
        let mut row = scenario(q, job, rts, None);
        row.extend(scenario(q, job, rts, Some(frames)));
        row
    });
    for (&(name, _, _), vals) in cases.iter().zip(rows) {
        e.push_row(vec![
            name.into(),
            mbps(vals[0]),
            mbps(vals[1]),
            mbps(vals[2]),
            mbps(vals[3]),
        ]);
    }
    e
}
