//! Table VI — Testbed-equivalent: TCP throughput when the greedy
//! receiver inflates the NAV on the RTS frames of its TCP ACKs to the
//! maximum (32 767 µs). Two pairs, 802.11a at 6 Mb/s, RTS/CTS on —
//! mirroring the paper's MadWiFi setup in simulation.

use greedy80211::{InflatedFrames, NavInflationConfig, Scenario};
use phy::PhyStandard;

use crate::experiments::nav_two_pair;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs baseline and attack.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab6",
        "Table VI: TCP throughput, GR inflates NAV on RTS of TCP ACKs to max (802.11a)",
        &["case", "R1_mbps", "R2_mbps"],
    );
    let nav = NavInflationConfig {
        inflate_us: 32_767,
        gp: 1.0,
        frames: InflatedFrames {
            rts: true,
            ..InflatedFrames::default()
        },
    };
    let rows = sweep(ctx, "tab6", &[()], |_, job| {
        let mut base = Scenario {
            phy: PhyStandard::Dot11a,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        base.greedy.clear();
        let base = job.plan(&base).execute().expect("valid");
        let mut attack = nav_two_pair(false, nav.clone(), q, job.seed);
        attack.phy = PhyStandard::Dot11a;
        let attack = job.plan(&attack).execute().expect("valid");
        vec![
            base.goodput_mbps(0),
            base.goodput_mbps(1),
            attack.goodput_mbps(0),
            attack.goodput_mbps(1),
        ]
    });
    let vals = &rows[0];
    e.push_row(vec!["no_GR".into(), mbps(vals[0]), mbps(vals[1])]);
    e.push_row(vec!["R2_GR".into(), mbps(vals[2]), mbps(vals[3])]);
    e
}
