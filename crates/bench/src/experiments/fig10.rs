//! Fig. 10(a–c) — One sender serving multiple receivers: head-of-line
//! blocking at the shared AP softens (but does not remove) the NAV
//! inflation gain; under UDP both receivers lose.

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario, TransportKind};

use crate::experiments::TCP_NAV_SWEEP_MS;
use crate::table::{mbps, Experiment};
use crate::{sweep, Quality, RunCtx};

fn shared(q: &Quality, seed: u64, pairs: usize, udp: bool, inflate_ms: u32) -> Scenario {
    let mut s = Scenario {
        pairs,
        shared_sender: true,
        duration: q.duration,
        seed,
        ..Scenario::default()
    };
    if udp {
        s.transport = TransportKind::SATURATING_UDP;
    }
    if inflate_ms > 0 {
        s.greedy = vec![(
            pairs - 1,
            GreedyConfig::nav_inflation(NavInflationConfig::cts_only(inflate_ms * 1_000, 1.0)),
        )];
    }
    s
}

/// Runs all three sub-figures.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig10",
        "Fig. 10: one sender, multiple receivers, last receiver inflates CTS NAV (802.11b)",
        &["variant", "inflate_ms", "NR_mbps", "GR_mbps"],
    );
    // (a) TCP, 2 receivers.
    let rows = sweep(ctx, "fig10/tcp_2rx", TCP_NAV_SWEEP_MS, |&ms, job| {
        let out = job
            .plan(&shared(q, job.seed, 2, false, ms))
            .execute()
            .expect("valid");
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&ms, vals) in TCP_NAV_SWEEP_MS.iter().zip(rows) {
        e.push_row(vec![
            "tcp_2rx".into(),
            ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    // (b) TCP, 8 receivers (7 normal + 1 greedy); NR column is the
    // average of the seven normal receivers.
    let rows = sweep(ctx, "fig10/tcp_8rx", TCP_NAV_SWEEP_MS, |&ms, job| {
        let out = job
            .plan(&shared(q, job.seed, 8, false, ms))
            .execute()
            .expect("valid");
        let avg_nr = (0..7).map(|i| out.goodput_mbps(i)).sum::<f64>() / 7.0;
        vec![avg_nr, out.goodput_mbps(7)]
    });
    for (&ms, vals) in TCP_NAV_SWEEP_MS.iter().zip(rows) {
        e.push_row(vec![
            "tcp_8rx".into(),
            ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    // (c) UDP, 2 receivers: both flows suffer together.
    let rows = sweep(ctx, "fig10/udp_2rx", TCP_NAV_SWEEP_MS, |&ms, job| {
        let out = job
            .plan(&shared(q, job.seed, 2, true, ms))
            .execute()
            .expect("valid");
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&ms, vals) in TCP_NAV_SWEEP_MS.iter().zip(rows) {
        e.push_row(vec![
            "udp_2rx".into(),
            ms.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
