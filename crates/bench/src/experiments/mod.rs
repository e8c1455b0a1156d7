//! One module per regenerated paper artifact.
//!
//! Naming: `figNN`/`tabNN` mirrors the paper's numbering. Every module
//! exposes `run(&RunCtx) -> Experiment`; sweeps inside each generator
//! are submitted to the context's runner and execute in parallel when
//! the campaign was launched with `--jobs N`. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured notes.

pub mod abl01;
pub mod abl02;
pub mod abl03;
pub mod ext01;
pub mod ext02;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;
pub mod tab06;
pub mod tab07;
pub mod tab08;
pub mod tab09;

use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};

use crate::Quality;

/// NAV-inflation sweep values used by the UDP figures, in µs
/// (the paper sweeps α·100 µs up to the 32 767 µs maximum).
pub(crate) const UDP_NAV_SWEEP_US: &[u32] = &[
    0, 100, 200, 400, 600, 1_000, 2_000, 5_000, 10_000, 20_000, 31_000,
];

/// NAV-inflation sweep values used by the TCP figures, in ms.
pub(crate) const TCP_NAV_SWEEP_MS: &[u32] = &[0, 1, 2, 5, 10, 20, 31];

/// Builds the standard 2-pair scenario with receiver 1 greedy
/// (NAV-inflating) and the given transport, seeded and sized by `q`.
pub(crate) fn nav_two_pair(udp: bool, nav: NavInflationConfig, q: &Quality, seed: u64) -> Scenario {
    let mut s = if udp {
        Scenario::two_pair_udp(GreedyConfig::nav_inflation(nav))
    } else {
        Scenario::two_pair_tcp(GreedyConfig::nav_inflation(nav))
    };
    s.duration = q.duration;
    s.seed = seed;
    s
}

/// Converts a target data-frame error rate into the per-byte error rate
/// of our corruption process (1104-byte data frame incl. PLCP).
pub(crate) fn fer_to_byte_rate(fer: f64) -> f64 {
    1.0 - (1.0 - fer).powf(1.0 / 1104.0)
}

/// Shared driver for Figs. 4 and 5: sweep NAV inflation over the four
/// inflated-frame variants under TCP. Each variant is its own labelled
/// sweep so the derived RNG streams never alias between variants.
pub(crate) fn nav_frames_experiment(
    id: &'static str,
    title: &str,
    phy: phy::PhyStandard,
    ctx: &crate::RunCtx,
) -> crate::table::Experiment {
    use crate::table::{mbps, Experiment};
    use greedy80211::InflatedFrames;

    let q = &ctx.quality;
    let variants: [(&str, InflatedFrames); 4] = [
        ("cts", InflatedFrames::CTS),
        ("rts+cts", InflatedFrames::RTS_CTS),
        ("ack", InflatedFrames::ACK),
        ("all", InflatedFrames::ALL),
    ];
    let mut e = Experiment::new(id, title, &["frames", "inflate_ms", "NR_mbps", "GR_mbps"]);
    for (name, frames) in variants {
        let label = format!("{id}/{name}");
        let rows = crate::sweep(ctx, &label, TCP_NAV_SWEEP_MS, |&ms, job| {
            let nav = NavInflationConfig {
                inflate_us: ms * 1_000,
                gp: 1.0,
                frames,
            };
            let mut s = nav_two_pair(false, nav, q, job.seed);
            s.phy = phy;
            let out = job.plan(&s).execute().expect("valid scenario");
            vec![out.goodput_mbps(0), out.goodput_mbps(1)]
        });
        for (&ms, vals) in TCP_NAV_SWEEP_MS.iter().zip(rows) {
            e.push_row(vec![
                name.to_string(),
                ms.to_string(),
                mbps(vals[0]),
                mbps(vals[1]),
            ]);
        }
    }
    e
}
