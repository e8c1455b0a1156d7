//! Fig. 18 — Fake ACKs under hidden-terminal collisions: one faker
//! starves the honest flow; two fakers destroy each other (no backoff →
//! collision storm).

use greedy80211::GreedyConfig;
use net::NetworkBuilder;
use phy::{ChannelModel, PhyParams, PhyStandard, Position};
use sim::SimDuration;

use crate::table::{mbps, Experiment};
use crate::{sweep, Job, RunCtx};

/// Hidden-terminal outcome: `(R1 goodput, R2 goodput, S1 avg CW, S2 avg CW)`.
pub(crate) fn hidden_terminal(
    phy: PhyStandard,
    job: &Job,
    duration: SimDuration,
    greedy: &[usize],
    gp: f64,
) -> Vec<f64> {
    // Receivers adjacent in the middle, senders out of each other's
    // carrier-sense range (paper §V-C).
    let mut b = NetworkBuilder::new(PhyParams::for_standard(phy))
        .seed(job.seed)
        .rts(false)
        .channel(ChannelModel::with_ranges(60.0, 60.0));
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let s2 = b.add_node(Position::new(102.0, 0.0));
    let rx = |b: &mut NetworkBuilder, pos, is_greedy: bool| {
        if is_greedy {
            b.add_node_with_policy(pos, GreedyConfig::fake_acks(gp).into_policy())
        } else {
            b.add_node(pos)
        }
    };
    let r1 = rx(&mut b, Position::new(50.0, 0.0), greedy.contains(&0));
    let r2 = rx(&mut b, Position::new(52.0, 0.0), greedy.contains(&1));
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(duration);
    vec![
        m.goodput_mbps(f1),
        m.goodput_mbps(f2),
        m.node(s1).and_then(|n| n.avg_cw).unwrap_or(f64::NAN),
        m.node(s2).and_then(|n| n.avg_cw).unwrap_or(f64::NAN),
    ]
}

/// Runs the GP sweep for one and two fakers.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig18",
        "Fig. 18: fake ACKs under hidden-terminal collisions (UDP, 802.11b, no RTS)",
        &["num_greedy", "gp_pct", "R1_mbps", "R2_mbps"],
    );
    let grid: Vec<(&[usize], u32)> = [&[][..], &[1][..], &[0, 1][..]]
        .iter()
        .flat_map(|&greedy| [25u32, 50, 75, 100].iter().map(move |&gp| (greedy, gp)))
        .filter(|&(greedy, gp)| !(greedy.is_empty() && gp != 100))
        .collect();
    let rows = sweep(ctx, "fig18", &grid, |&(greedy, gp), job| {
        hidden_terminal(
            PhyStandard::Dot11b,
            job,
            q.duration,
            greedy,
            gp as f64 / 100.0,
        )
    });
    for (&(greedy, gp), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            greedy.len().to_string(),
            gp.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
