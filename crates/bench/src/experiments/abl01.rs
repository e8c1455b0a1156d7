//! Ablation 1 — the carrier-sense latency (collision window).
//!
//! The runtime makes a transmission visible to other stations one slot
//! after it starts, reproducing the paper's "two nodes both send if
//! their countdowns differ within 1 slot". This ablation sweeps the
//! latency (0 = idealized instant carrier sense) and reports the RTS
//! collision/timeout rate between two saturated senders — the knob
//! directly controls how much contention loss exists for misbehaviors
//! to exploit.

use greedy80211::{Scenario, TransportKind};
use net::NetworkBuilder;
use phy::{PhyParams, Position};

use crate::table::{ratio, Experiment};
use crate::{sweep, sweep_scalar, Job, Quality, RunCtx};

fn timeout_rate(q: &Quality, job: &Job, slots: u32) -> Vec<f64> {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(job.seed)
        .cs_latency_slots(slots);
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    b.udp_flow(s1, r1, 1024, 10_000_000);
    b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(q.duration);
    let c1 = &m.node(s1).unwrap().counters;
    let c2 = &m.node(s2).unwrap().counters;
    let attempts = (c1.rts_sent.get() + c2.rts_sent.get()).max(1) as f64;
    let timeouts = (c1.timeouts.get() + c2.timeouts.get()) as f64;
    vec![timeouts / attempts]
}

/// Carrier-sense latencies swept, in slots.
const SLOTS: &[u32] = &[0, 1, 2, 4];

/// Runs the latency sweep, plus the paper-default fairness check.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "abl1",
        "Ablation: carrier-sense latency vs contention-loss rate (2 saturated UDP pairs)",
        &["cs_latency_slots", "rts_timeout_rate"],
    );
    let rows = sweep(ctx, "abl1/cs", SLOTS, |&slots, job| {
        timeout_rate(q, job, slots)
    });
    for (&slots, vals) in SLOTS.iter().zip(rows) {
        e.push_row(vec![slots.to_string(), ratio(vals[0])]);
    }
    // Sanity anchor: the default scenario's fairness is unaffected.
    let fair = sweep_scalar(ctx, "abl1/fair", &[()], |_, job| {
        let s = Scenario {
            transport: TransportKind::SATURATING_UDP,
            duration: q.duration,
            seed: job.seed,
            ..Scenario::default()
        };
        let out = job.plan(&s).execute().expect("valid");
        out.goodput_mbps(0) / out.goodput_mbps(1).max(1e-9)
    })[0];
    e.push_row(vec!["default_fairness_ratio".into(), ratio(fair)]);
    e
}
