//! Extension (paper §IX, future work) — misbehaviors under Automatic
//! Rate Fallback.
//!
//! The victim's link is rate-dependent: clean at 1–2 Mb/s, lossy at
//! 5.5 Mb/s, very lossy at 11 Mb/s. The paper predicts:
//!
//! * **ACK spoofing gets worse under auto-rate**: spoofed ACKs hide the
//!   victim's losses from its sender's ARF, which therefore never steps
//!   down from a rate the channel cannot carry;
//! * **fake ACKs pay less under auto-rate**: the greedy receiver's own
//!   fake ACKs pin its sender at a rate it cannot decode, destroying
//!   the goodput the misbehavior was meant to boost.

use greedy80211::GreedyConfig;
use mac::ArfConfig;
use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};

use crate::experiments::fer_to_byte_rate;
use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

/// Frame error rates per 802.11b rate for the degraded link.
const RATE_FER: [(u64, f64); 4] = [
    (1_000_000, 0.0),
    (2_000_000, 0.02),
    (5_500_000, 0.4),
    (11_000_000, 0.85),
];

fn degraded_link(b: &mut NetworkBuilder, tx: mac::NodeId, rx: mac::NodeId) {
    for (rate, fer) in RATE_FER {
        let em = ErrorModel::new(ErrorUnit::Byte, fer_to_byte_rate(fer)).expect("rate");
        b.link_rate_error(tx, rx, rate, em);
    }
    // Fixed-rate (None) frames travel at 11 Mb/s: same worst-case loss.
    let em = ErrorModel::new(ErrorUnit::Byte, fer_to_byte_rate(0.85)).expect("rate");
    b.link_error(tx, rx, em);
}

/// Spoofing × ARF: returns `(victim, greedy)` goodput.
fn spoof_case(q: &Quality, job: &Job, arf: bool, spoof: bool) -> Vec<f64> {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(job.seed);
    let s0 = b.add_node(Position::new(0.0, 0.0));
    let s1 = b.add_node(Position::new(0.0, 20.0));
    let r0 = b.add_node(Position::new(20.0, 0.0));
    let r1 = if spoof {
        b.add_node_with_policy(
            Position::new(45.0, 20.0),
            GreedyConfig::ack_spoofing(vec![r0], 1.0).into_policy(),
        )
    } else {
        b.add_node(Position::new(45.0, 20.0))
    };
    degraded_link(&mut b, s0, r0);
    if arf {
        b.set_auto_rate(s0, ArfConfig::dot11b());
        b.set_auto_rate(s1, ArfConfig::dot11b());
        b.set_auto_rate(r0, ArfConfig::dot11b());
        b.set_auto_rate(r1, ArfConfig::dot11b());
    }
    let f0 = b.tcp_flow(s0, r0, Default::default());
    let f1 = b.tcp_flow(s1, r1, Default::default());
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(q.duration);
    vec![m.goodput_mbps(f0), m.goodput_mbps(f1)]
}

/// Fake ACK × ARF: the *greedy receiver's own* link degrades with rate.
/// Returns `(normal, greedy)` goodput.
fn fake_case(q: &Quality, job: &Job, arf: bool, fake: bool) -> Vec<f64> {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(job.seed)
        .rts(false);
    let s0 = b.add_node(Position::new(0.0, 0.0));
    let s1 = b.add_node(Position::new(0.0, 20.0));
    let r0 = b.add_node(Position::new(20.0, 0.0));
    let r1 = if fake {
        b.add_node_with_policy(
            Position::new(20.0, 20.0),
            GreedyConfig::fake_acks(1.0).into_policy(),
        )
    } else {
        b.add_node(Position::new(20.0, 20.0))
    };
    degraded_link(&mut b, s1, r1);
    if arf {
        b.set_auto_rate(s0, ArfConfig::dot11b());
        b.set_auto_rate(s1, ArfConfig::dot11b());
    }
    let f0 = b.udp_flow(s0, r0, 1024, 10_000_000);
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(q.duration);
    vec![m.goodput_mbps(f0), m.goodput_mbps(f1)]
}

/// `(ARF on, attack on)` grid shared by both studies.
const GRID: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// Runs both interaction studies.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "ext1",
        "Extension: misbehaviors under Automatic Rate Fallback (802.11b rate ladder)",
        &["study", "rate_ctrl", "attack", "victim/NR_mbps", "GR_mbps"],
    );
    let spoof_rows = sweep(ctx, "ext1/spoofing", &GRID, |&(arf, spoof), job| {
        spoof_case(q, job, arf, spoof)
    });
    for (&(arf, spoof), vals) in GRID.iter().zip(spoof_rows) {
        e.push_row(vec![
            "spoofing".into(),
            if arf { "ARF" } else { "fixed_11M" }.into(),
            if spoof { "spoof" } else { "none" }.into(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    let fake_rows = sweep(ctx, "ext1/fake_acks", &GRID, |&(arf, fake), job| {
        fake_case(q, job, arf, fake)
    });
    for (&(arf, fake), vals) in GRID.iter().zip(fake_rows) {
        e.push_row(vec![
            "fake_acks".into(),
            if arf { "ARF" } else { "fixed_11M" }.into(),
            if fake { "fake" } else { "none" }.into(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
