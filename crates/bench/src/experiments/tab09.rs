//! Table IX — Testbed-equivalent emulation of fake ACKs: one AP sends
//! UDP to two receivers and clamps its contention window to CWmin when
//! transmitting to the greedy one (the paper's hardware emulation),
//! over a lossy channel.

use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};

use crate::experiments::fer_to_byte_rate;
use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

fn run_case(q: &Quality, job: &Job, emulate_fake: bool) -> Vec<f64> {
    let mut b = NetworkBuilder::new(PhyParams::dot11a())
        .seed(job.seed)
        .rts(false)
        .default_error(ErrorModel::new(ErrorUnit::Byte, fer_to_byte_rate(0.15)).expect("rate"));
    let ap = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let r2 = b.add_node(Position::new(20.0, 5.0));
    if emulate_fake {
        // Sender never backs off toward the greedy receiver — as if
        // every loss were masked by a fake ACK's successor traffic.
        b.set_cw_clamp(ap, vec![r2]);
    }
    let f1 = b.udp_flow(ap, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(ap, r2, 1024, 10_000_000);
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(q.duration);
    vec![m.goodput_mbps(f1), m.goodput_mbps(f2)]
}

/// Runs baseline and emulated attack.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab9",
        "Table IX: testbed emulation of fake ACKs (UDP, shared AP, 802.11a, FER 15 %)",
        &["case", "R1(NR)_mbps", "R2(GR)_mbps"],
    );
    let rows = sweep(ctx, "tab9", &[()], |_, job| {
        let mut row = run_case(q, job, false);
        row.extend(run_case(q, job, true));
        row
    });
    let vals = &rows[0];
    e.push_row(vec!["no_GR".into(), mbps(vals[0]), mbps(vals[1])]);
    e.push_row(vec!["emulated_GR".into(), mbps(vals[2]), mbps(vals[3])]);
    e
}
