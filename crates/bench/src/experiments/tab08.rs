//! Table VIII — Testbed-equivalent emulation of ACK spoofing: one AP
//! sends TCP to two receivers and disables MAC retransmissions toward
//! the normal one (exactly the paper's hardware emulation), over a lossy
//! channel. The victim's losses go straight to TCP.

use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};

use crate::experiments::fer_to_byte_rate;
use crate::table::{mbps, Experiment};
use crate::{sweep, Job, Quality, RunCtx};

fn run_case(q: &Quality, job: &Job, emulate_spoof: bool) -> Vec<f64> {
    let mut b = NetworkBuilder::new(PhyParams::dot11a())
        .seed(job.seed)
        .rts(false)
        .default_error(ErrorModel::new(ErrorUnit::Byte, fer_to_byte_rate(0.10)).expect("rate"));
    let ap = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let r2 = b.add_node(Position::new(20.0, 5.0));
    if emulate_spoof {
        // The paper modifies the sender: no MAC retransmissions toward
        // the normal receiver (r1), as if r2 spoofed every ACK.
        b.set_no_retx(ap, vec![r1]);
    }
    let f1 = b.tcp_flow(ap, r1, Default::default());
    let f2 = b.tcp_flow(ap, r2, Default::default());
    let mut net = b.build();
    job.instruments.attach(&mut net);
    let m = net.run(q.duration);
    vec![m.goodput_mbps(f1), m.goodput_mbps(f2)]
}

/// Runs baseline and emulated attack.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab8",
        "Table VIII: testbed emulation of ACK spoofing (TCP, shared AP, 802.11a, FER 10 %)",
        &["case", "R1(NR)_mbps", "R2(GR)_mbps"],
    );
    let rows = sweep(ctx, "tab8", &[()], |_, job| {
        let mut row = run_case(q, job, false);
        row.extend(run_case(q, job, true));
        row
    });
    let vals = &rows[0];
    e.push_row(vec!["no_GR".into(), mbps(vals[0]), mbps(vals[1])]);
    e.push_row(vec!["emulated_GR".into(), mbps(vals[2]), mbps(vals[3])]);
    e
}
