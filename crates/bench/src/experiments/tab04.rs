//! Table IV — Contention window of the normal and greedy senders under
//! hidden-terminal fake ACKs, GP 100 %, for 802.11b and 802.11a.
//! Faking pins the greedy sender's CW near CWmin while the honest
//! sender's CW soars.

use phy::PhyStandard;

use crate::experiments::fig18::hidden_terminal;
use crate::table::Experiment;
use crate::{sweep, RunCtx};

/// Runs the three configurations on both PHYs.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "tab4",
        "Table IV: sender contention windows under hidden-terminal fake ACKs (GP 100 %)",
        &["phy", "config", "S1_avg_cw", "S2_avg_cw"],
    );
    let configs = [
        ("no_GR", &[][..]),
        ("R2_GR", &[1][..]),
        ("both_GR", &[0, 1][..]),
    ];
    for phy in [PhyStandard::Dot11b, PhyStandard::Dot11a] {
        let label = format!("tab4/{phy}");
        let rows = sweep(ctx, &label, &configs, |&(_, greedy), job| {
            hidden_terminal(phy, job, q.duration, greedy, 1.0)
        });
        for (&(name, _), vals) in configs.iter().zip(rows) {
            e.push_row(vec![
                phy.to_string(),
                name.into(),
                format!("{:.1}", vals[2]),
                format!("{:.1}", vals[3]),
            ]);
        }
    }
    e
}
