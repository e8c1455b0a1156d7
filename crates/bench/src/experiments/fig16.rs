//! Fig. 16 — Remote senders: greedy percentage × wired latency grid.
//! Around 200 ms even spoofing a fifth of the sniffed frames pays off
//! dramatically.

use crate::experiments::fig15::remote_pair;
use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

/// Runs the grid.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig16",
        "Fig. 16: remote TCP senders — spoofing GP vs wired latency (BER 2e-5)",
        &["wire_ms", "gp_pct", "NR_mbps", "GR_mbps"],
    );
    let grid: Vec<(u64, u32)> = [2u64, 50, 100, 200, 400]
        .iter()
        .flat_map(|&ms| [0u32, 20, 50, 100].iter().map(move |&gp| (ms, gp)))
        .collect();
    let rows = sweep(ctx, "fig16", &grid, |&(wire_ms, gp), job| {
        let out = remote_pair(q, job, wire_ms, gp as f64 / 100.0);
        vec![out.goodput_mbps(0), out.goodput_mbps(1)]
    });
    for (&(wire_ms, gp), vals) in grid.iter().zip(rows) {
        e.push_row(vec![
            wire_ms.to_string(),
            gp.to_string(),
            mbps(vals[0]),
            mbps(vals[1]),
        ]);
    }
    e
}
