//! Per-layer measurements taken from outside the simulator: microbenches
//! on inputs the benchmark generates from the workload seed, and the
//! PHY reception counts rebuilt from a cell's transmission log.

use std::hint::black_box;
use std::time::Instant;

use bench::roc::{
    calibration, densify, grid_for, operating_threshold, ClassSeed, CUSUM_ARL0, CUSUM_K,
    SPRT_ALPHA, SPRT_BETA,
};
use detsci::{
    auc, minimal_detectable, roc_frontier, Cusum, IntensityPoint, KneeCriterion, OperatingPoint,
    Sprt,
};
use greedy80211::detect::WindowStat;
use net::TxInterval;
use phy::channel::Reach;
use phy::RssiModel;
use phy::{CaptureModel, ChannelModel, ErrorModel, ErrorUnit, FerTable, LinkTable, Position};
use sim::{Scheduler, SimDuration, SimRng, SimTime, TimerHandle};
use transport::{CcConfig, FlowId, Segment, TcpConfig, TcpOutput, TcpSender};

/// SplitMix64: the benchmark's own input generator, independent of the
/// simulator's RNG streams.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Gen(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// A DCF-like timer delay in nanoseconds: SIFS, DIFS plus a backoff,
/// a response timeout, or a frame airtime.
fn dcf_delay(g: &mut Gen) -> u64 {
    match g.below(4) {
        0 => 16_000,
        1 => 34_000 + 9_000 * g.below(32),
        2 => 60_000 + g.below(20_000),
        _ => 100_000 + g.below(1_900_000),
    }
}

/// `sim::Scheduler` cost per operation (arm, cancel or pop) on a
/// seed-generated mix: 17 stations each keep one timer armed; every pop
/// re-arms the station it fired for, and three pops in ten also cancel
/// and re-arm another station's timer.
pub fn sched_ns_per_op(seed: u64) -> f64 {
    const STATIONS: usize = 17;
    const POPS: usize = 600_000;
    let mut g = Gen::new(seed, 1);
    let plan: Vec<(u64, Option<(usize, u64)>)> = (0..POPS)
        .map(|_| {
            let d = dcf_delay(&mut g);
            let cancel =
                (g.below(10) < 3).then(|| (g.below(STATIONS as u64) as usize, dcf_delay(&mut g)));
            (d, cancel)
        })
        .collect();
    let mut s: Scheduler<u32> = Scheduler::new();
    let mut handles: Vec<TimerHandle> = (0..STATIONS)
        .map(|i| s.arm(SimDuration::from_nanos(dcf_delay(&mut g)), i as u32))
        .collect();
    let start = Instant::now();
    let mut ops = 0u64;
    for &(d, cancel) in &plan {
        let (_, st) = s.next().expect("every station keeps a timer armed");
        handles[st as usize] = s.arm(SimDuration::from_nanos(d), st);
        ops += 2;
        if let Some((victim, d2)) = cancel {
            s.cancel(handles[victim]);
            handles[victim] = s.arm(SimDuration::from_nanos(d2), victim as u32);
            ops += 2;
        }
    }
    black_box(s.pending());
    ns_per(start, ops)
}

/// Cost of one reception's PHY draws: `LinkTable::power_dbm` for the
/// frame and one interferer, two `RssiModel::sample_from_median` draws,
/// `CaptureModel::decide`, and `FerTable::corrupts` when the frame
/// survives. Links are drawn from the seed over `positions`.
pub fn rx_draw_ns(seed: u64, positions: &[Position]) -> f64 {
    const RECEPTIONS: usize = 1_000_000;
    let n = positions.len() as u64;
    assert!(n >= 3, "need a sender, a receiver and an interferer");
    let mut g = Gen::new(seed, 2);
    let links: Vec<(usize, usize, usize, usize)> = (0..RECEPTIONS)
        .map(|_| {
            let src = g.below(n);
            let dst = (src + 1 + g.below(n - 1)) % n;
            let mut int = g.below(n);
            while int == src || int == dst {
                int = g.below(n);
            }
            let bytes = [14usize, 20, 1052, 1500][g.below(4) as usize];
            (src as usize, dst as usize, int as usize, bytes)
        })
        .collect();
    let link = LinkTable::build(&ChannelModel::default(), positions);
    let rssi = RssiModel::default();
    let capture = CaptureModel::default();
    let mut fer = FerTable::new();
    let em = fer.intern(ErrorModel::new(ErrorUnit::Byte, 2e-4).expect("valid byte error rate"));
    let mut rng = SimRng::new(seed);
    let start = Instant::now();
    let mut corrupted = 0u64;
    for &(src, dst, int, bytes) in &links {
        let rx = rssi.sample_from_median(link.power_dbm(src, dst), &mut rng);
        let ix = rssi.sample_from_median(link.power_dbm(int, dst), &mut rng);
        if capture.decide(rx, ix) == phy::capture::CaptureOutcome::FirstCaptures
            && fer.corrupts(em, bytes, &mut rng)
        {
            corrupted += 1;
        }
    }
    black_box(corrupted);
    ns_per(start, RECEPTIONS as u64)
}

/// `TcpSender::on_ack` cost under controller `cc`, over a seed-generated
/// cumulative-ACK stream: mostly in-order ACKs, some stretch ACKs, and
/// bursts of three duplicates that drive fast recovery.
pub fn on_ack_ns(seed: u64, cc: CcConfig) -> f64 {
    const ACKS: usize = 300_000;
    let mut g = Gen::new(seed, 3);
    let steps: Vec<u8> = (0..ACKS)
        .map(|_| match g.below(100) {
            0..=89 => 1,
            90..=94 => 2,
            _ => 0,
        })
        .collect();
    let mut s = TcpSender::new(
        FlowId(0),
        TcpConfig {
            cc,
            ..TcpConfig::default()
        },
    );
    let highest = |out: &[TcpOutput], hi: u64| {
        out.iter().fold(hi, |hi, o| match o {
            TcpOutput::Send(Segment::TcpData { seq, .. }) => hi.max(seq + 1),
            _ => hi,
        })
    };
    let mut next = highest(&s.start(SimTime::ZERO), 0);
    let (mut acked, mut now) = (0u64, SimTime::ZERO);
    let start = Instant::now();
    for &step in &steps {
        now += SimDuration::from_micros(500);
        match step {
            0 => {
                for _ in 0..3 {
                    next = highest(&s.on_ack(now, acked), next);
                }
            }
            k => {
                acked = (acked + u64::from(k)).min(next);
                next = highest(&s.on_ack(now, acked), next);
            }
        }
    }
    let calls = steps
        .iter()
        .map(|&k| if k == 0 { 3 } else { 1 })
        .sum::<u64>();
    black_box(s.cwnd());
    ns_per(start, calls)
}

/// Reception counts rebuilt from a transmission log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxCounts {
    /// `(frame, node)` pairs where the node lies in decode range of the
    /// frame's sender.
    pub receptions: u64,
    /// Over those pairs: other frames overlapping in time whose sender
    /// is in decode or sense range of the receiving node.
    pub overlaps: u64,
}

/// Rebuilds [`RxCounts`] from `log` (any order) and the link table of
/// the network that produced it.
pub fn reconstruct_receptions(log: &[TxInterval], link: &LinkTable) -> RxCounts {
    let mut txs = log.to_vec();
    txs.sort_by_key(|&(src, start, end)| (start, end, src.0));
    let longest = txs
        .iter()
        .map(|&(_, s, e)| e.as_nanos() - s.as_nanos())
        .max()
        .unwrap_or(0);
    let mut counts = RxCounts::default();
    for (i, &(src, start, end)) in txs.iter().enumerate() {
        // Candidates overlap [start, end): they start before `end` and,
        // being at most `longest` long, after `start - longest`.
        let lo = txs[..i].partition_point(|&(_, s, _)| s.as_nanos() + longest <= start.as_nanos());
        let overlapping: Vec<usize> = (lo..txs.len())
            .take_while(|&j| txs[j].1 < end)
            .filter(|&j| j != i && txs[j].2 > start && txs[j].0 != src)
            .map(|j| txs[j].0 .0 as usize)
            .collect();
        for dst in 0..link.nodes() {
            if dst == src.0 as usize || link.reach(src.0 as usize, dst) != Reach::Decode {
                continue;
            }
            counts.receptions += 1;
            counts.overlaps += overlapping
                .iter()
                .filter(|&&other| other != dst && link.reach(other, dst) != Reach::None)
                .count() as u64;
        }
    }
    counts
}

/// One evaluation of the detection-science layer over measured classes:
/// exact AUC, the ROC frontier on the detector's threshold grid, the
/// shipped operating point, the knee over a one-point frontier, and
/// CUSUM and SPRT over every attacked run's standardized windows.
/// Returns a checksum so the work cannot be optimized away.
pub fn detsci_eval(detector: &str, honest: &[ClassSeed], greedy: &[ClassSeed]) -> f64 {
    let flat =
        |c: &[ClassSeed]| -> Vec<f64> { c.iter().flat_map(|s| s.stats.iter().copied()).collect() };
    let (h, a) = (flat(honest), flat(greedy));
    let mut check = auc(&h, &a).unwrap_or(0.0);
    check += roc_frontier(&h, &a, &grid_for(detector)).len() as f64;
    let op = OperatingPoint::at(&h, &a, operating_threshold(detector));
    let knee = minimal_detectable(
        &[IntensityPoint {
            intensity: 1.0,
            tpr: op.tpr,
            fpr: op.fpr,
        }],
        KneeCriterion::default(),
    );
    check += knee.unwrap_or(0.0);
    let means: Vec<f64> = honest
        .iter()
        .flat_map(|s| {
            s.windows
                .iter()
                .filter(|w| w.samples > 0)
                .map(WindowStat::mean)
        })
        .collect();
    let (mu0, sigma0) = calibration(&means);
    for cs in greedy {
        let series = densify(&cs.windows);
        let mut cusum = Cusum::with_arl(CUSUM_K, CUSUM_ARL0);
        let mut sprt = Sprt::new(SPRT_ALPHA, SPRT_BETA, 0.0, 1.0, 1.0);
        for w in &series {
            let z = (w.mean() - mu0) / sigma0;
            check += f64::from(u8::from(cusum.step(z)));
            check += f64::from(u8::from(sprt.step(z).is_some()));
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac::NodeId;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn two_senders_one_receiver_known_overlap() {
        // A (node 0) and B (node 2) are 100 m apart, beyond the 99 m
        // sense range; the receiver R (node 1) sits 50 m from each,
        // inside the 55 m decode range of both.
        let channel = ChannelModel::with_ranges(55.0, 99.0);
        let positions = [
            Position::new(0.0, 0.0),
            Position::new(50.0, 0.0),
            Position::new(100.0, 0.0),
        ];
        let link = LinkTable::build(&channel, &positions);
        let log = [
            // A and B overlap on [50, 100) µs: each frame reaches only
            // R, and at R the other frame interferes.
            (NodeId(0), t(0), t(100)),
            (NodeId(2), t(50), t(150)),
            // A alone later: one reception, no interferer.
            (NodeId(0), t(200), t(300)),
        ];
        let c = reconstruct_receptions(&log, &link);
        assert_eq!(
            c,
            RxCounts {
                receptions: 3,
                overlaps: 2
            }
        );
        // Abutting frames do not overlap.
        let abut = [(NodeId(0), t(0), t(100)), (NodeId(2), t(100), t(200))];
        assert_eq!(
            reconstruct_receptions(&abut, &link),
            RxCounts {
                receptions: 2,
                overlaps: 0
            }
        );
    }

    #[test]
    fn microbench_inputs_follow_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(8, 1);
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
