//! Criterion benchmarks: simulator throughput and per-experiment-family
//! microbenches (scaled-down versions of the paper scenarios, so
//! regressions in the hot paths — medium, DCF, TCP — are caught).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greedy80211::{GreedyConfig, Instruments, NavInflationConfig, Run, Scenario, TransportKind};
use sim::SimDuration;

fn bench_udp_saturation(c: &mut Criterion) {
    let mut g = c.benchmark_group("udp_saturation");
    for pairs in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &pairs| {
            b.iter(|| {
                let s = Scenario {
                    pairs,
                    transport: TransportKind::SATURATING_UDP,
                    duration: SimDuration::from_millis(500),
                    ..Scenario::default()
                };
                Run::plan(&s).execute().expect("valid scenario")
            });
        });
    }
    g.finish();
}

fn bench_tcp_pairs(c: &mut Criterion) {
    c.bench_function("tcp_two_pairs_500ms", |b| {
        b.iter(|| {
            let s = Scenario {
                duration: SimDuration::from_millis(500),
                ..Scenario::default()
            };
            Run::plan(&s).execute().expect("valid scenario")
        });
    });
}

fn bench_nav_inflation(c: &mut Criterion) {
    c.bench_function("nav_inflation_udp_500ms", |b| {
        b.iter(|| {
            let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
                NavInflationConfig::cts_only(10_000, 1.0),
            ));
            s.duration = SimDuration::from_millis(500);
            Run::plan(&s).execute().expect("valid scenario")
        });
    });
}

fn bench_spoofing_with_grc(c: &mut Criterion) {
    c.bench_function("ack_spoofing_grc_500ms", |b| {
        b.iter(|| {
            let mut s = Scenario {
                byte_error_rate: 2e-4,
                grc: Some(true),
                duration: SimDuration::from_millis(500),
                ..Scenario::default()
            };
            s.greedy = vec![(1, GreedyConfig::ack_spoofing(vec![mac::NodeId(1)], 1.0))];
            Run::plan(&s).execute().expect("valid scenario")
        });
    });
}

fn bench_corruption_study(c: &mut Criterion) {
    c.bench_function("corruption_study_10k_frames", |b| {
        let study = greedy80211::CorruptionStudy::new(1104, 3e-4).expect("valid");
        b.iter(|| {
            let mut rng = sim::SimRng::new(1);
            study.run(10_000, &mut rng)
        });
    });
}

fn bench_recording_overhead(c: &mut Criterion) {
    // Same TCP scenario with the flight recorder off vs on: the delta is
    // the whole cost of `--record` (DESIGN.md §9 quotes these numbers).
    let mut g = c.benchmark_group("recording_overhead");
    for on in [false, true] {
        let name = if on { "on" } else { "off" };
        g.bench_with_input(BenchmarkId::from_parameter(name), &on, |b, &on| {
            b.iter(|| {
                let s = Scenario {
                    duration: SimDuration::from_millis(500),
                    ..Scenario::default()
                };
                let instruments = Instruments {
                    record: on.then(|| obs::ObsSpec::default().recorder()),
                    ..Instruments::default()
                };
                Run::plan(&s)
                    .instruments(&instruments)
                    .execute()
                    .expect("valid scenario");
                instruments.record.map(|r| r.borrow_mut().drain_report())
            });
        });
    }
    g.finish();
}

fn bench_analytical_model(c: &mut Criterion) {
    c.bench_function("nav_inflation_model_full_dist", |b| {
        // Worst-case: both distributions spread over all CW stages.
        let dist: Vec<(u32, f64)> = [31u32, 63, 127, 255, 511, 1023]
            .iter()
            .map(|&cw| (cw, 1.0 / 6.0))
            .collect();
        b.iter(|| greedy80211::nav_inflation_model(25, &dist, &dist));
    });
}

criterion_group!(
    benches,
    bench_udp_saturation,
    bench_tcp_pairs,
    bench_nav_inflation,
    bench_spoofing_with_grc,
    bench_corruption_study,
    bench_recording_overhead,
    bench_analytical_model
);
criterion_main!(benches);
