//! The four workloads: their seed-generated inputs, one pass over those
//! inputs (untraced or traced), and the per-layer probes only the
//! traced run takes.
//!
//! Why these four (BENCHMARK.md has the full table):
//! * `hotspot_dense` is all kernel work on one thread: scheduler, PHY
//!   reception fold, FER/RSSI draws and the DCF. No TCP, detectors,
//!   harness or threads run, so changes there must read no change.
//! * `paper_quick` is what users run to regenerate the paper: every
//!   registry experiment at quick fidelity on two workers. Harness,
//!   transport and scenario-build costs show fully.
//! * `detect_intensity` is the only workload where windowed GRC
//!   evidence, detection science and checkpoint/audit encoding work.
//! * `world_cochannel` is the only workload where lockstep epochs, the
//!   cross-cell busy exchange and barrier waits run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use bench::roc::{measure_class, windowed_scenario, CELLS};
use bench::world::{per_cell_csv, world_template};
use bench::{Generator, IntensityCampaign, Quality, RunCtx};
use greedy80211::{
    CampaignSpec, GreedyConfig, NavInflationConfig, Run, Scenario, TransportKind, WorldSpec,
};
use net::{Cell, RunHooks, RunMetrics};
use phy::{ChannelIndex, LinkTable, PhyStandard, Position};
use sim::{RunKey, SimDuration, SimTime};
use snap::SnapState as _;

use crate::alloc;
use crate::host::cpu_seconds;
use crate::layers::{self, Gen, RxCounts};
use crate::metrics::{median, tail, Values};
use crate::oracle::{digest, Artifacts};
use crate::trace::Tracer;

/// Input variants: the seed selects variant `seed % VARIANTS`, and the
/// reference file holds the expected outputs of every variant, so every
/// run is checked against a stored digest.
pub const VARIANTS: u64 = 16;

/// Worker threads of the multi-threaded workloads: the host's two cores.
const JOBS: usize = 2;

/// Stations the hotspot AP serves.
const HOTSPOT_STATIONS: usize = 16;
/// Runs (one seed each) per hotspot pass.
const HOTSPOT_RUNS: usize = 4;
/// Virtual length of one hotspot run.
const HOTSPOT_RUN: SimDuration = SimDuration::from_secs(15);
/// Virtual epoch the traced hotspot run steps its cell by.
const STEP_EPOCH: SimDuration = SimDuration::from_millis(10);

/// Virtual length of one detect_intensity run: long enough that the
/// per-run checkpoint and audit files stay a small share of the work.
const INTENSITY_RUN: SimDuration = SimDuration::from_secs(4);
/// Virtual length of the world run.
const WORLD_RUN: SimDuration = SimDuration::from_secs(10);
/// Checkpoint and audit barriers armed in detect_intensity.
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_secs(1);
const AUDIT_EVERY: SimDuration = SimDuration::from_millis(250);

/// World grid and greedy share (a third of the cells, rounded down).
const WORLD_ROWS: usize = 4;
const WORLD_COLS: usize = 4;
const WORLD_GREEDY: usize = WORLD_ROWS * WORLD_COLS / 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One AP saturating 16 stations: kernel work on one thread.
    HotspotDense,
    /// Every registry experiment at quick fidelity.
    PaperQuick,
    /// The attack-intensity campaign with checkpoint and audit hooks.
    DetectIntensity,
    /// A 4×4 co-channel world in lockstep.
    WorldCochannel,
}

/// Every workload, in BENCHMARK.json order.
pub const ALL: [Workload; 4] = [
    Workload::HotspotDense,
    Workload::PaperQuick,
    Workload::DetectIntensity,
    Workload::WorldCochannel,
];

impl Workload {
    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotspotDense => "hotspot_dense",
            Workload::PaperQuick => "paper_quick",
            Workload::DetectIntensity => "detect_intensity",
            Workload::WorldCochannel => "world_cochannel",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload puts load on.
    pub fn jobs(self) -> usize {
        match self {
            Workload::HotspotDense => 1,
            _ => JOBS,
        }
    }

    /// Whether the outputs differ between input variants (otherwise the
    /// seed only reorders work and one reference set covers all seeds).
    pub fn has_variants(self) -> bool {
        self != Workload::PaperQuick
    }
}

/// The input variant a seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// Generated inputs of one run.
pub enum Inputs {
    /// Simulator seeds of the hotspot runs.
    Hotspot(Vec<u64>),
    /// Registry experiments in seed-shuffled order.
    Paper(Vec<(&'static str, Generator)>),
    /// Decision-statistic window width of the campaign.
    Intensity(SimDuration),
    /// The world to run.
    World(Box<WorldSpec>),
}

/// Makes a workload's inputs from the seed.
pub fn inputs(w: Workload, seed: u64) -> Inputs {
    let v = variant(seed);
    match w {
        Workload::HotspotDense => Inputs::Hotspot(
            (0..HOTSPOT_RUNS as u64)
                .map(|i| RunKey::new("perfbench/hotspot_dense", v, i).stream_seed())
                .collect(),
        ),
        Workload::PaperQuick => {
            // Outputs do not depend on the order; the seed shuffles it.
            let mut order = bench::registry();
            let mut g = Gen::new(seed, 4);
            for i in (1..order.len()).rev() {
                order.swap(i, g.below(i as u64 + 1) as usize);
            }
            Inputs::Paper(order)
        }
        // The window width changes every artifact but not the simulated
        // traffic, so variants differ in output and not in size.
        Workload::DetectIntensity => Inputs::Intensity(SimDuration::from_millis(100 + 10 * v)),
        Workload::WorldCochannel => {
            let q = Quality {
                duration: WORLD_RUN,
                ..Quality::quick()
            };
            let mut spec = WorldSpec::grid(world_template(&q), WORLD_ROWS, WORLD_COLS);
            spec.greedy_cells = WORLD_GREEDY;
            spec.label = "perfbench-world".into();
            spec.seed = RunKey::new("perfbench/world_cochannel", v, 0).stream_seed();
            Inputs::World(Box::new(spec))
        }
    }
}

/// The hotspot: one AP saturating 16 stations with CBR/UDP over
/// 802.11a, RTS/CTS on, byte error rate 2e-4, no detectors.
pub fn hotspot_scenario(seed: u64) -> Scenario {
    Scenario {
        phy: PhyStandard::Dot11a,
        transport: TransportKind::SATURATING_UDP,
        pairs: HOTSPOT_STATIONS,
        shared_sender: true,
        rts: true,
        byte_error_rate: 2e-4,
        duration: HOTSPOT_RUN,
        seed,
        ..Scenario::default()
    }
}

/// Virtual length of one run of registry experiment `id` at quick
/// fidelity: `fig15::remote_pair` (also used by fig16) stretches its
/// runs to at least 10 s; every other experiment runs for the quality's
/// duration.
fn paper_run_length(id: &str, q: &Quality) -> SimDuration {
    match id {
        "fig15" | "fig16" => (q.duration * 2).max(SimDuration::from_secs(10)),
        _ => q.duration,
    }
}

/// What one pass produced and what it cost.
#[derive(Debug, Default)]
pub struct Pass {
    /// Output digests, checked against the references.
    pub artifacts: Artifacts,
    /// Simulated network-seconds completed.
    pub sim_s: f64,
    /// Simulations completed (process-wide counter delta).
    pub runs: u64,
    /// Events dispatched (process-wide counter delta).
    pub events: u64,
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// Process CPU seconds of the pass.
    pub cpu_s: f64,
    /// Peak live heap during the pass, in MiB.
    pub peak_heap_mib: f64,
    /// `(wall, cpu)` seconds of each unit of the pass, in input order: a
    /// run (hotspot_dense), an experiment (paper_quick), or the whole
    /// pass. Units line up across passes over the same inputs.
    pub units: Vec<(f64, f64)>,
    /// MAC counter totals over the runs whose metrics the pass sees.
    mac: MacTotals,
    /// Receptions rebuilt from transmission logs (traced hotspot only).
    rx: RxCounts,
    /// Events dispatched per registry experiment (paper_quick).
    gen_events: Vec<(&'static str, u64)>,
    /// Checkpoint files written (detect_intensity).
    checkpoints: u64,
}

/// Wall and CPU clocks at the start of a unit.
struct Unit(Instant, f64);

impl Unit {
    fn start() -> Unit {
        Unit(Instant::now(), cpu_seconds())
    }

    fn stop(self) -> (f64, f64) {
        (self.0.elapsed().as_secs_f64(), cpu_seconds() - self.1)
    }
}

fn caught<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs one pass of the workload over `inp` on `jobs` workers, writing
/// its outputs under `out`. With the tracer on, spans are recorded
/// around every call into the simulator and the layer counts of
/// [`Pass`] are filled.
pub fn pass(inp: &Inputs, jobs: usize, out: &Path, t: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    alloc::reset_peak();
    let before = net::stats::snapshot();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    t.span("bench/pass", |t| match inp {
        Inputs::Hotspot(seeds) => hotspot_pass(seeds, t, &mut p),
        Inputs::Paper(order) => paper_pass(order, jobs, out, t, &mut p),
        Inputs::Intensity(window) => intensity_pass(*window, jobs, out, t, &mut p),
        Inputs::World(spec) => world_pass(spec, jobs, out, t, &mut p),
    });
    p.wall_s = t0.elapsed().as_secs_f64();
    p.cpu_s = cpu_seconds() - cpu0;
    p.peak_heap_mib = alloc::peak_mib();
    if p.units.is_empty() {
        p.units.push((p.wall_s, p.cpu_s));
    }
    let d = net::stats::snapshot().since(before);
    p.runs = d.runs_completed;
    p.events = d.events_processed;
    p
}

fn metrics_digest(m: &RunMetrics) -> String {
    digest(format!("{m:?}").as_bytes())
}

fn outcome_value<E: std::fmt::Display>(r: Option<Result<String, E>>) -> String {
    match r {
        Some(Ok(v)) => v,
        Some(Err(e)) => format!("error:{e}"),
        None => "panic".into(),
    }
}

/// MAC counter totals over every node of some runs.
#[derive(Debug, Default)]
struct MacTotals {
    frames: u64,
    data: u64,
    retries: u64,
    collisions: u64,
    successes: u64,
}

impl MacTotals {
    fn add(&mut self, m: &RunMetrics) {
        for n in m.nodes.values() {
            let c = &n.counters;
            self.frames += c.rts_sent.get()
                + c.cts_sent.get()
                + c.data_sent.get()
                + c.acks_sent.get()
                + c.fake_acks_sent.get()
                + c.spoofed_acks_sent.get();
            self.data += c.data_sent.get();
            self.retries += c.short_retries.get() + c.long_retries.get();
            self.collisions += c.collision_rx.get();
            self.successes += c.tx_successes.get();
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn hotspot_pass(seeds: &[u64], t: &mut Tracer, p: &mut Pass) {
    for (i, &seed) in seeds.iter().enumerate() {
        t.set_run(i as u32);
        let s = hotspot_scenario(seed);
        let unit = Unit::start();
        let metrics = if t.is_on() {
            caught(|| hotspot_traced(&s, t, &mut p.rx))
        } else {
            caught(|| Run::plan(&s).execute().map(|o| o.metrics))
        };
        let value = alloc::paused(|| {
            outcome_value(metrics.map(|r| {
                r.map(|m| {
                    p.sim_s += m.duration.as_secs_f64();
                    p.mac.add(&m);
                    metrics_digest(&m)
                })
            }))
        });
        p.units.push(unit.stop());
        p.artifacts.push((format!("run{i}.metrics"), value));
    }
}

/// One hotspot run driven epoch by epoch through `net::Cell`, so step
/// cost and the transmission log are visible from outside. The outcome
/// equals `Run::plan(s).execute()`'s; the oracle checks that.
fn hotspot_traced(
    s: &Scenario,
    t: &mut Tracer,
    rx: &mut RxCounts,
) -> Result<RunMetrics, sim::SimError> {
    let built = t.span("net/build", |_| s.build())?;
    let duration = built.duration;
    let link = LinkTable::build(built.net.channel_model(), &built.net.positions());
    let mut cell = t.span("net/start", |_| {
        Cell::new(
            0,
            ChannelIndex(0),
            Position::new(0.0, 0.0),
            built.net,
            RunHooks::default(),
        )
    });
    let mut log = Vec::new();
    let end = duration.as_nanos();
    let mut at = 0;
    while at < end {
        at = (at + STEP_EPOCH.as_nanos()).min(end);
        let txs = t.span("net/step", |_| cell.step(SimTime::from_nanos(at)));
        log.extend(txs);
    }
    let (metrics, _) = t.span("net/finish", |_| cell.finish(duration));
    let c = layers::reconstruct_receptions(&log, &link);
    rx.receptions += c.receptions;
    rx.overlaps += c.overlaps;
    Ok(metrics)
}

fn paper_pass(
    order: &[(&'static str, Generator)],
    jobs: usize,
    out: &Path,
    t: &mut Tracer,
    p: &mut Pass,
) {
    let ctx = RunCtx::with_jobs(Quality::quick(), jobs);
    for (i, &(id, generate)) in order.iter().enumerate() {
        t.set_run(i as u32);
        let before = net::stats::snapshot();
        let unit = Unit::start();
        let exp = t.span(&format!("sim/{id}"), |_| caught(|| generate(&ctx)));
        let d = net::stats::snapshot().since(before);
        let value = alloc::paused(|| {
            outcome_value(exp.map(|e| {
                let csv = e.csv();
                std::fs::write(out.join(format!("{id}.csv")), &csv)
                    .map(|()| format!("{} runs={}", digest(csv.as_bytes()), d.runs_completed))
            }))
        });
        p.units.push(unit.stop());
        p.sim_s += d.runs_completed as f64 * paper_run_length(id, &ctx.quality).as_secs_f64();
        p.gen_events.push((id, d.events_processed));
        p.artifacts.push((format!("{id}.csv"), value));
    }
}

/// Fidelity of detect_intensity: one replication of 4 s runs.
fn intensity_quality() -> Quality {
    Quality {
        duration: INTENSITY_RUN,
        ..Quality::quick()
    }
}

fn intensity_pass(window: SimDuration, jobs: usize, out: &Path, t: &mut Tracer, p: &mut Pass) {
    let q = intensity_quality();
    let hooks = out.join("hooks");
    // Untraced passes overwrite the previous pass's hook files; the
    // traced pass starts from an empty directory so the checkpoint
    // count is its own.
    if t.is_on() {
        let _ = std::fs::remove_dir_all(&hooks);
    }
    let ctx = RunCtx::with_jobs(q.clone(), jobs).with_checkpoints(CampaignSpec::record(
        &hooks,
        Some(CHECKPOINT_EVERY),
        Some(AUDIT_EVERY),
    ));
    let campaign = IntensityCampaign {
        window,
        ..IntensityCampaign::new(q.clone(), jobs)
    };
    let before = net::stats::snapshot();
    let report = t.span("sim/intensity", |_| caught(|| campaign.run_with(&ctx, out)));
    let runs = net::stats::snapshot().since(before).runs_completed;
    p.sim_s = runs as f64 * q.duration.as_secs_f64();
    alloc::paused(|| {
        if let Some(Ok(r)) = report {
            for path in &r.csvs {
                let name = path
                    .file_name()
                    .map_or(String::new(), |n| n.to_string_lossy().into_owned());
                let value =
                    std::fs::read(path).map_or_else(|e| format!("error:{e}"), |b| digest(&b));
                p.artifacts.push((name, value));
            }
        }
        p.checkpoints =
            std::fs::read_dir(hooks.join("checkpoints")).map_or(0, |d| d.count() as u64);
    });
}

fn world_pass(spec: &WorldSpec, jobs: usize, out: &Path, t: &mut Tracer, p: &mut Pass) {
    let r = t.span("sim/world", |_| {
        caught(|| Run::world(spec).jobs(jobs).execute())
    });
    let value = alloc::paused(|| {
        outcome_value(r.map(|r| {
            r.map(|o| {
                for c in &o.cells {
                    p.mac.add(&c.outcome.metrics);
                }
                p.sim_s = o.duration.as_secs_f64() * o.cells.len() as f64;
                let csv = per_cell_csv(&o);
                match std::fs::write(out.join("world.csv"), &csv) {
                    Ok(()) => digest(csv.as_bytes()),
                    Err(e) => format!("error:{e}"),
                }
            })
        }))
    });
    p.artifacts.push(("world.csv".into(), value));
}

/// Registry experiments whose ns/event the traced paper_quick run
/// reports: the slowest paper families.
const PAPER_FAMILIES: [(&str, &str); 5] = [
    ("fig5", "bench.ns_per_event.fig5"),
    ("fig6", "bench.ns_per_event.fig6"),
    ("fig11", "bench.ns_per_event.fig11"),
    ("fig16", "bench.ns_per_event.fig16"),
    ("tab6", "bench.ns_per_event.tab6"),
];

/// Median microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Median microseconds of `Scenario::build` on `s`.
fn build_us(s: &Scenario) -> f64 {
    median_us(30, || {
        std::hint::black_box(s.build().expect("benchmark scenarios are valid"));
    })
}

/// Everything the traced run reports beyond the end-to-end metrics.
pub struct Traced<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// The workload seed (microbench inputs derive from it).
    pub seed: u64,
    /// An untraced pass over the same inputs, in the same process.
    pub plain: &'a Pass,
    /// The traced pass.
    pub traced: &'a Pass,
    /// Its spans.
    pub tracer: &'a Tracer,
    /// Allocations of a single-threaded untraced pass (one worker, so
    /// the count does not depend on thread interleaving).
    pub allocs: u64,
    /// Peak resident set after the untraced pass, the process's first.
    pub peak_rss_mib: f64,
}

impl Traced<'_> {
    /// Computes every per-layer metric. Returns the values and the
    /// `(attempted, failed)` checks the probes made on the way (the
    /// conformance pass must not change paper_quick's outputs).
    pub fn layer_values(&self) -> (Values, u64, u64) {
        let w = self.workload;
        let (tp, pp, t) = (self.traced, self.plain, self.tracer);
        let mut v: Values = crate::metrics::PER_LAYER
            .iter()
            .map(|d| (d.name, 0.0))
            .collect();
        let (mut attempted, mut failed) = (0, 0);
        let events = tp.events as f64;

        v.insert("sim.events", events);
        let sim_ns = match self.inputs {
            Inputs::Hotspot(_) => t.total_s("net/step"),
            // `sim/` spans wrap single calls and have no children.
            _ => t.self_s("sim/"),
        } * 1e9;
        v.insert("sim.ns_per_event", ratio(sim_ns, events));
        v.insert("sim.sched_ns_per_op", layers::sched_ns_per_op(self.seed));
        let hotspot_positions = hotspot_scenario(0).positions();
        v.insert(
            "phy.rx_draw_ns",
            layers::rx_draw_ns(self.seed, &hotspot_positions),
        );
        v.insert("phy.receptions", tp.rx.receptions as f64);
        v.insert(
            "phy.overlap_per_rx",
            ratio(tp.rx.overlaps as f64, tp.rx.receptions as f64),
        );
        for (name, cc) in [
            (
                "transport.on_ack_ns.newreno",
                transport::CcConfig::newreno(),
            ),
            ("transport.on_ack_ns.cubic", transport::CcConfig::cubic()),
            ("transport.on_ack_ns.bbr", transport::CcConfig::bbr()),
        ] {
            v.insert(name, layers::on_ack_ns(self.seed, cc));
        }
        let mac = &tp.mac;
        v.insert("mac.frames_tx", mac.frames as f64);
        v.insert("mac.events_per_frame", ratio(events, mac.frames as f64));
        v.insert("mac.retries", mac.retries as f64);
        v.insert("mac.collision_rx", mac.collisions as f64);
        v.insert(
            "mac.tx_success_ratio",
            ratio(mac.successes as f64, mac.data as f64),
        );

        let spans_us =
            |name: &str| -> Vec<f64> { t.named(name).map(|s| s.ns() as f64 / 1e3).collect() };
        match self.inputs {
            Inputs::Hotspot(_) => {
                v.insert("net.build_us", median(&spans_us("net/build")));
                let steps_ms: Vec<f64> = spans_us("net/step").iter().map(|us| us / 1e3).collect();
                v.insert("net.step_ms_p50", median(&steps_ms));
                v.insert("net.step_ms_tail", tail(&steps_ms));
                v.insert("net.step_samples", steps_ms.len() as f64);
                v.insert("net.finish_us", median(&spans_us("net/finish")));
            }
            Inputs::Paper(_) => {
                v.insert("net.build_us", build_us(&paper_scenario()));
                for (id, key) in PAPER_FAMILIES {
                    let ev = tp
                        .gen_events
                        .iter()
                        .find(|(g, _)| *g == id)
                        .map_or(0, |e| e.1);
                    v.insert(key, ratio(t.total_s(&format!("sim/{id}")) * 1e9, ev as f64));
                }
                let (overhead, violations, a, f) = conform_probe();
                v.insert("conform.overhead_pct", overhead);
                v.insert("conform.violations", violations as f64);
                attempted += a;
                failed += f;
            }
            &Inputs::Intensity(window) => {
                let q = intensity_quality();
                let s = windowed_scenario("udp", &q, window, 0.0).with_seed(self.seed);
                v.insert("net.build_us", build_us(&s));
                let (save_us, bytes, digest_us) = snap_probe(&s);
                v.insert("snap.save_us", save_us);
                v.insert("snap.bytes", bytes as f64);
                v.insert("snap.digest_us", digest_us);
                v.insert("snap.checkpoints", tp.checkpoints as f64);
                v.insert("detsci.eval_ms", detsci_probe(self.seed, window));
                v.insert("core.grc_overhead_pct", grc_overhead_pct(&s));
            }
            Inputs::World(spec) => {
                v.insert("net.build_us", build_us(&spec.template));
                let world_ns = ratio(pp.wall_s * 1e9, pp.events as f64);
                v.insert(
                    "core.world_overhead_pct",
                    (world_ns / standalone_ns_per_event(spec) - 1.0) * 100.0,
                );
            }
        }
        v.insert(
            "runner.cpu_util",
            ratio(pp.cpu_s, pp.wall_s * w.jobs() as f64),
        );
        v.insert("bench.self_s", t.self_s("bench/"));
        v.insert(
            "alloc.per_event",
            ratio(self.allocs as f64, pp.events as f64),
        );
        v.insert("alloc.per_run", ratio(self.allocs as f64, pp.runs as f64));
        v.insert("alloc.peak_rss_mib", self.peak_rss_mib);
        v.insert(
            "trace.overhead_pct",
            (ratio(tp.wall_s, pp.wall_s) - 1.0) * 100.0,
        );
        (v, attempted, failed)
    }
}

/// The paper's two-pair topology with a NAV-inflating receiver, the
/// scenario most registry experiments build.
fn paper_scenario() -> Scenario {
    Scenario::two_pair_tcp(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
        10_000, 1.0,
    )))
    .with_seed(1)
}

/// Runs the gate families with and without live conformance checking.
/// Returns the checking overhead in percent, the violations found, and
/// `(attempted, failed)` for the check that checking changed no output.
fn conform_probe() -> (f64, u64, u64, u64) {
    let registry = bench::registry();
    let (mut plain_s, mut checked_s) = (0.0, 0.0);
    let (mut attempted, mut failed, mut violations) = (0, 0, 0);
    for id in bench::GATE_SUBSET {
        let Some(&(_, generate)) = registry.iter().find(|(g, _)| g == id) else {
            failed += 1;
            continue;
        };
        let plain_ctx = RunCtx::with_jobs(Quality::quick(), JOBS);
        let camp = bench::ConformCampaign::new();
        let checked_ctx = RunCtx::with_jobs(Quality::quick(), JOBS).with_conform(camp.clone());
        let t0 = Instant::now();
        let plain = caught(|| generate(&plain_ctx).csv());
        plain_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let checked = caught(|| generate(&checked_ctx).csv());
        checked_s += t0.elapsed().as_secs_f64();
        violations += camp
            .take_reports()
            .iter()
            .map(|(_, r)| r.violation_count())
            .sum::<u64>();
        attempted += 1;
        if plain.is_none() || plain != checked {
            failed += 1;
        }
    }
    (
        (ratio(checked_s, plain_s) - 1.0) * 100.0,
        violations,
        attempted,
        failed,
    )
}

/// Snapshot cost on a mid-run network of the campaign's scenario:
/// median µs of `SnapState::snap_save`, its size in bytes, and median
/// µs of `Network::layer_digests`.
fn snap_probe(s: &Scenario) -> (f64, usize, f64) {
    let built = s.build().expect("benchmark scenarios are valid");
    let mut cell = Cell::new(
        0,
        ChannelIndex(0),
        Position::new(0.0, 0.0),
        built.net,
        RunHooks::default(),
    );
    cell.step(SimTime::from_nanos(s.duration.as_nanos() / 2));
    let net = cell.network();
    let mut bytes = 0;
    let save_us = median_us(50, || {
        let mut w = snap::Enc::new();
        net.snap_save(&mut w);
        bytes = w.bytes().len();
    });
    let digest_us = median_us(50, || {
        std::hint::black_box(net.layer_digests());
    });
    (save_us, bytes, digest_us)
}

/// Median ms of one detection-science evaluation over honest and
/// attacked classes measured with `measure_class` on the campaign's
/// windowed-guard UDP cells.
fn detsci_probe(seed: u64, window: SimDuration) -> f64 {
    let q = intensity_quality();
    let classes: Vec<_> = CELLS
        .iter()
        .enumerate()
        .filter(|(_, c)| c.mix == "udp" && matches!(c.detector, "nav" | "spoof"))
        .map(|(ci, cell)| {
            let measure = |attacked: bool| -> Vec<_> {
                (0..2)
                    .map(|si| {
                        let key = RunKey::new("perfbench/detsci", ci as u64, seed.wrapping_add(si));
                        measure_class(cell, &q, window, key, 1.0, attacked)
                    })
                    .collect()
            };
            (cell.detector, measure(false), measure(true))
        })
        .collect();
    median_us(50, || {
        for (det, honest, greedy) in &classes {
            std::hint::black_box(layers::detsci_eval(det, honest, greedy));
        }
    }) / 1e3
}

/// Extra cost per event of windowed GRC evidence: ns/event of `s` with
/// its windows against the same scenario without, three alternating
/// runs each, in percent.
fn grc_overhead_pct(s: &Scenario) -> f64 {
    let without = Scenario {
        grc_windows: None,
        ..s.clone()
    };
    let ns_per_event = |s: &Scenario| {
        let t0 = Instant::now();
        let out = Run::plan(s)
            .execute()
            .expect("benchmark scenarios are valid");
        t0.elapsed().as_nanos() as f64 / out.metrics.events_processed.max(1) as f64
    };
    let (mut with_ns, mut without_ns) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        with_ns.push(ns_per_event(s));
        without_ns.push(ns_per_event(&without));
    }
    (median(&with_ns) / median(&without_ns) - 1.0) * 100.0
}

/// Host ns per event of the world's cells run standalone (same seeds,
/// same greedy placement, no exchange) on the same worker count.
fn standalone_ns_per_event(spec: &WorldSpec) -> f64 {
    let jobs: Vec<_> = (0..spec.cells())
        .map(|id| {
            let mut s = spec.template.clone();
            if !spec.is_greedy_cell(id) {
                s.greedy.clear();
            }
            s.seed = if id == 0 {
                spec.seed
            } else {
                spec.cell_key(id).stream_seed()
            };
            move || Run::plan(&s).execute().map(|o| o.metrics.events_processed)
        })
        .collect();
    let t0 = Instant::now();
    let events: u64 = runner::Runner::new(JOBS)
        .execute_all(jobs)
        .into_iter()
        .map(|r| r.expect("benchmark scenarios are valid"))
        .sum();
    ratio(t0.elapsed().as_nanos() as f64, events as f64)
}
