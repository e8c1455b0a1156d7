//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! repro run all                # every artifact at full fidelity
//! repro run fig1 tab2          # selected artifacts
//! repro run --quick all        # fast low-fidelity pass
//! repro run --jobs 8 all       # shard sweep points across 8 workers
//! repro run --out results all  # CSV output directory (default: results)
//! repro run --record fig6      # flight-record every run into results/obs/
//! repro gate [--check]         # perf gate; --check fails on regression
//! repro fuzz 25 --seed 7       # randomized conformance fuzzing
//! repro world [--cells 3x3]    # multi-cell world campaign
//! repro cc                     # congestion-control zoo matrix
//! repro roc                    # detection science: ROC/AUC, adaptive
//!                              # thresholds, CUSUM/SPRT delays
//! repro intensity              # attack-intensity frontiers: sweep every
//!                              # misbehavior knob to its detector's knee
//! repro --list                 # available experiment ids
//! ```
//!
//! Each subcommand expands to the flag spelling it replaced
//! (`repro gate` ≡ `repro --bench-gate`, and so on); the old flags keep
//! working as hidden aliases so existing scripts and recorded repro
//! lines don't break. Zero-padded ids (`fig06`) are accepted anywhere
//! an id is.
//!
//! Outputs are independent of `--jobs`: every simulation run draws from
//! an RNG stream keyed by `(experiment label, sweep point, seed index)`,
//! and sweep results are aggregated in submission order, so the CSVs are
//! byte-identical at any worker count. Alongside the CSVs the campaign
//! writes `bench_summary.json` with per-experiment wall-clock and
//! simulator event throughput.
//!
//! With `--record`, every simulation run additionally drains its flight
//! recorder into `DIR/obs/<experiment>-p<point>-s<seed>/` (JSONL events,
//! per-gauge probe CSVs, histogram summaries — see the `obs` crate), and
//! `bench_summary.json` gains a `profile` section with per-layer wall
//! time. Recording never touches the scheduler or any RNG stream, so the
//! CSVs are byte-identical with and without it, and the obs artifacts
//! themselves are byte-identical at any `--jobs` width.
//! `--record-filter phy,mac,3` narrows recording to the given layers
//! and/or node ids.
//!
//! Checkpoint & audit (see DESIGN.md §12):
//!
//! ```sh
//! repro --quick --checkpoint-every 100 fig6   # checkpoint every 100 ms vt
//! repro --quick --audit-every 100 fig6        # record audit ladders too
//! repro --quick --resume results fig6         # resume a recorded campaign
//! repro --resume results/checkpoints/RUN.snap # resume one checkpoint file
//! repro --audit-compare A.audit B.audit       # diff two audit ladders
//! ```
//!
//! `--checkpoint-every N` freezes every run at each multiple of N ms of
//! virtual time into `DIR/checkpoints/<run>.snap`; `--audit-every N`
//! additionally records each run's per-layer state-hash ladder into
//! `DIR/audit/<run>.audit`. `--resume DIR` re-runs the selected
//! experiments, restoring each run from its recorded checkpoint and
//! simulating only the tail — the CSVs come out byte-identical to the
//! uninterrupted campaign's, at any `--jobs` width. `--audit-compare`
//! exits non-zero when the ladders diverge and names the first diverging
//! layer and virtual-time bracket.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gr_bench::{fuzz, gate, registry, ConformCampaign, ObsCampaign, Quality, RunCtx};
use net::stats;

/// Per-experiment timing record for `bench_summary.json`.
struct Timing {
    id: String,
    wall_s: f64,
    events: u64,
    runs: u64,
}

fn write_summary(
    out_dir: &Path,
    jobs: usize,
    quick: bool,
    timings: &[Timing],
    total_s: f64,
    profile: Option<&[(&'static str, obs::profile::SpanStat)]>,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!(
        "  \"quality\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    let total_events: u64 = timings.iter().map(|t| t.events).sum();
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!(
        "  \"total_events_per_sec\": {:.0},\n",
        total_events as f64 / total_s.max(1e-9)
    ));
    s.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \"runs\": {}, \"events_per_sec\": {:.0}}}{}\n",
            t.id,
            t.wall_s,
            t.events,
            t.runs,
            t.events as f64 / t.wall_s.max(1e-9),
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    match profile {
        None => s.push_str("  ]\n}\n"),
        Some(spans) => {
            s.push_str("  ],\n  \"profile\": [\n");
            for (i, (label, stat)) in spans.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"span\": \"{label}\", \"calls\": {}, \"wall_s\": {:.3}}}{}\n",
                    stat.calls,
                    stat.secs(),
                    if i + 1 < spans.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]\n}\n");
        }
    }
    std::fs::write(out_dir.join("bench_summary.json"), s)
}

/// Canonicalizes a user-supplied experiment id: registry ids carry no
/// zero padding, so `fig06` and `tab02` resolve to `fig6` and `tab2`.
fn normalize_id(id: &str) -> String {
    match id.find(|c: char| c.is_ascii_digit()) {
        Some(i) => {
            let (prefix, digits) = id.split_at(i);
            match digits.parse::<u64>() {
                Ok(n) => format!("{prefix}{n}"),
                Err(_) => id.to_string(),
            }
        }
        None => id.to_string(),
    }
}

/// Exports every report a recording campaign has accumulated so far into
/// `out_dir/obs/<run-key>/`, in deterministic run-key order.
fn export_obs(out_dir: &Path, campaign: &ObsCampaign) -> std::io::Result<usize> {
    let _span = obs::span!("obs/export");
    let reports = campaign.take_reports();
    let n = reports.len();
    for (key, report) in &reports {
        let dir = out_dir.join("obs").join(obs::run_dir_name(key));
        obs::write_artifacts(&dir, key, report)?;
    }
    Ok(n)
}

/// Fidelity selected by `--quick`, with the seed list overridden by
/// `--seeds N` (seeds 1..=N) when given.
fn quality_for(quick: bool, seeds_override: Option<u64>) -> Quality {
    let mut q = if quick {
        Quality::quick()
    } else {
        Quality::full()
    };
    if let Some(n) = seeds_override {
        q.seeds = (1..=n).collect();
    }
    q
}

/// The campaign checkpoint spec the flags select: resume from the
/// campaign directory `resume`, or record into `dir` when either
/// interval is set, or none.
fn checkpoint_spec(
    resume: Option<&Path>,
    dir: &Path,
    checkpoint_every: Option<u64>,
    audit_every: Option<u64>,
) -> Result<Option<greedy80211::CampaignSpec>, sim::SimError> {
    if let Some(from) = resume {
        return greedy80211::CampaignSpec::resume_from(from).map(Some);
    }
    Ok(
        (checkpoint_every.is_some() || audit_every.is_some()).then(|| {
            greedy80211::CampaignSpec::record(
                dir,
                checkpoint_every.map(sim::SimDuration::from_millis),
                audit_every.map(sim::SimDuration::from_millis),
            )
        }),
    )
}

/// Reports how many runs of a resumed campaign restored their own
/// checkpoint; the rest reran from the start.
fn print_resume_tally(ctx: &RunCtx) {
    if let Some(spec) = ctx.checkpoint.as_ref().filter(|s| s.resume) {
        let (resumed, runs) = spec.resume_tally();
        println!("  resumed {resumed} of {runs} runs");
    }
}

/// Expands a leading subcommand (`run`, `gate`, `fuzz`, `world`, `cc`,
/// `roc`) into the legacy flag spelling the single flag parser below
/// understands. Anything else — including the old flag spellings, which
/// remain hidden aliases — passes through untouched. Returns `Err` with
/// an exit code for subcommands that refuse to run (`fuzz` without a
/// case count).
fn expand_subcommand(raw: Vec<String>) -> Result<Vec<String>, ExitCode> {
    let prefixed = |flag: &str, rest: &[String]| {
        let mut v = vec![flag.to_string()];
        v.extend_from_slice(rest);
        v
    };
    Ok(match raw.first().map(String::as_str) {
        Some("run") => raw[1..].to_vec(),
        Some("gate") => prefixed("--bench-gate", &raw[1..]),
        Some("world") => prefixed("--world", &raw[1..]),
        Some("cc") => prefixed("--cc", &raw[1..]),
        Some("fuzz") => {
            // `repro fuzz N [--seed K]`: the first bare integer is the
            // case count; `--seed` maps to the legacy `--fuzz-seed`.
            let mut v = Vec::new();
            let mut count_seen = false;
            let mut it = raw[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => {
                        v.push("--fuzz-seed".to_string());
                        if let Some(k) = it.next() {
                            v.push(k.clone());
                        }
                    }
                    s if !count_seen && s.parse::<u64>().is_ok() => {
                        count_seen = true;
                        v.push("--fuzz".to_string());
                        v.push(s.to_string());
                    }
                    s => v.push(s.to_string()),
                }
            }
            if !count_seen {
                eprintln!("usage: repro fuzz N [--seed K]");
                return Err(ExitCode::FAILURE);
            }
            v
        }
        Some("roc") => prefixed("--roc", &raw[1..]),
        Some("intensity") => prefixed("--intensity", &raw[1..]),
        _ => raw,
    })
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut list = false;
    let mut bench_gate = false;
    let mut gate_check = false;
    let mut out_dir = PathBuf::from("results");
    let mut jobs = runner::available_jobs();
    let mut record = false;
    let mut filter = obs::Filter::all();
    let mut checkpoint_every: Option<u64> = None;
    let mut audit_every: Option<u64> = None;
    let mut resume: Option<PathBuf> = None;
    let mut audit_compare: Option<(PathBuf, PathBuf)> = None;
    let mut conform = false;
    let mut conform_no_whitelist = false;
    let mut world = false;
    let mut cc_zoo = false;
    let mut roc_campaign = false;
    let mut intensity_campaign = false;
    let mut intensity_points: Option<usize> = None;
    let mut seeds_override: Option<u64> = None;
    let mut cells: Option<(usize, usize)> = None;
    let mut fig2_check = false;
    let mut fuzz_n: Option<u64> = None;
    let mut fuzz_seed: u64 = 1;
    let mut ids: Vec<String> = Vec::new();
    let argv = match expand_subcommand(std::env::args().skip(1).collect()) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--list" | "-l" => list = true,
            "--bench-gate" => bench_gate = true,
            "--check" => gate_check = true,
            "--record" => record = true,
            "--conform" => conform = true,
            "--conform-no-whitelist" => {
                conform = true;
                conform_no_whitelist = true;
            }
            "--world" => world = true,
            "--cc" => cc_zoo = true,
            "--roc" => roc_campaign = true,
            "--intensity" => intensity_campaign = true,
            "--points" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => {
                    intensity_points = Some(n);
                    intensity_campaign = true;
                }
                _ => {
                    eprintln!("--points requires a positive grid-point count");
                    return ExitCode::FAILURE;
                }
            },
            "--fig2-check" => fig2_check = true,
            "--cells" => match args.next() {
                Some(spec) => match spec
                    .split_once('x')
                    .map(|(r, c)| (r.trim().parse::<usize>(), c.trim().parse::<usize>()))
                {
                    Some((Ok(r), Ok(c))) if r > 0 && c > 0 => {
                        cells = Some((r, c));
                        world = true;
                    }
                    _ => {
                        eprintln!("--cells requires a grid like 3x3");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--cells requires a grid like 3x3");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => fuzz_n = Some(n),
                _ => {
                    eprintln!("--fuzz requires a case count");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-seed" => match args.next().as_deref().map(str::parse) {
                Some(Ok(k)) => fuzz_seed = k,
                _ => {
                    eprintln!("--fuzz-seed requires a 64-bit seed");
                    return ExitCode::FAILURE;
                }
            },
            "--record-filter" => match args.next() {
                Some(spec) => match obs::Filter::parse(&spec) {
                    Ok(f) => {
                        filter = f;
                        record = true;
                    }
                    Err(e) => {
                        eprintln!("--record-filter: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--record-filter requires a spec (e.g. phy,mac or 0,3)");
                    return ExitCode::FAILURE;
                }
            },
            "--experiment" | "-e" => match args.next() {
                // Accepts a comma-separated list (`-e fig02,fig06,tab5`);
                // each entry goes through the same zero-padded-id
                // normalization as positional ids.
                Some(list) => ids.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                ),
                None => {
                    eprintln!("--experiment requires an id (see --list)");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) => checkpoint_every = Some(ms),
                _ => {
                    eprintln!("--checkpoint-every requires an interval in ms of virtual time");
                    return ExitCode::FAILURE;
                }
            },
            "--audit-every" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) => audit_every = Some(ms),
                _ => {
                    eprintln!("--audit-every requires an interval in ms of virtual time");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match args.next() {
                Some(p) => resume = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--resume requires a checkpoint file or a campaign directory");
                    return ExitCode::FAILURE;
                }
            },
            "--audit-compare" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => {
                    audit_compare = Some((PathBuf::from(a), PathBuf::from(b)));
                }
                _ => {
                    eprintln!("--audit-compare requires two audit-ladder files");
                    return ExitCode::FAILURE;
                }
            },
            "--out" | "-o" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => seeds_override = Some(n),
                _ => {
                    eprintln!("--seeds requires a positive seed count");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" | "-j" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro run [--quick] [--jobs N] [--out DIR] [--record] \
                     [--record-filter SPEC]\n                 \
                     [--checkpoint-every MS] [--audit-every MS] [--resume PATH] \
                     (all | <id>...)\n       \
                     repro gate [--check]\n       \
                     repro fuzz N [--seed K]\n       \
                     repro world [--cells RxC]\n       \
                     repro cc\n       \
                     repro roc\n       \
                     repro intensity [--points N]\n       \
                     repro --audit-compare A.audit B.audit\n       \
                     repro --list\n\n  \
                     Subcommands expand to the flag spellings they replaced \
                     (gate = --bench-gate,\n  \
                     fuzz N = --fuzz N, world = --world, cc = --cc); the old \
                     flags remain accepted.\n\n  \
                     --experiment IDS      select artifacts: one id or a comma-separated list\n                        \
                     (same as positional ids; zero-padded forms accepted)\n  \
                     --record              flight-record every run into DIR/obs/\n  \
                     --record-filter SPEC  comma-separated layers (phy|mac|transport|net)\n                        \
                     and/or node ids; implies --record\n  \
                     --checkpoint-every MS freeze every run at each MS of virtual time\n                        \
                     into DIR/checkpoints/\n  \
                     --audit-every MS      record per-layer state-hash ladders into DIR/audit/\n  \
                     --resume PATH         a campaign directory: resume every selected run from\n                        \
                     its checkpoint (CSVs byte-identical to an uninterrupted\n                        \
                     campaign); a .snap file: resume that one run and print it\n  \
                     --audit-compare A B   diff two audit ladders; non-zero exit on divergence\n  \
                     --conform             live 802.11 invariant checking on every run; non-zero\n                        \
                     exit on any violation (also applies to --resume FILE)\n  \
                     --conform-no-whitelist  same, but declared greedy quirks no longer exempt\n                        \
                     their rules (greedy scenarios are expected to fail)\n  \
                     --fuzz N              run N randomized scenarios under the checker; shrink\n                        \
                     violations to a 10 ms bracket in DIR/conform/\n  \
                     --fuzz-seed K         fuzz campaign seed (default 1); same N and K give\n                        \
                     identical verdicts and byte-identical artifacts\n  \
                     --world               multi-cell world campaign: sweep greedy density ×\n                        \
                     grid size, per-cell CSVs into DIR/world-RxC-gK.csv\n  \
                     --cells RxC           restrict --world to one grid size (implies --world)\n  \
                     --seeds N             override the seed list with 1..=N (default: 1 seed\n                        \
                     with --quick, 5 at full fidelity)\n  \
                     --cc                  congestion-control zoo: sweep {{newreno,cubic,bbr,\n                        \
                     newreno+hystart}} x {{honest,nav,spoof,fake}} into\n                        \
                     DIR/cc_matrix.csv and DIR/cc-<controller>.csv\n  \
                     --roc                 detection science: per-detector ROC frontiers and AUC,\n                        \
                     load-adaptive threshold validation, CUSUM/SPRT detection\n                        \
                     delays — CSVs into DIR/roc/\n  \
                     --intensity           attack-intensity frontiers: honest/attacked pairs per\n                        \
                     (detector, mix, intensity), knees and the windowed-vs-\n                        \
                     sequential crossover — CSVs into DIR/intensity/; honors\n                        \
                     --checkpoint-every / --audit-every / --resume DIR\n  \
                     --points N            thin the intensity grid to N points, keeping both\n                        \
                     endpoints (implies --intensity)\n  \
                     --fig2-check          identity gate: fig2 via 1x1 worlds must match the\n                        \
                     direct fig2 CSV byte-for-byte\n  \
                     --bench-gate          time the pinned perf-gate subset, write BENCH_<date>.json\n  \
                     --check               with --bench-gate: fail on regression vs BENCH_BASELINE.json"
                );
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }

    if let Some((a, b)) = &audit_compare {
        return match greedy80211::audit::compare_files(a, b) {
            Ok(divergence) => {
                println!("{}", greedy80211::audit::describe(&divergence));
                if divergence.is_none() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("--audit-compare: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Fuzz mode: generate + run + shrink, independent of the experiment
    // registry.
    if let Some(n) = fuzz_n {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!(
                "failed to create output directory {}: {e}",
                out_dir.display()
            );
            return ExitCode::FAILURE;
        }
        println!("# conformance fuzz — {n} case(s), campaign seed {fuzz_seed}\n");
        let mut dirty = 0u64;
        for i in 0..n {
            let case = fuzz::generate_case(fuzz_seed, i);
            let desc = case.desc.clone();
            match fuzz::run_case(case, &out_dir) {
                Ok(v) if v.is_clean() => {
                    println!(
                        "  case {i:>3} ok    {desc}  ({} events, {} whitelisted)",
                        v.events_checked, v.whitelisted
                    );
                }
                Ok(v) => {
                    dirty += 1;
                    println!("  case {i:>3} FAIL  {desc}");
                    println!(
                        "        {} violation(s); first: {}",
                        v.violations.len(),
                        v.violations[0]
                    );
                    if let Some((lo, hi)) = v.bracket_ms {
                        println!(
                            "        shrunk to [{lo}, {hi}) ms of virtual time, layer `{}`",
                            v.layer.unwrap_or("?")
                        );
                    }
                    if let Some((ilo, ihi)) = v.intensity_bracket {
                        if ihi == 0.0 {
                            println!(
                                "        violates even with the attack scaled to zero \
                                 (attack-independent)"
                            );
                        } else {
                            println!(
                                "        minimal violating intensity in ({ilo:.4}, {ihi:.4}] \
                                 of the case's attack strength"
                            );
                        }
                    }
                    match &v.artifact {
                        Some(p) => {
                            println!("        repro: repro --conform --resume {}", p.display())
                        }
                        None => println!(
                            "        repro: repro --fuzz {} --fuzz-seed {fuzz_seed}  \
                             (case {i}; violation inside the first bracket)",
                            i + 1
                        ),
                    }
                }
                Err(e) => {
                    eprintln!("  case {i}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("\n{} of {n} case(s) violated an invariant", dirty);
        return if dirty == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // A .snap file resumes one run directly; a directory switches the
    // whole campaign into resume mode (handled below via RunCtx). With
    // --conform the checker rides along mid-stream (stream-dependent
    // rules disarmed, protocol-timing rules live) — how a fuzz
    // violation artifact is replayed.
    if let Some(path) = resume.as_ref().filter(|p| p.is_file()) {
        let job = conform.then(|| {
            let j = ::conform::ConformJob::new(None);
            if conform_no_whitelist {
                j.without_whitelist()
            } else {
                j
            }
        });
        let instruments = greedy80211::Instruments {
            conform: job.clone(),
            ..Default::default()
        };
        return match greedy80211::Run::resume_with(path, &instruments) {
            Ok(out) => {
                println!(
                    "resumed {} (point {}, seed {}) to {} ms of virtual time",
                    out.key.experiment,
                    out.key.point,
                    out.key.seed,
                    out.duration.as_nanos() / 1_000_000
                );
                for i in 0..out.flows.len() {
                    println!("  flow {}: {:.3} Mb/s", i, out.goodput_mbps(i));
                }
                let mut failed = false;
                if let Some(job) = job {
                    for (_, report) in job.drain() {
                        if report.is_clean() {
                            println!(
                                "  conform: clean ({} events, {} whitelisted)",
                                report.events_checked, report.whitelisted
                            );
                        } else {
                            failed = true;
                            for v in &report.violations {
                                println!("  conform: {v}");
                            }
                        }
                    }
                }
                if failed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("--resume: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if fig2_check {
        let quality = quality_for(quick, seeds_override);
        let ctx = RunCtx::with_jobs(quality, jobs);
        println!(
            "# fig2 identity check — direct vs 1×1-world, {} job(s)\n",
            jobs
        );
        return match gr_bench::fig2_check(&ctx) {
            Ok(msg) => {
                println!("  {msg}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("  {msg}");
                ExitCode::FAILURE
            }
        };
    }

    if cc_zoo {
        let quality = quality_for(quick, seeds_override);
        let campaign = gr_bench::CcCampaign::new(quality, jobs);
        println!(
            "# congestion-control zoo — {} controller(s) × {} attack(s), {} job(s)\n",
            campaign.ccs.len(),
            gr_bench::cc::ATTACKS.len(),
            jobs,
        );
        let t = Instant::now();
        let report = match campaign.run(&out_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--cc: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.matrix.render());
        for path in &report.controller_csvs {
            println!("  -> {}", path.display());
        }
        println!(
            "  -> {} ({:.1}s)",
            out_dir.join("cc_matrix.csv").display(),
            t.elapsed().as_secs_f64()
        );
        return ExitCode::SUCCESS;
    }

    if intensity_campaign {
        let quality = quality_for(quick, seeds_override);
        let mut campaign = gr_bench::IntensityCampaign::new(quality.clone(), jobs);
        if let Some(n) = intensity_points {
            campaign = campaign.with_points(n);
        }
        let int_dir = out_dir.join("intensity");
        let mut ctx = RunCtx::with_jobs(quality, jobs);
        match checkpoint_spec(resume.as_deref(), &int_dir, checkpoint_every, audit_every) {
            Ok(Some(spec)) => ctx = ctx.with_checkpoints(spec),
            Ok(None) => {}
            Err(e) => {
                eprintln!("--resume: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "# attack-intensity frontiers — {} detector cell(s) × {} intensities × 2 classes, {} job(s){}\n",
            gr_bench::roc::CELLS.len(),
            campaign.grid.len(),
            jobs,
            if resume.is_some() {
                ", resuming from checkpoints"
            } else if ctx.checkpoint.is_some() {
                ", checkpointing"
            } else {
                ""
            },
        );
        let t = Instant::now();
        let report = match campaign.run_with(&ctx, &int_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--intensity: {e}");
                return ExitCode::FAILURE;
            }
        };
        for table in &report.frontiers {
            print!("{}", table.render());
        }
        print!("{}", report.knees.render());
        for cf in &report.cells {
            match cf.knee {
                Some(k) => println!(
                    "  {}/{}: minimal detectable intensity {k:.2}{}",
                    cf.cell.detector,
                    cf.cell.mix,
                    match cf.crossover {
                        Some((lo, hi)) => {
                            format!(", sequential-only regime [{lo:.2}, {hi:.2}]")
                        }
                        None => String::new(),
                    },
                ),
                None => println!(
                    "  {}/{}: never reliably detectable on this grid",
                    cf.cell.detector, cf.cell.mix
                ),
            }
        }
        for path in &report.csvs {
            println!("  -> {}", path.display());
        }
        print_resume_tally(&ctx);
        println!("  ({:.1}s)", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }

    if roc_campaign {
        let quality = quality_for(quick, seeds_override);
        let campaign = gr_bench::RocCampaign::new(quality, jobs);
        println!(
            "# detection science — {} detector cell(s) × {} adaptive load(s), {} job(s)\n",
            gr_bench::roc::CELLS.len(),
            gr_bench::roc::ADAPTIVE_LOADS_BPS.len(),
            jobs,
        );
        let t = Instant::now();
        let roc_dir = out_dir.join("roc");
        let report = match campaign.run(&roc_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--roc: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.auc.render());
        print!("{}", report.adaptive.render());
        print!("{}", report.delays.render());
        for path in &report.roc_csvs {
            println!("  -> {}", path.display());
        }
        println!("  -> {}", report.obs_dir.display());
        println!(
            "  -> {} ({:.1}s)",
            roc_dir.join("auc_summary.csv").display(),
            t.elapsed().as_secs_f64()
        );
        return ExitCode::SUCCESS;
    }

    if world {
        let quality = quality_for(quick, seeds_override);
        let mut campaign = gr_bench::WorldCampaign::new(quality, jobs);
        if let Some((r, c)) = cells {
            campaign = campaign.with_grid(r, c);
        }
        campaign.conform = conform;
        campaign.honor_whitelist = !conform_no_whitelist;
        println!(
            "# multi-cell world campaign — {} grid(s) × {} greedy densities, {} job(s){}\n",
            campaign.grids.len(),
            campaign.greedy_fracs.len(),
            jobs,
            if conform { ", conformance-checked" } else { "" },
        );
        let t = Instant::now();
        let report = match campaign.run(&out_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--world: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.summary.render());
        if let Err(e) = report.summary.write_csv(&out_dir) {
            eprintln!("failed to write world.csv: {e}");
            return ExitCode::FAILURE;
        }
        for path in &report.cell_csvs {
            println!("  -> {}", path.display());
        }
        println!(
            "  -> {} ({:.1}s)",
            out_dir.join("world.csv").display(),
            t.elapsed().as_secs_f64()
        );
        if conform {
            let runs = report.conform_reports.len();
            let violations = report.conform_violations();
            let whitelisted: u64 = report
                .conform_reports
                .iter()
                .map(|(_, r)| r.whitelisted)
                .sum();
            if violations == 0 {
                println!("  conform: {runs} cell(s) clean ({whitelisted} whitelist exemption(s))");
            } else {
                println!("  conform: {violations} violation(s) across {runs} cell(s):");
                for (key, r) in &report.conform_reports {
                    for v in &r.violations {
                        match key {
                            Some(k) => {
                                println!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed)
                            }
                            None => println!("    {v}"),
                        }
                    }
                }
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if bench_gate {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!(
                "failed to create output directory {}: {e}",
                out_dir.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "# perf gate — pinned subset {:?}, sequential, 1 seed, best of {} passes\n",
            gate::GATE_SUBSET,
            gate::GATE_PASSES
        );
        let report = gate::run_gate();
        for st in &report.stats {
            println!(
                "  {:<6} {:>10.3}s  {:>10} events  {:>9.0} events/s  {:>6.1} ns/event",
                st.id,
                st.wall_s,
                st.events,
                st.events_per_sec(),
                st.ns_per_event()
            );
        }
        println!(
            "  total  {:>10.3}s  {:>10} events  {:>9.0} events/s  {:>6.1} ns/event  (peak RSS {} KiB)",
            report.total_wall_s(),
            report.total_events(),
            report.events_per_sec(),
            report.ns_per_event(),
            report.peak_rss_kib
        );
        println!(
            "  conform pass: {:.3}s ({:+.1} % overhead), {} run(s), {} violation(s)",
            report.conform_wall_s,
            report.conform_overhead_pct(),
            report.conform_runs,
            report.conform_violations
        );
        println!(
            "  world smoke: {:.0} events/s at 1 cell, {:.0} events/s at 3x3 co-channel cells",
            report.world.cells1_events_per_sec, report.world.cells9_events_per_sec
        );
        println!(
            "  cc smoke: {:.0} events/s under cubic, {:.0} events/s under bbr",
            report.cc.cubic_events_per_sec, report.cc.bbr_events_per_sec
        );
        println!(
            "  sustained: {:.0} events/s (8-station saturating hotspot)",
            report.sustained_events_per_sec
        );
        println!(
            "  roc smoke: {:.0} events/s (pinned detection-science campaign)",
            report.roc_events_per_sec
        );
        println!(
            "  intensity smoke: {:.0} events/s (two-point attack-intensity frontier)",
            report.intensity_events_per_sec
        );
        let path = out_dir.join(format!("BENCH_{}.json", report.date));
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  -> {}", path.display());
        if gate_check {
            let baseline = out_dir.join("BENCH_BASELINE.json");
            match gate::check_against_baseline(&report, &baseline, gate::GATE_TOLERANCE) {
                Ok(msg) => println!("  {msg}"),
                Err(msg) => {
                    eprintln!("  {msg}");
                    return ExitCode::FAILURE;
                }
            }
            match report.conform_check(gate::CONFORM_OVERHEAD_LIMIT_PCT) {
                Ok(msg) => println!("  {msg}"),
                Err(msg) => {
                    eprintln!("  {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let reg = registry();
    if list {
        for (id, _) in &reg {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if ids.is_empty() {
        eprintln!("no experiments selected; try `repro all` or `repro --list`");
        return ExitCode::FAILURE;
    }
    let selected: Vec<&(&str, gr_bench::Generator)> = if ids.iter().any(|i| i == "all") {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &ids {
            let canonical = normalize_id(id);
            match reg.iter().find(|(rid, _)| *rid == canonical) {
                Some(entry) => sel.push(entry),
                None => {
                    let valid: Vec<&str> = reg.iter().map(|(rid, _)| *rid).collect();
                    eprintln!(
                        "unknown experiment id `{id}`; valid ids: all, {}",
                        valid.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!(
            "failed to create output directory {}: {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let quality = quality_for(quick, seeds_override);
    let campaign = record.then(|| {
        obs::profile::reset();
        obs::profile::set_enabled(true);
        ObsCampaign::new(obs::ObsSpec {
            filter: filter.clone(),
            ..obs::ObsSpec::default()
        })
    });
    let mut ctx = RunCtx::with_jobs(quality, jobs);
    if let Some(camp) = &campaign {
        ctx = ctx.with_record(camp.clone());
    }
    let conform_camp = conform.then(|| {
        let c = ConformCampaign::new();
        if conform_no_whitelist {
            c.without_whitelist()
        } else {
            c
        }
    });
    if let Some(c) = &conform_camp {
        ctx = ctx.with_conform(c.clone());
    }
    let checkpointing = checkpoint_every.is_some() || audit_every.is_some();
    match checkpoint_spec(resume.as_deref(), &out_dir, checkpoint_every, audit_every) {
        Ok(Some(spec)) => ctx = ctx.with_checkpoints(spec),
        Ok(None) => {}
        Err(e) => {
            eprintln!("--resume: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# greedy80211 reproduction — {} experiment(s), {} fidelity, {} job(s){}{}{}\n",
        selected.len(),
        if quick { "quick" } else { "full" },
        jobs,
        if record { ", recording" } else { "" },
        if conform { ", conformance-checked" } else { "" },
        if resume.is_some() {
            ", resuming from checkpoints"
        } else if checkpointing {
            ", checkpointing"
        } else {
            ""
        },
    );
    let t_all = Instant::now();
    let mut timings = Vec::new();
    let mut conform_failed = false;
    for (id, gen) in selected {
        let t = Instant::now();
        let before = stats::snapshot();
        let experiment = gen(&ctx);
        let used = stats::snapshot().since(before);
        let wall_s = t.elapsed().as_secs_f64();
        print!("{}", experiment.render());
        match experiment.write_csv(&out_dir) {
            Ok(()) => println!(
                "  -> {} ({:.1}s, {:.0} events/s)\n",
                out_dir.join(format!("{id}.csv")).display(),
                wall_s,
                used.events_processed as f64 / wall_s.max(1e-9),
            ),
            Err(e) => {
                eprintln!("failed to write CSV for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(camp) = &campaign {
            match export_obs(&out_dir, camp) {
                Ok(0) => {}
                Ok(n) => println!("  -> {} ({n} run(s))\n", out_dir.join("obs").display()),
                Err(e) => {
                    eprintln!("failed to write obs artifacts for {id}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(camp) = &conform_camp {
            let reports = camp.take_reports();
            let runs = reports.len();
            let violations: u64 = reports.iter().map(|(_, r)| r.violation_count()).sum();
            let whitelisted: u64 = reports.iter().map(|(_, r)| r.whitelisted).sum();
            if violations == 0 {
                println!("  conform: {runs} run(s) clean ({whitelisted} whitelist exemption(s))\n");
            } else {
                conform_failed = true;
                println!("  conform: {violations} violation(s) across {runs} run(s):");
                for (key, report) in &reports {
                    for v in &report.violations {
                        match key {
                            Some(k) => {
                                println!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed)
                            }
                            None => println!("    {v}"),
                        }
                    }
                }
                println!();
            }
        }
        timings.push(Timing {
            id: id.to_string(),
            wall_s,
            events: used.events_processed,
            runs: used.runs_completed,
        });
    }
    let total_s = t_all.elapsed().as_secs_f64();
    print_resume_tally(&ctx);
    println!("total: {total_s:.1}s");
    let profile = campaign.as_ref().map(|_| obs::profile::snapshot());
    if let Err(e) = write_summary(&out_dir, jobs, quick, &timings, total_s, profile.as_deref()) {
        eprintln!("failed to write bench_summary.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("  -> {}", out_dir.join("bench_summary.json").display());
    if conform_failed {
        eprintln!("invariant violations found; see the conform lines above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
