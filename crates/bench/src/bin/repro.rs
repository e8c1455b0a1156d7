//! Regenerates the paper's tables and figures, and runs the campaigns
//! built on the same simulator; `repro --help` lists every subcommand
//! and flag.
//!
//! ```sh
//! repro run --quick --jobs 8 all      # every artifact, low fidelity, 8 workers
//! repro run fig1 tab2                 # selected artifacts (fig06 = fig6)
//! repro run --record fig6             # flight-record every run into results/obs/
//! repro gate --check                  # perf gate; fails on regression
//! repro fuzz 25 --seed 7              # randomized conformance fuzzing
//! repro world --cells 3x3             # multi-cell world campaign
//! repro intensity --points 3          # also: cc, roc, fig2-check, list
//! ```
//!
//! A flag the subcommand does not use, a stray positional argument and
//! a spelling earlier versions accepted (`--bench-gate`, `-q`, bare
//! `repro fig2`, …) are errors that name the argument.
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
//! repro run --quick --checkpoint-every 100 fig6    # checkpoint every 100 ms vt
//! repro run --quick --audit-every 100 fig6         # record audit ladders too
//! repro run --quick --resume results fig6          # resume a recorded campaign
//! repro resume results/checkpoints/fig6-p0003-s0001.snap  # resume one run
//! repro audit-compare a.audit b.audit              # diff two audit ladders
//! ```
//!
//! `--checkpoint-every N` freezes every run at each multiple of N ms of
//! virtual time into `DIR/checkpoints/<run>.snap`; `--audit-every N`
//! additionally records each run's per-layer state-hash ladder into
//! `DIR/audit/<run>.audit`. `--resume DIR` re-runs the selected
//! experiments, restoring each run from its recorded checkpoint and
//! simulating only the tail — the CSVs come out byte-identical to the
//! uninterrupted campaign's, at any `--jobs` width. `audit-compare`
//! exits non-zero when the ladders diverge and names the first diverging
//! layer and virtual-time bracket.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use gr_bench::{fuzz, gate, registry, ConformCampaign, Generator, ObsCampaign, Quality, RunCtx};
use greedy80211::CampaignSpec;
use net::stats;
use sim::{RunKey, SimDuration};

const USAGE: &str = "\
usage: repro run [CAMPAIGN] [RECORD] [CHECKPOINTS] [CONFORM] (all | ID...)
       repro resume [CONFORM] FILE.snap
       repro audit-compare A.audit B.audit
       repro gate [--check] [--out DIR]
       repro fuzz N [--seed K] [--out DIR]
       repro world [CAMPAIGN] [--cells RxC] [CONFORM]
       repro fig2-check [--quick] [--seeds N] [--jobs N]
       repro cc [CAMPAIGN]
       repro roc [CAMPAIGN]
       repro intensity [CAMPAIGN] [--points N] [CHECKPOINTS]
       repro list

  CAMPAIGN     --quick (1 seed, short runs)  --seeds N (seeds 1..=N)
               --jobs N (workers; outputs are identical at any N)  --out DIR (results)
  RECORD       --record: flight-record every run into DIR/obs/
               --record-filter SPEC: only layers phy|mac|transport|net and/or node ids
  CHECKPOINTS  --checkpoint-every MS: freeze every run each MS of virtual time
               --audit-every MS: record per-layer state-hash ladders into DIR/audit/
               --resume DIR: resume every run from the checkpoints recorded in DIR
  CONFORM      --conform: check 802.11 invariants live, fail on any violation
               --conform-no-whitelist: same, declared greedy quirks not exempt

  run          regenerate experiments (fig06 = fig6) into DIR, plus bench_summary.json
  resume       resume one checkpoint file and print its goodput
  audit-compare  diff two audit ladders; non-zero exit on divergence
  gate         time the perf-gate workloads into DIR/BENCH_<date>.json; --check
               fails on a regression against DIR/BENCH_BASELINE.json
  fuzz         N randomized scenarios under the checker (seed K, default 1);
               violations shrink to a 10 ms bracket in DIR/conform/
  world        multi-cell worlds, greedy density x grid size (--cells: one size)
  fig2-check   fig2 via 1x1 worlds must match the direct fig2 CSV byte for byte
  cc           congestion-control zoo: 4 controllers x 4 attacks
  roc          detection science: ROC/AUC, adaptive thresholds, CUSUM/SPRT delays
  intensity    attack-intensity frontiers and knees (--points: thin the grid)
  list         print every experiment id";

/// What `repro` was asked to do: one variant per subcommand, each
/// carrying only the values that subcommand uses.
#[derive(Debug)]
enum Command {
    /// `repro run (all | ID...)`: regenerate registry experiments.
    Run {
        campaign: Campaign,
        selected: Vec<(&'static str, Generator)>,
        record: Option<obs::Filter>,
        checkpoints: Option<Checkpoints>,
        conform: Conform,
    },
    /// `repro resume FILE.snap`: resume one checkpoint and print it.
    Resume { snap: PathBuf, conform: Conform },
    /// `repro audit-compare A B`: diff two audit ladders.
    AuditCompare(PathBuf, PathBuf),
    /// `repro gate`: time the pinned perf-gate workloads.
    Gate { out: PathBuf, check: bool },
    /// `repro fuzz N`: `cases` randomized scenarios under the checker.
    Fuzz { cases: u64, seed: u64, out: PathBuf },
    /// `repro world`: the multi-cell world campaign.
    World {
        campaign: Campaign,
        cells: Option<(usize, usize)>,
        conform: Conform,
    },
    /// `repro fig2-check`: fig2 via 1×1 worlds against the direct run.
    Fig2Check(Fidelity),
    /// `repro cc`: the congestion-control zoo.
    Cc(Campaign),
    /// `repro roc`: the detection-science campaign.
    Roc(Campaign),
    /// `repro intensity`: the attack-intensity frontiers.
    Intensity {
        campaign: Campaign,
        points: Option<NonZeroUsize>,
        checkpoints: Option<Checkpoints>,
    },
    /// `repro list`: print the experiment ids.
    List,
    /// `repro --help`.
    Help,
}

/// Fidelity and worker count: `--quick`, `--seeds N`, `--jobs N`.
#[derive(Debug)]
struct Fidelity {
    quick: bool,
    seeds: Option<NonZeroU64>,
    jobs: NonZeroUsize,
}

/// A campaign's fidelity plus its output directory (`--out DIR`).
#[derive(Debug)]
struct Campaign {
    fid: Fidelity,
    out: PathBuf,
}

/// Whether runs are conformance-checked, and whether declared greedy
/// quirks still exempt their rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conform {
    Off,
    Whitelisted,
    NoWhitelist,
}

/// A campaign's checkpoints: recorded into the output directory at the
/// given intervals of virtual time, or restored from an earlier
/// campaign's directory.
#[derive(Debug)]
enum Checkpoints {
    Record {
        every: Option<SimDuration>,
        audit_every: Option<SimDuration>,
    },
    Resume(PathBuf),
}

const MS: &str = "a positive interval in ms of virtual time";

/// Every flag that takes a value, with what a valid value looks like.
const VALUED: &[(&str, &str)] = &[
    ("--seeds", "a positive seed count"),
    ("--jobs", "a positive integer"),
    ("--out", "a directory"),
    ("--record-filter", "a spec like phy,mac or 0,3"),
    ("--checkpoint-every", MS),
    ("--audit-every", MS),
    ("--resume", "a campaign directory"),
    ("--points", "a positive grid-point count"),
    ("--cells", "a grid like 3x3"),
    ("--seed", "a 64-bit seed"),
];

/// Every flag that takes no value.
const SWITCHES: &[&str] = &[
    "--quick",
    "--check",
    "--record",
    "--conform",
    "--conform-no-whitelist",
];

/// Spellings earlier versions accepted, each with what replaces it.
const REMOVED: &[(&str, &str)] = &[
    ("--bench-gate", "repro gate"),
    ("--fuzz", "repro fuzz N --seed K"),
    ("--fuzz-seed", "repro fuzz N --seed K"),
    ("--world", "repro world"),
    ("--cc", "repro cc"),
    ("--roc", "repro roc"),
    ("--intensity", "repro intensity"),
    ("--fig2-check", "repro fig2-check"),
    ("--audit-compare", "repro audit-compare A B"),
    ("--list", "repro list"),
    ("-l", "repro list"),
    ("--experiment", "repro run ID..."),
    ("-e", "repro run ID..."),
    ("-q", "--quick"),
    ("-j", "--jobs N"),
    ("-o", "--out DIR"),
];

/// The error for `flag` given to subcommand `sub`, which does not take it.
fn not_a_flag(flag: &str, sub: &str) -> String {
    match REMOVED.iter().find(|(old, _)| *old == flag) {
        Some((_, new)) => format!("`{flag}` was removed; use `{new}`"),
        None => format!("`{flag}` is not a flag of `repro {sub}`; see `repro --help`"),
    }
}

/// A subcommand's arguments, split into flags and positionals. The
/// subcommand's parser takes out what it uses; [`Args::finish`] rejects
/// whatever is left.
struct Args<'a> {
    sub: &'a str,
    flags: Vec<(&'a str, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn split(sub: &'a str, rest: &'a [String]) -> Result<Self, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = rest.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') || arg == "-" {
                positional.push(arg);
            } else if VALUED.iter().any(|(f, _)| *f == arg) {
                flags.push((arg, it.next()));
            } else if SWITCHES.contains(&arg) {
                flags.push((arg, None));
            } else {
                return Err(not_a_flag(arg, sub));
            }
        }
        Ok(Args {
            sub,
            flags,
            positional,
        })
    }

    /// Removes every occurrence of `flag`, returning their values.
    fn take(&mut self, flag: &str) -> Vec<Option<&'a str>> {
        let (hits, rest) = self.flags.iter().partition(|(f, _)| *f == flag);
        self.flags = rest;
        hits.into_iter().map(|(_, v)| v).collect()
    }

    /// Whether switch `flag` was given.
    fn switch(&mut self, flag: &str) -> bool {
        !self.take(flag).is_empty()
    }

    /// The value of `flag` parsed as `T` (the last one if given twice).
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let mut parsed = None;
        for v in self.take(flag) {
            let expects = VALUED
                .iter()
                .find(|(f, _)| *f == flag)
                .map_or("a value", |e| e.1);
            let v = v.and_then(|v| v.parse().ok());
            parsed = Some(v.ok_or_else(|| format!("{flag} requires {expects}"))?);
        }
        Ok(parsed)
    }

    /// The first `N` positional arguments, `what` naming them for the
    /// error when there are fewer.
    fn positional<const N: usize>(&mut self, what: &str) -> Result<[&'a str; N], String> {
        if self.positional.len() < N {
            return Err(format!("`repro {}` requires {what}", self.sub));
        }
        let head: Vec<&str> = self.positional.drain(..N).collect();
        Ok(head.try_into().expect("N positionals drained"))
    }

    /// Rejects any flag or positional the subcommand did not use.
    fn finish(self) -> Result<(), String> {
        if let Some((flag, _)) = self.flags.first() {
            return Err(not_a_flag(flag, self.sub));
        }
        match self.positional.first() {
            Some(extra) => Err(format!(
                "unexpected argument `{extra}` for `repro {}`",
                self.sub
            )),
            None => Ok(()),
        }
    }

    fn out(&mut self) -> Result<PathBuf, String> {
        Ok(self.value("--out")?.unwrap_or_else(|| "results".into()))
    }

    /// `--jobs` defaults to the machine's core count.
    fn fidelity(&mut self) -> Result<Fidelity, String> {
        let cores = NonZeroUsize::new(runner::available_jobs()).unwrap_or(NonZeroUsize::MIN);
        Ok(Fidelity {
            quick: self.switch("--quick"),
            seeds: self.value("--seeds")?,
            jobs: self.value("--jobs")?.unwrap_or(cores),
        })
    }

    fn campaign(&mut self) -> Result<Campaign, String> {
        Ok(Campaign {
            fid: self.fidelity()?,
            out: self.out()?,
        })
    }

    /// The stricter `--conform-no-whitelist` wins when both are given.
    fn conform(&mut self) -> Conform {
        match (
            self.switch("--conform"),
            self.switch("--conform-no-whitelist"),
        ) {
            (_, true) => Conform::NoWhitelist,
            (true, false) => Conform::Whitelisted,
            (false, false) => Conform::Off,
        }
    }

    fn record(&mut self) -> Result<Option<obs::Filter>, String> {
        let on = self.switch("--record");
        let spec: Option<String> = self.value("--record-filter")?;
        match spec {
            Some(spec) => obs::Filter::parse(&spec)
                .map(Some)
                .map_err(|e| format!("--record-filter: {e}")),
            None => Ok(on.then(obs::Filter::all)),
        }
    }

    /// `--resume` excludes both intervals: a resumed campaign records
    /// nothing new, so an interval given with it would be ignored.
    fn checkpoints(&mut self) -> Result<Option<Checkpoints>, String> {
        let ms = |n: Option<NonZeroU64>| n.map(|n| SimDuration::from_millis(n.get()));
        let every = ms(self.value("--checkpoint-every")?);
        let audit_every = ms(self.value("--audit-every")?);
        match self.value("--resume")? {
            None if every.is_none() && audit_every.is_none() => Ok(None),
            None => Ok(Some(Checkpoints::Record { every, audit_every })),
            Some(_) if every.is_some() || audit_every.is_some() => {
                Err("--resume cannot be combined with --checkpoint-every or --audit-every".into())
            }
            Some(dir) => Ok(Some(Checkpoints::Resume(dir))),
        }
    }
}

impl Fidelity {
    /// The selected fidelity, with the seed list overridden by
    /// `--seeds N` (seeds 1..=N) when given.
    fn quality(&self) -> Quality {
        let mut q = if self.quick {
            Quality::quick()
        } else {
            Quality::full()
        };
        if let Some(n) = self.seeds {
            q.seeds = (1..=n.get()).collect();
        }
        q
    }

    fn ctx(&self) -> RunCtx {
        RunCtx::with_jobs(self.quality(), self.jobs.get())
    }
}

impl Conform {
    /// A campaign-wide checker, or `None` when checking is off.
    fn campaign(self) -> Option<ConformCampaign> {
        match self {
            Conform::Off => None,
            Conform::Whitelisted => Some(ConformCampaign::new()),
            Conform::NoWhitelist => Some(ConformCampaign::new().without_whitelist()),
        }
    }
}

impl Checkpoints {
    /// The campaign spec: record into `dir`, or resume from the
    /// directory `--resume` named.
    fn spec(&self, dir: &Path) -> Result<CampaignSpec, String> {
        match self {
            Checkpoints::Record { every, audit_every } => {
                Ok(CampaignSpec::record(dir, *every, *audit_every))
            }
            Checkpoints::Resume(from) => {
                CampaignSpec::resume_from(from).map_err(|e| format!("--resume: {e}"))
            }
        }
    }

    /// The campaign banner's note on checkpointing.
    fn note(this: Option<&Self>) -> &'static str {
        match this {
            Some(Checkpoints::Resume(_)) => ", resuming from checkpoints",
            Some(Checkpoints::Record { .. }) => ", checkpointing",
            None => "",
        }
    }
}

/// Parses `repro`'s arguments (without the program name).
fn parse(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let Some((sub, rest)) = args.split_first() else {
        return Err("no subcommand given; try `repro run all` or `repro --help`".into());
    };
    type Build = fn(&mut Args) -> Result<Command, String>;
    let build: Build = match sub.as_str() {
        "run" => |a| {
            Ok(Command::Run {
                campaign: a.campaign()?,
                record: a.record()?,
                checkpoints: a.checkpoints()?,
                conform: a.conform(),
                selected: select(&std::mem::take(&mut a.positional))?,
            })
        },
        "resume" => |a| {
            let [snap] = a.positional("a checkpoint file")?;
            Ok(Command::Resume {
                snap: snap.into(),
                conform: a.conform(),
            })
        },
        "audit-compare" => |a| {
            let [x, y] = a.positional("two audit-ladder files")?;
            Ok(Command::AuditCompare(x.into(), y.into()))
        },
        "gate" => |a| {
            Ok(Command::Gate {
                out: a.out()?,
                check: a.switch("--check"),
            })
        },
        "fuzz" => |a| {
            let [n] = a.positional("a case count: repro fuzz N")?;
            Ok(Command::Fuzz {
                cases: n
                    .parse()
                    .map_err(|_| format!("`repro fuzz` takes a case count, not `{n}`"))?,
                seed: a.value("--seed")?.unwrap_or(1),
                out: a.out()?,
            })
        },
        "world" => |a| {
            let cells: Option<String> = a.value("--cells")?;
            Ok(Command::World {
                campaign: a.campaign()?,
                cells: match cells {
                    Some(spec) => Some(grid(&spec).ok_or("--cells requires a grid like 3x3")?),
                    None => None,
                },
                conform: a.conform(),
            })
        },
        "fig2-check" => |a| Ok(Command::Fig2Check(a.fidelity()?)),
        "cc" => |a| Ok(Command::Cc(a.campaign()?)),
        "roc" => |a| Ok(Command::Roc(a.campaign()?)),
        "intensity" => |a| {
            Ok(Command::Intensity {
                campaign: a.campaign()?,
                points: a.value("--points")?,
                checkpoints: a.checkpoints()?,
            })
        },
        "list" => |_| Ok(Command::List),
        other => {
            return Err(match REMOVED.iter().find(|(old, _)| *old == other) {
                Some((_, new)) => format!("`{other}` was removed; use `{new}`"),
                None if other.starts_with('-') => {
                    format!("expected a subcommand before `{other}`; see `repro --help`")
                }
                None if other == "all" || find(other).is_some() => {
                    format!("unknown subcommand `{other}`; use `repro run {other}`")
                }
                None => format!("unknown subcommand `{other}`; see `repro --help`"),
            })
        }
    };
    let mut a = Args::split(sub, rest)?;
    let cmd = build(&mut a)?;
    a.finish()?;
    Ok(cmd)
}

/// Parses a grid size like `3x3`.
fn grid(spec: &str) -> Option<(usize, usize)> {
    let (r, c) = spec.split_once('x')?;
    let (r, c) = (r.trim().parse().ok()?, c.trim().parse().ok()?);
    (r > 0 && c > 0).then_some((r, c))
}

/// The registry entry an experiment id names. Registry ids carry no zero
/// padding, so `fig06` and `tab02` resolve to `fig6` and `tab2`.
fn find(id: &str) -> Option<(&'static str, Generator)> {
    let canonical = match id.find(|c: char| c.is_ascii_digit()) {
        Some(i) => match id[i..].parse::<u64>() {
            Ok(n) => format!("{}{n}", &id[..i]),
            Err(_) => id.to_string(),
        },
        None => id.to_string(),
    };
    registry().into_iter().find(|(rid, _)| *rid == canonical)
}

/// The experiments `repro run` selects: every one for `all`, else each
/// id in turn.
fn select(ids: &[&str]) -> Result<Vec<(&'static str, Generator)>, String> {
    if ids.is_empty() {
        return Err("`repro run` requires `all` or experiment ids; see `repro list`".into());
    }
    if ids.contains(&"all") {
        return Ok(registry());
    }
    ids.iter()
        .map(|id| {
            find(id).ok_or_else(|| {
                let valid: Vec<&str> = registry().iter().map(|(rid, _)| *rid).collect();
                format!(
                    "unknown experiment id `{id}`; valid ids: all, {}",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Per-experiment timing record for `bench_summary.json`.
struct Timing {
    id: String,
    wall_s: f64,
    events: u64,
    runs: u64,
}

fn write_summary(
    out_dir: &Path,
    fid: &Fidelity,
    timings: &[Timing],
    total_s: f64,
    profile: Option<&[(&'static str, obs::profile::SpanStat)]>,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {},\n", fid.jobs));
    s.push_str(&format!(
        "  \"quality\": \"{}\",\n",
        if fid.quick { "quick" } else { "full" }
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

fn create_out(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("failed to create output directory {}: {e}", dir.display()))
}

/// Prints a campaign's conformance verdict, one line per violation;
/// `unit` names what each report covers (`run` or `cell`). Returns
/// whether every report was clean.
fn print_conform(reports: &[(Option<RunKey>, conform::ConformReport)], unit: &str) -> bool {
    let runs = reports.len();
    let violations: u64 = reports.iter().map(|(_, r)| r.violation_count()).sum();
    let whitelisted: u64 = reports.iter().map(|(_, r)| r.whitelisted).sum();
    if violations == 0 {
        println!("  conform: {runs} {unit}(s) clean ({whitelisted} whitelist exemption(s))");
        return true;
    }
    println!("  conform: {violations} violation(s) across {runs} {unit}(s):");
    for (key, report) in reports {
        for v in &report.violations {
            match key {
                Some(k) => println!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed),
                None => println!("    {v}"),
            }
        }
    }
    false
}

const CHECKED: &str = ", conformance-checked";

const VIOLATIONS_FOUND: &str = "invariant violations found; see the conform lines above";

/// How `repro fuzz` tells the user to replay a violation from the
/// checkpoint it was shrunk to.
fn replay_hint(snap: &Path) -> String {
    format!("resume --conform {}", snap.display())
}

/// How `repro fuzz` tells the user to rerun the campaign up to case
/// `cases - 1`, when the violation left no checkpoint to replay.
fn rerun_hint(cases: u64, seed: u64) -> String {
    format!("fuzz {cases} --seed {seed}")
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::List => registry().iter().for_each(|(id, _)| println!("{id}")),
        Command::AuditCompare(a, b) => {
            let divergence = greedy80211::audit::compare_files(&a, &b)
                .map_err(|e| format!("audit-compare: {e}"))?;
            println!("{}", greedy80211::audit::describe(&divergence));
            if divergence.is_some() {
                let (a, b) = (a.display(), b.display());
                return Err(format!("audit ladders {a} and {b} diverge"));
            }
        }
        Command::Resume { snap, conform } => resume(&snap, conform)?,
        Command::Fuzz { cases, seed, out } => fuzz_cases(cases, seed, &out)?,
        Command::Gate { out, check } => perf_gate(&out, check)?,
        Command::Fig2Check(fid) => {
            let jobs = fid.jobs;
            println!("# fig2 identity check — direct vs 1×1-world, {jobs} job(s)\n");
            println!("  {}", gr_bench::fig2_check(&fid.ctx())?);
        }
        Command::Cc(c) => cc(&c)?,
        Command::Roc(c) => roc(&c)?,
        Command::Intensity {
            campaign,
            points,
            checkpoints,
        } => intensity(&campaign, points, checkpoints.as_ref())?,
        Command::World {
            campaign,
            cells,
            conform,
        } => world(&campaign, cells, conform)?,
        Command::Run {
            campaign,
            selected,
            record,
            checkpoints,
            conform,
        } => experiments(&campaign, &selected, record, checkpoints.as_ref(), conform)?,
    }
    Ok(())
}

/// Prints where a campaign wrote its artifacts.
fn print_paths(paths: &[PathBuf]) {
    for path in paths {
        println!("  -> {}", path.display());
    }
}

/// Resumes one checkpoint file and prints the run. With a conform mode
/// the checker rides along mid-stream (stream-dependent rules disarmed,
/// protocol-timing rules live) — how a fuzz violation artifact is
/// replayed.
fn resume(snap: &Path, conform: Conform) -> Result<(), String> {
    let job = (conform != Conform::Off).then(|| ::conform::ConformJob {
        honor_whitelist: conform == Conform::Whitelisted,
        ..::conform::ConformJob::new(None)
    });
    let instruments = greedy80211::Instruments {
        conform: job.clone(),
        ..Default::default()
    };
    let out = greedy80211::Run::resume_with(snap, &instruments)
        .map_err(|e| format!("resume {}: {e}", snap.display()))?;
    let (key, ms) = (&out.key, out.duration.as_nanos() / 1_000_000);
    let (experiment, point, seed) = (&key.experiment, key.point, key.seed);
    println!("resumed {experiment} (point {point}, seed {seed}) to {ms} ms of virtual time");
    for i in 0..out.flows.len() {
        println!("  flow {}: {:.3} Mb/s", i, out.goodput_mbps(i));
    }
    match job {
        Some(job) if !print_conform(&job.drain(), "run") => Err(VIOLATIONS_FOUND.into()),
        _ => Ok(()),
    }
}

/// Generates, runs and shrinks `cases` fuzz cases, independent of the
/// experiment registry.
fn fuzz_cases(cases: u64, seed: u64, out: &Path) -> Result<(), String> {
    create_out(out)?;
    println!("# conformance fuzz — {cases} case(s), campaign seed {seed}\n");
    let mut dirty = 0u64;
    for i in 0..cases {
        let case = fuzz::generate_case(seed, i);
        let desc = case.desc.clone();
        let v = fuzz::run_case(case, out).map_err(|e| format!("case {i}: {e}"))?;
        let (events, whitelisted) = (v.events_checked, v.whitelisted);
        if v.is_clean() {
            println!("  case {i:>3} ok    {desc}  ({events} events, {whitelisted} whitelisted)");
            continue;
        }
        dirty += 1;
        println!("  case {i:>3} FAIL  {desc}");
        let (n, first) = (v.violations.len(), &v.violations[0]);
        println!("        {n} violation(s); first: {first}");
        if let Some((lo, hi)) = v.bracket_ms {
            let layer = v.layer.unwrap_or("?");
            println!("        shrunk to [{lo}, {hi}) ms of virtual time, layer `{layer}`");
        }
        match v.intensity_bracket {
            Some((_, 0.0)) => println!(
                "        violates even with the attack scaled to zero (attack-independent)"
            ),
            Some((ilo, ihi)) => println!(
                "        minimal violating intensity in ({ilo:.4}, {ihi:.4}] \
                 of the case's attack strength"
            ),
            None => {}
        }
        match &v.artifact {
            Some(p) => println!("        repro: repro {}", replay_hint(p)),
            None => println!(
                "        repro: repro {}  (case {i}; violation inside the first bracket)",
                rerun_hint(i + 1, seed)
            ),
        }
    }
    let verdict = format!("{dirty} of {cases} case(s) violated an invariant");
    println!("\n{verdict}");
    if dirty > 0 {
        return Err(verdict);
    }
    Ok(())
}

fn perf_gate(out: &Path, check: bool) -> Result<(), String> {
    create_out(out)?;
    let (subset, passes) = (gate::GATE_SUBSET, gate::GATE_PASSES);
    println!(
        "# perf gate — pinned subset {subset:?}, sequential, 1 seed, best of {passes} passes\n"
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
    for s in &report.smokes {
        let note = if s.gated { "" } else { "  (report-only)" };
        println!(
            "  {:<13} smoke: {:>9.0} events/s{note}",
            s.key, s.events_per_sec
        );
    }
    let path = out.join(format!("BENCH_{}.json", report.date));
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    println!("  -> {}", path.display());
    if check {
        let baseline = out.join("BENCH_BASELINE.json");
        let throughput = gate::check_against_baseline(&report, &baseline, gate::GATE_TOLERANCE)?;
        let conform = report.conform_check(gate::CONFORM_OVERHEAD_LIMIT_PCT)?;
        println!("  {throughput}\n  {conform}");
    }
    Ok(())
}

fn cc(c: &Campaign) -> Result<(), String> {
    let campaign = gr_bench::CcCampaign::new(c.fid.quality(), c.fid.jobs.get());
    println!(
        "# congestion-control zoo — {} controller(s) × {} attack(s), {} job(s)\n",
        campaign.ccs.len(),
        gr_bench::cc::ATTACKS.len(),
        c.fid.jobs,
    );
    let t = Instant::now();
    let report = campaign.run(&c.out).map_err(|e| format!("cc: {e}"))?;
    print!("{}", report.matrix.render());
    print_paths(&report.controller_csvs);
    let matrix = c.out.join("cc_matrix.csv");
    println!(
        "  -> {} ({:.1}s)",
        matrix.display(),
        t.elapsed().as_secs_f64()
    );
    Ok(())
}

fn roc(c: &Campaign) -> Result<(), String> {
    let campaign = gr_bench::RocCampaign::new(c.fid.quality(), c.fid.jobs.get());
    println!(
        "# detection science — {} detector cell(s) × {} adaptive load(s), {} job(s)\n",
        gr_bench::roc::CELLS.len(),
        gr_bench::roc::ADAPTIVE_LOADS_BPS.len(),
        c.fid.jobs,
    );
    let t = Instant::now();
    let roc_dir = c.out.join("roc");
    let report = campaign.run(&roc_dir).map_err(|e| format!("roc: {e}"))?;
    print!("{}", report.auc.render());
    print!("{}", report.adaptive.render());
    print!("{}", report.delays.render());
    print_paths(&report.roc_csvs);
    println!("  -> {}", report.obs_dir.display());
    let auc = roc_dir.join("auc_summary.csv");
    println!("  -> {} ({:.1}s)", auc.display(), t.elapsed().as_secs_f64());
    Ok(())
}

/// Reports how many runs of a resumed campaign restored their own
/// checkpoint; the rest reran from the start.
fn print_resume_tally(ctx: &RunCtx) {
    if let Some(spec) = ctx.checkpoint.as_ref().filter(|s| s.resume) {
        let (resumed, runs) = spec.resume_tally();
        println!("  resumed {resumed} of {runs} runs");
    }
}

fn intensity(
    c: &Campaign,
    points: Option<NonZeroUsize>,
    checkpoints: Option<&Checkpoints>,
) -> Result<(), String> {
    let mut campaign = gr_bench::IntensityCampaign::new(c.fid.quality(), c.fid.jobs.get());
    if let Some(n) = points {
        campaign = campaign.with_points(n.get());
    }
    let int_dir = c.out.join("intensity");
    let mut ctx = c.fid.ctx();
    if let Some(ck) = checkpoints {
        ctx = ctx.with_checkpoints(ck.spec(&int_dir)?);
    }
    println!(
        "# attack-intensity frontiers — {} detector cell(s) × {} intensities × 2 classes, {} job(s){}\n",
        gr_bench::roc::CELLS.len(),
        campaign.grid.len(),
        c.fid.jobs,
        Checkpoints::note(checkpoints),
    );
    let t = Instant::now();
    let report = campaign
        .run_with(&ctx, &int_dir)
        .map_err(|e| format!("intensity: {e}"))?;
    for table in &report.frontiers {
        print!("{}", table.render());
    }
    print!("{}", report.knees.render());
    for cf in &report.cells {
        let (detector, mix) = (&cf.cell.detector, &cf.cell.mix);
        let Some(k) = cf.knee else {
            println!("  {detector}/{mix}: never reliably detectable on this grid");
            continue;
        };
        let crossover = match cf.crossover {
            Some((lo, hi)) => format!(", sequential-only regime [{lo:.2}, {hi:.2}]"),
            None => String::new(),
        };
        println!("  {detector}/{mix}: minimal detectable intensity {k:.2}{crossover}");
    }
    print_paths(&report.csvs);
    print_resume_tally(&ctx);
    println!("  ({:.1}s)", t.elapsed().as_secs_f64());
    Ok(())
}

fn world(c: &Campaign, cells: Option<(usize, usize)>, conform: Conform) -> Result<(), String> {
    let mut campaign = gr_bench::WorldCampaign::new(c.fid.quality(), c.fid.jobs.get());
    if let Some((rows, cols)) = cells {
        campaign = campaign.with_grid(rows, cols);
    }
    campaign.conform = conform != Conform::Off;
    campaign.honor_whitelist = conform != Conform::NoWhitelist;
    println!(
        "# multi-cell world campaign — {} grid(s) × {} greedy densities, {} job(s){}\n",
        campaign.grids.len(),
        campaign.greedy_fracs.len(),
        c.fid.jobs,
        if campaign.conform { CHECKED } else { "" },
    );
    let t = Instant::now();
    let report = campaign.run(&c.out).map_err(|e| format!("world: {e}"))?;
    print!("{}", report.summary.render());
    report
        .summary
        .write_csv(&c.out)
        .map_err(|e| format!("failed to write world.csv: {e}"))?;
    print_paths(&report.cell_csvs);
    let summary = c.out.join("world.csv");
    println!(
        "  -> {} ({:.1}s)",
        summary.display(),
        t.elapsed().as_secs_f64()
    );
    if campaign.conform && !print_conform(&report.conform_reports, "cell") {
        return Err(VIOLATIONS_FOUND.into());
    }
    Ok(())
}

/// `repro run`: regenerates the selected experiments into `c.out`.
fn experiments(
    c: &Campaign,
    selected: &[(&'static str, Generator)],
    record: Option<obs::Filter>,
    checkpoints: Option<&Checkpoints>,
    conform: Conform,
) -> Result<(), String> {
    let mut ctx = c.fid.ctx();
    if let Some(ck) = checkpoints {
        ctx = ctx.with_checkpoints(ck.spec(&c.out)?);
    }
    create_out(&c.out)?;
    let obs_camp = record.map(|filter| {
        obs::profile::reset();
        obs::profile::set_enabled(true);
        ObsCampaign::new(obs::ObsSpec {
            filter,
            ..obs::ObsSpec::default()
        })
    });
    if let Some(camp) = &obs_camp {
        ctx = ctx.with_record(camp.clone());
    }
    let conform_camp = conform.campaign();
    if let Some(camp) = &conform_camp {
        ctx = ctx.with_conform(camp.clone());
    }
    println!(
        "# greedy80211 reproduction — {} experiment(s), {} fidelity, {} job(s){}{}{}\n",
        selected.len(),
        if c.fid.quick { "quick" } else { "full" },
        c.fid.jobs,
        obs_camp.as_ref().map_or("", |_| ", recording"),
        conform_camp.as_ref().map_or("", |_| CHECKED),
        Checkpoints::note(checkpoints),
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
        experiment
            .write_csv(&c.out)
            .map_err(|e| format!("failed to write CSV for {id}: {e}"))?;
        let (csv, eps) = (
            c.out.join(format!("{id}.csv")),
            used.events_processed as f64,
        );
        println!(
            "  -> {} ({wall_s:.1}s, {:.0} events/s)\n",
            csv.display(),
            eps / wall_s.max(1e-9)
        );
        if let Some(camp) = &obs_camp {
            let n = export_obs(&c.out, camp)
                .map_err(|e| format!("failed to write obs artifacts for {id}: {e}"))?;
            if n > 0 {
                println!("  -> {} ({n} run(s))\n", c.out.join("obs").display());
            }
        }
        if let Some(camp) = &conform_camp {
            conform_failed |= !print_conform(&camp.take_reports(), "run");
            println!();
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
    let profile = obs_camp.as_ref().map(|_| obs::profile::snapshot());
    write_summary(&c.out, &c.fid, &timings, total_s, profile.as_deref())
        .map_err(|e| format!("failed to write bench_summary.json: {e}"))?;
    println!("  -> {}", c.out.join("bench_summary.json").display());
    if conform_failed {
        return Err(VIOLATIONS_FOUND.into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a shell command line into words: whitespace outside quotes
    /// separates, quotes group, and the words end at a redirection, pipe
    /// or command separator.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), String::new(), None);
        let mut started = false;
        for ch in line.chars() {
            match (quote, ch) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '"' | '\'') => {
                    quote = Some(ch);
                    started = true;
                }
                (None, c) if c.is_whitespace() => {
                    if started {
                        words.push(std::mem::take(&mut word));
                        started = false;
                    }
                }
                (None, c) => {
                    word.push(c);
                    started = true;
                }
            }
        }
        if started {
            words.push(word);
        }
        let end = words
            .iter()
            .position(|w| {
                w.starts_with('>')
                    || w.starts_with("2>")
                    || w.ends_with(';')
                    || ["|", "&&", "||"].contains(&w.as_str())
            })
            .unwrap_or(words.len());
        words.truncate(end);
        words
    }

    /// Every `repro` argument list in `text`: what follows `--bin repro --`
    /// or a line-leading `repro `, with `\` continuations joined and
    /// `# comments` dropped. In markdown only fenced code blocks count.
    fn repro_lines(text: &str, markdown: bool) -> Vec<String> {
        let mut joined = Vec::new();
        let mut pending = String::new();
        let mut fenced = !markdown;
        for line in text.lines() {
            if markdown && line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if !fenced {
                continue;
            }
            match line.trim_end().strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => {
                    pending.push_str(line);
                    joined.push(std::mem::take(&mut pending));
                }
            }
        }
        joined
            .iter()
            .filter_map(|line| {
                let line = match line.find(" #") {
                    Some(i) => &line[..i],
                    None => line,
                };
                if let Some((_, args)) = line.split_once("--bin repro --") {
                    return Some(args.to_string());
                }
                line.trim_start().strip_prefix("repro ").map(str::to_string)
            })
            .collect()
    }

    #[test]
    fn every_documented_command_line_parses() {
        let docs = [
            ("README.md", include_str!("../../../../README.md"), true),
            (
                "EXPERIMENTS.md",
                include_str!("../../../../EXPERIMENTS.md"),
                true,
            ),
            ("DESIGN.md", include_str!("../../../../DESIGN.md"), true),
            ("ci.sh", include_str!("../../../../ci.sh"), false),
        ];
        let (mut checked, mut broken) = (0, Vec::new());
        for (name, text, markdown) in docs {
            for line in repro_lines(text, markdown) {
                if let Err(e) = parse(&shell_words(&line)) {
                    broken.push(format!("{name}: `repro {}`: {e}", line.trim()));
                }
                checked += 1;
            }
        }
        assert!(broken.is_empty(), "{}", broken.join("\n"));
        assert!(
            checked >= 40,
            "only {checked} documented command lines found"
        );
    }

    #[test]
    fn fuzz_repro_hints_parse() {
        for hint in [
            replay_hint(Path::new("results/conform/violation-fuzz-p0007-s0001.snap")),
            rerun_hint(8, 7),
        ] {
            let args = shell_words(&hint);
            assert!(parse(&args).is_ok(), "`repro {hint}` does not parse");
        }
    }
}
