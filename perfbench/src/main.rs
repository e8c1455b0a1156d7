//! The repository's benchmark: four workloads against the simulator's
//! public API, end-to-end metrics from untraced runs, per-layer metrics
//! from a separate traced run, every output checked against reference
//! digests. BENCHMARK.md describes the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-refs <name>      regenerate refs/<name>.txt
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod host;
mod layers;
mod metrics;
mod oracle;
mod trace;
mod workloads;

use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{median, result_line, Values, END_TO_END, PER_LAYER};
use oracle::Refs;
use trace::Tracer;
use workloads::{Inputs, Traced, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Child processes started to time set-up before every pass; `setup_s`
/// is the median of all of them. Spreading them over the run keeps a
/// momentary stall of the host from setting the result.
const SETUP_PROBES: usize = 9;

enum Mode {
    /// Measure the workload and print the result line.
    Run { seconds: f64, trace: bool },
    /// Set up, print `ready`, exit: one sample of `setup_s`.
    SetupProbe,
    /// Regenerate the workload's reference digests.
    WriteRefs,
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let (mut probe, mut write_refs) = (false, false);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value(&mut args, &flag)?),
            "--write-refs" => {
                workload = Some(value(&mut args, &flag)?);
                write_refs = true;
            }
            "--seed" => {
                seed = value(&mut args, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value(&mut args, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value(&mut args, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-probe" => probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name}; expected one of {}",
            names.join(", ")
        )
    })?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let mode = if write_refs {
        Mode::WriteRefs
    } else if probe {
        Mode::SetupProbe
    } else {
        Mode::Run { seconds, trace }
    };
    Ok(Args {
        workload,
        seed,
        mode,
    })
}

/// Everything a run needs before its first call into the simulator.
struct Setup {
    refs: Refs,
    inputs: Inputs,
    out: PathBuf,
}

fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let refs = Refs::load(w.name()).map_err(|e| e.to_string())?;
    let inputs = workloads::inputs(w, seed);
    let out = out_dir(w)?;
    Ok(Setup { refs, inputs, out })
}

/// Times one set-up in a fresh process: spawn this binary in probe mode
/// and wait for its `ready` line.
fn setup_sample(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match read {
        Ok(_) if status.success() && line.trim() == "ready" => Ok(elapsed),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

fn run(args: Args) -> Result<(), String> {
    let Args {
        workload: w,
        seed,
        mode,
    } = args;
    match mode {
        Mode::SetupProbe => {
            setup(w, seed)?;
            println!("ready");
            Ok(())
        }
        Mode::WriteRefs => write_refs(w),
        Mode::Run { seconds, trace } => {
            let s = setup(w, seed)?;
            let line = if trace {
                traced_run(w, seed, &s)?
            } else {
                untraced_run(w, seed, seconds, &s)?
            };
            println!("{line}");
            Ok(())
        }
    }
}

/// Repeats passes until `seconds` are spent (at least one). A pass's
/// cost is reported as the sum over its units of each unit's median over
/// the passes, so a burst of host noise during one unit of one pass does
/// not move the result.
fn untraced_run(w: Workload, seed: u64, seconds: f64, s: &Setup) -> Result<String, String> {
    let v = workloads::variant(seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut passes = Vec::new();
    let mut setup_samples = Vec::new();
    let start = Instant::now();
    loop {
        for _ in 0..SETUP_PROBES {
            setup_samples.push(setup_sample(w, seed)?);
        }
        let p = workloads::pass(&s.inputs, w.jobs(), &s.out, &mut Tracer::new(false));
        let (a, f) = s.refs.check(v, &p.artifacts);
        attempted += a;
        failed += f;
        let last = p.wall_s;
        passes.push(p);
        // Stop when one more pass would end further past the budget
        // than stopping now falls short of it.
        if start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    let units = passes[0].units.len();
    let unit_median = |i: usize, pick: fn(&(f64, f64)) -> f64| -> f64 {
        let xs: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.units.get(i).map(pick))
            .collect();
        median(&xs)
    };
    let wall: f64 = (0..units).map(|i| unit_median(i, |u| u.0)).sum();
    let cpu: f64 = (0..units).map(|i| unit_median(i, |u| u.1)).sum();
    let sim_s = median(&passes.iter().map(|p| p.sim_s).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {} seed {seed}: {} passes, walls {:.3?}",
        w.name(),
        passes.len(),
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()
    );
    let setup_s = median(&setup_samples);
    let mut values = Values::new();
    values.insert("wall_s", setup_s + wall);
    values.insert("sim_s_per_wall_s", sim_s / wall);
    values.insert("cpu_s", cpu);
    values.insert("setup_s", setup_s);
    values.insert(
        "peak_heap_mib",
        median(&passes.iter().map(|p| p.peak_heap_mib).collect::<Vec<_>>()),
    );
    values.insert(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    Ok(result_line(
        failed == 0,
        attempted,
        failed,
        END_TO_END,
        &values,
    ))
}

/// An untraced pass, a traced pass and a single-threaded counting pass
/// over the same inputs, then the layer probes. Every pass is checked
/// against the references and against the untraced one, so tracing
/// provably changes no output.
fn traced_run(w: Workload, seed: u64, s: &Setup) -> Result<String, String> {
    let v = workloads::variant(seed);
    let plain = workloads::pass(&s.inputs, w.jobs(), &s.out, &mut Tracer::new(false));
    let peak_rss_mib = host::peak_rss_mib();
    let mut tracer = Tracer::new(true);
    let traced = workloads::pass(&s.inputs, w.jobs(), &s.out, &mut tracer);
    alloc::set_counting(true);
    let a0 = alloc::allocations();
    let counted = workloads::pass(&s.inputs, 1, &s.out, &mut Tracer::new(false));
    alloc::set_counting(false);
    let allocs = alloc::allocations() - a0;

    let (mut attempted, mut failed) = (0, 0);
    for p in [&plain, &traced, &counted] {
        let (a, f) = s.refs.check(v, &p.artifacts);
        attempted += a;
        failed += f;
    }
    for p in [&traced, &counted] {
        let same = p.artifacts == plain.artifacts;
        if !same {
            eprintln!("perfbench: outputs differ from the untraced pass's");
        }
        attempted += 1;
        failed += u64::from(!same);
    }
    let (values, a3, f3) = Traced {
        workload: w,
        inputs: &s.inputs,
        seed,
        plain: &plain,
        traced: &traced,
        tracer: &tracer,
        allocs,
        peak_rss_mib,
    }
    .layer_values();
    let spans = s.out.join("spans.jsonl");
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    attempted += a3;
    failed += f3;
    Ok(result_line(
        failed == 0,
        attempted,
        failed,
        PER_LAYER,
        &values,
    ))
}

/// Runs every input variant once and writes `refs/<workload>.txt`.
fn write_refs(w: Workload) -> Result<(), String> {
    let out = out_dir(w)?;
    let variants: Vec<(String, u64)> = if w.has_variants() {
        (0..workloads::VARIANTS)
            .map(|v| (v.to_string(), v))
            .collect()
    } else {
        vec![("*".to_string(), 0)]
    };
    let mut sets = Vec::new();
    for (label, seed) in variants {
        let inputs = workloads::inputs(w, seed);
        let p = workloads::pass(&inputs, w.jobs(), &out, &mut Tracer::new(false));
        if let Some((a, v)) = p
            .artifacts
            .iter()
            .find(|(_, v)| v.starts_with("error") || v == "panic")
        {
            return Err(format!("variant {label}: {a} failed: {v}"));
        }
        eprintln!(
            "perfbench: {} variant {label}: {} outputs",
            w.name(),
            p.artifacts.len()
        );
        sets.push((label, p.artifacts));
    }
    let text = oracle::render(
        &format!(
            "{}: <variant> <artifact> <digest>; regenerate with `perfbench --write-refs {}`",
            w.name(),
            w.name()
        ),
        &sets,
    );
    let path = oracle::refs_path(w.name());
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The workload's output directory, `.bench_out/<workload>` at the
/// root of the checkout (created if missing).
fn out_dir(w: Workload) -> Result<PathBuf, String> {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_out")
        .join(w.name());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(out)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
