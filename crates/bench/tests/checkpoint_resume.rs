//! Checkpoint → resume round-trip over real experiments (the issue's
//! acceptance bar): a campaign recorded with mid-run checkpoints, then
//! resumed — each run restoring its snapshot and simulating only the
//! tail — must emit byte-identical CSVs, at any `--jobs` width.

use std::fs;
use std::path::{Path, PathBuf};

use gr_bench::{registry, run_jobs, Quality, RunCtx};
use greedy80211::{
    CampaignSpec, CcConfig, Checkpoint, GreedyConfig, NavInflationConfig, Run, RunOutcome, Scenario,
};
use sim::{SimDuration, SimError};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gr-ckpt-resume").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn csv_for(id: &str, ctx: &RunCtx, out: &Path) -> Vec<u8> {
    let (_, gen) = registry()
        .into_iter()
        .find(|(rid, _)| *rid == id)
        .expect("id in registry");
    let experiment = gen(ctx);
    experiment.write_csv(out).unwrap();
    fs::read(out.join(format!("{id}.csv"))).unwrap()
}

#[test]
fn recorded_campaigns_resume_to_byte_identical_csvs() {
    for id in ["fig2", "fig6", "tab5"] {
        let dir = tmp(id);
        let camp = dir.join("campaign");
        // Record pass: sequential, checkpoint + audit every 500 ms of
        // virtual time (quick runs last 2 s, so snapshots land mid-run).
        let record = RunCtx::with_jobs(Quality::quick(), 1).with_checkpoints(CampaignSpec::record(
            &camp,
            Some(SimDuration::from_millis(500)),
            Some(SimDuration::from_millis(500)),
        ));
        let gold = csv_for(id, &record, &dir.join("rec"));
        let n_ckpts = fs::read_dir(camp.join("checkpoints")).unwrap().count();
        assert!(n_ckpts > 0, "{id}: no checkpoints recorded");
        assert!(
            fs::read_dir(camp.join("audit")).unwrap().count() > 0,
            "{id}: no audit ladders recorded"
        );
        // Resume passes: every run restores its checkpoint and simulates
        // only the tail, sequentially and across 8 workers.
        for jobs in [1usize, 8] {
            let resume = RunCtx::with_jobs(Quality::quick(), jobs)
                .with_checkpoints(CampaignSpec::resume_from(&camp).expect("recorded campaign"));
            let out = csv_for(id, &resume, &dir.join(format!("jobs{jobs}")));
            assert_eq!(out, gold, "{id}: resumed CSV differs at jobs={jobs}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// One CSV line of the transport-visible outcome: goodputs, loss
/// machinery counters, and the time-weighted window average.
fn outcome_csv(out: &RunOutcome) -> String {
    let mut line = String::new();
    for i in 0..out.flows.len() {
        let m = out.metrics.flow(out.flows[i]).expect("flow metrics");
        line.push_str(&format!(
            "{:.6},{},{},{:.6};",
            out.goodput_mbps(i),
            m.retransmissions,
            m.timeouts,
            m.avg_cwnd.unwrap_or(f64::NAN),
        ));
    }
    line
}

#[test]
fn cubic_and_bbr_resume_mid_recovery_to_byte_identical_outcomes() {
    // The zoo's stateful controllers (CUBIC's epoch anchor, BBR's filter
    // banks and mode machine) must survive freeze/thaw mid-loss-episode:
    // a lossy 2 s run checkpointed every 500 ms, resumed from a mid-run
    // snapshot, must reproduce the uninterrupted run's transport metrics
    // byte for byte.
    for cc in [CcConfig::cubic(), CcConfig::bbr()] {
        let dir = tmp(&format!("cc-{}", cc.name()));
        let s = Scenario {
            cc,
            // Lossy enough that recovery episodes straddle the barriers.
            byte_error_rate: 3e-4,
            duration: SimDuration::from_secs(2),
            ..Scenario::default()
        };
        let gold = Run::plan(&s)
            .checkpoint_every(SimDuration::from_millis(500))
            .execute()
            .expect("valid scenario");
        let gold_csv = outcome_csv(&gold);
        let retx: u64 = gold
            .flows
            .iter()
            .map(|f| gold.metrics.flow(*f).unwrap().retransmissions)
            .sum();
        assert!(
            retx > 0,
            "{}: the lossy run must actually exercise recovery",
            cc.name()
        );
        assert!(
            gold.checkpoints.len() >= 3,
            "{}: mid-run snapshots",
            cc.name()
        );
        // Resume from every mid-run snapshot, not just the first: later
        // barriers freeze deeper controller state (BBR past startup,
        // CUBIC mid-epoch).
        for (at, bytes) in &gold.checkpoints {
            let path = dir.join(format!("{}ms.snap", at.as_nanos() / 1_000_000));
            Checkpoint::decode(bytes)
                .expect("checkpoint decodes")
                .write(&path)
                .expect("checkpoint writes");
            let resumed = Run::resume(&path).expect("checkpoint resumes");
            assert_eq!(
                outcome_csv(&resumed),
                gold_csv,
                "{}: resume at {at:?} diverged",
                cc.name()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `repro run --resume DIR` on a directory that does not exist refuses
/// to run (it would silently rerun everything) and names the directory.
#[test]
fn resume_from_a_missing_directory_fails_naming_it() {
    let dir = tmp("missing-dir");
    let missing = dir.join("no-such-campaign");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["run", "--quick", "--resume"])
        .arg(&missing)
        .arg("--out")
        .arg(dir.join("out"))
        .arg("fig2")
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "resume from nowhere succeeded");
    assert!(
        stderr.contains(&missing.display().to_string()),
        "error does not name the directory: {stderr}"
    );
    assert!(
        !dir.join("out").join("fig2.csv").exists(),
        "fig2 ran anyway"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A job that runs two simulations checkpoints each under its own run
/// number, and a resume restores both from their own files; replaying
/// the runs in the other order is refused, not silently rerun.
#[test]
fn every_run_of_a_multi_run_job_resumes_from_its_own_checkpoint() {
    let dir = tmp("two-run-job");
    let quality = Quality {
        duration: SimDuration::from_millis(600),
        ..Quality::quick()
    };
    let honest = Scenario {
        duration: quality.duration,
        ..Scenario::default()
    };
    let greedy = Scenario {
        greedy: vec![(
            1,
            GreedyConfig::nav_inflation(NavInflationConfig::cts_only(10_000, 1.0)),
        )],
        ..honest.clone()
    };
    let job_of = |spec: CampaignSpec, order: [&Scenario; 2]| {
        let ctx = RunCtx::with_jobs(quality.clone(), 1).with_checkpoints(spec);
        run_jobs(&ctx, "twice", &[()], |_, job| {
            order
                .map(|s| {
                    job.plan(s)
                        .seeded(job.seed)
                        .execute()
                        .map(|o| (o.metrics.events_processed, outcome_csv(&o)))
                })
                .into_iter()
                .collect::<Result<Vec<_>, SimError>>()
        })
        .remove(0)
        .remove(0)
    };
    let record = CampaignSpec::record(&dir, Some(SimDuration::from_millis(200)), None);
    let gold = job_of(record, [&honest, &greedy]).expect("recorded job runs");
    for stem in ["twice-p0000-s0000", "twice-p0000-s0000-r1"] {
        assert!(
            dir.join("checkpoints")
                .join(format!("{stem}.snap"))
                .exists(),
            "no checkpoint {stem}"
        );
    }

    let resume = CampaignSpec::resume_from(&dir).expect("recorded campaign");
    let resumed = job_of(resume.clone(), [&honest, &greedy]).expect("resumed job runs");
    assert_eq!(resumed, gold, "resumed runs diverged");
    assert_eq!(resume.resume_tally(), (2, 2), "both runs restored");

    let swapped = CampaignSpec::resume_from(&dir).expect("recorded campaign");
    let err = job_of(swapped, [&greedy, &honest]).expect_err("swapped runs resumed");
    assert!(err.to_string().contains("different scenario"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
