//! Acceptance bars for the `repro intensity` attack-intensity campaign:
//!
//! 1. Degenerate intensities collapse to honesty: a zero-strength attack
//!    (`inflate_us = 0`, `gp = 0`) is byte-identical to the honest run,
//!    and unit intensity reproduces the historical full-strength ROC
//!    cells knob for knob (the PR that added the axis changed nothing).
//! 2. Every artifact is byte-identical at `--jobs 1` and `--jobs 8`,
//!    and the reported knee is consistent with the frontier it
//!    summarizes: the criterion holds at the knee and every stronger
//!    point, and fails one grid step below.
//! 3. The campaign survives a checkpoint → resume round-trip: CSVs from
//!    a resumed sweep are byte-identical to the uninterrupted ones, and
//!    a mid-intensity attacked run's windowed guard evidence digests
//!    stably into the `detect` audit layer across checkpoint resume.

use std::fs;
use std::path::{Path, PathBuf};

use detsci::{IntensityPoint, KneeCriterion};
use gr_bench::roc::{guard_windows, measure_class, windowed_scenario, Guard, CELLS};
use gr_bench::{cc, IntensityCampaign, Quality, RunCtx};
use greedy80211::detect::WindowStat;
use greedy80211::{Axis, CampaignSpec, Checkpoint, GreedyConfig, Run, RunOutcome};
use sim::{RunKey, SimDuration};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gr-intensity").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `root`, as (relative path, bytes), sorted by path.
fn dir_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, base: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        let mut entries: Vec<_> = fs::read_dir(dir)
            .expect("readable dir")
            .map(|e| e.expect("entry").path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, base, out);
            } else {
                let rel = p.strip_prefix(base).expect("under base");
                out.push((
                    rel.to_string_lossy().into_owned(),
                    fs::read(&p).expect("readable file"),
                ));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out
}

/// Every guard window of the run, flattened to a comparable series.
fn window_series(out: &RunOutcome) -> Vec<(u16, &'static str, u64, f64, f64, u64)> {
    let mut rows = Vec::new();
    for (node, snap) in &out.grc {
        for (name, track) in [("nav", &snap.nav.windows), ("spoof", &snap.spoof.windows)] {
            let Some(track) = track else { continue };
            for WindowStat {
                idx,
                peak,
                sum,
                samples,
            } in track.stats()
            {
                rows.push((node.0, name, idx, peak, sum, samples));
            }
        }
    }
    rows
}

fn test_quality() -> Quality {
    Quality {
        seeds: vec![1, 2],
        duration: SimDuration::from_millis(600),
        samples: 100,
    }
}

/// A zero-strength attack must be behaviorally honest. The scenario
/// builder deliberately parks greedy receivers 25 m further out than
/// honest ones (the spoof detector's SNR margin), so an attacked run is
/// never byte-identical to the *honest-class* run — but with placement
/// fixed, every inert config must be indistinguishable from every
/// other: NAV inflation by 0 µs, NAV inflation that never fires
/// (`gp = 0`), zero-probability ACK spoofing, and zero-probability fake
/// ACKs all produce the same guard evidence and the same audit root.
/// This pins the bottom of the intensity axis: a zero-intensity policy
/// neither acts nor draws RNG (`SimRng::chance` short-circuits at the
/// endpoints), whatever family it came from.
#[test]
fn zero_intensity_attacks_are_byte_identical_across_families() {
    let q = test_quality();
    let s = windowed_scenario("udp", &q, SimDuration::from_millis(100), cc::LOSSY_BER);
    let victim = s.build().expect("valid scenario").receivers[0];
    let inert_configs = [
        Axis::NavInflation
            .receiver_config(0.0, &[])
            .expect("receiver axis"),
        GreedyConfig::nav_inflation(greedy80211::NavInflationConfig::cts_only(
            cc::NAV_INFLATE_US,
            0.0,
        )),
        Axis::AckSpoof
            .receiver_config(0.0, &[victim])
            .expect("receiver axis"),
        Axis::FakeAck
            .receiver_config(0.0, &[])
            .expect("receiver axis"),
    ];
    let mut baseline: Option<(Vec<_>, u64)> = None;
    for cfg in inert_configs {
        assert!(cfg.is_inert(), "config not inert at zero: {cfg:?}");
        let mut s = s.clone();
        s.greedy = vec![(1, cfg.clone())];
        let run = Run::plan(&s)
            .seeded(5)
            .audit_every(SimDuration::from_millis(300))
            .execute()
            .expect("valid scenario");
        let observed = (window_series(&run), run.audit.root_digest());
        match &baseline {
            None => baseline = Some(observed),
            Some(gold) => {
                assert_eq!(
                    gold.0, observed.0,
                    "inert config perturbed the guard evidence: {cfg:?}"
                );
                assert_eq!(
                    gold.1, observed.1,
                    "inert config perturbed the audit ladder: {cfg:?}"
                );
            }
        }
    }
}

/// Unit intensity must reproduce the historical full-strength cells
/// knob for knob: `measure_class(.., 1.0, true)` against an inline
/// reconstruction of the original attack configs (literal 10 ms NAV
/// inflation, literal `gp = 1.0` spoofing) under the same key. This is
/// the backward-compatibility pin for the pre-axis ROC campaign.
#[test]
fn unit_intensity_reproduces_the_historical_cells() {
    let q = test_quality();
    let window = SimDuration::from_millis(100);
    for (detector, guard, ber, cfg_of) in [
        (
            "nav",
            Guard::Nav,
            0.0,
            (|_victim| {
                GreedyConfig::nav_inflation(greedy80211::NavInflationConfig::cts_only(
                    cc::NAV_INFLATE_US,
                    1.0,
                ))
            }) as fn(mac::NodeId) -> GreedyConfig,
        ),
        ("spoof", Guard::Spoof, cc::LOSSY_BER, |victim| {
            GreedyConfig::ack_spoofing(vec![victim], 1.0)
        }),
    ] {
        let cell = CELLS
            .iter()
            .find(|c| c.detector == detector && c.mix == "udp")
            .expect("cell exists");
        let key = RunKey::new("intensity-pin", 0, 0);
        let via_axis = measure_class(cell, &q, window, key.clone(), 1.0, true);

        let mut s = windowed_scenario("udp", &q, window, ber);
        let victim = s.build().expect("valid scenario").receivers[0];
        s.greedy = vec![(1, cfg_of(victim))];
        let run = Run::plan(&s).keyed(key).execute().expect("valid scenario");
        let windows = guard_windows(&run, guard);
        assert!(!windows.is_empty(), "{detector}: no guard evidence");
        assert_eq!(
            via_axis.windows, windows,
            "{detector}: unit intensity diverged from the historical attack"
        );
        assert_eq!(
            via_axis.stats,
            windows.iter().map(|w| w.peak).collect::<Vec<_>>(),
            "{detector}: stats are not the window peaks"
        );
    }
}

/// The campaign's CSVs are byte-identical at any `--jobs` width, and
/// the knee each cell reports is consistent with its own frontier: the
/// detection criterion holds at the knee and every stronger grid point,
/// and fails at the grid point immediately below (the frontier is
/// "silent one step below the knee").
#[test]
fn artifacts_are_jobs_invariant_and_knees_bracket_the_frontier() {
    let quality = test_quality();
    let campaign = |jobs| {
        let mut c = IntensityCampaign::new(quality.clone(), jobs).with_points(3);
        c.window = SimDuration::from_millis(100);
        c
    };
    let dir1 = tmp("jobs1");
    let dir8 = tmp("jobs8");
    let report = campaign(1).run(&dir1).unwrap();
    campaign(8).run(&dir8).unwrap();
    let files1 = dir_files(&dir1);
    let files8 = dir_files(&dir8);
    assert!(
        files1.iter().any(|(p, _)| p.ends_with("knees.csv")),
        "campaign must write the knee summary"
    );
    assert_eq!(
        files1.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        files8.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "artifact sets must match"
    );
    for ((path, a), (_, b)) in files1.iter().zip(&files8) {
        assert_eq!(a, b, "{path} differs between --jobs 1 and --jobs 8");
    }

    let criterion = KneeCriterion::default();
    let as_point = |p: &gr_bench::intensity::FrontierPoint| IntensityPoint {
        intensity: p.intensity,
        tpr: p.op.tpr,
        fpr: p.op.fpr,
    };
    assert!(
        report.cells.iter().any(|cf| cf.knee.is_some()),
        "at least one cell must become reliably detectable"
    );
    for cf in &report.cells {
        let Some(knee) = cf.knee else { continue };
        let ki = cf
            .points
            .iter()
            .position(|p| p.intensity == knee)
            .expect("knee lies on the grid");
        for p in &cf.points[ki..] {
            assert!(
                criterion.holds(&as_point(p)),
                "{}/{}: criterion fails at intensity {} above the knee {knee}",
                cf.cell.detector,
                cf.cell.mix,
                p.intensity
            );
        }
        if ki > 0 {
            let below = &cf.points[ki - 1];
            assert!(
                !criterion.holds(&as_point(below)),
                "{}/{}: frontier already fires at {} one step below the knee {knee}",
                cf.cell.detector,
                cf.cell.mix,
                below.intensity
            );
        }
    }
    for d in [&dir1, &dir8] {
        let _ = fs::remove_dir_all(d);
    }
}

/// Checkpoint → resume round-trip at the campaign level: a recording
/// pass freezes every simulation mid-sweep, and a resuming pass —
/// restoring each run from its snapshot and simulating only the tail —
/// writes byte-identical frontier CSVs.
#[test]
fn campaign_resumes_mid_sweep_byte_identically() {
    let quality = Quality {
        seeds: vec![1],
        duration: SimDuration::from_millis(600),
        samples: 100,
    };
    let mut campaign = IntensityCampaign::new(quality.clone(), 2).with_points(2);
    campaign.window = SimDuration::from_millis(100);

    let gold_dir = tmp("resume-gold");
    let gold_ctx = RunCtx::with_jobs(quality.clone(), 2).with_checkpoints(CampaignSpec::record(
        &gold_dir,
        Some(SimDuration::from_millis(200)),
        None,
    ));
    let gold = campaign.run_with(&gold_ctx, &gold_dir).unwrap();
    let snaps = fs::read_dir(gold_dir.join("checkpoints"))
        .expect("checkpoints recorded")
        .count();
    assert!(snaps > 0, "recording pass left no checkpoint files");

    let resumed_dir = tmp("resume-replay");
    let resume_ctx = RunCtx::with_jobs(quality, 2)
        .with_checkpoints(CampaignSpec::resume_from(&gold_dir).expect("recorded campaign"));
    let resumed = campaign.run_with(&resume_ctx, &resumed_dir).unwrap();
    assert_eq!(gold.csvs.len(), resumed.csvs.len());
    for (a, b) in gold.csvs.iter().zip(&resumed.csvs) {
        assert_eq!(
            fs::read(a).unwrap(),
            fs::read(b).unwrap(),
            "{} differs after mid-sweep resume",
            a.file_name().unwrap().to_string_lossy()
        );
    }
    for d in [&gold_dir, &resumed_dir] {
        let _ = fs::remove_dir_all(d);
    }
}

/// A *mid*-intensity attacked run (NAV inflated by 2 ms, 20 % of full
/// strength) carries partial guard evidence; that evidence must survive
/// resume from every mid-run snapshot and digest deterministically into
/// the `detect` layer of the audit ladder.
#[test]
fn mid_intensity_guard_evidence_survives_checkpoint_and_audits() {
    let dir = tmp("mid-ckpt");
    let q = test_quality();
    let mut s = windowed_scenario("udp", &q, SimDuration::from_millis(100), 0.0);
    s.greedy = vec![(
        1,
        Axis::NavInflation
            .receiver_config(0.2, &[])
            .expect("receiver axis"),
    )];
    let gold = Run::plan(&s)
        .seeded(9)
        .checkpoint_every(SimDuration::from_millis(200))
        .audit_every(SimDuration::from_millis(200))
        .execute()
        .expect("valid scenario");
    let gold_series = window_series(&gold);
    assert!(
        gold_series
            .iter()
            .any(|(_, _, _, _, _, samples)| *samples > 0),
        "mid-intensity attack left no guard evidence"
    );
    let audit_text = gold.audit.to_text();
    assert!(
        audit_text.contains("detect"),
        "audit ladder must digest the detect layer:\n{audit_text}"
    );
    let again = Run::plan(&s)
        .seeded(9)
        .audit_every(SimDuration::from_millis(200))
        .execute()
        .expect("valid scenario");
    assert_eq!(
        gold.audit.root_digest(),
        again.audit.root_digest(),
        "audit root must be stable across identical runs"
    );
    assert!(gold.checkpoints.len() >= 2, "mid-run snapshots expected");
    for (at, bytes) in &gold.checkpoints {
        let path = dir.join(format!("{}ms.snap", at.as_nanos() / 1_000_000));
        Checkpoint::decode(bytes)
            .expect("checkpoint decodes")
            .write(&path)
            .expect("checkpoint writes");
        let resumed = Run::resume(&path).expect("checkpoint resumes");
        assert_eq!(
            window_series(&resumed),
            gold_series,
            "window stats diverged after resume at {at:?}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
