//! Versioned run checkpoints and the per-campaign checkpoint spec.
//!
//! A [`Checkpoint`] is a self-contained, resumable description of one
//! run frozen at a virtual-time barrier: the campaign [`RunKey`], the
//! full [`Scenario`] (so a resuming process can rebuild an identically
//! configured network — see the rebuild-then-restore contract on
//! [`snap::SnapState`]), the barrier time, and the network-state blob.
//! Containers carry the `gr-snap` header, so version drift is caught at
//! decode time rather than as silent corruption.
//!
//! Campaigns checkpoint through the same explicit value that carries
//! recording and conformance: [`sweep`] binds the campaign's
//! [`CampaignSpec`] to each job's [`RunKey`] as a [`JobSpec`] in the
//! job's [`Instruments`], and [`Run::execute`] uses it. A job numbers
//! the runs it executes; run `n` of the job keyed `key` owns the files
//! named by [`run_file_stem`]`(key, n)`. In record mode each run writes
//! its newest checkpoint to `<dir>/checkpoints/<run>.snap` and its
//! audit ladder to `<dir>/audit/<run>.audit`; in resume mode a run whose
//! checkpoint file exists restores it and simulates only the tail —
//! producing bit-identical metrics, and therefore byte-identical CSV
//! output, at any `--jobs` width. A missing file reruns from the start
//! and is counted ([`CampaignSpec::resume_tally`]); a file frozen under
//! a different scenario is an error.
//!
//! [`sweep`]: ../../gr_bench/fn.sweep.html
//! [`Run::execute`]: crate::Run::execute
//! [`Instruments`]: crate::Instruments

use std::cell::Cell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use net::{RunArtifacts, RunHooks};
use sim::{RunKey, SimDuration, SimError, SimTime};
use snap::SnapValue as _;

use crate::run::Instruments;
use crate::scenario::{Scenario, ScenarioOutcome};

/// One run frozen at a virtual-time barrier, ready to write to disk and
/// resume in another process.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign key the run executes under.
    pub key: RunKey,
    /// Virtual time of the barrier the state was captured at.
    pub at: SimTime,
    /// The scenario, seed already stamped, that built the network.
    pub scenario: Scenario,
    /// The network's canonical state encoding at `at`.
    pub net_state: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the container, including the versioned `gr-snap`
    /// header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = snap::Enc::with_header();
        self.key.save(&mut w);
        self.at.save(&mut w);
        self.scenario.save(&mut w);
        w.bytes_slice(&self.net_state);
        w.into_bytes()
    }

    /// Parses a container produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`snap::SnapError`] on a missing/incompatible header or corrupt
    /// body.
    pub fn decode(buf: &[u8]) -> Result<Self, snap::SnapError> {
        let mut r = snap::Dec::with_header(buf)?;
        Ok(Checkpoint {
            key: RunKey::load(&mut r)?,
            at: SimTime::load(&mut r)?,
            scenario: Scenario::load(&mut r)?,
            net_state: r.bytes_slice()?.to_vec(),
        })
    }

    /// Writes the encoded container to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.encode())
    }

    /// Reads and decodes a container from `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] describing the filesystem or decode
    /// failure.
    pub fn read(path: &Path) -> Result<Self, SimError> {
        let bytes = fs::read(path).map_err(|e| {
            SimError::invalid_config(format!("cannot read checkpoint {}: {e}", path.display()))
        })?;
        Checkpoint::decode(&bytes).map_err(|e| {
            SimError::invalid_config(format!("corrupt checkpoint {}: {e}", path.display()))
        })
    }

    /// Rebuilds the scenario's network, wires `instruments` into it,
    /// restores the frozen state and simulates the remaining virtual
    /// time under `hooks`. A conformance checker armed this way sees a
    /// mid-run stream: whole-run rules are disarmed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the embedded scenario is
    /// malformed or the state blob does not match its topology.
    pub fn resume(
        &self,
        hooks: RunHooks,
        instruments: &Instruments,
    ) -> Result<(ScenarioOutcome, RunArtifacts), SimError> {
        let mut built = self.scenario.build()?;
        instruments.attach(&mut built.net);
        built
            .resume_hooked(&self.net_state, self.at, hooks)
            .map_err(|e| SimError::invalid_config(format!("checkpoint state rejected: {e}")))
    }
}

/// Filesystem-safe stem naming run `run` of the job keyed `key`, e.g.
/// `fig6-p0003-s0001` (sweep labels may contain `/`). A job's first run
/// owns the bare job stem; later runs append `-r<n>`.
pub fn run_file_stem(key: &RunKey, run: u32) -> String {
    let label: String = key
        .experiment
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let stem = format!("{label}-p{:04}-s{:04}", key.point, key.seed);
    match run {
        0 => stem,
        n => format!("{stem}-r{n}"),
    }
}

/// Campaign-wide checkpoint/audit configuration, shared by every job of
/// a sweep.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Checkpoint barrier interval; `None` records no checkpoints.
    pub every: Option<SimDuration>,
    /// Audit-ladder barrier interval; `None` records no ladder.
    pub audit_every: Option<SimDuration>,
    /// Artifact root: checkpoints land in `<dir>/checkpoints/`, audit
    /// ladders in `<dir>/audit/`.
    pub dir: PathBuf,
    /// Resume mode: instead of recording, each run looks for its own
    /// checkpoint file and, when present, restores it and simulates only
    /// the tail.
    pub resume: bool,
    /// Resume-mode counts across every worker: `[runs, resumed]`.
    tally: Arc<[AtomicUsize; 2]>,
}

impl CampaignSpec {
    /// A recording spec: checkpoint every `every`, audit every
    /// `audit_every`, under `dir`.
    pub fn record(
        dir: impl Into<PathBuf>,
        every: Option<SimDuration>,
        audit_every: Option<SimDuration>,
    ) -> Self {
        CampaignSpec {
            every,
            audit_every,
            dir: dir.into(),
            resume: false,
            tally: Arc::default(),
        }
    }

    /// A resume spec reading checkpoints previously recorded under
    /// `dir`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming `dir` when it does not exist
    /// or holds no `checkpoints/` directory — a resume that could only
    /// rerun everything from scratch is refused rather than run.
    pub fn resume_from(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(SimError::invalid_config(format!(
                "resume directory {} does not exist",
                dir.display()
            )));
        }
        if !dir.join("checkpoints").is_dir() {
            return Err(SimError::invalid_config(format!(
                "resume directory {} holds no checkpoints/ directory",
                dir.display()
            )));
        }
        Ok(CampaignSpec {
            every: None,
            audit_every: None,
            dir,
            resume: true,
            tally: Arc::default(),
        })
    }

    /// The checkpoint file of run `run` of the job keyed `key`.
    pub fn checkpoint_path(&self, key: &RunKey, run: u32) -> PathBuf {
        self.dir
            .join("checkpoints")
            .join(format!("{}.snap", run_file_stem(key, run)))
    }

    /// The audit-ladder file of run `run` of the job keyed `key`.
    pub fn audit_path(&self, key: &RunKey, run: u32) -> PathBuf {
        self.dir
            .join("audit")
            .join(format!("{}.audit", run_file_stem(key, run)))
    }

    /// Binds this campaign spec to one job's [`RunKey`], ready to ride
    /// the job's [`Instruments`].
    pub fn job(&self, key: RunKey) -> JobSpec {
        JobSpec {
            key,
            spec: self.clone(),
            runs: Rc::default(),
        }
    }

    /// In resume mode, `(resumed, runs)`: how many runs restored their
    /// own checkpoint, out of how many executed under this spec so far.
    pub fn resume_tally(&self) -> (usize, usize) {
        let [runs, resumed] = &*self.tally;
        (
            resumed.load(Ordering::Relaxed),
            runs.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn count_resume(&self, resumed: bool) {
        let [runs, hits] = &*self.tally;
        runs.fetch_add(1, Ordering::Relaxed);
        if resumed {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One job's checkpoint binding: the campaign spec plus the job's key
/// (which names the artifact files), numbering the runs the job
/// executes in program order.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The key of the job.
    pub key: RunKey,
    /// The campaign-wide configuration.
    pub spec: CampaignSpec,
    runs: Rc<Cell<u32>>,
}

impl JobSpec {
    /// Claims the next run number of this job (0 for its first run).
    pub fn next_run(&self) -> u32 {
        let n = self.runs.get();
        self.runs.set(n + 1);
        n
    }
}

/// Converts raw run artifacts into an audit [`Ladder`](snap::audit::Ladder).
pub fn ladder_from_artifacts(artifacts: &RunArtifacts) -> snap::audit::Ladder {
    let mut ladder = snap::audit::Ladder::new();
    for &(vt_ns, layer, digest) in &artifacts.audit {
        ladder.push(vt_ns, layer, digest);
    }
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};

    fn scenario() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 0.8),
        ));
        s.duration = SimDuration::from_millis(400);
        s.grc = Some(true);
        s.probes = true;
        s.flow_error_overrides = vec![(0, 2e-4)];
        s
    }

    #[test]
    fn scenario_encoding_round_trips() {
        let s = scenario();
        let mut w = snap::Enc::new();
        s.save(&mut w);
        let mut r = snap::Dec::new(w.bytes());
        let back = Scenario::load(&mut r).unwrap();
        assert!(r.is_done(), "trailing bytes after scenario");
        let mut w2 = snap::Enc::new();
        back.save(&mut w2);
        assert_eq!(w.bytes(), w2.bytes(), "re-encoding must be stable");
    }

    #[test]
    fn container_round_trips_with_header() {
        let ckpt = Checkpoint {
            key: RunKey::new("fig6/tcp", 3, 1),
            at: SimTime::from_millis(200),
            scenario: scenario(),
            net_state: vec![1, 2, 3, 4, 5],
        };
        let bytes = ckpt.encode();
        assert_eq!(&bytes[..6], snap::MAGIC);
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.key, ckpt.key);
        assert_eq!(back.at, ckpt.at);
        assert_eq!(back.net_state, ckpt.net_state);
    }

    #[test]
    fn truncated_container_is_rejected() {
        let ckpt = Checkpoint {
            key: RunKey::new("t", 0, 0),
            at: SimTime::ZERO,
            scenario: scenario(),
            net_state: vec![0; 16],
        };
        let bytes = ckpt.encode();
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 4]).is_err());
        assert!(Checkpoint::decode(&bytes[2..]).is_err(), "header required");
    }

    #[test]
    fn file_stems_are_filesystem_safe_and_distinct() {
        let a = run_file_stem(&RunKey::new("abl1/cs", 2, 7), 0);
        assert_eq!(a, "abl1_cs-p0002-s0007");
        let b = run_file_stem(&RunKey::new("abl1_cs", 2, 7), 0);
        assert_eq!(a, b, "sanitization maps / to _");
        assert_ne!(a, run_file_stem(&RunKey::new("abl1/cs", 2, 8), 0));
        assert_eq!(
            run_file_stem(&RunKey::new("abl1/cs", 2, 7), 1),
            "abl1_cs-p0002-s0007-r1"
        );
    }

    #[test]
    fn jobs_number_their_runs() {
        let spec = CampaignSpec::record("results", Some(SimDuration::from_millis(50)), None);
        let job = spec.job(RunKey::new("t", 0, 0));
        let shared = job.clone();
        assert_eq!(job.next_run(), 0);
        assert_eq!(shared.next_run(), 1, "clones count the same job");
        assert_eq!(spec.job(RunKey::new("t", 0, 0)).next_run(), 0);
    }

    #[test]
    fn resume_from_refuses_a_missing_directory() {
        let err = CampaignSpec::resume_from("/nonexistent/campaign").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/campaign"), "{err}");
    }
}
