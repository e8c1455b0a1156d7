//! The one documented way to execute a scenario.
//!
//! [`Run`] is the single facade over building and simulating a
//! [`Scenario`]; the older entry points (`Scenario::run`,
//! `runplan::execute`) have been removed. It also fronts the checkpoint
//! & audit subsystem: [`Run::checkpoint_every`] /[`Run::audit_every`]
//! arm virtual-time barriers, [`Run::resume`] continues a run from a
//! checkpoint file, and campaign sweeps hand each run its
//! [`Instruments`] — recorder, conformance job, checkpoint binding —
//! with one [`Run::instruments`] call.
//!
//! ```
//! use greedy80211::{GreedyConfig, NavInflationConfig, Run, Scenario};
//!
//! let s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
//!     NavInflationConfig::cts_only(10_000, 1.0),
//! ));
//! let out = Run::plan(&s).seeded(7).execute()?;
//! assert!(out.goodput_mbps(1) > out.goodput_mbps(0));
//! # Ok::<(), sim::SimError>(())
//! ```
//!
//! `execute` always returns a plain-data [`RunOutcome`] — detector
//! reports arrive as detached snapshots, never as live `Rc` handles, so
//! results can cross threads no matter how the run was seeded.
//!
//! Seeding comes in two flavours:
//!
//! * [`Run::seeded`] — feed a raw 64-bit seed straight to the simulator
//!   RNG (what experiments do with the stream seed [`sweep`] hands their
//!   measure closure);
//! * [`Run::keyed`] — name the run's place in a campaign with a
//!   [`RunKey`]; the seed is derived from the key alone, so the run is a
//!   pure function of `(label, point, seed index)`.
//!
//! [`sweep`]: ../../gr_bench/fn.sweep.html

use std::path::Path;

use net::{Network, RunHooks};
use sim::{RunKey, SimDuration, SimError, SimTime};
use snap::SnapValue as _;

use crate::checkpoint::{self, Checkpoint, JobSpec};
use crate::runplan::RunOutcome;
use crate::scenario::{Scenario, ScenarioOutcome};

/// Everything that observes a run without changing it: a flight
/// recorder, a conformance job and a campaign checkpoint binding. The
/// default observes nothing.
///
/// One value serves every run of a campaign job: the runs share the
/// recorder (the campaign drains it once the job returns), each deposits
/// its own conformance report, and the checkpoint binding numbers them.
/// Builder-direct networks take the same value through
/// [`Instruments::attach`].
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Flight recorder every run records into.
    pub record: Option<::obs::RecorderHandle>,
    /// Conformance job each run is checked under.
    pub conform: Option<::conform::ConformJob>,
    /// Campaign checkpoint/audit binding (record or resume).
    pub checkpoint: Option<JobSpec>,
}

impl Instruments {
    /// Wires the recorder, then the conformance checker, into a freshly
    /// built network. Neither touches the scheduler or any RNG stream,
    /// so the run's outcome is identical with or without them.
    pub fn attach(&self, net: &mut Network) {
        if let Some(rec) = &self.record {
            net.set_recorder(rec.clone());
        }
        if let Some(job) = &self.conform {
            net.arm_conform(job.clone());
        }
    }
}

/// A planned simulation run: scenario plus seeding policy, plus any
/// checkpoint/audit barriers and instruments to arm.
///
/// Build one with [`Run::plan`], pick a seed with [`Run::seeded`] or
/// [`Run::keyed`] (the last call wins), optionally arm hooks, then
/// [`Run::execute`].
#[derive(Debug, Clone)]
pub struct Run {
    scenario: Scenario,
    key: Option<RunKey>,
    hooks: RunHooks,
    instruments: Instruments,
}

impl Run {
    /// Plans a run of `scenario` as it stands (its own `seed` field).
    pub fn plan(scenario: &Scenario) -> Self {
        Run {
            scenario: scenario.clone(),
            key: None,
            hooks: RunHooks::default(),
            instruments: Instruments::default(),
        }
    }

    /// Seeds the run with a raw 64-bit RNG seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self.key = None;
        self
    }

    /// Seeds the run from a campaign [`RunKey`]: the RNG stream is
    /// derived from the key alone and the outcome carries the key.
    pub fn keyed(mut self, key: RunKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Captures a resumable [`Checkpoint`] of the whole network at every
    /// multiple of `interval` (virtual time). The containers land in
    /// [`RunOutcome::checkpoints`].
    pub fn checkpoint_every(mut self, interval: SimDuration) -> Self {
        self.hooks.checkpoint_every = Some(interval);
        self
    }

    /// Records the state-hash audit ladder (one digest per layer) at
    /// every multiple of `interval`. The ladder lands in
    /// [`RunOutcome::audit`].
    pub fn audit_every(mut self, interval: SimDuration) -> Self {
        self.hooks.audit_every = Some(interval);
        self
    }

    /// Injects one extra RNG draw just before the first event at or
    /// after `at` dispatches — a controlled divergence for exercising
    /// the audit ladder and [`crate::audit::pinpoint`].
    pub fn perturb_rng_at(mut self, at: SimTime) -> Self {
        self.hooks.perturb_rng_at = Some(at);
        self
    }

    /// Observes the run with `instruments`: record into their recorder,
    /// check under their conformance job, and checkpoint (or resume)
    /// under their campaign binding.
    pub fn instruments(mut self, instruments: &Instruments) -> Self {
        self.instruments = instruments.clone();
        self
    }

    /// Builds the network, simulates to completion, and snapshots the
    /// result into a plain-data [`RunOutcome`].
    ///
    /// Under a campaign checkpoint binding the run claims the job's next
    /// run number and records its checkpoint and audit files under the
    /// campaign's artifact root — or, in resume mode, restores its own
    /// checkpoint and simulates only the tail. A missing checkpoint file
    /// reruns from the start (the campaign counts it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scenario is malformed
    /// (zero pairs, out-of-range indices, invalid error rates), if the
    /// run has both explicit hook intervals and a campaign checkpoint
    /// binding, if a checkpoint or audit file cannot be written, or if
    /// a resumed checkpoint is unreadable or was frozen under a
    /// different scenario.
    pub fn execute(self) -> Result<RunOutcome, SimError> {
        let Run {
            mut scenario,
            key,
            hooks,
            instruments,
        } = self;
        let key = match key {
            Some(k) => {
                scenario.seed = k.stream_seed();
                k
            }
            // Ad-hoc (non-campaign) runs still get a key in the outcome;
            // the label marks them as outside any sweep.
            None => RunKey::new("adhoc", 0, scenario.seed),
        };
        let job = instruments.checkpoint.as_ref().map(|j| (j, j.next_run()));
        if job.is_some() && hooks != RunHooks::default() {
            return Err(SimError::invalid_config(
                "a run cannot take both explicit hooks and a campaign checkpoint spec",
            ));
        }

        if let Some((job, run_no)) = job.filter(|(j, _)| j.spec.resume) {
            let path = job.spec.checkpoint_path(&job.key, run_no);
            let resumed = path.exists();
            job.spec.count_resume(resumed);
            if resumed {
                let ckpt = Checkpoint::read(&path)?;
                let mut planned = snap::Enc::new();
                scenario.save(&mut planned);
                let mut frozen = snap::Enc::new();
                ckpt.scenario.save(&mut frozen);
                if planned.bytes() != frozen.bytes() {
                    return Err(SimError::invalid_config(format!(
                        "checkpoint {} was frozen under a different scenario",
                        path.display()
                    )));
                }
                let (outcome, _) = ckpt.resume(RunHooks::default(), &instruments)?;
                return Ok(package(key, outcome, Vec::new()));
            }
        }

        let hooks = match job.filter(|(j, _)| !j.spec.resume) {
            Some((job, _)) => RunHooks {
                checkpoint_every: job.spec.every,
                audit_every: job.spec.audit_every,
                perturb_rng_at: None,
            },
            None => hooks,
        };
        let mut built = scenario.build()?;
        instruments.attach(&mut built.net);
        if hooks == RunHooks::default() {
            return Ok(package(key, built.run(), Vec::new()));
        }

        let (outcome, artifacts) = built.run_hooked(hooks);
        let ladder = checkpoint::ladder_from_artifacts(&artifacts);
        let file_key = job.map_or(&key, |(j, _)| &j.key);
        let checkpoints: Vec<(SimTime, Vec<u8>)> = artifacts
            .checkpoints
            .into_iter()
            .map(|(at, net_state)| {
                let container = Checkpoint {
                    key: file_key.clone(),
                    at,
                    scenario: scenario.clone(),
                    net_state,
                };
                (at, container.encode())
            })
            .collect();
        if let Some((job, run_no)) = job {
            // Newest checkpoint wins: resuming it leaves the least tail
            // to resimulate.
            if let Some((_, bytes)) = checkpoints.last() {
                write_artifact(&job.spec.checkpoint_path(&job.key, run_no), bytes)?;
            }
            if !ladder.entries.is_empty() {
                write_artifact(
                    &job.spec.audit_path(&job.key, run_no),
                    ladder.to_text().as_bytes(),
                )?;
            }
        }
        let mut out = package(key, outcome, checkpoints);
        out.audit = ladder;
        Ok(out)
    }

    /// Resumes a checkpoint file previously written by a hooked or
    /// campaign run: rebuilds the embedded scenario, restores the frozen
    /// network state, and simulates the remaining virtual time. The
    /// outcome is identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the file is unreadable, corrupt,
    /// or its state does not match the embedded scenario.
    pub fn resume(path: impl AsRef<Path>) -> Result<RunOutcome, SimError> {
        Run::resume_with(path, &Instruments::default())
    }

    /// [`Run::resume`] observed by `instruments` (e.g. a conformance job
    /// replaying a fuzz artifact's tail).
    ///
    /// # Errors
    ///
    /// As [`Run::resume`].
    pub fn resume_with(
        path: impl AsRef<Path>,
        instruments: &Instruments,
    ) -> Result<RunOutcome, SimError> {
        let ckpt = Checkpoint::read(path.as_ref())?;
        let (outcome, _) = ckpt.resume(RunHooks::default(), instruments)?;
        Ok(package(ckpt.key, outcome, Vec::new()))
    }
}

/// Writes one campaign artifact file, creating its directory.
fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    std::fs::create_dir_all(path.parent().expect("artifact path has a parent"))
        .and_then(|()| std::fs::write(path, bytes))
        .map_err(|e| SimError::invalid_config(format!("cannot write {}: {e}", path.display())))
}

fn package(
    key: RunKey,
    outcome: ScenarioOutcome,
    checkpoints: Vec<(SimTime, Vec<u8>)>,
) -> RunOutcome {
    let grc = outcome
        .grc_reports
        .iter()
        .map(|(node, handles)| (*node, handles.snapshot()))
        .collect();
    RunOutcome {
        key,
        metrics: outcome.metrics,
        flows: outcome.flows,
        probe_flows: outcome.probe_flows,
        senders: outcome.senders,
        receivers: outcome.receivers,
        grc,
        audit: snap::audit::Ladder::new(),
        checkpoints,
        duration: outcome.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};
    use sim::SimDuration;

    fn scenario() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 1.0),
        ));
        s.duration = SimDuration::from_millis(500);
        s.grc = Some(false);
        s
    }

    #[test]
    fn keyed_execution_is_a_pure_function_of_the_key() {
        let a = Run::plan(&scenario())
            .keyed(RunKey::new("t", 0, 3))
            .execute()
            .unwrap();
        let b = Run::plan(&scenario())
            .keyed(RunKey::new("t", 0, 3))
            .execute()
            .unwrap();
        assert_eq!(a.goodput_mbps(0), b.goodput_mbps(0));
        assert_eq!(a.goodput_mbps(1), b.goodput_mbps(1));
        assert_eq!(a.nav_detections(), b.nav_detections());
    }

    #[test]
    fn key_overrides_scenario_and_raw_seeds() {
        let a = Run::plan(&scenario())
            .seeded(999) // overridden: the key is the seed source
            .keyed(RunKey::new("t", 1, 2))
            .execute()
            .unwrap();
        let b = Run::plan(&scenario())
            .keyed(RunKey::new("t", 1, 2))
            .execute()
            .unwrap();
        assert_eq!(a.metrics.events_processed, b.metrics.events_processed);
        assert_eq!(a.key, RunKey::new("t", 1, 2));
    }

    #[test]
    fn seeded_matches_scenario_seed_field() {
        // `.seeded(n)` must replay exactly the run `scenario.seed = n`
        // produces — experiments rely on this for byte-stable CSVs.
        let mut s = scenario();
        s.seed = 41;
        let via_field = Run::plan(&s).execute().unwrap();
        let via_builder = Run::plan(&scenario()).seeded(41).execute().unwrap();
        assert_eq!(
            via_field.metrics.events_processed,
            via_builder.metrics.events_processed
        );
        assert_eq!(via_field.goodput_mbps(0), via_builder.goodput_mbps(0));
    }

    #[test]
    fn distinct_seeds_give_distinct_runs() {
        let a = Run::plan(&scenario()).seeded(0).execute().unwrap();
        let b = Run::plan(&scenario()).seeded(1).execute().unwrap();
        // Same topology, different replication: event counts virtually
        // never tie.
        assert_ne!(a.metrics.events_processed, b.metrics.events_processed);
    }

    #[test]
    fn outcome_carries_detached_grc_snapshots() {
        let out = Run::plan(&scenario()).seeded(0).execute().unwrap();
        // 2 senders + 1 honest receiver observed.
        assert_eq!(out.grc.len(), 3);
        assert!(out.nav_detections() > 0, "inflated CTS must be noticed");
    }
}
