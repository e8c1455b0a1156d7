//! Campaign runs as pure, portable jobs.
//!
//! A [`RunPlan`] pairs a declarative [`Scenario`] with the [`RunKey`] that
//! names its place in a campaign (experiment label, sweep point,
//! replication seed). Executing one —
//! `Run::plan(&scenario).keyed(key).execute()` (see [`crate::run::Run`])
//! — is a pure function: it reads no hidden state, seeds the scenario
//! from the key alone, and returns a plain-data [`RunOutcome`] that is
//! `Send`. Because of that, a sweep of plans can be executed in any
//! order, on any thread, and aggregate to bit-identical results.
//!
//! Live detector handles never cross the thread boundary: the outcome
//! carries detached [`GrcSnapshot`] copies taken after the run finishes.

use mac::NodeId;
use net::RunMetrics;
use sim::{RunKey, SimDuration, SimTime};
use transport::FlowId;

use crate::detect::GrcSnapshot;
use crate::scenario::Scenario;

/// One simulation run, fully described and ready to execute anywhere.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Position of this run within its campaign; the sole seed source.
    pub key: RunKey,
    /// The topology and traffic to simulate. Its `seed` field is
    /// overwritten from `key` at execution time.
    pub scenario: Scenario,
}

impl RunPlan {
    /// Plans `scenario` as the run identified by `key`.
    pub fn new(key: RunKey, scenario: Scenario) -> Self {
        RunPlan { key, scenario }
    }
}

/// Plain-data result of one run — everything
/// [`ScenarioOutcome`](crate::ScenarioOutcome) exposes, minus live
/// handles, so it can move freely between threads.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The key the run was planned under.
    pub key: RunKey,
    /// Metrics of the run.
    pub metrics: RunMetrics,
    /// Data-flow ids, index-aligned with receivers.
    pub flows: Vec<FlowId>,
    /// Probe-flow ids (empty unless the scenario probes).
    pub probe_flows: Vec<FlowId>,
    /// Sender node ids.
    pub senders: Vec<NodeId>,
    /// Receiver node ids, index-aligned with flows.
    pub receivers: Vec<NodeId>,
    /// Detached GRC report copies per observed node (empty unless GRC).
    pub grc: Vec<(NodeId, GrcSnapshot)>,
    /// State-hash audit ladder (empty unless the run armed audit
    /// barriers; see [`Run::audit_every`](crate::Run::audit_every)).
    pub audit: snap::audit::Ladder,
    /// Encoded [`Checkpoint`](crate::checkpoint::Checkpoint) containers
    /// captured at each checkpoint barrier, in virtual-time order
    /// (empty unless armed).
    pub checkpoints: Vec<(SimTime, Vec<u8>)>,
    /// Run length (for goodput conversions).
    pub duration: SimDuration,
}

// Outcomes travel from worker threads back to the aggregator.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RunOutcome>();
    assert_send::<RunPlan>();
};

impl RunOutcome {
    /// Goodput of receiver `i`'s flow in Mb/s.
    pub fn goodput_mbps(&self, i: usize) -> f64 {
        self.metrics.goodput_mbps(self.flows[i])
    }

    /// Total NAV-inflation detections across all GRC nodes.
    pub fn nav_detections(&self) -> u64 {
        self.grc.iter().map(|(_, s)| s.nav.total_detections()).sum()
    }

    /// Total spoofed-ACK flags across all GRC nodes.
    pub fn spoof_flags(&self) -> u64 {
        self.grc.iter().map(|(_, s)| s.spoof.flagged).sum()
    }
}
