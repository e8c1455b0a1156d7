//! Conformance jobs: a request to check one run, and where its verdict
//! goes.
//!
//! A campaign (or the CLI) hands a [`ConformJob`] to the run explicitly
//! — through `greedy80211::Instruments` or `Network::arm_conform`. The
//! network attaches a [`crate::CheckerTap`] to its recorder and deposits
//! the finished [`crate::ConformReport`] into the job's shared sink when
//! the run completes.

use std::sync::{Arc, Mutex};

use sim::RunKey;

use crate::rules::ConformReport;

/// Where finished reports accumulate, shared across worker threads.
pub type ConformSink = Arc<Mutex<Vec<(Option<RunKey>, ConformReport)>>>;

/// A request to conformance-check a run.
#[derive(Debug, Clone)]
pub struct ConformJob {
    /// Campaign key of the run, if part of a sweep.
    pub key: Option<RunKey>,
    /// Destination for the finished report.
    pub sink: ConformSink,
    /// Whether declared quirks exempt their rules (the normal mode).
    /// `false` re-arms every rule, for whitelist-removal tests.
    pub honor_whitelist: bool,
}

impl ConformJob {
    /// A job with a fresh sink, keyed if `key` is given.
    pub fn new(key: Option<RunKey>) -> Self {
        ConformJob {
            key,
            sink: Arc::new(Mutex::new(Vec::new())),
            honor_whitelist: true,
        }
    }

    /// Same job with the quirk whitelist disabled.
    pub fn without_whitelist(mut self) -> Self {
        self.honor_whitelist = false;
        self
    }

    /// Deposits a finished report into the sink.
    pub fn deposit(&self, report: ConformReport) {
        self.sink
            .lock()
            .expect("conform sink poisoned")
            .push((self.key.clone(), report));
    }

    /// Drains all reports deposited so far from the sink.
    pub fn drain(&self) -> Vec<(Option<RunKey>, ConformReport)> {
        std::mem::take(&mut *self.sink.lock().expect("conform sink poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_and_drain_round_trip() {
        let job = ConformJob::new(Some(RunKey::new("exp", 3, 7)));
        job.deposit(ConformReport::default());
        let drained = job.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0.as_ref().unwrap().point, 3);
        assert!(job.drain().is_empty());
    }
}
