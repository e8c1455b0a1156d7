//! Declarative parameter sweeps over the campaign runner.
//!
//! Every simulation-backed campaign is the same shape: measure something
//! at each sweep point, once per replication seed. [`run_jobs`] is that
//! shape as a function. It expands `points × seeds` into independent
//! [`Job`]s, derives each job's RNG seed from its stable
//! `(label, point index, seed index)` [`RunKey`] — never from execution
//! order — hands each job the [`Instruments`] the [`RunCtx`] arms, and
//! shards the jobs across the context's worker pool. Results come back
//! regrouped per point in submission order, so anything reduced from
//! them is bit-identical at any `--jobs` width. [`sweep`] is that
//! primitive plus the component-wise median over seeds.
//!
//! Labels feed the seed derivation: an experiment running several sweeps
//! must give each a distinct label (e.g. `"abl1/cs"` and `"abl1/fair"`),
//! or the sweeps would replay identical RNG streams.

use greedy80211::{Instruments, Run, Scenario};
use sim::RunKey;

use crate::RunCtx;

/// One `(point, seed)` cell of a sweep, as its measure closure sees it.
#[derive(Debug)]
pub struct Job {
    /// The job's place in the campaign; names its artifact files.
    pub key: RunKey,
    /// The 64-bit stream seed derived from `key`; feed it to
    /// `Scenario::seed` / `NetworkBuilder::seed`.
    pub seed: u64,
    /// What the campaign observes this job's runs with.
    pub instruments: Instruments,
}

impl Job {
    /// Plans a run of `scenario` under this job's instruments (seeding
    /// stays the scenario's own).
    pub fn plan(&self, scenario: &Scenario) -> Run {
        Run::plan(scenario).instruments(&self.instruments)
    }
}

/// Runs `measure(point, job)` for every point × seed and returns every
/// raw per-seed result, grouped per point in point order.
///
/// Each job gets a fresh recorder when the context records (drained
/// into the campaign sink, keyed by the job, once `measure` returns), a
/// conformance job when it checks, and a checkpoint binding when it
/// checkpoints or resumes.
///
/// # Panics
///
/// Panics if the quality has no seeds.
pub fn run_jobs<P, T, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<Vec<T>>
where
    P: Sync,
    T: Send,
    F: Fn(&P, &Job) -> T + Sync,
{
    let n_seeds = ctx.quality.seeds.len();
    assert!(n_seeds > 0, "at least one seed");
    let measure = &measure;
    let jobs: Vec<_> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, point)| {
            (0..n_seeds).map(move |si| {
                let key = RunKey::new(label, pi as u64, si as u64);
                move || {
                    let job = Job {
                        seed: key.stream_seed(),
                        instruments: Instruments {
                            record: ctx.record.as_ref().map(|camp| camp.spec.recorder()),
                            conform: ctx.conform.as_ref().map(|camp| camp.job(key.clone())),
                            checkpoint: ctx.checkpoint.as_ref().map(|spec| spec.job(key.clone())),
                        },
                        key,
                    };
                    let out = measure(point, &job);
                    // The report's content depends only on the job's key,
                    // never on which worker ran it.
                    if let (Some(camp), Some(rec)) = (&ctx.record, &job.instruments.record) {
                        let report = rec.borrow_mut().drain_report();
                        if !(report.events.is_empty()
                            && report.hists.is_empty()
                            && report.series.is_empty())
                        {
                            camp.deposit(job.key, report);
                        }
                    }
                    out
                }
            })
        })
        .collect();
    let mut flat = ctx.runner.execute_all(jobs).into_iter();
    points
        .iter()
        .map(|_| flat.by_ref().take(n_seeds).collect())
        .collect()
}

/// Runs `measure(point, job)` for every point × seed and returns
/// per-point component-wise medians over seeds, in point order.
///
/// # Panics
///
/// Panics if the quality has no seeds or `measure` returns inconsistent
/// vector lengths across seeds of one point.
pub fn sweep<P, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<Vec<f64>>
where
    P: Sync,
    F: Fn(&P, &Job) -> Vec<f64> + Sync,
{
    run_jobs(ctx, label, points, measure)
        .into_iter()
        .map(|per_seed| {
            let arity = per_seed[0].len();
            (0..arity)
                .map(|i| {
                    let column: Vec<f64> = per_seed
                        .iter()
                        .map(|v| {
                            assert_eq!(v.len(), arity, "inconsistent measurement arity");
                            v[i]
                        })
                        .collect();
                    sim::stats::median(&column).expect("at least one seed")
                })
                .collect()
        })
        .collect()
}

/// Scalar-valued convenience over [`sweep`]: one median per point.
pub fn sweep_scalar<P, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<f64>
where
    P: Sync,
    F: Fn(&P, &Job) -> f64 + Sync,
{
    sweep(ctx, label, points, |p, job| vec![measure(p, job)])
        .into_iter()
        .map(|v| v[0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quality;
    use runner::Runner;

    fn ctx(jobs: usize) -> RunCtx {
        RunCtx {
            quality: Quality {
                seeds: vec![1, 2, 3],
                ..Quality::quick()
            },
            runner: Runner::new(jobs),
            record: None,
            checkpoint: None,
            conform: None,
        }
    }

    #[test]
    fn medians_in_point_order() {
        let points = [10.0f64, 20.0, 30.0];
        let rows = sweep(&ctx(1), "t", &points, |p, job| {
            vec![*p, (job.seed % 7) as f64]
        });
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], points[i]);
        }
    }

    #[test]
    fn identical_at_any_job_count() {
        let points: Vec<u64> = (0..5).collect();
        let gold = sweep(&ctx(1), "t", &points, |p, job| {
            vec![(*p as f64) + (job.seed % 100) as f64]
        });
        for jobs in [2, 4, 8] {
            let out = sweep(&ctx(jobs), "t", &points, |p, job| {
                vec![(*p as f64) + (job.seed % 100) as f64]
            });
            assert_eq!(out, gold, "jobs={jobs}");
        }
    }

    #[test]
    fn labels_separate_streams() {
        let seeds_a = std::sync::Mutex::new(Vec::new());
        let seeds_b = std::sync::Mutex::new(Vec::new());
        sweep(&ctx(1), "a", &[0], |_, job| {
            seeds_a.lock().unwrap().push(job.seed);
            vec![0.0]
        });
        sweep(&ctx(1), "b", &[0], |_, job| {
            seeds_b.lock().unwrap().push(job.seed);
            vec![0.0]
        });
        assert_ne!(*seeds_a.lock().unwrap(), *seeds_b.lock().unwrap());
    }

    #[test]
    fn scalar_wrapper_matches_vector_form() {
        let points = [1u32, 2, 3];
        let a = sweep_scalar(&ctx(2), "t", &points, |p, _| *p as f64);
        assert_eq!(a, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn raw_results_group_per_point_with_keyed_jobs() {
        let raw = run_jobs(&ctx(3), "t", &[7u64, 8], |p, job| {
            (
                *p,
                job.key.point,
                job.key.seed,
                job.seed == job.key.stream_seed(),
            )
        });
        assert_eq!(
            raw,
            vec![
                vec![(7, 0, 0, true), (7, 0, 1, true), (7, 0, 2, true)],
                vec![(8, 1, 0, true), (8, 1, 1, true), (8, 1, 2, true)],
            ]
        );
    }
}
