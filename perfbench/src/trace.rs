//! In-memory spans around the benchmark's calls into the simulator.
//!
//! A span has a name, a start, an end, the span that encloses it and the
//! id of the run it belongs to. Spans are kept in memory and written out
//! once, when the benchmark ends. A span's self time is its duration
//! minus the durations of its children (children never overlap: every
//! span is opened and closed on the calling thread).
//!
//! A disabled tracer records nothing and calls straight through, so the
//! untraced runs that give the end-to-end numbers share the traced
//! runs' code path without paying for it.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `net/step` or `bench/pass`.
    pub name: String,
    /// Run the span belongs to (one run = one simulation or one artifact).
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and otherwise only calls
    /// through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("benchmark runs < 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every closed span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.ns() as f64).sum::<f64>() / 1e9
    }

    /// Summed self time (duration minus children) of every span whose
    /// name starts with `prefix`, in seconds.
    pub fn self_s(&self, prefix: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(s, c)| s.ns().saturating_sub(*c) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("bench/outer", |t| {
            t.span("sim/inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = t.total_s("bench/outer");
        let inner = t.total_s("sim/inner");
        assert!(inner >= 0.02);
        let own = t.self_s("bench/");
        assert!((own - (outer - inner)).abs() < 1e-9);
        assert_eq!(t.named("sim/inner").next().unwrap().parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.total_s("x"), 0.0);
    }
}
