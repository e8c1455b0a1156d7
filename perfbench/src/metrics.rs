//! The benchmark's metric catalogue, its result line, and the order
//! statistics every timing is reduced with.
//!
//! The two tables below are the single source of the metric names and
//! units the benchmark prints; a test checks them against
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A printed metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s"),
    m("sim_s_per_wall_s", "sim-s/s"),
    m("cpu_s", "s"),
    m("setup_s", "s"),
    m("peak_heap_mib", "MiB"),
    m("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by traced runs. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.events", "count"),
    m("sim.ns_per_event", "ns"),
    m("sim.sched_ns_per_op", "ns"),
    m("phy.receptions", "count"),
    m("phy.overlap_per_rx", "ratio"),
    m("phy.rx_draw_ns", "ns"),
    m("mac.frames_tx", "count"),
    m("mac.events_per_frame", "ratio"),
    m("mac.retries", "count"),
    m("mac.collision_rx", "count"),
    m("mac.tx_success_ratio", "ratio"),
    m("transport.on_ack_ns.newreno", "ns"),
    m("transport.on_ack_ns.cubic", "ns"),
    m("transport.on_ack_ns.bbr", "ns"),
    m("net.build_us", "us"),
    m("net.step_ms_p50", "ms"),
    m("net.step_ms_tail", "ms"),
    m("net.step_samples", "count"),
    m("net.finish_us", "us"),
    m("core.grc_overhead_pct", "%"),
    m("core.world_overhead_pct", "%"),
    m("snap.save_us", "us"),
    m("snap.bytes", "bytes"),
    m("snap.digest_us", "us"),
    m("snap.checkpoints", "count"),
    m("detsci.eval_ms", "ms"),
    m("runner.cpu_util", "ratio"),
    m("bench.self_s", "s"),
    m("bench.ns_per_event.fig5", "ns"),
    m("bench.ns_per_event.fig6", "ns"),
    m("bench.ns_per_event.fig11", "ns"),
    m("bench.ns_per_event.fig16", "ns"),
    m("bench.ns_per_event.tab6", "ns"),
    m("alloc.per_event", "allocs/event"),
    m("alloc.per_run", "allocs/run"),
    m("alloc.peak_rss_mib", "MiB"),
    m("conform.overhead_pct", "%"),
    m("conform.violations", "count"),
    m("trace.overhead_pct", "%"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line: every metric of `defs`, in table order.
///
/// # Panics
///
/// Panics when `values` misses a metric of `defs` or holds one outside
/// it — either is a bug in this program.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric {name} is not in the catalogue"
        );
    }
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = *values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it
/// (the tail the benchmark reports beside the median), or the maximum
/// when there are fewer than eleven samples.
pub fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n < 11 => v[n - 1],
        n => v[n - 11],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie above the reported tail.
        assert_eq!(tail(&xs), 90.0);
        assert_eq!(tail(&[1.0, 5.0]), 5.0);
    }

    /// A JSON value, enough of it to read BENCHMARK.json.
    #[derive(Debug, PartialEq)]
    enum Json {
        Str(String),
        Num(f64),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                _ => panic!("not an array"),
            }
        }
    }

    /// Parses the JSON subset BENCHMARK.json uses (no escapes, no
    /// literals besides numbers and strings).
    fn parse(s: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        let skip = |s: &mut std::iter::Peekable<std::str::Chars<'_>>| {
            while s
                .peek()
                .is_some_and(|c| c.is_whitespace() || *c == ',' || *c == ':')
            {
                s.next();
            }
        };
        skip(s);
        match s.next().expect("value") {
            '"' => Json::Str(s.by_ref().take_while(|&c| c != '"').collect()),
            '[' => {
                let mut v = Vec::new();
                loop {
                    skip(s);
                    if s.peek() == Some(&']') {
                        s.next();
                        return Json::Arr(v);
                    }
                    v.push(parse(s));
                }
            }
            '{' => {
                let mut v = Vec::new();
                loop {
                    skip(s);
                    if s.peek() == Some(&'}') {
                        s.next();
                        return Json::Obj(v);
                    }
                    let Json::Str(k) = parse(s) else {
                        panic!("object key")
                    };
                    v.push((k, parse(s)));
                }
            }
            c => {
                let mut num = c.to_string();
                while s
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || ".-+eE".contains(*c))
                {
                    num.push(s.next().expect("peeked"));
                }
                Json::Num(num.parse().expect("number"))
            }
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = parse(&mut text.chars().peekable());
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .arr()
                .iter()
                .map(|m| (m.get("name").str(), m.get("unit").str()))
                .collect();
            let printed: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, printed, "{key}");
            assert!(printed.iter().all(|(_, unit)| !unit.is_empty()));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let known: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
        assert_eq!(
            doc.get("end_to_end")
                .arr()
                .iter()
                .filter(|m| m.get("name").str() == "setup_s")
                .count(),
            1
        );
        assert!(matches!(doc.get("run_seconds"), Json::Num(_)));
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(true, 3, 0, END_TO_END, &values);
        for d in END_TO_END {
            let needle = format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
            assert!(line.contains(&needle), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }
}
