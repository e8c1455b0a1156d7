//! Process resource readings from `/proc/self`.

/// Process user+system CPU seconds, from `/proc/self/stat` (clock ticks
/// of 1/100 s, the Linux default).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are fields 14 and 15 of the line, i.e. 12 and 13
    // after the parenthesised command name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of the process in MiB, not counting file-backed
/// and shared pages:
/// `VmHWM - RssFile - RssShmem`. How many pages of the binary are
/// mapped depends on the page cache rather than on the program, so
/// they are left out.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |field: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0.0)
    };
    (kib("VmHWM:") - kib("RssFile:") - kib("RssShmem:")) / 1024.0
}
