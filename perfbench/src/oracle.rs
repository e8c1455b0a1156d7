//! Output oracle: reference digests per workload and input variant.
//!
//! `refs/<workload>.txt` holds one line per expected output,
//! `<variant> <artifact> <value>`, where the variant is the input
//! variant the seed selects (`*` for outputs no variant changes) and the
//! value is the FNV-1a digest of the artifact's bytes, optionally with
//! exact counts appended. The benchmark regenerates the file with
//! `--write-refs`; any later difference is a changed simulation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// The `(artifact, value)` outputs of one pass, in production order.
pub type Artifacts = Vec<(String, String)>;

/// Hex FNV-1a digest of `bytes`.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", snap::fnv1a(bytes))
}

/// Reference digests of one workload.
#[derive(Debug, Default)]
pub struct Refs {
    by_variant: BTreeMap<String, BTreeMap<String, String>>,
}

/// Where the reference file of `workload` lives.
pub fn refs_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{workload}.txt"))
}

impl Refs {
    /// Reads the reference file of `workload`.
    ///
    /// # Errors
    ///
    /// Fails when the file is missing, unreadable or has a line that is
    /// not `<variant> <artifact> <value>`.
    pub fn load(workload: &str) -> io::Result<Refs> {
        let path = refs_path(workload);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot read {}: {e}", path.display()))
        })?;
        let mut refs = Refs::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(v), Some(a), Some(val)) => {
                    refs.by_variant
                        .entry(v.to_string())
                        .or_default()
                        .insert(a.to_string(), val.to_string());
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{}: malformed reference line", path.display(), n + 1),
                    ))
                }
            }
        }
        Ok(refs)
    }

    /// The references that apply to `variant`: its own lines plus the
    /// `*` lines.
    pub fn expected(&self, variant: u64) -> BTreeMap<&str, &str> {
        ["*".to_string(), variant.to_string()]
            .iter()
            .filter_map(|v| self.by_variant.get(v))
            .flat_map(|m| m.iter().map(|(a, v)| (a.as_str(), v.as_str())))
            .collect()
    }

    /// Checks one pass's outputs against the references of `variant`.
    /// Returns `(attempted, failed)`: every expected artifact is one
    /// operation, and it fails when it is missing or its value differs;
    /// an artifact without a reference is one more failed operation.
    pub fn check(&self, variant: u64, produced: &Artifacts) -> (u64, u64) {
        let expected = self.expected(variant);
        let got: BTreeMap<&str, &str> = produced
            .iter()
            .map(|(a, v)| (a.as_str(), v.as_str()))
            .collect();
        let mut failed = 0;
        for (a, v) in &expected {
            if got.get(a) != Some(v) {
                eprintln!("perfbench: {a}: expected {v}, got {:?}", got.get(a));
                failed += 1;
            }
        }
        let unknown = got.keys().filter(|a| !expected.contains_key(*a)).count() as u64;
        for a in got.keys().filter(|a| !expected.contains_key(*a)) {
            eprintln!("perfbench: {a}: no reference");
        }
        (expected.len() as u64 + unknown, failed + unknown)
    }
}

/// Renders reference lines for `(variant, artifacts)` pairs.
pub fn render(header: &str, sets: &[(String, Artifacts)]) -> String {
    let mut s = format!("# {header}\n");
    for (variant, artifacts) in sets {
        let mut sorted: Vec<_> = artifacts.iter().collect();
        sorted.sort();
        for (a, v) in sorted {
            let _ = writeln!(s, "{variant} {a} {v}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_missing_changed_and_unknown_outputs() {
        let mut refs = Refs::default();
        let star = refs.by_variant.entry("*".into()).or_default();
        star.insert("a.csv".into(), "01".into());
        let v3 = refs.by_variant.entry("3".into()).or_default();
        v3.insert("b.csv".into(), "02".into());
        let ok: Artifacts = vec![("a.csv".into(), "01".into()), ("b.csv".into(), "02".into())];
        assert_eq!(refs.check(3, &ok), (2, 0));
        let changed: Artifacts = vec![("a.csv".into(), "01".into()), ("b.csv".into(), "ff".into())];
        assert_eq!(refs.check(3, &changed), (2, 1));
        let extra: Artifacts = vec![("a.csv".into(), "01".into()), ("c.csv".into(), "03".into())];
        // b.csv missing, c.csv unknown.
        assert_eq!(refs.check(3, &extra), (3, 2));
        // Variant 4 only expects the shared artifact.
        assert_eq!(refs.check(4, &ok[..1].to_vec()), (1, 0));
    }
}
