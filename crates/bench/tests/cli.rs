//! The `repro` command line refuses what it does not understand: a flag
//! the subcommand does not use, a stray argument, a value out of range,
//! conflicting checkpoint flags and every spelling earlier versions
//! accepted. Each case must exit non-zero, name the offending argument
//! on stderr and write nothing — neither under `--out` nor into a
//! default `results/` directory.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one invocation.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gr-repro-cli").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("repro starts")
}

/// Each case: the arguments (split at spaces), and what stderr must
/// mention.
const REJECTED: &[(&str, &[&str])] = &[
    // A flag before the subcommand made `run` an experiment id.
    ("--jobs 0 run --quick fig2", &["--jobs"]),
    // `roc` was silently dropped and the world campaign ran.
    ("world roc --cells 1x1 --out out", &["roc", "repro world"]),
    // Recording and checkpointing were silently ignored by `world`.
    (
        "world --record --checkpoint-every 100 --out out",
        &["--record", "repro world"],
    ),
    (
        "fuzz 1 --jobs 4 --record --out out",
        &["--jobs", "repro fuzz"],
    ),
    ("run --check --out out fig2", &["--check", "repro run"]),
    // Zero workers ran one and recorded `"jobs": 0`.
    (
        "run --jobs 0 --out out fig2",
        &["--jobs requires a positive integer"],
    ),
    (
        "roc --checkpoint-every 100 --out out",
        &["--checkpoint-every", "repro roc"],
    ),
    // `--points` also switched on intensity mode.
    ("cc --points 3 --out out", &["--points", "repro cc"]),
    ("gate --quick --out out", &["--quick", "repro gate"]),
    // A resumed campaign records nothing new; the intervals were ignored.
    (
        "run --resume rec --checkpoint-every 100 --out out fig2",
        &["--resume", "--checkpoint-every"],
    ),
    (
        "run --checkpoint-every 0 --out out fig2",
        &["--checkpoint-every requires a positive"],
    ),
    ("fuzz --out out", &["repro fuzz", "case count"]),
    ("audit-compare a.audit", &["repro audit-compare", "two"]),
    ("list fig2", &["fig2", "repro list"]),
    ("run --out out", &["repro run", "all"]),
    ("run --out out fig99", &["fig99"]),
    ("run --out out --record-filter radio fig2", &["radio"]),
    // Removed spellings, each pointing at its replacement.
    ("--bench-gate", &["--bench-gate", "repro gate"]),
    ("--fuzz 1 --out out", &["--fuzz", "repro fuzz"]),
    ("--fuzz-seed 7", &["--fuzz-seed", "repro fuzz"]),
    ("--world --out out", &["--world", "repro world"]),
    ("--cc --out out", &["--cc", "repro cc"]),
    ("--roc --out out", &["--roc", "repro roc"]),
    (
        "roc --intensity --out out",
        &["--intensity", "repro intensity"],
    ),
    ("--intensity --out out", &["--intensity", "repro intensity"]),
    ("--fig2-check", &["--fig2-check", "repro fig2-check"]),
    (
        "--audit-compare a b",
        &["--audit-compare", "repro audit-compare"],
    ),
    ("--list", &["--list", "repro list"]),
    ("-l", &["-l", "repro list"]),
    (
        "--experiment fig2 --out out",
        &["--experiment", "repro run"],
    ),
    ("run -e fig2,fig6 --out out", &["-e", "repro run"]),
    ("run -q --out out fig2", &["-q", "--quick"]),
    ("run -j 2 --out out fig2", &["-j", "--jobs"]),
    ("run -o out fig2", &["-o", "--out"]),
    ("fig2 --out out", &["fig2", "repro run fig2"]),
    ("all", &["all", "repro run all"]),
];

#[test]
fn rejected_command_lines_fail_naming_the_argument_and_write_nothing() {
    for (i, (line, expected)) in REJECTED.iter().enumerate() {
        let dir = workdir(&format!("case-{i}"));
        let args: Vec<&str> = line.split(' ').collect();
        let out = repro(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`repro {}` succeeded", line);
        for needle in *expected {
            assert!(
                stderr.contains(needle),
                "`repro {}`: stderr does not mention `{needle}`: {stderr}",
                line
            );
        }
        let written: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "`repro {}` wrote {written:?}", line);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn list_and_help_succeed() {
    let dir = workdir("list-help");
    let list = repro(&dir, &["list"]);
    assert!(list.status.success());
    let ids = String::from_utf8_lossy(&list.stdout);
    assert_eq!(ids.lines().count(), 37, "{ids}");
    assert!(ids.lines().any(|l| l == "fig2"));
    let help = repro(&dir, &["run", "--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("repro audit-compare"));
    let _ = fs::remove_dir_all(&dir);
}
