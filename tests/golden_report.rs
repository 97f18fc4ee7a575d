//! The pinned report: `apex report` stdout must equal
//! `results/report.txt` byte for byte, cold at one and two workers and
//! warm at two (after a cold run fills the cache). A deliberate change
//! re-blesses the file with `APEX_BLESS=1 cargo test --test golden_report`,
//! and CHANGES.md records why.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/report.txt")
}

/// `apex report --jobs <jobs>` stdout, with the given cache directory
/// (`None`: cache off) and a fresh journal directory under `dir`.
fn report(dir: &Path, jobs: &str, cache: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_apex"));
    cmd.args(["report", "--jobs", jobs])
        .env(
            "APEX_JOURNAL_DIR",
            dir.join(format!("journal-{jobs}-{}", cache.is_some())),
        )
        .env_remove("APEX_JOBS");
    match cache {
        Some(cache) => cmd.env("APEX_CACHE_DIR", cache).env_remove("APEX_CACHE"),
        None => cmd.env("APEX_CACHE", "off"),
    };
    let out = cmd.output().expect("apex binary runs");
    assert!(
        out.status.success(),
        "apex report --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the report is UTF-8")
}

#[test]
fn report_matches_the_golden_file() {
    let dir = std::env::temp_dir().join(format!("apex-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = report(&dir, "1", None);
    if std::env::var_os("APEX_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(golden(), &cold).expect("results/report.txt is writable");
    }
    let want = std::fs::read_to_string(golden()).expect("results/report.txt exists");
    let cache = dir.join("cache");
    let runs = [
        ("cold, 1 worker", cold),
        ("cold, 2 workers", report(&dir, "2", None)),
        ("cache fill, 2 workers", report(&dir, "2", Some(&cache))),
        ("warm, 2 workers", report(&dir, "2", Some(&cache))),
    ];
    for (what, got) in runs {
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or(got.lines().count().min(want.lines().count()), |i| i);
            panic!(
                "{what}: the report differs from results/report.txt from line {} \
                 (re-bless with APEX_BLESS=1 if the change is deliberate)\n got: {:?}\nwant: {:?}",
                line + 1,
                got.lines().nth(line),
                want.lines().nth(line)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
