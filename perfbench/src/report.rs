//! The two `apex report` workloads, driven from outside: one `apex`
//! process per sample, timed from spawn to exit.

use crate::util::{expected, fresh_dir, median, quantile, report_digest, run_timed, Finished};
use crate::Outcome;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Cache fills per `report_warm` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Start-up samples per `report_cold` run; `setup_s` is their median.
/// One start-up takes about 2 ms, so the median needs this many samples
/// (about 0.6 s) to hold still between runs.
const STARTUP_REPEATS: usize = 301;

/// `apex report --jobs 2`, cache and journal as given by `cache_dir`
/// (`None` = `APEX_CACHE=off`).
pub fn report_cmd(apex: &Path, jobs: usize, cache_dir: Option<&Path>) -> Command {
    let mut cmd = Command::new(apex);
    cmd.args(["report", "--jobs", &jobs.to_string()])
        .env("APEX_JOURNAL", "off")
        .env_remove("APEX_JOBS")
        .env_remove("APEX_CACHE_MAX_BYTES");
    match cache_dir {
        Some(dir) => cmd.env_remove("APEX_CACHE").env("APEX_CACHE_DIR", dir),
        None => cmd.env("APEX_CACHE", "off").env_remove("APEX_CACHE_DIR"),
    };
    cmd
}

/// `(hits, misses)` from the report's stderr cache footer; `None` when
/// the cache was off (no footer, so no lookups).
pub fn cache_footer(stderr: &str) -> Option<(u64, u64)> {
    let line = stderr.lines().find(|l| l.starts_with("cache: "))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*nums.first()?, *nums.get(1)?))
}

/// Checks one report process: exit 0 and stdout matching the pinned
/// digest. Prints the reason to stderr when it fails.
pub fn report_ok(f: &Finished, what: &str) -> bool {
    let want = expected("report_digest").unwrap_or_default();
    let got = format!("{:016x}", report_digest(&f.stdout));
    let ok = f.code == 0 && got == want;
    if !ok {
        eprintln!(
            "perfbench: {what}: exit {} digest {got} (want {want}); stderr: {}",
            f.code,
            f.stderr.lines().last().unwrap_or("")
        );
    }
    ok
}

/// Runs report samples until `seconds` have elapsed, checking each.
fn sample(
    out: &mut Outcome,
    seconds: f64,
    mut cmd: impl FnMut() -> Command,
    mut check: impl FnMut(&Finished) -> bool,
) -> std::io::Result<(Vec<f64>, Vec<f64>, f64)> {
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let f = run_timed(&mut cmd())?;
        out.attempted += 1;
        if !check(&f) {
            out.failed += 1;
        }
        walls.push(f.wall_s);
        rss.push(f.peak_rss_mb);
    }
    Ok((walls, rss, start.elapsed().as_secs_f64()))
}

fn finish(out: &mut Outcome, walls: &[f64], rss: &[f64], elapsed: f64, setup: &[f64]) {
    out.metric("run_s", median(walls), "s");
    out.metric("latency_p50_ms", median(walls) * 1e3, "ms");
    out.metric("latency_p90_ms", quantile(walls, 0.9) * 1e3, "ms");
    out.metric("jobs_per_s", walls.len() as f64 / elapsed, "1/s");
    out.metric("peak_rss_mb", median(rss), "MB");
    out.metric("setup_s", median(setup), "s");
    out.note(format!(
        "samples={} setup_samples={}",
        walls.len(),
        setup.len()
    ));
}

/// `report_cold`: every sample a fresh process with cache and journal
/// off. Set-up is the program's start-up path (`apex list` builds the
/// nine application graphs), timed `STARTUP_REPEATS` times.
pub fn cold(apex: &Path, seconds: f64) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for _ in 0..STARTUP_REPEATS {
        let f = run_timed(Command::new(apex).arg("list"))?;
        out.attempted += 1;
        if f.code != 0 || f.stdout.lines().count() != 10 {
            out.failed += 1;
        }
        setup.push(f.wall_s);
    }
    let mut lookups = 0u64;
    let (walls, rss, elapsed) = sample(
        &mut out,
        seconds,
        || report_cmd(apex, 2, None),
        |f| {
            // a cold run makes no cache lookups, so prints no footer
            if let Some((h, m)) = cache_footer(&f.stderr) {
                lookups += h + m;
            }
            report_ok(f, "report_cold sample") && cache_footer(&f.stderr).is_none()
        },
    )?;
    finish(&mut out, &walls, &rss, elapsed, &setup);
    out.note(format!("cache_lookups={lookups}"));
    Ok(out)
}

/// `report_warm`: set-up fills a variant cache in a fresh directory with
/// one untimed run (repeated `SETUP_REPEATS` times, each into its own
/// directory); every sample then runs against the last one.
pub fn warm(apex: &Path, work: &Path, seconds: f64) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut entries = 0u64;
    let mut dir = work.to_path_buf();
    for i in 0..SETUP_REPEATS {
        dir = work.join(format!("cache{i}"));
        fresh_dir(&dir)?;
        let f = run_timed(&mut report_cmd(apex, 2, Some(&dir)))?;
        out.attempted += 1;
        let footer = cache_footer(&f.stderr);
        entries = std::fs::read_dir(&dir)?.count() as u64;
        if !report_ok(&f, "report_warm fill") || footer.is_none_or(|(h, m)| h != 0 || m != entries)
        {
            out.failed += 1;
        }
        setup.push(f.wall_s);
    }
    let (mut hits, mut lookups) = (0u64, 0u64);
    let (walls, rss, elapsed) = sample(
        &mut out,
        seconds,
        || report_cmd(apex, 2, Some(&dir)),
        |f| {
            let footer = cache_footer(&f.stderr);
            if let Some((h, m)) = footer {
                hits += h;
                lookups += h + m;
            }
            // a warm run must be served entirely from the cache
            report_ok(f, "report_warm sample") && footer == Some((entries, 0))
        },
    )?;
    finish(&mut out, &walls, &rss, elapsed, &setup);
    out.note(format!(
        "cache_entries={entries} cache_hits={hits} cache_lookups={lookups}"
    ));
    Ok(out)
}
