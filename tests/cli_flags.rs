//! CLI contract tests for the sweep-executor flags and diagnostics:
//! `--jobs` validation, experiment-id validation in `apex report`,
//! unknown-application handling, and the crash-safe-sweep contract
//! (interrupted sweeps exit 3 and `--resume` reproduces the full run
//! byte-for-byte) — all must exit with the documented code, never panic,
//! never silently ignore the request.

use std::path::PathBuf;
use std::process::Command;

fn apex(args: &[&str]) -> (i32, String) {
    let (code, _stdout, stderr) = apex_env(args, &[]);
    (code, stderr)
}

/// Runs the binary with extra environment variables and captures stdout
/// too (the byte-diffable sweep output lives on stdout; diagnostics and
/// the cache footer live on stderr).
fn apex_env(args: &[&str], envs: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_apex"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("apex binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Per-test scratch directory so journals and caches never leak between
/// tests or into the developer's workspace.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn report_rejects_unknown_experiment_id() {
    // the pre-parallel CLI silently skipped unknown ids and printed
    // nothing — a typo looked like an empty (successful) report
    let (code, stderr) = apex(&["report", "fig99"]);
    assert_ne!(code, 0, "unknown experiment id must fail\nstderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment 'fig99'"),
        "diagnostic names the id: {stderr}"
    );
    assert!(
        stderr.contains("table2"),
        "diagnostic lists the known ids: {stderr}"
    );
}

#[test]
fn jobs_flag_rejects_zero_and_garbage() {
    for bad in ["0", "many", "-3"] {
        let (code, stderr) = apex(&["report", "--jobs", bad, "table1"]);
        assert_ne!(code, 0, "--jobs {bad} must fail\nstderr: {stderr}");
        assert!(
            stderr.contains("--jobs expects a positive integer"),
            "--jobs {bad}: {stderr}"
        );
    }
    // trailing --jobs with no value
    let (code, stderr) = apex(&["report", "table1", "--jobs"]);
    assert_ne!(code, 0, "dangling --jobs must fail\nstderr: {stderr}");
}

#[test]
fn jobs_flag_is_accepted_on_cheap_commands() {
    // `mine` exercises the pooled mining stage; --jobs 2 must parse and
    // not leak into the positional arguments
    let (code, stderr) = apex(&["mine", "gaussian", "--jobs", "2"]);
    assert_eq!(code, 0, "mine with --jobs should succeed\nstderr: {stderr}");
}

#[test]
fn help_documents_exit_codes() {
    let (code, _stdout, stderr) = apex_env(&["--help"], &[]);
    assert_eq!(code, 0, "--help succeeds\nstderr: {stderr}");
    assert!(stderr.contains("exit codes"), "help lists exit codes: {stderr}");
    assert!(
        stderr.contains("3  interrupted"),
        "help documents the interrupted-partial code: {stderr}"
    );
    assert!(stderr.contains("--resume"), "help documents --resume: {stderr}");
}

/// The full crash-safe-sweep round trip through the real binary:
/// a sweep interrupted mid-flight exits with the documented partial code
/// (3), flushes its journal, and a `--resume` rerun completes with stdout
/// byte-identical to an uninterrupted run.
#[test]
fn interrupted_report_exits_3_and_resume_is_byte_identical() {
    let dir = scratch("resume");
    let cache = dir.join("cache");
    let j_full = dir.join("journal-full");
    let j_part = dir.join("journal-part");
    let cache_s = cache.to_string_lossy().into_owned();
    let j_full_s = j_full.to_string_lossy().into_owned();
    let j_part_s = j_part.to_string_lossy().into_owned();
    let args = ["report", "table1", "fig10"];

    // uninterrupted reference run
    let (code, full_out, stderr) = apex_env(
        &args,
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_full_s)],
    );
    assert_eq!(code, 0, "reference run succeeds\nstderr: {stderr}");
    assert!(!full_out.is_empty());

    // interrupted run: the deterministic hook raises the interrupt flag
    // after one executed job, exactly like a Ctrl-C between jobs
    let (code, part_out, stderr) = apex_env(
        &args,
        &[
            ("APEX_CACHE_DIR", &cache_s),
            ("APEX_JOURNAL_DIR", &j_part_s),
            ("APEX_INTERRUPT_AFTER", "1"),
        ],
    );
    assert_eq!(code, 3, "interrupted sweep exits 3\nstderr: {stderr}");
    assert!(
        part_out.contains("# partial report (partial): 1/2 job(s)"),
        "partial marker on stdout: {part_out}"
    );
    let journal_files: Vec<_> = std::fs::read_dir(&j_part)
        .expect("journal dir exists after interrupt")
        .collect();
    assert_eq!(journal_files.len(), 1, "one journal file was flushed");

    // resume: replays job 1 from the journal, runs job 2, byte-identical
    let (code, resumed_out, stderr) = apex_env(
        &["report", "table1", "fig10", "--resume"],
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_part_s)],
    );
    assert_eq!(code, 0, "resumed run succeeds\nstderr: {stderr}");
    assert!(
        stderr.contains("resume: replaying 1/2"),
        "resume log names the replay count: {stderr}"
    );
    assert_eq!(
        resumed_out, full_out,
        "resumed stdout must be byte-identical to the uninterrupted run"
    );

    // resume with a completed journal replays everything
    let (code, again_out, stderr) = apex_env(
        &["report", "table1", "fig10", "--resume"],
        &[("APEX_CACHE_DIR", &cache_s), ("APEX_JOURNAL_DIR", &j_part_s)],
    );
    assert_eq!(code, 0, "second resume succeeds\nstderr: {stderr}");
    assert_eq!(again_out, full_out, "fully-replayed stdout is stable");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `apex report` builds ahead of time only the shared variants of the
/// experiments it will actually run: none for a fully replayed journal,
/// none for an experiment that reads no variant. (Under `fault-injection`
/// the variant cache is bypassed, so there is no count to observe.)
#[cfg(not(feature = "fault-injection"))]
#[test]
fn report_warm_up_builds_only_what_runs() {
    let dir = scratch("warmup");
    let cache_s = dir.join("cache").to_string_lossy().into_owned();
    let journal_s = dir.join("journal").to_string_lossy().into_owned();
    let envs = [
        ("APEX_CACHE_DIR", cache_s.as_str()),
        ("APEX_JOURNAL_DIR", journal_s.as_str()),
    ];
    let footer = |args: &[&str]| {
        let (code, _, stderr) = apex_env(args, &envs);
        assert_eq!(code, 0, "{args:?} succeeds\nstderr: {stderr}");
        stderr
    };

    // fig13 reads the baseline and PE IP, nothing else
    let stderr = footer(&["report", "fig13"]);
    assert!(
        stderr.contains("cache: 0 hit(s), 2 miss(es)"),
        "fig13: {stderr}"
    );
    // every job replays from the journal: nothing is built or loaded
    let stderr = footer(&["report", "fig13", "--resume"]);
    assert!(
        stderr.contains("cache: 0 hit(s), 0 miss(es)"),
        "fig13 --resume: {stderr}"
    );
    // table1 reads no variant
    let stderr = footer(&["report", "table1"]);
    assert!(
        stderr.contains("cache: 0 hit(s), 0 miss(es)"),
        "table1: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm `apex report` makes one cache lookup per entry on disk, and
/// every lookup hits: no variant is built, and each PE Spec search is one
/// entry rather than one per step. (Compiled out under `fault-injection`,
/// where the cache is bypassed.)
#[cfg(not(feature = "fault-injection"))]
#[test]
fn warm_report_hits_every_cache_entry_once() {
    let dir = scratch("warm");
    let cache = dir.join("cache");
    let cache_s = cache.to_string_lossy().into_owned();
    let envs = [("APEX_CACHE_DIR", cache_s.as_str()), ("APEX_JOURNAL", "off")];
    let (code, _, stderr) = apex_env(&["report", "--jobs", "2"], &envs);
    assert_eq!(code, 0, "cold report succeeds\nstderr: {stderr}");
    let entries = std::fs::read_dir(&cache).expect("the cache was filled").count();
    assert!(
        stderr.contains(&format!("cache: 0 hit(s), {entries} miss(es)")),
        "cold: {entries} entries; {stderr}"
    );
    let (code, _, stderr) = apex_env(&["report", "--jobs", "2"], &envs);
    assert_eq!(code, 0, "warm report succeeds\nstderr: {stderr}");
    assert!(
        stderr.contains(&format!("cache: {entries} hit(s), 0 miss(es)")),
        "warm: {entries} entries; {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_application_exits_nonzero() {
    let (code, stderr) = apex(&["dse", "no-such-app"]);
    assert_ne!(code, 0, "unknown app must fail\nstderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown application 'no-such-app'"),
        "diagnostic names the app: {stderr}"
    );
}
