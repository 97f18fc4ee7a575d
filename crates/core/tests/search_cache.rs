//! The PE Spec stopping-rule search is one variant-cache entry: a cold
//! search makes one lookup (a miss) and stores one entry, whatever number
//! of steps it builds and evaluates; a warm search makes one lookup (a
//! hit) and returns the very variant a cache-off search builds. A search
//! the wall clock stopped is not stored, so it cannot stand in for the
//! finished search that shares its key.
//!
//! The cache of this binary lives in its own scratch directory. The tests
//! read its process-wide counters, so they run one at a time. Under
//! `fault-injection` the variant cache is bypassed, so there is nothing
//! to count.
#![cfg(not(feature = "fault-injection"))]

use apex_apps::{camera_pipeline, mobilenet_layer, Application};
use apex_core::{encode_variant, most_specialized_variant, VariantCache};
use apex_fault::StageBudget;
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_tech::TechModel;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// Marks the encodings the cache-off child prints on stdout.
const CAMERA_MARK: &str = "encoded-camera:";
const MOBILENET_MARK: &str = "encoded-mobilenet:";

static SERIAL: Mutex<()> = Mutex::new(());
static SCRATCH: Once = Once::new();

/// Takes the test lock and returns the shared cache, pointed at this
/// binary's scratch directory on first use.
fn scratch_cache() -> (MutexGuard<'static, ()>, &'static VariantCache, PathBuf) {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("apex-search-cache-{}", std::process::id()));
    SCRATCH.call_once(|| {
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("APEX_CACHE_DIR", &dir);
    });
    let cache = VariantCache::shared();
    assert!(cache.is_enabled(), "the cache points at the scratch dir");
    (guard, cache, dir)
}

fn entries(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

fn search(app: &Application, miner: &MinerConfig) -> String {
    let v = most_specialized_variant(
        app,
        miner,
        &MergeOptions::default(),
        &TechModel::default(),
        4,
    )
    .unwrap();
    encode_variant(&v)
}

/// Run by the tests below in a child process with the cache off: prints
/// both searches' encodings, one marked line per encoded line.
#[test]
#[ignore = "run in a child process with APEX_CACHE=off"]
fn cache_off_search() {
    if VariantCache::shared().is_enabled() {
        return;
    }
    let miner = MinerConfig::default();
    for (mark, app) in [
        (CAMERA_MARK, camera_pipeline()),
        (MOBILENET_MARK, mobilenet_layer()),
    ] {
        for line in search(&app, &miner).lines() {
            println!("{mark}{line}");
        }
    }
}

/// The lines the cache-off child prints under `mark`.
fn cache_off_encoding(mark: &str) -> Vec<String> {
    let child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            "cache_off_search",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("APEX_CACHE", "off")
        .output()
        .unwrap();
    assert!(
        child.status.success(),
        "{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let stdout = String::from_utf8_lossy(&child.stdout);
    // the test harness may print its own text ahead of the first line
    let off: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.split_once(mark).map(|(_, line)| line.to_owned()))
        .collect();
    assert!(!off.is_empty(), "the child printed no encoding: {stdout}");
    off
}

fn lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_owned).collect()
}

#[test]
fn warm_search_is_one_hit() {
    let (_serial, cache, dir) = scratch_cache();
    let miner = MinerConfig::default();
    let (hits, misses, stored) = (cache.hits(), cache.misses(), entries(&dir));

    let cold = search(&camera_pipeline(), &miner);
    assert_eq!((cache.hits() - hits, cache.misses() - misses), (0, 1), "cold search");
    assert_eq!(entries(&dir) - stored, 1, "a cold search writes one entry");

    let warm = search(&camera_pipeline(), &miner);
    assert_eq!((cache.hits() - hits, cache.misses() - misses), (1, 1), "warm search");
    assert_eq!(warm, cold, "the cached search decodes to the cold result");

    assert!(
        cache_off_encoding(CAMERA_MARK) == lines(&cold),
        "the cache-off search differs"
    );
}

/// A search cancelled before it starts (a daemon drain landing mid-job)
/// stores nothing, so the finished search of the same key — what a
/// resumed job runs — still misses, builds and stores its own result.
#[test]
fn cancelled_search_is_not_stored() {
    let (_serial, cache, dir) = scratch_cache();
    let cancel = Arc::new(AtomicBool::new(true));
    let miner = MinerConfig {
        budget: StageBudget::unlimited().with_cancel(Arc::clone(&cancel)),
        ..MinerConfig::default()
    };
    let (hits, misses, stored) = (cache.hits(), cache.misses(), entries(&dir));

    let cancelled = search(&mobilenet_layer(), &miner);
    assert_eq!(entries(&dir) - stored, 0, "a cancelled search stores nothing");

    cancel.store(false, std::sync::atomic::Ordering::SeqCst);
    let finished = search(&mobilenet_layer(), &miner);
    assert_eq!((cache.hits() - hits, cache.misses() - misses), (0, 2), "both searches miss");
    assert_eq!(entries(&dir) - stored, 1, "the finished search stores once");
    assert_ne!(finished, cancelled, "the cancelled search was cut short");
    assert!(
        cache_off_encoding(MOBILENET_MARK) == lines(&finished),
        "the finished search differs from a cache-off build"
    );
}
