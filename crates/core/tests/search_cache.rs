//! The PE Spec stopping-rule search is one variant-cache entry: a cold
//! search makes one lookup (a miss) and stores one entry, whatever number
//! of steps it builds and evaluates; a warm search makes one lookup (a
//! hit) and returns the very variant a cache-off search builds.
//!
//! The cache of this binary lives in its own scratch directory. Under
//! `fault-injection` the variant cache is bypassed, so there is nothing
//! to count.
#![cfg(not(feature = "fault-injection"))]

use apex_apps::camera_pipeline;
use apex_core::{encode_variant, most_specialized_variant, VariantCache};
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_tech::TechModel;
use std::process::Command;

/// Marks the encoding the cache-off child prints on stdout.
const MARK: &str = "encoded-search:";

fn camera_search() -> String {
    let v = most_specialized_variant(
        &camera_pipeline(),
        &MinerConfig::default(),
        &MergeOptions::default(),
        &TechModel::default(),
        4,
    )
    .unwrap();
    encode_variant(&v)
}

/// Run by [`warm_search_is_one_hit`] in a child process with the cache
/// off: prints the search's encoding, one line per encoded line.
#[test]
#[ignore = "run in a child process with APEX_CACHE=off"]
fn cache_off_search() {
    if VariantCache::shared().is_enabled() {
        return;
    }
    for line in camera_search().lines() {
        println!("{MARK}{line}");
    }
}

#[test]
fn warm_search_is_one_hit() {
    let dir = std::env::temp_dir().join(format!("apex-search-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("APEX_CACHE_DIR", &dir);
    let cache = VariantCache::shared();
    assert!(cache.is_enabled(), "the cache points at the scratch dir");

    let cold = camera_search();
    assert_eq!((cache.hits(), cache.misses()), (0, 1), "cold search");
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 1, "a cold search writes one entry");

    let warm = camera_search();
    assert_eq!((cache.hits(), cache.misses()), (1, 1), "warm search");
    assert_eq!(warm, cold, "the cached search decodes to the cold result");

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
    let off: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_once(MARK).map(|(_, line)| line))
        .collect();
    assert!(!off.is_empty(), "the child printed no encoding: {stdout}");
    assert!(
        off == cold.lines().collect::<Vec<_>>(),
        "the cache-off search differs"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
