//! A search (the specialization ladder, the PE Spec stopping rule) mines
//! its application once and builds step `k` from the first `k` subgraphs
//! of that one ranking. Every step must be the very variant an independent
//! `specialized_variant(per_app: k)` build produces, budget degradations
//! included.
//!
//! The variant cache is switched off for this binary, so both sides are
//! real builds rather than one decoding what the other stored.

use apex_apps::{camera_pipeline, mobilenet_layer, Application};
use apex_core::{
    encode_variant, most_specialized_variant, specialization_ladder, specialized_variant,
    PeVariant, SubgraphSelection,
};
use apex_fault::{Stage, StageBudget};
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_tech::TechModel;
use std::collections::BTreeSet;
use std::sync::Once;

/// Disables the process-wide variant cache before its first use. Every
/// test calls this first, so no other test thread reads the environment
/// while it is written.
fn no_cache() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("APEX_CACHE", "off"));
    assert!(!apex_core::VariantCache::shared().is_enabled());
}

fn independent(name: &str, app: &Application, k: usize, miner: &MinerConfig) -> PeVariant {
    specialized_variant(
        name,
        &[app],
        &[app],
        miner,
        &SubgraphSelection {
            per_app: k,
            ..SubgraphSelection::default()
        },
        &MergeOptions::default(),
        &TechModel::default(),
        &BTreeSet::new(),
    )
    .unwrap()
}

fn ladder(app: &Application, steps: usize, miner: &MinerConfig) -> Vec<PeVariant> {
    specialization_ladder(
        app,
        steps,
        miner,
        &MergeOptions::default(),
        &TechModel::default(),
    )
    .unwrap()
}

#[test]
fn search_steps_equal_independent_builds() {
    no_cache();
    let miner = MinerConfig::default();
    for app in [camera_pipeline(), mobilenet_layer()] {
        let name = &app.info.name;
        for (k, step) in ladder(&app, 3, &miner).iter().enumerate() {
            let solo = independent(&format!("pe{}_{name}", k + 1), &app, k, &miner);
            assert_eq!(
                encode_variant(step),
                encode_variant(&solo),
                "{name} ladder step {k}"
            );
        }

        let max_steps = 4;
        let spec = most_specialized_variant(
            &app,
            &miner,
            &MergeOptions::default(),
            &TechModel::default(),
            max_steps,
        )
        .unwrap();
        let chosen = encode_variant(&spec);
        assert!(
            (0..=max_steps).any(|k| encode_variant(&independent(
                &format!("pe_spec_{name}"),
                &app,
                k,
                &miner
            )) == chosen),
            "{name}: PE Spec equals no independent build of steps 0..={max_steps}"
        );
    }
}

#[test]
fn truncated_shared_selection_degrades_every_step() {
    no_cache();
    let app = camera_pipeline();
    let miner = MinerConfig {
        budget: StageBudget::unlimited().with_max_steps(10_000),
        ..MinerConfig::default()
    };
    let steps = ladder(&app, 3, &miner);
    assert!(
        steps.last().is_some_and(|v| !v.sources.is_empty()),
        "the truncated ranking still yields subgraphs to merge"
    );
    for (k, step) in steps.iter().enumerate() {
        assert!(
            step.degradations.iter().any(|d| d.stage == Stage::Mine),
            "ladder step {k} lost the mining-budget degradation"
        );
        let solo = independent(&format!("pe{}_camera", k + 1), &app, k, &miner);
        assert_eq!(
            encode_variant(step),
            encode_variant(&solo),
            "ladder step {k}"
        );
    }
}
