//! Shared, lazily-built experiment context: the applications, the PE
//! variants of Section 5, and the evaluation options. Variants are
//! memoized per process (and, through [`apex_core::VariantCache`], on
//! disk), so the many experiments (and benches) that share them build
//! each one once — and a warm run skips mining/merge/synthesis entirely.
//!
//! Everything here returns `Result` instead of panicking: a missing
//! application or a failed variant build surfaces as an [`ApexError`]
//! with the standard `error:` chain, which the binaries render and turn
//! into a nonzero exit.

use apex_apps::{analyzed_apps, ip_apps, ml_apps, unseen_apps, Application};
use apex_core::{
    baseline_variant, evaluate_app, specialization_ladder, specialized_variant, AppEvaluation,
    EvalOptions, PeVariant, SubgraphSelection,
};
use apex_fault::{ApexError, Stage};
use apex_ir::OpKind;
use apex_merge::MergeOptions;
use apex_mining::MinerConfig;
use apex_tech::TechModel;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Faster backend knobs for experiment sweeps: fewer annealing moves and
/// a slightly smaller miner budget. Results stay deterministic.
pub fn eval_options(pipelined: bool) -> EvalOptions {
    let mut o = EvalOptions::default();
    o.place.moves = 8_000;
    o.pipelined = pipelined;
    o
}

/// The technology model all experiments share.
pub fn tech() -> &'static TechModel {
    static TECH: OnceLock<TechModel> = OnceLock::new();
    TECH.get_or_init(TechModel::default)
}

fn miner() -> MinerConfig {
    MinerConfig {
        max_patterns: 500,
        ..MinerConfig::default()
    }
}

/// All nine applications (six analyzed + three unseen).
pub fn all_apps() -> &'static Vec<Application> {
    static APPS: OnceLock<Vec<Application>> = OnceLock::new();
    APPS.get_or_init(|| {
        let mut v = analyzed_apps();
        v.extend(unseen_apps());
        v
    })
}

/// Looks up an application by name from the shared set.
///
/// # Errors
/// Unknown names are a [`Stage::Parse`] error listing the known
/// applications (rendered by the binaries as the standard `error:` chain
/// with a nonzero exit, instead of the panic this used to be).
pub fn app(name: &str) -> Result<&'static Application, ApexError> {
    all_apps().iter().find(|a| a.info.name == name).ok_or_else(|| {
        let known: Vec<&str> = all_apps().iter().map(|a| a.info.name.as_str()).collect();
        ApexError::new(
            Stage::Parse,
            format!("unknown application '{name}' (known: {})", known.join(", ")),
        )
    })
}

/// Clones a memoized build error out of a `OnceLock` cell. The boxed
/// cause chain cannot be cloned, so it is flattened into the message —
/// the rendered chain text is preserved verbatim.
fn reraise(e: &ApexError) -> ApexError {
    let mut msg = e.message().to_owned();
    let mut src = std::error::Error::source(e);
    while let Some(s) = src {
        let text = s.to_string();
        if !msg.contains(&text) {
            msg.push_str(": ");
            msg.push_str(&text);
        }
        src = s.source();
    }
    ApexError::new(e.stage(), msg)
}

type VariantCell = OnceLock<Result<PeVariant, ApexError>>;

fn memo(
    cell: &'static VariantCell,
    build: impl FnOnce() -> Result<PeVariant, ApexError>,
) -> Result<&'static PeVariant, ApexError> {
    cell.get_or_init(build).as_ref().map_err(reraise)
}

/// The baseline PE with rules for every application.
///
/// # Errors
/// Propagates the variant-construction error of the first build.
pub fn baseline() -> Result<&'static PeVariant, ApexError> {
    static V: VariantCell = OnceLock::new();
    memo(&V, || {
        let refs: Vec<&Application> = all_apps().iter().collect();
        baseline_variant(&refs)
    })
}

/// PE IP: specialized for the four image-processing applications, but
/// evaluated on (and given rules for) the unseen applications too. The
/// baseline's bit-operation LUT is retained so predicate logic from
/// outside the analysis set still maps (DESIGN.md §3).
///
/// # Errors
/// Propagates the variant-construction error of the first build.
pub fn pe_ip() -> Result<&'static PeVariant, ApexError> {
    static V: VariantCell = OnceLock::new();
    memo(&V, || {
        let analysis = ip_apps();
        let arefs: Vec<&Application> = analysis.iter().collect();
        let eval: Vec<&Application> = all_apps()
            .iter()
            .filter(|a| a.info.domain == apex_apps::Domain::ImageProcessing)
            .collect();
        let extra: BTreeSet<OpKind> =
            [OpKind::Lut, OpKind::BitConst, OpKind::Abs].into_iter().collect();
        specialized_variant(
            "pe_ip",
            &arefs,
            &eval,
            &miner(),
            &SubgraphSelection::default(),
            &MergeOptions::default(),
            tech(),
            &extra,
        )
    })
}

/// PE IP2: one more subgraph from each application than PE IP (Fig. 12's
/// over-merged variant).
///
/// # Errors
/// Propagates the variant-construction error of the first build.
pub fn pe_ip2() -> Result<&'static PeVariant, ApexError> {
    static V: VariantCell = OnceLock::new();
    memo(&V, || {
        let analysis = ip_apps();
        let arefs: Vec<&Application> = analysis.iter().collect();
        specialized_variant(
            "pe_ip2",
            &arefs,
            &arefs,
            &miner(),
            &SubgraphSelection {
                per_app: 6,
                min_mis: 2,
                rank: apex_core::SelectionRank::MisSize,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            tech(),
            &BTreeSet::new(),
        )
    })
}

/// PE IP3: Fig. 12's unbalanced variant, meant to specialize more for the
/// camera pipeline than for the other applications. It lists camera three
/// times with one subgraph per application, but every repeat selects the
/// same top subgraph, which the canonical-code dedup drops: IP3 merges at
/// most one subgraph per application (three in all, as unsharp's equals
/// gaussian's), and camera gets no extra weight.
///
/// # Errors
/// Propagates the variant-construction error of the first build.
pub fn pe_ip3() -> Result<&'static PeVariant, ApexError> {
    static V: VariantCell = OnceLock::new();
    memo(&V, || {
        let analysis = ip_apps();
        let arefs: Vec<&Application> = analysis.iter().collect();
        // camera repeated; the repeats add nothing (see above)
        let mut chosen: Vec<&Application> = Vec::new();
        chosen.push(arefs[0]);
        chosen.push(arefs[0]);
        chosen.push(arefs[0]);
        chosen.extend(&arefs[1..]);
        specialized_variant(
            "pe_ip3",
            &chosen,
            &arefs,
            &miner(),
            &SubgraphSelection {
                per_app: 1,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            tech(),
            &BTreeSet::new(),
        )
    })
}

/// PE ML: specialized for the two machine-learning layers.
///
/// # Errors
/// Propagates the variant-construction error of the first build.
pub fn pe_ml() -> Result<&'static PeVariant, ApexError> {
    static V: VariantCell = OnceLock::new();
    memo(&V, || {
        let analysis = ml_apps();
        let arefs: Vec<&Application> = analysis.iter().collect();
        specialized_variant(
            "pe_ml",
            &arefs,
            &arefs,
            &miner(),
            &SubgraphSelection {
                per_app: 2,
                ..SubgraphSelection::default()
            },
            &MergeOptions::default(),
            tech(),
            &BTreeSet::new(),
        )
    })
}

/// PE Spec: the most specialized per-application PE.
///
/// # Errors
/// Unknown application names and variant-construction failures propagate;
/// failed builds are not memoized, so a later call retries.
pub fn pe_spec(app_name: &str) -> Result<&'static PeVariant, ApexError> {
    static V: OnceLock<std::sync::Mutex<std::collections::BTreeMap<String, &'static PeVariant>>> =
        OnceLock::new();
    let cache = V.get_or_init(|| std::sync::Mutex::new(std::collections::BTreeMap::new()));
    let a = app(app_name)?;
    {
        let guard = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(v) = guard.get(app_name) {
            return Ok(v);
        }
    }
    // the paper's stopping rule: most specialized without increasing the
    // application's area or energy. Built outside the lock: concurrent
    // first calls may race to build, but every racer produces the
    // identical (cache-reproducible) variant and the map keeps whichever
    // lands first.
    let v = apex_core::most_specialized_variant(a, &miner(), &MergeOptions::default(), tech(), 4)?;
    let mut guard = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let leaked: &'static PeVariant = guard
        .entry(app_name.to_owned())
        .or_insert_with(|| Box::leak(Box::new(v)));
    Ok(leaked)
}

/// The deepest step of [`camera_ladder`]: PE 1 merges nothing, PE 4 the
/// top three subgraphs.
pub(crate) const LADDER_STEPS: usize = 3;

/// The camera-pipeline specialization ladder (PE 1 … PE 4, Fig. 11 /
/// Table 2).
///
/// # Errors
/// Propagates the ladder-construction error of the first build.
pub fn camera_ladder() -> Result<&'static Vec<PeVariant>, ApexError> {
    static V: OnceLock<Result<Vec<PeVariant>, ApexError>> = OnceLock::new();
    V.get_or_init(|| {
        specialization_ladder(
            app("camera")?,
            LADDER_STEPS,
            &miner(),
            &MergeOptions::default(),
            tech(),
        )
    })
    .as_ref()
    .map_err(reraise)
}

/// A variant of this module, named symbolically so that experiments can
/// declare the cells they read (see [`crate::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Shared {
    /// [`baseline`].
    Baseline,
    /// [`pe_ip`].
    Ip,
    /// [`pe_ip2`].
    Ip2,
    /// [`pe_ip3`].
    Ip3,
    /// [`pe_ml`].
    Ml,
    /// [`pe_spec`] for the named application.
    Spec(&'static str),
    /// Step `k` of [`camera_ladder`] (PE `k + 1`).
    Ladder(usize),
}

impl Shared {
    /// The variant, built on first use (or loaded from the variant cache).
    ///
    /// # Errors
    /// The build error, exactly as the accessor returns it.
    pub(crate) fn get(self) -> Result<&'static PeVariant, ApexError> {
        match self {
            Shared::Baseline => baseline(),
            Shared::Ip => pe_ip(),
            Shared::Ip2 => pe_ip2(),
            Shared::Ip3 => pe_ip3(),
            Shared::Ml => pe_ml(),
            Shared::Spec(name) => pe_spec(name),
            Shared::Ladder(k) => camera_ladder()?.get(k).ok_or_else(|| {
                ApexError::new(Stage::Sweep, format!("the camera ladder has no step {k}"))
            }),
        }
    }

    /// The variant an experiment evaluates against application `a` in
    /// Figs. 14–16: its domain's PE.
    pub(crate) fn domain(a: &Application) -> Shared {
        match a.info.domain {
            apex_apps::Domain::ImageProcessing => Shared::Ip,
            apex_apps::Domain::MachineLearning => Shared::Ml,
        }
    }
}

/// Evaluates a variant on an application with shared options.
///
/// # Errors
/// Flow failures surface as a [`Stage::Sweep`] error naming the
/// application and variant (experiments treat them as fatal).
pub fn run(
    variant: &PeVariant,
    application: &Application,
    pipelined: bool,
) -> Result<AppEvaluation, ApexError> {
    evaluate_app(variant, application, tech(), &eval_options(pipelined)).map_err(|e| {
        ApexError::new(
            Stage::Sweep,
            format!(
                "evaluating {} on {}: {e}",
                application.info.name, variant.spec.name
            ),
        )
    })
}

/// Runs a batch of `(variant, application, pipelined)` evaluations on the
/// shared job pool and returns the results in input order.
///
/// Each evaluation is independent and internally deterministic, so the
/// batch is bit-identical to calling [`run`] serially — the pool only
/// changes scheduling, never results. The heavy experiment loops
/// (Table 2/3, Figs. 15–18) all funnel through here.
///
/// # Errors
/// The first failed (or panicked — the pool catches worker panics)
/// evaluation in input order.
pub fn run_batch(
    batch: &[(&PeVariant, &Application, bool)],
) -> Result<Vec<AppEvaluation>, ApexError> {
    apex_par::par_map(apex_par::default_jobs(), batch, |_, (v, a, pipelined)| {
        run(v, a, *pipelined)
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|p| Err(p.into_apex(Stage::Sweep))))
    .collect()
}
