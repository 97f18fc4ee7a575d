//! The report's evaluation plan.
//!
//! Every experiment declares the cells it reads (see
//! [`crate::experiments`]): full place-and-route evaluations
//! `(variant, application, pipelined)`, post-mapping estimates
//! `(variant, application)`, and Fig. 10's subgraph selection per
//! application. Experiments share many cells — the six evaluating ones
//! ask for 75 evaluations, only 38 of them distinct — so [`warm_up`]
//! computes the union of the cells of the experiments about to run, each
//! once, on the job pool, in two phases:
//!
//! 1. build every variant the cells name, and select Fig. 10's subgraphs;
//! 2. evaluate every distinct cell.
//!
//! Results land in a process-wide memo keyed by cell. An experiment then
//! only formats: it reads its cells from the memo, and computes any cell
//! the memo lacks (no warm-up ran, an interrupt or a failed build cut the
//! plan short) itself, exactly as it would without a plan, so its output
//! and its errors do not depend on the plan.
//!
//! Each phase lists its items longest first and [`apex_par::par_map`]
//! starts them in that order, so the longest builds and evaluations never
//! start last.

use crate::context::{app, run, Shared};
use crate::experiments::{declared, post_mapping};
use apex_core::{select_subgraphs, AppEvaluation, SubgraphSelection};
use apex_fault::{ApexError, Stage};
use apex_mining::MinerConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A full place-and-route evaluation: `(variant, application, pipelined)`.
pub(crate) type EvalCell = (Shared, &'static str, bool);

/// A post-mapping estimate: `(variant, application)`.
pub(crate) type MapCell = (Shared, &'static str);

/// One row of Fig. 10: a selected subgraph's pattern, node count and MIS
/// size.
pub(crate) type Selected = (String, usize, usize);

/// The post-mapping PE count, total PE area and PE energy of a cell.
pub(crate) type PostMapping = (usize, f64, f64);

/// The cells one experiment reads, in the order it formats them.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// Applications whose Fig. 10 subgraph selection is read.
    pub(crate) mining: Vec<&'static str>,
    /// Post-mapping cells.
    pub(crate) maps: Vec<MapCell>,
    /// Place-and-route cells.
    pub(crate) evals: Vec<EvalCell>,
}

/// The plan's results, keyed by cell. Only successes are kept: a cell
/// that failed is recomputed by the experiment that reads it, which then
/// reports the error itself.
pub(crate) struct Memo {
    pub(crate) mined: BTreeMap<&'static str, Vec<Selected>>,
    pub(crate) mapped: BTreeMap<MapCell, PostMapping>,
    pub(crate) evaluated: BTreeMap<EvalCell, AppEvaluation>,
}

static MEMO: Mutex<Memo> = Mutex::new(Memo {
    mined: BTreeMap::new(),
    mapped: BTreeMap::new(),
    evaluated: BTreeMap::new(),
});

/// Cells experiments computed themselves because the memo lacked them.
static INLINE: AtomicUsize = AtomicUsize::new(0);

/// The number of cells experiments have computed themselves because no
/// plan had computed them. After [`warm_up`] of the experiments that run
/// (and no failure), it stays where it was.
pub fn cells_computed_inline() -> usize {
    INLINE.load(Ordering::Relaxed)
}

fn memo() -> std::sync::MutexGuard<'static, Memo> {
    // every update inserts one finished value, so a memo poisoned by a
    // panicking job is still valid
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The values of `keys` in order: from the memo's `table`, with the keys
/// it lacks computed by `compute`, which gets their indices into `keys`
/// and returns one value per index, in order.
pub(crate) fn recall<K: Ord, V: Clone>(
    table: fn(&mut Memo) -> &mut BTreeMap<K, V>,
    keys: &[K],
    compute: impl FnOnce(&[usize]) -> Result<Vec<V>, ApexError>,
) -> Result<Vec<V>, ApexError> {
    let mut found: Vec<Option<V>> = {
        let mut memo = memo();
        let table = table(&mut memo);
        keys.iter().map(|k| table.get(k).cloned()).collect()
    };
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| found[i].is_none()).collect();
    if !missing.is_empty() {
        INLINE.fetch_add(missing.len(), Ordering::Relaxed);
        let computed = compute(&missing)?;
        for (i, v) in missing.into_iter().zip(computed) {
            found[i] = Some(v);
        }
    }
    Ok(found.into_iter().flatten().collect())
}

/// Fig. 10's subgraph selection for one application.
///
/// # Errors
/// Mining failures, as a [`Stage::Mine`] error naming the application.
pub(crate) fn select(name: &'static str) -> Result<Vec<Selected>, ApexError> {
    let selection = SubgraphSelection {
        per_app: 4,
        ..SubgraphSelection::default()
    };
    let (subs, _) = select_subgraphs(app(name)?, &MinerConfig::default(), &selection)
        .map_err(|e| ApexError::new(Stage::Mine, format!("mining {name}: {e}")))?;
    Ok(subs
        .iter()
        .map(|m| (m.pattern.to_string(), m.pattern.len(), m.mis_size))
        .collect())
}

/// Phase 1 work: a variant to build or an application to mine.
#[derive(Debug, Clone, Copy)]
enum Prep {
    Build(Shared),
    Mine(&'static str),
}

/// Phase 2 work: a cell to evaluate.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Eval(EvalCell),
    Map(MapCell),
}

/// The distinct cells of the experiments `ids`.
fn union(ids: &[&str]) -> Cells {
    let mut mining = BTreeSet::new();
    let mut maps = BTreeSet::new();
    let mut evals = BTreeSet::new();
    for id in ids {
        let cells = declared(id);
        mining.extend(cells.mining);
        maps.extend(cells.maps);
        evals.extend(cells.evals);
    }
    Cells {
        mining: mining.into_iter().collect(),
        maps: maps.into_iter().collect(),
        evals: evals.into_iter().collect(),
    }
}

/// Phase 1, longest first: the PE IP builds, the PE Spec searches (camera,
/// the largest application, first), the camera ladder, Fig. 10's mining,
/// and the cheap builds last.
fn prep(plan: &Cells) -> Vec<Prep> {
    let variants: BTreeSet<Shared> = plan
        .maps
        .iter()
        .map(|c| c.0)
        .chain(plan.evals.iter().map(|c| c.0))
        // the ladder is built whole
        .map(|v| match v {
            Shared::Ladder(_) => Shared::Ladder(0),
            v => v,
        })
        .collect();
    let rank = |p: &Prep| match *p {
        Prep::Build(Shared::Ip | Shared::Ip2 | Shared::Ip3) => 0,
        Prep::Build(Shared::Spec("camera")) => 1,
        Prep::Build(Shared::Ladder(_)) => 2,
        Prep::Mine("camera") => 3,
        Prep::Build(Shared::Spec(_)) => 4,
        Prep::Mine(_) => 5,
        Prep::Build(Shared::Ml) => 6,
        Prep::Build(Shared::Baseline) => 7,
    };
    let mut items: Vec<Prep> = variants
        .into_iter()
        .map(Prep::Build)
        .chain(plan.mining.iter().copied().map(Prep::Mine))
        .collect();
    items.sort_by_key(rank);
    items
}

/// Phase 2, longest first: evaluations on larger applications first,
/// pipelined before unpipelined, then the post-mapping estimates.
fn evaluate(plan: &Cells) -> Vec<Cell> {
    let size = |name: &str| app(name).map_or(0, |a| a.graph.len());
    let mut evals = plan.evals.clone();
    evals.sort_by_key(|&(_, a, pipelined)| std::cmp::Reverse((size(a), pipelined)));
    let mut maps = plan.maps.clone();
    maps.sort_by_key(|&(_, a)| std::cmp::Reverse(size(a)));
    evals
        .into_iter()
        .map(Cell::Eval)
        .chain(maps.into_iter().map(Cell::Map))
        .collect()
}

/// Computes every cell of the experiments `ids` into the memo, in two
/// phases on the job pool (see the module docs). Nested fan-out inside a
/// job runs inline (see [`apex_par::par_map`]), so the plan never runs
/// more than `jobs` jobs at once. A failed build or cell is left for the
/// experiment that reads it to report; an interrupt skips the items not
/// yet started.
pub fn warm_up(ids: &[&str]) {
    let plan = union(ids);
    let jobs = apex_par::default_jobs();
    apex_par::par_map(jobs, &prep(&plan), |_, item| {
        if apex_fault::interrupt::interrupted() {
            return;
        }
        match *item {
            Prep::Build(v) => {
                let _ = v.get();
            }
            Prep::Mine(name) => {
                if let Ok(rows) = select(name) {
                    memo().mined.insert(name, rows);
                }
            }
        }
    });
    apex_par::par_map(jobs, &evaluate(&plan), |_, cell| {
        if apex_fault::interrupt::interrupted() {
            return;
        }
        match *cell {
            Cell::Eval(c @ (v, a, pipelined)) => {
                if let (Ok(v), Ok(a)) = (v.get(), app(a)) {
                    if let Ok(e) = run(v, a, pipelined) {
                        memo().evaluated.insert(c, e);
                    }
                }
            }
            Cell::Map(c @ (v, a)) => {
                if let (Ok(v), Ok(a)) = (v.get(), app(a)) {
                    if let Ok(m) = post_mapping(v, a) {
                        memo().mapped.insert(c, m);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_experiments;

    #[test]
    fn the_report_plan_computes_each_cell_once() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 12);
        let asked = |f: fn(&Cells) -> usize| ids.iter().map(|id| f(&declared(id))).sum::<usize>();
        assert_eq!(asked(|c| c.evals.len()), 75);
        assert_eq!(asked(|c| c.maps.len()), 45);
        let plan = union(&ids);
        assert_eq!(plan.evals.len(), 38, "distinct evaluation cells");
        assert_eq!(plan.maps.len(), 36, "distinct post-mapping cells");
        assert_eq!(plan.mining.len(), 6, "mining cells");
        // five named variants, six PE Spec searches, the ladder built whole
        let builds = prep(&plan)
            .iter()
            .filter(|p| matches!(p, Prep::Build(_)))
            .count();
        assert_eq!(builds, 12);
    }

    #[test]
    fn phases_list_their_longest_items_first() {
        let plan = union(&["fig10", "fig12", "table2", "table3"]);
        let prep = prep(&plan);
        assert!(matches!(
            prep[0],
            Prep::Build(Shared::Ip | Shared::Ip2 | Shared::Ip3)
        ));
        assert!(matches!(prep.last(), Some(Prep::Build(Shared::Baseline))));
        let cells = evaluate(&plan);
        assert!(matches!(cells[0], Cell::Eval((_, "camera", true))));
        assert!(matches!(cells.last(), Some(Cell::Map(_))));
    }

    #[test]
    fn unknown_and_variant_free_experiments_declare_nothing() {
        for id in ["table1", "fig99"] {
            let c = declared(id);
            assert!(
                c.mining.is_empty() && c.maps.is_empty() && c.evals.is_empty(),
                "{id}"
            );
        }
    }
}
