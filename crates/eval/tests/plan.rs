//! With a plan, experiments only format: after [`warm_up`] of every
//! experiment, running them computes no cell outside the plan. The
//! variant cache is off, so every cell is computed by this process.

use apex_eval::{all_experiments, cells_computed_inline, warm_up};

#[test]
fn warmed_experiments_compute_nothing_inline() {
    std::env::set_var("APEX_CACHE", "off");
    let experiments = all_experiments();
    let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
    warm_up(&ids);
    let before = cells_computed_inline();
    for (id, experiment) in &experiments {
        let table = experiment().unwrap_or_else(|e| panic!("{id}: {}", e.render_chain()));
        assert!(!table.rows.is_empty(), "{id} is empty");
    }
    assert_eq!(
        cells_computed_inline(),
        before,
        "a warmed experiment computed a cell"
    );
    assert_eq!(before, 0, "the warm-up computed every cell of the plan");
}
