//! One generator per table and figure of the paper's Section 5.
//!
//! Each function regenerates its table/figure from the live flow (mining,
//! merging, rule synthesis, mapping, pipelining, place-and-route) and
//! returns a [`Table`] whose rows mirror the paper's. Absolute values
//! differ from the paper's testbed; EXPERIMENTS.md records the
//! paper-vs-measured comparison for every row.
//!
//! Each generator declares the cells it reads (see [`crate::plan`]) and
//! formats them: cells the plan computed come from its memo, any others
//! are computed here — place-and-route evaluations on [`run_batch`]'s job
//! pool — so the emitted tables are bit-identical at any worker count,
//! with or without a plan.

use crate::baselines::{asic, fpga, simba};
use crate::context::{all_apps, app, run_batch, tech, Shared, LADDER_STEPS};
use crate::plan::{self, recall, Cells, PostMapping};
use crate::table::Table;
use apex_apps::{Application, Domain};
use apex_core::{post_mapping_estimate, AppEvaluation, EvalError, PeVariant};
use apex_fault::{ApexError, Stage};

/// The six analyzed applications (Table 1).
fn analyzed() -> impl Iterator<Item = &'static Application> {
    all_apps().iter().take(6)
}

/// The analyzed applications of one domain.
fn analyzed_in(domain: Domain) -> impl Iterator<Item = &'static Application> {
    analyzed().filter(move |a| a.info.domain == domain)
}

/// The applications not analyzed for any variant (Fig. 13).
fn unseen() -> impl Iterator<Item = &'static Application> {
    all_apps().iter().skip(6)
}

fn name(a: &'static Application) -> &'static str {
    a.info.name.as_str()
}

/// The cells experiment `id` reads (none for an unknown id).
pub(crate) fn declared(id: &str) -> Cells {
    match id {
        "fig10" => fig10_cells(),
        "fig11" => fig11_cells(),
        "table2" => table2_cells(),
        "fig12" => fig12_cells(),
        "fig13" => fig13_cells(),
        "fig14" => fig14_cells(),
        "fig15" => fig15_cells(),
        "table3" => table3_cells(),
        "fig16" => fig16_cells(),
        "fig17" => fig17_cells(),
        "fig18" => fig18_cells(),
        _ => Cells::default(),
    }
}

/// The post-mapping estimate of `v` on `a`, from the plan or computed
/// here.
///
/// # Errors
/// The variant's build error, or the mapping error of [`post_mapping`].
fn post_mapped(v: Shared, a: &'static str) -> Result<PostMapping, ApexError> {
    let (variant, application) = (v.get()?, app(a)?);
    let mut out = recall(|m| &mut m.mapped, &[(v, a)], |_| {
        Ok(vec![post_mapping(variant, application)?])
    })?;
    out.pop()
        .ok_or_else(|| ApexError::new(Stage::Map, format!("{a}: no post-mapping result")))
}

/// The evaluations of `cells`, in order: every cell's variant first (so a
/// build error surfaces before any evaluation), then each evaluation from
/// the plan, or computed here on the job pool.
///
/// # Errors
/// The first build error, then the first failed evaluation, in cell
/// order.
fn evaluations(cells: &Cells) -> Result<Vec<AppEvaluation>, ApexError> {
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    for &(v, a, pipelined) in &cells.evals {
        batch.push((v.get()?, app(a)?, pipelined));
    }
    recall(|m| &mut m.evaluated, &cells.evals, |missing| {
        let todo: Vec<_> = missing.iter().map(|&i| batch[i]).collect();
        run_batch(&todo)
    })
}

/// Table 1: the applications used for DSE evaluation.
///
/// # Errors
/// Infallible today; `Result` for uniformity with the other generators.
pub fn table1() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Table 1: Applications used for the DSE framework evaluation",
        &["Application", "Domain", "Description"],
    );
    for a in analyzed() {
        t.push(vec![
            a.info.name.clone(),
            a.info.domain.to_string(),
            a.info.description.clone(),
        ]);
    }
    Ok(t)
}

fn fig10_cells() -> Cells {
    Cells {
        mining: analyzed().map(name).collect(),
        ..Cells::default()
    }
}

/// Fig. 10: the frequent subgraphs selected for merging, per application,
/// in MIS order.
///
/// # Errors
/// Propagates mining failures.
pub fn fig10() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 10: Subgraphs selected for PE construction (MIS order)",
        &["Application", "Rank", "Subgraph", "Nodes", "MIS"],
    );
    let apps = fig10_cells().mining;
    let selected = recall(|m| &mut m.mined, &apps, |missing| {
        apex_par::par_map(apex_par::default_jobs(), missing, |_, &i| plan::select(apps[i]))
            .into_iter()
            .map(|r| r.map_err(|p| p.into_apex(Stage::Mine))?)
            .collect()
    })?;
    for (a, subs) in apps.iter().zip(selected) {
        for (k, (pattern, nodes, mis)) in subs.into_iter().enumerate() {
            t.push(vec![
                (*a).to_owned(),
                (k + 1).to_string(),
                pattern,
                nodes.to_string(),
                mis.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Post-mapping PE-core totals (no place-and-route): the quick estimate of
/// Section 5.3.1.
///
/// # Errors
/// Propagates mapping failures as a [`Stage::Map`] error naming the
/// application.
pub fn post_mapping(
    variant: &PeVariant,
    application: &Application,
) -> Result<(usize, f64, f64), ApexError> {
    post_mapping_estimate(variant, application, tech()).map_err(|e| {
        let e = match e {
            EvalError::Map(e) => e.to_string(),
            e => e.to_string(),
        };
        ApexError::new(Stage::Map, format!("{}: {e}", application.info.name))
    })
}

/// The baseline and every step of the camera ladder (Fig. 11, Table 2).
fn base_and_ladder() -> impl Iterator<Item = Shared> {
    std::iter::once(Shared::Baseline).chain((0..=LADDER_STEPS).map(Shared::Ladder))
}

fn fig11_cells() -> Cells {
    Cells {
        maps: base_and_ladder().map(|v| (v, "camera")).collect(),
        ..Cells::default()
    }
}

/// Fig. 11: camera-pipeline PE specialization sweep (baseline, PE 1..4) —
/// total PE area and PE energy.
///
/// # Errors
/// Propagates variant-construction and mapping failures.
pub fn fig11() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 11: Camera-pipeline specialization (PE core level)",
        &["Variant", "#PEs", "Area/PE um2", "Total PE area um2", "PE energy pJ/cycle", "Area vs base", "Energy vs base"],
    );
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (v, a) in fig11_cells().maps {
        let (n, area, energy) = post_mapped(v, a)?;
        rows.push((v.get()?.spec.name.clone(), n, area, energy));
    }
    let Some(&(_, _, base_area, base_energy)) = rows.first() else {
        return Ok(t);
    };
    for (name, n, area, energy) in rows {
        t.push(vec![
            name,
            n.to_string(),
            format!("{:.1}", area / n as f64),
            format!("{area:.0}"),
            format!("{energy:.1}"),
            format!("{:.2}x", area / base_area),
            format!("{:.2}x", energy / base_energy),
        ]);
    }
    Ok(t)
}

fn table2_cells() -> Cells {
    Cells {
        evals: base_and_ladder().map(|v| (v, "camera", true)).collect(),
        ..Cells::default()
    }
}

/// Table 2: camera-pipeline performance per mm² across the ladder
/// (pipelined designs at the 1.1 ns clock, 1920×1080 frames).
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn table2() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Table 2: Camera pipeline on each PE variant (1.1 ns clock)",
        &["PE Variant", "#PEs", "Area/PE um2", "Total Area um2", "Frames/ms/mm2"],
    );
    let names = ["PE Base", "PE 1", "PE 2", "PE 3", "PE 4"];
    for (name, e) in names.iter().zip(evaluations(&table2_cells())?) {
        let area_per_pe = e.pe_core_area / e.pnr.pe_tiles as f64;
        t.push(vec![
            (*name).to_owned(),
            e.pnr.pe_tiles.to_string(),
            format!("{area_per_pe:.2}"),
            format!("{:.0}", e.pe_core_area),
            format!("{:.2}", e.perf_per_pe_mm2()),
        ]);
    }
    Ok(t)
}

fn fig12_cells() -> Cells {
    let variants = [Shared::Baseline, Shared::Ip, Shared::Ip2, Shared::Ip3];
    Cells {
        maps: analyzed_in(Domain::ImageProcessing)
            .flat_map(|a| variants.map(|v| (v, name(a))))
            .collect(),
        ..Cells::default()
    }
}

/// Post-mapping rows of `a`'s `variants`, normalized to `base`: every
/// variant is built before any is mapped.
///
/// # Errors
/// The first build error, then the first mapping error.
fn vs_base(
    base: PostMapping,
    variants: &[(Shared, &'static str)],
) -> Result<Vec<(&'static PeVariant, PostMapping, f64, f64)>, ApexError> {
    let (_, base_area, base_energy) = base;
    let built: Vec<&'static PeVariant> = variants
        .iter()
        .map(|&(v, _)| v.get())
        .collect::<Result<_, _>>()?;
    let mut rows = Vec::new();
    for (variant, &(v, a)) in built.into_iter().zip(variants) {
        let m = post_mapped(v, a)?;
        rows.push((variant, m, m.1 / base_area, m.2 / base_energy));
    }
    Ok(rows)
}

/// Fig. 12: PE IP vs PE IP2 vs PE IP3 across the four IP applications
/// (post-mapping PE area and energy, normalized to the baseline PE).
///
/// # Errors
/// Propagates variant-construction and mapping failures.
pub fn fig12() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 12: Degree of merging across IP applications (vs baseline)",
        &["Application", "Variant", "#PEs", "Area vs base", "Energy vs base"],
    );
    for row in fig12_cells().maps.chunks(4) {
        let [(base, a), variants @ ..] = row else { continue };
        for (v, (n, _, _), area, energy) in vs_base(post_mapped(*base, a)?, variants)? {
            t.push(vec![
                (*a).to_owned(),
                v.spec.name.clone(),
                n.to_string(),
                format!("{area:.2}x"),
                format!("{energy:.2}x"),
            ]);
        }
    }
    Ok(t)
}

fn fig13_cells() -> Cells {
    Cells {
        maps: unseen()
            .flat_map(|a| [Shared::Baseline, Shared::Ip].map(|v| (v, name(a))))
            .collect(),
        ..Cells::default()
    }
}

/// Fig. 13: applications *not* analyzed during PE IP creation, on the
/// baseline vs PE IP (domain generalization).
///
/// # Errors
/// Propagates variant-construction and mapping failures.
pub fn fig13() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 13: Unseen applications on PE IP (vs baseline PE)",
        &["Application", "#PEs base", "#PEs IP", "Area vs base", "Energy vs base"],
    );
    for row in fig13_cells().maps.chunks(2) {
        let &[(base, a), (ip, _)] = row else { continue };
        let (nb, base_area, base_energy) = post_mapped(base, a)?;
        let (ni, area, energy) = post_mapped(ip, a)?;
        t.push(vec![
            a.to_owned(),
            nb.to_string(),
            ni.to_string(),
            format!("{:.2}x", area / base_area),
            format!("{:.2}x", energy / base_energy),
        ]);
    }
    Ok(t)
}

/// Per analyzed application: the baseline, its domain variant and its
/// PE Spec (Figs. 14 and 15).
fn base_domain_spec() -> impl Iterator<Item = (Shared, &'static str)> {
    analyzed().flat_map(|a| {
        [Shared::Baseline, Shared::domain(a), Shared::Spec(name(a))].map(|v| (v, name(a)))
    })
}

fn fig14_cells() -> Cells {
    Cells {
        maps: base_domain_spec().collect(),
        ..Cells::default()
    }
}

/// Fig. 14: post-mapping comparison of baseline, PE IP/ML, and PE Spec
/// across all six analyzed applications (PE contributions only).
///
/// # Errors
/// Propagates variant-construction and mapping failures.
pub fn fig14() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 14: Post-mapping PE-core area (normalized to baseline)",
        &["Application", "Variant", "#PEs", "Area vs base"],
    );
    for row in fig14_cells().maps.chunks(3) {
        let [(base, a), variants @ ..] = row else { continue };
        let base = post_mapped(*base, a)?;
        t.push(vec![
            (*a).to_owned(),
            "pe_base".into(),
            base.0.to_string(),
            "1.00x".into(),
        ]);
        for (v, (n, _, _), area, _) in vs_base(base, variants)? {
            t.push(vec![
                (*a).to_owned(),
                v.spec.name.clone(),
                n.to_string(),
                format!("{area:.2}x"),
            ]);
        }
    }
    Ok(t)
}

fn fig15_cells() -> Cells {
    Cells {
        evals: base_domain_spec().map(|(v, a)| (v, a, false)).collect(),
        ..Cells::default()
    }
}

/// Fig. 15: post-place-and-route CGRA area and energy including the
/// interconnect, normalized to the baseline CGRA.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig15() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 15: Post-PnR CGRA area/energy incl. interconnect (vs baseline)",
        &["Application", "Variant", "Area vs base", "Energy vs base", "SB area vs base", "CB area vs base"],
    );
    let cells = fig15_cells();
    let results = evaluations(&cells)?;
    for (row, results) in cells.evals.chunks(3).zip(results.chunks(3)) {
        let ([_, variants @ ..], [base, results @ ..]) = (row, results) else { continue };
        for (&(v, a, _), e) in variants.iter().zip(results) {
            t.push(vec![
                a.to_owned(),
                v.get()?.spec.name.clone(),
                format!("{:.2}x", e.area.total() / base.area.total()),
                format!(
                    "{:.2}x",
                    e.energy_per_cycle.total() / base.energy_per_cycle.total()
                ),
                format!("{:.2}x", e.area.sb / base.area.sb),
                format!("{:.2}x", e.area.cb / base.area.cb),
            ]);
        }
    }
    Ok(t)
}

fn table3_cells() -> Cells {
    let base = analyzed().map(|a| (Shared::Baseline, name(a)));
    let ip = analyzed_in(Domain::ImageProcessing)
        .flat_map(|a| [(Shared::Ip, name(a)), (Shared::Spec(name(a)), name(a))]);
    let ml = analyzed_in(Domain::MachineLearning).map(|a| (Shared::Ml, name(a)));
    Cells {
        evals: base.chain(ip).chain(ml).map(|(v, a)| (v, a, true)).collect(),
        ..Cells::default()
    }
}

/// Table 3: post-pipelining resource utilization of the CGRA per
/// application and variant.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn table3() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Table 3: Post-pipelining resource utilization",
        &["Variant", "Application", "#PE", "#MEM", "#RF", "#IO", "#Reg", "#Routing"],
    );
    let cells = table3_cells();
    for (&(v, a, _), e) in cells.evals.iter().zip(evaluations(&cells)?) {
        let label = match v {
            Shared::Baseline => "baseline".to_owned(),
            Shared::Spec(_) => "pe_spec".to_owned(),
            v => v.get()?.spec.name.clone(),
        };
        t.push(vec![
            label,
            a.to_owned(),
            e.pnr.pe_tiles.to_string(),
            e.pnr.mem_tiles.to_string(),
            e.pnr.rf_tiles.to_string(),
            e.pnr.io_tiles.to_string(),
            e.pnr.sb_regs.to_string(),
            e.pnr.routing_tiles.to_string(),
        ]);
    }
    Ok(t)
}

fn fig16_cells() -> Cells {
    Cells {
        evals: analyzed()
            .flat_map(|a| {
                [Shared::Baseline, Shared::domain(a)]
                    .into_iter()
                    .flat_map(move |v| [(v, name(a), false), (v, name(a), true)])
            })
            .collect(),
        ..Cells::default()
    }
}

/// Fig. 16: pre- vs post-pipelining area, energy, and performance/mm².
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig16() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 16: Impact of PE and application pipelining",
        &["Application", "Variant", "Period pre ns", "Period post ns", "Perf/mm2 gain", "Area cost", "#RF", "#Reg"],
    );
    let cells = fig16_cells();
    let results = evaluations(&cells)?;
    for (pair, results) in cells.evals.chunks(2).zip(results.chunks(2)) {
        let ([(v, a, _), _], [pre, post]) = (pair, results) else { continue };
        t.push(vec![
            (*a).to_owned(),
            v.get()?.spec.name.clone(),
            format!("{:.2}", pre.period_ns),
            format!("{:.2}", post.period_ns),
            format!("{:.2}x", post.perf_per_mm2() / pre.perf_per_mm2()),
            format!("{:.2}x", post.area.total() / pre.area.total()),
            post.pnr.rf_tiles.to_string(),
            post.pnr.sb_regs.to_string(),
        ]);
    }
    Ok(t)
}

/// The pipelined baseline and `v` on each analyzed application of
/// `domain` (Figs. 17 and 18).
fn base_and(domain: Domain, v: Shared) -> Cells {
    Cells {
        evals: analyzed_in(domain)
            .flat_map(|a| [(Shared::Baseline, name(a), true), (v, name(a), true)])
            .collect(),
        ..Cells::default()
    }
}

fn fig17_cells() -> Cells {
    base_and(Domain::ImageProcessing, Shared::Ip)
}

fn fig18_cells() -> Cells {
    base_and(Domain::MachineLearning, Shared::Ml)
}

/// An analytic comparator platform (see [`crate::baselines`]).
type Comparator = fn(&Application, &apex_tech::TechModel) -> crate::PlatformResult;

/// Per-frame energy and runtime of each application of `cells` on an
/// FPGA, on the two CGRAs of its cells (named by `cgras`), and on the
/// `other` comparator platform (Figs. 17 and 18).
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
fn platforms(
    title: &str,
    cells: &Cells,
    cgras: [&str; 2],
    other: (&str, Comparator),
) -> Result<Table, ApexError> {
    let mut t = Table::new(title, &["Application", "Platform", "Energy uJ", "Runtime ms"]);
    let results = evaluations(cells)?;
    for (pair, results) in cells.evals.chunks(2).zip(results.chunks(2)) {
        let [(_, a, _), _] = pair else { continue };
        let a = app(a)?;
        let row = |platform: &str, energy_uj: f64, runtime_ms: f64| {
            vec![
                a.info.name.clone(),
                platform.to_owned(),
                format!("{energy_uj:.1}"),
                format!("{runtime_ms:.3}"),
            ]
        };
        let f = fpga(a, tech());
        t.push(row("FPGA", f.energy_uj, f.runtime_ms));
        for (name, e) in cgras.iter().zip(results) {
            t.push(row(name, e.total_energy_uj(), e.runtime_ms()));
        }
        let s = (other.1)(a, tech());
        t.push(row(other.0, s.energy_uj, s.runtime_ms));
    }
    Ok(t)
}

/// Fig. 17: energy and runtime of the IP applications on an FPGA, the
/// baseline CGRA, the CGRA with PE IP, and an ASIC.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig17() -> Result<Table, ApexError> {
    platforms(
        "Fig. 17: FPGA vs baseline CGRA vs CGRA-IP vs ASIC (per frame)",
        &fig17_cells(),
        ["CGRA base", "CGRA-IP"],
        ("ASIC", asic),
    )
}

/// Fig. 18: ML layers on an FPGA, the baseline CGRA, CGRA-ML, and Simba.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig18() -> Result<Table, ApexError> {
    platforms(
        "Fig. 18: ML applications vs FPGA and Simba (per layer)",
        &fig18_cells(),
        ["CGRA base", "CGRA-ML"],
        ("Simba", simba),
    )
}

/// Every experiment, keyed by its paper identifier.
pub fn all_experiments() -> Vec<(&'static str, fn() -> Result<Table, ApexError>)> {
    vec![
        ("table1", table1 as fn() -> Result<Table, ApexError>),
        ("fig10", fig10),
        ("fig11", fig11),
        ("table2", table2),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("table3", table3),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
    ]
}

// The experiment generators double as this crate's deep integration
// tests; the cheap ones run here, the heavyweight ones in `tests/`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_six_apps() {
        let t = table1().unwrap();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.cell(0, "Application"), Some("camera"));
        assert_eq!(t.cell(4, "Domain"), Some("ML"));
    }

    #[test]
    fn fig10_selects_ranked_subgraphs() {
        let t = fig10().unwrap();
        assert!(t.rows.len() >= 6, "every app contributes subgraphs");
        // MIS values are positive
        for r in 0..t.rows.len() {
            assert!(t.cell_f64(r, "MIS").unwrap() >= 1.0);
        }
    }

    #[test]
    fn unknown_app_is_a_parse_error_not_a_panic() {
        let e = app("nonexistent").unwrap_err();
        assert_eq!(e.stage(), Stage::Parse);
        let chain = e.render_chain();
        assert!(chain.contains("unknown application 'nonexistent'"), "{chain}");
        assert!(chain.contains("camera"), "lists known apps: {chain}");
    }

    #[test]
    fn eval_options_reduce_moves() {
        let o = crate::context::eval_options(false);
        assert!(o.place.moves < 40_000);
        assert!(!o.pipelined);
        assert!(crate::context::eval_options(true).pipelined);
    }
}
