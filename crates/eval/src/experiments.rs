//! One generator per table and figure of the paper's Section 5.
//!
//! Each function regenerates its table/figure from the live flow (mining,
//! merging, rule synthesis, mapping, pipelining, place-and-route) and
//! returns a [`Table`] whose rows mirror the paper's. Absolute values
//! differ from the paper's testbed; EXPERIMENTS.md records the
//! paper-vs-measured comparison for every row.
//!
//! The heavyweight generators (Table 2/3, Figs. 15–18) fan their
//! place-and-route evaluations out over [`run_batch`]'s job pool; rows
//! are assembled serially from the in-order results, so the emitted
//! tables are bit-identical at any worker count.

use crate::baselines::{asic, fpga, simba};
use crate::context::{
    all_apps, app, baseline, camera_ladder, pe_ip, pe_ip2, pe_ip3, pe_ml, pe_spec, run_batch,
    tech, Shared,
};
use crate::table::Table;
use apex_apps::{ip_apps, ml_apps, unseen_apps, Application, Domain};
use apex_core::{select_subgraphs, PeVariant, SubgraphSelection};
use apex_fault::{ApexError, Stage};
use apex_map::{map_application, NetKind};
use apex_mining::MinerConfig;
use std::collections::BTreeSet;

/// Table 1: the applications used for DSE evaluation.
///
/// # Errors
/// Infallible today; `Result` for uniformity with the other generators.
pub fn table1() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Table 1: Applications used for the DSE framework evaluation",
        &["Application", "Domain", "Description"],
    );
    for a in all_apps().iter().take(6) {
        t.push(vec![
            a.info.name.clone(),
            a.info.domain.to_string(),
            a.info.description.clone(),
        ]);
    }
    Ok(t)
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
    let miner = MinerConfig::default();
    let selection = SubgraphSelection {
        per_app: 4,
        ..SubgraphSelection::default()
    };
    let analyzed = &all_apps()[..6];
    let mined = apex_par::par_map(apex_par::default_jobs(), analyzed, |_, a| {
        select_subgraphs(a, &miner, &selection)
    });
    for (a, mined) in analyzed.iter().zip(mined) {
        let (subs, _) = mined
            .map_err(|p| p.into_apex(Stage::Mine))?
            .map_err(|e| ApexError::new(Stage::Mine, format!("mining {}: {e}", a.info.name)))?;
        for (k, m) in subs.iter().enumerate() {
            t.push(vec![
                a.info.name.clone(),
                (k + 1).to_string(),
                m.pattern.to_string(),
                m.pattern.len().to_string(),
                m.mis_size.to_string(),
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
    let design = map_application(&application.graph, &variant.spec.datapath, &variant.rules)
        .map_err(|e| {
            ApexError::new(Stage::Map, format!("{}: {e}", application.info.name))
        })?;
    let pe_area = variant.spec.area(tech()).total();
    let mut energy = 0.0;
    for node in &design.netlist.nodes {
        if let NetKind::Pe(inst) = &node.kind {
            let rule = &variant.rules.rules[inst.rule as usize];
            energy += variant.spec.energy(&rule.instantiate(&inst.payloads), tech());
        }
    }
    Ok((
        design.stats.pe_count,
        design.stats.pe_count as f64 * pe_area,
        energy,
    ))
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
    let camera = app("camera")?;
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    {
        let (n, area, energy) = post_mapping(baseline()?, camera)?;
        rows.push(("pe_base".into(), n, area, energy));
    }
    for v in camera_ladder()? {
        let (n, area, energy) = post_mapping(v, camera)?;
        rows.push((v.spec.name.clone(), n, area, energy));
    }
    let (base_area, base_energy) = (rows[0].2, rows[0].3);
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
    let camera = app("camera")?;
    let mut variants: Vec<(&str, &PeVariant)> = vec![("PE Base", baseline()?)];
    let ladder = camera_ladder()?;
    let names = ["PE 1", "PE 2", "PE 3", "PE 4"];
    for (n, v) in names.iter().zip(ladder.iter()) {
        variants.push((n, v));
    }
    let batch: Vec<(&PeVariant, &Application, bool)> =
        variants.iter().map(|(_, v)| (*v, camera, true)).collect();
    for ((name, _), e) in variants.iter().zip(run_batch(&batch)?) {
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
    for a in ip_apps() {
        let (_, base_area, base_energy) = post_mapping(baseline()?, &a)?;
        for v in [pe_ip()?, pe_ip2()?, pe_ip3()?] {
            let (n, area, energy) = post_mapping(v, &a)?;
            t.push(vec![
                a.info.name.clone(),
                v.spec.name.clone(),
                n.to_string(),
                format!("{:.2}x", area / base_area),
                format!("{:.2}x", energy / base_energy),
            ]);
        }
    }
    Ok(t)
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
    for a in unseen_apps() {
        let (nb, base_area, base_energy) = post_mapping(baseline()?, &a)?;
        let (ni, area, energy) = post_mapping(pe_ip()?, &a)?;
        t.push(vec![
            a.info.name.clone(),
            nb.to_string(),
            ni.to_string(),
            format!("{:.2}x", area / base_area),
            format!("{:.2}x", energy / base_energy),
        ]);
    }
    Ok(t)
}

/// The domain variant evaluated against an application in Figs. 14–16.
fn domain_variant(a: &Application) -> Result<&'static PeVariant, ApexError> {
    match a.info.domain {
        Domain::ImageProcessing => pe_ip(),
        Domain::MachineLearning => pe_ml(),
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
    for a in all_apps().iter().take(6) {
        let (nb, base_area, _) = post_mapping(baseline()?, a)?;
        t.push(vec![
            a.info.name.clone(),
            "pe_base".into(),
            nb.to_string(),
            "1.00x".into(),
        ]);
        let domain = domain_variant(a)?;
        for v in [domain, pe_spec(&a.info.name)?] {
            let (n, area, _) = post_mapping(v, a)?;
            t.push(vec![
                a.info.name.clone(),
                v.spec.name.clone(),
                n.to_string(),
                format!("{:.2}x", area / base_area),
            ]);
        }
    }
    Ok(t)
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
    // per analyzed app: baseline, domain variant, per-app PE Spec
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    for a in all_apps().iter().take(6) {
        batch.push((baseline()?, a, false));
        batch.push((domain_variant(a)?, a, false));
        batch.push((pe_spec(&a.info.name)?, a, false));
    }
    let mut results = run_batch(&batch)?.into_iter();
    for a in all_apps().iter().take(6) {
        let (base, dom, spec) = match (results.next(), results.next(), results.next()) {
            (Some(b), Some(d), Some(s)) => (b, d, s),
            _ => unreachable!("run_batch returns one result per job"),
        };
        for (v, e) in [(domain_variant(a)?, dom), (pe_spec(&a.info.name)?, spec)] {
            t.push(vec![
                a.info.name.clone(),
                v.spec.name.clone(),
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
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    let mut labels: Vec<(&str, &Application)> = Vec::new();
    for a in all_apps().iter().take(6) {
        batch.push((baseline()?, a, true));
        labels.push(("baseline", a));
    }
    for a in ip_apps() {
        let a = app(&a.info.name)?;
        batch.push((pe_ip()?, a, true));
        labels.push(("pe_ip", a));
        batch.push((pe_spec(&a.info.name)?, a, true));
        labels.push(("pe_spec", a));
    }
    for a in ml_apps() {
        let a = app(&a.info.name)?;
        batch.push((pe_ml()?, a, true));
        labels.push(("pe_ml", a));
    }
    for ((variant_name, a), e) in labels.iter().zip(run_batch(&batch)?) {
        t.push(vec![
            (*variant_name).to_owned(),
            a.info.name.clone(),
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

/// Fig. 16: pre- vs post-pipelining area, energy, and performance/mm².
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig16() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 16: Impact of PE and application pipelining",
        &["Application", "Variant", "Period pre ns", "Period post ns", "Perf/mm2 gain", "Area cost", "#RF", "#Reg"],
    );
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    for a in all_apps().iter().take(6) {
        for v in [baseline()?, domain_variant(a)?] {
            batch.push((v, a, false));
            batch.push((v, a, true));
        }
    }
    let mut results = run_batch(&batch)?.into_iter();
    for a in all_apps().iter().take(6) {
        for v in [baseline()?, domain_variant(a)?] {
            let (pre, post) = match (results.next(), results.next()) {
                (Some(pre), Some(post)) => (pre, post),
                _ => unreachable!("run_batch returns one result per job"),
            };
            t.push(vec![
                a.info.name.clone(),
                v.spec.name.clone(),
                format!("{:.2}", pre.period_ns),
                format!("{:.2}", post.period_ns),
                format!("{:.2}x", post.perf_per_mm2() / pre.perf_per_mm2()),
                format!("{:.2}x", post.area.total() / pre.area.total()),
                post.pnr.rf_tiles.to_string(),
                post.pnr.sb_regs.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Fig. 17: energy and runtime of the IP applications on an FPGA, the
/// baseline CGRA, the CGRA with PE IP, and an ASIC.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig17() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 17: FPGA vs baseline CGRA vs CGRA-IP vs ASIC (per frame)",
        &["Application", "Platform", "Energy uJ", "Runtime ms"],
    );
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    for a in ip_apps() {
        let a = app(&a.info.name)?;
        batch.push((baseline()?, a, true));
        batch.push((pe_ip()?, a, true));
    }
    let mut results = run_batch(&batch)?.into_iter();
    for a in ip_apps() {
        let a = app(&a.info.name)?;
        let f = fpga(a, tech());
        t.push(vec![
            a.info.name.clone(),
            "FPGA".into(),
            format!("{:.1}", f.energy_uj),
            format!("{:.3}", f.runtime_ms),
        ]);
        for name in ["CGRA base", "CGRA-IP"] {
            let Some(e) = results.next() else {
                unreachable!("run_batch returns one result per job")
            };
            t.push(vec![
                a.info.name.clone(),
                name.into(),
                format!("{:.1}", e.total_energy_uj()),
                format!("{:.3}", e.runtime_ms()),
            ]);
        }
        let s = asic(a, tech());
        t.push(vec![
            a.info.name.clone(),
            "ASIC".into(),
            format!("{:.1}", s.energy_uj),
            format!("{:.3}", s.runtime_ms),
        ]);
    }
    Ok(t)
}

/// Fig. 18: ML layers on an FPGA, the baseline CGRA, CGRA-ML, and Simba.
///
/// # Errors
/// Propagates variant-construction and evaluation failures.
pub fn fig18() -> Result<Table, ApexError> {
    let mut t = Table::new(
        "Fig. 18: ML applications vs FPGA and Simba (per layer)",
        &["Application", "Platform", "Energy uJ", "Runtime ms"],
    );
    let mut batch: Vec<(&PeVariant, &Application, bool)> = Vec::new();
    for a in ml_apps() {
        let a = app(&a.info.name)?;
        batch.push((baseline()?, a, true));
        batch.push((pe_ml()?, a, true));
    }
    let mut results = run_batch(&batch)?.into_iter();
    for a in ml_apps() {
        let a = app(&a.info.name)?;
        let f = fpga(a, tech());
        t.push(vec![
            a.info.name.clone(),
            "FPGA".into(),
            format!("{:.1}", f.energy_uj),
            format!("{:.3}", f.runtime_ms),
        ]);
        for name in ["CGRA base", "CGRA-ML"] {
            let Some(e) = results.next() else {
                unreachable!("run_batch returns one result per job")
            };
            t.push(vec![
                a.info.name.clone(),
                name.into(),
                format!("{:.1}", e.total_energy_uj()),
                format!("{:.3}", e.runtime_ms()),
            ]);
        }
        let s = simba(a, tech());
        t.push(vec![
            a.info.name.clone(),
            "Simba".into(),
            format!("{:.1}", s.energy_uj),
            format!("{:.3}", s.runtime_ms),
        ]);
    }
    Ok(t)
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

/// The shared variants experiment `id` reads (none for an unknown id).
fn needs(id: &str) -> Vec<Shared> {
    // PE Spec for each analyzed application of `domain` (all six for None)
    let spec = |domain: Option<Domain>| -> Vec<Shared> {
        all_apps()
            .iter()
            .take(6)
            .filter(|a| domain.is_none_or(|d| a.info.domain == d))
            .map(|a| Shared::Spec(a.info.name.as_str()))
            .collect()
    };
    let mut out = match id {
        "fig11" | "table2" => vec![Shared::CameraLadder],
        "fig12" => vec![Shared::Ip, Shared::Ip2, Shared::Ip3],
        "fig13" | "fig17" => vec![Shared::Ip],
        "fig14" | "fig15" => [spec(None), vec![Shared::Ip, Shared::Ml]].concat(),
        "table3" => [spec(Some(Domain::ImageProcessing)), vec![Shared::Ip, Shared::Ml]].concat(),
        "fig16" => vec![Shared::Ip, Shared::Ml],
        "fig18" => vec![Shared::Ml],
        _ => return Vec::new(),
    };
    out.push(Shared::Baseline);
    out
}

/// Builds every shared variant the experiments `ids` read, on the job
/// pool and PE Spec searches first, so that the experiments (which still run one
/// after another and read their variants lazily) find them memoized.
/// Nested fan-out inside a build runs inline (see [`apex_par::par_map`]),
/// so the warm-up never runs more than `jobs` builds at once. A build
/// error is left for the experiment that reads the variant to report; an
/// interrupt skips the builds not yet started.
pub fn warm_up(ids: &[&str]) {
    let shared: BTreeSet<Shared> = ids.iter().flat_map(|id| needs(id)).collect();
    let shared: Vec<Shared> = shared.into_iter().collect();
    apex_par::par_map(apex_par::default_jobs(), &shared, |_, v| {
        if !apex_fault::interrupt::interrupted() {
            let _ = v.build();
        }
    });
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
