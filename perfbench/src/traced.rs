//! The traced runs (`--trace 1`): the workload's inputs driven through
//! the crates' public functions in-process, one span per call, with
//! `APEX_JOBS=1` so spans never overlap. Produces the per-layer metrics.

use crate::replay::{
    app, baseline_recipe, report_evaluations, report_recipes, report_variant, Replayer, ANALYZED,
};
use crate::report::{report_cmd, report_ok};
use crate::serve::{Class, Graphs};
use crate::trace::Tracer;
use crate::util::{expected, median, report_digest, run_timed};
use crate::Outcome;
use apex::apps::{AppInfo, Application, Domain};
use apex::core::{encode_variant, JobReport, SweepJournal, VariantCache};
use apex::fault::Provenance;
use apex::mining::MinerConfig;
use apex::serve::{Admission, JobTable};
use std::path::Path;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// `<layer>.<stage>_ms` metric is the total self time of the spans named
/// `<layer>.<stage>`; every other metric is a counter of the same name.
/// Layers a workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ms", "ms"),
    ("ir.eval_ms", "ms"),
    ("mining.mine_ms", "ms"),
    ("mining.mis_ms", "ms"),
    ("mining.subgraphs", "count"),
    ("mining.truncated", "count"),
    ("merge.merge_ms", "ms"),
    ("merge.merged", "count"),
    ("merge.fallbacks", "count"),
    ("rewrite.synth_ms", "ms"),
    ("rewrite.rules", "count"),
    ("rewrite.missing", "count"),
    ("map.select_ms", "ms"),
    ("map.pes", "count"),
    ("map.sim_ms", "ms"),
    ("map.sim_cycles", "count"),
    ("map.sim_mismatches", "count"),
    ("pipeline.pe_ms", "ms"),
    ("pipeline.app_ms", "ms"),
    ("pipeline.regs", "count"),
    ("cgra.place_ms", "ms"),
    ("cgra.route_ms", "ms"),
    ("cgra.route_hops", "count"),
    ("cgra.verify_ms", "ms"),
    ("cgra.stats_ms", "ms"),
    ("cgra.bitstream_ms", "ms"),
    ("cgra.bitstream_bits", "count"),
    ("core.select_ms", "ms"),
    ("core.variant_build_ms", "ms"),
    ("core.variants_built", "count"),
    ("core.evaluate_ms", "ms"),
    ("core.evaluations", "count"),
    ("core.degradations", "count"),
    ("core.cache_load_ms", "ms"),
    ("core.cache_lookups", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_store_ms", "ms"),
    ("core.journal_append_ms", "ms"),
    ("eval.table1_ms", "ms"),
    ("eval.fig10_ms", "ms"),
    ("eval.fig11_ms", "ms"),
    ("eval.table2_ms", "ms"),
    ("eval.fig12_ms", "ms"),
    ("eval.fig13_ms", "ms"),
    ("eval.fig14_ms", "ms"),
    ("eval.fig15_ms", "ms"),
    ("eval.table3_ms", "ms"),
    ("eval.fig16_ms", "ms"),
    ("eval.fig17_ms", "ms"),
    ("eval.fig18_ms", "ms"),
    ("par.efficiency", "ratio"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.latency_fresh_p50_ms", "ms"),
    ("serve.latency_repeat_p50_ms", "ms"),
    ("serve.latency_dedup_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.share_fresh", "ratio"),
    ("serve.share_repeat", "ratio"),
    ("serve.share_dedup", "ratio"),
    ("bench.trace_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

fn finish(tr: &Tracer, attempted: u64, failed: u64) -> Outcome {
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    for &(name, unit) in PER_LAYER {
        let value = match name.strip_suffix("_ms") {
            Some(span) if tr.counter(name) == 0.0 => tr.self_ms(span),
            _ => tr.counter(name),
        };
        out.metric(name, value, unit);
    }
    out
}

fn span_name(experiment: &str) -> &'static str {
    Box::leak(format!("eval.{experiment}").into_boxed_str())
}

/// `report_cold` / `report_warm`, traced. Phases:
///
/// 1. the report itself — every experiment under an `eval.<id>` span,
///    output checked against the pinned digest;
/// 2. cold: every variant the report builds, rebuilt under
///    `core.variant_build` and replayed stage by stage; warm: every
///    cache entry loaded (`core.cache_load`) and stored again
///    (`core.cache_store`);
/// 3. every distinct full-flow evaluation of the report, replayed stage
///    by stage with the functional oracle.
///
/// Then untraced `apex report --jobs 1` and `--jobs 2` runs give the
/// tracing overhead (phase 1 against `--jobs 1`) and `par.efficiency`.
pub fn report(apex: &Path, work: &Path, seed: u64, warm: bool) -> std::io::Result<Outcome> {
    apex::par::set_jobs(1);
    std::env::set_var("APEX_JOURNAL", "off");
    let cache_dir = work.join("cache");
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    if warm {
        let fill = run_timed(&mut report_cmd(apex, 2, Some(&cache_dir)))?;
        tally(report_ok(&fill, "traced report_warm fill"));
        std::env::remove_var("APEX_CACHE");
        std::env::set_var("APEX_CACHE_DIR", &cache_dir);
    } else {
        std::env::set_var("APEX_CACHE", "off");
    }

    let mut tr = Tracer::new();
    let mut text = String::new();
    for (name, experiment) in apex::eval::all_experiments() {
        match tr.span(span_name(name), |_| experiment()) {
            Ok(table) => text.push_str(&format!("{table}\n")),
            Err(e) => eprintln!("perfbench: {name}: {}", e.render_chain()),
        }
    }
    let report_ms = tr.wall_ms();
    let digest_ok =
        format!("{:016x}", report_digest(&text)) == expected("report_digest").unwrap_or_default();
    tally(digest_ok);
    // a cold report makes no cache lookups; a warm one only hits
    let cache = VariantCache::shared();
    let lookups = cache.hits() + cache.misses();
    tally(if warm {
        lookups > 0 && cache.misses() == 0
    } else {
        lookups == 0
    });
    tr.set("core.cache_lookups", lookups as f64);
    tr.set(
        "core.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits() as f64 / lookups as f64
        },
    );

    let mut rp = Replayer::new(
        &mut tr,
        MinerConfig {
            max_patterns: 500,
            ..MinerConfig::default()
        },
        seed,
    );
    if warm {
        let store = VariantCache::at(work.join("store"));
        let loader = VariantCache::at(&cache_dir);
        let mut keys: Vec<u64> = std::fs::read_dir(&cache_dir)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                u64::from_str_radix(name.strip_suffix(".var")?, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        for key in keys {
            let v = rp.tr.span("core.cache_load", |_| loader.load(key));
            if let Some(v) = v {
                rp.tr.span("core.cache_store", |_| store.store(key, &v));
            }
        }
    } else {
        for r in report_recipes() {
            let built = rp.build(&r);
            let same = built.is_some_and(|v| {
                report_variant(&r.name).is_some_and(|w| encode_variant(&v) == encode_variant(w))
            });
            rp.check(
                same,
                &format!("{} differs from the report's variant", r.name),
            );
        }
        for name in ANALYZED {
            let chosen = rp.spec_variant(app(name));
            let same = chosen.is_some_and(|v| {
                report_variant(&format!("pe_spec_{name}"))
                    .is_some_and(|w| encode_variant(&v) == encode_variant(w))
            });
            rp.check(
                same,
                &format!("pe_spec_{name} differs from the report's variant"),
            );
        }
    }
    for (variant, a, pipelined) in report_evaluations() {
        match report_variant(&variant) {
            Some(v) => rp.evaluate(v, a, &apex::eval::context::eval_options(pipelined)),
            None => {
                rp.check(false, &format!("the report has no variant {variant}"));
            }
        }
    }
    let (rp_attempted, rp_failed) = (rp.attempted, rp.failed);
    attempted += rp_attempted;
    failed += rp_failed;
    let traced_ms = tr.wall_ms();
    tr.set("bench.trace_coverage", tr.all_self_ms() / traced_ms);

    let dir = warm.then_some(cache_dir.as_path());
    let jobs1 = run_timed(&mut report_cmd(apex, 1, dir))?;
    let jobs2 = run_timed(&mut report_cmd(apex, 2, dir))?;
    for (f, what) in [(&jobs1, "--jobs 1"), (&jobs2, "--jobs 2")] {
        let ok = report_ok(f, what);
        attempted += 1;
        failed += u64::from(!ok);
    }
    tr.set(
        "bench.trace_overhead",
        report_ms / (jobs1.wall_s * 1e3) - 1.0,
    );
    tr.set("par.efficiency", report_ms / (jobs2.wall_s * 1e3 * 2.0));
    let mut out = finish(&tr, attempted, failed);
    out.note(format!(
        "traced pass {:.0} ms (report phase {:.0} ms); untraced --jobs 1 {:.0} ms, --jobs 2 {:.0} ms",
        traced_ms,
        report_ms,
        jobs1.wall_s * 1e3,
        jobs2.wall_s * 1e3
    ));
    Ok(out)
}

/// `serve_mix`, traced: the same client mix (per-job phases observed on
/// the wire, daemon `stats`), then the daemon's per-job work replayed
/// in-process: parse of every submitted graph, the job table's journal
/// appends (admission and conclusion), and the runner's flow for every
/// submitted graph (PE Spec's search, the baseline, cache stores, the
/// post-mapping estimates).
pub fn serve(apex: &Path, work: &Path, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    apex::par::set_jobs(1);
    // the replay's variant builds go through the program's cached
    // constructors: with the cache off they neither read nor fill a
    // directory outside the run (the daemon has its own)
    std::env::set_var("APEX_CACHE", "off");
    let load = crate::serve::load(apex, work, seed, seconds)?;
    let (mut attempted, mut failed) = load.tally();
    let mut tr = Tracer::new();
    let per_job = |f: fn(&crate::serve::JobRecord) -> f64| {
        median(&load.records.iter().map(f).collect::<Vec<_>>())
    };
    tr.set("serve.admit_ms", per_job(|r| r.admit_ms));
    tr.set("serve.queue_ms", per_job(|r| r.queue_ms));
    tr.set("serve.exec_ms", per_job(|r| r.exec_ms));
    tr.set("serve.polls_per_job", per_job(|r| f64::from(r.polls)));
    for (class, name, share) in [
        (
            Class::Fresh,
            "serve.latency_fresh_p50_ms",
            "serve.share_fresh",
        ),
        (
            Class::Repeat,
            "serve.latency_repeat_p50_ms",
            "serve.share_repeat",
        ),
        (
            Class::Dedup,
            "serve.latency_dedup_p50_ms",
            "serve.share_dedup",
        ),
    ] {
        tr.set(name, median(&load.latencies(Some(class))));
        tr.set(share, load.share(class));
    }
    let (hits, misses) = (load.stat("cache_hits"), load.stat("cache_misses"));
    tr.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    tr.set("serve.shed", load.stat("shed"));

    // the daemon's job table over a fresh journal, fed the jobs in submit
    // order: an fsync'd admission record per new job and a conclusion
    // record per finished one; a dedup resubmit finds its job concluded
    let graphs = Graphs::load();
    let (table, _) = JobTable::new(SweepJournal::at(work.join("replay.journal")), false);
    let mut parsed = vec![None; graphs.texts.len()];
    for rec in &load.records {
        let text = &graphs.texts[rec.spec.app];
        let graph = tr.span("ir.parse", |_| apex::ir::from_text(text));
        attempted += 1;
        failed += u64::from(graph.is_err());
        if let Ok(g) = graph {
            parsed[rec.spec.app] = Some(g);
        }
        let admitted = tr.span("core.journal_append", |_| {
            table.admit(&rec.spec.tenant, text, Some(rec.spec.deadline_ms))
        });
        let want = if rec.spec.class == Class::Dedup {
            Admission::Concluded
        } else {
            Admission::New
        };
        let admitted_as_expected = matches!(admitted, Ok((_, got)) if got == want);
        if !admitted_as_expected {
            eprintln!(
                "perfbench: check failed: replayed admission of {:?} {}",
                rec.spec.class, rec.spec.tenant
            );
        }
        attempted += 1;
        failed += u64::from(!admitted_as_expected);
        if let Ok((key, Admission::New)) = admitted {
            let report = JobReport {
                payload: rec.payload.clone(),
                provenance: Provenance::Completed,
                degradations: "-".to_owned(),
            };
            tr.span("core.journal_append", |_| table.complete(key, &report));
        }
    }

    // the runner's flow for every submitted graph: PE Spec and the
    // baseline, a cache store of each, and the post-mapping estimates,
    // whose PE counts must match the daemon's payload
    let store = VariantCache::at(work.join("store"));
    let mut rp = Replayer::new(&mut tr, MinerConfig::default(), seed);
    for (i, graph) in parsed.into_iter().enumerate() {
        let Some(graph) = graph else {
            continue;
        };
        let a: &'static Application = Box::leak(Box::new(submitted_app(graph)));
        let payload = load
            .records
            .iter()
            .find(|r| r.ok && r.spec.app == i)
            .map_or("", |r| r.payload.as_str());
        let spec = rp.spec_variant(a);
        let base = rp.build(&baseline_recipe(vec![a]));
        for (slot, (label, v)) in [("specialized", spec), ("baseline", base)]
            .into_iter()
            .enumerate()
        {
            let Some(v) = v else {
                continue;
            };
            let key = (i * 2 + slot) as u64 + 1;
            rp.tr.span("core.cache_store", |_| store.store(key, &v));
            let estimate = rp.tr.span("map.select", |_| {
                apex::core::post_mapping_estimate(&v, a, &rp.tech)
            });
            let pes = estimate.ok().map(|(pes, _, _)| pes);
            if let Some(pes) = pes {
                rp.tr.count("map.pes", pes as f64);
            }
            rp.check(
                pes.is_some() && pes == payload_pes(payload, label),
                &format!(
                    "{label} PE count of {} differs from the daemon's payload",
                    graphs.names[i]
                ),
            );
        }
    }
    attempted += rp.attempted;
    failed += rp.failed;
    let traced_ms = tr.wall_ms();
    tr.set("bench.trace_coverage", tr.all_self_ms() / traced_ms);
    let mut out = finish(&tr, attempted, failed);
    out.note(format!(
        "jobs={} replay {:.0} ms",
        load.records.len(),
        traced_ms
    ));
    Ok(out)
}

/// A submitted graph as the daemon's runner wraps it (`DseRunner`).
fn submitted_app(graph: apex::ir::Graph) -> Application {
    Application::new(
        AppInfo {
            name: graph.name().to_owned(),
            domain: Domain::ImageProcessing,
            description: "submitted over the wire".to_owned(),
            mem_tiles: 8,
            io_tiles: 4,
            unroll: 1,
            output_pixels: 1 << 20,
        },
        graph,
    )
}

/// The PE count on a daemon payload line (`<label>: <n> PEs, ...`).
fn payload_pes(payload: &str, label: &str) -> Option<usize> {
    let line = payload.lines().find(|l| l.starts_with(label))?;
    line.split_once(':')?
        .1
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
