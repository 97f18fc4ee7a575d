//! Stage replay: re-runs variant construction and evaluation through the
//! stage crates' public functions, one span per call, and checks that
//! the replay reproduces what the program built.
//!
//! The recipes mirror the variants `apex report` builds
//! (`crates/eval/src/context.rs`); each replayed variant is compared with
//! the program's own through `encode_variant`, so a recipe that drifts
//! from the program fails loudly instead of timing different work.

use crate::trace::Tracer;
use crate::util::Rng;
use apex::apps::{Application, Domain};
use apex::cgra::{
    achieved_period, cgra_area, cgra_energy_per_cycle, gather_stats, generate_bitstream, place,
    route, simulate_from_bitstream, verify_routed, Fabric, OutputTiming,
};
use apex::core::{
    encode_variant, evaluate_app, most_specialized_variant, required_op_kinds, select_subgraphs,
    EvalOptions, PeVariant, SelectionRank, SubgraphSelection,
};
use apex::fault::{Provenance, Stage};
use apex::ir::{Op, OpKind, Value};
use apex::merge::{merge_graph, MergeOptions};
use apex::mining::{mine, MinerConfig};
use apex::pe::{baseline_pe, baseline_pe_with_ops, PeSpec};
use apex::pipeline::{auto_pipeline, pipeline_application};
use apex::rewrite::standard_ruleset;
use apex::tech::TechModel;
use std::collections::{BTreeMap, BTreeSet};

/// Cycles of seeded input streamed through each simulated design.
const SIM_CYCLES: usize = 8;
/// Ladder depth of PE Spec's search, as `apex report` and the daemon's
/// runner pass it to `most_specialized_variant`.
const SPEC_STEPS: usize = 4;

/// How one variant is constructed.
pub struct Recipe {
    pub name: String,
    pub baseline: bool,
    pub analysis: Vec<&'static Application>,
    pub eval: Vec<&'static Application>,
    pub selection: SubgraphSelection,
    pub extra: BTreeSet<OpKind>,
}

pub fn app(name: &str) -> &'static Application {
    apex::eval::app(name).expect("built-in application")
}

fn apps(names: &[&str]) -> Vec<&'static Application> {
    names.iter().map(|n| app(n)).collect()
}

pub const ANALYZED: [&str; 6] = [
    "camera",
    "harris",
    "gaussian",
    "unsharp",
    "resnet",
    "mobilenet",
];
pub const IP: [&str; 4] = ["camera", "harris", "gaussian", "unsharp"];
const ML: [&str; 2] = ["resnet", "mobilenet"];

fn specialized(
    name: &str,
    analysis: Vec<&'static Application>,
    eval: Vec<&'static Application>,
    selection: SubgraphSelection,
) -> Recipe {
    Recipe {
        name: name.to_owned(),
        baseline: false,
        analysis,
        eval,
        selection,
        extra: BTreeSet::new(),
    }
}

/// The baseline PE with rules for `eval`.
pub fn baseline_recipe(eval: Vec<&'static Application>) -> Recipe {
    Recipe {
        baseline: true,
        ..specialized("pe_base", Vec::new(), eval, SubgraphSelection::default())
    }
}

/// The report's named variants, in `apex report`'s construction terms.
pub fn report_recipes() -> Vec<Recipe> {
    let all: Vec<&'static Application> = apex::eval::all_apps().iter().collect();
    let ip_eval: Vec<&'static Application> = all
        .iter()
        .copied()
        .filter(|a| a.info.domain == Domain::ImageProcessing)
        .collect();
    let mut out = vec![
        baseline_recipe(all),
        Recipe {
            extra: [OpKind::Lut, OpKind::BitConst, OpKind::Abs]
                .into_iter()
                .collect(),
            ..specialized("pe_ip", apps(&IP), ip_eval, SubgraphSelection::default())
        },
        specialized(
            "pe_ip2",
            apps(&IP),
            apps(&IP),
            SubgraphSelection {
                per_app: 6,
                min_mis: 2,
                rank: SelectionRank::MisSize,
                ..SubgraphSelection::default()
            },
        ),
        specialized(
            "pe_ip3",
            apps(&[
                "camera", "camera", "camera", "harris", "gaussian", "unsharp",
            ]),
            apps(&IP),
            SubgraphSelection {
                per_app: 1,
                ..SubgraphSelection::default()
            },
        ),
        specialized(
            "pe_ml",
            apps(&ML),
            apps(&ML),
            SubgraphSelection {
                per_app: 2,
                ..SubgraphSelection::default()
            },
        ),
    ];
    out.extend((0..=3).map(|k| spec_step(&format!("pe{}_camera", k + 1), app("camera"), k)));
    out
}

/// Step `k` of a single-application specialization ladder.
fn spec_step(name: &str, a: &'static Application, k: usize) -> Recipe {
    specialized(
        name,
        vec![a],
        vec![a],
        SubgraphSelection {
            per_app: k,
            ..SubgraphSelection::default()
        },
    )
}

/// The variant `apex report` holds under a recipe name.
pub fn report_variant(name: &str) -> Option<&'static PeVariant> {
    use apex::eval::{baseline, camera_ladder, pe_ip, pe_ip2, pe_ip3, pe_ml, pe_spec};
    match name {
        "pe_base" => baseline().ok(),
        "pe_ip" => pe_ip().ok(),
        "pe_ip2" => pe_ip2().ok(),
        "pe_ip3" => pe_ip3().ok(),
        "pe_ml" => pe_ml().ok(),
        _ => {
            if let Some(app) = name.strip_prefix("pe_spec_") {
                return pe_spec(app).ok();
            }
            let k: usize = name
                .strip_prefix("pe")?
                .strip_suffix("_camera")?
                .parse()
                .ok()?;
            camera_ladder().ok()?.get(k.checked_sub(1)?)
        }
    }
}

/// The distinct full-flow evaluations `apex report` makes:
/// `(variant, application, pipelined)`.
pub fn report_evaluations() -> Vec<(String, &'static Application, bool)> {
    let mut out = Vec::new();
    for name in ANALYZED {
        let a = app(name);
        let domain = if a.info.domain == Domain::MachineLearning {
            "pe_ml"
        } else {
            "pe_ip"
        };
        for pipelined in [false, true] {
            out.push(("pe_base".to_owned(), a, pipelined));
            out.push((domain.to_owned(), a, pipelined));
        }
        out.push((format!("pe_spec_{name}"), a, false));
        if IP.contains(&name) {
            out.push((format!("pe_spec_{name}"), a, true));
        }
    }
    for k in 1..=4 {
        out.push((format!("pe{k}_camera"), app("camera"), true));
    }
    out
}

/// Replays stages under spans and tallies checks.
pub struct Replayer<'t> {
    pub tr: &'t mut Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub tech: TechModel,
    pub miner: MinerConfig,
    rng: Rng,
}

impl<'t> Replayer<'t> {
    pub fn new(tr: &'t mut Tracer, miner: MinerConfig, seed: u64) -> Self {
        Replayer {
            tr,
            attempted: 0,
            failed: 0,
            tech: TechModel::default(),
            miner,
            rng: Rng::new(seed),
        }
    }

    /// Counts one check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
        ok
    }

    /// Builds a recipe's variant with the program's own constructor, then
    /// replays its stages.
    pub fn build(&mut self, r: &Recipe) -> Option<PeVariant> {
        let (miner, tech) = (self.miner.clone(), self.tech.clone());
        let built = self.tr.span("core.variant_build", |_| {
            if r.baseline {
                apex::core::baseline_variant(&r.eval)
            } else {
                apex::core::specialized_variant(
                    &r.name,
                    &r.analysis,
                    &r.eval,
                    &miner,
                    &r.selection,
                    &MergeOptions::default(),
                    &tech,
                    &r.extra,
                )
            }
        });
        self.replay_built(r, built)
    }

    /// Builds "PE Spec" for `a` with the program's own stopping-rule
    /// search (`most_specialized_variant`, whose ladder evaluations fall
    /// inside the `core.variant_build` span), then replays the stages of
    /// the ladder step it chose.
    pub fn spec_variant(&mut self, a: &'static Application) -> Option<PeVariant> {
        let (miner, tech) = (self.miner.clone(), self.tech.clone());
        let built = self.tr.span("core.variant_build", |_| {
            most_specialized_variant(a, &miner, &MergeOptions::default(), &tech, SPEC_STEPS)
        });
        // step k merges from the top k selections (`<app>_sg<i>`, i < k;
        // duplicates are dropped), so the chosen step is at least the
        // highest index merged plus one, and selects the same sources
        let k = built.as_ref().map_or(0, |v| {
            v.sources
                .iter()
                .filter_map(|g| g.name().rsplit_once("_sg")?.1.parse::<usize>().ok())
                .map(|i| i + 1)
                .max()
                .unwrap_or(0)
        });
        self.replay_built(&spec_step(&format!("pe_spec_{}", a.info.name), a, k), built)
    }

    fn replay_built(
        &mut self,
        r: &Recipe,
        built: Result<PeVariant, apex::fault::ApexError>,
    ) -> Option<PeVariant> {
        self.tr.count("core.variants_built", 1.0);
        match built {
            Ok(v) => {
                self.replay_variant(r, &v);
                Some(v)
            }
            Err(e) => {
                self.check(false, &format!("building {}: {}", r.name, e.render_chain()));
                None
            }
        }
    }

    /// Replays mining, merging and rule synthesis for `v` and checks the
    /// replayed variant encodes identically.
    pub fn replay_variant(&mut self, r: &Recipe, v: &PeVariant) {
        let tr = &mut *self.tr;
        tr.count("core.degradations", v.degradations.len() as f64);
        tr.count(
            "merge.fallbacks",
            v.degradations
                .iter()
                .filter(|d| d.stage == Stage::Merge)
                .count() as f64,
        );
        let spec = if r.baseline {
            baseline_pe()
        } else {
            let mut selected: BTreeMap<String, usize> = BTreeMap::new();
            for a in &r.analysis {
                if let Ok(m) = tr.span("mining.mine", |_| mine(&a.graph, &self.miner)) {
                    tr.count("mining.subgraphs", m.subgraphs.len() as f64);
                    if m.provenance != Provenance::Completed {
                        tr.count("mining.truncated", 1.0);
                    }
                    tr.span("mining.mis", |_| {
                        m.subgraphs
                            .iter()
                            .map(|s| s.utilizable_mis(&a.graph))
                            .sum::<usize>()
                    });
                }
                let sel = tr.span("core.select", |_| {
                    select_subgraphs(a, &self.miner, &r.selection)
                });
                let n = sel.map(|(s, _)| s.len()).unwrap_or(0);
                selected.insert(a.info.name.clone(), n);
            }
            // every merged source is one of its application's selections
            // (`<app>_sg<k>`, k indexing the selection)
            let consistent = v.sources.iter().all(|g| {
                g.name().rsplit_once("_sg").is_some_and(|(a, k)| {
                    k.parse::<usize>()
                        .is_ok_and(|k| k < selected.get(a).copied().unwrap_or(0))
                })
            });
            self.check(
                consistent,
                &format!("{}: sources outside the selection", r.name),
            );
            let tr = &mut *self.tr;
            let mut kinds = required_op_kinds(&r.analysis);
            kinds.extend(r.extra.iter().copied());
            let mut dp = baseline_pe_with_ops(&r.name, &kinds).datapath;
            for g in &v.sources {
                match tr.span("merge.merge", |_| {
                    merge_graph(&dp, g, &self.tech, &MergeOptions::default())
                }) {
                    Ok((next, _)) => {
                        dp = next;
                        tr.count("merge.merged", 1.0);
                    }
                    Err(_) => tr.count("merge.fallbacks", 1.0),
                }
            }
            dp.name = r.name.clone();
            PeSpec::new(&r.name, dp, false)
        };
        let graphs: Vec<&apex::ir::Graph> = r.eval.iter().map(|a| &a.graph).collect();
        let synth = self.tr.span("rewrite.synth", |_| {
            standard_ruleset(&spec.datapath, &v.sources, &graphs)
        });
        let same = match synth {
            Ok((rules, synthesis)) => {
                self.tr.count("rewrite.rules", rules.rules.len() as f64);
                self.tr
                    .count("rewrite.missing", synthesis.missing.len() as f64);
                let replayed = PeVariant {
                    spec,
                    sources: v.sources.clone(),
                    rules,
                    synthesis,
                    degradations: v.degradations.clone(),
                };
                encode_variant(&replayed) == encode_variant(v)
            }
            Err(_) => false,
        };
        self.check(
            same,
            &format!("{}: replayed variant differs from the built one", r.name),
        );
    }

    /// Evaluates `v` on `a` with the program's `evaluate_app`, replays the
    /// backend stage by stage, checks both agree, then runs the
    /// functional oracle: bitstream-driven fabric simulation against the
    /// IR interpreter on seeded inputs.
    pub fn evaluate(&mut self, v: &PeVariant, a: &Application, opts: &EvalOptions) {
        let tech = self.tech.clone();
        let tr = &mut *self.tr;
        let whole = tr.span("core.evaluate", |_| evaluate_app(v, a, &tech, opts));
        tr.count("core.evaluations", 1.0);
        let what = format!("{} on {}", v.spec.name, a.info.name);
        let Ok(whole) = whole else {
            self.check(false, &format!("evaluating {what}"));
            return;
        };
        let Ok(design) = tr.span("map.select", |_| {
            apex::map::map_application(&a.graph, &v.spec.datapath, &v.rules)
        }) else {
            self.check(false, &format!("mapping {what}"));
            return;
        };
        tr.count("map.pes", design.stats.pe_count as f64);
        let mut spec = v.spec.clone();
        let mut netlist = design.netlist.clone();
        let (mut pe_latency, mut app_latency) = (0, 0);
        if opts.pipelined {
            if tr
                .span("pipeline.pe", |_| {
                    auto_pipeline(&mut spec, &tech, &opts.pe_pipeline)
                })
                .is_err()
            {
                self.check(false, &format!("pipelining the PE of {what}"));
                return;
            }
            pe_latency = spec.latency() + 1;
            let Ok((n, report)) = tr.span("pipeline.app", |_| {
                pipeline_application(&design.netlist, &v.rules, pe_latency, &opts.app_pipeline)
            }) else {
                self.check(false, &format!("pipelining {what}"));
                return;
            };
            tr.count(
                "pipeline.regs",
                (report.regs_inserted + report.fifos_inserted) as f64,
            );
            netlist = n;
            app_latency = report.latency as usize;
        }
        let fabric = Fabric::new(opts.fabric.clone());
        let Ok(placement) = tr.span("cgra.place", |_| place(&netlist, &fabric, &opts.place)) else {
            self.check(false, &format!("placing {what}"));
            return;
        };
        let Ok(routing) = tr.span("cgra.route", |_| {
            route(&netlist, &v.rules, &fabric, &placement, &opts.route)
        }) else {
            self.check(false, &format!("routing {what}"));
            return;
        };
        tr.count("cgra.route_hops", routing.total_hops() as f64);
        let verified = tr
            .span("cgra.verify", |_| {
                verify_routed(&netlist, &v.rules, &fabric, &placement, &routing)
            })
            .is_ok();
        let timing = if opts.pipelined {
            OutputTiming::Registered
        } else {
            OutputTiming::Combinational
        };
        let (tiles, area, energy, period) = tr.span("cgra.stats", |_| {
            let pnr = gather_stats(&netlist, &fabric, &placement, &routing);
            let area = cgra_area(&netlist, &pnr, &spec, &tech).total();
            let energy = cgra_energy_per_cycle(&netlist, &v.rules, &pnr, &spec, &tech).total();
            let period = achieved_period(&routing, &spec, &tech, timing).max(tech.clock_period_ns);
            (pnr.pe_tiles, area, energy, period)
        });
        let agrees = verified
            && tiles == whole.pnr.pe_tiles
            && area == whole.area.total()
            && energy == whole.energy_per_cycle.total()
            && period == whole.period_ns;
        if !self.check(
            agrees,
            &format!("stage replay of {what} disagrees with evaluate_app"),
        ) {
            return;
        }
        let bitstream = self.tr.span("cgra.bitstream", |_| {
            generate_bitstream(
                &netlist,
                &v.rules,
                &v.spec.datapath,
                &fabric,
                &placement,
                &routing,
            )
        });
        self.tr
            .count("cgra.bitstream_bits", bitstream.total_bits as f64);

        // seeded input streams, one per primary input, in graph order
        let inputs = a.graph.primary_inputs();
        let stimuli: Vec<Vec<Value>> = (0..SIM_CYCLES)
            .map(|_| {
                inputs
                    .iter()
                    .map(|&pi| match a.graph.op(pi) {
                        Op::BitInput => Value::Bit(self.rng.next() & 1 == 1),
                        _ => Value::Word(self.rng.next() as u16),
                    })
                    .collect()
            })
            .collect();
        // per-input streams for the fabric, word and bit inputs apart
        let is_bit = |i: &usize| a.graph.op(inputs[*i]) == Op::BitInput;
        let column = |i: usize| stimuli.iter().map(move |s| s[i]);
        let words: Vec<Vec<u16>> = (0..inputs.len())
            .filter(|i| !is_bit(i))
            .map(|i| column(i).map(Value::word).collect())
            .collect();
        let bits: Vec<Vec<bool>> = (0..inputs.len())
            .filter(is_bit)
            .map(|i| column(i).map(Value::bit).collect())
            .collect();
        let tr = &mut *self.tr;
        let sim = tr.span("map.sim", |_| {
            simulate_from_bitstream(
                &netlist,
                &v.rules,
                &v.spec.datapath,
                &placement,
                &bitstream,
                &words,
                &bits,
                pe_latency,
            )
        });
        let golden: Vec<Vec<Value>> = tr.span("ir.eval", |_| {
            stimuli
                .iter()
                .map(|s| apex::ir::evaluate(&a.graph, s))
                .collect()
        });
        tr.count("map.sim_cycles", SIM_CYCLES as f64);
        let mismatches = match sim {
            Ok((out_words, out_bits)) => {
                let mut bad = 0usize;
                for (t, expect) in golden.iter().enumerate() {
                    let (mut wi, mut bi) = (0, 0);
                    for (po, g) in a.graph.primary_outputs().iter().zip(expect) {
                        let got = if a.graph.op(*po) == Op::BitOutput {
                            bi += 1;
                            out_bits
                                .get(bi - 1)
                                .and_then(|s| s.get(t + app_latency))
                                .map(|&b| Value::Bit(b))
                        } else {
                            wi += 1;
                            out_words
                                .get(wi - 1)
                                .and_then(|s| s.get(t + app_latency))
                                .map(|&w| Value::Word(w))
                        };
                        bad += usize::from(got != Some(*g));
                    }
                }
                bad
            }
            Err(_) => golden.iter().map(Vec::len).sum::<usize>().max(1),
        };
        tr.count("map.sim_mismatches", mismatches as f64);
        self.check(
            mismatches == 0,
            &format!("simulating {what}: {mismatches} mismatched outputs"),
        );
    }
}
