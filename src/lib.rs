//! # apex — automated CGRA processing-element design-space exploration
//!
//! A from-scratch Rust reproduction of **"APEX: A Framework for Automated
//! Processing Element Design Space Exploration using Frequent Subgraph
//! Analysis"** (Melchert et al., ASPLOS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | paper stage |
//! |---|---|
//! | [`ir`] | CoreIR-style dataflow-graph IR + golden interpreter |
//! | [`apps`] | the benchmark applications of Table 1 (+ unseen apps) |
//! | [`mining`] | frequent subgraph mining + MIS analysis (§3.1–3.2) |
//! | [`merge`] | datapath-graph merging via max-weight clique (§3.3) |
//! | [`tech`] | technology model (area/energy/delay + interconnect) |
//! | [`pe`] | PE specification, cost models, Verilog generation (§4.1) |
//! | [`rewrite`] | rewrite-rule synthesis (§4.1.1) |
//! | [`map`] | instruction selection onto PEs (§4.1.2) |
//! | [`pipeline`] | PE + application pipelining (§4.2–4.3) |
//! | [`cgra`] | fabric generation, place-and-route, bitstreams (§2, §5.3) |
//! | [`par`] | bounded, in-order job pool for parallel sweeps |
//! | [`verify`] | cross-stage static invariant verifier (`apex verify`) |
//! | [`core`] | the DSE driver: variants + full-flow evaluation (§4) |
//! | [`eval`] | the experiment harness regenerating every table/figure (§5) |
//!
//! # Quickstart
//!
//! ```no_run
//! use apex::core::{baseline_variant, evaluate_app, EvalOptions};
//! use apex::tech::TechModel;
//!
//! let app = apex::apps::gaussian();
//! let tech = TechModel::default();
//! let variant = baseline_variant(&[&app])?;
//! let result = evaluate_app(&variant, &app, &tech, &EvalOptions::default())
//!     .map_err(apex::fault::ApexError::from)?;
//! println!("{} PEs, {:.2} mm², {:.1} pJ/cycle",
//!     result.pnr.pe_tiles,
//!     result.area.total() * 1e-6,
//!     result.energy_per_cycle.total());
//! # Ok::<(), apex::fault::ApexError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use apex_apps as apps;
pub use apex_cgra as cgra;
pub use apex_chaos as chaos;
pub use apex_core as core;
pub use apex_eval as eval;
pub use apex_fault as fault;
pub use apex_ir as ir;
pub use apex_map as map;
pub use apex_merge as merge;
pub use apex_mining as mining;
pub use apex_par as par;
pub use apex_pe as pe;
pub use apex_pipeline as pipeline;
pub use apex_rewrite as rewrite;
pub use apex_serve as serve;
pub use apex_tech as tech;
pub use apex_verify as verify;
