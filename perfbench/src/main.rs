//! `perfbench`: the apex benchmark harness.
//!
//! ```text
//! perfbench --workload <report_cold|report_warm|serve_mix> --seed N
//!           --seconds S --trace <0|1> --apex PATH --work DIR
//! ```
//!
//! With `--trace 0` it drives the `apex` binary at `--apex` from outside
//! and reports the end-to-end metrics; with `--trace 1` it drives the
//! same inputs through the crates' public functions under spans and
//! reports the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Scratch
//! state lives under `--work`. `perfbench/run.py` builds everything and
//! supplies `--apex` and `--work`.

mod replay;
mod report;
mod serve;
mod trace;
mod traced;
mod util;

use std::path::PathBuf;

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit.to_owned()));
    }

    /// A line of context for stderr (sample counts, traffic counts).
    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn print(&self, workload: &str) {
        for n in &self.notes {
            eprintln!("perfbench[{workload}]: {n}");
        }
        eprintln!(
            "perfbench[{workload}]: failed_ratio={} ({}/{})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    apex: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !["report_cold", "report_warm", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed expects an integer")?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds expects a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace expects 0 or 1".to_owned()),
        },
        apex: get("--apex")?.into(),
        work: get("--work")?.into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.work.join(&args.workload);
    let result = util::fresh_dir(&work).and_then(|()| match (args.workload.as_str(), args.trace) {
        ("report_cold", false) => report::cold(&args.apex, args.seconds),
        ("report_warm", false) => report::warm(&args.apex, &work, args.seconds),
        ("serve_mix", false) => serve::run(&args.apex, &work, args.seed, args.seconds),
        ("report_cold", true) => traced::report(&args.apex, &work, args.seed, false),
        ("report_warm", true) => traced::report(&args.apex, &work, args.seed, true),
        (_, true) => traced::serve(&args.apex, &work, args.seed, args.seconds),
        _ => unreachable!("workload validated in parse_args"),
    });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => out.print(&args.workload),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
