//! Prints the reproduced tables and figures of the APEX paper.
//!
//! ```text
//! report [--csv] [--jobs N] [ids...]
//! ```
//!
//! Unknown experiment ids and flow failures exit nonzero with the
//! standard `error:` chain on stderr.

use apex_fault::{ApexError, Stage};

fn main() {
    if let Err(e) = run() {
        eprintln!("{}", e.render_chain());
        std::process::exit(1);
    }
}

fn run() -> Result<(), ApexError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let n: usize = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .filter(|n| *n >= 1)
            .ok_or_else(|| {
                ApexError::new(Stage::Cli, "--jobs expects a positive integer")
            })?;
        apex_par::set_jobs(n);
        args.drain(pos..pos + 2);
    }
    let experiments = apex_eval::all_experiments();
    for id in &args {
        if !experiments.iter().any(|(name, _)| name == id) {
            let known: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
            return Err(ApexError::new(
                Stage::Cli,
                format!("unknown experiment '{id}' (known: {})", known.join(", ")),
            ));
        }
    }
    let selected: Vec<_> = experiments
        .into_iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|f| f == name))
        .collect();
    let ids: Vec<&str> = selected.iter().map(|(name, _)| *name).collect();
    apex_eval::warm_up(&ids);
    for (name, gen) in selected {
        eprintln!("[running {name} ...]");
        let t0 = std::time::Instant::now();
        let table = gen()?;
        if csv {
            println!("# {name}");
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
        eprintln!("[{name} done in {:.1?}]", t0.elapsed());
    }
    Ok(())
}
