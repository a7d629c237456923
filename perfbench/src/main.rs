//! End-to-end and per-layer benchmark of serial and pipelined K-FAC
//! mini-BERT training.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial-kfac|pipe2-kfac|pipe2-lamb --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload, with
//! `--trace 1` the per-layer metrics of a separate traced run. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! `perfbench/METRICS.md` lists every metric.

mod e2e;
mod host;
mod layers;
mod stats;
mod workload;

use workload::Workload;

/// What a run reports: step counts, correctness, and named metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Stolen share of host CPU time during the timed region.
    pub steal_share: Option<f64>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            steal_share: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(0, format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Marks the run failed, counting `steps` failed steps.
    pub fn fail(&mut self, steps: usize, why: String) {
        self.correct = false;
        self.failed += steps;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!(
            "unknown workload {workload:?}; expected one of {names:?}"
        ))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    println!("host {}", host::fingerprint(args.workload, out.steal_share));
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}
