//! The untraced run: end-to-end metrics of one workload.

use crate::stats::{mean, median};
use crate::workload::{self, step_ms, Call, Workload, STEPS, TOKENS_PER_STEP};
use crate::{host, Outcome};
use std::time::{Duration, Instant};

/// Timed calls per run, at least. Every call repeats the same
/// deterministic work, so the per-call metrics are reported as medians over
/// the calls, which a slowdown from outside the process in a minority of
/// the calls does not move.
const MIN_CALLS: usize = 3;
/// `loss_final` averages this many final steps of a call.
const LOSS_WINDOW: usize = 20;
/// A short untimed call first, so lazy pool start-up and first-touch
/// allocation stay out of the timed calls.
const WARMUP_STEPS: usize = 3;

pub fn run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    out.attempted += WARMUP_STEPS;
    if let Err(e) = workload::train(w, seed, WARMUP_STEPS) {
        out.fail(WARMUP_STEPS, format!("warm-up: {e}"));
        return out;
    }
    // The oracle runs outside the timed region. The serial workload is its
    // own oracle: every call must repeat the first call's losses.
    let mut reference = w
        .pipelined()
        .then(|| workload::oracle_losses(w, seed, STEPS));

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let cpu_before = host::cpu_times();
    let mut calls: Vec<Call> = Vec::new();
    while calls.len() < MIN_CALLS || start.elapsed() < budget {
        out.attempted += STEPS;
        let call = match workload::train(w, seed, STEPS) {
            Ok(call) => call,
            Err(e) => {
                out.fail(STEPS, e);
                break;
            }
        };
        let reference = reference.get_or_insert_with(|| call.losses.clone());
        let bad = workload::bad_steps(&call.losses, reference);
        if bad > 0 {
            out.fail(bad, format!("{bad} step losses differ from the oracle"));
        }
        if call.rows.len() != STEPS {
            out.fail(
                STEPS,
                format!("{} step rows for {STEPS} steps", call.rows.len()),
            );
            break;
        }
        if call.rows_s() > call.wall_s {
            out.fail(
                STEPS,
                format!(
                    "step rows sum to {:.4} s, outside wall time {:.4} s",
                    call.rows_s(),
                    call.wall_s
                ),
            );
        }
        calls.push(call);
        if !out.correct {
            break;
        }
    }
    out.steal_share = host::steal_share(cpu_before, host::cpu_times());
    if calls.is_empty() {
        return out;
    }

    let tokens = (STEPS * TOKENS_PER_STEP) as f64;
    let per_call = |f: &dyn Fn(&Call) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    let losses = &calls[0].losses;
    out.metric("tokens_per_s", per_call(&|c| tokens / c.wall_s), "1/s");
    out.metric(
        "step_ms_p50",
        per_call(&|c| median(&c.rows.iter().map(step_ms).collect::<Vec<_>>())),
        "ms",
    );
    out.metric(
        "loss_final",
        mean(&losses[losses.len().saturating_sub(LOSS_WINDOW)..]),
        "nats",
    );
    // Construction, plus the call's wall time outside its step rows: plan
    // lowering, worker spawn, staging, reassembly.
    out.metric(
        "setup_s",
        per_call(&|c| c.construct_s + c.wall_s - c.rows_s()),
        "s",
    );
    match host::peak_rss_mib() {
        Ok(mib) => out.metric("peak_rss_mib", mib, "MiB"),
        Err(e) => out.fail(0, e),
    }
    out.note(format!(
        "{} calls of {STEPS} steps in {:.1} s",
        calls.len(),
        start.elapsed().as_secs_f64(),
    ));
    out
}
