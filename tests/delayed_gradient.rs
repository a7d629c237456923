//! Bitwise pin of the delayed-gradient (asynchronous-pipeline emulation,
//! App. C.1) training path: per-step loss, gradient norm and learning rate
//! of an 8-step LAMB run with `grad_delay = 2` are checked against a
//! golden file. The first two rows record LR 0: no update is applied while
//! the gradient queue fills. One micro-batch per step keeps the result
//! independent of the compute thread count. Regenerate intentionally with
//! `PIPEFISHER_BLESS=1 cargo test --test delayed_gradient`.

use pipefisher::lm::{
    BatchSampler, OptimizerChoice, SyntheticLanguage, TrainOptions, TrainRun, Trainer,
};
use pipefisher::nn::{BertConfig, BertForPreTraining};
use pipefisher::optim::LrSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const STEPS: usize = 8;
const DELAY: usize = 2;
const SEED: u64 = 7;

fn golden_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push("golden");
    p.push("grad_delay2_lamb.txt");
    p
}

fn delayed_run() -> TrainRun {
    let config = BertConfig::tiny(36, 16);
    let lang = SyntheticLanguage::new(config.vocab_size, 2, 4, 11);
    let sampler = BatchSampler::new(lang, config.max_seq);
    let schedule = LrSchedule::PolyWithWarmup {
        base_lr: 1e-2,
        warmup_steps: 3,
        total_steps: STEPS,
        power: 0.5,
    };
    let mut trainer = Trainer::new(sampler, 8, schedule, SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut model = BertForPreTraining::new(config, 0.0, &mut rng);
    trainer.run_with_options(
        &mut model,
        &OptimizerChoice::Lamb { weight_decay: 0.01 },
        STEPS,
        &TrainOptions {
            accumulation_steps: 1,
            grad_delay: DELAY,
        },
    )
}

/// One line per step: step index, then the loss, gradient norm and
/// learning rate as hex `f64` bit patterns.
fn render(run: &TrainRun) -> String {
    let mut out = String::from("# step loss grad_norm lr (f64 bits, hex)\n");
    for m in &run.metrics {
        out.push_str(&format!(
            "{} {:016x} {:016x} {:016x}\n",
            m.step,
            m.loss.to_bits(),
            m.grad_norm.to_bits(),
            m.lr.to_bits()
        ));
    }
    out
}

#[test]
fn delayed_gradient_run_matches_golden_bits() {
    let run = delayed_run();
    assert_eq!(run.label, format!("NVLAMB (grad delay {DELAY})"));
    assert_eq!(run.metrics.len(), STEPS);
    let rendered = render(&run);
    let path = golden_path();
    if std::env::var("PIPEFISHER_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with PIPEFISHER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "delayed-gradient run drifted from {} (PIPEFISHER_BLESS=1 to re-bless)",
        path.display()
    );
}
