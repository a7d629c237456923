//! Pins how often serial K-FAC training forks the worker pool.
//!
//! Pool calls made inside a pool task run inline, so a serial step forks at
//! most three times: the micro-batch accumulation, the per-layer K-FAC step,
//! and the KL-clip rescale. Every GEMM inside those tasks runs on the lane
//! that owns the task instead of opening a scope of its own.
//!
//! Tracing and the pool settings are process-global, so this file holds a
//! single test.

use pipefisher::lm::{BatchSampler, OptimizerChoice, SyntheticLanguage, TrainOptions, Trainer};
use pipefisher::nn::{BertConfig, BertForPreTraining};
use pipefisher::optim::{KfacConfig, LrSchedule};
use pipefisher::tensor::par;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STEPS: usize = 3;

#[test]
fn serial_kfac_step_forks_at_most_three_times() {
    let lang = SyntheticLanguage::new(52, 2, 4, 5);
    let sampler = BatchSampler::new(lang, 8);
    let schedule = LrSchedule::PolyWithWarmup {
        base_lr: 1e-2,
        warmup_steps: 1,
        total_steps: STEPS,
        power: 0.5,
    };
    let mut trainer = Trainer::new(sampler, 8, schedule, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = BertForPreTraining::new(BertConfig::tiny(52, 16), 0.0, &mut rng);
    let choice = OptimizerChoice::Kfac {
        weight_decay: 0.01,
        kfac: KfacConfig {
            damping: 3e-2,
            ema_decay: 0.5,
            curvature_interval: 1,
            inversion_interval: 1,
            kl_clip: Some(1e-2),
            factor_block_size: None,
        },
    };
    let opts = TrainOptions {
        accumulation_steps: 4,
        grad_delay: 0,
    };

    let threshold = par::par_threshold();
    par::set_max_threads(2);
    par::set_par_threshold(0);
    pipefisher::trace::drain();
    pipefisher::trace::set_enabled(true);
    let run = trainer.run_with_options(&mut model, &choice, STEPS, &opts);
    pipefisher::trace::set_enabled(false);
    par::set_max_threads(0);
    par::set_par_threshold(threshold);
    let events = pipefisher::trace::drain();

    assert_eq!(run.losses.len(), STEPS);
    assert!(run.losses.iter().all(|l| l.is_finite()));
    let scopes = events.iter().filter(|e| e.name == "par_scope").count();
    assert!(
        scopes <= 3 * STEPS,
        "{scopes} par_scope spans over {STEPS} steps; expected at most 3 per step"
    );
}
