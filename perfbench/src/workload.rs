//! The three benchmark workloads and the calls that build and train them.
//!
//! All three train mini BERT (d_model 64, d_ff 128, 4 blocks, 4 heads) on
//! the same synthetic language, 4 micro-batches of 8 sequences × 16 tokens
//! per optimizer step. They differ only in the training entry point and the
//! optimizer, so a gap between two of them isolates one mechanism.

use pipefisher_lm::{
    BatchSampler, OptimizerChoice, PipelineOptions, StepMetrics, SyntheticLanguage, TrainOptions,
    TrainRun, Trainer,
};
use pipefisher_nn::{BertConfig, BertForPreTraining};
use pipefisher_optim::{KfacConfig, LrSchedule};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_tensor::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub const VOCAB: usize = 52;
pub const SEQ: usize = 16;
pub const BATCH: usize = 8;
pub const MICRO: usize = 4;
pub const STAGES: usize = 2;
/// Optimizer steps per train call. Every call of a run uses the same seed,
/// so every call must return the same losses.
pub const STEPS: usize = 100;
pub const TOKENS_PER_STEP: usize = MICRO * BATCH * SEQ;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Trainer::run_with_options`, K-FAC, 2 compute lanes.
    SerialKfac,
    /// `Trainer::run_pipelined`, 1F1B D=2, K-FAC in bubbles, 1 lane.
    Pipe2Kfac,
    /// `Trainer::run_pipelined`, 1F1B D=2, LAMB (empty bubbles), 1 lane.
    Pipe2Lamb,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SerialKfac,
        Workload::Pipe2Kfac,
        Workload::Pipe2Lamb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialKfac => "serial-kfac",
            Workload::Pipe2Kfac => "pipe2-kfac",
            Workload::Pipe2Lamb => "pipe2-lamb",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn pipelined(self) -> bool {
        self != Workload::SerialKfac
    }

    /// Compute-pool lanes. The serial trainer owns both cores; a pipelined
    /// run's two stage workers do, so its kernels run inline.
    pub fn lanes(self) -> usize {
        if self.pipelined() {
            1
        } else {
            2
        }
    }

    pub fn choice(self) -> OptimizerChoice {
        match self {
            Workload::SerialKfac | Workload::Pipe2Kfac => OptimizerChoice::Kfac {
                weight_decay: 0.01,
                kfac: kfac_config(),
            },
            Workload::Pipe2Lamb => OptimizerChoice::Lamb { weight_decay: 0.01 },
        }
    }
}

/// The pipeline both `pipe2-*` workloads run: 1F1B over 2 stages and 4
/// micro-batches, bubbles filled.
pub fn pipeline_options() -> PipelineOptions {
    PipelineOptions::new(PipelineScheme::OneFOneB, STAGES, MICRO)
}

/// K-FAC with curvature and inverses refreshed every step, so every step
/// has bubble work to place.
pub fn kfac_config() -> KfacConfig {
    KfacConfig {
        damping: 3e-2,
        ema_decay: 0.5,
        curvature_interval: 1,
        inversion_interval: 1,
        kl_clip: Some(1e-2),
        factor_block_size: None,
    }
}

/// Derives independent sub-seeds from the run seed (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn sampler(seed: u64) -> BatchSampler {
    BatchSampler::new(SyntheticLanguage::new(VOCAB, 2, 4, sub_seed(seed, 0)), SEQ)
}

pub fn model(seed: u64) -> BertForPreTraining {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    BertForPreTraining::new(BertConfig::mini(VOCAB, SEQ), 0.0, &mut rng)
}

pub fn trainer(seed: u64) -> Trainer {
    Trainer::new(
        sampler(seed),
        BATCH,
        LrSchedule::Constant(5e-3),
        sub_seed(seed, 2),
    )
}

/// One timed train call: its outside wall time, its step rows and losses.
pub struct Call {
    /// Input, model and trainer construction.
    pub construct_s: f64,
    pub wall_s: f64,
    pub rows: Vec<StepMetrics>,
    pub losses: Vec<f64>,
    /// How a pipelined call spent its bubbles; `None` for the serial loop.
    pub bubbles: Option<Bubbles>,
}

/// Worker milliseconds summed over a pipelined call (`PipelineOutcome`).
#[derive(Debug, Clone, Copy)]
pub struct Bubbles {
    pub aux_ms: f64,
    pub idle_ms: f64,
    pub tail_ms: f64,
}

impl Call {
    pub fn rows_s(&self) -> f64 {
        self.rows.iter().map(step_ms).sum::<f64>() / 1e3
    }
}

pub fn step_ms(row: &StepMetrics) -> f64 {
    row.data_ms + row.forward_backward_ms + row.optimizer_ms
}

/// Builds the workload from `seed` and trains it for `steps` steps through
/// its public entry point. An executor error is returned as text.
pub fn train(w: Workload, seed: u64, steps: usize) -> Result<Call, String> {
    par::set_max_threads(w.lanes());
    let t0 = Instant::now();
    let mut trainer = trainer(seed);
    let mut model = model(seed);
    let choice = w.choice();
    let opts = pipeline_options();
    let construct_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (run, bubbles) = if w.pipelined() {
        let out = trainer
            .run_pipelined(model, &choice, steps, &opts)
            .map_err(|e| format!("run_pipelined: {e}"))?;
        let bubbles = Bubbles {
            aux_ms: out.bubble_aux_ms,
            idle_ms: out.bubble_idle_ms,
            tail_ms: out.tail_aux_ms,
        };
        (out.run, Some(bubbles))
    } else {
        let run = trainer.run_with_options(&mut model, &choice, steps, &serial_options());
        (run, None)
    };
    let wall_s = t1.elapsed().as_secs_f64();
    let TrainRun {
        losses, metrics, ..
    } = run;
    Ok(Call {
        construct_s,
        wall_s,
        rows: metrics,
        losses,
        bubbles,
    })
}

fn serial_options() -> TrainOptions {
    TrainOptions {
        accumulation_steps: MICRO,
        grad_delay: 0,
    }
}

/// The serial `Trainer` at the workload's seed, accumulation and lane
/// count: the bitwise oracle for a pipelined run's losses.
pub fn oracle_losses(w: Workload, seed: u64, steps: usize) -> Vec<f64> {
    par::set_max_threads(w.lanes());
    let mut model = model(seed);
    trainer(seed)
        .run_with_options(&mut model, &w.choice(), steps, &serial_options())
        .losses
}

/// Counts steps whose loss is non-finite or differs in any bit from
/// `reference`; a length mismatch counts every missing step.
pub fn bad_steps(losses: &[f64], reference: &[f64]) -> usize {
    let mismatched = losses
        .iter()
        .zip(reference)
        .filter(|(a, b)| !a.is_finite() || a.to_bits() != b.to_bits())
        .count();
    mismatched + losses.len().abs_diff(reference.len())
}
