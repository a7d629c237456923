//! Pretraining loops with loss tracking (the Figure 6 machinery) and
//! per-step metrics/trace instrumentation.

use crate::checkpoint::{
    resolve_resume, CheckpointOptions, CheckpointPolicy, ResumeFrom, TrainCheckpoint,
};
use crate::metrics::{MetricsRecorder, PhaseTimings};
use crate::{BatchSampler, StepMetrics};
use pipefisher_ckpt::{CheckpointDir, CkptError, SectionReader, SectionWriter};
use pipefisher_nn::{export_params_with, BertForPreTraining, ForwardCtx, PreTrainingBatch};
use pipefisher_optim::{
    Kfac, KfacConfig, KfacModel, Lamb, LrSchedule, Optimizer, Shampoo, ShampooConfig, StateSnapshot,
};
use pipefisher_tensor::{par, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

/// Which optimizer a [`Trainer`] runs — the paper's two contenders.
#[derive(Debug, Clone)]
pub enum OptimizerChoice {
    /// NVLAMB (the baseline).
    Lamb {
        /// Decoupled weight decay (paper: 0.01).
        weight_decay: f64,
    },
    /// K-FAC preconditioning on top of NVLAMB (the paper's "K-FAC").
    Kfac {
        /// Decoupled weight decay of the underlying LAMB.
        weight_decay: f64,
        /// K-FAC hyperparameters; set `curvature_interval`/
        /// `inversion_interval` to the refresh interval PipeFisher achieves
        /// for the target pipeline (the whole point of the paper: the bubble
        /// schedule determines how fresh the curvature can be).
        kfac: KfacConfig,
    },
    /// Shampoo (paper §5's other bubble-fillable second-order method).
    Shampoo {
        /// Shampoo hyperparameters; `root_interval` plays the role of the
        /// PipeFisher refresh interval.
        shampoo: ShampooConfig,
    },
}

/// A completed training run's loss history and per-step metrics.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Per-step total pretraining loss (MLM + NSP), as Figure 6 plots.
    pub losses: Vec<f64>,
    /// Optimizer label for reports.
    pub label: String,
    /// One [`StepMetrics`] row per step, in step order (serialize with
    /// [`crate::to_jsonl`]).
    pub metrics: Vec<StepMetrics>,
}

impl TrainRun {
    /// Centered moving average with the given window (the stand-in for the
    /// paper's Butterworth `filtfilt` smoothing).
    pub fn smoothed(&self, window: usize) -> Vec<f64> {
        let w = window.max(1);
        let n = self.losses.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(w / 2);
                let hi = (i + w / 2 + 1).min(n);
                self.losses[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// Final smoothed loss.
    pub fn final_loss(&self, window: usize) -> f64 {
        *self.smoothed(window).last().expect("empty run")
    }

    /// First step whose smoothed loss reaches `target` and stays there for
    /// the rest of the window-smoothed curve's local neighbourhood; `None`
    /// if never reached. Mirrors the paper's "steps for K-FAC to reach
    /// NVLAMB's final loss" extraction (ignoring early fluctuations).
    pub fn steps_to_reach(&self, target: f64, window: usize) -> Option<usize> {
        let sm = self.smoothed(window);
        sm.iter().position(|&l| l <= target)
    }
}

/// Extra training-loop options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Micro-batch gradient accumulation: each optimizer step averages the
    /// gradients of this many sampled batches (the paper's App. B.2
    /// simulates its 8,192 mini-batch on 32 GPUs this way).
    pub accumulation_steps: usize,
    /// Asynchronous-pipeline emulation (App. C.1): apply the gradient
    /// computed this many steps *ago* (`θ_{t+1} = θ_t − η·g_{t−m}`). Zero =
    /// synchronous. Only meaningful for first-order optimizers.
    pub grad_delay: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            accumulation_steps: 1,
            grad_delay: 0,
        }
    }
}

/// Runs BERT pretraining on synthetic data with a chosen optimizer.
#[derive(Debug)]
pub struct Trainer {
    sampler: BatchSampler,
    batch_size: usize,
    schedule: LrSchedule,
    data_rng: StdRng,
}

/// The part of a training step that differs between serial,
/// delayed-gradient and pipelined runs: how the step's micro-batch
/// gradients get into the model, and how the update is applied. Everything
/// else — sampling, spans, mean-scaling, grad norm, learning rate,
/// checkpoints and metrics — is [`Trainer::train_loop`]'s.
pub(crate) trait GradSource {
    /// What a step can fail with.
    type Error;

    /// The model the optimizer updates.
    fn model(&mut self) -> &mut dyn KfacModel;

    /// Runs forward and backward over the step's micro-batches, leaving
    /// their *summed* gradients in [`GradSource::model`] (whose gradients
    /// are zero on entry); returns the summed loss.
    fn forward_backward(
        &mut self,
        step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        opt: &mut AnyOpt,
    ) -> Result<f64, Self::Error>;

    /// Called with the step's mean gradient in the model; puts the
    /// gradient the update consumes in its place. Returns `false` to skip
    /// this step's update.
    fn settle_gradient(&mut self) -> bool {
        true
    }

    /// Applies one optimizer update to the settled gradient.
    fn optimizer_step(&mut self, opt: &mut AnyOpt, lr: f64);

    /// Turns a failed checkpoint write after `completed_steps` steps into
    /// this source's error, releasing whatever the source holds.
    fn checkpoint_error(&mut self, source: CkptError, completed_steps: usize) -> Self::Error;
}

/// Where [`Trainer::train_loop`] starts: the optimizer (restored when
/// resuming), the open checkpoint store, and the first step to run.
pub(crate) struct RunStart<'p> {
    opt: AnyOpt,
    store: Option<(&'p CheckpointPolicy, CheckpointDir)>,
    start_step: usize,
}

/// The serial gradient source: accumulates the step's micro-batches on the
/// monolithic model. With `delay > 0` it emulates an asynchronous pipeline
/// (App. C.1): each update consumes the gradient computed `delay` steps
/// ago (`θ_{t+1} = θ_t − η·g_{t−m}`), and the first `delay` steps, while
/// the queue fills, skip the update.
struct Serial<'m> {
    model: &'m mut BertForPreTraining,
    delay: usize,
    queue: VecDeque<Vec<Matrix>>,
}

impl GradSource for Serial<'_> {
    type Error = CkptError;

    fn model(&mut self) -> &mut dyn KfacModel {
        self.model
    }

    fn forward_backward(
        &mut self,
        _step: usize,
        batches: Vec<(PreTrainingBatch, ForwardCtx)>,
        _opt: &mut AnyOpt,
    ) -> Result<f64, CkptError> {
        Ok(accumulate_micro_batches(self.model, &batches).iter().sum())
    }

    fn settle_gradient(&mut self) -> bool {
        if self.delay == 0 {
            return true;
        }
        let mut fresh = Vec::new();
        self.model.visit_params(&mut |p| fresh.push(p.grad.clone()));
        self.queue.push_back(fresh);
        if self.queue.len() <= self.delay {
            return false;
        }
        let mut stale = self.queue.pop_front().expect("queue nonempty").into_iter();
        self.model
            .visit_params(&mut |p| p.grad = stale.next().expect("one gradient per parameter"));
        true
    }

    fn optimizer_step(&mut self, opt: &mut AnyOpt, lr: f64) {
        opt.apply(self.model, lr);
    }

    fn checkpoint_error(&mut self, source: CkptError, _completed_steps: usize) -> CkptError {
        source
    }
}

impl Trainer {
    /// Creates a trainer drawing `batch_size`-sequence batches.
    pub fn new(sampler: BatchSampler, batch_size: usize, schedule: LrSchedule, seed: u64) -> Self {
        Trainer {
            sampler,
            batch_size,
            schedule,
            data_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Trains `model` for `steps` steps with gradient accumulation and/or
    /// stale-gradient application.
    ///
    /// # Panics
    ///
    /// Panics if `opts.accumulation_steps == 0`, or if `grad_delay > 0` is
    /// combined with the K-FAC optimizer (stale-gradient emulation models
    /// asynchronous *first-order* pipelines, App. C.1).
    pub fn run_with_options(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
    ) -> TrainRun {
        if opts.grad_delay > 0 {
            assert!(
                matches!(choice, OptimizerChoice::Lamb { .. }),
                "grad_delay models asynchronous first-order pipelines; use Lamb"
            );
        }
        self.run_serial(model, choice, steps, opts, &CheckpointOptions::default())
            .expect("no checkpointing requested, so no checkpoint errors")
    }

    /// Trains `model` for `steps` steps, returning the loss history.
    ///
    /// Runs the step loop with a single micro-batch per step, which is
    /// bitwise identical to a plain per-step loop (the mean-scaling
    /// multiplies by exactly 1.0).
    pub fn run(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
    ) -> TrainRun {
        self.run_with_options(model, choice, steps, &TrainOptions::default())
    }

    /// Like [`Trainer::run_with_options`] with crash-safe checkpointing:
    /// saves per `ckpt.save` (atomically, after the optimizer update of a
    /// due step) and/or resumes from `ckpt.resume` before the first step.
    ///
    /// A resumed run is *bitwise-invisible*: its per-step losses and final
    /// parameters equal the corresponding tail of an uninterrupted run,
    /// because the checkpoint captures every piece of mutable loop state —
    /// parameters, optimizer state (including the K-FAC/Shampoo cadence
    /// counters), and the data-RNG stream. The returned [`TrainRun`] covers
    /// steps `next_step..steps` (its metric rows carry absolute step
    /// indices).
    ///
    /// # Errors
    ///
    /// Any checkpoint I/O, validation, or compatibility failure (corrupt
    /// file, shape mismatch, optimizer mismatch) is a structured
    /// [`CkptError`]; nothing is trained on a partially restored state.
    ///
    /// # Panics
    ///
    /// Panics if `opts.accumulation_steps == 0`, if `opts.grad_delay > 0`
    /// (stale-gradient emulation keeps an in-flight gradient queue that is
    /// deliberately not checkpointable), or if the resume checkpoint is
    /// past `steps`.
    pub fn run_checkpointed(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<TrainRun, CkptError> {
        assert!(
            opts.grad_delay == 0,
            "checkpointing does not support grad_delay (in-flight stale-gradient queue)"
        );
        self.run_serial(model, choice, steps, opts, ckpt)
    }

    /// The serial and delayed-gradient runs: [`Trainer::train_loop`] over
    /// the [`Serial`] source.
    fn run_serial(
        &mut self,
        model: &mut BertForPreTraining,
        choice: &OptimizerChoice,
        steps: usize,
        opts: &TrainOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<TrainRun, CkptError> {
        assert!(
            opts.accumulation_steps > 0,
            "accumulation_steps must be positive"
        );
        let start = self.open_run(
            choice,
            steps,
            ckpt.save.as_ref(),
            ckpt.resume.as_ref(),
            |bytes| model.import_params(bytes),
        )?;
        let mut src = Serial {
            model,
            delay: opts.grad_delay,
            queue: VecDeque::new(),
        };
        let mut run = self.train_loop(&mut src, start, steps, opts.accumulation_steps)?;
        if opts.grad_delay > 0 {
            run.label = format!("NVLAMB (grad delay {})", opts.grad_delay);
        }
        Ok(run)
    }

    /// Opens the run's checkpoint store and restores `resume` before the
    /// first step — the model section through `import_model`, so the
    /// pipelined executor can restore before it stages the model and spawns
    /// any worker.
    ///
    /// # Panics
    ///
    /// Panics if the resume checkpoint is past `steps`.
    pub(crate) fn open_run<'p>(
        &mut self,
        choice: &OptimizerChoice,
        steps: usize,
        save: Option<&'p CheckpointPolicy>,
        resume: Option<&ResumeFrom>,
        import_model: impl FnOnce(&[u8]) -> Result<(), CkptError>,
    ) -> Result<RunStart<'p>, CkptError> {
        let mut opt = AnyOpt::new(choice);
        let store = save.map(|p| p.open().map(|dir| (p, dir))).transpose()?;
        let mut start_step = 0;
        if let Some(resume) = resume {
            let tc = TrainCheckpoint::load(&resolve_resume(resume)?)?;
            if tc.optimizer_label != opt.label() {
                return Err(CkptError::OptimizerMismatch {
                    expected: opt.label().to_string(),
                    found: tc.optimizer_label,
                });
            }
            import_model(&tc.model)?;
            opt.import_state(&tc.optim)?;
            self.set_rng_state(tc.rng);
            start_step = tc.next_step as usize;
        }
        assert!(
            start_step <= steps,
            "resume checkpoint is past the requested step count \
             ({start_step} > {steps})"
        );
        Ok(RunStart {
            opt,
            store,
            start_step,
        })
    }

    /// The one training step loop behind every entry point: sample →
    /// forward/backward (by `src`) → mean-scale → grad norm and learning
    /// rate → update (by `src`) → checkpoint → metrics row, with a trace
    /// span per phase. Checkpoints are written at step boundaries, after
    /// the update, so serial and pipelined checkpoints of the same step are
    /// byte-identical.
    pub(crate) fn train_loop<S: GradSource>(
        &mut self,
        src: &mut S,
        start: RunStart<'_>,
        steps: usize,
        n_micro: usize,
    ) -> Result<TrainRun, S::Error> {
        let RunStart {
            mut opt,
            store,
            start_step,
        } = start;
        let scale = 1.0 / n_micro as f64;
        let mut losses = Vec::with_capacity(steps - start_step);
        let mut recorder = MetricsRecorder::default();
        for step in start_step..steps {
            let _step_span = pipefisher_trace::span("step", "train");
            let alloc_before = pipefisher_trace::alloc_snapshot();
            src.model()
                .visit_all_params(&mut |p| p.grad.scale_inplace(0.0));
            let refresh = opt.refreshes_curvature_at(step);
            let t0 = Instant::now();
            let batches = {
                let _span = pipefisher_trace::span("sample", "train");
                self.sample_micro_batches(n_micro, refresh)
            };
            let t1 = Instant::now();
            let loss = {
                let _span = pipefisher_trace::span("forward_backward", "train");
                src.forward_backward(step, batches, &mut opt)? * scale
            };
            src.model()
                .visit_all_params(&mut |p| p.grad.scale_inplace(scale));
            let t2 = Instant::now();
            losses.push(loss);
            pipefisher_trace::counter("loss", loss);
            let applies = src.settle_gradient();
            let grad_norm = grad_norm(src.model());
            let lr = if applies {
                self.schedule.lr_at(step)
            } else {
                0.0
            };
            let t3 = Instant::now();
            if applies {
                let _span = pipefisher_trace::span("optimizer_step", "train");
                src.optimizer_step(&mut opt, lr);
            }
            let t4 = Instant::now();
            let mut ckpt_write_ms = 0.0;
            if let Some((policy, dir)) = &store {
                if policy.due(step + 1, steps) {
                    let tw = Instant::now();
                    let snap = TrainCheckpoint {
                        next_step: (step + 1) as u64,
                        optimizer_label: opt.label().to_string(),
                        model: export_params_with(|f| src.model().visit_all_params(f)),
                        optim: opt.export_state(),
                        rng: self.rng_state(),
                    }
                    .to_snapshot();
                    if let Err(e) = dir.save((step + 1) as u64, &snap) {
                        return Err(src.checkpoint_error(e, step + 1));
                    }
                    ckpt_write_ms = tw.elapsed().as_secs_f64() * 1e3;
                }
            }
            recorder.record(
                step,
                loss,
                grad_norm,
                lr,
                PhaseTimings {
                    data_ms: (t1 - t0).as_secs_f64() * 1e3,
                    forward_backward_ms: (t2 - t1).as_secs_f64() * 1e3,
                    optimizer_ms: (t4 - t3).as_secs_f64() * 1e3,
                },
                refresh,
                opt.inverts_at(step),
                pipefisher_trace::alloc_snapshot().since(&alloc_before),
                ckpt_write_ms,
            );
        }
        Ok(TrainRun {
            losses,
            label: opt.label().to_string(),
            metrics: recorder.into_rows(),
        })
    }

    /// Samples the step's micro-batches up front (serially, preserving the
    /// data RNG stream) with the forward context each one should use.
    fn sample_micro_batches(
        &mut self,
        accumulation: usize,
        capture_last: bool,
    ) -> Vec<(PreTrainingBatch, ForwardCtx)> {
        (0..accumulation)
            .map(|acc| {
                // Capture curvature statistics on the last micro-batch of a
                // refresh step (a fresh sample of the same distribution, as
                // PipeFisher's per-step curvature uses one step's
                // micro-batches).
                let ctx = if capture_last && acc == accumulation - 1 {
                    ForwardCtx::train_with_capture()
                } else {
                    ForwardCtx::train()
                };
                (
                    self.sampler.sample(self.batch_size, &mut self.data_rng),
                    ctx,
                )
            })
            .collect()
    }

    /// Raw xoshiro state of the data RNG — the complete data-loader cursor,
    /// since batch sampling is a pure function of this stream.
    pub fn rng_state(&self) -> [u64; 4] {
        self.data_rng.state()
    }

    /// Restores the data-RNG stream captured by [`Trainer::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.data_rng = StdRng::from_state(state);
    }
}

/// Global L2 norm over every parameter gradient, in the model's
/// `visit_all_params` order (a [`StagedBert`](pipefisher_nn::StagedBert)
/// visits in the monolithic order, so the sum is the serial one bitwise).
fn grad_norm(model: &mut dyn KfacModel) -> f64 {
    let mut sq = 0.0;
    model.visit_all_params(&mut |p| {
        sq += p.grad.as_slice().iter().map(|v| v * v).sum::<f64>();
    });
    sq.sqrt()
}

/// The trainer's optimizer dispatch, carrying what the metrics recorder
/// needs (labels and the K-FAC refresh cadence). Crate-visible so the
/// pipelined gradient source drives the identical dispatch (and K-FAC state
/// plumbing).
pub(crate) enum AnyOpt {
    Lamb(Lamb),
    Kfac { opt: Kfac<Lamb>, config: KfacConfig },
    Shampoo(Shampoo),
}

impl AnyOpt {
    fn new(choice: &OptimizerChoice) -> AnyOpt {
        match choice {
            OptimizerChoice::Lamb { weight_decay } => AnyOpt::Lamb(Lamb::new(*weight_decay)),
            OptimizerChoice::Kfac { weight_decay, kfac } => AnyOpt::Kfac {
                opt: Kfac::new(kfac.clone(), Lamb::new(*weight_decay)),
                config: kfac.clone(),
            },
            OptimizerChoice::Shampoo { shampoo } => AnyOpt::Shampoo(Shampoo::new(shampoo.clone())),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            AnyOpt::Lamb(_) => "NVLAMB",
            AnyOpt::Kfac { .. } => "K-FAC",
            AnyOpt::Shampoo(_) => "Shampoo",
        }
    }

    /// Whether step `step` captures activations/errors and folds them into
    /// the Kronecker factors (what PipeFisher's bubble schedule computes).
    pub(crate) fn refreshes_curvature_at(&self, step: usize) -> bool {
        match self {
            AnyOpt::Kfac { config, .. } => {
                (step as u64).is_multiple_of(config.curvature_interval as u64)
            }
            _ => false,
        }
    }

    /// Whether step `step` recomputes the damped factor inverses (mirrors
    /// [`Kfac::step`]'s internal cadence).
    pub(crate) fn inverts_at(&self, step: usize) -> bool {
        match self {
            AnyOpt::Kfac { config, .. } => {
                (step as u64).is_multiple_of(config.inversion_interval as u64)
            }
            _ => false,
        }
    }

    /// Applies one optimizer update to the accumulated gradients. Takes the
    /// model through [`KfacModel`] so the pipeline executor can drive the
    /// same dispatch on a staged model; for `BertForPreTraining` the
    /// `visit_all_params` traversal is `visit_params`, so the monolithic
    /// trainer's behaviour is bitwise unchanged.
    fn apply(&mut self, model: &mut dyn KfacModel, lr: f64) {
        match self {
            AnyOpt::Lamb(opt) => {
                opt.begin_step();
                model.visit_all_params(&mut |p| opt.step_param(p, lr));
            }
            AnyOpt::Kfac { opt, .. } => opt.step(model, lr),
            AnyOpt::Shampoo(opt) => {
                opt.begin_step();
                model.visit_all_params(&mut |p| opt.step_param(p, lr));
            }
        }
    }

    /// Like [`AnyOpt::apply`], but assumes the K-FAC curvature folds and
    /// inverse refreshes for this step already ran externally (in pipeline
    /// bubbles) against the optimizer's loaned-out layer states. For
    /// NVLAMB/Shampoo there is no external work, so this is `apply`.
    pub(crate) fn apply_preconditioned(&mut self, model: &mut dyn KfacModel, lr: f64) {
        match self {
            AnyOpt::Kfac { opt, .. } => opt.step_preconditioned(model, lr),
            _ => self.apply(model, lr),
        }
    }

    /// The wrapped K-FAC optimizer, when this is the K-FAC arm — the
    /// executor loans layer states out of it and returns them each refresh
    /// step.
    pub(crate) fn kfac_mut(&mut self) -> Option<&mut Kfac<Lamb>> {
        match self {
            AnyOpt::Kfac { opt, .. } => Some(opt),
            _ => None,
        }
    }

    /// Serializes the wrapped optimizer's mutable state, tagged by kind so
    /// a checkpoint can never be restored into the wrong optimizer.
    fn export_state(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        let (tag, blob) = match self {
            AnyOpt::Lamb(o) => (0u8, o.export_state()),
            AnyOpt::Kfac { opt, .. } => (1u8, opt.export_state()),
            AnyOpt::Shampoo(o) => (2u8, o.export_state()),
        };
        w.u8(tag);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&blob);
        bytes
    }

    /// Restores state captured by [`AnyOpt::export_state`]. A tag for a
    /// different optimizer kind is [`CkptError::OptimizerMismatch`].
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = SectionReader::new("optim", bytes);
        let tag = r.u8()?;
        let found = match tag {
            0 => "NVLAMB",
            1 => "K-FAC",
            2 => "Shampoo",
            other => {
                return Err(CkptError::Malformed {
                    detail: format!("unknown optimizer tag {other} in optim section"),
                })
            }
        };
        if found != self.label() {
            return Err(CkptError::OptimizerMismatch {
                expected: self.label().to_string(),
                found: found.to_string(),
            });
        }
        let blob = &bytes[1..];
        match self {
            AnyOpt::Lamb(o) => o.import_state(blob),
            AnyOpt::Kfac { opt, .. } => opt.import_state(blob),
            AnyOpt::Shampoo(o) => o.import_state(blob),
        }
    }
}

/// Runs one step's micro-batches, accumulating gradients into `model`, and
/// returns each micro-batch's total loss in micro-batch index order.
///
/// With a single worker lane (`PIPEFISHER_THREADS=1`, one available core, or
/// a single micro-batch) this is exactly the serial loop the trainer has
/// always run. With more lanes the micro-batches split into contiguous
/// blocks, each block runs on a clone of `model`, and the replica gradients
/// merge back into `model` in block order via `axpy(1.0, ·)` (a ×1.0
/// multiply is exact, so the merge adds no rounding beyond its summation
/// order). Runs are deterministic for a fixed thread count. Whether they
/// are bitwise equal to single-lane runs depends on the block sizes:
///
/// - When every lane holds one micro-batch (lanes = micro-batches, e.g. 4
///   lanes on 4), each replica gradient is that micro-batch's gradient and
///   the block-order merge adds them in the serial order, so the result is
///   bitwise the single-lane one.
/// - When a lane holds more than one micro-batch (e.g. 2 lanes on 4), the
///   lane first sums its own block, so the gradient is associated
///   `(g0 + g1) + (g2 + g3)` instead of `((g0 + g1) + g2) + g3` and may
///   differ from the single-lane result in the last bits.
///
/// Dropout must be inactive (p = 0, as the pretraining reproduction uses) —
/// active dropout would draw from per-replica RNG streams and diverge from
/// the serial stream.
fn accumulate_micro_batches(
    model: &mut BertForPreTraining,
    batches: &[(PreTrainingBatch, ForwardCtx)],
) -> Vec<f64> {
    let n = batches.len();
    let lanes = par::max_threads().min(n);
    if lanes <= 1 {
        return batches
            .iter()
            .map(|(batch, ctx)| model.train_step(batch, ctx).total_loss)
            .collect();
    }
    // Lane w runs micro-batches [bounds[w], bounds[w+1]). Lane 0 uses
    // `model` itself; lanes 1.. use clones taken now, after `zero_grad`, so
    // every replica's grads start at zero and end holding its block's sum.
    let bounds: Vec<usize> = (0..=lanes).map(|w| w * n / lanes).collect();
    let mut replicas: Vec<BertForPreTraining> = (1..lanes).map(|_| model.clone()).collect();
    let mut losses = vec![0.0; n];
    {
        let mut lane_models: Vec<&mut BertForPreTraining> = Vec::with_capacity(lanes);
        lane_models.push(&mut *model);
        lane_models.extend(replicas.iter_mut());
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(lanes);
        let mut loss_rest: &mut [f64] = &mut losses;
        for (w, m) in lane_models.into_iter().enumerate() {
            let (start, end) = (bounds[w], bounds[w + 1]);
            let (block_losses, rest) = loss_rest.split_at_mut(end - start);
            loss_rest = rest;
            let block = &batches[start..end];
            tasks.push(Box::new(move || {
                for ((batch, ctx), slot) in block.iter().zip(block_losses.iter_mut()) {
                    *slot = m.train_step(batch, ctx).total_loss;
                }
            }));
        }
        par::run_tasks(tasks);
    }
    // Merge replica gradients into the primary model in block order.
    for replica in replicas.iter_mut() {
        let mut grads: Vec<pipefisher_tensor::Matrix> = Vec::new();
        replica.visit_params(&mut |p| grads.push(std::mem::take(&mut p.grad)));
        let mut idx = 0;
        model.visit_params(&mut |p| {
            p.grad.axpy(1.0, &grads[idx]);
            idx += 1;
        });
    }
    // K-FAC statistics captured by a replica's block must move to the
    // primary model (lane 0's captures already live there).
    for (w, replica) in replicas.iter_mut().enumerate() {
        let block = &batches[bounds[w + 1]..bounds[w + 2]];
        if !block.iter().any(|(_, ctx)| ctx.capture_kfac) {
            continue;
        }
        let mut stats = Vec::new();
        replica.visit_linears(&mut |l| stats.push(std::mem::take(l.kfac_stats_mut())));
        let mut idx = 0;
        model.visit_linears(&mut |l| {
            *l.kfac_stats_mut() = std::mem::take(&mut stats[idx]);
            idx += 1;
        });
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticLanguage;
    use pipefisher_nn::BertConfig;

    fn quick_setup(seed: u64) -> (Trainer, BertForPreTraining) {
        let lang = SyntheticLanguage::new(36, 2, 4, 11);
        let sampler = BatchSampler::new(lang, 16);
        let trainer = Trainer::new(sampler, 8, LrSchedule::Constant(5e-3), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = BertForPreTraining::new(BertConfig::tiny(36, 16), 0.0, &mut rng);
        (trainer, model)
    }

    #[test]
    fn lamb_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(1);
        let run = trainer.run(
            &mut model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            30,
        );
        assert_eq!(run.losses.len(), 30);
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn kfac_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(2);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 2,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 30);
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(run.label, "K-FAC");
    }

    #[test]
    fn shampoo_training_reduces_loss() {
        let (mut trainer, mut model) = quick_setup(9);
        let choice = OptimizerChoice::Shampoo {
            shampoo: pipefisher_optim::ShampooConfig {
                root_interval: 2,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 30);
        assert_eq!(run.label, "Shampoo");
        let first = run.smoothed(5)[2];
        let last = run.final_loss(5);
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn smoothing_and_target_extraction() {
        let run = TrainRun {
            losses: vec![5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0],
            label: "x".into(),
            metrics: Vec::new(),
        };
        let sm = run.smoothed(3);
        assert_eq!(sm.len(), 7);
        assert!(sm[1] <= 4.0 + 1e-12);
        assert_eq!(run.steps_to_reach(2.5, 1), Some(3));
        assert_eq!(run.steps_to_reach(0.5, 1), None);
    }

    #[test]
    fn accumulation_matches_big_batch_direction() {
        // Accumulating 2 batches of 8 behaves like (and learns like) a
        // batch of 16: losses drop and stay finite.
        let (mut trainer, mut model) = quick_setup(4);
        let run = trainer.run_with_options(
            &mut model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            20,
            &crate::TrainOptions {
                accumulation_steps: 2,
                grad_delay: 0,
            },
        );
        assert_eq!(run.losses.len(), 20);
        assert!(run.losses.iter().all(|l| l.is_finite()));
        assert!(run.final_loss(5) < run.smoothed(5)[2]);
    }

    #[test]
    fn accumulated_kfac_also_learns() {
        let (mut trainer, mut model) = quick_setup(5);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 2,
                ..Default::default()
            },
        };
        let run = trainer.run_with_options(
            &mut model,
            &choice,
            20,
            &crate::TrainOptions {
                accumulation_steps: 2,
                grad_delay: 0,
            },
        );
        assert!(run.final_loss(5) < run.smoothed(5)[2]);
    }

    #[test]
    fn stale_gradients_still_learn_but_trail_fresh() {
        // App. C.1: asynchronous pipelines trade bubble-free throughput for
        // stale gradients. A modest delay must still converge…
        let (mut t_fresh, mut m_fresh) = quick_setup(6);
        let fresh = t_fresh.run(
            &mut m_fresh,
            &OptimizerChoice::Lamb { weight_decay: 0.0 },
            40,
        );
        let (mut t_stale, mut m_stale) = quick_setup(6);
        let stale = t_stale.run_with_options(
            &mut m_stale,
            &OptimizerChoice::Lamb { weight_decay: 0.0 },
            40,
            &crate::TrainOptions {
                accumulation_steps: 1,
                grad_delay: 4,
            },
        );
        assert!(
            stale.final_loss(7) < stale.smoothed(7)[3],
            "stale run did not learn"
        );
        // …but not faster than the synchronous baseline.
        assert!(stale.final_loss(7) >= fresh.final_loss(7) - 0.05);
        assert!(stale.label.contains("delay 4"));
    }

    #[test]
    #[should_panic(expected = "asynchronous first-order")]
    fn stale_kfac_is_rejected() {
        let (mut trainer, mut model) = quick_setup(7);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.0,
            kfac: KfacConfig::default(),
        };
        let _ = trainer.run_with_options(
            &mut model,
            &choice,
            5,
            &crate::TrainOptions {
                accumulation_steps: 1,
                grad_delay: 2,
            },
        );
    }

    /// Serializes tests that mutate the process-wide worker-pool settings.
    fn par_settings_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        match LOCK.get_or_init(|| std::sync::Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn parallel_accumulation_first_step_loss_matches_serial() {
        let _guard = par_settings_lock();
        // Within one step no parameters change between micro-batches, so
        // every lane computes exactly the loss the serial loop would, and
        // the index-order sum makes step 0's loss bitwise equal across
        // thread counts. (Later steps may drift in the last bits: the
        // block-order gradient merge changes the FP association.)
        let run_at = |threads: usize| {
            par::set_max_threads(threads);
            let (mut trainer, mut model) = quick_setup(12);
            let run = trainer.run_with_options(
                &mut model,
                &OptimizerChoice::Lamb { weight_decay: 0.01 },
                1,
                &crate::TrainOptions {
                    accumulation_steps: 4,
                    grad_delay: 0,
                },
            );
            par::set_max_threads(0);
            run.losses[0]
        };
        let serial = run_at(1);
        let parallel = run_at(2);
        assert!(
            serial.to_bits() == parallel.to_bits(),
            "step-0 loss differs: {serial:?} vs {parallel:?}"
        );
    }

    #[test]
    fn parallel_accumulated_runs_are_deterministic() {
        let _guard = par_settings_lock();
        // Two identical multi-step accumulated runs at a fixed thread count
        // must agree exactly, K-FAC capture included.
        let run_once = || {
            let (mut trainer, mut model) = quick_setup(13);
            let choice = OptimizerChoice::Kfac {
                weight_decay: 0.01,
                kfac: KfacConfig {
                    damping: 1e-2,
                    curvature_interval: 2,
                    inversion_interval: 2,
                    ..Default::default()
                },
            };
            trainer.run_with_options(
                &mut model,
                &choice,
                6,
                &crate::TrainOptions {
                    accumulation_steps: 3,
                    grad_delay: 0,
                },
            )
        };
        par::set_max_threads(2);
        let r1 = run_once();
        let r2 = run_once();
        par::set_max_threads(0);
        assert_eq!(r1.losses, r2.losses);
        assert!(r1.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn metrics_rows_track_steps_and_refreshes() {
        let (mut trainer, mut model) = quick_setup(3);
        let choice = OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 1e-2,
                curvature_interval: 2,
                inversion_interval: 4,
                ..Default::default()
            },
        };
        let run = trainer.run(&mut model, &choice, 5);
        assert_eq!(run.metrics.len(), 5);
        for (i, m) in run.metrics.iter().enumerate() {
            assert_eq!(m.step, i);
            assert_eq!(m.loss, run.losses[i]);
            assert!(m.loss.is_finite() && m.grad_norm.is_finite());
            assert!(m.grad_norm >= 0.0 && m.lr > 0.0);
            assert!(m.data_ms >= 0.0 && m.forward_backward_ms >= 0.0 && m.optimizer_ms >= 0.0);
            // Curvature every 2 steps, inversion every 4.
            assert_eq!(m.curvature_refreshed, i % 2 == 0);
        }
        assert_eq!(run.metrics[4].curvature_refreshes, 3); // steps 0, 2, 4
        assert_eq!(run.metrics[4].inversions, 2); // steps 0, 4
        let jsonl = crate::to_jsonl(&run.metrics);
        assert_eq!(jsonl.lines().count(), 5);
    }

    #[test]
    fn lamb_metrics_have_no_kfac_refreshes() {
        let (mut trainer, mut model) = quick_setup(8);
        let run = trainer.run(&mut model, &OptimizerChoice::Lamb { weight_decay: 0.01 }, 3);
        assert!(run.metrics.iter().all(|m| m.curvature_refreshes == 0));
        assert!(run.metrics.iter().all(|m| m.inversions == 0));
    }

    #[test]
    fn runs_are_deterministic() {
        let (mut t1, mut m1) = quick_setup(7);
        let (mut t2, mut m2) = quick_setup(7);
        let r1 = t1.run(&mut m1, &OptimizerChoice::Lamb { weight_decay: 0.0 }, 5);
        let r2 = t2.run(&mut m2, &OptimizerChoice::Lamb { weight_decay: 0.0 }, 5);
        assert_eq!(r1.losses, r2.losses);
    }
}
