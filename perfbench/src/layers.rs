//! The traced run: per-layer metrics.
//!
//! Two sources, both outside the program: the spans the program already
//! emits during a traced train call (`forward_backward`, `optimizer_step`,
//! `forward`, `backward`, `curvature_a`, `curvature_b`, `inversion`,
//! `par_scope`), and this file's own timing of calls into the public
//! functions of `tensor`, `nn`, `optim`, `lm` and `core` at the workloads'
//! shapes.

use crate::stats::{mean, median, percentile};
use crate::workload::{self, Call, Workload, BATCH, MICRO, SEQ, STAGES};
use crate::{host, Outcome};
use pipefisher_core::{assign, PipeFisherConfig};
use pipefisher_nn::{
    BertConfig, BertForPreTraining, Embedding, FeedForward, ForwardCtx, Layer, LayerNorm,
    MultiHeadAttention, StagedBert, TransformerBlock,
};
use pipefisher_optim::{
    fold_curvature_a, fold_curvature_b, refresh_inverses, Kfac, Lamb, LayerKfacState, Optimizer,
};
use pipefisher_perfmodel::{flops, TransformerConfig};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_sim::KindCost;
use pipefisher_tensor::{cholesky_inverse_into, init, par, Matrix};
use pipefisher_trace::{Phase, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one probe; each probe keeps the median of its
/// samples.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const PROBE_MAX_SAMPLES: usize = 200;
/// Token rows of a standalone layer probe: one micro-batch.
const TOKENS: usize = BATCH * SEQ;
/// K-FAC chunks per stage in the executor's plan (`lm::pipeline`).
const AUX_GRANULARITY: usize = 2;
/// Steps of a traced call: enough spans for stable means, short enough for
/// several untraced/traced pairs per run.
const TRACE_STEPS: usize = 50;
/// Untraced step rows a run pools at least, so that `lm.trainer.step_ms_p95`
/// has ten samples beyond it.
const P95_ROWS: usize = 200;

/// Per-slot medians of the µs timings `f` returns, after one untimed
/// call: at least five samples, then until the probe budget is spent.
fn probe<const N: usize>(mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
    f();
    let start = Instant::now();
    let mut samples: Vec<[f64; N]> = Vec::new();
    while samples.len() < 5 || (start.elapsed() < PROBE_BUDGET && samples.len() < PROBE_MAX_SAMPLES)
    {
        samples.push(f());
    }
    std::array::from_fn(|i| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
}

/// Median µs of one call of `f`.
fn probe_us(mut f: impl FnMut()) -> f64 {
    let [us] = probe(|| {
        let t = Instant::now();
        f();
        [us_since(t)]
    });
    us
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    par::set_max_threads(w.lanes());
    probe_tensor(&mut out, seed);
    probe_nn(&mut out, seed);
    probe_optim(&mut out, seed);
    probe_lm_core(&mut out, seed);

    // Untraced and traced calls of the workload alternate until the budget
    // is spent; their losses must agree bit for bit.
    let budget = Duration::from_secs(seconds);
    let (mut plain, mut traced): (Vec<Call>, Vec<Call>) = (Vec::new(), Vec::new());
    let mut events = Vec::new();
    let cpu_before = host::cpu_times();
    while plain.len() * TRACE_STEPS < P95_ROWS || start.elapsed() < budget {
        match (
            call(&mut out, w, seed, false),
            call(&mut out, w, seed, true),
        ) {
            (Some((p, _)), Some((t, ev))) => {
                plain.push(p);
                traced.push(t);
                events.extend(ev);
            }
            _ => return out,
        }
    }
    out.steal_share = host::steal_share(cpu_before, host::cpu_times());
    for c in plain.iter().chain(&traced) {
        let bad = workload::bad_steps(&c.losses, &plain[0].losses);
        if bad > 0 {
            out.fail(
                bad,
                format!("{bad} traced step losses differ from untraced"),
            );
        }
    }
    let steps = (traced.len() * TRACE_STEPS) as f64;
    let count = |name| events.iter().filter(|e| e.name == name).count() as f64;
    out.metric(
        "tensor.par.scopes_per_step",
        count("par_scope") / steps,
        "count",
    );
    let fb = median(&required_ms(&mut out, &events, &["forward_backward"]));
    let opt = median(&required_ms(&mut out, &events, &["optimizer_step"]));
    out.metric("lm.trainer.forward_backward_ms", fb, "ms");
    out.metric("lm.trainer.optimizer_ms", opt, "ms");
    let rows: Vec<f64> = plain
        .iter()
        .flat_map(|c| c.rows.iter().map(workload::step_ms))
        .collect();
    out.metric("lm.trainer.step_ms_p95", percentile(&rows, 0.95), "ms");
    let tps = |cs: &[Call]| median(&cs.iter().map(|c| 1.0 / c.wall_s).collect::<Vec<_>>());
    out.metric(
        "trace.overhead_frac",
        1.0 - tps(&traced) / tps(&plain),
        "ratio",
    );

    // The pipeline metrics describe a pipelined run: the workload's own,
    // or for the serial workload the pipe2-kfac run it is the oracle of.
    // Metrics of K-FAC work in bubbles always come from a pipe2-kfac run.
    let companion = if w == Workload::Pipe2Kfac {
        None
    } else {
        let Some((c, ev)) = call(&mut out, Workload::Pipe2Kfac, seed, true) else {
            return out;
        };
        par::set_max_threads(w.lanes());
        let bad = workload::bad_steps(&c.losses, &c.losses);
        if bad > 0 {
            out.fail(bad, format!("{bad} non-finite pipe2-kfac losses"));
        }
        Some((vec![c], ev))
    };
    let own = (traced.as_slice(), events.as_slice());
    let kfac_run = companion
        .as_ref()
        .map_or(own, |(c, ev)| (c.as_slice(), ev.as_slice()));
    let pipe_run = if w.pipelined() { own } else { kfac_run };
    pipeline_metrics(&mut out, pipe_run.0, pipe_run.1);
    kfac_bubble_metrics(&mut out, kfac_run.0, kfac_run.1);
    out.note(format!(
        "{} untraced + {} traced calls of {TRACE_STEPS} steps, {:.1} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    ));
    out
}

/// One train call of `w`, traced or not; a failure is recorded in `out`.
fn call(out: &mut Outcome, w: Workload, seed: u64, trace: bool) -> Option<(Call, Vec<TraceEvent>)> {
    out.attempted += TRACE_STEPS;
    pipefisher_trace::set_enabled(trace);
    let result = workload::train(w, seed, TRACE_STEPS);
    pipefisher_trace::set_enabled(false);
    let events = pipefisher_trace::drain();
    match result {
        Ok(c) => Some((c, events)),
        Err(e) => {
            out.fail(TRACE_STEPS, e);
            None
        }
    }
}

/// Durations in ms of the named spans.
fn durations_ms(events: &[TraceEvent], names: &[&str]) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.phase == Phase::Complete && names.contains(&e.name.as_str()))
        .map(|e| e.dur_us / 1e3)
        .collect()
}

fn sum_ms(events: &[TraceEvent], names: &[&str]) -> f64 {
    durations_ms(events, names).iter().sum()
}

/// Durations in ms of spans a metric needs. A run that emitted none fails,
/// and reads as one zero-length span so the statistics stay defined.
fn required_ms(out: &mut Outcome, events: &[TraceEvent], names: &[&str]) -> Vec<f64> {
    let d = durations_ms(events, names);
    if d.is_empty() {
        out.fail(0, format!("the traced run emitted no {names:?} spans"));
        return vec![0.0];
    }
    d
}

/// Bubble use and K-FAC op costs of a pipe2-kfac run.
fn kfac_bubble_metrics(out: &mut Outcome, calls: &[Call], events: &[TraceEvent]) {
    let steps = (calls.len() * TRACE_STEPS) as f64;
    let (mut aux, mut idle, mut tail) = (0.0, 0.0, 0.0);
    for b in calls.iter().filter_map(|c| c.bubbles) {
        aux += b.aux_ms;
        idle += b.idle_ms;
        tail += b.tail_ms;
    }
    out.metric("lm.pipeline.bubble_occupancy", aux / (aux + idle), "ratio");
    out.metric("lm.pipeline.tail_aux_ms", tail / steps, "ms");
    let curvature = required_ms(out, events, &["curvature_a", "curvature_b"]);
    out.metric("lm.pipeline.curvature_us", mean(&curvature) * 1e3, "us");
    let inversion = required_ms(out, events, &["inversion"]);
    out.metric("lm.pipeline.inversion_us", mean(&inversion) * 1e3, "us");
}

/// Stage costs, utilization and predicted-vs-measured step time of a
/// pipelined run.
fn pipeline_metrics(out: &mut Outcome, calls: &[Call], events: &[TraceEvent]) {
    let steps = (calls.len() * TRACE_STEPS) as f64;
    let idle: f64 = calls
        .iter()
        .filter_map(|c| c.bubbles)
        .map(|b| b.idle_ms)
        .sum();
    out.metric("lm.pipeline.bubble_idle_ms", idle / steps, "ms");
    let f_ms = mean(&required_ms(out, events, &["forward"]));
    let b_ms = mean(&required_ms(out, events, &["backward"]));
    out.metric("lm.pipeline.forward_us", f_ms * 1e3, "us");
    out.metric("lm.pipeline.backward_us", b_ms * 1e3, "us");
    let fb = required_ms(out, events, &["forward_backward"]);
    let busy = sum_ms(
        events,
        &[
            "forward",
            "backward",
            "curvature_a",
            "curvature_b",
            "inversion",
        ],
    );
    out.metric(
        "lm.pipeline.worker_busy_frac",
        busy / (STAGES as f64 * fb.iter().sum::<f64>()),
        "ratio",
    );

    // Predicted vs measured: the measured per-stage costs as the cost table
    // `core::assign` plans with. A step folds each stage's factors once and
    // inverts them once; the table counts curvature per micro-batch and
    // inversion per factor.
    let per_stage_step = steps * STAGES as f64;
    let mut costs = KindCost::standard(f_ms, b_ms);
    costs.t_curv_a = sum_ms(events, &["curvature_a"]) / per_stage_step / MICRO as f64;
    costs.t_curv_b = sum_ms(events, &["curvature_b"]) / per_stage_step / MICRO as f64;
    costs.t_inv_a = sum_ms(events, &["inversion"]) / per_stage_step / 2.0;
    costs.t_inv_b = costs.t_inv_a;
    let fb_ms = median(&fb);
    match assign(&assign_config(costs)) {
        Ok(s) => {
            out.metric("lm.pipeline.overhead_ms", fb_ms - s.t_step_baseline, "ms");
            out.metric("core.assign.predicted_step_ms", s.t_step, "ms");
            out.metric(
                "core.assign.predicted_utilization",
                s.steady_utilization,
                "ratio",
            );
            out.metric("core.assign.step_ms_error", fb_ms / s.t_step - 1.0, "ratio");
        }
        Err(e) => out.fail(0, format!("core::assign on measured costs: {e}")),
    }
}

fn assign_config(costs: KindCost) -> PipeFisherConfig {
    PipeFisherConfig {
        scheme: PipelineScheme::OneFOneB,
        d: STAGES,
        n_micro: MICRO,
        w: 1,
        costs,
        max_steps: 16,
        chimera_pair_parallelism: false,
        recompute: false,
        granularity: AUX_GRANULARITY,
    }
}

fn probe_tensor(out: &mut Outcome, seed: u64) {
    let mut rng = StdRng::seed_from_u64(workload::sub_seed(seed, 10));
    out.metric(
        "tensor.par.fork_join_us",
        probe_us(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {}), Box::new(|| {})];
            par::run_tasks(tasks);
        }),
        "us",
    );

    // The feed-forward GEMMs of one micro-batch, and the same probe's rate
    // at 512³ as the ceiling.
    let gemm = |m: usize, k: usize, n: usize, rng: &mut StdRng| {
        let a = init::normal(m, k, 1.0, rng);
        let b = init::normal(k, n, 1.0, rng);
        let mut c = Matrix::zeros(m, n);
        let us = probe_us(|| a.matmul_into(black_box(&b), &mut c));
        (2.0 * (m * k * n) as f64, us)
    };
    let (f1, t1) = gemm(TOKENS, 64, 128, &mut rng);
    let (f2, t2) = gemm(TOKENS, 128, 64, &mut rng);
    let (f3, t3) = gemm(512, 512, 512, &mut rng);
    let gflops = (f1 + f2) / (t1 + t2) / 1e3;
    let ceiling = f3 / t3 / 1e3;
    out.metric("tensor.gemm.gflops", gflops, "GFLOP/s");
    out.metric("tensor.gemm.ceiling_gflops", ceiling, "GFLOP/s");
    out.metric("tensor.gemm.ceiling_ratio", gflops / ceiling, "ratio");

    // The K-FAC factor sizes of this model: d_model+1 and d_ff+1.
    for (n, name) in [
        (65, "tensor.cholesky_inverse.n65_us"),
        (129, "tensor.cholesky_inverse.n129_us"),
    ] {
        let x = init::normal(2 * n, n, 1.0, &mut rng);
        let mut spd = x.gram();
        spd.add_diag(1e-2);
        let mut inv = Matrix::zeros(n, n);
        out.metric(
            name,
            probe_us(|| cholesky_inverse_into(black_box(&spd), &mut inv).expect("SPD")),
            "us",
        );
    }
}

/// Median µs of a layer's forward and of its backward at one micro-batch;
/// the forward output stands in for the upstream gradient.
fn fwd_bwd(layer: &mut dyn Layer, x: &Matrix) -> [f64; 2] {
    let ctx = ForwardCtx::train().with_seq_len(SEQ);
    probe(|| {
        layer.zero_grad();
        let t = Instant::now();
        let y = layer.forward(black_box(x), &ctx);
        let fwd = us_since(t);
        let t = Instant::now();
        black_box(layer.backward(&y));
        [fwd, us_since(t)]
    })
}

fn probe_nn(out: &mut Outcome, seed: u64) {
    let mut rng = StdRng::seed_from_u64(workload::sub_seed(seed, 11));
    let config = BertConfig::mini(workload::VOCAB, SEQ);
    let (d, ff, heads) = (config.d_model, config.d_ff, config.n_heads);
    let batch = workload::sampler(seed).sample(BATCH, &mut rng);
    let x = init::normal(TOKENS, d, 1.0, &mut rng);
    let ctx = ForwardCtx::train().with_seq_len(SEQ);

    let mut emb = Embedding::new("emb", workload::VOCAB, SEQ, d, 0.0, &mut rng);
    let [fwd, bwd] = probe(|| {
        let t = Instant::now();
        let y = emb.forward(&batch.token_ids, &batch.segment_ids, SEQ, &ctx);
        let fwd = us_since(t);
        let t = Instant::now();
        emb.backward(&y);
        [fwd, us_since(t)]
    });
    out.metric("nn.embedding.fwd_us", fwd, "us");
    out.metric("nn.embedding.bwd_us", bwd, "us");

    let layers: [(&str, &str, Box<dyn Layer>); 3] = [
        (
            "nn.attention.fwd_us",
            "nn.attention.bwd_us",
            Box::new(MultiHeadAttention::new("attn", d, heads, 0.0, &mut rng)),
        ),
        (
            "nn.feedforward.fwd_us",
            "nn.feedforward.bwd_us",
            Box::new(FeedForward::new("ff", d, ff, &mut rng)),
        ),
        (
            "nn.layernorm.fwd_us",
            "nn.layernorm.bwd_us",
            Box::new(LayerNorm::new("ln", d)),
        ),
    ];
    for (fwd_name, bwd_name, mut layer) in layers {
        let [fwd, bwd] = fwd_bwd(layer.as_mut(), &x);
        out.metric(fwd_name, fwd, "us");
        out.metric(bwd_name, bwd, "us");
    }

    // Both pretraining heads with their losses: the last stage of a model
    // split after an encoder with no blocks.
    let headless = BertConfig {
        n_layers: 0,
        ..config.clone()
    };
    let mut staged = StagedBert::from_model(BertForPreTraining::new(headless, 0.0, &mut rng), 2);
    let head = staged.stage_mut(1);
    let [fwd, bwd] = probe(|| {
        let input = x.clone();
        let t = Instant::now();
        black_box(head.forward(Some(input), &batch, &ctx));
        let fwd = us_since(t);
        let t = Instant::now();
        black_box(head.backward(None, &batch));
        [fwd, us_since(t)]
    });
    out.metric("nn.head.fwd_us", fwd, "us");
    out.metric("nn.head.bwd_us", bwd, "us");

    let mut block = TransformerBlock::new("block", d, ff, heads, 0.0, &mut rng);
    let [fwd, bwd] = fwd_bwd(&mut block, &x);
    let shape = TransformerConfig {
        name: "mini BERT".to_string(),
        d_model: d,
        d_ff: ff,
        n_heads: heads,
        seq_len: SEQ,
        n_layers: config.n_layers,
    };
    let block_flops = (flops::forward_flops_per_token(&shape)
        + flops::backward_flops_per_token(&shape))
        * TOKENS as f64;
    out.metric(
        "nn.block.gflops",
        block_flops / (fwd + bwd) / 1e3,
        "GFLOP/s",
    );
}

fn probe_optim(out: &mut Outcome, seed: u64) {
    let mut rng = StdRng::seed_from_u64(workload::sub_seed(seed, 12));
    let mut model = workload::model(seed);
    let batch = workload::sampler(seed).sample(BATCH, &mut rng);
    model.train_step(&batch, &ForwardCtx::train_with_capture());
    let config = workload::kfac_config();
    let mut names = Vec::new();
    model.visit_linears(&mut |lin| names.push(lin.name().to_string()));
    let mut states = vec![LayerKfacState::default(); names.len()];

    // Each probe covers every K-FAC layer of the model: one step's work.
    let mut each_layer = |f: &mut dyn FnMut(&mut LayerKfacState, &pipefisher_nn::Linear)| {
        let mut i = 0;
        model.visit_linears(&mut |lin| {
            f(&mut states[i], lin);
            i += 1;
        });
    };
    let fold_a =
        probe_us(|| each_layer(&mut |s, lin| fold_curvature_a(s, lin, config.ema_decay, 1)));
    let fold_b =
        probe_us(|| each_layer(&mut |s, lin| fold_curvature_b(s, lin, config.ema_decay, 1)));
    let invert = probe_us(|| each_layer(&mut |s, _| refresh_inverses(s, config.damping, None, 1)));
    out.metric("optim.kfac.fold_a_us", fold_a, "us");
    out.metric("optim.kfac.fold_b_us", fold_b, "us");
    out.metric("optim.kfac.invert_us", invert, "us");

    let lr = 5e-3;
    let mut kfac = Kfac::new(config, Lamb::new(0.01));
    for (name, state) in names.iter().zip(states) {
        kfac.put_state(name, state);
    }
    out.metric(
        "optim.kfac.precondition_us",
        probe_us(|| kfac.step_preconditioned(&mut model, lr)),
        "us",
    );
    let mut lamb = Lamb::new(0.01);
    out.metric(
        "optim.lamb.step_us",
        probe_us(|| {
            lamb.begin_step();
            model.visit_params(&mut |p| lamb.step_param(p, lr));
        }),
        "us",
    );
}

fn probe_lm_core(out: &mut Outcome, seed: u64) {
    let mut rng = StdRng::seed_from_u64(workload::sub_seed(seed, 13));
    let sampler = workload::sampler(seed);
    out.metric(
        "lm.data.sample_us",
        probe_us(|| {
            black_box(sampler.sample(BATCH, &mut rng));
        }),
        "us",
    );
    let opts = workload::pipeline_options();
    out.metric(
        "core.plan_for_ms",
        probe_us(|| {
            black_box(pipefisher_lm::plan_for(&opts).expect("1F1B D=2 lowers"));
        }) / 1e3,
        "ms",
    );
}
