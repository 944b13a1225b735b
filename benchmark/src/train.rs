//! The training stage: batched ICNet training (B = 16, every core) on the
//! bundled 120-instance c1529 dataset, a fixed number of epochs with the
//! convergence stop disabled.
//!
//! The tensor kernels and the icnet forward/backward passes do the work;
//! SAT does nothing. The dataset is a copy kept with the benchmark, so
//! regenerating the repository's results cannot change this stage.

use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::stage::{Started, Timed};
use crate::{host, stats, Args};
use icnet::{
    train_with, Aggregation, BatchedGraph, CircuitGraph, FeatureSet, GradEngine, GraphModel,
    ModelKind, TrainConfig, TrainControl,
};
use std::sync::Arc;
use std::time::Instant;
use tensor::{Adam, CsrMatrix, Matrix, Optimizer};

/// The bundled dataset: c1529 (circuit seed 0), LUT-4 locking, 120
/// instances of 1..40 key gates, sweep seed 7, work budget 2e8.
const FIXTURE: &str =
    include_str!("../fixtures/dataset_c1529_0_lut4-lock_120_1_40_7_200000000.csv");
const BATCH: usize = 16;
/// Epochs per training run: each timed sample is one run from a fresh model.
const EPOCHS: usize = 4;
const HIDDEN: usize = 16;

/// Everything a training run needs, built in set-up.
struct Task {
    op: Arc<CsrMatrix>,
    xs: Vec<Matrix>,
    ys: Vec<f64>,
}

fn load() -> Task {
    let instances = dataset::dataset_from_csv(FIXTURE).expect("bundled dataset parses");
    let circuit = synth::iscas::circuit("c1529", 0).expect("c1529 profile exists");
    let xs = dataset::graph_features(&circuit, &instances, FeatureSet::All);
    let ys = instances.iter().map(|i| i.log_seconds).collect();
    let op = Arc::new(ModelKind::ICNet.operator(&CircuitGraph::from_circuit(&circuit)));
    Task { op, xs, ys }
}

fn model(seed: u64) -> GraphModel {
    GraphModel::new(
        ModelKind::ICNet,
        Aggregation::Nn,
        FeatureSet::All.width(),
        HIDDEN,
        HIDDEN,
        seed,
    )
}

fn config(seed: u64, epochs: usize, jobs: usize) -> TrainConfig {
    TrainConfig {
        max_epochs: epochs,
        batch_size: BATCH,
        // Never converged: every run trains exactly `epochs` epochs.
        tol: f64::NEG_INFINITY,
        patience: usize::MAX,
        seed,
        jobs,
        engine: GradEngine::Batched,
        ..TrainConfig::default()
    }
}

/// FNV-1a over the parameters' bit patterns.
fn param_hash(model: &GraphModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in model.params() {
        for v in p.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// What one training run produced, for the output checks.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    hash: u64,
    loss_bits: Vec<u64>,
    peak_tape_bytes: u64,
}

/// One training run from a fresh model: its wall time in ms, what it
/// produced, and whether every epoch stayed finite.
fn train_once(task: &Task, seed: u64, epochs: usize, jobs: usize) -> (f64, RunResult, bool) {
    let mut m = model(seed);
    let started = Instant::now();
    let report = train_with(
        &mut m,
        &task.op,
        &task.xs,
        &task.ys,
        &config(seed, epochs, jobs),
        &TrainControl::default(),
    );
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let healthy = !report.diverged
        && report.loss_history.len() == epochs
        && report.loss_history.iter().all(|l| l.is_finite());
    let result = RunResult {
        hash: param_hash(&m),
        loss_bits: report.loss_history.iter().map(|l| l.to_bits()).collect(),
        peak_tape_bytes: report.peak_tape_bytes,
    };
    (ms, result, healthy)
}

/// Sets the stage up; when tracing, runs the traced epoch into a ledger.
pub fn start(args: &Args, out: &mut Outcome) -> (f64, Started) {
    let jobs = host::cores();
    // Set-up: load and featurize the dataset, then one uncounted epoch.
    let (setup_s, task) = crate::repeated_setup(
        || {
            let task = load();
            train_once(&task, args.seed, 1, jobs);
            task
        },
        drop,
    );
    if args.trace {
        return (
            setup_s,
            Started::Traced(traced(&task, args.seed, jobs, out)),
        );
    }
    let runs = Runs {
        task,
        seed: args.seed,
        jobs,
        epoch_ms: Vec::new(),
        reference: None,
    };
    (setup_s, Started::Timed(Box::new(runs)))
}

/// The timed phase: training runs from a fresh model, each of which must
/// produce what the first one did.
struct Runs {
    task: Task,
    seed: u64,
    jobs: usize,
    /// `(steal, epoch ms)` per run.
    epoch_ms: Vec<(f64, f64)>,
    reference: Option<RunResult>,
}

impl Timed for Runs {
    fn sample(&mut self, out: &mut Outcome) -> f64 {
        let steal = host::StealMeter::start();
        let (ms, result, healthy) = train_once(&self.task, self.seed, EPOCHS, self.jobs);
        self.epoch_ms.push((steal.share(), ms / EPOCHS as f64));
        out.attempted += EPOCHS as u64;
        if !healthy {
            out.failed += EPOCHS as u64;
        }
        out.check(healthy, || "training diverged or lost an epoch".into());
        match &self.reference {
            None => self.reference = Some(result),
            Some(r) => out.check(*r == result, || {
                format!("training is not deterministic: {r:?} then {result:?}")
            }),
        }
        ms / 1e3
    }

    fn steals(&self) -> Vec<f64> {
        self.epoch_ms.iter().map(|s| s.0).collect()
    }

    fn finish(self: Box<Self>, out: &mut Outcome) {
        // Parallel training must be bit-identical to serial.
        let reference = self.reference.expect("at least one run");
        let (_, serial, _) = train_once(&self.task, self.seed, EPOCHS, 1);
        out.check(serial == reference, || {
            format!(
                "jobs={} training differs from serial: {reference:?} vs {serial:?}",
                self.jobs
            )
        });
        eprintln!(
            "# train: {} runs x {EPOCHS} epochs; params fnv1a {:016x}, peak_tape_bytes {}\n\
             #   (steal, epoch ms) {:.3?}",
            self.epoch_ms.len(),
            reference.hash,
            reference.peak_tape_bytes,
            self.epoch_ms
        );
        out.metric(
            "epoch_ms",
            stats::quiet_median(self.epoch_ms, stats::QUIET_STEAL),
            "ms",
        );
    }
}

/// The traced run: one plain training run for the epoch time, then each
/// layer of an epoch called on its own with the epoch's shapes.
fn traced(task: &Task, seed: u64, jobs: usize, out: &mut Outcome) -> Ledger {
    let (run_ms, result, healthy) = train_once(task, seed, EPOCHS, jobs);
    out.attempted += EPOCHS as u64;
    out.failed += if healthy { 0 } else { EPOCHS as u64 };
    out.check(healthy, || "training diverged or lost an epoch".into());
    let epoch_ms = run_ms / EPOCHS as f64;

    // An epoch's batches: ceil(n / B) chunks, the last one partial.
    let n = task.xs.len();
    let chunks: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(BATCH)
        .map(|s| s..(s + BATCH).min(n))
        .collect();
    let batches = chunks.len() as u64;
    // Each layer is timed this many times; the ledger takes the median.
    let reps = [(); 5];

    // Packing: the block-diagonal layouts (built once per run, amortized
    // over its epochs) plus stacking every batch's features.
    let mut lengths: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
    lengths.dedup();
    let layouts_ms = stats::median_ms(&reps, |_| {
        for &len in &lengths {
            std::hint::black_box(BatchedGraph::replicate(&task.op, len));
        }
    });
    let layouts: Vec<BatchedGraph> = chunks
        .iter()
        .map(|c| BatchedGraph::replicate(&task.op, c.len()))
        .collect();
    let refs: Vec<Vec<&Matrix>> = chunks
        .iter()
        .map(|c| task.xs[c.clone()].iter().collect())
        .collect();
    let stack_ms = stats::median_ms(&reps, |_| {
        for (layout, xs) in layouts.iter().zip(&refs) {
            std::hint::black_box(layout.stack_features(xs));
        }
    });
    let pack_ms = layouts_ms / EPOCHS as f64 + stack_ms;

    // Forward: batched prediction over every training batch (it stacks
    // its own features, so the stacking time is taken back out).
    let m = model(seed);
    let predict_all_ms = stats::median_ms(&reps, |_| {
        for (layout, xs) in layouts.iter().zip(&refs) {
            std::hint::black_box(m.predict_batched(layout, xs));
        }
    });
    let forward_ms = predict_all_ms - stack_ms;

    // Kernels on the epoch's shapes: per batch, each graph convolution is
    // one spmm (forward) plus one spmm with the transpose (backward), and
    // one matmul (forward) plus the two gradient matmuls.
    let features = FeatureSet::All.width();
    let mut flops = 0.0;
    let (mut spmm_fwd, mut spmm_bwd, mut matmul_fwd, mut matmul_bwd) = (0.0, 0.0, 0.0, 0.0);
    for layout in &layouts {
        let op = layout.operator();
        let op_t = layout.operator_transpose();
        let rows = op.rows();
        let x = Matrix::from_fn(rows, features, |r, c| ((r * 7 + c) % 13) as f64 * 0.1);
        let h = Matrix::from_fn(rows, HIDDEN, |r, c| ((r * 5 + c) % 11) as f64 * 0.1);
        let w1 = Matrix::from_fn(features, HIDDEN, |r, c| ((r + c) % 5) as f64 * 0.1);
        let w2 = Matrix::from_fn(HIDDEN, HIDDEN, |r, c| ((r + 2 * c) % 7) as f64 * 0.1);
        spmm_fwd += stats::median_ms(&reps, |_| {
            std::hint::black_box(op.spmm_jobs(&x, jobs));
            std::hint::black_box(op.spmm_jobs(&h, jobs));
        });
        spmm_bwd += stats::median_ms(&reps, |_| {
            std::hint::black_box(op_t.spmm_jobs(&h, jobs));
            std::hint::black_box(op_t.spmm_jobs(&h, jobs));
        });
        matmul_fwd += stats::median_ms(&reps, |_| {
            std::hint::black_box(x.matmul_jobs(&w1, jobs));
            std::hint::black_box(h.matmul_jobs(&w2, jobs));
        });
        matmul_bwd += stats::median_ms(&reps, |_| {
            std::hint::black_box(x.matmul_tn(&h));
            std::hint::black_box(h.matmul_tn(&h));
            std::hint::black_box(h.matmul_nt_jobs(&w1, jobs));
            std::hint::black_box(h.matmul_nt_jobs(&w2, jobs));
        });
        let nnz = op.nnz() as f64;
        let (r, f, hd) = (rows as f64, features as f64, HIDDEN as f64);
        flops += 2.0 * nnz * (f + 3.0 * hd) // the four spmm calls
            + 3.0 * 2.0 * r * f * hd // layer-1 matmul and its two gradients
            + 3.0 * 2.0 * r * hd * hd; // layer-2 matmul and its two gradients
    }

    // Optimizer: one Adam step per batch on the model's parameter shapes.
    let mut params: Vec<Matrix> = m.params().to_vec();
    let grads: Vec<Matrix> = params
        .iter()
        .map(|p| Matrix::from_fn(p.rows(), p.cols(), |r, c| 1e-3 * (r + c) as f64))
        .collect();
    let mut adam = Adam::new(1e-3);
    let adam_ms = stats::median_ms(&reps, |_| {
        for _ in 0..batches {
            adam.step(&mut params, &grads);
        }
    });

    // The paper's inference metric: one prediction on one c1529 instance.
    let single = Arc::clone(&task.op);
    let mut predict = Vec::new();
    for x in task.xs.iter().cycle().take(300) {
        let started = Instant::now();
        std::hint::black_box(m.predict(&single, x));
        predict.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let predict = stats::sorted(&predict);
    let tail = stats::tail(&predict, 10).expect("300 samples have a tail");

    let backward_ms = epoch_ms - forward_ms - pack_ms;
    let mut ledger = Ledger::default();
    ledger.layer("icnet.pack_ms", pack_ms, reps.len() as u64);
    ledger.layer("icnet.forward_ms", forward_ms, reps.len() as u64 * batches);
    ledger.stat("icnet.backward_ms", backward_ms, "ms", 1);
    let samples = reps.len() as u64 * batches;
    ledger.layer("tensor.spmm_bwd_ms", spmm_bwd, samples);
    ledger.layer("tensor.matmul_bwd_ms", matmul_bwd, samples);
    ledger.layer("icnet.adam_ms", adam_ms, samples);
    ledger.stat("tensor.spmm_ms", spmm_fwd + spmm_bwd, "ms", samples);
    ledger.stat("tensor.matmul_ms", matmul_fwd + matmul_bwd, "ms", samples);
    ledger.stat("tensor.flops_per_epoch", flops, "flop_computed", batches);
    ledger.stat(
        "icnet.peak_tape_mb",
        result.peak_tape_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    );
    ledger.stat(
        "icnet.predict_ms",
        stats::percentile(&predict, 50.0),
        "ms",
        predict.len() as u64,
    );
    ledger.stat(
        "icnet.predict_tail_ms",
        tail.value,
        "ms",
        tail.beyond as u64,
    );
    ledger.stat(
        "icnet.predict_tail_pct",
        tail.pct,
        "percentile",
        predict.len() as u64,
    );
    ledger.stat("train.epoch_ms", epoch_ms, "ms", EPOCHS as u64);
    ledger.finish("train.unattributed_ms", epoch_ms, EPOCHS as u64);
    ledger
}
