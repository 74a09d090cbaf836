//! The offline workloads: quantized tap-wise F4 inference with one caller in
//! a closed loop, fresh seeded images back to back.

use crate::stats::{self, percentile, Sqnr};
use crate::{metric, Args, Metric, Outcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wino_core::{
    GraphExecution, GraphExecutor, GraphRunOptions, PreparedGraph, WinogradQuantConfig,
};
use wino_nets::{resnet20_graph, resnet34_graph, Graph, GraphOp};
use wino_tensor::{normal, Tensor};

/// One offline workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub graph: fn() -> Graph,
    pub batch: usize,
    /// Batches of the fixed SQNR sample.
    pub sqnr_batches: usize,
}

fn resnet34_224() -> Graph {
    resnet34_graph(224)
}

/// The offline workloads by name.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "resnet34_int_b1",
        graph: resnet34_224,
        batch: 1,
        sqnr_batches: 4,
    },
    Spec {
        name: "resnet20_int_b8",
        graph: resnet20_graph,
        batch: 8,
        sqnr_batches: 8,
    },
];

/// Seed of the synthesized weights and calibration batch. The model is the
/// system under test, so it stays fixed; `--seed` only draws the inputs.
pub const MODEL_SEED: u64 = 0;

/// Set-ups per run: at least [`SETUP_MIN`], more while they add up to less
/// than [`SETUP_BUDGET_S`], at most [`SETUP_MAX`]. `setup_s` is their
/// [`FAST_Q`] percentile: a set-up of the served model is one small forward
/// pass of a few milliseconds, whose median moved by 0.3 between sets of
/// runs on a shared host while the p10 moved by half that.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;
/// The tail percentile on the report line: the highest with ten samples
/// beyond it in a 25 s run of the slower workload.
const TAIL_Q: f64 = 0.9;
/// The percentile reported as `latency_ms_p10`: the latency of a call the
/// host's neighbours did not slow down.
pub const FAST_Q: f64 = 0.1;
/// `images_per_s` is measured over the fastest [`FASTEST_SHARE`] of the
/// timed window's rounds of at least [`ROUND_MS`].
const ROUND_MS: f64 = 500.0;
const FASTEST_SHARE: f64 = 0.1;
/// Every this many timed batches, one is re-run afterwards and compared bit
/// for bit.
const RERUN_EVERY: usize = 16;

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The image shape `[batch, c, h, w]` of a single-input graph.
pub fn input_dims(graph: &Graph, batch: usize) -> Vec<usize> {
    let id = graph.input_ids()[0];
    match graph.nodes()[id].op {
        GraphOp::Input {
            channels,
            height,
            width,
        } => vec![batch, channels, height, width],
        _ => unreachable!("input id is an input node"),
    }
}

/// The seed of the `i`-th image batch of a run.
pub fn image_seed(seed: u64, i: u64) -> u64 {
    stats::SplitMix64::new(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A prepared, calibrated quantized model: what the timed loop runs.
pub struct Model {
    pub graph: Graph,
    pub exec: Arc<GraphExecutor>,
    pub prepared: Arc<PreparedGraph>,
    /// Seconds of `prepare` and of the calibrating warmup run.
    pub prepare_s: f64,
    pub calibrate_s: f64,
}

/// The preparation options of every model.
pub fn model_options(batch: usize) -> GraphRunOptions {
    GraphRunOptions {
        batch,
        seed: MODEL_SEED,
    }
}

/// Prepares and calibrates the quantized model of `graph`.
pub fn setup(graph: Graph, batch: usize) -> Model {
    let exec = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::default()));
    let t = Instant::now();
    let prepared = Arc::new(exec.prepare(&graph, &model_options(batch)));
    let prepare_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    exec.warmup(&prepared);
    Model {
        graph,
        exec,
        prepared,
        prepare_s,
        calibrate_s: t.elapsed().as_secs_f64(),
    }
}

/// Seconds of one full set-up, the model dropped afterwards.
pub fn timed_setup(graph: fn() -> Graph, batch: usize) -> f64 {
    let t = Instant::now();
    let model = setup(graph(), batch);
    let s = t.elapsed().as_secs_f64();
    drop(model);
    s
}

/// The [`FAST_Q`] percentile of `first` and further set-ups timed by `again`.
pub fn repeat_setups(first: f64, mut again: impl FnMut() -> f64) -> f64 {
    let mut times = vec![first];
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        times.push(again());
    }
    percentile(&stats::sorted(times), FAST_Q)
}

/// Runs one batch, turning a panic into `None`.
pub fn try_run(model: &Model, x: &Tensor<f32>) -> Option<GraphExecution> {
    catch_unwind(AssertUnwindSafe(|| {
        model
            .exec
            .run_with_inputs(&model.prepared, std::slice::from_ref(x))
    }))
    .ok()
}

/// Whether every output value is finite.
pub fn finite(outputs: &[(String, Tensor<f32>)]) -> bool {
    outputs
        .iter()
        .all(|(_, t)| t.as_slice().iter().all(|v| v.is_finite()))
}

/// Named output tensors, as a graph run or a wire reply carries them.
pub type Outputs = Vec<(String, Tensor<f32>)>;

/// Whether two output lists are bit-identical.
pub fn same_bits(a: &[(String, Tensor<f32>)], b: &[(String, Tensor<f32>)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, ta), (nb, tb))| {
            na == nb
                && ta.dims() == tb.dims()
                && ta
                    .as_slice()
                    .iter()
                    .zip(tb.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// SQNR of the model's integer outputs against the FP32 F4 executor on the
/// same weights, over `batches` seeded batches drawn apart from the timed
/// ones. The quantized model is dropped before the FP32 one is prepared, so
/// the two never occupy memory together.
pub fn sqnr_vs_fp32(model: Model, batch: usize, seed: u64, batches: usize) -> f64 {
    let dims = input_dims(&model.graph, batch);
    let inputs: Vec<Tensor<f32>> = (0..batches as u64)
        .map(|i| normal(&dims, 0.0, 1.0, image_seed(!seed, i)))
        .collect();
    let quantized: Vec<GraphExecution> = inputs
        .iter()
        .map(|x| {
            model
                .exec
                .run_with_inputs(&model.prepared, std::slice::from_ref(x))
        })
        .collect();
    let graph = model.graph.clone();
    drop(model);
    let fp32 = GraphExecutor::with_defaults();
    let reference = fp32.prepare(&graph, &model_options(batch));
    let mut acc = Sqnr::default();
    for (x, q) in inputs.iter().zip(&quantized) {
        let r = fp32.run_with_inputs(&reference, std::slice::from_ref(x));
        for ((_, rt), (_, qt)) in r.outputs.iter().zip(&q.outputs) {
            acc.add(rt.as_slice(), qt.as_slice());
        }
    }
    acc.db()
}

/// The untraced offline run: set-up, a timed closed loop, output checks, the
/// memory reading, SQNR and the extra set-ups.
pub fn run(spec: Spec, args: &Args) -> Outcome {
    let start = Instant::now();
    let model = setup((spec.graph)(), spec.batch);
    let dims = input_dims(&model.graph, spec.batch);
    let first_setup = start.elapsed().as_secs_f64();

    let window = Duration::from_secs_f64(args.seconds);
    let mut lat_ms = Vec::new();
    let mut failed = 0u64;
    // Only the index and outputs of a re-run batch are kept; its input is
    // drawn again from the seed, so the store adds next to nothing to
    // `peak_rss_mib` however many batches the window holds.
    let mut rerun: Vec<(u64, Outputs)> = Vec::new();
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed() < window {
        let x = normal(&dims, 0.0, 1.0, image_seed(args.seed, i));
        let t = Instant::now();
        let out = try_run(&model, &x);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match out {
            Some(run) if finite(&run.outputs) => {
                if (i as usize).is_multiple_of(RERUN_EVERY) {
                    rerun.push((i, run.outputs));
                }
            }
            _ => failed += 1,
        }
        i += 1;
    }
    let attempted = i;
    for (k, first) in &rerun {
        let x = normal(&dims, 0.0, 1.0, image_seed(args.seed, *k));
        if !try_run(&model, &x).is_some_and(|again| same_bits(first, &again.outputs)) {
            failed += 1;
        }
    }
    let peak_rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    let sqnr = sqnr_vs_fp32(model, spec.batch, args.seed, spec.sqnr_batches);
    let setup_s = repeat_setups(first_setup, || timed_setup(spec.graph, spec.batch));

    // Images per second of time spent in the timed calls; input generation
    // and output checks between calls are the benchmark's own work.
    let rate = |ms: &[f64]| (ms.len() * spec.batch) as f64 * 1e3 / ms.iter().sum::<f64>();
    let fastest = stats::fastest_rounds(&lat_ms, ROUND_MS, FASTEST_SHARE);
    let images_per_s = rate(&fastest);
    let images_per_s_all = rate(&lat_ms);
    let sorted = stats::sorted(lat_ms);
    let n = sorted.len();
    if stats::beyond(n, TAIL_Q) < stats::MIN_BEYOND {
        eprintln!(
            "perfbench: only {n} samples; p{} has fewer than {} beyond it",
            TAIL_Q * 100.0,
            stats::MIN_BEYOND
        );
    }
    let metrics: Vec<Metric> = vec![
        metric("setup_s", setup_s, "s"),
        metric("images_per_s", images_per_s, "1/s"),
        metric("latency_ms_p10", percentile(&sorted, FAST_Q), "ms"),
        metric("sqnr_db", sqnr, "dB"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    let report = vec![
        metric("first_setup_s", first_setup, "s"),
        metric("images_per_s_all", images_per_s_all, "1/s"),
        metric("latency_ms_p50", percentile(&sorted, 0.5), "ms"),
        metric("latency_ms_p90", percentile(&sorted, TAIL_Q), "ms"),
        metric("samples", n as f64, "count"),
        metric("fastest_samples", fastest.len() as f64, "count"),
        metric(
            "tail_percentile",
            stats::highest_supported(n, &[0.5, 0.9, 0.99, 0.999]).unwrap_or(0.0) * 100.0,
            "%",
        ),
        metric("failed_share", failed as f64 / attempted.max(1) as f64, "1"),
        metric("rerun_checks", rerun.len() as f64, "count"),
        metric("batch", spec.batch as f64, "images"),
    ];
    Outcome {
        metrics,
        report,
        attempted,
        failed,
    }
}
