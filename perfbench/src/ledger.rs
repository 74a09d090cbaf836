//! The traced run: the per-layer ledger of one workload, measured from
//! outside by timing calls into each module's public functions and by
//! reading the counters the program already keeps (`PhaseProbe`,
//! `GraphExecution.nodes`, `StatsReport`, the activation arena).

use crate::host::{gemm_rates, Host};
use crate::offline::{self, image_seed, input_dims, Model};
use crate::serve::{self, Poll};
use crate::stats::{self, percentile, sqnr_db};
use crate::{metric, Args, Metric, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wino_core::{
    GraphExecution, GraphExecutor, IntWinogradConv, NodeExecution, Phase, PreparedWinogradConv,
    QuantParams, TapwiseScales, TileSize, WinogradMatrices, WinogradQuantConfig,
};
use wino_nets::{graph_by_name, Graph, GraphOp, Kernel};
use wino_serve::net::{
    decode_frame, encode_frame, Frame, ModelServeConfig, NetClient, NetServer, NetServerConfig,
    RegistryBuilder,
};
use wino_tensor::{normal, Tensor};

/// The distinct 3×3 stride-1 layer shapes `(channels, height = width)` of
/// ResNet-34 at 224² and of ResNet-20, timed in every traced run.
pub const CONV_SHAPES: [(usize, usize); 7] = [
    (64, 56),
    (128, 28),
    (256, 14),
    (512, 7),
    (16, 32),
    (32, 16),
    (64, 8),
];

/// The zoo networks and the reduced resolution of the quality sweep.
pub const ZOO: [&str; 7] = [
    "resnet20",
    "resnet34",
    "resnet50",
    "retinanet",
    "ssd",
    "unet",
    "yolov3",
];
pub const ZOO_RESOLUTION: usize = 64;

/// Time budget of each timed kernel measurement.
const KERNEL_BUDGET: Duration = Duration::from_millis(120);

/// Median milliseconds of `f` over at least three calls and `budget`.
fn median_ms(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times)
}

/// Winograd F4 tiles of one `hw × hw` map.
fn f4_tiles(hw: usize) -> usize {
    hw.div_ceil(4).pow(2)
}

/// The int and float F4 rows of one layer shape.
fn conv_rows(c: usize, hw: usize, seed: u64, host: &Host, out: &mut Vec<Metric>) {
    let label = format!("{c}x{c}x{hw}");
    let x = normal(&[1, c, hw, hw], 0.0, 1.0, seed);
    let w = normal(
        &[c, c, 3, 3],
        0.0,
        (2.0 / (9 * c) as f32).sqrt(),
        0x5eed ^ c as u64,
    );
    let float = PreparedWinogradConv::prepare(&w, TileSize::F4);
    let reference = float.forward(&x);
    let float_ms = median_ms(KERNEL_BUDGET, || {
        std::hint::black_box(float.forward(&x));
    });

    let cfg = WinogradQuantConfig::default();
    let mats = WinogradMatrices::for_tile(TileSize::F4);
    let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
    let xp = QuantParams::from_max(x.abs_max(), cfg.spatial_bits).to_power_of_two();
    let xq: Tensor<i8> = x.map(|v| xp.quantize(v) as i8);
    let conv = IntWinogradConv::prepare(&w, &scales, xp, reference.abs_max(), cfg);
    let int_ms = median_ms(KERNEL_BUDGET, || {
        std::hint::black_box(conv.forward(&xq));
    });
    let sqnr = sqnr_db(
        reference.as_slice(),
        conv.forward(&xq).dequantize().as_slice(),
    );
    // Executed MACs of the tap GEMMs: 36 taps × C_out × C_in × tiles.
    let gmacs = (36 * c * c * f4_tiles(hw)) as f64 / int_ms / 1e6;
    let p = format!("int_winograd.{label}");
    out.push(metric(format!("{p}.ms"), int_ms, "ms"));
    out.push(metric(format!("{p}.gmacs"), gmacs, "GMAC/s"));
    out.push(metric(
        format!("{p}.frac_peak"),
        gmacs / host.peaks.i16,
        "1",
    ));
    out.push(metric(format!("{p}.over_float"), int_ms / float_ms, "1"));
    out.push(metric(format!("{p}.sqnr_db"), sqnr, "dB"));
    out.push(metric(format!("winograd.{label}.ms"), float_ms, "ms"));
}

/// Per-tap GEMM shapes `(M = C_out, K = C_in, N = tiles)` of the graph's
/// integer F4 layers at `batch`, with how many layers share each.
fn tap_gemm_shapes(graph: &Graph, batch: usize) -> Vec<((usize, usize, usize), usize)> {
    let planner = GraphExecutor::quantized(WinogradQuantConfig::default());
    let shapes = graph.validate().expect("zoo graphs validate");
    let mut out: Vec<((usize, usize, usize), usize)> = Vec::new();
    for (id, node) in graph.nodes().iter().enumerate() {
        let GraphOp::Conv(layer) = &node.op else {
            continue;
        };
        let plan = planner.planner().plan_layer(layer);
        if plan.kernel != Kernel::WinogradF4
            || !plan.params.is_winograd_eligible()
            || plan.params.padding != 1
        {
            continue;
        }
        let (_, h, w) = shapes[id];
        let key = (
            layer.c_out,
            layer.c_in,
            batch * h.div_ceil(4) * w.div_ceil(4),
        );
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => out.push((key, 1)),
        }
    }
    out
}

/// Aggregate GMAC/s per dtype over the graph's tap GEMMs.
fn gemm_rows(graph: &Graph, batch: usize, host: &Host, out: &mut Vec<Metric>) {
    let (mut macs, mut secs) = (0.0, [0.0f64; 3]);
    for ((m, k, n), count) in tap_gemm_shapes(graph, batch) {
        let layer_macs = (36 * count * m * k * n) as f64;
        let r = gemm_rates(m, k, n, KERNEL_BUDGET / 4);
        macs += layer_macs;
        for (s, rate) in secs.iter_mut().zip([r.f32, r.i8, r.i16]) {
            *s += layer_macs / (rate * 1e9);
        }
    }
    let peaks = [host.peaks.f32, host.peaks.i8, host.peaks.i16];
    for ((dtype, s), peak) in ["f32", "i8", "i16"].into_iter().zip(secs).zip(peaks) {
        out.push(metric(
            format!("gemm.{dtype}.gmacs"),
            macs / s / 1e9,
            "GMAC/s",
        ));
        out.push(metric(format!("gemm.{dtype}.peak_gmacs"), peak, "GMAC/s"));
    }
}

/// The executor rows on the workload's own model. Runs alternate between
/// tracing off and `Detail::Full`, so drift in the host's speed cancels out
/// of `trace.overhead_share`: the untraced runs give the node-time split and
/// arena counters, the traced ones the phase split.
fn graph_rows(model: &Model, batch: usize, args: &Args, out: &mut Vec<Metric>) {
    let dims = input_dims(&model.graph, batch);
    let window = Duration::from_secs_f64(args.seconds / 2.0);
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    model.prepared.reset_phase_profile();
    let t0 = Instant::now();
    let mut i = 0;
    while plain.len() < 3 || t0.elapsed() < window {
        for detail in [wino_trace::Detail::Off, wino_trace::Detail::Full] {
            let x = normal(&dims, 0.0, 1.0, image_seed(args.seed, i));
            i += 1;
            wino_trace::set_detail(detail);
            let t = Instant::now();
            let run = model
                .exec
                .run_with_inputs(&model.prepared, std::slice::from_ref(&x));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if detail == wino_trace::Detail::Off {
                plain.push((ms, run));
            } else {
                traced_ms.push(ms);
            }
        }
    }
    wino_trace::set_detail(wino_trace::Detail::Off);
    wino_trace::clear_events();
    let sum_ms = |run: &GraphExecution, pick: &dyn Fn(&NodeExecution) -> bool| {
        run.nodes
            .iter()
            .filter(|n| pick(n))
            .map(|n| n.seconds)
            .sum::<f64>()
            * 1e3
    };
    let col = |f: &dyn Fn(f64, &GraphExecution) -> f64| {
        stats::median(&plain.iter().map(|(w, r)| f(*w, r)).collect::<Vec<_>>())
    };
    let is_wino =
        |n: &NodeExecution| matches!(n.kernel, Some(Kernel::WinogradF2 | Kernel::WinogradF4));
    out.push(metric("graph_exec.prepare_s", model.prepare_s, "s"));
    out.push(metric("graph_exec.calibrate_s", model.calibrate_s, "s"));
    out.push(metric(
        "graph_exec.conv_ms",
        col(&|_, r| sum_ms(r, &is_wino)),
        "ms",
    ));
    out.push(metric(
        "graph_exec.im2col_ms",
        col(&|_, r| sum_ms(r, &|n| n.kernel == Some(Kernel::Im2col))),
        "ms",
    ));
    out.push(metric(
        "graph_exec.other_ms",
        col(&|_, r| sum_ms(r, &|n| n.kernel.is_none())),
        "ms",
    ));
    out.push(metric(
        "graph_exec.overhead_ms",
        col(&|w, r| w - r.total_seconds * 1e3),
        "ms",
    ));
    out.push(metric(
        "graph_exec.arena_peak_mib",
        col(&|_, r| r.peak_live_bytes as f64 / (1 << 20) as f64),
        "MiB",
    ));
    out.push(metric(
        "graph_exec.fresh_allocs",
        col(&|_, r| r.arena_fresh_allocs as f64),
        "count",
    ));
    let plain_ms = col(&|w, _| w);
    let profile = model.prepared.phase_profile();
    for phase in Phase::ALL {
        out.push(metric(
            format!("int_winograd.{}_ms", phase.name()),
            profile.phase_ns(phase) as f64 / 1e6 / traced_ms.len() as f64,
            "ms",
        ));
    }
    out.push(metric(
        "trace.overhead_share",
        stats::median(&traced_ms) / plain_ms - 1.0,
        "1",
    ));
}

/// Requests per second the serving-stack rows offer each workload's model.
fn ledger_rate(workload: &str) -> f64 {
    match workload {
        "resnet34_int_b1" => 2.0,
        "resnet20_int_b8" => 20.0,
        _ => serve::FIXED_RATE,
    }
}

/// The serving-stack rows: the workload's model behind the shipped
/// `NetServer` defaults, driven open loop with stats polls and pings riding
/// beside the traffic. Returns (attempted, failed).
fn serve_rows(
    workload: &str,
    model: &Model,
    batch: usize,
    args: &Args,
    out: &mut Vec<Metric>,
) -> (u64, u64) {
    let registry = RegistryBuilder::new()
        .model(
            workload,
            Arc::clone(&model.exec),
            Arc::clone(&model.prepared),
            ModelServeConfig::default(),
        )
        .build();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let pool = serve::image_pool(&model.graph, batch, args.seed);

    let frame = Frame::InferRequest {
        request_id: 1,
        model: workload.to_string(),
        inputs: vec![pool[0].clone()],
    };
    let bytes = encode_frame(&frame);
    let encode_us = median_ms(KERNEL_BUDGET / 4, || {
        std::hint::black_box(encode_frame(&frame));
    }) * 1e3;
    let decoded_ok = decode_frame(&bytes[8..]).is_ok_and(|f| f == frame);
    let decode_us = median_ms(KERNEL_BUDGET / 4, || {
        std::hint::black_box(decode_frame(&bytes[8..]).ok());
    }) * 1e3;
    out.push(metric("protocol.encode_us", encode_us, "us"));
    out.push(metric("protocol.decode_us", decode_us, "us"));
    out.push(metric("protocol.frame_bytes", bytes.len() as f64, "bytes"));

    let mut client = NetClient::connect(addr).expect("connect loopback");
    let idle: Vec<f64> = (0..50)
        .filter_map(|_| client.ping_rtt().ok())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let idle_failed = 50 - idle.len() as u64;
    drop(client);

    let window = Duration::from_secs_f64(args.seconds / 4.0);
    let mut load = serve::open_loop(
        addr,
        workload,
        &pool,
        ledger_rate(workload),
        window,
        Duration::from_secs(5),
        args.seed,
        Poll::StatsAndPing,
    );
    load.verify(&serve::expected_outputs(model, &pool));
    let report_ms = median_ms(KERNEL_BUDGET / 4, || {
        std::hint::black_box(registry.stats_report());
    });
    let st = registry.model_stats(workload).expect("registered model");
    server.shutdown();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(&stats::sorted(v.to_vec()), 0.5)
        }
    };
    out.push(metric(
        "registry.queue_wait_ms_p50",
        ms(st.queue_wait.p50),
        "ms",
    ));
    out.push(metric(
        "registry.queue_wait_ms_p99",
        ms(st.queue_wait.p99),
        "ms",
    ));
    out.push(metric("registry.run_ms_p50", ms(st.run_time.p50), "ms"));
    out.push(metric("registry.mean_batch", st.mean_batch, "images"));
    out.push(metric("registry.rejected", st.rejected as f64, "count"));
    out.push(metric("registry.shed", st.shed as f64, "count"));
    out.push(metric("registry.failed", st.failed as f64, "count"));
    out.push(metric("net.ping_rtt_ms_p50", p50(&load.ping_ms), "ms"));
    out.push(metric("net.ping_rtt_idle_ms_p50", p50(&idle), "ms"));
    out.push(metric("stats.report_ms", report_ms, "ms"));
    out.push(metric("stats.requests_held", st.requests as f64, "count"));
    let polls = stats::sorted(load.stats_ms.clone());
    out.push(metric(
        "stats.poll_ms_p90",
        if polls.is_empty() {
            f64::NAN
        } else {
            percentile(&polls, 0.9)
        },
        "ms",
    ));
    let lag = load.lag_ms();
    out.push(metric(
        "loadgen.lag_ms_p99",
        if lag.is_empty() {
            f64::NAN
        } else {
            percentile(&lag, 0.99)
        },
        "ms",
    ));
    out.push(metric("loadgen.sent", load.sent() as f64, "count"));
    out.push(metric(
        "loadgen.completed",
        (load.sent() - load.unanswered()) as f64,
        "count",
    ));
    (
        load.attempted() + 51,
        load.failed() + idle_failed + u64::from(!decoded_ok),
    )
}

/// SQNR of quantized F4 against FP32 F4 for every zoo network at the
/// reduced resolution, on one seeded batch-1 input each.
fn zoo_rows(seed: u64, out: &mut Vec<Metric>) {
    for name in ZOO {
        let graph = graph_by_name(name, Some(ZOO_RESOLUTION)).expect("zoo name");
        let sqnr = offline::sqnr_vs_fp32(offline::setup(graph, 1), 1, seed, 1);
        out.push(metric(
            format!("int_winograd.zoo.{name}.sqnr_db"),
            sqnr,
            "dB",
        ));
    }
}

/// The traced run of `workload`.
pub fn run(workload: &str, args: &Args, host: &Host) -> Outcome {
    let (graph, batch) = match offline::spec(workload) {
        Some(spec) => (spec.graph, spec.batch),
        None => (serve::graph as fn() -> Graph, 1),
    };
    let model = offline::setup(graph(), batch);
    let mut m = Vec::new();
    gemm_rows(&model.graph, batch, host, &mut m);
    for (c, hw) in CONV_SHAPES {
        conv_rows(
            c,
            hw,
            image_seed(args.seed, (c * 1000 + hw) as u64),
            host,
            &mut m,
        );
    }
    graph_rows(&model, batch, args, &mut m);
    let (attempted, failed) = serve_rows(workload, &model, batch, args, &mut m);
    drop(model);
    zoo_rows(args.seed, &mut m);
    Outcome {
        metrics: m,
        report: Vec::new(),
        attempted,
        failed,
    }
}
