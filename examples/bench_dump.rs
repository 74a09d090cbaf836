//! Dumps `BENCH_winograd.json`: nanosecond medians of the tap-major Winograd
//! paths against the per-tile reference kernels on the ResNet-34 3×3 layer
//! shapes, the quantized ResNet-20 end-to-end graph forward against the
//! direct-convolution reference executor, the residual-tail
//! epilogue-fusion rows (quantized ResNet-20/34, full fusion vs the relu-only
//! baseline vs no fusion, with arena peaks and elided pre-activation bytes),
//! and a serving-overload sweep of the multi-model registry (offered load vs
//! accepted throughput, shed rate and accepted-tail p99 under admission
//! control) — the perf trajectory file tracked across PRs.
//!
//! ```text
//! cargo run --release --example bench_dump            # full iteration counts
//! cargo run --release --example bench_dump -- --quick # CI smoke mode
//! cargo run --release --example bench_dump -- --quick --trace trace.json
//! #   also exports a Chrome-trace timeline (implies WINO_TRACE=full)
//! ```
//!
//! Independent of the trace flag, every kernel row gets a per-phase
//! (gather / input transform / tap GEMM / output transform / epilogue /
//! scatter) nanosecond breakdown from one dedicated profiled run — the
//! timed medians themselves always run at the ambient detail level.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use winograd_tapwise::wino_core::{
    FusionClasses, GraphExecutor, GraphRunOptions, IntWinogradConv, Phase, PhaseProbe,
    PhaseSnapshot, PreparedWinogradConv, QuantParams, TapwiseScales, TileSize, WinogradMatrices,
    WinogradQuantConfig,
};
use winograd_tapwise::wino_fault;
use winograd_tapwise::wino_nets::{resnet20_graph, resnet34_graph};
use winograd_tapwise::wino_serve::net::{
    AdmissionControl, ModelReply, ModelServeConfig, RegistryBuilder, RegistryServer, SubmitError,
};
use winograd_tapwise::wino_serve::BatchPolicy;
use winograd_tapwise::wino_tensor::{
    gemm_f32_into_with, gemm_i16_i32_into_with, gemm_i8_i32_into_with, normal, simd, Tensor,
};
use winograd_tapwise::wino_trace;

/// Median wall-clock nanoseconds of `iters` runs of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn json_pair(tap_ns: u128, per_tile_ns: u128) -> String {
    format!(
        "{{\"tap_major_ns\": {tap_ns}, \"per_tile_ns\": {per_tile_ns}, \"speedup\": {:.2}}}",
        per_tile_ns as f64 / tap_ns.max(1) as f64
    )
}

/// One phase-breakdown JSON object from a probe snapshot.
fn phase_json(snap: &PhaseSnapshot) -> String {
    Phase::ALL
        .iter()
        .map(|&p| format!("\"{}_ns\": {}", p.name(), snap.phase_ns(p)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs `f` once with `Detail::Full` forced on, restoring the ambient level
/// after — the dedicated profiled run behind every per-phase row.
fn profiled_run(f: impl FnOnce()) {
    let prev = wino_trace::detail();
    wino_trace::set_detail(wino_trace::Detail::Full);
    f();
    wino_trace::set_detail(prev);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || std::env::var("BENCH_QUICK").is_ok();
    let trace_path = args.iter().position(|a| a == "--trace").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("--trace needs a file path"))
            .clone()
    });
    let mut detail = wino_trace::init_from_env();
    if trace_path.is_some() && detail == wino_trace::Detail::Off {
        // An exported trace of an untraced run would be empty; the flag
        // implies full detail unless WINO_TRACE chose otherwise.
        detail = wino_trace::Detail::Full;
        wino_trace::set_detail(detail);
    }
    if detail != wino_trace::Detail::Off {
        eprintln!("tracing: {detail:?}");
    }
    let iters = if quick { 2 } else { 7 };
    // The distinct 3×3 stride-1 layer shapes of ResNet-34: (C, H=W).
    let shapes: &[(usize, usize)] = if quick {
        &[(64, 56), (128, 28)]
    } else {
        &[(64, 56), (128, 28), (256, 14), (512, 7)]
    };

    let mut float_rows = Vec::new();
    let mut int_rows = Vec::new();
    let mut float_phase_rows = Vec::new();
    let mut int_phase_rows = Vec::new();
    for &(c, hw) in shapes {
        let label = format!("{c}x{c}x{hw}");
        let x = normal(&[1, c, hw, hw], 0.0, 1.0, 3);
        let w = normal(&[c, c, 3, 3], 0.0, 0.2, 4);

        let mut prep = PreparedWinogradConv::prepare(&w, TileSize::F4);
        let tap = median_ns(iters, || {
            std::hint::black_box(prep.forward(&x));
        });
        let per_tile = median_ns(iters, || {
            std::hint::black_box(prep.forward_per_tile(&x));
        });
        eprintln!(
            "float_f4 {label}: tap-major {:.2} ms vs per-tile {:.2} ms ({:.2}x)",
            tap as f64 / 1e6,
            per_tile as f64 / 1e6,
            per_tile as f64 / tap.max(1) as f64
        );
        float_rows.push(format!("\"{label}\": {}", json_pair(tap, per_tile)));
        let probe = Arc::new(PhaseProbe::new(&label));
        prep.set_probe(Arc::clone(&probe));
        profiled_run(|| {
            std::hint::black_box(prep.forward(&x));
        });
        float_phase_rows.push(format!(
            "\"{label}\": {{{}}}",
            phase_json(&probe.snapshot())
        ));

        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let xp = QuantParams::from_max(x.abs_max(), cfg.spatial_bits).to_power_of_two();
        let xq: Tensor<i8> = x.map(|v| xp.quantize(v) as i8);
        let mut conv = IntWinogradConv::prepare(&w, &scales, xp, 8.0, cfg);
        let tap = median_ns(iters, || {
            std::hint::black_box(conv.forward(&xq));
        });
        let per_tile = median_ns(iters, || {
            std::hint::black_box(conv.forward_per_tile(&xq));
        });
        eprintln!(
            "int_f4   {label}: tap-major {:.2} ms vs per-tile {:.2} ms ({:.2}x)",
            tap as f64 / 1e6,
            per_tile as f64 / 1e6,
            per_tile as f64 / tap.max(1) as f64
        );
        int_rows.push(format!("\"{label}\": {}", json_pair(tap, per_tile)));
        let probe = Arc::new(PhaseProbe::new(&label));
        conv.set_probe(Arc::clone(&probe));
        profiled_run(|| {
            std::hint::black_box(conv.forward(&xq));
        });
        int_phase_rows.push(format!(
            "\"{label}\": {{{}}}",
            phase_json(&probe.snapshot())
        ));
    }

    // Quantized ResNet-20 end to end: one prepared + calibrated graph per
    // executor mode, then timed cached runs (the serving steady state).
    let graph = resnet20_graph();
    let opts = GraphRunOptions::default();
    let graph_iters = if quick { 1 } else { 5 };
    let fused = GraphExecutor::quantized(WinogradQuantConfig::default());
    let p_fused = fused.prepare(&graph, &opts);
    fused.warmup(&p_fused);
    let tap = median_ns(graph_iters, || {
        std::hint::black_box(fused.run(&p_fused));
    });
    let reference = GraphExecutor::reference();
    let p_reference = reference.prepare(&graph, &opts);
    let direct = median_ns(graph_iters, || {
        std::hint::black_box(reference.run(&p_reference));
    });
    eprintln!(
        "graph resnet20_int_e2e: tap-major+fusion {:.2} ms vs direct reference {:.2} ms ({:.2}x), \
         fused relus {}, tap scratch {} KiB",
        tap as f64 / 1e6,
        direct as f64 / 1e6,
        direct as f64 / tap.max(1) as f64,
        p_fused.fused_relu_count(),
        p_fused.scratch_bytes() / 1024,
    );
    // One dedicated profiled run fills the per-node phase probes the
    // executor attached at prepare time.
    p_fused.reset_phase_profile();
    profiled_run(|| {
        std::hint::black_box(fused.run(&p_fused));
    });
    let graph_profile = p_fused.phase_profile();
    eprintln!(
        "per-phase profile (one quantized resnet20 run):\n{}",
        graph_profile.render()
    );

    // Residual-tail fusion rows: the full epilogue (conv→add→relu fused,
    // in-place accumulation) against the PR 4 relu-only baseline and plain
    // separate-node execution, quantized end to end. Peaks come from the
    // activation arena; the elided bytes are the pre-activation maps the
    // fused tails never materialize.
    let mut residual_rows = Vec::new();
    let residual_iters = if quick { 3 } else { 9 };
    let residual_nets = [
        ("resnet20_int_e2e", resnet20_graph()),
        (
            "resnet34_int_e2e",
            resnet34_graph(if quick { 64 } else { 224 }),
        ),
    ];
    for (label, graph) in residual_nets {
        // All three modes are prepared and calibrated up front, then sampled
        // round-robin: single-core wall-clock drifts, and measuring the modes
        // in separate sequential blocks would bias whichever ran during a
        // noisy stretch. Interleaving cancels the drift; medians do the rest.
        let modes: Vec<_> = [
            FusionClasses::all(),
            FusionClasses::relu_only(),
            FusionClasses::none(),
        ]
        .into_iter()
        .map(|classes| {
            let exec =
                GraphExecutor::quantized(WinogradQuantConfig::default()).with_fusion(classes);
            let p = exec.prepare(&graph, &opts);
            exec.warmup(&p);
            (exec, p)
        })
        .collect();
        let mut samples: Vec<Vec<u128>> = vec![Vec::new(); modes.len()];
        let mut mode_peak: Vec<usize> = vec![0; modes.len()];
        for _ in 0..residual_iters {
            for (mi, (exec, p)) in modes.iter().enumerate() {
                let t0 = Instant::now();
                let run = std::hint::black_box(exec.run(p));
                samples[mi].push(t0.elapsed().as_nanos());
                mode_peak[mi] = run.peak_live_bytes;
            }
        }
        let mode_ns: Vec<u128> = samples
            .iter_mut()
            .map(|s| {
                s.sort_unstable();
                s[s.len() / 2]
            })
            .collect();
        let (fused_nodes, elided) = (modes[0].1.fused_node_count(), modes[0].1.elided_bytes());
        eprintln!(
            "graph {label}: fused {:.2} ms vs relu-only {:.2} ms vs no-fusion {:.2} ms; \
             peak {} KiB vs {} KiB ({} nodes fused, {} KiB elided)",
            mode_ns[0] as f64 / 1e6,
            mode_ns[1] as f64 / 1e6,
            mode_ns[2] as f64 / 1e6,
            mode_peak[0] / 1024,
            mode_peak[1] / 1024,
            fused_nodes,
            elided / 1024,
        );
        residual_rows.push(format!(
            "\"{label}\": {{\"fused_ns\": {}, \"relu_only_ns\": {}, \"no_fusion_ns\": {}, \
             \"speedup_vs_relu_only\": {:.3}, \"speedup_vs_no_fusion\": {:.3}, \
             \"fused_nodes\": {fused_nodes}, \"elided_bytes\": {elided}, \
             \"fused_peak_bytes\": {}, \"relu_only_peak_bytes\": {}}}",
            mode_ns[0],
            mode_ns[1],
            mode_ns[2],
            mode_ns[1] as f64 / mode_ns[0].max(1) as f64,
            mode_ns[2] as f64 / mode_ns[0].max(1) as f64,
            mode_peak[0],
            mode_peak[1],
        ));
    }

    // SIMD microkernel rows: the process-wide active variant plus a
    // per-variant GEMM microbench on a tap-GEMM-shaped problem
    // (M = C_out = 128, K = C_in = 128, N = tiles of a 28×28 F4 strip group),
    // one row per dtype, so the trajectory file records the dispatch win
    // and the host's variant inventory.
    let gemm_iters = if quick { 3 } else { 11 };
    let (gm, gk, gn) = (128usize, 128usize, 7 * 7);
    let af: Vec<f32> = (0..gm * gk).map(|i| (i % 13) as f32 * 0.21 - 1.1).collect();
    let bf: Vec<f32> = (0..gk * gn).map(|i| (i % 11) as f32 * 0.17 - 0.8).collect();
    let a8: Vec<i8> = (0..gm * gk).map(|i| (i % 251) as i8).collect();
    let b8: Vec<i8> = (0..gk * gn).map(|i| (i % 241) as i8).collect();
    let a16: Vec<i16> = (0..gm * gk).map(|i| (i % 1021) as i16 - 500).collect();
    let b16: Vec<i16> = (0..gk * gn).map(|i| (i % 1013) as i16 - 500).collect();
    let mut cf = vec![0.0f32; gm * gn];
    let mut ci = vec![0i32; gm * gn];
    let mut simd_rows = Vec::new();
    for variant in simd::available() {
        let f32_ns = median_ns(gemm_iters, || {
            gemm_f32_into_with(variant, &mut cf, &af, &bf, gm, gk, gn);
            std::hint::black_box(&cf);
        });
        let i8_ns = median_ns(gemm_iters, || {
            gemm_i8_i32_into_with(variant, &mut ci, &a8, &b8, gm, gk, gn);
            std::hint::black_box(&ci);
        });
        let i16_ns = median_ns(gemm_iters, || {
            gemm_i16_i32_into_with(variant, &mut ci, &a16, &b16, gm, gk, gn);
            std::hint::black_box(&ci);
        });
        eprintln!(
            "simd gemm {:>6} ({gm}x{gk}x{gn}): f32 {:.1} us, i8 {:.1} us, i16 {:.1} us",
            variant.name(),
            f32_ns as f64 / 1e3,
            i8_ns as f64 / 1e3,
            i16_ns as f64 / 1e3,
        );
        simd_rows.push(format!(
            "\"{}\": {{\"gemm_f32_ns\": {f32_ns}, \"gemm_i8_i32_ns\": {i8_ns}, \
             \"gemm_i16_i32_ns\": {i16_ns}}}",
            variant.name()
        ));
    }
    eprintln!("simd active kernel: {}", simd::active().name());

    // Serving-overload rows: the in-process multi-model registry under an
    // offered-load sweep. One worker, a tight queue bound and a 10 ms
    // deadline: as offered load climbs past capacity, admission control
    // should convert the excess into explicit rejections/sheds while the
    // *accepted* p99 stays pinned near the deadline instead of growing with
    // the backlog. The rows record exactly that trajectory.
    let sweep: &[usize] = if quick { &[2, 8] } else { &[1, 4, 16, 32] };
    let per_client = if quick { 8 } else { 24 };
    let serve_exec = Arc::new(GraphExecutor::with_defaults());
    let serve_prepared = Arc::new(serve_exec.prepare(&resnet20_graph().with_channel_div(8), &opts));
    let mut serving_rows = Vec::new();
    for &clients in sweep {
        let registry = RegistryBuilder::new()
            .model(
                "m",
                Arc::clone(&serve_exec),
                Arc::clone(&serve_prepared),
                ModelServeConfig {
                    policy: BatchPolicy {
                        max_batch: 4,
                        max_wait: Duration::from_millis(1),
                    },
                    admission: AdmissionControl {
                        max_queue: 4,
                        deadline: Duration::from_millis(10),
                    },
                    ..ModelServeConfig::default()
                },
            )
            .build();
        let server = RegistryServer::start(Arc::clone(&registry), 1);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let (mut ok, mut over) = (0usize, 0usize);
                    for r in 0..per_client {
                        let x = normal(&[1, 1, 32, 32], 0.0, 1.0, (c * 1000 + r) as u64);
                        match registry.submit("m", vec![x]) {
                            Ok(pending) => match pending.wait() {
                                Some(ModelReply::Ok(_)) => ok += 1,
                                Some(ModelReply::Overloaded { .. }) => over += 1,
                                Some(ModelReply::WorkerFailed) | None => {}
                            },
                            Err(SubmitError::Overloaded) => over += 1,
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    (ok, over)
                })
            })
            .collect();
        let (mut ok, mut over) = (0usize, 0usize);
        for h in handles {
            let (o, v) = h.join().expect("load client");
            ok += o;
            over += v;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let report = server.shutdown();
        let m = report.model("m").expect("model stats");
        let offered_rps = (ok + over) as f64 / elapsed.max(1e-9);
        let accepted_rps = ok as f64 / elapsed.max(1e-9);
        let shed_rate = over as f64 / (ok + over).max(1) as f64;
        let p99_ms = m.latency.p99.as_secs_f64() * 1e3;
        let wait_p99_ms = m.queue_wait.p99.as_secs_f64() * 1e3;
        eprintln!(
            "serving {clients:>2} clients: offered {offered_rps:.0} rps, accepted \
             {accepted_rps:.0} rps, shed {:.0}%, accepted p99 {p99_ms:.1} ms \
             (queue-wait p99 {wait_p99_ms:.1} ms)",
            shed_rate * 100.0,
        );
        serving_rows.push(format!(
            "\"clients_{clients}\": {{\"offered_rps\": {offered_rps:.1}, \
             \"accepted_rps\": {accepted_rps:.1}, \"shed_rate\": {shed_rate:.3}, \
             \"accepted_p99_ms\": {p99_ms:.2}, \"queue_wait_p99_ms\": {wait_p99_ms:.2}, \
             \"rejected\": {}, \"shed\": {}}}",
            m.rejected, m.shed,
        ));
    }

    // Disabled fault-probe cost: with no plan installed, `fire()` must be one
    // relaxed atomic load and a branch. Pin it the same way the tracing bench
    // pins disabled spans — ns/probe over a large call count.
    wino_fault::clear();
    let probe_calls: u64 = if quick { 1_000_000 } else { 10_000_000 };
    let fault_off_ns = {
        let t0 = Instant::now();
        let mut fired = 0u64;
        for _ in 0..probe_calls {
            fired += u64::from(std::hint::black_box(wino_fault::fire("bench.probe")));
        }
        assert_eq!(fired, 0, "no plan installed, nothing may fire");
        t0.elapsed().as_nanos() as f64 / probe_calls as f64
    };
    eprintln!("fault probe (disabled): {fault_off_ns:.2} ns/call over {probe_calls} calls");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"float_f4\": {{{}}},", float_rows.join(", "));
    let _ = writeln!(json, "  \"int_f4\": {{{}}},", int_rows.join(", "));
    let _ = writeln!(
        json,
        "  \"graph\": {{\"resnet20_int_e2e\": {{\"tap_major_ns\": {tap}, \"reference_ns\": {direct}, \
         \"speedup\": {:.2}}}}},",
        direct as f64 / tap.max(1) as f64
    );
    let graph_phases = Phase::ALL
        .iter()
        .map(|&p| format!("\"{}_ns\": {}", p.name(), graph_profile.phase_ns(p)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(json, "  \"phases\": {{");
    let _ = writeln!(
        json,
        "    \"float_f4\": {{{}}},",
        float_phase_rows.join(", ")
    );
    let _ = writeln!(json, "    \"int_f4\": {{{}}},", int_phase_rows.join(", "));
    let _ = writeln!(json, "    \"resnet20_int_e2e\": {{{graph_phases}}}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"graph_residual\": {{{}}},",
        residual_rows.join(", ")
    );
    let _ = writeln!(
        json,
        "  \"serving_overload\": {{{}}},",
        serving_rows.join(", ")
    );
    let available = simd::available()
        .iter()
        .map(|v| format!("\"{}\"", v.name()))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        json,
        "  \"simd\": {{\"active\": \"{}\", \"available\": [{available}], \
         \"gemm_{gm}x{gk}x{gn}\": {{{}}}}},",
        simd::active().name(),
        simd_rows.join(", ")
    );
    let _ = writeln!(
        json,
        "  \"fault_overhead\": {{\"disabled_probe_ns\": {fault_off_ns:.3}, \
         \"calls\": {probe_calls}}}"
    );
    json.push('}');
    std::fs::write("BENCH_winograd.json", &json).expect("write BENCH_winograd.json");
    println!("{json}");

    if let Some(path) = &trace_path {
        let trace_json = wino_trace::export_chrome_trace();
        std::fs::write(path, &trace_json).expect("write chrome trace");
        let events = wino_trace::drain_events();
        // Every conv node that recorded phase time must have at least one
        // complete node span in the exported timeline.
        for node in graph_profile.nodes.iter().filter(|n| n.total_ns() > 0) {
            assert!(
                events.iter().any(|e| e.cat == wino_trace::Category::Node
                    && e.kind == wino_trace::EventKind::Span
                    && e.name == node.label),
                "no node span for conv {:?} in the exported trace",
                node.label
            );
        }
        eprintln!("wrote chrome trace ({} events) to {path}", events.len());
    }
}
