//! Criterion benchmarks of chained graph inference: the float and quantized
//! ResNet-20 graph forward passes, the serving-style cached quantized run
//! against a cold (calibrate + prepare per node) run and the direct
//! reference, and the U-Net encoder–decoder with its skip concats.

use criterion::{criterion_group, criterion_main, Criterion};
use wino_core::{GraphExecutor, GraphRunOptions, TileSize, WinogradQuantConfig};
use wino_nets::{resnet20_graph, unet_graph};

fn bench_graph_forward(c: &mut Criterion) {
    let graph = resnet20_graph().with_channel_div(2);
    let opts = GraphRunOptions::default();

    let mut group = c.benchmark_group("graph_forward");
    group.sample_size(10);

    let float = GraphExecutor::with_defaults();
    let float_prepared = float.prepare(&graph, &opts);
    group.bench_function("resnet20_float", |b| b.iter(|| float.run(&float_prepared)));

    let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
    let int = GraphExecutor::quantized(cfg);
    let int_prepared = int.prepare(&graph, &opts);
    // Warm the per-node prepared state so the "cached" rows measure pure
    // forward passes.
    let _ = int.run(&int_prepared);
    group.bench_function("resnet20_quant_cached", |b| {
        b.iter(|| int.run(&int_prepared))
    });
    // The cold row re-prepares the graph every iteration, so each run pays
    // per-node calibration + weight transformation + quantization — the cost
    // the prepared-state cache removes from run 2 onwards.
    group.bench_function("resnet20_quant_cold", |b| {
        b.iter(|| {
            let fresh = int.prepare(&graph, &opts);
            int.run(&fresh)
        })
    });

    // The direct-convolution reference executor: the end-to-end baseline
    // the Winograd executors are measured against.
    let reference = GraphExecutor::reference();
    let reference_prepared = reference.prepare(&graph, &opts);
    group.bench_function("resnet20_reference_direct", |b| {
        b.iter(|| reference.run(&reference_prepared))
    });

    let unet = unet_graph(32).with_channel_div(8);
    let unet_prepared = float.prepare(&unet, &opts);
    group.bench_function("unet32_float", |b| b.iter(|| float.run(&unet_prepared)));

    group.finish();
}

criterion_group!(benches, bench_graph_forward);
criterion_main!(benches);
