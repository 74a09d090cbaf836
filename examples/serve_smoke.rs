//! Smoke-runs the batched serving pool: a quantized ResNet-20 prepared once,
//! warmed up (calibration frozen before workers start), registered as the
//! only model of a registry, then hit with 64 single-image requests from
//! four client threads against a 2-worker pool. Asserts that every served
//! output is bit-identical to the sequential quantized path and within the
//! integer error bound of the direct-conv ground truth, that dynamic
//! batching actually coalesced requests, and prints the latency/throughput
//! stats table. Used as the CI serving check.
//!
//! ```sh
//! cargo run --release --example serve_smoke
//! ```

use std::sync::Arc;
use std::time::Duration;
use winograd_tapwise::wino_core::{GraphExecutor, GraphRunOptions, TileSize, WinogradQuantConfig};
use winograd_tapwise::wino_nets::resnet20_graph;
use winograd_tapwise::wino_serve::{
    AdmissionControl, BatchPolicy, ModelReply, ModelServeConfig, RegistryBuilder, RegistryServer,
};
use winograd_tapwise::wino_tensor::{normal, Tensor};

const REQUESTS: usize = 64;
const CLIENTS: usize = 4;

fn main() {
    let graph = resnet20_graph();
    let exec = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(
        TileSize::F4,
        10,
    )));
    let prepared = Arc::new(exec.prepare(&graph, &GraphRunOptions::default()));
    // Calibrate once, explicitly, before anything races: the sequential
    // reference below and the server's workers share this frozen state.
    exec.warmup(&prepared);
    println!(
        "{}: {} nodes ({} integer conv), prepared + calibrated",
        graph.name,
        graph.nodes().len(),
        prepared.int_conv_count()
    );

    // Sequential references: the quantized path (must match bitwise) and the
    // direct-conv ground truth (must match within the integer error bound).
    let reference = GraphExecutor::reference();
    let ref_prepared = reference.prepare(&graph, &GraphRunOptions::default());
    let cases: Vec<(Tensor<f32>, Tensor<f32>, Tensor<f32>)> = (0..REQUESTS as u64)
        .map(|i| {
            let x = normal(&[1, 3, 32, 32], 0.0, 1.0, 2000 + i);
            let quant = exec.run_with_inputs(&prepared, std::slice::from_ref(&x));
            let direct = reference.run_with_inputs(&ref_prepared, std::slice::from_ref(&x));
            (x, quant.outputs[0].1.clone(), direct.outputs[0].1.clone())
        })
        .collect();

    let config = ModelServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
        // Every request is answered: nothing is refused or shed.
        admission: AdmissionControl {
            max_queue: REQUESTS,
            deadline: Duration::from_secs(600),
        },
        ..ModelServeConfig::default()
    };
    let registry = RegistryBuilder::new()
        .model("resnet20", Arc::clone(&exec), Arc::clone(&prepared), config)
        .build();
    let server = RegistryServer::start(Arc::clone(&registry), 2);

    // Four client threads hammer the queue concurrently so the scheduler
    // has something to coalesce.
    let handles: Vec<_> = cases
        .chunks(REQUESTS / CLIENTS)
        .map(|chunk| {
            let registry = Arc::clone(&registry);
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let pending: Vec<_> = chunk
                    .iter()
                    .map(|(x, _, _)| registry.submit("resnet20", vec![x.clone()]))
                    .collect();
                pending
                    .into_iter()
                    .zip(chunk)
                    .map(|(p, (_, quant, direct))| {
                        let reply = p.expect("accepted").wait().and_then(ModelReply::ok);
                        (reply.expect("served"), quant, direct)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut worst_err = 0.0f32;
    for h in handles {
        for (reply, quant, direct) in h.join().expect("client thread") {
            assert_eq!(
                reply.outputs[0].1, quant,
                "served output differs bitwise from the sequential quantized path"
            );
            worst_err = worst_err.max(reply.outputs[0].1.relative_error(&direct));
        }
    }

    let multi = server.shutdown();
    let report = multi.model("resnet20").expect("model report");
    print!("{}{}", report.render(), multi.render());
    println!("worst served-vs-direct relative error: {worst_err:.4}");

    assert_eq!(report.requests, REQUESTS, "a request went unanswered");
    assert_eq!(report.images, REQUESTS);
    assert!(
        report.max_batch_observed() > 1,
        "dynamic batching never coalesced (histogram {:?})",
        report.batch_histogram
    );
    assert!(report.latency.p50 > Duration::ZERO);
    assert!(report.latency.p99 >= report.latency.p50);
    assert!(report.throughput_rps > 0.0);
    assert_eq!(multi.pool.workers_reported, 2);
    assert!(multi.pool.arena.runs >= report.batches);
    assert!(worst_err < 0.25, "served error {worst_err} out of bounds");
    println!("serve smoke OK");
}
