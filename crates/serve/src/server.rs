//! Unit tests of the in-process worker pool: a one-model
//! [`crate::RegistryBuilder`] registry served by [`crate::RegistryServer`],
//! driven through [`crate::ModelRegistry::submit`] without the TCP front end.

mod tests {
    use crate::{
        AdmissionControl, BatchPolicy, InferenceReply, ModelRegistry, ModelReply, ModelServeConfig,
        RegistryBuilder, RegistryServer, SubmitError,
    };
    use std::sync::Arc;
    use std::time::Duration;
    use wino_core::{GraphExecutor, GraphRunOptions, PreparedGraph, TileSize, WinogradQuantConfig};
    use wino_nets::resnet20_graph;
    use wino_tensor::{normal, Tensor};

    /// A quantized ResNet-20, so the pool shares interior calibration state.
    fn small_pair() -> (Arc<GraphExecutor>, Arc<PreparedGraph>) {
        let graph = resnet20_graph().with_channel_div(4);
        let executor = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(
            TileSize::F4,
            10,
        )));
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        (executor, prepared)
    }

    /// A one-model registry named `"m"` and its worker pool. The deadline is
    /// far beyond any test's run time, so nothing is shed on a slow machine.
    fn serve(
        executor: Arc<GraphExecutor>,
        prepared: Arc<PreparedGraph>,
        workers: usize,
        max_batch: usize,
    ) -> (Arc<ModelRegistry>, RegistryServer) {
        let config = ModelServeConfig {
            policy: BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(1),
            },
            admission: AdmissionControl {
                max_queue: 64,
                deadline: Duration::from_secs(600),
            },
            ..ModelServeConfig::default()
        };
        let registry = RegistryBuilder::new()
            .model("m", executor, prepared, config)
            .build();
        let server = RegistryServer::start(Arc::clone(&registry), workers);
        (registry, server)
    }

    fn small_server(workers: usize, max_batch: usize) -> (Arc<ModelRegistry>, RegistryServer) {
        let (executor, prepared) = small_pair();
        serve(executor, prepared, workers, max_batch)
    }

    fn infer(registry: &ModelRegistry, inputs: Vec<Tensor<f32>>) -> InferenceReply {
        let reply = registry.submit("m", inputs).expect("accepted").wait();
        reply.and_then(ModelReply::ok).expect("served")
    }

    fn probe(seed: u64) -> Tensor<f32> {
        normal(&[1, 1, 32, 32], 0.0, 1.0, seed)
    }

    #[test]
    fn replies_match_the_direct_submission_path() {
        let (executor, prepared) = small_pair();
        executor.warmup(&prepared);
        let expected: Vec<_> = (0..6)
            .map(|i| {
                let x = probe(100 + i);
                let run = executor.run_with_inputs(&prepared, std::slice::from_ref(&x));
                (x, run.outputs[0].1.clone())
            })
            .collect();
        let (registry, server) = serve(Arc::clone(&executor), prepared, 2, 4);
        let pending: Vec<_> = expected
            .iter()
            .map(|(x, _)| registry.submit("m", vec![x.clone()]).expect("accepted"))
            .collect();
        for (p, (_, want)) in pending.into_iter().zip(&expected) {
            let reply = p.wait().and_then(ModelReply::ok).expect("served");
            assert_eq!(reply.outputs.len(), 1);
            assert_eq!(
                &reply.outputs[0].1, want,
                "served output differs from the sequential path"
            );
            assert!(reply.latency > Duration::ZERO);
            assert!(reply.batch_images >= 1);
        }
        let report = server.shutdown();
        let m = report.model("m").expect("model report");
        assert_eq!(m.requests, 6);
        assert_eq!(m.images, 6);
    }

    #[test]
    fn shutdown_report_folds_in_every_worker_arena() {
        let (registry, server) = small_server(2, 2);
        for i in 0..8 {
            let _ = infer(&registry, vec![probe(i)]);
        }
        let report = server.shutdown();
        assert_eq!(report.pool.workers_reported, 2);
        assert_eq!(report.total_requests(), 8);
        assert!(
            report.pool.arena.runs >= 8 / 2,
            "batches ran through the arenas"
        );
        assert!(report.model("m").expect("model report").throughput_rps > 0.0);
    }

    #[test]
    fn submitting_after_shutdown_is_refused() {
        let (registry, server) = small_server(1, 2);
        let _ = server.shutdown();
        assert_eq!(
            registry.submit("m", vec![probe(0)]).err(),
            Some(SubmitError::Shutdown)
        );
    }

    #[test]
    fn malformed_shapes_are_refused_at_submit() {
        let (registry, server) = small_server(1, 2);
        for bad in [
            vec![normal(&[1, 2, 32, 32], 0.0, 1.0, 0)],
            vec![normal(&[1, 1, 16, 16], 0.0, 1.0, 0)],
            vec![probe(0), probe(1)],
            vec![],
        ] {
            assert!(matches!(
                registry.submit("m", bad).err(),
                Some(SubmitError::BadShape(_))
            ));
        }
        let _ = server.shutdown();
    }

    #[test]
    fn a_rejected_submit_leaves_the_pool_serving() {
        let (registry, server) = small_server(1, 2);
        let bad = normal(&[1, 1, 16, 16], 0.0, 1.0, 0);
        assert!(
            matches!(
                registry.submit("m", vec![bad]).err(),
                Some(SubmitError::BadShape(_))
            ),
            "bad shape must be rejected at submit"
        );
        // The workers never saw the malformed request; service continues.
        let reply = infer(&registry, vec![probe(1)]);
        assert_eq!(reply.outputs.len(), 1);
        let report = server.shutdown();
        assert_eq!(report.total_requests(), 1);
    }

    /// A multi-image request rides one batch and gets all of its images
    /// back, equal to the sequential run of the same batch.
    #[test]
    fn multi_image_requests_are_sliced_back_whole() {
        let (executor, prepared) = small_pair();
        executor.warmup(&prepared);
        let (registry, server) = serve(Arc::clone(&executor), Arc::clone(&prepared), 1, 4);
        let x = normal(&[3, 1, 32, 32], 0.0, 1.0, 5);
        let reply = infer(&registry, vec![x.clone()]);
        let got = &reply.outputs[0].1;
        assert_eq!(got.dims()[0], 3);
        let want = executor.run_with_inputs(&prepared, std::slice::from_ref(&x));
        assert_eq!(got, &want.outputs[0].1);
        let _ = server.shutdown();
    }
}
