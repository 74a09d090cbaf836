//! Per-node dispatch tests of [`crate::GraphExecutor`]: every node of a
//! small network graph runs, and every conv node runs the backend of the
//! kernel its plan requests, with strided layers on im2col.

mod tests {
    use crate::engine::{GraphExecutor, GraphRunOptions};
    use wino_nets::{
        resnet20_graph, ssd_graph, unet_graph, ConvLayer, GraphBuilder, GraphOp, Kernel, LayerKind,
    };

    /// The backend name a planned kernel must run as.
    fn backend_of(kernel: Kernel) -> &'static str {
        match kernel {
            Kernel::Im2col => "im2col-gemm",
            Kernel::WinogradF2 => "winograd-f2",
            Kernel::WinogradF4 => "winograd-f4",
        }
    }

    #[test]
    fn runs_every_layer_of_small_inventories() {
        let exec = GraphExecutor::with_defaults();
        let opts = GraphRunOptions::default();
        for graph in [
            resnet20_graph().with_channel_div(4),
            ssd_graph(160).with_channel_div(16),
        ] {
            let prepared = exec.prepare(&graph, &opts);
            let run = exec.run(&prepared);
            assert_eq!(run.nodes.len(), graph.nodes().len(), "{}", graph.name);
            for (id, node) in run.nodes.iter().enumerate() {
                let (c, h, w) = prepared.shapes()[id];
                assert_eq!(
                    node.output_dims,
                    [opts.batch, c, h, w],
                    "node {} produced the wrong shape",
                    node.name
                );
                assert!(node.checksum.is_finite(), "{}", node.name);
            }
            assert!(run.total_seconds >= 0.0);
        }
    }

    #[test]
    fn eligible_layers_run_winograd_backends() {
        let exec = GraphExecutor::with_defaults();
        let graph = unet_graph(32).with_channel_div(16);
        let prepared = exec.prepare(&graph, &GraphRunOptions::default());
        let run = exec.run(&prepared);
        for (id, node) in run.nodes.iter().enumerate() {
            let Some(plan) = prepared.plan_for(id) else {
                continue;
            };
            let backend = node.backend.expect("conv nodes report their backend");
            if plan.params.is_winograd_eligible() {
                assert!(
                    backend.starts_with("winograd"),
                    "eligible node {} ran {backend}",
                    node.name
                );
            } else {
                assert_eq!(backend, "im2col-gemm", "{}", node.name);
            }
        }
        let hist = run.kernel_histogram();
        assert!(hist[0].1 > 0 && hist[2].1 > 0);
    }

    #[test]
    fn repeated_shapes_reuse_synthesized_tensors() {
        let exec = GraphExecutor::with_defaults();
        let graph = resnet20_graph().with_channel_div(4);
        let a = exec.prepare(&graph, &GraphRunOptions::default());
        let misses = exec.synth().misses();
        assert!(misses > 0, "first prepare synthesizes inputs and weights");
        let b = exec.prepare(&graph, &GraphRunOptions::default());
        assert_eq!(exec.synth().misses(), misses, "second prepare must hit");
        assert_eq!(exec.synth().hits(), misses);
        assert_eq!(exec.run(&a).outputs, exec.run(&b).outputs);
    }

    /// A chain whose plan requests F4 (12×12), im2col (stride 2) and F2
    /// (2×2, where one F4 tile would waste most of its taps).
    #[test]
    fn run_layer_respects_requested_kernel() {
        let mut g = GraphBuilder::new("dispatch", 12);
        let x = g.input("input", 8, 12, 12);
        let f4 = g.conv(ConvLayer::conv3x3("f4", 8, 8, 12), x);
        let s1 = g.conv(ConvLayer::new("s1", 8, 8, 6, 6, 3, 2), f4);
        let s2 = g.conv(ConvLayer::new("s2", 8, 8, 3, 3, 3, 2), s1);
        let s3 = g.conv(ConvLayer::new("s3", 8, 8, 2, 2, 3, 2), s2);
        let f2 = g.conv(ConvLayer::conv3x3("f2", 8, 8, 2), s3);
        g.output("out", f2);
        let graph = g.finish();

        let exec = GraphExecutor::with_defaults();
        let prepared = exec.prepare(&graph, &GraphRunOptions::default());
        let run = exec.run(&prepared);
        let mut requested = Vec::new();
        for (id, node) in run.nodes.iter().enumerate() {
            let Some(plan) = prepared.plan_for(id) else {
                continue;
            };
            if let GraphOp::Conv(layer) = &graph.nodes()[id].op {
                if layer.kind() == LayerKind::Standard {
                    assert_eq!(
                        plan.kernel,
                        Kernel::Im2col,
                        "strided {} must fall back",
                        node.name
                    );
                }
            }
            assert_eq!(node.kernel, Some(plan.kernel), "{}", node.name);
            assert_eq!(node.backend, Some(backend_of(plan.kernel)), "{}", node.name);
            requested.push(plan.kernel);
        }
        assert_eq!(
            requested,
            [
                Kernel::WinogradF4,
                Kernel::Im2col,
                Kernel::Im2col,
                Kernel::Im2col,
                Kernel::WinogradF2
            ]
        );
    }
}
