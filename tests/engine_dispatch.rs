//! Integration tests of the `ConvBackend` execution engine: every backend
//! must agree with the direct-convolution ground truth on randomized shapes,
//! the integer tap-wise backend must stay within the paper's quantization
//! error band of the float Winograd reference, and the planner must be
//! consistent with the cycle simulator's per-layer kernel selection.

use winograd_tapwise::accel_sim::{simulate_network, AcceleratorConfig};
use winograd_tapwise::wino_core::{
    winograd_conv2d, ConvBackend, Engine, GraphExecutor, GraphRunOptions,
    IntWinogradTapwiseBackend, Planner, TileSize, WinogradQuantConfig,
};
use winograd_tapwise::wino_nets::{
    resnet34, resnet34_graph, ssd_graph, unet, unet_graph, Kernel, KernelChoice, LayerKind,
};
use winograd_tapwise::wino_tensor::{conv2d_direct, normal, ConvParams};

/// Randomized layer geometries: non-square inputs, padding 0/1, stride 1/2.
fn random_cases() -> Vec<(usize, usize, usize, usize, usize, ConvParams)> {
    let mut cases = Vec::new();
    let mut seed = 7_u64;
    for &(h, w) in &[(8, 8), (7, 9), (12, 5), (16, 16), (6, 11)] {
        for &(stride, padding) in &[(1, 1), (1, 0), (2, 1)] {
            seed += 1;
            let c_in = 1 + (seed as usize * 7) % 5;
            let c_out = 1 + (seed as usize * 5) % 6;
            cases.push((
                1 + seed as usize % 2,
                c_in,
                c_out,
                h,
                w,
                ConvParams::new(3, stride, padding),
            ));
        }
    }
    cases
}

#[test]
fn every_backend_matches_direct_on_randomized_shapes() {
    let engine = Engine::with_default_backends();
    for (i, &(n, c_in, c_out, h, w, p)) in random_cases().iter().enumerate() {
        let x = normal(&[n, c_in, h, w], 0.0, 1.0, 100 + i as u64);
        let wt = normal(&[c_out, c_in, 3, 3], 0.0, 0.5, 200 + i as u64);
        let bias = normal(&[c_out], 0.0, 0.1, 300 + i as u64);
        let reference = conv2d_direct(&x, &wt, Some(&bias), p);
        for backend in engine.backends() {
            if !backend.supports(p) {
                continue;
            }
            let y = backend.conv2d(&x, &wt, Some(&bias), p);
            assert!(
                y.relative_error(&reference) < 1e-3,
                "{} disagrees with direct on case {i} ({p:?})",
                backend.name()
            );
        }
    }
}

#[test]
fn strided_layers_dispatch_to_im2col_through_the_engine() {
    let engine = Engine::with_default_backends();
    let p = ConvParams::new(3, 2, 1);
    let x = normal(&[1, 3, 9, 7], 0.0, 1.0, 41);
    let w = normal(&[4, 3, 3, 3], 0.0, 0.5, 42);
    let reference = conv2d_direct(&x, &w, None, p);
    // Winograd cannot run stride 2; the engine must fall back, not panic.
    for kernel in [Kernel::WinogradF2, Kernel::WinogradF4] {
        let y = engine.execute(kernel, &x, &w, None, p);
        assert!(y.relative_error(&reference) < 1e-4);
    }
}

#[test]
fn int_tapwise_backend_tracks_float_winograd_within_paper_bound() {
    let x = normal(&[1, 8, 16, 16], 0.0, 1.0, 55);
    let w = normal(&[8, 8, 3, 3], 0.0, 0.3, 56);
    let p = ConvParams::same_3x3();
    let float_ref = winograd_conv2d(&x, &w, TileSize::F4);
    for (wino_bits, bound) in [(8u8, 0.25_f32), (10u8, 0.10_f32)] {
        let backend = IntWinogradTapwiseBackend::new(WinogradQuantConfig::tapwise_po2(
            TileSize::F4,
            wino_bits,
        ));
        let y = backend.conv2d(&x, &w, None, p);
        let err = y.relative_error(&float_ref);
        assert!(
            err < bound,
            "int8/{wino_bits} error {err} above bound {bound}"
        );
    }
}

#[test]
fn planner_is_consistent_with_simulator_selection() {
    let cfg = AcceleratorConfig::default();
    for net in [resnet34(), unet()] {
        for choice in [
            KernelChoice::WithF2,
            KernelChoice::WithF4,
            KernelChoice::WithF2AndF4,
        ] {
            let plan = Planner::new(choice).plan(&net);
            let sim = simulate_network(&net, 8, choice, &cfg);
            for ((layer, lp), sl) in net
                .layers
                .iter()
                .zip(plan.layers.iter())
                .zip(sim.layers.iter())
            {
                // Standard layers must run im2col under both selectors.
                if layer.kind() == LayerKind::Standard {
                    assert_eq!(lp.kernel, Kernel::Im2col, "planner: {}", lp.name);
                    assert_eq!(sl.chosen, Kernel::Im2col, "simulator: {}", sl.name);
                }
                // Wherever the simulator found a Winograd kernel profitable,
                // the engine planner must also have moved the layer off im2col.
                if sl.chosen != Kernel::Im2col {
                    assert_ne!(
                        lp.kernel,
                        Kernel::Im2col,
                        "planner left {} on im2col where the simulator chose {}",
                        lp.name,
                        sl.chosen
                    );
                }
            }
        }
    }
}

/// ResNet-34, VGG (as the SSD backbone) and U-Net graphs through the graph
/// executor: every node produces its inferred shape, and every conv node
/// runs the backend of its planned kernel, with strided and 1×1 nodes on
/// im2col.
#[test]
fn executor_runs_resnet_vgg_unet_inventories() {
    let exec = GraphExecutor::with_defaults();
    let opts = GraphRunOptions::default();
    for graph in [resnet34_graph(32), ssd_graph(160), unet_graph(16)] {
        let graph = graph.with_channel_div(16);
        let prepared = exec.prepare(&graph, &opts);
        let run = exec.run(&prepared);
        assert_eq!(run.nodes.len(), graph.nodes().len(), "{}", graph.name);
        for (id, node) in run.nodes.iter().enumerate() {
            let (c, h, w) = prepared.shapes()[id];
            assert_eq!(node.output_dims, [opts.batch, c, h, w], "{}", node.name);
            assert!(node.checksum.is_finite(), "{}", node.name);
            if let Some(plan) = prepared.plan_for(id) {
                let want = match plan.kernel {
                    Kernel::Im2col => "im2col-gemm",
                    Kernel::WinogradF2 => "winograd-f2",
                    Kernel::WinogradF4 => "winograd-f4",
                };
                assert_eq!(node.backend, Some(want), "{} ran the wrong path", node.name);
                if !plan.params.is_winograd_eligible() {
                    assert_eq!(plan.kernel, Kernel::Im2col, "{}", node.name);
                }
            }
        }
        let hist = run.kernel_histogram();
        assert!(hist[0].1 > 0, "{} planned no im2col nodes", graph.name);
        assert!(
            hist[1].1 + hist[2].1 > 0,
            "{} planned no Winograd nodes",
            graph.name
        );
    }
}
