//! Runs zoo network graphs through the `ConvBackend` execution engine: the
//! planner assigns a kernel to every conv node (sharing the taxonomy with the
//! cycle simulator), and the graph executor chains real tensors through the
//! chosen backends, reporting per-kernel wall-clock time. SSD stands in for
//! VGG: its backbone is VGG-16.
//!
//! ```sh
//! cargo run --release --example run_network
//! ```

use winograd_tapwise::wino_core::{GraphExecutor, GraphRunOptions};
use winograd_tapwise::wino_nets::{resnet34_graph, ssd_graph, unet_graph, Kernel};

fn main() {
    let exec = GraphExecutor::with_defaults();
    // Reduced resolutions and channel widths so the demo finishes in
    // seconds; drop them to execute the graphs at their published shapes.
    for graph in [resnet34_graph(64), ssd_graph(160), unet_graph(64)] {
        let graph = graph.with_channel_div(4);
        let prepared = exec.prepare(&graph, &GraphRunOptions::default());
        let run = exec.run(&prepared);
        let plans: Vec<_> = (0..graph.nodes().len())
            .filter_map(|id| prepared.plan_for(id))
            .collect();
        let modelled_gain = plans.iter().map(|p| p.im2col_cost).sum::<f64>()
            / plans.iter().map(|p| p.cost).sum::<f64>();
        let seconds_for = |kernels: &[Kernel]| -> f64 {
            run.nodes
                .iter()
                .filter(|n| n.kernel.is_some_and(|k| kernels.contains(&k)))
                .map(|n| n.seconds)
                .sum()
        };
        let hist = run.kernel_histogram();
        println!(
            "{:<12} {} conv nodes ({} im2col / {} F2 / {} F4), modelled gain {:.2}x",
            run.graph,
            plans.len(),
            hist[0].1,
            hist[1].1,
            hist[2].1,
            modelled_gain,
        );
        println!(
            "  executed in {:.1} ms ({:.1} ms im2col, {:.1} ms Winograd)",
            run.total_seconds * 1e3,
            seconds_for(&[Kernel::Im2col]) * 1e3,
            seconds_for(&[Kernel::WinogradF2, Kernel::WinogradF4]) * 1e3,
        );
        for n in run.nodes.iter().filter(|n| n.kind == "conv").take(4) {
            println!(
                "    {:<22} -> {:<12} {:>10.2?} out {:?}",
                n.name,
                n.backend.unwrap_or("-"),
                std::time::Duration::from_secs_f64(n.seconds),
                n.output_dims,
            );
        }
        println!("    ...\n");
    }
}
