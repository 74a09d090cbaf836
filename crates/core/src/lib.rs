//! Winograd convolution with tap-wise power-of-two quantization.
//!
//! This crate implements the primary contribution of *"Going Further With
//! Winograd Convolutions: Tap-Wise Quantization for Efficient Inference on 4x4
//! Tiles"* (MICRO 2022):
//!
//! * the Winograd convolution algorithm for F(2,3), F(4,3) and, as an
//!   extension, F(6,3) tiles ([`matrices`], [`transform`], [`winograd`]);
//! * integer-only inference through the Winograd domain ([`int_winograd`]);
//! * **tap-wise quantization**: independent (power-of-two) scaling factors per
//!   Winograd-domain tap for both weights and activations ([`tapwise`],
//!   [`quant`], [`calibration`]);
//! * the quantization-error analysis used in the paper's Fig. 1 and Fig. 4
//!   ([`analysis`], [`pinv`]);
//! * a Toom–Cook matrix generator for arbitrary root points ([`cooktoom`]),
//!   used to cross-check the hard-coded matrices;
//! * the unified execution engine ([`engine`]): every convolution path behind
//!   one [`ConvBackend`] contract, a [`Planner`] that picks a kernel per layer
//!   with the same taxonomy as the cycle simulator, and a [`GraphExecutor`]
//!   that runs whole network graphs end to end with real tensors;
//! * composable convolution epilogues ([`epilogue`]): the bias / requant /
//!   residual / ReLU tail every backend can fuse into its output transform,
//!   with [`apply_epilogue`] as the bitwise reference.
//!
//! # Quick example
//!
//! ```
//! use wino_core::{winograd_conv2d, TileSize};
//! use wino_tensor::{conv2d_direct, ConvParams, normal};
//!
//! # fn main() {
//! let x = normal(&[1, 4, 16, 16], 0.0, 1.0, 1);
//! let w = normal(&[8, 4, 3, 3], 0.0, 0.5, 2);
//! let fast = winograd_conv2d(&x, &w, TileSize::F4);
//! let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
//! assert!(fast.relative_error(&reference) < 1e-4);
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod calibration;
pub mod cooktoom;
pub mod engine;
pub mod epilogue;
pub mod int_winograd;
pub mod matrices;
pub mod pinv;
pub mod quant;
pub mod scratch;
pub mod tapwise;
pub mod transform;
pub mod winograd;

pub use analysis::{
    tap_dynamic_range, QuantDomain, QuantGranularity, QuantizationErrorReport, TapStatistics,
};
pub use calibration::{MaxCalibrator, TapCalibrator};
pub use cooktoom::cook_toom_matrices;
pub use engine::{
    Activation, ActivationArena, ArenaStats, CalibrationPolicy, CalibrationState, ConvBackend,
    DirectBackend, Engine, EpilogueFusion, EpiloguePlan, ExecutionPlan, FusionClasses,
    GraphExecution, GraphExecutor, GraphRunOptions, Im2colGemmBackend, IntWinogradTapwiseBackend,
    LayerPlan, NodeExecution, Planner, PreparedGraph, RunningCalibration, SynthCache, SynthStats,
    WinogradBackend,
};
pub use epilogue::{add_bias, apply_epilogue, EpilogueOps};
pub use int_winograd::{
    prepare_call_count, IntWinogradConv, IntWinogradOutput, WinogradQuantConfig,
};
pub use matrices::{TileSize, WinogradMatrices};
pub use pinv::pseudo_inverse;
pub use quant::{dequantize, quantize_symmetric, QuantBits, QuantParams};
pub use scratch::tap_scratch_bytes;
pub use tapwise::{ScaleMode, TapScaleMatrix, TapwiseScales};
pub use transform::{input_transform, output_transform, weight_transform};
pub use wino_trace::{Phase, PhaseProbe, PhaseProfile, PhaseSnapshot, PHASE_COUNT};
pub use winograd::{winograd_conv2d, winograd_conv2d_fake_quant, PreparedWinogradConv};
