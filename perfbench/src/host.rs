//! The host header every run starts with: which SIMD variant runs, how many
//! threads, and the measured per-dtype peak GEMM rate (the roofline base of
//! every `frac_peak`), so runs from different variants or hosts are never
//! compared silently.

use std::time::{Duration, Instant};
use wino_tensor::{gemm_f32_into, gemm_i16_i32_into, gemm_i8_i32_into, max_threads, simd};

/// Side of the square GEMM the peak rate is measured on.
const PEAK_DIM: usize = 384;
/// Time spent measuring each dtype's peak.
const PEAK_BUDGET: Duration = Duration::from_millis(150);

/// Per-dtype peak GEMM throughput in GMAC/s.
#[derive(Debug, Clone, Copy)]
pub struct Peaks {
    pub f32: f64,
    pub i8: f64,
    pub i16: f64,
}

/// What this run executes on.
#[derive(Debug, Clone)]
pub struct Host {
    pub simd_active: &'static str,
    pub simd_available: Vec<&'static str>,
    pub max_threads: usize,
    pub nproc: usize,
    pub peaks: Peaks,
}

/// Best GMAC/s of `f` (one `macs`-MAC call) over repeated calls.
fn best_gmacs(macs: f64, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
    }
    macs / best / 1e9
}

/// GMAC/s of one `m×k×n` GEMM per dtype through the dispatched kernels.
pub fn gemm_rates(m: usize, k: usize, n: usize, budget: Duration) -> Peaks {
    let macs = (m * k * n) as f64;
    let af: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.21 - 1.1).collect();
    let bf: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.17 - 0.8).collect();
    let a8: Vec<i8> = (0..m * k).map(|i| (i % 251) as i8).collect();
    let b8: Vec<i8> = (0..k * n).map(|i| (i % 241) as i8).collect();
    let a16: Vec<i16> = (0..m * k).map(|i| (i % 1021) as i16 - 500).collect();
    let b16: Vec<i16> = (0..k * n).map(|i| (i % 1013) as i16 - 500).collect();
    let mut cf = vec![0.0f32; m * n];
    let mut ci = vec![0i32; m * n];
    Peaks {
        f32: best_gmacs(macs, budget, || {
            gemm_f32_into(&mut cf, &af, &bf, m, k, n);
            std::hint::black_box(&cf);
        }),
        i8: best_gmacs(macs, budget, || {
            gemm_i8_i32_into(&mut ci, &a8, &b8, m, k, n);
            std::hint::black_box(&ci);
        }),
        i16: best_gmacs(macs, budget, || {
            gemm_i16_i32_into(&mut ci, &a16, &b16, m, k, n);
            std::hint::black_box(&ci);
        }),
    }
}

impl Host {
    /// Probes the host: kernel dispatch, threads, and the GEMM roofline.
    pub fn probe() -> Self {
        Self {
            simd_active: simd::active().name(),
            simd_available: simd::available().iter().map(|v| v.name()).collect(),
            max_threads: max_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            peaks: gemm_rates(PEAK_DIM, PEAK_DIM, PEAK_DIM, PEAK_BUDGET),
        }
    }

    /// The header as one JSON object.
    pub fn json(&self) -> String {
        let avail = self
            .simd_available
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"host\": {{\"simd_active\": \"{}\", \"simd_available\": [{avail}], \
             \"max_threads\": {}, \"nproc\": {}, \"peak_gemm_dim\": {PEAK_DIM}, \
             \"peak_gmacs\": {{\"f32\": {:.3}, \"i8\": {:.3}, \"i16\": {:.3}}}}}}}",
            self.simd_active,
            self.max_threads,
            self.nproc,
            self.peaks.f32,
            self.peaks.i8,
            self.peaks.i16
        )
    }
}
