//! Batched inference serving over shared prepared graphs.
//!
//! The paper motivates its kernels by deployment throughput; this crate is
//! the serving layer that turns [`wino_core::PreparedGraph`]s into a
//! multi-client, batch-scheduled service with one worker pool:
//!
//! ```text
//!  clients ──submit──▶ ModelRegistry ──batches──▶ RegistryServer ──▶ replies
//!  (in-process or     one BatchScheduler           worker pool  │
//!   NetServer/TCP)    per model (queue +           each worker: │
//!                     deadline, admission)   Arc<PreparedGraph>s│
//!                                             own ActivationArena
//!                                                               ▼
//!                                                   ServerStats per model
//!                                         (latency p50/p95/p99, batch sizes,
//!                                          queue depth, throughput, arenas)
//! ```
//!
//! * [`BatchScheduler`] coalesces single-image requests into batch-size-`B`
//!   runs under a max-wait deadline — *dynamic batching*: a batch dispatches
//!   early the moment the queue holds `max_batch` requests, and a partial
//!   batch flushes when the oldest request has waited `max_wait`.
//! * [`ModelRegistry`] holds one or more models, each an
//!   `Arc<PreparedGraph>` behind its own scheduler queue. Calibration is
//!   frozen by a warmup at [`RegistryBuilder::model`] — before any worker
//!   starts — so no live request ever mutates the prepared state (or it
//!   runs under running-statistics calibration via
//!   [`RegistryBuilder::model_calibrating`]). A single-model service is a
//!   one-model registry.
//! * [`RegistryServer`] owns the `N` worker threads. Each worker keeps its
//!   own [`wino_core::ActivationArena`], so steady-state batches recycle the
//!   previous batch's activation buffers.
//! * [`ServerStats`] aggregates per-request latency and queue-wait
//!   histograms (p50/p95/p99), the observed batch-size distribution, queue
//!   depth, aggregate requests/sec, and the per-worker arena plus
//!   synthesis-cache counters ([`wino_core::ArenaStats`],
//!   [`wino_core::SynthStats`]).
//!
//! The scheduler is generic over the queued item, so its batching policy is
//! unit-testable without tensors or threads; the registry instantiates it
//! with real requests.
//!
//! The [`net`] module holds the registry and its pool, plus the
//! network-facing tier on top: weighted/priority scheduling across models,
//! admission control (bounded queue depth + deadline shedding) and
//! running-statistics calibration, fronted by a length-prefixed binary wire
//! protocol over `std::net` TCP ([`net::NetServer`] / [`net::NetClient`]).
//!
//! # Panic policy
//!
//! Everything a caller or *remote peer* can trigger per request resolves to
//! a typed outcome, never a panic: malformed or non-finite payloads become
//! error frames at decode ([`net::ErrorCode::Malformed`] /
//! [`net::ErrorCode::BadInput`]), bad shapes and admission refusals become
//! [`SubmitError`], and a worker that panics mid-batch is caught, respawned
//! under a restart budget, and answers that batch's requests with
//! [`ModelReply::WorkerFailed`] / [`net::ErrorCode::Internal`] (see
//! `tests/chaos_serving.rs`, which injects each of these with
//! `wino_fault`). No lock in this crate propagates poison: every mutex is
//! recovered with `into_inner` because no guarded section runs user code —
//! the protected state (queues, counters, stream maps) stays structurally
//! valid even if a holder unwound.
//!
//! The panics that remain are deliberate and fall into three classes:
//! *set-up preconditions* on the local API (a duplicate model name, a
//! zero model weight, an empty registry or a zero-worker pool);
//! *encode-side invariants* (frame fields that the builder already bounds,
//! e.g. dims fitting `u32`); and *infrastructure failures* (OS thread spawn
//! at startup, a handler join at shutdown) where continuing would hide a
//! bug rather than tolerate a fault.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod net;
pub mod scheduler;
#[cfg(test)]
mod server;
pub mod stats;

pub use net::{
    AdmissionControl, InferenceReply, ModelRegistry, ModelReply, ModelServeConfig, ModelStatsEntry,
    NetClient, NetResponse, NetServer, NetServerConfig, RegistryBuilder, RegistryServer,
    RetryPolicy, SubmitError,
};
pub use scheduler::{Batch, BatchPolicy, BatchScheduler};
pub use stats::{LatencySummary, MultiModelReport, ServerStats, StatsReport};
