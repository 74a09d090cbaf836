//! `wino_net_serve`: the network-facing multi-model serving tier.
//!
//! Three layers, each usable on its own:
//!
//! * [`protocol`] — the length-prefixed binary wire format
//!   ([`Frame`], [`read_frame`], [`write_frame`]) with its two-severity
//!   error story: garbage payloads get typed error replies, desyncs drop
//!   the connection.
//! * [`registry`] — N prepared graphs behind per-model queues
//!   ([`ModelRegistry`]) with weighted/priority scheduling, bounded-depth +
//!   deadline admission control, and running-statistics calibration while
//!   serving; [`RegistryServer`] is the in-process worker pool over it.
//! * [`server`] / [`client`] — the TCP front ([`NetServer`]) and a blocking
//!   client ([`NetClient`]) speaking the protocol over `std::net`.

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{NetClient, NetResponse, RetryPolicy};
pub use protocol::{
    decode_frame, encode_frame, faulted_read_frame, faulted_write_frame, read_frame, write_frame,
    ErrorCode, Frame, FrameRead, ModelStatsEntry, WireError, MAGIC, MAX_FRAME_BYTES, VERSION,
};
pub use registry::{
    AdmissionControl, InferenceReply, ModelRegistry, ModelReply, ModelServeConfig, PendingReply,
    RegistryBuilder, RegistryServer, SubmitError,
};
pub use server::{NetServer, NetServerConfig};
