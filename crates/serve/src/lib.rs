//! # teamnet-serve
//!
//! The multi-tenant serving front-end for TeamNet collaborative
//! inference: ROADMAP item 2's "millions of users" layer, built on the
//! existing fault-tolerant runtime instead of beside it.
//!
//! TeamNet's competitive-expert strategy (ICDCS 2019, Section III) only
//! pays off when the master keeps every edge node busy, yet
//! [`InferenceSession::infer`] serves exactly one input batch at a time.
//! This crate multiplexes many concurrent client streams onto that
//! single-batch primitive:
//!
//! * [`Batcher`] — pure FIFO coalescing: whole requests, oldest first,
//!   up to 64 rows a batch, with bounded-queue admission control and a
//!   window that narrows while workers are quarantined;
//! * [`ServeEngine`] / [`ServeHandle`] / [`Ticket`] — the self-clocked
//!   engine: admit → coalesce → one fault-tolerant collaborative round →
//!   demux each request's argmin-entropy rows back to its caller. It
//!   takes a batch the moment it is free and anything is pending, so
//!   requests coalesce only while a round is in flight: a lone request
//!   pays one round, a loaded engine fills its batches. The in-process
//!   handle doubles as the test client;
//! * [`TcpServeFront`] / [`ServeClient`] — the framed TCP protocol
//!   ([`wire`]) for external clients;
//! * [`ServeError`] — typed rejections: a malformed client tensor or an
//!   overloaded queue surfaces as an error frame, never a worker panic.
//!
//! Every timestamp comes from the injected [`teamnet_net::Clock`], so a
//! `ManualClock` run is byte-stable end to end (`tests/serve_soak.rs`),
//! and `crates/serve/src/` is a `cargo xtask audit` determinism-taint
//! root. See DESIGN.md §16 for the architecture and the metrics
//! reference.
//!
//! # Example
//!
//! ```
//! use teamnet_core::runtime::{
//!     serve_worker_with_config, shutdown_workers, MasterConfig, WorkerConfig,
//! };
//! use teamnet_net::ChannelTransport;
//! use teamnet_nn::ModelSpec;
//! use teamnet_serve::{BatcherConfig, ServeConfig, ServeEngine};
//! use teamnet_tensor::Tensor;
//!
//! // A 2-node cluster; the worker serves in a background thread.
//! let nodes = ChannelTransport::mesh(2);
//! crossbeam::thread::scope(|scope| {
//!     scope.spawn(|_| {
//!         let mut expert = teamnet_core::build_expert(&ModelSpec::mlp(2, 16), 1);
//!         serve_worker_with_config(&nodes[1], 0, &mut expert, WorkerConfig::default()).unwrap();
//!     });
//!     let config = ServeConfig {
//!         batch: BatcherConfig::default(),
//!         input_dims: vec![1, 28, 28],
//!         master: MasterConfig::default(),
//!     };
//!     let master_expert = teamnet_core::build_expert(&ModelSpec::mlp(2, 16), 0);
//!     let mut engine = ServeEngine::new(&nodes[0], master_expert, config);
//!     let handle = engine.handle();
//!     // Two tenants submit while the engine is busy elsewhere; its next
//!     // pump takes both as one collaborative round.
//!     let a = handle.submit(&Tensor::full([1, 1, 28, 28], 0.2)).unwrap();
//!     let b = handle.submit(&Tensor::full([3, 1, 28, 28], 0.8)).unwrap();
//!     assert_eq!(engine.pump_now(&nodes[0]), 2);
//!     assert_eq!(a.wait().unwrap().len(), 1);
//!     assert_eq!(b.wait().unwrap().len(), 3);
//!     shutdown_workers(&nodes[0]).unwrap();
//! })
//! .unwrap();
//! ```
//!
//! [`InferenceSession::infer`]: teamnet_core::runtime::InferenceSession::infer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod engine;
pub mod error;
pub mod tcp;
#[cfg(test)]
mod test_support;
pub mod wire;

pub use batcher::{Batcher, BatcherConfig, PendingRequest};
pub use engine::{ServeConfig, ServeEngine, ServeHandle, Ticket};
pub use error::ServeError;
pub use tcp::{ServeClient, TcpServeFront};
pub use wire::{ServeFrame, ServeMsgKind};
