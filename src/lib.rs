//! # teamnet
//!
//! Facade crate for the TeamNet (ICDCS 2019) reproduction: re-exports the
//! whole workspace under one roof. See the individual crates for detail:
//!
//! * [`core`] — the TeamNet algorithms (gate, expert trainer, inference)
//!   and the one distributed round every strategy runs on (DESIGN.md §18);
//! * [`nn`] / [`tensor`] — the from-scratch neural-network substrate;
//! * [`data`] — synthetic MNIST/CIFAR-like datasets and IDX loading;
//! * [`net`] — TCP / in-process transports, envelopes, retries, fault
//!   injection;
//! * [`obs`] — deterministic span tracing and metrics (DESIGN.md §12);
//! * [`serve`] — the multi-tenant serving front-end (DESIGN.md §16);
//! * [`simnet`] — the edge-device and WiFi cost models;
//! * [`moe`] — the Sparsely-Gated MoE baseline, an exchange on that round;
//! * [`partition`] — the MPI-Matrix/Branch/Kernel baselines, likewise.
//!
//! # Examples
//!
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use teamnet::core::{TrainConfig, Trainer};
//! use teamnet::data::synth_digits;
//! use teamnet::nn::ModelSpec;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = synth_digits(2_000, &mut rng);
//! let mut trainer = Trainer::new(ModelSpec::mlp(4, 64), 2, TrainConfig::default());
//! trainer.train(&data);
//! let mut team = trainer.into_team();
//! let prediction = &team.predict(&data.images().select_rows(&[0]))[0];
//! println!("class {} from expert {}", prediction.label, prediction.expert);
//! ```

#![warn(missing_docs)]

pub use teamnet_core as core;
pub use teamnet_data as data;
pub use teamnet_moe as moe;
pub use teamnet_net as net;
pub use teamnet_nn as nn;
pub use teamnet_obs as obs;
pub use teamnet_partition as partition;
pub use teamnet_serve as serve;
pub use teamnet_simnet as simnet;
pub use teamnet_tensor as tensor;
