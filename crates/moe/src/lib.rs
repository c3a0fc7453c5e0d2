//! # teamnet-moe
//!
//! The Sparsely-Gated Mixture-of-Experts baseline (Shazeer et al., 2017)
//! that the TeamNet paper compares against: K expert networks jointly
//! trained with a linear noisy-top-k gate and an importance
//! load-balancing loss, plus its distributed deployment —
//! [`infer_distributed`] on the gateway, an [`ExpertPeer`] on every other
//! node — over the round every strategy here runs on. The paper's two
//! stacks under it, SG-MoE-G (gRPC) and SG-MoE-M (MPI), differ by a
//! per-call overhead that `teamnet-partition`'s cost model prices.
//!
//! # Examples
//!
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use teamnet_data::synth_digits;
//! use teamnet_moe::{SgMoe, SgMoeConfig};
//! use teamnet_nn::ModelSpec;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = synth_digits(2_000, &mut rng);
//! let (train, test) = data.split(1_600);
//! let mut moe = SgMoe::new(ModelSpec::mlp(4, 64), 2, SgMoeConfig::default());
//! moe.train(&train);
//! println!("SG-MoE accuracy: {:.3}", moe.evaluate(&test));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distributed;
mod gating;
mod model;

pub use distributed::{infer_distributed, ExpertPeer};
pub use gating::{gate_logit_grad, importance_loss, noisy_top_k, softplus, GatingOutput};
pub use model::{SgMoe, SgMoeConfig};
