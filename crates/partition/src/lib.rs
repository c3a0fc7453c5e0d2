//! # teamnet-partition
//!
//! The paper's three MPI-style model-parallel baselines, implemented both
//! as *real* distributed executions and as calibrated cost-model
//! strategies for the table-generating simulations. The real executions
//! run on the round TeamNet runs on (`teamnet-core`'s `InferenceSession`
//! and its one worker loop) and so pay the same substrate: one round per
//! step, against peers that hold their [`Shard`] of every step:
//!
//! * **MPI-Matrix** ([`mpi_matrix_forward`], peers serve [`MlpShards`]) —
//!   column-parallel dense layers, one round per layer (MLPs);
//! * **MPI-Branch** ([`branch_parallel_forward`], the worker serves
//!   [`Steps`] of blocks) — the two Shake-Shake branches on two devices;
//! * **MPI-Kernel** ([`kernel_parallel_conv2d`], peers serve [`Steps`] of
//!   [`ConvShard`]s) — convolution output channels spread over devices.
//!
//! [`simulate`] prices any [`Strategy`] (these three plus Baseline,
//! TeamNet and both SG-MoE deployments) on a simulated edge cluster using
//! cost profiles measured from the real models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod kernel;
mod matrix;
mod sim;
mod step;

pub use branch::branch_parallel_forward;
pub use kernel::{kernel_parallel_conv2d, ConvShard};
pub use matrix::{mpi_matrix_forward, shard_mlp, split_range, split_sizes, DenseShard, MlpShards};
pub use sim::{
    simulate, simulate_churn, ChurnEvent, LayerCost, ModelCost, RecoverySimReport, Strategy,
    StrategyReport, Workload,
};
pub use step::{Shard, Steps};
