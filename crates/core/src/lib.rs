//! # teamnet-core
//!
//! The primary contribution of *TeamNet: A Collaborative Inference
//! Framework on the Edge* (Fang, Jin & Zheng, ICDCS 2019), reproduced in
//! Rust: training K small expert networks that competitively partition a
//! dataset, and running them collaboratively on connected edge devices
//! with least-uncertainty selection.
//!
//! The module map follows the paper:
//!
//! * [`entropy`](fn@crate::entropy::entropy) — predictive entropy, the
//!   uncertainty measure (Section IV-A);
//! * [`DynamicGate`] — Algorithm 2: the data-assignment gate with soft
//!   arg-min, meta-estimated temperature, differentiable Kronecker delta
//!   and proportional bias correction;
//! * [`ExpertEnsemble`] — Algorithm 3: per-expert cross-entropy SGD on
//!   gate-assigned sub-batches;
//! * [`Trainer`] — Algorithm 1: the epoch/batch loop, recording the
//!   assignment-share trajectories of Figures 6 and 8;
//! * [`TeamNet`] — Section V: arg-min-entropy collaborative inference and
//!   the specialization analysis of Figure 9;
//! * [`runtime`] — Figure 1(d): the master/worker broadcast–compute–gather
//!   protocol over in-process channels or real TCP, hardened with
//!   round-stamped envelopes and one gather deadline — and, through the
//!   [`exchange`] seam, the round every baseline strategy runs on too;
//! * [`health`] — the heartbeat failure detector that quarantines
//!   unresponsive peers and probes them for readmission;
//! * [`recover`] — failure-backtracking expert re-placement: quarantined
//!   nodes' experts migrate to surviving hosts with certified spare
//!   memory and are handed back on readmission;
//! * [`convergence`] — Appendix A: the γ → 1/K contraction theory.
//!
//! # Examples
//!
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use teamnet_core::{TrainConfig, Trainer};
//! use teamnet_data::synth_digits;
//! use teamnet_nn::ModelSpec;
//!
//! // Train two 4-layer experts on digits, then collaborate at inference.
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = synth_digits(2_000, &mut rng);
//! let (train, test) = data.split(1_600);
//! let mut trainer = Trainer::new(ModelSpec::mlp(4, 64), 2, TrainConfig::default());
//! trainer.train(&train);
//! let mut team = trainer.into_team();
//! println!("accuracy: {:.3}", team.evaluate(&test).accuracy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
mod entropy;
pub mod exchange;
mod expert;
pub mod fsm;
mod gate;
pub mod health;
pub mod persist;
pub mod recover;
pub mod runtime;
mod shell;
mod team;
mod train;

pub use entropy::{
    entropy, entropy_matrix, entropy_rows, normalized_deviation, EntropyError, PROB_SUM_TOLERANCE,
};
pub use exchange::{Exchange, PeerCompute};
pub use expert::{build_expert, expert_rng, ExpertEnsemble};
pub use gate::{
    assignment_shares, weighted_argmin, DynamicGate, GateConfig, GateConfigError, GateDecision,
};
pub use health::{
    ContactPlan, FailureDetector, FailureDetectorConfig, InferenceReport, PeerHealth, PeerReport,
};
pub use persist::{load_expert, load_team, save_team, PersistError};
pub use recover::{
    AckStatus, HostBudget, LoadAckMsg, LoadExpertMsg, RecoveryConfig, RecoveryManager,
    TransferManifest,
};
pub use team::{TeamEvaluation, TeamNet, TeamPrediction};
pub use train::{IterationRecord, TrainConfig, Trainer, TrainingHistory};
