//! # teamnet-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! TeamNet paper's evaluation (Section VI):
//!
//! | Paper artifact | Generator |
//! |---|---|
//! | Figure 5 (RPi, MNIST panel)            | [`figures::fig5`] |
//! | Table I(a)/(b) (Jetson CPU/GPU, MNIST) | [`tables::table1`] |
//! | Figure 6 (MNIST γ-convergence)         | [`figures::fig6`] |
//! | Figure 7 (Jetson, CIFAR panel)         | [`figures::fig7`] |
//! | Table II(a)/(b) (Jetson, CIFAR)        | [`tables::table2`] |
//! | Figure 8 (CIFAR γ-convergence)         | [`figures::fig8`] |
//! | Figure 9 (specialization heat map)     | [`figures::fig9`] |
//!
//! Accuracy columns come from *really training* every contender (TeamNet,
//! the single baseline, SG-MoE) on the synthetic datasets; latency /
//! memory / utilization columns come from the calibrated edge-device cost
//! model in `teamnet-simnet` + `teamnet-partition`, driven by FLOP/byte
//! profiles measured on the real models. The `reproduce` binary prints the
//! paper-shaped tables; measured numbers come from `kernel_bench` (the
//! kernels) and the separate `load_bench` package (the serve path end to
//! end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod suites;
pub mod tables;

pub use suites::{CifarSuite, MnistSuite, Scale};
pub use tables::TableRow;
