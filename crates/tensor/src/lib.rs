//! # teamnet-tensor
//!
//! Dense `f32` tensors, linear algebra, convolution kernels and a small
//! reverse-mode autodiff tape — the numeric substrate of the
//! TeamNet (ICDCS 2019) reproduction. The paper's original implementation
//! runs on TensorFlow; this crate provides the equivalent primitives from
//! scratch so the entire system is self-contained Rust.
//!
//! The crate is deliberately minimal: row-major contiguous storage, shapes
//! checked eagerly, no implicit broadcasting beyond the explicitly named
//! `*_row_broadcast` helpers, and all randomness injected through
//! caller-supplied [`rand::Rng`]s for reproducibility.
//!
//! # Examples
//!
//! ```
//! use teamnet_tensor::Tensor;
//!
//! // A batch of two logit rows → probabilities via softmax.
//! let logits = Tensor::from_vec(vec![2.0, 1.0, 0.1, 0.0, 0.0, 0.0], [2, 3])?;
//! let probs = logits.softmax_rows();
//! assert_eq!(probs.argmax_rows(), vec![0, 0]);
//! # Ok::<(), teamnet_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autograd;
pub mod conv;
mod error;
mod gemm;
mod init;
mod linalg;
mod memtrack;
mod ops;
pub mod pool;
mod shape;
mod tensor;

pub use autograd::{Gradients, Tape, Var};
pub use error::TensorError;
pub use gemm::{LANES as VECTOR_LANES, NR as TILE_NR};
pub use memtrack::{MemScope, MemStats};
pub use ops::{argmax_slice, softmax_in_place};
pub use pool::{force_sequential_scope, ParallelConfig};
pub use shape::Shape;
pub use tensor::Tensor;
