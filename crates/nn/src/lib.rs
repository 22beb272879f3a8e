//! Layer-based neural-network substrate with hand-written backpropagation.
//!
//! The DUO reproduction needs three capabilities from its "deep learning
//! framework": forward feature extraction, gradients with respect to the
//! *input* (SparseTransfer's perturbation updates differentiate through the
//! surrogate model down to the video pixels), and gradients with respect to
//! the *parameters* (training victim and surrogate models with metric
//! losses). This crate provides exactly that via a [`Layer`] trait with
//! one forward program per layer: run with a caller-owned [`Tape`], it
//! records what the hand-derived backward pass needs; run without one, it
//! is the inference path. Every backward is validated against finite
//! differences by the test suite.
//!
//! # Example
//!
//! ```
//! use duo_nn::{Layer, Linear, Relu, Sequential, Tape};
//! use duo_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::ones(&[4]);
//! let mut tape = Tape::new();
//! let y = net.forward(&x, Some(&mut tape))?;
//! assert_eq!(y.as_slice(), net.infer(&x)?.as_slice());
//! let grad_x = net.backward(&mut tape, &Tensor::ones(&[2]))?;
//! assert_eq!(grad_x.dims(), &[4]);
//! # Ok::<(), duo_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gradcheck;
mod layer;
mod linear;
mod norm;
mod optim;
mod param;
mod pool;
mod tape;

pub use conv::Conv3d;
pub use error::NnError;
pub use gradcheck::{check_input_gradient, numeric_input_gradient};
pub use layer::{
    CloneLayer, GlobalAvgPool, L2Normalize, Layer, Parameterized, Relu, Residual, Sequential,
    TemporalStride,
};
pub use linear::{Flatten, Linear};
pub use norm::InstanceNorm;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool3d, MaxPool3d};
pub use tape::Tape;

/// Convenient result alias used across the NN crate.
pub type Result<T> = std::result::Result<T, NnError>;
