use duo_tensor::TensorError;
use std::fmt;

/// Error type for neural-network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// `backward` found no matching forward record on its tape: no
    /// training forward ran, or its records were already consumed.
    MissingForwardCache {
        /// Name of the offending layer.
        layer: &'static str,
    },
    /// A layer received an input it cannot process.
    BadInput {
        /// Name of the offending layer.
        layer: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::MissingForwardCache { layer } => {
                write!(f, "backward called on `{layer}` before forward")
            }
            NnError::BadInput { layer, reason } => write!(f, "bad input to `{layer}`: {reason}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}
