use crate::{NnError, Param, Result, Tape};
use duo_tensor::Tensor;

/// Anything that owns trainable parameters.
///
/// Optimizers step over `Parameterized` values, which lets composite
/// training targets (e.g. a backbone plus a metric-loss head with class
/// prototypes) be stepped jointly even when the composite itself is not a
/// [`Layer`]. Every `Layer` is `Parameterized` via a blanket impl.
pub trait Parameterized {
    /// Visits every trainable parameter in a deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradient accumulators.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Implements an empty [`Parameterized`] for layers without parameters.
#[macro_export]
macro_rules! param_free {
    ($($ty:ty),+ $(,)?) => {
        $(impl $crate::Parameterized for $ty {
            fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut $crate::Param)) {}
        })+
    };
}

/// A differentiable computation node with one forward program.
///
/// [`Layer::forward`] is the layer's only computation. Given a [`Tape`],
/// it also pushes exactly the record its [`Layer::backward`] needs; given
/// none, it is the evaluation-mode forward the serving path runs. Both
/// runs execute the same float program, so inference and training see the
/// same bits by construction. `backward` pops that record, *returns the
/// input gradient* and *accumulates parameter gradients* into each
/// [`Param::grad`]. This is what lets the attack crates differentiate a
/// whole backbone down to video pixels (for SparseTransfer) with the code
/// that also serves and trains it.
///
/// `forward` takes `&self` and the trait requires `Send + Sync`, so a
/// built network can be shared across threads: the serving layer runs one
/// model under concurrent query load, and every training caller owns the
/// tape of its own pass.
///
/// `backward` must return an error, not panic, when the tape holds no
/// matching record, and layers must not override [`Layer::infer`].
pub trait Layer: Parameterized + CloneLayer + Send + Sync {
    /// Computes the layer output for `input`, pushing the backward record
    /// onto `tape` when one is given.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor>;

    /// Evaluation-mode forward: [`Layer::forward`] without a tape.
    ///
    /// # Errors
    ///
    /// Same as [`Layer::forward`].
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, None)
    }

    /// Computes the layer output for a *batch* of inputs in evaluation
    /// mode. Bit-identical to calling [`Layer::infer`] on each input in
    /// order — the default does exactly that — but layers with expensive
    /// per-call setup (im2col workspaces, weight packing) override it to
    /// amortize that work across the batch while each item runs the same
    /// per-item function `forward` runs. This is the batched forward entry
    /// point the serving layer's micro-batcher drives.
    ///
    /// # Errors
    ///
    /// Returns the first per-input error, exactly as `infer` would.
    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        inputs.iter().map(|x| self.infer(x)).collect()
    }

    /// Propagates `grad_out` back through the layer, popping its forward
    /// record from `tape`, returning the gradient with respect to the
    /// input and accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if the tape holds no
    /// matching record, or a shape error if `grad_out` does not match the
    /// recorded output.
    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor>;

    /// Short human-readable layer name used in error messages.
    fn name(&self) -> &'static str;
}

/// Clones a layer — parameters and configuration — behind a fresh box.
///
/// Implemented for every `Layer + Clone`. Layers hold no forward state
/// (records live on the caller's [`Tape`]), so two clones can run
/// training-path gradient sequences concurrently without sharing
/// anything. This is what lets each attack client in a campaign own its
/// own surrogate copied from one stolen backbone.
pub trait CloneLayer {
    /// Clones the layer behind a fresh box.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> CloneLayer for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

/// A chain of layers applied in order.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer to the end of the chain.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of contained layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Layer for Sequential {
    fn forward(&self, input: &Tensor, mut tape: Option<&mut Tape>) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x, tape.as_deref_mut())?;
        }
        Ok(x)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        // Feed the whole batch through layer by layer so each layer's
        // batched override amortizes its setup once per layer, not once
        // per item. The first layer consumes `inputs` directly, so the
        // batch of (large) input clips is never cloned.
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(inputs.to_vec());
        };
        let mut batch = first.infer_batch(inputs)?;
        for layer in rest {
            batch = layer.infer_batch(&batch)?;
        }
        Ok(batch)
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(tape, &g)?;
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

impl Parameterized for Sequential {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

param_free!(Relu, GlobalAvgPool, L2Normalize, TemporalStride);

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

/// Rectified linear activation, `max(x, 0)` elementwise.
#[derive(Debug, Default, Clone)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        if let Some(tape) = tape {
            tape.push(input.as_slice().iter().map(|&x| x > 0.0).collect::<Vec<bool>>());
        }
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let mask: &Vec<bool> = tape.pop("Relu")?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Relu",
                reason: format!("grad length {} != recorded {}", grad_out.len(), mask.len()),
            });
        }
        let mut g = grad_out.clone();
        for (x, &keep) in g.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *x = 0.0;
            }
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

// ---------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------

/// Global average pooling: `[C, …]` → `[C]`, averaging over all trailing
/// dimensions.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool",
                reason: format!("needs rank >= 2, got {}", input.rank()),
            });
        }
        let c = input.dims()[0];
        let per: usize = input.dims()[1..].iter().product();
        let mut out = Tensor::zeros(&[c]);
        let iv = input.as_slice();
        for ch in 0..c {
            let s: f32 = iv[ch * per..(ch + 1) * per].iter().sum();
            out.as_mut_slice()[ch] = s / per as f32;
        }
        if let Some(tape) = tape {
            tape.push(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let dims: &Vec<usize> = tape.pop("GlobalAvgPool")?;
        let c = dims[0];
        let per: usize = dims[1..].iter().product();
        if grad_out.len() != c {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool",
                reason: format!("grad length {} != channels {}", grad_out.len(), c),
            });
        }
        let mut g = Tensor::zeros(dims);
        let gv = g.as_mut_slice();
        for ch in 0..c {
            let val = grad_out.as_slice()[ch] / per as f32;
            gv[ch * per..(ch + 1) * per].fill(val);
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

// ---------------------------------------------------------------------
// L2Normalize
// ---------------------------------------------------------------------

/// Projects a feature vector onto the unit sphere: `x / max(‖x‖₂, ε)`.
///
/// Metric-learning heads in the DUO models normalize embeddings so that
/// the losses (ArcFace especially) operate on angles.
#[derive(Debug, Clone)]
pub struct L2Normalize {
    eps: f32,
}

impl L2Normalize {
    /// Creates a normalization layer with the default ε of `1e-8`.
    pub fn new() -> Self {
        L2Normalize { eps: 1e-8 }
    }
}

impl Default for L2Normalize {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for L2Normalize {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        let norm = input.l2_norm().max(self.eps);
        if let Some(tape) = tape {
            tape.push((input.clone(), norm));
        }
        Ok(input.scale(1.0 / norm))
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let (x, norm): &(Tensor, f32) = tape.pop("L2Normalize")?;
        // d(x/‖x‖)/dx = I/‖x‖ − x xᵀ/‖x‖³
        let dot = x.dot(grad_out)?;
        let mut g = grad_out.scale(1.0 / norm);
        g.axpy(-dot / (norm * norm * norm), x)?;
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "L2Normalize"
    }
}

// ---------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------

/// A residual block: `output = main(x) + shortcut(x)`, with an identity
/// shortcut when none is given.
///
/// The shortcut path (usually a strided 1×1×1 convolution) must produce the
/// same shape as the main path.
#[derive(Clone)]
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn identity(main: Sequential) -> Self {
        Residual { main, shortcut: None }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut: Some(shortcut) }
    }
}

/// The residual sum both the single and the batched forward end with.
fn residual_sum(main_out: &Tensor, skip: &Tensor) -> Result<Tensor> {
    main_out.add(skip).map_err(|e| NnError::BadInput {
        layer: "Residual",
        reason: format!("main/shortcut shape mismatch: {e}"),
    })
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("main", &self.main)
            .field("has_shortcut", &self.shortcut.is_some())
            .finish()
    }
}

impl Layer for Residual {
    fn forward(&self, input: &Tensor, mut tape: Option<&mut Tape>) -> Result<Tensor> {
        let main_out = self.main.forward(input, tape.as_deref_mut())?;
        let skip = match &self.shortcut {
            Some(s) => s.forward(input, tape)?,
            None => input.clone(),
        };
        residual_sum(&main_out, &skip)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let main_outs = self.main.infer_batch(inputs)?;
        let skips = match &self.shortcut {
            Some(s) => s.infer_batch(inputs)?,
            None => inputs.to_vec(),
        };
        main_outs.iter().zip(&skips).map(|(m, s)| residual_sum(m, s)).collect()
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        // The shortcut recorded last, so it pops first; the sum keeps the
        // `main + shortcut` order of the forward pass.
        let g_skip = match &mut self.shortcut {
            Some(s) => Some(s.backward(tape, grad_out)?),
            None => None,
        };
        let g_main = self.main.backward(tape, grad_out)?;
        Ok(g_main.add(g_skip.as_ref().unwrap_or(grad_out))?)
    }

    fn name(&self) -> &'static str {
        "Residual"
    }
}

impl Parameterized for Residual {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(visitor);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(visitor);
        }
    }
}

// ---------------------------------------------------------------------
// TemporalStride
// ---------------------------------------------------------------------

/// Subsamples a `[C, T, H, W]` clip along time, keeping every `stride`-th
/// frame. Used by the SlowFast backbone's slow pathway.
#[derive(Debug, Clone)]
pub struct TemporalStride {
    stride: usize,
}

impl TemporalStride {
    /// Creates a temporal subsampling layer.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "TemporalStride requires stride > 0");
        TemporalStride { stride }
    }
}

impl Layer for TemporalStride {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "TemporalStride",
                reason: format!("needs rank-4 [C,T,H,W], got rank {}", input.rank()),
            });
        }
        let (c, t, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
        let ot = t.div_ceil(self.stride);
        let mut out = Tensor::zeros(&[c, ot, h, w]);
        let iv = input.as_slice();
        let ov = out.as_mut_slice();
        let frame = h * w;
        for ch in 0..c {
            for (oz, z) in (0..t).step_by(self.stride).enumerate() {
                let src = (ch * t + z) * frame;
                let dst = (ch * ot + oz) * frame;
                ov[dst..dst + frame].copy_from_slice(&iv[src..src + frame]);
            }
        }
        if let Some(tape) = tape {
            tape.push(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let dims: &Vec<usize> = tape.pop("TemporalStride")?;
        let (c, t, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let ot = t.div_ceil(self.stride);
        if grad_out.dims() != [c, ot, h, w] {
            return Err(NnError::BadInput {
                layer: "TemporalStride",
                reason: format!("grad dims {:?} != expected [{c},{ot},{h},{w}]", grad_out.dims()),
            });
        }
        let mut g = Tensor::zeros(dims);
        let gv = g.as_mut_slice();
        let ov = grad_out.as_slice();
        let frame = h * w;
        for ch in 0..c {
            for (oz, z) in (0..t).step_by(self.stride).enumerate() {
                let dst = (ch * t + z) * frame;
                let src = (ch * ot + oz) * frame;
                gv[dst..dst + frame].copy_from_slice(&ov[src..src + frame]);
            }
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "TemporalStride"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use duo_tensor::Rng64;

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap();
        let y = relu.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&mut tape, &Tensor::ones(&[4])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        assert!(tape.is_empty(), "backward consumes exactly the forward's record");
    }

    #[test]
    fn relu_backward_without_forward_errors() {
        let mut relu = Relu::new();
        let mut tape = Tape::new();
        relu.forward(&Tensor::ones(&[1]), None).unwrap();
        assert!(matches!(
            relu.backward(&mut tape, &Tensor::ones(&[1])),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn global_avg_pool_reduces_trailing_dims() {
        let mut gap = GlobalAvgPool::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 10.0, 20.0], &[2, 2]).unwrap();
        let y = gap.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 15.0]);
        let g = gap.backward(&mut tape, &Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap()).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn l2_normalize_produces_unit_vectors() {
        let l2 = L2Normalize::new();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let y = l2.infer(&x).unwrap();
        assert!((y.l2_norm() - 1.0).abs() < 1e-6);
        assert!((y.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_gradient_is_tangent() {
        // The gradient through normalization must be orthogonal to the
        // normalized output when grad_out == output (norm is constant on rays).
        let mut l2 = L2Normalize::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let y = l2.forward(&x, Some(&mut tape)).unwrap();
        let g = l2.backward(&mut tape, &y).unwrap();
        assert!(g.l2_norm() < 1e-6, "gradient along the ray must vanish, got {g}");
    }

    #[test]
    fn sequential_composes_and_reverses() {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, &mut rng)),
        ]);
        let mut tape = Tape::new();
        let x = Tensor::ones(&[3]);
        let y = net.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.dims(), &[2]);
        assert_eq!(tape.len(), 3, "one record per leaf layer");
        let gx = net.backward(&mut tape, &Tensor::ones(&[2])).unwrap();
        assert_eq!(gx.dims(), &[3]);
        assert!(tape.is_empty());
        assert!(net.param_count() > 0);
    }

    #[test]
    fn residual_identity_adds_input() {
        let main = Sequential::new(vec![Box::new(Relu::new()) as Box<dyn Layer>]);
        let mut res = Residual::identity(main);
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap();
        let y = res.forward(&x, Some(&mut tape)).unwrap();
        // relu(-2) + (-2) = -2 ; relu(3) + 3 = 6
        assert_eq!(y.as_slice(), &[-2.0, 6.0]);
        let g = res.backward(&mut tape, &Tensor::ones(&[2])).unwrap();
        // d/dx (relu(x)+x) = [0+1, 1+1]
        assert_eq!(g.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn residual_projection_pops_shortcut_then_main() {
        // Main and shortcut each record one Linear input; a backward that
        // popped them in the wrong order would see a wrong-length record.
        let mut rng = Rng64::new(3);
        let main = Sequential::new(vec![Box::new(Linear::new(2, 3, &mut rng)) as Box<dyn Layer>]);
        let shortcut =
            Sequential::new(vec![Box::new(Linear::new(2, 3, &mut rng)) as Box<dyn Layer>]);
        let mut res = Residual::with_shortcut(main, shortcut);
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![0.5, -1.5], &[2]).unwrap();
        let y = res.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.as_slice(), res.infer(&x).unwrap().as_slice());
        let g = res.backward(&mut tape, &Tensor::ones(&[3])).unwrap();
        assert_eq!(g.dims(), &[2]);
        assert!(tape.is_empty());
    }

    #[test]
    fn temporal_stride_keeps_every_kth_frame() {
        let mut ts = TemporalStride::new(2);
        let mut tape = Tape::new();
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 4, 1, 2]).unwrap();
        let y = ts.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.dims(), &[1, 2, 1, 2]);
        assert_eq!(y.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
        let g = ts.backward(&mut tape, &Tensor::ones(&[1, 2, 1, 2])).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_grad_clears_all_params() {
        let mut rng = Rng64::new(2);
        let mut net = Sequential::new(vec![Box::new(Linear::new(2, 2, &mut rng)) as Box<dyn Layer>]);
        let mut tape = Tape::new();
        let x = Tensor::ones(&[2]);
        net.forward(&x, Some(&mut tape)).unwrap();
        net.backward(&mut tape, &Tensor::ones(&[2])).unwrap();
        let mut nonzero = 0;
        net.visit_params(&mut |p| nonzero += p.grad.l0_norm());
        assert!(nonzero > 0);
        net.zero_grad();
        let mut after = 0;
        net.visit_params(&mut |p| after += p.grad.l0_norm());
        assert_eq!(after, 0);
    }
}
