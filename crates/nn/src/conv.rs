use crate::{Layer, NnError, Param, Result};
use duo_tensor::{
    col2im3d, gemm_packed, im2col3d, im2col3d_into, matmul_into, Conv3dSpec, PackedA, Rng64,
    Tensor,
};

/// 3-D convolution over `[C, T, H, W]` inputs.
///
/// A `Conv3d` with `kt = 1` and `st = 1` degenerates to a per-frame 2-D
/// convolution, which is how the per-frame ResNet backbones in
/// `duo-models` are expressed without a separate 2-D code path.
///
/// Forward lowers to `W · im2col(x)`; backward uses the transpose of the
/// same lowering (`col2im(Wᵀ · g)`), so the correctness of both reduces to
/// the adjoint identity tested in `duo-tensor`.
pub struct Conv3d {
    weight: Param,
    bias: Param,
    spec: Conv3dSpec,
    out_channels: usize,
    cache: Option<ConvCache>,
}

struct ConvCache {
    cols: Tensor,
    in_dims: Vec<usize>,
    out_thw: (usize, usize, usize),
}

impl Conv3d {
    /// Creates a 3-D convolution with He-normal weight init and zero bias.
    pub fn new(spec: Conv3dSpec, out_channels: usize, rng: &mut Rng64) -> Self {
        let fan_in = (spec.in_channels * spec.kt * spec.kh * spec.kw) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Param::new(Tensor::randn(
            &[out_channels, spec.in_channels, spec.kt, spec.kh, spec.kw],
            std,
            rng.as_rng(),
        ));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv3d { weight, bias, spec, out_channels, cache: None }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv3dSpec {
        &self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The lowered forward pass. Returns the output plus the `im2col`
    /// buffer and geometry so the training path can cache them; the
    /// inference path drops them on the floor.
    fn run_forward(
        &self,
        input: &Tensor,
    ) -> Result<(Tensor, Tensor, (usize, usize, usize))> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!("needs rank-4 [C,T,H,W], got {:?}", input.dims()),
            });
        }
        let (t, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
        let out_thw = self.spec.output_thw(t, h, w)?;
        let cols = im2col3d(input, &self.spec)?;
        let k = self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw;
        let wm = self.weight.value.reshape(&[self.out_channels, k])?;
        let positions = out_thw.0 * out_thw.1 * out_thw.2;
        let mut out = Tensor::zeros(&[self.out_channels, positions]);
        matmul_into(&wm, &cols, &mut out)?;
        // Add per-channel bias.
        let bv = self.bias.value.as_slice().to_vec();
        let ov = out.as_mut_slice();
        for (o, &b) in bv.iter().enumerate() {
            for x in &mut ov[o * positions..(o + 1) * positions] {
                *x += b;
            }
        }
        let out = out.reshape(&[self.out_channels, out_thw.0, out_thw.1, out_thw.2])?;
        Ok((out, cols, out_thw))
    }
}

impl std::fmt::Debug for Conv3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv3d")
            .field("in", &self.spec.in_channels)
            .field("out", &self.out_channels)
            .field("kernel", &(self.spec.kt, self.spec.kh, self.spec.kw))
            .field("stride", &(self.spec.st, self.spec.sh, self.spec.sw))
            .finish()
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (out, cols, out_thw) = self.run_forward(input)?;
        self.cache = Some(ConvCache { cols, in_dims: input.dims().to_vec(), out_thw });
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let (out, _cols, _out_thw) = self.run_forward(input)?;
        Ok(out)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        // The per-call setup — reshaping the weight to a matrix (a full
        // copy of the weight data) and allocating the im2col buffer (the
        // largest allocation in the whole forward pass) — is identical
        // for every same-shaped input, so hoist it out of the loop. The
        // per-item arithmetic and its order are unchanged, keeping each
        // output bit-identical to `infer`.
        let Some((first, _)) = inputs.split_first() else {
            return Ok(Vec::new());
        };
        if inputs.iter().any(|x| x.dims() != first.dims()) {
            return inputs.iter().map(|x| self.infer(x)).collect();
        }
        if first.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!("needs rank-4 [C,T,H,W], got {:?}", first.dims()),
            });
        }
        let (t, h, w) = (first.dims()[1], first.dims()[2], first.dims()[3]);
        let out_thw = self.spec.output_thw(t, h, w)?;
        let positions = out_thw.0 * out_thw.1 * out_thw.2;
        let k = self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw;
        let wm = self.weight.value.reshape(&[self.out_channels, k])?;
        // The weight matrix is the left GEMM operand of every item, so
        // pack it once and reuse the packed blocks across the whole batch
        // instead of re-packing per item.
        let packed_w = PackedA::pack(&wm)?;
        let bv = self.bias.value.as_slice().to_vec();
        let mut cols = Tensor::zeros(&[k, positions]);
        let mut outs = Vec::with_capacity(inputs.len());
        for input in inputs {
            im2col3d_into(input, &self.spec, &mut cols)?;
            let mut out = Tensor::zeros(&[self.out_channels, positions]);
            gemm_packed(&packed_w, &cols, &mut out)?;
            let ov = out.as_mut_slice();
            for (o, &b) in bv.iter().enumerate() {
                for x in &mut ov[o * positions..(o + 1) * positions] {
                    *x += b;
                }
            }
            let dims = [self.out_channels, out_thw.0, out_thw.1, out_thw.2];
            outs.push(Tensor::from_vec(out.into_vec(), &dims)?);
        }
        Ok(outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "Conv3d" })?;
        let (ot, oh, ow) = cache.out_thw;
        let positions = ot * oh * ow;
        if grad_out.dims() != [self.out_channels, ot, oh, ow] {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!(
                    "grad dims {:?} != expected [{},{ot},{oh},{ow}]",
                    grad_out.dims(),
                    self.out_channels
                ),
            });
        }
        let g = grad_out.reshape(&[self.out_channels, positions])?;
        let k = self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw;

        // Parameter gradients: dW = g · colsᵀ, db = row sums of g.
        let cols_t = cache.cols.transpose()?;
        let mut wgrad = Tensor::zeros(&[self.out_channels, k]);
        matmul_into(&g, &cols_t, &mut wgrad)?;
        self.weight.grad.axpy(1.0, &wgrad.reshape(self.weight.value.dims())?)?;
        let gv = g.as_slice();
        let bg = self.bias.grad.as_mut_slice();
        for o in 0..self.out_channels {
            bg[o] += gv[o * positions..(o + 1) * positions].iter().sum::<f32>();
        }

        // Input gradient: col2im(Wᵀ · g).
        let wm = self.weight.value.reshape(&[self.out_channels, k])?;
        let wt = wm.transpose()?;
        let mut gcols = Tensor::zeros(&[k, positions]);
        matmul_into(&wt, &g, &mut gcols)?;
        let (t, h, w) = (cache.in_dims[1], cache.in_dims[2], cache.in_dims[3]);
        Ok(col2im3d(&gcols, &self.spec, t, h, w)?)
    }

    fn name(&self) -> &'static str {
        "Conv3d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Conv3d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            spec: self.spec,
            out_channels: self.out_channels,
            cache: None,
        })
    }
}

impl crate::Parameterized for Conv3d {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_matches_spec() {
        let mut rng = Rng64::new(41);
        let spec = Conv3dSpec::cubic(3, 3, (1, 2, 2), 1);
        let mut conv = Conv3d::new(spec, 8, &mut rng);
        let x = Tensor::randn(&[3, 4, 8, 8], 1.0, rng.as_rng());
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[8, 4, 4, 4]);
    }

    #[test]
    fn kt1_behaves_per_frame() {
        // A kt=1 convolution must treat frames independently: permuting
        // frames of the input permutes frames of the output identically.
        let mut rng = Rng64::new(42);
        let spec = Conv3dSpec { in_channels: 1, kt: 1, kh: 3, kw: 3, st: 1, sh: 1, sw: 1, pt: 0, ph: 1, pw: 1 };
        let mut conv = Conv3d::new(spec, 2, &mut rng);
        let f0 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let f1 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let mut both = Tensor::zeros(&[1, 2, 4, 4]);
        both.as_mut_slice()[..16].copy_from_slice(f0.as_slice());
        both.as_mut_slice()[16..].copy_from_slice(f1.as_slice());
        let y_both = conv.forward(&both).unwrap();
        let y0 = conv.forward(&f0).unwrap();
        let y1 = conv.forward(&f1).unwrap();
        for ch in 0..2 {
            for (i, (&a, &b)) in y0.as_slice()[ch * 16..(ch + 1) * 16]
                .iter()
                .zip(&y_both.as_slice()[ch * 32..ch * 32 + 16])
                .enumerate()
            {
                assert!((a - b).abs() < 1e-5, "frame0 ch{ch} pos{i}: {a} vs {b}");
            }
            for (i, (&a, &b)) in y1.as_slice()[ch * 16..(ch + 1) * 16]
                .iter()
                .zip(&y_both.as_slice()[ch * 32 + 16..(ch + 1) * 32])
                .enumerate()
            {
                assert!((a - b).abs() < 1e-5, "frame1 ch{ch} pos{i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bias_shifts_all_positions() {
        let mut rng = Rng64::new(43);
        let spec = Conv3dSpec::cubic(1, 1, (1, 1, 1), 0);
        let mut conv = Conv3d::new(spec, 1, &mut rng);
        conv.weight.value = Tensor::zeros(&[1, 1, 1, 1, 1]);
        conv.bias.value = Tensor::from_vec(vec![2.5], &[1]).unwrap();
        let y = conv.forward(&Tensor::zeros(&[1, 2, 2, 2])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng64::new(44);
        let mut conv = Conv3d::new(Conv3dSpec::cubic(1, 1, (1, 1, 1), 0), 1, &mut rng);
        assert!(conv.backward(&Tensor::ones(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(45);
        let spec = Conv3dSpec::cubic(2, 2, (1, 1, 1), 0);
        let mut conv = Conv3d::new(spec, 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 4, 4], 0.5, rng.as_rng());
        // Scalar loss: sum of outputs.
        let y = conv.forward(&x).unwrap();
        let gx = conv.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2;
        for &probe in &[0usize, 7, 31, 95] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let yp = conv.forward(&xp).unwrap();
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let ym = conv.forward(&xm).unwrap();
            let num = (yp.sum() - ym.sum()) / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }
}
