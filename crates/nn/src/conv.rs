use crate::{Layer, NnError, Param, Result, Tape};
use duo_tensor::{col2im3d, gemm, gemm_packed, im2col3d_into, Conv3dSpec, PackedA, Rng64, Tensor};

/// 3-D convolution over `[C, T, H, W]` inputs.
///
/// A `Conv3d` with `kt = 1` and `st = 1` degenerates to a per-frame 2-D
/// convolution, which is how the per-frame ResNet backbones in
/// `duo-models` are expressed without a separate 2-D code path.
///
/// Forward lowers to `W · im2col(x)`; backward uses the transpose of the
/// same lowering (`col2im(Wᵀ · g)`), so the correctness of both reduces to
/// the adjoint identity tested in `duo-tensor`.
#[derive(Clone)]
pub struct Conv3d {
    weight: Param,
    bias: Param,
    spec: Conv3dSpec,
    out_channels: usize,
}

/// What the backward pass needs from one forward: the lowered input and
/// the input/output geometry.
struct ConvRecord {
    cols: Tensor,
    in_thw: (usize, usize, usize),
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
        Conv3d { weight, bias, spec, out_channels }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv3dSpec {
        &self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Im2col rows: the depth of the lowered GEMM.
    fn depth(&self) -> usize {
        self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw
    }

    /// The output `(t, h, w)` of a `[C, T, H, W]` input.
    fn out_thw(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!("needs rank-4 [C,T,H,W], got {:?}", input.dims()),
            });
        }
        let (t, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
        Ok(self.spec.output_thw(t, h, w)?)
    }

    /// The weight as the packed left operand of the lowered GEMM.
    fn packed_weight(&self) -> Result<PackedA> {
        Ok(PackedA::pack(&self.weight.value.reshape(&[self.out_channels, self.depth()])?)?)
    }

    /// The one lowering every forward runs: `im2col` into `cols` (shaped
    /// `[depth, positions]` for `input`), the packed GEMM, then the
    /// per-output-row bias.
    fn lower(
        &self,
        input: &Tensor,
        packed_w: &PackedA,
        cols: &mut Tensor,
        out_thw: (usize, usize, usize),
    ) -> Result<Tensor> {
        im2col3d_into(input, &self.spec, cols)?;
        let positions = out_thw.0 * out_thw.1 * out_thw.2;
        let mut out = Tensor::zeros(&[self.out_channels, positions]);
        gemm_packed(packed_w, cols, &mut out)?;
        let ov = out.as_mut_slice();
        for (o, &b) in self.bias.value.as_slice().iter().enumerate() {
            for x in &mut ov[o * positions..(o + 1) * positions] {
                *x += b;
            }
        }
        let dims = [self.out_channels, out_thw.0, out_thw.1, out_thw.2];
        Ok(Tensor::from_vec(out.into_vec(), &dims)?)
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
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        let out_thw = self.out_thw(input)?;
        let mut cols = Tensor::zeros(&[self.depth(), out_thw.0 * out_thw.1 * out_thw.2]);
        let out = self.lower(input, &self.packed_weight()?, &mut cols, out_thw)?;
        if let Some(tape) = tape {
            let in_thw = (input.dims()[1], input.dims()[2], input.dims()[3]);
            tape.push(ConvRecord { cols, in_thw, out_thw });
        }
        Ok(out)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        // Packing the weight and allocating the im2col buffer (the largest
        // allocation in the whole forward pass) are identical for every
        // same-shaped input, so do them once per batch; each item then
        // runs the same `lower` as `forward`.
        let Some((first, _)) = inputs.split_first() else {
            return Ok(Vec::new());
        };
        if inputs.iter().any(|x| x.dims() != first.dims()) {
            return inputs.iter().map(|x| self.infer(x)).collect();
        }
        let out_thw = self.out_thw(first)?;
        let packed_w = self.packed_weight()?;
        let mut cols = Tensor::zeros(&[self.depth(), out_thw.0 * out_thw.1 * out_thw.2]);
        inputs.iter().map(|x| self.lower(x, &packed_w, &mut cols, out_thw)).collect()
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let rec: &ConvRecord = tape.pop("Conv3d")?;
        let (ot, oh, ow) = rec.out_thw;
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
        let k = self.depth();

        // Parameter gradients: dW = g · colsᵀ, db = row sums of g.
        let cols_t = rec.cols.transpose()?;
        let mut wgrad = Tensor::zeros(&[self.out_channels, k]);
        gemm(&g, &cols_t, &mut wgrad)?;
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
        gemm(&wt, &g, &mut gcols)?;
        let (t, h, w) = rec.in_thw;
        Ok(col2im3d(&gcols, &self.spec, t, h, w)?)
    }

    fn name(&self) -> &'static str {
        "Conv3d"
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
        let conv = Conv3d::new(spec, 8, &mut rng);
        let x = Tensor::randn(&[3, 4, 8, 8], 1.0, rng.as_rng());
        let y = conv.infer(&x).unwrap();
        assert_eq!(y.dims(), &[8, 4, 4, 4]);
    }

    #[test]
    fn kt1_behaves_per_frame() {
        // A kt=1 convolution must treat frames independently: permuting
        // frames of the input permutes frames of the output identically.
        let mut rng = Rng64::new(42);
        let spec = Conv3dSpec { in_channels: 1, kt: 1, kh: 3, kw: 3, st: 1, sh: 1, sw: 1, pt: 0, ph: 1, pw: 1 };
        let conv = Conv3d::new(spec, 2, &mut rng);
        let f0 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let f1 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let mut both = Tensor::zeros(&[1, 2, 4, 4]);
        both.as_mut_slice()[..16].copy_from_slice(f0.as_slice());
        both.as_mut_slice()[16..].copy_from_slice(f1.as_slice());
        let y_both = conv.infer(&both).unwrap();
        let y0 = conv.infer(&f0).unwrap();
        let y1 = conv.infer(&f1).unwrap();
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
        let y = conv.infer(&Tensor::zeros(&[1, 2, 2, 2])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng64::new(44);
        let mut conv = Conv3d::new(Conv3dSpec::cubic(1, 1, (1, 1, 1), 0), 1, &mut rng);
        conv.infer(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert!(conv.backward(&mut Tape::new(), &Tensor::ones(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(45);
        let spec = Conv3dSpec::cubic(2, 2, (1, 1, 1), 0);
        let mut conv = Conv3d::new(spec, 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 4, 4], 0.5, rng.as_rng());
        // Scalar loss: sum of outputs.
        let mut tape = Tape::new();
        let y = conv.forward(&x, Some(&mut tape)).unwrap();
        let gx = conv.backward(&mut tape, &Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2;
        for &probe in &[0usize, 7, 31, 95] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let yp = conv.infer(&xp).unwrap();
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let ym = conv.infer(&xm).unwrap();
            let num = (yp.sum() - ym.sum()) / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }
}
