use crate::{Layer, NnError, Param, Result};
use duo_tensor::{Rng64, Tensor};

/// Output rows [`Linear`] keeps in flight at once.
const ROWS: usize = 8;

/// Fully-connected layer: `y = W x + b` over rank-1 inputs.
///
/// Batches run per sample through the [`Layer::infer_batch`] default: the
/// interleaved per-sample kernel streams `W` once per clip, cheaper than
/// transposing it for a batched GEMM at serving batch sizes.
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with He-normal initialized weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Param::new(Tensor::randn(&[out_features, in_features], std, rng.as_rng()));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear { weight, bias, in_features, out_features, cache: None }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 1 || input.len() != self.in_features {
            return Err(NnError::BadInput {
                layer: "Linear",
                reason: format!(
                    "expected rank-1 input of length {}, got {:?}",
                    self.in_features,
                    input.dims()
                ),
            });
        }
        // Each output folds its products with fused multiply-add from 0.0
        // in increasing index order and adds the bias last. Eight rows run
        // interleaved so eight independent FMA chains hide each other's
        // latency; a row's own chain, and so its bits, does not change.
        let mut out = Tensor::zeros(&[self.out_features]);
        let nin = self.in_features;
        let wv = self.weight.value.as_slice();
        let bv = self.bias.value.as_slice();
        let xv = &input.as_slice()[..nin];
        let ov = out.as_mut_slice();
        let blocked = ov.len() / ROWS * ROWS;
        for (o, (outs, block)) in
            ov[..blocked].chunks_exact_mut(ROWS).zip(wv.chunks_exact(ROWS * nin)).enumerate()
        {
            let rows: [&[f32]; ROWS] = std::array::from_fn(|r| &block[r * nin..(r + 1) * nin]);
            let mut acc = [0.0f32; ROWS];
            for i in 0..nin {
                let x = xv[i];
                for r in 0..ROWS {
                    acc[r] = rows[r][i].mul_add(x, acc[r]);
                }
            }
            for ((y, a), b) in outs.iter_mut().zip(acc).zip(&bv[o * ROWS..]) {
                *y = a + b;
            }
        }
        for (o, y) in ov.iter_mut().enumerate().skip(blocked) {
            let row = &wv[o * nin..(o + 1) * nin];
            *y = row.iter().zip(xv).fold(0.0f32, |s, (w, &x)| w.mul_add(x, s)) + bv[o];
        }
        Ok(out)
    }
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linear")
            .field("in", &self.in_features)
            .field("out", &self.out_features)
            .finish()
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.compute(input)?;
        self.cache = Some(input.clone());
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.compute(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        if grad_out.len() != self.out_features {
            return Err(NnError::BadInput {
                layer: "Linear",
                reason: format!("grad length {} != out {}", grad_out.len(), self.out_features),
            });
        }
        let gv = grad_out.as_slice();
        let xv = x.as_slice();
        // dL/dW[o][i] += g[o] * x[i] ; dL/db[o] += g[o]
        let wg = self.weight.grad.as_mut_slice();
        for (o, &g) in gv.iter().enumerate() {
            let row = &mut wg[o * self.in_features..(o + 1) * self.in_features];
            for (wgi, &xi) in row.iter_mut().zip(xv) {
                *wgi += g * xi;
            }
        }
        self.bias.grad.axpy(1.0, grad_out)?;
        // dL/dx[i] = Σ_o g[o] * W[o][i]
        let wv = self.weight.value.as_slice();
        let mut gx = Tensor::zeros(&[self.in_features]);
        let gxv = gx.as_mut_slice();
        for (o, &g) in gv.iter().enumerate() {
            let row = &wv[o * self.in_features..(o + 1) * self.in_features];
            for (gxi, &w) in gxv.iter_mut().zip(row) {
                *gxi += g * w;
            }
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
            cache: None,
        })
    }
}

impl crate::Parameterized for Linear {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

crate::param_free!(Flatten);

/// Reshapes any input to a rank-1 vector (and restores the shape on the
/// way back).
#[derive(Debug, Default)]
pub struct Flatten {
    in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Flatten { in_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.in_dims = Some(input.dims().to_vec());
        Ok(input.reshape(&[input.len()])?)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.reshape(&[input.len()])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims =
            self.in_dims.as_ref().ok_or(NnError::MissingForwardCache { layer: "Flatten" })?;
        Ok(grad_out.reshape(dims)?)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_computes_wx_plus_b() {
        let mut rng = Rng64::new(3);
        let mut lin = Linear::new(2, 2, &mut rng);
        // Overwrite weights deterministically.
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let y = lin.forward(&Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap()).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_backward_accumulates_param_grads() {
        let mut rng = Rng64::new(4);
        let mut lin = Linear::new(2, 1, &mut rng);
        lin.weight.value = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]).unwrap();
        let x = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        lin.forward(&x).unwrap();
        let gx = lin.backward(&Tensor::from_vec(vec![2.0], &[1]).unwrap()).unwrap();
        assert_eq!(gx.as_slice(), &[4.0, -2.0]);
        assert_eq!(lin.weight.grad.as_slice(), &[6.0, 10.0]);
        assert_eq!(lin.bias.grad.as_slice(), &[2.0]);
        // Accumulation: a second backward doubles the gradients.
        lin.backward(&Tensor::from_vec(vec![2.0], &[1]).unwrap()).unwrap();
        assert_eq!(lin.weight.grad.as_slice(), &[12.0, 20.0]);
    }

    #[test]
    fn linear_infer_batch_is_bitwise_per_sample() {
        let mut rng = Rng64::new(6);
        let lin = Linear::new(13, 7, &mut rng);
        let inputs: Vec<Tensor> =
            (0..5).map(|_| Tensor::randn(&[13], 1.0, rng.as_rng())).collect();
        let batched = lin.infer_batch(&inputs).unwrap();
        for (x, y) in inputs.iter().zip(&batched) {
            let single = lin.infer(x).unwrap();
            assert_eq!(single.as_slice(), y.as_slice(), "batched path must not drift");
        }
    }

    #[test]
    fn linear_infer_batch_rejects_bad_item() {
        let mut rng = Rng64::new(7);
        let lin = Linear::new(3, 2, &mut rng);
        let inputs = vec![Tensor::ones(&[3]), Tensor::ones(&[4])];
        assert!(lin.infer_batch(&inputs).is_err());
    }

    #[test]
    fn linear_rejects_bad_input() {
        let mut rng = Rng64::new(5);
        let mut lin = Linear::new(3, 2, &mut rng);
        assert!(lin.forward(&Tensor::ones(&[4])).is_err());
        assert!(lin.forward(&Tensor::ones(&[3, 1])).is_err());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = fl.forward(&x).unwrap();
        assert_eq!(y.dims(), &[24]);
        let g = fl.backward(&Tensor::ones(&[24])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4]);
    }
}
