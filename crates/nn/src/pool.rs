use crate::{Layer, Result, Tape};
use duo_tensor::{avg_pool3d, avg_pool3d_backward, max_pool3d, max_pool3d_backward, Pool3dSpec, Tensor};

/// Max-pooling layer over `[C, T, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct MaxPool3d {
    spec: Pool3dSpec,
}

impl MaxPool3d {
    /// Creates a max-pooling layer with the given window geometry.
    pub fn new(spec: Pool3dSpec) -> Self {
        MaxPool3d { spec }
    }
}

impl Layer for MaxPool3d {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        let (out, argmax) = max_pool3d(input, &self.spec)?;
        if let Some(tape) = tape {
            tape.push((input.dims().to_vec(), argmax));
        }
        Ok(out)
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let (in_dims, argmax): &(Vec<usize>, Vec<usize>) = tape.pop("MaxPool3d")?;
        Ok(max_pool3d_backward(grad_out, argmax, in_dims)?)
    }

    fn name(&self) -> &'static str {
        "MaxPool3d"
    }
}

/// Average-pooling layer over `[C, T, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct AvgPool3d {
    spec: Pool3dSpec,
}

impl AvgPool3d {
    /// Creates an average-pooling layer with the given window geometry.
    pub fn new(spec: Pool3dSpec) -> Self {
        AvgPool3d { spec }
    }
}

impl Layer for AvgPool3d {
    fn forward(&self, input: &Tensor, tape: Option<&mut Tape>) -> Result<Tensor> {
        let out = avg_pool3d(input, &self.spec)?;
        if let Some(tape) = tape {
            tape.push(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> Result<Tensor> {
        let in_dims: &Vec<usize> = tape.pop("AvgPool3d")?;
        Ok(avg_pool3d_backward(grad_out, &self.spec, in_dims)?)
    }

    fn name(&self) -> &'static str {
        "AvgPool3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_tensor::Rng64;

    #[test]
    fn max_pool_layer_round_trip() {
        let mut layer = MaxPool3d::new(Pool3dSpec::spatial(2));
        let mut tape = Tape::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = layer.forward(&x, Some(&mut tape)).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let g = layer.backward(&mut tape, &Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap()).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avg_pool_layer_distributes_gradient() {
        let mut layer = AvgPool3d::new(Pool3dSpec::spatial(2));
        let mut tape = Tape::new();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        layer.forward(&x, Some(&mut tape)).unwrap();
        let g = layer.backward(&mut tape, &Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap()).unwrap();
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut mp = MaxPool3d::new(Pool3dSpec::cubic(2));
        assert!(mp.backward(&mut Tape::new(), &Tensor::ones(&[1, 1, 1, 1])).is_err());
        let mut ap = AvgPool3d::new(Pool3dSpec::cubic(2));
        assert!(ap.backward(&mut Tape::new(), &Tensor::ones(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn pooled_values_bounded_by_input_extremes() {
        let mut rng = Rng64::new(51);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, rng.as_rng());
        let mp = MaxPool3d::new(Pool3dSpec::spatial(2));
        let y = mp.infer(&x).unwrap();
        assert!(y.max() <= x.max() && y.min() >= x.min());
        let ap = AvgPool3d::new(Pool3dSpec::spatial(2));
        let z = ap.infer(&x).unwrap();
        assert!(z.max() <= x.max() + 1e-6 && z.min() >= x.min() - 1e-6);
    }
}

crate::param_free!(MaxPool3d, AvgPool3d);
