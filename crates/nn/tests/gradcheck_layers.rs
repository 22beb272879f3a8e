//! Finite-difference gradient checks for every layer in `duo-nn`.
//!
//! `gradcheck::check_input_gradient` compares each hand-derived backward
//! pass against central differences of `sum(layer(x))`. A silently wrong
//! gradient would not crash anything — it would just make SparseTransfer
//! quietly ineffective — so every layer type gets its own check here.
//!
//! Inputs for kinked layers (ReLU, max pooling) are offset away from the
//! non-differentiable points so finite differences are valid.

use duo_nn::{
    check_input_gradient, AvgPool3d, Conv3d, Flatten, GlobalAvgPool, InstanceNorm, L2Normalize,
    Layer, Linear, MaxPool3d, Relu, Residual, Sequential, TemporalStride,
};
use duo_tensor::{Conv3dSpec, Pool3dSpec, Rng64, Tensor};

const EPS: f32 = 1e-2;

fn assert_gradcheck(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
    let err = check_input_gradient(layer, x, EPS).unwrap();
    assert!(err < tol, "max relative gradient error {err} exceeds {tol}");
}

#[test]
fn conv3d_input_gradient() {
    let mut rng = Rng64::new(81);
    let mut layer = Conv3d::new(Conv3dSpec::cubic(2, 2, (1, 1, 1), 1), 3, &mut rng);
    let x = Tensor::randn(&[2, 3, 4, 4], 0.5, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 2e-2);
}

#[test]
fn conv3d_strided_input_gradient() {
    let mut rng = Rng64::new(82);
    let mut layer = Conv3d::new(Conv3dSpec::cubic(1, 3, (1, 2, 2), 1), 2, &mut rng);
    let x = Tensor::randn(&[1, 3, 7, 7], 0.5, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 2e-2);
}

#[test]
fn linear_input_gradient() {
    let mut rng = Rng64::new(83);
    let mut layer = Linear::new(6, 4, &mut rng);
    let x = Tensor::randn(&[6], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-2);
}

#[test]
fn flatten_input_gradient() {
    let mut rng = Rng64::new(84);
    let mut layer = Flatten::new();
    let x = Tensor::randn(&[2, 3, 2], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-4);
}

#[test]
fn relu_input_gradient_away_from_kink() {
    let mut rng = Rng64::new(85);
    let mut layer = Relu::new();
    // Magnitudes well above EPS on both sides of zero.
    let x = Tensor::rand_uniform(&[24], 0.5, 2.0, rng.as_rng())
        .map(|v| if v > 1.25 { v } else { -v });
    assert_gradcheck(&mut layer, &x, 1e-3);
}

#[test]
fn max_pool3d_input_gradient() {
    let mut rng = Rng64::new(86);
    let mut layer = MaxPool3d::new(Pool3dSpec::spatial(2));
    // Well-separated values keep the argmax stable under the EPS probes.
    let mut x = Tensor::zeros(&[1, 2, 4, 4]);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = (i as f32) * 0.37 + rng.uniform() * 0.05;
    }
    assert_gradcheck(&mut layer, &x, 1e-3);
}

#[test]
fn avg_pool3d_input_gradient() {
    let mut rng = Rng64::new(87);
    let mut layer = AvgPool3d::new(Pool3dSpec::cubic(2));
    let x = Tensor::randn(&[2, 4, 4, 4], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-3);
}

#[test]
fn instance_norm_input_gradient() {
    let mut rng = Rng64::new(88);
    let mut layer = InstanceNorm::new(2);
    let x = Tensor::randn(&[2, 3, 3], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 2e-2);
}

#[test]
fn global_avg_pool_input_gradient() {
    let mut rng = Rng64::new(90);
    let mut layer = GlobalAvgPool::new();
    let x = Tensor::randn(&[3, 2, 2, 2], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-3);
}

#[test]
fn l2_normalize_input_gradient() {
    let mut rng = Rng64::new(91);
    let mut layer = L2Normalize::new();
    let x = Tensor::randn(&[8], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-2);
}

#[test]
fn temporal_stride_input_gradient() {
    let mut rng = Rng64::new(92);
    let mut layer = TemporalStride::new(2);
    let x = Tensor::randn(&[2, 4, 3, 3], 1.0, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 1e-4);
}

#[test]
fn residual_identity_input_gradient() {
    let mut rng = Rng64::new(93);
    let main = Sequential::new(vec![
        Box::new(InstanceNorm::new(2)) as Box<dyn Layer>,
        Box::new(Conv3d::new(Conv3dSpec::cubic(2, 1, (1, 1, 1), 0), 2, &mut rng)),
    ]);
    let mut layer = Residual::identity(main);
    let x = Tensor::randn(&[2, 3, 3, 3], 0.5, rng.as_rng());
    assert_gradcheck(&mut layer, &x, 2e-2);
}

#[test]
fn sequential_stack_input_gradient() {
    let mut rng = Rng64::new(94);
    let mut net = Sequential::new(vec![
        Box::new(Conv3d::new(Conv3dSpec::cubic(1, 2, (1, 2, 2), 0), 4, &mut rng))
            as Box<dyn Layer>,
        Box::new(InstanceNorm::new(4)),
        Box::new(Relu::new()),
        Box::new(MaxPool3d::new(Pool3dSpec::spatial(2))),
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::new(4, 2, &mut rng)),
    ]);
    // Offset the input away from ReLU/max kinks so finite differences
    // are valid.
    let x = Tensor::rand_uniform(&[1, 3, 9, 9], 0.5, 2.0, rng.as_rng());
    assert_gradcheck(&mut net, &x, 5e-2);
}
