use duo_nn::{Layer, NnError, Param, Parameterized, Result as NnResult, Sequential, Tape};
use duo_tensor::Tensor;

/// Runs several branches on the same input and concatenates their rank-1
/// outputs.
///
/// This is the fusion primitive behind the TPN (multi-rate temporal
/// pyramid) and SlowFast (slow + fast pathway) backbones: each branch sees
/// the identical input tensor, produces a feature vector, and the
/// concatenated vector feeds the embedding head. Backward splits the
/// gradient at the recorded branch widths and sums the branch input
/// gradients.
#[derive(Clone)]
pub struct MultiPath {
    branches: Vec<Sequential>,
}

impl MultiPath {
    /// Creates a multi-branch layer.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty (a fusion of nothing is a bug).
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(!branches.is_empty(), "MultiPath requires at least one branch");
        MultiPath { branches }
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

/// Concatenates one item's branch outputs in branch order, the fusion
/// both the single and the batched forward end with.
fn fuse<'a>(outs: impl Iterator<Item = &'a Tensor> + Clone) -> NnResult<Tensor> {
    if let Some(y) = outs.clone().find(|y| y.rank() != 1) {
        return Err(NnError::BadInput {
            layer: "MultiPath",
            reason: format!("branches must output rank-1 features, got {:?}", y.dims()),
        });
    }
    let mut fused = Vec::with_capacity(outs.clone().map(Tensor::len).sum());
    for y in outs {
        fused.extend_from_slice(y.as_slice());
    }
    let len = fused.len();
    Ok(Tensor::from_vec(fused, &[len])?)
}

impl std::fmt::Debug for MultiPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPath").field("branches", &self.branches.len()).finish()
    }
}

impl Layer for MultiPath {
    fn forward(&self, input: &Tensor, mut tape: Option<&mut Tape>) -> NnResult<Tensor> {
        let outs = self
            .branches
            .iter()
            .map(|branch| branch.forward(input, tape.as_deref_mut()))
            .collect::<NnResult<Vec<Tensor>>>()?;
        let fused = fuse(outs.iter())?;
        if let Some(tape) = tape {
            tape.push(outs.iter().map(Tensor::len).collect::<Vec<usize>>());
        }
        Ok(fused)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> NnResult<Vec<Tensor>> {
        // Run each branch over the whole batch (so its conv layers
        // amortize their batched setup), then fuse per item in branch
        // order, exactly as `forward` does.
        let branch_outs = self
            .branches
            .iter()
            .map(|branch| branch.infer_batch(inputs))
            .collect::<NnResult<Vec<Vec<Tensor>>>>()?;
        (0..inputs.len()).map(|i| fuse(branch_outs.iter().map(|ys| &ys[i]))).collect()
    }

    fn backward(&mut self, tape: &mut Tape, grad_out: &Tensor) -> NnResult<Tensor> {
        let out_lens = tape.pop::<Vec<usize>>("MultiPath")?.clone();
        let total: usize = out_lens.iter().sum();
        if grad_out.len() != total || out_lens.len() != self.branches.len() {
            return Err(NnError::BadInput {
                layer: "MultiPath",
                reason: format!(
                    "grad length {} != fused width {total} ({} branches recorded, {} built)",
                    grad_out.len(),
                    out_lens.len(),
                    self.branches.len()
                ),
            });
        }
        // Branches recorded in order, so they pop last-first; the input
        // gradients are summed in branch order (0 + 1 + …) all the same.
        let gv = grad_out.as_slice();
        let mut end = total;
        let mut grads = Vec::with_capacity(self.branches.len());
        for (branch, &len) in self.branches.iter_mut().zip(&out_lens).rev() {
            let part = Tensor::from_vec(gv[end - len..end].to_vec(), &[len])?;
            end -= len;
            grads.push(branch.backward(tape, &part)?);
        }
        let mut grads = grads.into_iter().rev();
        let first = grads.next().expect("at least one branch by construction");
        grads.try_fold(first, |acc, gi| Ok(acc.add(&gi)?))
    }

    fn name(&self) -> &'static str {
        "MultiPath"
    }
}

impl Parameterized for MultiPath {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for branch in &mut self.branches {
            branch.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_nn::{Linear, Relu};
    use duo_tensor::Rng64;

    fn two_branch(rng: &mut Rng64) -> MultiPath {
        MultiPath::new(vec![
            Sequential::new(vec![
                Box::new(Linear::new(3, 2, rng)) as Box<dyn Layer>,
                Box::new(Relu::new()),
            ]),
            Sequential::new(vec![Box::new(Linear::new(3, 4, rng)) as Box<dyn Layer>]),
        ])
    }

    #[test]
    fn forward_concatenates_branch_outputs() {
        let mut rng = Rng64::new(91);
        let mp = two_branch(&mut rng);
        let y = mp.infer(&Tensor::ones(&[3])).unwrap();
        assert_eq!(y.dims(), &[6]);
    }

    #[test]
    fn backward_splits_and_sums() {
        let mut rng = Rng64::new(92);
        let mut mp = two_branch(&mut rng);
        let x = Tensor::ones(&[3]);
        let mut tape = Tape::new();
        mp.forward(&x, Some(&mut tape)).unwrap();
        let g = mp.backward(&mut tape, &Tensor::ones(&[6])).unwrap();
        assert_eq!(g.dims(), &[3]);
        assert!(tape.is_empty(), "backward pops every branch record");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng64::new(93);
        let mut mp = two_branch(&mut rng);
        let x = Tensor::randn(&[3], 1.0, rng.as_rng());
        let err = duo_nn::check_input_gradient(&mut mp, &x, 1e-3).unwrap();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn shared_params_visited_once_per_branch() {
        let mut rng = Rng64::new(94);
        let mut mp = two_branch(&mut rng);
        assert!(mp.param_count() > 0);
        assert_eq!(mp.branch_count(), 2);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng64::new(95);
        let mut mp = two_branch(&mut rng);
        assert!(mp.backward(&mut Tape::new(), &Tensor::ones(&[6])).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_branch_list_panics() {
        MultiPath::new(Vec::new());
    }
}
