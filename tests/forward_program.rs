//! Properties of the one forward program every backbone layer runs.
//!
//! A `duo_nn::Layer` has a single `forward`: with a caller-owned tape it
//! records what its backward needs, without one it is the inference path.
//! A [`Backbone`] keeps the tape of its latest training forward until one
//! backward consumes it. For every [`Architecture`]:
//!
//! 1. **One program.** [`Backbone::extract`], [`Backbone::extract_training`]
//!    and [`Backbone::extract_batch`] agree at `f32::to_bits`.
//! 2. **One backward per forward.** [`Backbone::input_gradient`] and
//!    [`Backbone::backward_params`] with no pending training forward
//!    return `Err`, never a gradient from stale state: before the first
//!    forward, after an inference-only `extract`, after the one backward
//!    the forward allowed, and on a clone of a backbone with a forward
//!    pending.

use duo::prelude::*;
use duo::video::SyntheticVideoGenerator;
use duo_check::{check, prop_assert, prop_assert_eq, Config};

fn config() -> Config {
    Config::default().with_cases(12)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

const ARCHITECTURES: [Architecture; 6] = [
    Architecture::I3d,
    Architecture::Tpn,
    Architecture::SlowFast,
    Architecture::Resnet34,
    Architecture::C3d,
    Architecture::Resnet18,
];

check! {
    #![config(config())]

    fn extract_training_and_batch_equal_extract_bitwise(
        arch in 0usize..6,
        batch in 1usize..4,
        s in 0u64..0x1000_0000,
    ) {
        let arch = ARCHITECTURES[arch];
        let mut model = Backbone::new(arch, BackboneConfig::tiny(), &mut Rng64::new(s)).unwrap();
        let generator = SyntheticVideoGenerator::new(ClipSpec::tiny(), s);
        let clips: Vec<Video> = (0..batch as u32).map(|i| generator.generate(i, i)).collect();
        let refs: Vec<&Video> = clips.iter().collect();
        let batched = model.extract_batch(&refs, 1).unwrap();
        for (clip, embedding) in clips.iter().zip(&batched) {
            let served = bits(model.extract(clip).unwrap().as_slice());
            let trained = bits(model.extract_training(clip).unwrap().as_slice());
            prop_assert_eq!(&served, &trained, "{arch:?}: training forward drifted");
            prop_assert_eq!(&served, &bits(embedding.as_slice()), "{arch:?}: batch drifted");
        }
    }

    fn backward_needs_a_fresh_training_forward(
        arch in 0usize..6,
        s in 0u64..0x1000_0000,
    ) {
        let arch = ARCHITECTURES[arch];
        let mut model = Backbone::new(arch, BackboneConfig::tiny(), &mut Rng64::new(s)).unwrap();
        let clip = SyntheticVideoGenerator::new(ClipSpec::tiny(), s).generate(0, 0);
        let grad = Tensor::full(&[model.feature_dim()], 0.01);

        prop_assert!(model.input_gradient(&clip, &grad).is_err(), "{arch:?}: no forward yet");
        prop_assert!(model.backward_params(&grad).is_err(), "{arch:?}: no forward yet");
        model.extract(&clip).unwrap();
        prop_assert!(
            model.input_gradient(&clip, &grad).is_err(),
            "{arch:?}: an inference extract records nothing"
        );

        model.extract_training(&clip).unwrap();
        let mut copy = model.clone();
        prop_assert!(copy.input_gradient(&clip, &grad).is_err(), "{arch:?}: a clone has no tape");
        let first = model.input_gradient(&clip, &grad).unwrap();
        prop_assert_eq!(first.dims(), clip.tensor().dims());
        prop_assert!(
            model.input_gradient(&clip, &grad).is_err(),
            "{arch:?}: a second backward reused a spent forward"
        );

        // The same holds for the parameter backward, and a new forward
        // re-arms exactly one backward of either kind.
        model.extract_training(&clip).unwrap();
        model.backward_params(&grad).unwrap();
        prop_assert!(model.backward_params(&grad).is_err(), "{arch:?}: spent forward");
        model.extract_training(&clip).unwrap();
        let again = model.input_gradient(&clip, &grad).unwrap();
        prop_assert_eq!(bits(first.as_slice()), bits(again.as_slice()), "{arch:?}");
    }
}
