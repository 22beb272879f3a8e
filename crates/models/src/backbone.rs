use crate::{ModelError, MultiPath, Result};
use duo_nn::{
    AvgPool3d, Conv3d, Flatten, L2Normalize, Layer, Linear, MaxPool3d, Param, Parameterized,
    Relu, Residual, Sequential, Tape, TemporalStride,
};
use duo_tensor::{Conv3dSpec, Pool3dSpec, Rng64, Tensor};
use duo_video::{ClipSpec, Video};

/// The backbone families evaluated in the paper.
///
/// Victim models: [`Architecture::I3d`], [`Architecture::Tpn`],
/// [`Architecture::SlowFast`], [`Architecture::Resnet34`].
/// Surrogate models: [`Architecture::C3d`], [`Architecture::Resnet18`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Inflated 3-D convolutions, single pathway, residual block.
    I3d,
    /// Temporal pyramid network: shared trunk, multi-rate temporal branches.
    Tpn,
    /// Two pathways at different frame rates (slow: strided, wide; fast:
    /// full rate, narrow), fused late.
    SlowFast,
    /// Per-frame 2-D residual network (kt = 1), deeper variant.
    Resnet34,
    /// Plain stacked 3-D convolutions (the paper's main surrogate).
    C3d,
    /// Per-frame 2-D residual network, shallower variant (surrogate).
    Resnet18,
}
duo_tensor::impl_to_json!(enum Architecture { I3d, Tpn, SlowFast, Resnet34, C3d, Resnet18 });

impl Architecture {
    /// The four victim architectures of the paper's evaluation.
    pub fn victims() -> [Architecture; 4] {
        [Architecture::Tpn, Architecture::SlowFast, Architecture::I3d, Architecture::Resnet34]
    }

    /// The two surrogate architectures of the paper's evaluation.
    pub fn surrogates() -> [Architecture; 2] {
        [Architecture::C3d, Architecture::Resnet18]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::I3d => "I3D",
            Architecture::Tpn => "TPN",
            Architecture::SlowFast => "SlowFast",
            Architecture::Resnet34 => "Resnet34",
            Architecture::C3d => "C3D",
            Architecture::Resnet18 => "Resnet18",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Width/feature-size configuration of a backbone.
///
/// The clip geometry is part of the configuration because — following the
/// paper's system diagram — embeddings are produced by *fully-connected
/// feature flattening* of the final convolutional map, so the head's
/// input dimensionality depends on the clip size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackboneConfig {
    /// Base channel width; deeper stages scale from this.
    pub width: usize,
    /// Output embedding dimensionality (the paper flattens to 768).
    pub feature_dim: usize,
    /// Clip geometry the backbone is built for.
    pub clip: ClipSpec,
}
duo_tensor::impl_to_json!(struct BackboneConfig { width, feature_dim, clip });

impl BackboneConfig {
    /// Paper-shaped configuration: 768-d features over 112×112×16 clips.
    pub fn paper() -> Self {
        BackboneConfig { width: 8, feature_dim: 768, clip: ClipSpec::paper() }
    }

    /// Default experiment configuration for this reproduction.
    pub fn experiment() -> Self {
        BackboneConfig { width: 8, feature_dim: 128, clip: ClipSpec::experiment() }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        BackboneConfig { width: 4, feature_dim: 32, clip: ClipSpec::tiny() }
    }

    /// Returns a copy with a different feature dimension (used by the
    /// Figure 4 surrogate feature-size sweep).
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }

    /// Returns a copy built for a different clip geometry.
    pub fn with_clip(mut self, clip: ClipSpec) -> Self {
        self.clip = clip;
        self
    }
}

/// A video feature extractor: `[C, T, H, W]` clip → L2-normalized `[D]`
/// embedding, with input gradients for transfer attacks.
pub struct Backbone {
    arch: Architecture,
    config: BackboneConfig,
    net: Sequential,
    /// The records of the latest training forward, until one backward
    /// consumes them.
    tape: Tape,
}

impl Clone for Backbone {
    /// Clones the weights; the clone has no pending training forward.
    fn clone(&self) -> Self {
        Backbone { arch: self.arch, config: self.config, net: self.net.clone(), tape: Tape::new() }
    }
}

impl std::fmt::Debug for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backbone")
            .field("arch", &self.arch)
            .field("config", &self.config)
            .finish()
    }
}

fn conv(in_c: usize, out_c: usize, k: usize, stride: (usize, usize, usize), pad: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    Box::new(Conv3d::new(Conv3dSpec::cubic(in_c, k, stride, pad), out_c, rng))
}

/// Per-frame 2-D convolution expressed as a kt=1 3-D convolution.
fn conv2d(in_c: usize, out_c: usize, k: usize, spatial_stride: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let spec = Conv3dSpec {
        in_channels: in_c,
        kt: 1,
        kh: k,
        kw: k,
        st: 1,
        sh: spatial_stride,
        sw: spatial_stride,
        pt: 0,
        ph: k / 2,
        pw: k / 2,
    };
    Box::new(Conv3d::new(spec, out_c, rng))
}

fn relu() -> Box<dyn Layer> {
    Box::new(Relu::new())
}

fn identity_block_2d(c: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let main = Sequential::new(vec![conv2d(c, c, 3, 1, rng), relu(), conv2d(c, c, 3, 1, rng)]);
    Box::new(Residual::identity(main))
}

fn build_resnet(w: usize, depth: usize, rng: &mut Rng64) -> Vec<Box<dyn Layer>> {
    let mut layers: Vec<Box<dyn Layer>> = vec![conv2d(3, w, 3, 2, rng), relu()];
    for _ in 0..depth {
        layers.push(identity_block_2d(w, rng));
        layers.push(relu());
    }
    // Downsampling projection block to double the width.
    let main = Sequential::new(vec![conv2d(w, 2 * w, 3, 2, rng), relu(), conv2d(2 * w, 2 * w, 3, 1, rng)]);
    let shortcut = Sequential::new(vec![conv2d(w, 2 * w, 1, 2, rng)]);
    layers.push(Box::new(Residual::with_shortcut(main, shortcut)));
    layers.push(relu());
    for _ in 0..depth {
        layers.push(identity_block_2d(2 * w, rng));
        layers.push(relu());
    }
    // Spatial 2x pooling keeps the flattened feature-map width manageable
    // while retaining full temporal resolution.
    layers.push(Box::new(AvgPool3d::new(Pool3dSpec::spatial(2))));
    layers
}

impl Backbone {
    /// Builds a backbone of the given architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] for zero width or feature size.
    pub fn new(arch: Architecture, config: BackboneConfig, rng: &mut Rng64) -> Result<Self> {
        if config.width == 0 || config.feature_dim == 0 {
            return Err(ModelError::BadConfig(format!(
                "width and feature_dim must be positive, got {config:?}"
            )));
        }
        let w = config.width;
        let trunk: Vec<Box<dyn Layer>> = match arch {
            Architecture::C3d => vec![
                conv(3, w, 3, (1, 2, 2), 1, rng),
                relu(),
                conv(w, 2 * w, 3, (2, 2, 2), 1, rng),
                relu(),
                conv(2 * w, 4 * w, 3, (2, 2, 2), 1, rng),
                relu(),
            ],
            Architecture::I3d => {
                let res_main = Sequential::new(vec![
                    conv(2 * w, 2 * w, 3, (1, 1, 1), 1, rng),
                    relu(),
                    conv(2 * w, 2 * w, 3, (1, 1, 1), 1, rng),
                ]);
                vec![
                    conv(3, w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    Box::new(MaxPool3d::new(Pool3dSpec::spatial(2))) as Box<dyn Layer>,
                    conv(w, 2 * w, 3, (1, 1, 1), 1, rng),
                    relu(),
                    Box::new(Residual::identity(res_main)),
                    relu(),
                    conv(2 * w, 4 * w, 3, (2, 2, 2), 1, rng),
                    relu(),
                ]
            }
            Architecture::Tpn => {
                let branch = |rate: usize, rng: &mut Rng64| -> Sequential {
                    let temporal_conv = Conv3dSpec {
                        in_channels: 2 * w,
                        kt: 2,
                        kh: 3,
                        kw: 3,
                        st: 1,
                        sh: 1,
                        sw: 1,
                        pt: 0,
                        ph: 1,
                        pw: 1,
                    };
                    Sequential::new(vec![
                        Box::new(AvgPool3d::new(Pool3dSpec {
                            kt: rate,
                            kh: 1,
                            kw: 1,
                            st: rate,
                            sh: 1,
                            sw: 1,
                        })) as Box<dyn Layer>,
                        Box::new(Conv3d::new(temporal_conv, w, rng)),
                        relu(),
                        Box::new(Flatten::new()),
                    ])
                };
                let pyramid = MultiPath::new(vec![branch(1, rng), branch(2, rng), branch(4, rng)]);
                vec![
                    conv(3, w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    conv(w, 2 * w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    Box::new(pyramid) as Box<dyn Layer>,
                ]
            }
            Architecture::SlowFast => {
                let mut slow_rng = rng.fork(1);
                let mut fast_rng = rng.fork(2);
                let slow = Sequential::new(vec![
                    Box::new(TemporalStride::new(4)) as Box<dyn Layer>,
                    conv(3, 2 * w, 3, (1, 2, 2), 1, &mut slow_rng),
                    relu(),
                    conv(2 * w, 4 * w, 3, (1, 2, 2), 1, &mut slow_rng),
                    relu(),
                    Box::new(Flatten::new()),
                ]);
                let fast = Sequential::new(vec![
                    conv(3, w, 3, (1, 2, 2), 1, &mut fast_rng),
                    relu(),
                    conv(w, w, 3, (2, 2, 2), 1, &mut fast_rng),
                    relu(),
                    Box::new(Flatten::new()) as Box<dyn Layer>,
                ]);
                vec![Box::new(MultiPath::new(vec![slow, fast]))]
            }
            Architecture::Resnet34 => build_resnet(w, 2, rng),
            Architecture::Resnet18 => build_resnet(w, 1, rng),
        };
        // Following the paper's system diagram, the embedding head is a
        // fully-connected flattening of the final feature map. Its input
        // width depends on the clip geometry, so probe the trunk once.
        let mut net = Sequential::new(trunk);
        net.push(Box::new(Flatten::new()));
        let clip = config.clip;
        let probe = Tensor::zeros(&[clip.channels, clip.frames, clip.height, clip.width]);
        let flat = net.infer(&probe).map_err(|e| {
            ModelError::BadConfig(format!("clip {clip:?} incompatible with {arch}: {e}"))
        })?;
        net.push(Box::new(Linear::new(flat.len(), config.feature_dim, rng)));
        net.push(Box::new(L2Normalize::new()));
        Ok(Backbone { arch, config, net, tape: Tape::new() })
    }

    /// The architecture family of this backbone.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// The construction configuration.
    pub fn config(&self) -> BackboneConfig {
        self.config
    }

    /// Output embedding dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.config.feature_dim
    }

    /// Extracts the L2-normalized embedding of a video.
    ///
    /// This is the pure inference path: it takes `&self`, records nothing,
    /// and runs the same forward program as [`Backbone::extract_training`],
    /// so the two agree bit for bit. Because it is immutable, one backbone
    /// can serve concurrent extractions from many threads.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip geometry is incompatible with the
    /// backbone's downsampling structure.
    pub fn extract(&self, video: &Video) -> Result<Tensor> {
        Ok(self.net.infer(&video.to_model_input())?)
    }

    /// Extracts the embedding from a prepared `[C, T, H, W]` tensor
    /// (pure inference, `&self`).
    ///
    /// # Errors
    ///
    /// Same as [`Backbone::extract`].
    pub fn extract_tensor(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.net.infer(input)?)
    }

    /// Extracts embeddings for a batch of videos through the network's
    /// batched forward ([`duo_nn::Layer::infer_batch`]), fanning chunks
    /// across up to `workers` threads.
    ///
    /// The batched forward runs the exact same per-item computation as
    /// [`Backbone::extract`] — it only amortizes per-call setup (im2col
    /// workspaces, weight reshapes) across the batch — so the result is
    /// bit-identical to a serial loop. Parallelism and batching only
    /// change wall-clock time, never values. `workers == 0` is treated
    /// as 1. Results are returned in input order.
    ///
    /// # Errors
    ///
    /// Returns the first per-item error in input order, if any.
    pub fn extract_batch(&self, videos: &[&Video], workers: usize) -> Result<Vec<Tensor>> {
        if videos.is_empty() {
            return Ok(Vec::new());
        }
        let workers = workers.max(1).min(videos.len());
        if workers == 1 {
            let inputs: Vec<Tensor> = videos.iter().map(|v| v.to_model_input()).collect();
            return Ok(self.net.infer_batch(&inputs)?);
        }
        let mut slots: Vec<Option<Result<Vec<Tensor>>>> = Vec::new();
        let chunk = videos.len().div_ceil(workers);
        slots.resize_with(videos.chunks(chunk).len(), || None);
        std::thread::scope(|scope| {
            for (vids, slot) in videos.chunks(chunk).zip(slots.iter_mut()) {
                scope.spawn(move || {
                    let inputs: Vec<Tensor> = vids.iter().map(|v| v.to_model_input()).collect();
                    *slot = Some(self.net.infer_batch(&inputs).map_err(Into::into));
                });
            }
        });
        let mut outs = Vec::with_capacity(videos.len());
        for slot in slots {
            outs.extend(slot.expect("every slot filled by its worker")?);
        }
        Ok(outs)
    }

    /// Extracts an embedding through the *training* forward pass, keeping
    /// its tape for one subsequent [`Backbone::input_gradient`] or
    /// [`Backbone::backward_params`].
    ///
    /// Bit-identical to [`Backbone::extract`]: both run the same forward
    /// program; this one also records what the backward pass needs.
    ///
    /// # Errors
    ///
    /// Same as [`Backbone::extract`].
    pub fn extract_training(&mut self, video: &Video) -> Result<Tensor> {
        self.extract_tensor_training(&video.to_model_input())
    }

    /// Training-path variant of [`Backbone::extract_tensor`]: keeps the
    /// tape the backward passes need.
    ///
    /// # Errors
    ///
    /// Same as [`Backbone::extract`].
    pub fn extract_tensor_training(&mut self, input: &Tensor) -> Result<Tensor> {
        self.tape.rewind();
        let feature = self.net.forward(input, Some(&mut self.tape));
        if feature.is_err() {
            self.tape.rewind();
        }
        Ok(feature?)
    }

    /// Runs the one backward the latest training forward allows. An
    /// empty tape fails at the first layer's pop; a failed backward still
    /// spends the forward.
    fn backward(&mut self, grad_feature: &Tensor) -> Result<Tensor> {
        let grad = self.net.backward(&mut self.tape, grad_feature);
        self.tape.rewind();
        Ok(grad?)
    }

    /// Gradient of a scalar loss with respect to the *video pixels*
    /// (`[N, H, W, C]` layout, including the 1/255 input scaling), given
    /// the loss gradient with respect to the embedding.
    ///
    /// Must be called immediately after [`Backbone::extract_training`] on
    /// the same video: the backward pass consumes that forward's tape.
    ///
    /// Parameter gradients accumulated by this call are discarded — the
    /// attack differentiates the input, not the weights.
    ///
    /// # Errors
    ///
    /// Returns [`duo_nn::NnError::MissingForwardCache`] (as [`ModelError::Nn`]) if
    /// no training forward is pending, or a shape error if shapes mismatch.
    pub fn input_gradient(&mut self, video: &Video, grad_feature: &Tensor) -> Result<Tensor> {
        let grad_model = self.backward(grad_feature)?;
        // Attacks must not leak gradient state into subsequent training.
        self.net.zero_grad();
        Ok(video.gradient_to_video_layout(&grad_model)?)
    }

    /// Backpropagates a feature-space gradient to accumulate *parameter*
    /// gradients (training path). The input gradient is discarded.
    ///
    /// Must be called immediately after [`Backbone::extract_training`] on
    /// the same video.
    ///
    /// # Errors
    ///
    /// Returns [`duo_nn::NnError::MissingForwardCache`] (as [`ModelError::Nn`]) if
    /// no training forward is pending.
    pub fn backward_params(&mut self, grad_feature: &Tensor) -> Result<()> {
        self.backward(grad_feature)?;
        Ok(())
    }

    /// Number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        Parameterized::param_count(&mut self.net)
    }
}

impl Parameterized for Backbone {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_video::{ClipSpec, SyntheticVideoGenerator};

    fn tiny_video() -> Video {
        SyntheticVideoGenerator::new(ClipSpec::tiny(), 3).generate(0, 0)
    }

    #[test]
    fn every_architecture_produces_unit_features() {
        let video = tiny_video();
        for arch in [
            Architecture::I3d,
            Architecture::Tpn,
            Architecture::SlowFast,
            Architecture::Resnet34,
            Architecture::C3d,
            Architecture::Resnet18,
        ] {
            let mut rng = Rng64::new(101);
            let model = Backbone::new(arch, BackboneConfig::tiny(), &mut rng).unwrap();
            let feat = model.extract(&video).unwrap();
            assert_eq!(feat.len(), 32, "{arch}");
            assert!((feat.l2_norm() - 1.0).abs() < 1e-4, "{arch} features must be normalized");
        }
    }

    #[test]
    fn architectures_disagree_on_the_same_input() {
        let video = tiny_video();
        let mut rng = Rng64::new(102);
        let a = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let b = Backbone::new(Architecture::I3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let fa = a.extract(&video).unwrap();
        let fb = b.extract(&video).unwrap();
        assert!(fa.sq_distance(&fb).unwrap() > 1e-4);
    }

    #[test]
    fn input_gradient_has_video_shape() {
        let video = tiny_video();
        let mut rng = Rng64::new(103);
        let mut model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let feat = model.extract_training(&video).unwrap();
        let g = model.input_gradient(&video, &feat).unwrap();
        assert_eq!(g.dims(), video.tensor().dims());
        assert!(g.l2_norm() > 0.0, "gradient should be nonzero");
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        // Loss = <feat, c> for a fixed direction c; check d loss / d pixel.
        let video = tiny_video();
        let mut rng = Rng64::new(104);
        let mut model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let c = Tensor::randn(&[32], 1.0, rng.as_rng());
        let _ = model.extract_training(&video).unwrap();
        let g = model.input_gradient(&video, &c).unwrap();
        let eps = 0.5; // half a pixel step out of 255
        for &probe in &[10usize, 500, 2000] {
            let mut vp = video.clone();
            vp.tensor_mut().as_mut_slice()[probe] += eps;
            let fp = model.extract(&vp).unwrap().dot(&c).unwrap();
            let mut vm = video.clone();
            vm.tensor_mut().as_mut_slice()[probe] -= eps;
            let fm = model.extract(&vm).unwrap().dot(&c).unwrap();
            let num = (fp - fm) / (2.0 * eps);
            let ana = g.as_slice()[probe];
            assert!(
                (num - ana).abs() < 1e-3 + 0.15 * ana.abs().max(num.abs()),
                "probe {probe}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn batched_extract_is_bit_identical_to_serial() {
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 3);
        let videos: Vec<Video> = (0u32..7).map(|i| gen.generate(i % 3, i)).collect();
        let refs: Vec<&Video> = videos.iter().collect();
        let mut rng = Rng64::new(107);
        let model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let serial: Vec<Tensor> = refs.iter().map(|v| model.extract(v).unwrap()).collect();
        for workers in [1, 3, 4, 16] {
            let batched = model.extract_batch(&refs, workers).unwrap();
            assert_eq!(batched.len(), serial.len());
            for (i, (a, b)) in batched.iter().zip(&serial).enumerate() {
                assert_eq!(a.as_slice(), b.as_slice(), "workers={workers} item {i}");
            }
        }
        assert!(model.extract_batch(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn rejects_zero_width() {
        let mut rng = Rng64::new(105);
        let bad = BackboneConfig { width: 0, ..BackboneConfig::tiny() };
        assert!(Backbone::new(Architecture::C3d, bad, &mut rng).is_err());
    }

    #[test]
    fn victims_and_surrogates_partition_architectures() {
        let mut all: Vec<Architecture> = Architecture::victims().to_vec();
        all.extend(Architecture::surrogates());
        assert_eq!(all.len(), 6);
    }
}
