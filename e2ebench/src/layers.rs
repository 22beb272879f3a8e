//! Per-layer probes for the traced run: the bench calls each layer's
//! public functions at the shapes the workload's networks use and times
//! them from outside. Nothing here runs in an untraced run except the
//! shape-table guard.

use crate::common::{ms, time_median, us, BenchResult, Metrics};
use duo_defenses::{ClipSketch, StreamConfig, StreamDetector};
use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_nn::{Layer, Linear};
use duo_retrieval::{RetrievalSystem, ShardIndex};
use duo_tensor::{col2im3d, gemm, im2col3d_into, Conv3dSpec, Rng64, Tensor};
use duo_video::Video;

/// Timed repetitions per probe (the median is reported).
const REPS: usize = 15;

/// One convolution of a backbone at its exact shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvShape {
    /// Name in the metric table.
    pub name: &'static str,
    /// Kernel geometry.
    pub spec: Conv3dSpec,
    /// Output channels.
    pub out_channels: usize,
    /// Input `[C, T, H, W]`.
    pub input: [usize; 4],
}

impl ConvShape {
    fn output(&self) -> [usize; 4] {
        let [_, t, h, w] = self.input;
        let (ot, oh, ow) = self
            .spec
            .output_thw(t, h, w)
            .expect("shape table geometry is valid");
        [self.out_channels, ot, oh, ow]
    }

    /// GEMM inner dimension `C·kt·kh·kw`.
    pub fn k(&self) -> usize {
        self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw
    }

    /// Output positions `T'·H'·W'`.
    pub fn positions(&self) -> usize {
        let [_, t, h, w] = self.output();
        t * h * w
    }

    /// Fused multiply-adds of one forward GEMM.
    pub fn fma(&self) -> usize {
        self.out_channels * self.k() * self.positions()
    }

    /// Bytes one forward call moves, computed from tensor sizes: im2col
    /// reads the input and writes the column matrix; the GEMM reads the
    /// weights and the columns and writes the output.
    pub fn bytes(&self) -> usize {
        let input: usize = self.input.iter().product();
        let cols = self.k() * self.positions();
        4 * (input
            + cols
            + self.out_channels * self.k()
            + cols
            + self.out_channels * self.positions())
    }

    fn params(&self) -> usize {
        self.out_channels * self.k() + self.out_channels
    }
}

fn cubic(
    name: &'static str,
    input: [usize; 4],
    out_channels: usize,
    stride: (usize, usize, usize),
) -> ConvShape {
    ConvShape {
        name,
        spec: Conv3dSpec::cubic(input[0], 3, stride, 1),
        out_channels,
        input,
    }
}

/// The I3d victim's convolutions, and the flattened width its head reads.
pub fn i3d_convs(cfg: BackboneConfig) -> (Vec<ConvShape>, usize) {
    let (w, c) = (cfg.width, cfg.clip);
    let conv1 = cubic(
        "conv1",
        [c.channels, c.frames, c.height, c.width],
        w,
        (1, 2, 2),
    );
    let [_, t, h, wd] = conv1.output();
    // 2×2 spatial max-pool after conv1.
    let pooled = [w, t, h / 2, wd / 2];
    let conv2 = cubic("conv2", pooled, 2 * w, (1, 1, 1));
    let res_in = conv2.output();
    let res1 = cubic("res1", res_in, 2 * w, (1, 1, 1));
    let res2 = cubic("res2", res_in, 2 * w, (1, 1, 1));
    let conv3 = cubic("conv3", res_in, 4 * w, (2, 2, 2));
    let head_in = conv3.output().iter().product();
    (vec![conv1, conv2, res1, res2, conv3], head_in)
}

/// The C3d surrogate's convolutions, and the flattened width its head
/// reads.
pub fn c3d_convs(cfg: BackboneConfig) -> (Vec<ConvShape>, usize) {
    let (w, c) = (cfg.width, cfg.clip);
    let conv1 = cubic(
        "conv1",
        [c.channels, c.frames, c.height, c.width],
        w,
        (1, 2, 2),
    );
    let conv2 = cubic("conv2", conv1.output(), 2 * w, (2, 2, 2));
    let conv3 = cubic("conv3", conv2.output(), 4 * w, (2, 2, 2));
    let head_in = conv3.output().iter().product();
    (vec![conv1, conv2, conv3], head_in)
}

/// Parameter count the shape table implies: every conv's weights and
/// biases plus the `head_in → feature_dim` head.
pub fn implied_params(convs: &[ConvShape], head_in: usize, feature_dim: usize) -> usize {
    convs.iter().map(ConvShape::params).sum::<usize>() + head_in * feature_dim + feature_dim
}

/// Guards the shape table against drift: it must imply exactly the
/// parameters the real backbone has.
pub fn shape_table_matches(arch: Architecture, cfg: BackboneConfig) -> Result<(), String> {
    let (convs, head_in) = match arch {
        Architecture::I3d => i3d_convs(cfg),
        Architecture::C3d => c3d_convs(cfg),
        other => return Err(format!("no shape table for {other}")),
    };
    let mut backbone = Backbone::new(arch, cfg, &mut Rng64::new(0)).map_err(|e| e.to_string())?;
    let (implied, actual) = (
        implied_params(&convs, head_in, cfg.feature_dim),
        backbone.param_count(),
    );
    if implied == actual {
        Ok(())
    } else {
        Err(format!(
            "{arch} shape table implies {implied} parameters, the backbone has {actual}"
        ))
    }
}

/// Times im2col, the forward GEMM and (for a trained net) col2im and the
/// weight-gradient GEMM of every conv at its exact shape. Returns the
/// summed forward im2col + GEMM time in microseconds.
pub fn tensor_probe(
    net: &str,
    convs: &[ConvShape],
    backward: bool,
    metrics: &mut Metrics,
) -> BenchResult<f64> {
    let mut rng = Rng64::new(0x7E45);
    let mut forward_us = 0.0;
    for conv in convs {
        let p = format!("tensor.{net}.{}", conv.name);
        let (k, n) = (conv.k(), conv.positions());
        let input = Tensor::randn(&conv.input, 1.0, rng.as_rng());
        let weight = Tensor::randn(&[conv.out_channels, k], 0.1, rng.as_rng());
        let mut cols = Tensor::zeros(&[k, n]);
        let mut out = Tensor::zeros(&[conv.out_channels, n]);
        let im2col = time_median(REPS, || {
            im2col3d_into(&input, &conv.spec, &mut cols).expect("im2col at table shape")
        });
        let gemm_t = time_median(REPS, || {
            gemm(&weight, &cols, &mut out).expect("gemm at table shape")
        });
        metrics.set(format!("{p}.im2col_us"), us(im2col));
        metrics.set(format!("{p}.gemm_us"), us(gemm_t));
        metrics.set(
            format!("{p}.gemm_gfma_s"),
            conv.fma() as f64 / gemm_t.as_secs_f64() / 1e9,
        );
        metrics.set(format!("{p}.fma"), conv.fma() as f64);
        metrics.set(format!("{p}.bytes"), conv.bytes() as f64);
        forward_us += us(im2col) + us(gemm_t);
        if backward {
            let grad = Tensor::randn(&[conv.out_channels, n], 1.0, rng.as_rng());
            let cols_t = cols.transpose().map_err(|e| e.to_string())?;
            let mut wgrad = Tensor::zeros(&[conv.out_channels, k]);
            let wgrad_t = time_median(REPS, || {
                gemm(&grad, &cols_t, &mut wgrad).expect("wgrad gemm at table shape")
            });
            let gcols = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let [_, t, h, w] = conv.input;
            let col2im = time_median(REPS, || {
                col2im3d(&gcols, &conv.spec, t, h, w).expect("col2im at table shape")
            });
            metrics.set(format!("{p}.wgrad_gemm_us"), us(wgrad_t));
            metrics.set(format!("{p}.col2im_us"), us(col2im));
        }
    }
    Ok(forward_us)
}

/// Times the I3d victim's `head_in → feature_dim` head, one clip's
/// extraction, and a batch of two (the most the two-sender load ever
/// puts in flight). Sets `models.i3d.conv_share` from `conv_us`.
pub fn i3d_model_probe(
    victim: &Backbone,
    clips: &[Video],
    conv_us: f64,
    metrics: &mut Metrics,
) -> BenchResult<()> {
    let (_, head_in) = i3d_convs(victim.config());
    let mut rng = Rng64::new(0x4EAD);
    let head = Linear::new(head_in, victim.feature_dim(), &mut rng);
    let x = Tensor::randn(&[head_in], 1.0, rng.as_rng());
    metrics.set(
        "nn.i3d.head_us",
        us(time_median(31, || {
            head.infer(&x).expect("head at table shape")
        })),
    );
    let mut i = 0;
    let extract = time_median(REPS, || {
        i += 1;
        victim
            .extract(&clips[i % clips.len()])
            .expect("victim extracts probe clips")
    });
    let pair = [&clips[0], &clips[1 % clips.len()]];
    let batch = time_median(REPS, || {
        victim
            .extract_batch(&pair, 2)
            .expect("victim extracts a batch")
    });
    metrics.set("models.i3d.extract_ms", ms(extract));
    metrics.set("models.i3d.extract_batch_ms", ms(batch));
    metrics.set("models.i3d.conv_share", conv_us / us(extract));
    Ok(())
}

/// Times the C3d surrogate's training forward, input gradient and
/// parameter backward on one clip.
pub fn c3d_model_probe(
    surrogate: &Backbone,
    clip: &Video,
    metrics: &mut Metrics,
) -> BenchResult<()> {
    let mut net = surrogate.clone();
    let grad = Tensor::full(&[net.feature_dim()], 0.01);
    let fwd = time_median(REPS, || {
        net.extract_training(clip).expect("surrogate forward")
    });
    let mut input_grad = Vec::new();
    let mut params = Vec::new();
    for _ in 0..REPS {
        net.extract_training(clip).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        std::hint::black_box(net.input_gradient(clip, &grad).map_err(|e| e.to_string())?);
        input_grad.push(ms(t.elapsed()));
        net.extract_training(clip).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        net.backward_params(&grad).map_err(|e| e.to_string())?;
        params.push(ms(t.elapsed()));
    }
    metrics.set("models.c3d.train_fwd_ms", ms(fwd));
    metrics.set(
        "models.c3d.input_grad_ms",
        crate::common::median(&input_grad),
    );
    metrics.set(
        "models.c3d.backward_params_ms",
        crate::common::median(&params),
    );
    Ok(())
}

/// Times the admission-side defense: sketching a clip and one detector
/// observation over a benign stream.
pub fn defense_probe(clips: &[Video], metrics: &mut Metrics) {
    let sketches: Vec<ClipSketch> = clips.iter().map(ClipSketch::of).collect();
    let mut i = 0;
    let sketch = time_median(REPS, || {
        i += 1;
        ClipSketch::of(&clips[i % clips.len()])
    });
    let mut detector = StreamDetector::new(StreamConfig::default());
    let mut observe = Vec::new();
    for k in 0..64 {
        let t = std::time::Instant::now();
        std::hint::black_box(detector.observe(&sketches[k % sketches.len()]));
        observe.push(us(t.elapsed()));
    }
    metrics.set("defenses.sketch_us", us(sketch));
    metrics.set("defenses.observe_us", crate::common::median(&observe));
}

/// Times one shard's rebuild and search at the gallery's own shard size
/// and index mode (shard 0 of the live system).
pub fn shard_probe(system: &RetrievalSystem, queries: &[Vec<f32>], metrics: &mut Metrics) {
    let node = &system.nodes()[0];
    let shard = node.snapshot();
    let build = time_median(5, || {
        ShardIndex::build_from_rows(
            shard.ids().to_vec(),
            shard.features().to_vec(),
            shard.dim(),
            shard.mode(),
            node.seed(),
        )
        .expect("rebuilding a live shard")
    });
    let m = system.config().m;
    let mut i = 0;
    let search = time_median(31, || {
        i += 1;
        shard.search(&queries[i % queries.len()], m)
    });
    metrics.set("retrieval.shard_build_ms", ms(build));
    metrics.set("retrieval.shard_search_us", us(search));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_tables_imply_the_backbones_parameter_counts() {
        for cfg in [BackboneConfig::experiment(), BackboneConfig::tiny()] {
            shape_table_matches(Architecture::I3d, cfg).unwrap();
            shape_table_matches(Architecture::C3d, cfg).unwrap();
        }
    }

    #[test]
    fn shape_table_guard_rejects_a_drifted_table() {
        let cfg = BackboneConfig::experiment();
        let (mut convs, head_in) = i3d_convs(cfg);
        let mut backbone = Backbone::new(Architecture::I3d, cfg, &mut Rng64::new(0)).unwrap();
        assert_eq!(
            implied_params(&convs, head_in, cfg.feature_dim),
            backbone.param_count()
        );
        convs.pop();
        assert_ne!(
            implied_params(&convs, head_in, cfg.feature_dim),
            backbone.param_count()
        );
        assert!(shape_table_matches(Architecture::Resnet18, cfg).is_err());
    }

    #[test]
    fn experiment_head_widths_match_the_documented_shapes() {
        let cfg = BackboneConfig::experiment();
        assert_eq!(i3d_convs(cfg).1, 4096);
        assert_eq!(c3d_convs(cfg).1, 2048);
        assert_eq!(i3d_convs(cfg).0[0].fma(), 8 * 81 * 4096);
    }
}
