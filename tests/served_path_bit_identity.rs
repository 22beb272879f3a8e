//! Bit-identity properties of the served query's non-GEMM stages.
//!
//! Every served query runs Squeeze purification, the I3d forward and its
//! fully-connected head. Each stage has a fast kernel whose bits must equal
//! its plain definition:
//!
//! 1. **Head.** [`Linear::infer`] keeps eight output rows in flight, but
//!    every output is still the sequential `mul_add` fold over increasing
//!    index from `0.0`, with the bias added last. The tested widths put
//!    `out_features` off every multiple of 8, so the scalar tail runs too.
//! 2. **Batched extract.** [`Backbone::extract_batch`] equals per-clip
//!    [`Backbone::extract`] bit for bit. The head has no batched override,
//!    so this pins the conv layers' batched path plus the default
//!    per-sample head.
//! 3. **Squeeze.** [`FeatureSqueezing::transform`] equals the
//!    sort-by-`total_cmp` median kept below as the oracle. The clips hold
//!    `-0.0` and values outside `[0, 255]`, and the frames run from 1 pixel
//!    to rows wide enough for the vectorised interior loop. Radius is
//!    0/1/2 and bit depth 1/4/8.

use duo::prelude::*;
use duo::video::SyntheticVideoGenerator;
use duo_check::{check, prop_assert_eq, Config};
use duo_nn::{Layer, Linear, Parameterized};

fn config() -> Config {
    Config::default().with_cases(32)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The per-element definition of `y = W x + b`: a sequential fused
/// multiply-add fold from `0.0` in index order, bias last.
fn linear_reference(weight: &[f32], bias: &[f32], x: &[f32]) -> Vec<f32> {
    weight
        .chunks_exact(x.len())
        .zip(bias)
        .map(|(row, b)| row.iter().zip(x).fold(0.0f32, |s, (w, &xi)| w.mul_add(xi, s)) + b)
        .collect()
}

/// Feature squeezing as originally specified: depth-reduce every value,
/// then replace each pixel by the middle of its in-frame window sorted
/// with `f32::total_cmp`.
fn squeeze_reference(fs: &FeatureSqueezing, video: &Video) -> Vec<f32> {
    let spec = video.spec();
    let (n, h, w, c) = (spec.frames, spec.height, spec.width, spec.channels);
    let levels = (1u32 << fs.bits) as f32 - 1.0;
    let src: Vec<f32> = video
        .tensor()
        .as_slice()
        .iter()
        .map(|&v| ((v / 255.0 * levels).round() / levels * 255.0).clamp(0.0, 255.0))
        .collect();
    if fs.median_radius == 0 {
        return src;
    }
    let r = fs.median_radius as isize;
    let mut dst = src.clone();
    let mut window = Vec::new();
    for f in 0..n {
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    window.clear();
                    for dy in -r..=r {
                        for dx in -r..=r {
                            let (yy, xx) = (y as isize + dy, x as isize + dx);
                            if yy >= 0 && (yy as usize) < h && xx >= 0 && (xx as usize) < w {
                                window
                                    .push(src[((f * h + yy as usize) * w + xx as usize) * c + ch]);
                            }
                        }
                    }
                    window.sort_by(f32::total_cmp);
                    dst[((f * h + y) * w + x) * c + ch] = window[window.len() / 2];
                }
            }
        }
    }
    dst
}

/// A seeded clip mixing in-range pixels with `±0.0`, small negatives
/// (which depth-reduce to `-0.0`) and values far outside `[0, 255]`.
fn hostile_clip(spec: ClipSpec, seed: u64) -> Video {
    const SPECIAL: [f32; 8] = [-0.0, 0.0, -0.4, -3.0, 255.0, 255.6, 300.0, -1.0e6];
    let mut rng = Rng64::new(seed);
    let len = spec.frames * spec.height * spec.width * spec.channels;
    let values: Vec<f32> =
        (0..len)
            .map(|_| {
                if rng.below(4) == 0 {
                    *rng.choose(&SPECIAL)
                } else {
                    rng.uniform() * 320.0 - 30.0
                }
            })
            .collect();
    let dims = [spec.frames, spec.height, spec.width, spec.channels];
    Video::from_tensor(spec, Tensor::from_vec(values, &dims).unwrap()).unwrap()
}

fn assert_squeeze_matches(spec: ClipSpec, radius: usize, bits_kept: u8, seed: u64) {
    let fs = FeatureSqueezing { bits: bits_kept, median_radius: radius };
    let clip = hostile_clip(spec, seed);
    assert_eq!(
        bits(&squeeze_reference(&fs, &clip)),
        bits(fs.transform(&clip).tensor().as_slice()),
        "squeeze r{radius} b{bits_kept} drifted on {spec:?} (seed {seed})"
    );
}

check! {
    #![config(config())]

    fn linear_infer_is_the_sequential_fma_fold(
        shape in (1usize..96, 0usize..5, 1usize..8),
        s in 0u64..0x1000_0000,
    ) {
        let (nin, blocks, tail) = shape;
        let nout = 8 * blocks + tail;
        let mut rng = Rng64::new(s);
        let mut head = Linear::new(nin, nout, &mut rng);
        // Nonzero biases, so "bias last" is observable.
        let mut params = Vec::new();
        head.visit_params(&mut |p| {
            if p.value.rank() == 1 {
                p.value = Tensor::randn(&[nout], 1.0, Rng64::new(!s).as_rng());
            }
            params.push(p.value.as_slice().to_vec());
        });
        let x = Tensor::randn(&[nin], 1.0, rng.as_rng());
        let expected = linear_reference(&params[0], &params[1], x.as_slice());
        let y = head.infer(&x).unwrap();
        prop_assert_eq!(bits(&expected), bits(y.as_slice()), "Linear({nin}, {nout})");
    }

    fn extract_batch_is_bitwise_per_clip_extract(
        arch_dim in (0usize..2, 9usize..40),
        batch in 1usize..5,
        workers in 1usize..3,
        s in 0u64..0x1000_0000,
    ) {
        let (arch, feature_dim) = arch_dim;
        let arch = [Architecture::I3d, Architecture::C3d][arch];
        let config = BackboneConfig::tiny().with_feature_dim(feature_dim);
        let model = Backbone::new(arch, config, &mut Rng64::new(s)).unwrap();
        let generator = SyntheticVideoGenerator::new(ClipSpec::tiny(), s);
        let clips: Vec<Video> = (0..batch as u32).map(|i| generator.generate(i, i)).collect();
        let refs: Vec<&Video> = clips.iter().collect();
        let batched = model.extract_batch(&refs, workers).unwrap();
        for (clip, embedding) in clips.iter().zip(&batched) {
            let single = model.extract(clip).unwrap();
            prop_assert_eq!(
                bits(single.as_slice()),
                bits(embedding.as_slice()),
                "{arch:?} d{feature_dim} batch {batch} on {workers} workers"
            );
        }
    }

    fn squeeze_matches_sort_oracle(
        frame in (1usize..3, 1usize..7, 1usize..40, 1usize..4),
        radius in 0usize..3,
        depth in 0usize..3,
        s in 0u64..0x1000_0000,
    ) {
        let (frames, height, width, channels) = frame;
        let spec = ClipSpec { frames, height, width, channels };
        let bits_kept = [1u8, 4, 8][depth];
        let fs = FeatureSqueezing { bits: bits_kept, median_radius: radius };
        let clip = hostile_clip(spec, s);
        prop_assert_eq!(
            bits(&squeeze_reference(&fs, &clip)),
            bits(fs.transform(&clip).tensor().as_slice()),
            "squeeze r{radius} b{bits_kept} on {spec:?}"
        );
    }
}

/// 1- and 2-pixel frames at every radius and bit depth: no pixel has a
/// full window, so the whole frame is border.
#[test]
fn squeeze_on_one_and_two_pixel_frames_matches_sort_oracle() {
    for (height, width) in [(1, 1), (1, 2), (2, 1)] {
        for radius in 0..3 {
            for bits_kept in [1, 4, 8] {
                let spec = ClipSpec { frames: 3, height, width, channels: 3 };
                assert_squeeze_matches(spec, radius, bits_kept, (height * 10 + width) as u64);
            }
        }
    }
}

/// The served geometry itself (experiment clips, default Squeeze), on a
/// natural clip and on a hostile one.
#[test]
fn squeeze_at_served_geometry_matches_sort_oracle() {
    let fs = FeatureSqueezing::default();
    let natural = SyntheticVideoGenerator::new(ClipSpec::experiment(), 7).generate(3, 1);
    assert_eq!(
        bits(&squeeze_reference(&fs, &natural)),
        bits(fs.transform(&natural).tensor().as_slice())
    );
    assert_squeeze_matches(ClipSpec::experiment(), 1, 4, 11);
}
