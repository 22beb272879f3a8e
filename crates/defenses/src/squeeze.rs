use crate::Defense;
use duo_video::Video;

/// Feature squeezing (Xu et al., NDSS'18): reduce color bit depth, then
/// median-smooth each frame spatially. Adversarial perturbations that
/// live in the low-order bits or isolated pixels are erased; natural
/// content survives nearly unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureSqueezing {
    /// Bits of color depth to keep (paper default 4).
    pub bits: u8,
    /// Median filter half-width (1 ⇒ 3×3 window).
    pub median_radius: usize,
}
duo_tensor::impl_to_json!(struct FeatureSqueezing { bits, median_radius });

impl Default for FeatureSqueezing {
    fn default() -> Self {
        FeatureSqueezing { bits: 4, median_radius: 1 }
    }
}

impl FeatureSqueezing {
    fn squeeze_depth(&self, value: f32) -> f32 {
        let levels = (1u32 << self.bits) as f32 - 1.0;
        ((value / 255.0 * levels).round() / levels * 255.0).clamp(0.0, 255.0)
    }

    /// Median of the in-frame `(2r+1)²` window around `(y, x)`, channel
    /// `ch`, of one `[h, w, c]` frame of keys: the element at rank
    /// `len / 2`, exactly what sorting the window would put there.
    fn gather_median(
        &self,
        frame: &[i32],
        (h, w, c): (usize, usize, usize),
        (y, x, ch): (usize, usize, usize),
        window: &mut Vec<i32>,
    ) -> i32 {
        let r = self.median_radius;
        window.clear();
        for yy in y.saturating_sub(r)..(y + r + 1).min(h) {
            for xx in x.saturating_sub(r)..(x + r + 1).min(w) {
                window.push(frame[(yy * w + xx) * c + ch]);
            }
        }
        let mid = window.len() / 2;
        *window.select_nth_unstable(mid).1
    }
}

/// Maps `x` to an `i32` whose signed order is [`f32::total_cmp`] order:
/// negative floats have their magnitude bits flipped. The map is a
/// bijection, so a median taken on keys picks the same bits a
/// `sort_by(f32::total_cmp)` would, `-0.0`, NaN payloads and all.
fn order_key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Inverse of [`order_key`] (the map is an involution on the bits).
fn from_key(key: i32) -> f32 {
    f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
}

/// Orders `p[i] ≤ p[j]` by min/max (no branch).
#[inline(always)]
fn sort2(p: &mut [i32; 9], i: usize, j: usize) {
    let (lo, hi) = (p[i].min(p[j]), p[i].max(p[j]));
    p[i] = lo;
    p[j] = hi;
}

/// Median of nine keys by the 19-exchange min/max network (Paeth's
/// median-of-9). Every index is a constant after inlining, so the nine
/// values live in registers and a loop of medians vectorises.
#[inline(always)]
#[rustfmt::skip]
fn median9(mut p: [i32; 9]) -> i32 {
    let p = &mut p;
    sort2(p, 1, 2); sort2(p, 4, 5); sort2(p, 7, 8);
    sort2(p, 0, 1); sort2(p, 3, 4); sort2(p, 6, 7);
    sort2(p, 1, 2); sort2(p, 4, 5); sort2(p, 7, 8);
    sort2(p, 0, 3); sort2(p, 5, 8); sort2(p, 4, 7);
    sort2(p, 3, 6); sort2(p, 1, 4); sort2(p, 2, 5);
    sort2(p, 4, 7); sort2(p, 4, 2); sort2(p, 6, 4);
    sort2(p, 4, 2);
    p[4]
}

/// Radius-1 medians of the interior columns of one row: `rows` holds the
/// three key rows `y−1, y, y+1` (each `row` keys long, `c` per pixel) and
/// `out` receives the medians of pixels `1..w−1`, elementwise over the
/// nine shifted slices.
fn median9_row(rows: &[i32], row: usize, c: usize, out: &mut [f32]) {
    let n = out.len();
    let [s0, s1, s2, s3, s4, s5, s6, s7, s8]: [&[i32]; 9] =
        std::array::from_fn(|k| &rows[(k / 3) * row + (k % 3) * c..][..n]);
    for j in 0..n {
        let p = [s0[j], s1[j], s2[j], s3[j], s4[j], s5[j], s6[j], s7[j], s8[j]];
        out[j] = from_key(median9(p));
    }
}

impl Defense for FeatureSqueezing {
    fn transform(&self, video: &Video) -> Video {
        let spec = video.spec();
        let (h, w, c) = (spec.height, spec.width, spec.channels);
        let mut out = video.clone();
        let frame_len = h * w * c;
        if self.median_radius == 0 || frame_len == 0 {
            out.tensor_mut().map_inplace(|x| self.squeeze_depth(x));
            return out;
        }
        // Pass 1: bit-depth reduction, mapped once to total-order keys.
        let keys: Vec<i32> =
            video.tensor().as_slice().iter().map(|&x| order_key(self.squeeze_depth(x))).collect();
        // Pass 2: spatial median smoothing per frame/channel. Radius-1
        // interior pixels take the median network; borders and other
        // radii select on their gathered window.
        let row = w * c;
        let mut window = Vec::new();
        let dst_frames = out.tensor_mut().as_mut_slice().chunks_exact_mut(frame_len);
        for (src, dst) in keys.chunks_exact(frame_len).zip(dst_frames) {
            for (y, dst_row) in dst.chunks_exact_mut(row).enumerate() {
                let network = self.median_radius == 1 && y >= 1 && y + 1 < h && w >= 3;
                if network {
                    median9_row(&src[(y - 1) * row..], row, c, &mut dst_row[c..row - c]);
                }
                for x in 0..w {
                    if network && x >= 1 && x + 1 < w {
                        continue;
                    }
                    for ch in 0..c {
                        let key = self.gather_median(src, (h, w, c), (y, x, ch), &mut window);
                        dst_row[x * c + ch] = from_key(key);
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "feature squeezing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_video::{ClipSpec, SyntheticVideoGenerator};

    #[test]
    fn bit_depth_reduction_quantizes_levels() {
        let fs = FeatureSqueezing { bits: 1, median_radius: 0 };
        let mut v = Video::zeros(ClipSpec::tiny());
        v.set_pixel(0, 0, 0, 0, 100.0).unwrap();
        v.set_pixel(0, 0, 1, 0, 200.0).unwrap();
        let out = fs.transform(&v);
        // 1 bit: only 0 and 255 survive.
        assert_eq!(out.pixel(0, 0, 0, 0).unwrap(), 0.0);
        assert_eq!(out.pixel(0, 0, 1, 0).unwrap(), 255.0);
    }

    #[test]
    fn median_removes_isolated_spikes() {
        let fs = FeatureSqueezing { bits: 8, median_radius: 1 };
        let mut v = Video::zeros(ClipSpec::tiny());
        v.set_pixel(2, 5, 5, 1, 255.0).unwrap();
        let out = fs.transform(&v);
        assert_eq!(out.pixel(2, 5, 5, 1).unwrap(), 0.0, "isolated spike must be erased");
    }

    #[test]
    fn natural_video_survives_roughly_unchanged() {
        let fs = FeatureSqueezing::default();
        let v = SyntheticVideoGenerator::new(ClipSpec::tiny(), 13).generate(0, 0);
        let out = fs.transform(&v);
        let delta = out.tensor().sub(v.tensor()).unwrap();
        let mean_change = delta.l1_norm() / delta.len() as f32;
        assert!(mean_change < 20.0, "mean change {mean_change} too large for natural input");
    }

    #[test]
    fn output_stays_in_range() {
        let fs = FeatureSqueezing::default();
        let v = SyntheticVideoGenerator::new(ClipSpec::tiny(), 14).generate(1, 0);
        let out = fs.transform(&v);
        assert!(out.tensor().min() >= 0.0 && out.tensor().max() <= 255.0);
    }
}
