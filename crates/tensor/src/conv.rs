//! im2col / col2im lowering for 2-D and 3-D convolution.
//!
//! Convolution layers in `duo-nn` are implemented as
//! `weights [out_c, in_c·k…] × im2col(input) [in_c·k…, positions]`, and
//! their input gradients as `col2im(weightsᵀ × grad_out)`. Keeping the
//! lowering here (as pure tensor-to-tensor functions) lets the property
//! tests validate it against a naive direct convolution.

use std::ops::Range;

use crate::{Tensor, TensorError};

/// Geometry of a 2-D convolution over `[C, H, W]` inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along height.
    pub sh: usize,
    /// Stride along width.
    pub sw: usize,
    /// Zero padding along height (applied symmetrically).
    pub ph: usize,
    /// Zero padding along width (applied symmetrically).
    pub pw: usize,
}

crate::impl_to_json!(struct Conv2dSpec { in_channels, kh, kw, sh, sw, ph, pw });

impl Conv2dSpec {
    /// Output spatial size `(out_h, out_w)` for an `[C, h, w]` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        let eh = h + 2 * self.ph;
        let ew = w + 2 * self.pw;
        if self.kh == 0 || self.kw == 0 || self.sh == 0 || self.sw == 0 {
            return Err(TensorError::InvalidGeometry("kernel/stride must be positive".into()));
        }
        if eh < self.kh || ew < self.kw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh, self.kw, eh, ew
            )));
        }
        Ok(((eh - self.kh) / self.sh + 1, (ew - self.kw) / self.sw + 1))
    }
}

/// Geometry of a 3-D convolution over `[C, T, H, W]` inputs (T = frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv3dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Kernel extent along time.
    pub kt: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along time.
    pub st: usize,
    /// Stride along height.
    pub sh: usize,
    /// Stride along width.
    pub sw: usize,
    /// Zero padding along time.
    pub pt: usize,
    /// Zero padding along height.
    pub ph: usize,
    /// Zero padding along width.
    pub pw: usize,
}

crate::impl_to_json!(struct Conv3dSpec { in_channels, kt, kh, kw, st, sh, sw, pt, ph, pw });

impl Conv3dSpec {
    /// Convenience constructor for a cubic kernel with symmetric stride/pad.
    pub fn cubic(in_channels: usize, k: usize, stride: (usize, usize, usize), pad: usize) -> Self {
        Conv3dSpec {
            in_channels,
            kt: k,
            kh: k,
            kw: k,
            st: stride.0,
            sh: stride.1,
            sw: stride.2,
            pt: pad,
            ph: pad,
            pw: pad,
        }
    }

    /// Output size `(out_t, out_h, out_w)` for a `[C, t, h, w]` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit.
    pub fn output_thw(&self, t: usize, h: usize, w: usize) -> Result<(usize, usize, usize), TensorError> {
        let et = t + 2 * self.pt;
        let eh = h + 2 * self.ph;
        let ew = w + 2 * self.pw;
        if self.kt == 0 || self.kh == 0 || self.kw == 0 || self.st == 0 || self.sh == 0 || self.sw == 0 {
            return Err(TensorError::InvalidGeometry("kernel/stride must be positive".into()));
        }
        if et < self.kt || eh < self.kh || ew < self.kw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{}x{} larger than padded input {}x{}x{}",
                self.kt, self.kh, self.kw, et, eh, ew
            )));
        }
        Ok((
            (et - self.kt) / self.st + 1,
            (eh - self.kh) / self.sh + 1,
            (ew - self.kw) / self.sw + 1,
        ))
    }
}

/// Unfolds a `[C, H, W]` input into a `[C·kh·kw, out_h·out_w]` matrix.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn im2col2d(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, TensorError> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: input.rank(), op: "im2col2d" });
    }
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: vec![spec.in_channels],
            op: "im2col2d(channels)",
        });
    }
    let (oh, ow) = spec.output_hw(h, w)?;
    let rows = c * spec.kh * spec.kw;
    let cols = oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    let iv = input.as_slice();
    let ov = out.as_mut_slice();
    for ch in 0..c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (ch * spec.kh + ky) * spec.kw + kx;
                for oy in 0..oh {
                    let y = (oy * spec.sh + ky) as isize - spec.ph as isize;
                    for ox in 0..ow {
                        let x = (ox * spec.sw + kx) as isize - spec.pw as isize;
                        let col = oy * ow + ox;
                        let val = if y >= 0 && (y as usize) < h && x >= 0 && (x as usize) < w {
                            iv[(ch * h + y as usize) * w + x as usize]
                        } else {
                            0.0
                        };
                        ov[row * cols + col] = val;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Folds a `[C·kh·kw, out_h·out_w]` gradient matrix back onto a `[C, H, W]`
/// input gradient (scatter-add; the adjoint of [`im2col2d`]).
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn col2im2d(
    cols: &Tensor,
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = spec.output_hw(h, w)?;
    let c = spec.in_channels;
    if cols.dims() != [c * spec.kh * spec.kw, oh * ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![c * spec.kh * spec.kw, oh * ow],
            op: "col2im2d",
        });
    }
    let ncols = oh * ow;
    let mut out = Tensor::zeros(&[c, h, w]);
    let cv = cols.as_slice();
    let ov = out.as_mut_slice();
    for ch in 0..c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (ch * spec.kh + ky) * spec.kw + kx;
                for oy in 0..oh {
                    let y = (oy * spec.sh + ky) as isize - spec.ph as isize;
                    if y < 0 || y as usize >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let x = (ox * spec.sw + kx) as isize - spec.pw as isize;
                        if x < 0 || x as usize >= w {
                            continue;
                        }
                        ov[(ch * h + y as usize) * w + x as usize] += cv[row * ncols + oy * ow + ox];
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Unfolds a `[C, T, H, W]` input into a `[C·kt·kh·kw, out_t·out_h·out_w]`
/// matrix.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn im2col3d(input: &Tensor, spec: &Conv3dSpec) -> Result<Tensor, TensorError> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "im2col3d" });
    }
    let (t, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let (ot, oh, ow) = spec.output_thw(t, h, w)?;
    let rows = spec.in_channels * spec.kt * spec.kh * spec.kw;
    let cols = ot * oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    im2col3d_into(input, spec, &mut out)?;
    Ok(out)
}

/// Validated geometry of one im2col3d lowering.
#[derive(Clone, Copy)]
struct ColGeom {
    t: usize,
    h: usize,
    w: usize,
    ot: usize,
    oh: usize,
    ow: usize,
    cols: usize,
}

fn im2col3d_geom(
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &Tensor,
) -> Result<ColGeom, TensorError> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "im2col3d" });
    }
    let (c, t, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: vec![spec.in_channels],
            op: "im2col3d(channels)",
        });
    }
    let (ot, oh, ow) = spec.output_thw(t, h, w)?;
    let rows = c * spec.kt * spec.kh * spec.kw;
    let cols = ot * oh * ow;
    if out.dims() != [rows, cols] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![rows, cols],
            op: "im2col3d_into(out)",
        });
    }
    Ok(ColGeom { t, h, w, ot, oh, ow, cols })
}

/// The output positions `o ∈ 0..n_out` whose input coordinate
/// `o·s + k − p` lands inside `0..n_in`. Validity is monotone in `o`, so
/// the set is one half-open range: everything before it reads the low
/// padding, everything after it the high padding.
fn valid_range(n_out: usize, n_in: usize, k: usize, s: usize, p: usize) -> Range<usize> {
    // o·s + k ≥ p  ⇔  o ≥ ⌈(p − k) / s⌉
    let lo = if p > k { (p - k).div_ceil(s) } else { 0 };
    // o·s + k − p ≤ n_in − 1  ⇔  o ≤ ⌊(n_in + p − k − 1) / s⌋
    let hi = if n_in + p > k { ((n_in + p - k - 1) / s + 1).min(n_out) } else { 0 };
    lo.min(hi)..hi
}

/// One row of the column matrix: kernel tap `(ch, kz, ky, kx)`, the output
/// ranges whose reads land inside the input, and `x0`, the input column
/// the first valid `ox` reads (0 when no `ox` is valid).
struct Tap {
    ch: usize,
    kz: usize,
    ky: usize,
    z: Range<usize>,
    y: Range<usize>,
    x: Range<usize>,
    x0: usize,
}

impl Tap {
    fn of_row(spec: &Conv3dSpec, g: ColGeom, row: usize) -> Tap {
        // Invert `row = ((ch·kt + kz)·kh + ky)·kw + kx`.
        let kx = row % spec.kw;
        let rest = row / spec.kw;
        let ky = rest % spec.kh;
        let rest = rest / spec.kh;
        let kz = rest % spec.kt;
        let ch = rest / spec.kt;
        let x = valid_range(g.ow, g.w, kx, spec.sw, spec.pw);
        let x0 = if x.is_empty() { 0 } else { x.start * spec.sw + kx - spec.pw };
        Tap {
            ch,
            kz,
            ky,
            z: valid_range(g.ot, g.t, kz, spec.st, spec.pt),
            y: valid_range(g.oh, g.h, ky, spec.sh, spec.ph),
            x,
            x0,
        }
    }
}

/// [`im2col3d`] writing into a preallocated `[rows, cols]` output — every
/// position (padding zeros included) is overwritten, so the buffer can be
/// reused across the items of a batch without clearing. This is the
/// workspace-reuse entry point the batched inference path is built on:
/// the column matrix is the largest allocation of a convolution forward,
/// and sharing one across a batch amortizes its cost to one item.
///
/// The lowering is serial pure data movement. Each kernel row knows its
/// valid `oz`/`oy`/`ox` ranges up front, so padding becomes zero-filled
/// runs and, at unit width stride, every in-bounds output line is one
/// contiguous copy of an input row slice — no per-element bounds test.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn im2col3d_into(
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let g = im2col3d_geom(input, spec, out)?;
    let iv = input.as_slice();
    for (row, out_row) in out.as_mut_slice().chunks_exact_mut(g.cols).enumerate() {
        let tap = Tap::of_row(spec, g, row);
        for (oz, out_plane) in out_row.chunks_exact_mut(g.oh * g.ow).enumerate() {
            if !tap.z.contains(&oz) {
                out_plane.fill(0.0);
                continue;
            }
            let z = oz * spec.st + tap.kz - spec.pt;
            for (oy, line) in out_plane.chunks_exact_mut(g.ow).enumerate() {
                if !tap.y.contains(&oy) {
                    line.fill(0.0);
                    continue;
                }
                let y = oy * spec.sh + tap.ky - spec.ph;
                let src = &iv[((tap.ch * g.t + z) * g.h + y) * g.w..][..g.w];
                let (head, rest) = line.split_at_mut(tap.x.start);
                let (body, tail) = rest.split_at_mut(tap.x.len());
                head.fill(0.0);
                tail.fill(0.0);
                if spec.sw == 1 {
                    body.copy_from_slice(&src[tap.x0..tap.x0 + body.len()]);
                } else {
                    for (d, &s) in body.iter_mut().zip(src[tap.x0..].iter().step_by(spec.sw)) {
                        *d = s;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Folds a `[C·kt·kh·kw, out_t·out_h·out_w]` gradient matrix back onto a
/// `[C, T, H, W]` input gradient (scatter-add; the adjoint of [`im2col3d`]).
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn col2im3d(
    cols: &Tensor,
    spec: &Conv3dSpec,
    t: usize,
    h: usize,
    w: usize,
) -> Result<Tensor, TensorError> {
    let (ot, oh, ow) = spec.output_thw(t, h, w)?;
    let c = spec.in_channels;
    let rows = c * spec.kt * spec.kh * spec.kw;
    let ncols = ot * oh * ow;
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![rows, ncols],
            op: "col2im3d",
        });
    }
    let g = ColGeom { t, h, w, ot, oh, ow, cols: ncols };
    let mut out = Tensor::zeros(&[c, t, h, w]);
    let ov = out.as_mut_slice();
    // Scatter-add in row, then `oz`, `oy`, `ox` order. Padding taps are
    // skipped through each row's valid ranges rather than tested per
    // element, so every input-gradient element receives the same additions
    // in the same order as the per-element formula. Distinct `ox` of one
    // line hit distinct `x`, so a line's adds are independent and the
    // unit-stride case is one elementwise pass over contiguous slices.
    for (row, grad_row) in cols.as_slice().chunks_exact(ncols).enumerate() {
        let tap = Tap::of_row(spec, g, row);
        for oz in tap.z.clone() {
            let z = oz * spec.st + tap.kz - spec.pt;
            for oy in tap.y.clone() {
                let y = oy * spec.sh + tap.ky - spec.ph;
                let src = &grad_row[(oz * oh + oy) * ow..][tap.x.clone()];
                let dst = &mut ov[((tap.ch * t + z) * h + y) * w..][tap.x0..];
                if spec.sw == 1 {
                    for (d, &s) in dst[..src.len()].iter_mut().zip(src) {
                        *d += s;
                    }
                } else {
                    for (d, &s) in dst.iter_mut().step_by(spec.sw).zip(src) {
                        *d += s;
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Naive direct 2-D convolution used as the reference implementation.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let oc = weight.dims()[0];
        let (oh, ow) = spec.output_hw(h, w).unwrap();
        let mut out = Tensor::zeros(&[oc, oh, ow]);
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for ch in 0..c {
                        for ky in 0..spec.kh {
                            for kx in 0..spec.kw {
                                let y = (oy * spec.sh + ky) as isize - spec.ph as isize;
                                let x = (ox * spec.sw + kx) as isize - spec.pw as isize;
                                if y >= 0 && (y as usize) < h && x >= 0 && (x as usize) < w {
                                    let iv = input.as_slice()
                                        [(ch * h + y as usize) * w + x as usize];
                                    let wv = weight.as_slice()
                                        [((o * c + ch) * spec.kh + ky) * spec.kw + kx];
                                    s += iv * wv;
                                }
                            }
                        }
                    }
                    out.as_mut_slice()[(o * oh + oy) * ow + ox] = s;
                }
            }
        }
        out
    }

    #[test]
    fn im2col2d_matmul_matches_naive_conv() {
        let mut rng = Rng64::new(21);
        let spec = Conv2dSpec { in_channels: 2, kh: 3, kw: 3, sh: 2, sw: 1, ph: 1, pw: 1 };
        let input = Tensor::randn(&[2, 5, 6], 1.0, rng.as_rng());
        let weight = Tensor::randn(&[4, 2, 3, 3], 1.0, rng.as_rng());
        let cols = im2col2d(&input, &spec).unwrap();
        let wm = weight.reshape(&[4, 2 * 3 * 3]).unwrap();
        let fast = wm.matmul(&cols).unwrap();
        let slow = conv2d_naive(&input, &weight, &spec);
        let (oh, ow) = spec.output_hw(5, 6).unwrap();
        let fast = fast.reshape(&[4, oh, ow]).unwrap();
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im2d_is_adjoint_of_im2col2d() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y: the defining
        // property of the adjoint, which is exactly what backprop requires.
        let mut rng = Rng64::new(22);
        let spec = Conv2dSpec { in_channels: 2, kh: 2, kw: 3, sh: 1, sw: 2, ph: 1, pw: 0 };
        let x = Tensor::randn(&[2, 4, 7], 1.0, rng.as_rng());
        let cols = im2col2d(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 1.0, rng.as_rng());
        let lhs = cols.dot(&y).unwrap();
        let back = col2im2d(&y, &spec, 4, 7).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im3d_is_adjoint_of_im2col3d() {
        let mut rng = Rng64::new(23);
        let spec = Conv3dSpec::cubic(2, 3, (1, 2, 2), 1);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, rng.as_rng());
        let cols = im2col3d(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 1.0, rng.as_rng());
        let lhs = cols.dot(&y).unwrap();
        let back = col2im3d(&y, &spec, 4, 6, 6).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 5e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn output_geometry_matches_formula() {
        let spec = Conv3dSpec::cubic(3, 3, (2, 2, 2), 1);
        assert_eq!(spec.output_thw(8, 16, 16).unwrap(), (4, 8, 8));
        let spec2 = Conv2dSpec { in_channels: 1, kh: 3, kw: 3, sh: 1, sw: 1, ph: 0, pw: 0 };
        assert_eq!(spec2.output_hw(5, 5).unwrap(), (3, 3));
    }

    #[test]
    fn rejects_oversized_kernels() {
        let spec = Conv2dSpec { in_channels: 1, kh: 9, kw: 9, sh: 1, sw: 1, ph: 0, pw: 0 };
        assert!(spec.output_hw(5, 5).is_err());
        let spec3 = Conv3dSpec::cubic(1, 5, (1, 1, 1), 0);
        assert!(spec3.output_thw(3, 8, 8).is_err());
    }

    #[test]
    fn im2col3d_identity_kernel_is_reshape() {
        // A 1x1x1 kernel with unit stride must reproduce the input exactly.
        let mut rng = Rng64::new(24);
        let x = Tensor::randn(&[3, 2, 4, 4], 1.0, rng.as_rng());
        let spec = Conv3dSpec::cubic(3, 1, (1, 1, 1), 0);
        let cols = im2col3d(&x, &spec).unwrap();
        assert_eq!(cols.dims(), &[3, 2 * 4 * 4]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }
}
