//! Blocked serial matrix multiplication.
//!
//! The convolution kernels in this crate lower to matrix multiplication
//! via im2col, so `matmul` dominates the runtime of every model
//! forward/backward pass in the workspace. Every product runs one
//! cache-blocked kernel with packed operands on both sides: A is packed
//! into 8-row interleaved blocks ([`PackedA`], reusable across calls that
//! share a left operand, with the final partial block zero-padded to 8
//! rows), B is packed once per call into [`NR2`]-column depth-major
//! strips ([`PackedB`]), and a hand-unrolled `8 × NR2` two-accumulator
//! micro-kernel ([`micro_8w`], with [`micro_8n`] for the narrow final
//! strip) sweeps 8 output rows across the full depth in one register
//! pass. Rows left over after the last full block are a masked tail: the
//! kernel computes the padded block into a scratch tile and copies out
//! only its live rows. Bias addition is fused into the final store
//! ([`gemm_bias`]) instead of costing a second pass over the output.
//!
//! The kernel is serial by design: the served query gets its concurrency
//! from duo-serve's request workers and the attack from its metered
//! clients, so an intra-op split of one product only competes with them
//! for the same cores.
//!
//! # Determinism contract
//!
//! Every path through this module — the wide and narrow micro-kernels,
//! the scalar column tail, a full block or a masked tail, bias fused or
//! not — builds a given output element `out[i][j]` by the *same* float
//! program: start from `0.0`, fold in `a[i][p].mul_add(b[p][j], acc)`
//! (one IEEE fused multiply-add, single rounding per step) in strictly
//! increasing `p` order, then add `bias[j]` last if a bias is given. The
//! FMA order is *fixed*: no kernel may re-associate, split a fused step
//! into mul-then-add, or hoist the bias. Packing only relocates operand
//! bytes; it never reorders the accumulation, and the zero padding rows
//! never reach the output. So [`matmul_into_reference`] — the contract's
//! program written as a plain loop — is the oracle every entry point
//! equals at `f32::to_bits`, and `gemm_bias` is bit-equal to `gemm`
//! followed by a bias loop, because `f32` addition of the same operands
//! in the same order is one program. The property suite in
//! `tests/kernel_bit_identity.rs` enforces this contract.

use crate::{Tensor, TensorError};

/// Rows swept together by the packed micro-kernels; also the A packing
/// block height.
const MR8: usize = 8;
/// Column width of the wide micro-kernel's main tile and of the packed B
/// strips (two NR-wide accumulator pairs).
const NR2: usize = 2 * NR;
/// Columns held in the accumulator tile.
const NR: usize = 16;

fn validate(a: &Tensor, b: &Tensor, out: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op: "matmul" });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: b.rank(), op: "matmul" });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    if out.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![m, n],
            op: "gemm(out)",
        });
    }
    Ok((m, k, n))
}

fn validate_bias(bias: &Tensor, n: usize) -> Result<(), TensorError> {
    if bias.rank() != 1 {
        return Err(TensorError::RankMismatch { expected: 1, actual: bias.rank(), op: "gemm_bias" });
    }
    if bias.dims()[0] != n {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.dims().to_vec(),
            rhs: vec![n],
            op: "gemm_bias(bias)",
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Workspace buffer cache
// ---------------------------------------------------------------------

/// Process-wide recycling bin for the transient `Vec<f32>` workspaces the
/// GEMM burns through (packed A, packed B). Serving workloads issue the
/// same shapes call after call; without reuse every call mmaps fresh
/// pages and pays the page-fault tax again. Buffers handed out by
/// [`take`] carry arbitrary stale contents; both packers write all `len`
/// elements (padding rows included), so no value ever leaks between
/// calls.
mod workspace {
    use std::sync::Mutex;

    /// Max cached buffers and max floats per cached buffer (16 MiB) —
    /// bounds worst-case idle retention at ~256 MiB while covering every
    /// shape the serving/attack workloads use.
    const MAX_ENTRIES: usize = 16;
    const MAX_FLOATS: usize = 1 << 22;

    static BIN: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

    /// Returns a buffer of exactly `len` elements with unspecified
    /// contents (best-fitting cached allocation, else fresh).
    pub(super) fn take(len: usize) -> Vec<f32> {
        let mut bin = BIN.lock().expect("workspace bin lock");
        // Smallest cached buffer whose capacity already covers `len`;
        // falls back to the largest one (realloc grows it in place-ish)
        // or a fresh Vec.
        let mut pick: Option<usize> = None;
        for (idx, buf) in bin.iter().enumerate() {
            if buf.capacity() >= len {
                let better = pick.is_none_or(|p: usize| buf.capacity() < bin[p].capacity());
                if better {
                    pick = Some(idx);
                }
            }
        }
        let mut buf = match pick {
            Some(idx) => bin.swap_remove(idx),
            None => Vec::new(),
        };
        drop(bin);
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a workspace to the bin for reuse (oversized or surplus
    /// buffers are simply dropped).
    pub(super) fn give(buf: Vec<f32>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_FLOATS {
            return;
        }
        // `PackedA`'s `Drop` calls this, so it must not panic: a poisoned
        // bin only costs the cache this buffer.
        let Ok(mut bin) = BIN.lock() else { return };
        if bin.len() < MAX_ENTRIES {
            bin.push(buf);
        }
    }
}

// ---------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------

/// The left GEMM operand packed for the micro-kernels, reusable across
/// calls ([`gemm_packed`]).
///
/// Layout: rows are grouped into blocks of 8 (`MR8`); within block `b`,
/// element `a[8b + r][p]` lives at `data[8bk + 8p + r]`, so the wide
/// micro-kernel (`micro_8w`) reads each depth step as 8 contiguous
/// floats. When `rows % 8 != 0` the final block is zero-padded to 8 rows;
/// the kernels compute the padding rows like any other, and they never
/// reach the output.
///
/// A `PackedA` is a snapshot — it does not observe later writes to the
/// tensor it was packed from, so repack after any weight update (the nn
/// layers pack per `forward` / `infer_batch` call, which makes staleness
/// impossible by construction).
pub struct PackedA {
    data: Vec<f32>,
    rows: usize,
    k: usize,
}

impl std::fmt::Debug for PackedA {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedA").field("rows", &self.rows).field("k", &self.k).finish()
    }
}

impl PackedA {
    /// Packs a rank-2 tensor as a reusable left GEMM operand.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `a` is not rank 2.
    pub fn pack(a: &Tensor) -> Result<PackedA, TensorError> {
        if a.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op: "pack_a" });
        }
        Ok(Self::pack_slice(a.as_slice(), a.dims()[0], a.dims()[1]))
    }

    fn pack_slice(av: &[f32], rows: usize, k: usize) -> PackedA {
        let blocks = rows.div_ceil(MR8);
        let mut data = workspace::take(blocks * MR8 * k);
        for b in 0..blocks {
            let dst = &mut data[b * MR8 * k..(b + 1) * MR8 * k];
            for r in 0..MR8 {
                let i = b * MR8 + r;
                if i < rows {
                    for (p, &x) in av[i * k..(i + 1) * k].iter().enumerate() {
                        dst[p * MR8 + r] = x;
                    }
                } else {
                    for p in 0..k {
                        dst[p * MR8 + r] = 0.0;
                    }
                }
            }
        }
        PackedA { data, rows, k }
    }

    /// Row count of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Depth (column count) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Drop for PackedA {
    /// Returns the packing buffer to the workspace bin. A packing draws its
    /// buffer from that bin, possibly one much larger than it needs;
    /// freeing it instead would make the next B panel of that size
    /// allocate and page-fault afresh.
    fn drop(&mut self) {
        workspace::give(std::mem::take(&mut self.data));
    }
}

/// The right GEMM operand packed once per call into column strips of
/// [`NR2`] columns: strip `s` covers columns `[s·NR2, s·NR2 + w)`
/// (`w < NR2` only for the final strip) and stores element `b[p][j]` at
/// `strip_base + p·w + (j − s·NR2)`, so the wide micro-kernel streams
/// one contiguous strip for its entire depth sweep.
struct PackedB {
    data: Vec<f32>,
}

fn pack_b_slice(bv: &[f32], k: usize, n: usize) -> PackedB {
    let mut data = workspace::take(k * n);
    // Rows outer, strips inner: each source row is read once,
    // sequentially, and scattered to the per-strip cursors. The obvious
    // strip-outer order instead reads at stride `n` — jumps that cross a
    // page every couple of rows, defeat the prefetchers, and make
    // packing cost a measurable slice of the whole GEMM at depth ≥ 1024.
    let full = n / NR2 * NR2;
    // Row-group blocking: 8 source rows (L1-resident) are scattered per
    // pass, so each strip receives one contiguous 8-row chunk instead of
    // a single [`NR2`]-wide sliver — sequential reads *and* chunked
    // sequential writes.
    let mut p0 = 0;
    while p0 < k {
        let pg = MR8.min(k - p0);
        let rows = &bv[p0 * n..(p0 + pg) * n];
        let mut js = 0;
        while js < full {
            let dst = js * k + p0 * NR2;
            for (p, row) in rows.chunks_exact(n).enumerate() {
                data[dst + p * NR2..dst + p * NR2 + NR2].copy_from_slice(&row[js..js + NR2]);
            }
            js += NR2;
        }
        if full < n {
            let w = n - full;
            let dst = full * k + p0 * w;
            for (p, row) in rows.chunks_exact(n).enumerate() {
                data[dst + p * w..dst + p * w + w].copy_from_slice(&row[full..]);
            }
        }
        p0 += pg;
    }
    PackedB { data }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// GEMM entry point: `out = a · b` into a preallocated output, on the
/// packed serial kernel.
///
/// `out` must have shape `[a.rows, b.cols]`; its previous contents are
/// overwritten. Prefer this over [`Tensor::matmul`] inside hot loops to
/// avoid reallocation.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if any operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the dimensions are incompatible.
pub fn gemm(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    let pa = PackedA::pack_slice(a.as_slice(), m, k);
    gemm_kernel(&pa, b.as_slice(), None, out.as_mut_slice(), n);
    Ok(())
}

/// GEMM with fused column bias: `out = a · b + bias` with `bias`
/// broadcast across rows (`bias.len() == b.cols`).
///
/// The bias add is fused into the micro-kernel's final store, so it
/// costs no extra pass over `out` — yet the result is bit-identical to
/// [`gemm`] followed by `out[i][j] += bias[j]`, because both orderings
/// add `bias[j]` to the identical completed sum (asserted by the property
/// suite in `tests/kernel_bit_identity.rs`).
///
/// # Errors
///
/// Same as [`gemm`], plus rank/shape errors for a `bias` that is not a
/// length-`n` vector.
pub fn gemm_bias(a: &Tensor, b: &Tensor, bias: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    validate_bias(bias, n)?;
    let pa = PackedA::pack_slice(a.as_slice(), m, k);
    gemm_kernel(&pa, b.as_slice(), Some(bias.as_slice()), out.as_mut_slice(), n);
    Ok(())
}

/// [`gemm`] against a pre-packed left operand, skipping the per-call A
/// packing. `Conv3d::infer_batch` packs its weight matrix once and reuses
/// it for every item in the batch.
///
/// # Errors
///
/// Same shape errors as [`gemm`] with `a`'s shape taken from the packing.
pub fn gemm_packed(pa: &PackedA, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let n = validate_packed(pa, b, out)?;
    gemm_kernel(pa, b.as_slice(), None, out.as_mut_slice(), n);
    Ok(())
}

fn validate_packed(pa: &PackedA, b: &Tensor, out: &Tensor) -> Result<usize, TensorError> {
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: b.rank(), op: "matmul" });
    }
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if pa.k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![pa.rows, pa.k],
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    if out.dims() != [pa.rows, n] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![pa.rows, n],
            op: "gemm(out)",
        });
    }
    Ok(n)
}

/// The determinism contract's float program written as a plain i-k-j
/// loop: the test oracle every entry point must equal at `f32::to_bits`,
/// and the benchmark baseline (`benches/gemm.rs` reports the packed
/// kernel's speedup against it). It performs every product, zero
/// operands included, so a `0 × ∞` or `0 × NaN` term poisons its output
/// exactly as it does the packed kernel's.
///
/// # Errors
///
/// Same shape/rank errors as [`gemm`].
pub fn matmul_into_reference(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    ov.fill(0.0);
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut ov[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow) {
                *o = aip.mul_add(bpn, *o);
            }
        }
    }
    Ok(())
}

/// Multiplies two rank-2 tensors, allocating the output.
///
/// # Errors
///
/// Same as [`gemm`].
pub(crate) fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[a.dims()[0], b.dims()[1]]);
    gemm(a, b, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Packed GEMM `ov = pa · bv[k × n] (+ bias)`: packs B into strips, runs
/// [`gemm_strips`], and returns the B packing to the workspace bin.
fn gemm_kernel(pa: &PackedA, bv: &[f32], bias: Option<&[f32]>, ov: &mut [f32], n: usize) {
    let pb = pack_b_slice(bv, pa.k, n);
    gemm_strips(&pa.data, pa.rows, pa.k, &pb.data, n, bias, ov);
    workspace::give(pb.data);
}

/// The micro-kernels over every (B strip, 8-row block) pair:
/// `ov[rows × n] = pa · pb (+ bias)` with `pa` a [`PackedA`] buffer and
/// `pb` a [`PackedB`] buffer.
///
/// Each 8-row block sweeps the *entire depth* against one B strip at a
/// time ([`micro_8w`]/[`micro_8n`]): accumulators live in registers for
/// the whole `k` extent and are stored exactly once, with the optional
/// bias fused into that store — no output pre-fill, no partial sums
/// round-tripping through memory. The A block (`8·k` floats) stays hot
/// across strips; each strip (`k·NR2` floats) streams once per block.
/// A zero `k` needs no special case: the depth loops run zero times and
/// each element is `0.0` plus its bias.
///
/// When `rows % 8 != 0` the final, zero-padded block is a masked tail: it
/// runs the same kernel into an 8-row scratch tile, and only its live
/// rows are copied to `ov`. The kernels themselves never branch on a row
/// count: masking each store inside them measured about 20–25% slower at
/// both smoke-scale GEMM bench shapes.
///
/// The packed operands arrive as slice parameters, not through
/// `&PackedA`: only then does the optimizer know they cannot alias `ov`,
/// and the kernel measured about 1.7× slower without that (smoke-scale
/// GEMM bench, 96×160×80).
#[allow(clippy::too_many_arguments)]
fn gemm_strips(
    pa: &[f32],
    rows: usize,
    k: usize,
    pb: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    ov: &mut [f32],
) {
    let full = rows - rows % MR8;
    let mut tile = [0.0f32; MR8 * NR2];
    // Strips outer, row-blocks inner: the strip under work stays warm
    // while the A blocks stream past it sequentially once per strip —
    // the A side is `rows/8`× smaller than re-streaming all of B per
    // row-block would be.
    let mut cursor = 0;
    let mut js = 0;
    while js < n {
        let w = NR2.min(n - js);
        let strip = &pb[cursor..cursor + k * w];
        cursor += k * w;
        let bias = bias.map(|bv| &bv[js..js + w]);
        let mut i = 0;
        while i < full {
            block(&pa[i * k..(i + MR8) * k], strip, k, w, &mut ov[i * n + js..], n, bias);
            i += MR8;
        }
        if full < rows {
            block(&pa[full * k..], strip, k, w, &mut tile, w, bias);
            for (r, row) in tile.chunks_exact(w).take(rows - full).enumerate() {
                let base = (full + r) * n + js;
                ov[base..base + w].copy_from_slice(row);
            }
        }
        js += w;
    }
}

/// One 8-row block against one `w`-column B strip, written to
/// `out[r·ld + j]`: the wide kernel for a full strip, the narrow one for
/// the final strip. Kept out of line so full blocks and the masked tail
/// share one copy of the unrolled kernels.
#[inline(never)]
fn block(
    ablock: &[f32],
    strip: &[f32],
    k: usize,
    w: usize,
    out: &mut [f32],
    ld: usize,
    bias: Option<&[f32]>,
) {
    if w == NR2 {
        micro_8w(ablock, strip, out, ld, bias);
    } else {
        micro_8n(ablock, strip, k, w, out, ld, bias);
    }
}

/// Wide packed micro-kernel: 8 output rows × one full-width B strip,
/// sweeping the **entire depth** in one register pass. The accumulators
/// are four `[[f32; NR]; 4]` tiles — a two-accumulator unroll where
/// `lo`/`hi` split the 8 rows and `_a`/`_b` split the [`NR2`]-column
/// pair — 16 wide vectors total, sized to the AVX-512 register file.
/// `ablock` is the packed A block (`ablock[8p + r]`, depth-major: every
/// depth step reads 8 contiguous floats, and each broadcast B value
/// feeds 8 FMAs); `strip` is one packed B strip (`strip[p·NR2 + j]`);
/// row `r` lands at `out[r·ld..]`. The FMA order is fixed: per element,
/// products accumulate from `0.0` in increasing `p`, and the optional
/// `bias[j]` (already offset to the strip) lands after the final
/// product, fused into the single store. The 8-row body is deliberately
/// hand-unrolled: a generic `for r in 0..8` formulation measurably
/// defeats the autovectorizer.
#[inline(always)]
fn micro_8w(ablock: &[f32], strip: &[f32], out: &mut [f32], ld: usize, bias: Option<&[f32]>) {
    let mut lo_a = [[0.0f32; NR]; 4];
    let mut lo_b = [[0.0f32; NR]; 4];
    let mut hi_a = [[0.0f32; NR]; 4];
    let mut hi_b = [[0.0f32; NR]; 4];
    // chunks_exact (not indexed slicing) so the depth loop carries no
    // bounds checks: both iterators yield fixed-size chunks whose length
    // the optimizer knows statically.
    for (ar, br) in ablock.chunks_exact(MR8).zip(strip.chunks_exact(NR2)) {
        let (b0, b1) = br.split_at(NR);
        let x0 = ar[0];
        let x1 = ar[1];
        let x2 = ar[2];
        let x3 = ar[3];
        let x4 = ar[4];
        let x5 = ar[5];
        let x6 = ar[6];
        let x7 = ar[7];
        for (jj, &bval) in b0.iter().enumerate() {
            lo_a[0][jj] = x0.mul_add(bval, lo_a[0][jj]);
            lo_a[1][jj] = x1.mul_add(bval, lo_a[1][jj]);
            lo_a[2][jj] = x2.mul_add(bval, lo_a[2][jj]);
            lo_a[3][jj] = x3.mul_add(bval, lo_a[3][jj]);
            hi_a[0][jj] = x4.mul_add(bval, hi_a[0][jj]);
            hi_a[1][jj] = x5.mul_add(bval, hi_a[1][jj]);
            hi_a[2][jj] = x6.mul_add(bval, hi_a[2][jj]);
            hi_a[3][jj] = x7.mul_add(bval, hi_a[3][jj]);
        }
        for (jj, &bval) in b1.iter().enumerate() {
            lo_b[0][jj] = x0.mul_add(bval, lo_b[0][jj]);
            lo_b[1][jj] = x1.mul_add(bval, lo_b[1][jj]);
            lo_b[2][jj] = x2.mul_add(bval, lo_b[2][jj]);
            lo_b[3][jj] = x3.mul_add(bval, lo_b[3][jj]);
            hi_b[0][jj] = x4.mul_add(bval, hi_b[0][jj]);
            hi_b[1][jj] = x5.mul_add(bval, hi_b[1][jj]);
            hi_b[2][jj] = x6.mul_add(bval, hi_b[2][jj]);
            hi_b[3][jj] = x7.mul_add(bval, hi_b[3][jj]);
        }
    }
    if let Some(bt) = bias {
        let (t0, t1) = bt.split_at(NR);
        for r in 0..4 {
            for jj in 0..NR {
                lo_a[r][jj] += t0[jj];
                lo_b[r][jj] += t1[jj];
                hi_a[r][jj] += t0[jj];
                hi_b[r][jj] += t1[jj];
            }
        }
    }
    for r in 0..4 {
        let base = r * ld;
        out[base..base + NR].copy_from_slice(&lo_a[r]);
        out[base + NR..base + NR2].copy_from_slice(&lo_b[r]);
        let base = (4 + r) * ld;
        out[base..base + NR].copy_from_slice(&hi_a[r]);
        out[base + NR..base + NR2].copy_from_slice(&hi_b[r]);
    }
}

/// Narrow-strip variant of [`micro_8w`] for the final B strip when
/// `n % NR2 != 0`: one 8×NR register pass while a full NR tile remains,
/// then a scalar column loop — each running the identical per-element
/// program (full-depth accumulation from `0.0`, bias last, single
/// store).
#[inline(always)]
fn micro_8n(
    ablock: &[f32],
    strip: &[f32],
    k: usize,
    w: usize,
    out: &mut [f32],
    ld: usize,
    bias: Option<&[f32]>,
) {
    let mut j = 0;
    while j + NR <= w {
        let mut lo = [[0.0f32; NR]; 4];
        let mut hi = [[0.0f32; NR]; 4];
        for (ar, brow) in ablock.chunks_exact(MR8).zip(strip.chunks_exact(w)) {
            let br = &brow[j..j + NR];
            let x0 = ar[0];
            let x1 = ar[1];
            let x2 = ar[2];
            let x3 = ar[3];
            let x4 = ar[4];
            let x5 = ar[5];
            let x6 = ar[6];
            let x7 = ar[7];
            for (jj, &bval) in br.iter().enumerate() {
                lo[0][jj] = x0.mul_add(bval, lo[0][jj]);
                lo[1][jj] = x1.mul_add(bval, lo[1][jj]);
                lo[2][jj] = x2.mul_add(bval, lo[2][jj]);
                lo[3][jj] = x3.mul_add(bval, lo[3][jj]);
                hi[0][jj] = x4.mul_add(bval, hi[0][jj]);
                hi[1][jj] = x5.mul_add(bval, hi[1][jj]);
                hi[2][jj] = x6.mul_add(bval, hi[2][jj]);
                hi[3][jj] = x7.mul_add(bval, hi[3][jj]);
            }
        }
        if let Some(bv) = bias {
            let bt = &bv[j..j + NR];
            for tile in lo.iter_mut() {
                for (o, &b) in tile.iter_mut().zip(bt) {
                    *o += b;
                }
            }
            for tile in hi.iter_mut() {
                for (o, &b) in tile.iter_mut().zip(bt) {
                    *o += b;
                }
            }
        }
        for (r, tile) in lo.iter().enumerate() {
            let base = r * ld + j;
            out[base..base + NR].copy_from_slice(tile);
        }
        for (r, tile) in hi.iter().enumerate() {
            let base = (4 + r) * ld + j;
            out[base..base + NR].copy_from_slice(tile);
        }
        j += NR;
    }
    while j < w {
        for r in 0..MR8 {
            let mut s = 0.0f32;
            for p in 0..k {
                s = ablock[p * MR8 + r].mul_add(strip[p * w + j], s);
            }
            if let Some(bv) = bias {
                s += bv[j];
            }
            out[r * ld + j] = s;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s = a.as_slice()[i * k + p].mul_add(b.as_slice()[p * n + j], s);
                }
                out.as_mut_slice()[i * n + j] = s;
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_hand_computed_2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::new(11);
        let a = Tensor::randn(&[4, 4], 1.0, rng.as_rng());
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn packed_kernel_is_bitwise_naive_per_element() {
        // Both sum a[i][p]·b[p][j] from 0.0 in increasing-p order, so they
        // must agree bit for bit across every masked-tail class: one exact
        // block, tail-only, blocks plus a 7- or 1-row tail, odd n.
        let mut rng = Rng64::new(21);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 16, 16),
            (16, 300, 33),
            (7, 25, 18),
            (21, 19, 35),
            (23, 40, 17),
            (9, 5, 40),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let mut fast = Tensor::full(&[m, n], f32::NAN);
            gemm(&a, &b, &mut fast).unwrap();
            assert_eq!(bits(&naive(&a, &b)), bits(&fast), "({m},{k},{n})");
        }
    }

    #[test]
    fn packed_a_layout_interleaves_blocks_and_zero_pads_the_tail() {
        // 10 rows of k=3: one full 8-block, then a second block holding
        // the 2 tail rows and 6 zero padding rows, same interleaving.
        let rows = 10;
        let k = 3;
        let a = Tensor::from_vec((1..=rows * k).map(|x| x as f32).collect(), &[rows, k]).unwrap();
        let pa = PackedA::pack(&a).unwrap();
        assert_eq!(pa.rows(), rows);
        assert_eq!(pa.k(), k);
        assert_eq!(pa.data.len(), 2 * MR8 * k);
        let av = a.as_slice();
        for b in 0..2 {
            for p in 0..k {
                for r in 0..MR8 {
                    let i = b * MR8 + r;
                    let want = if i < rows { av[i * k + p] } else { 0.0 };
                    assert_eq!(pa.data[b * MR8 * k + p * MR8 + r], want, "row {i}, depth {p}");
                }
            }
        }
    }

    #[test]
    fn gemm_bias_matches_gemm_plus_bias_loop_bitwise() {
        let mut rng = Rng64::new(22);
        for &(m, k, n) in &[(1, 3, 5), (8, 16, 16), (13, 70, 21), (24, 300, 40)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
            let mut unfused = Tensor::zeros(&[m, n]);
            gemm(&a, &b, &mut unfused).unwrap();
            for row in unfused.as_mut_slice().chunks_exact_mut(n) {
                for (o, &bb) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bb;
                }
            }
            let mut fused = Tensor::full(&[m, n], f32::NAN);
            gemm_bias(&a, &b, &bias, &mut fused).unwrap();
            assert_eq!(bits(&unfused), bits(&fused), "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_packed_reuses_packing_across_right_operands() {
        let mut rng = Rng64::new(23);
        let a = Tensor::randn(&[11, 19], 1.0, rng.as_rng());
        let pa = PackedA::pack(&a).unwrap();
        for _ in 0..3 {
            let b = Tensor::randn(&[19, 23], 1.0, rng.as_rng());
            let mut want = Tensor::zeros(&[11, 23]);
            matmul_into_reference(&a, &b, &mut want).unwrap();
            let mut got = Tensor::full(&[11, 23], f32::NAN);
            gemm_packed(&pa, &b, &mut got).unwrap();
            assert_eq!(bits(&want), bits(&got));
        }
    }

    #[test]
    fn gemm_bias_validates_bias_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 4]);
        let wrong_len = Tensor::zeros(&[5]);
        assert!(gemm_bias(&a, &b, &wrong_len, &mut out).is_err());
        let wrong_rank = Tensor::zeros(&[4, 1]);
        assert!(gemm_bias(&a, &b, &wrong_rank, &mut out).is_err());
        let good = Tensor::zeros(&[4]);
        assert!(gemm_bias(&a, &b, &good, &mut out).is_ok());
    }

    #[test]
    fn packed_entry_points_validate_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let pa = PackedA::pack(&a).unwrap();
        let bad_b = Tensor::zeros(&[4, 2]);
        let mut out = Tensor::zeros(&[2, 4]);
        assert!(gemm_packed(&pa, &bad_b, &mut out).is_err());
        let b = Tensor::zeros(&[3, 4]);
        let mut bad_out = Tensor::zeros(&[2, 3]);
        assert!(gemm_packed(&pa, &b, &mut bad_out).is_err());
        assert!(PackedA::pack(&Tensor::zeros(&[3])).is_err());
        assert!(gemm_packed(&pa, &b, &mut out).is_ok());
    }

    #[test]
    fn rejects_incompatible_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn sparse_lhs_rows_are_skipped_correctly() {
        // The mostly-zero masked attack tensors: the reference and the
        // packed kernel both perform every zero product, and with finite
        // B those add `+0.0` to an accumulator that is never `-0.0`, so
        // both land on the naive fold's values.
        let mut rng = Rng64::new(13);
        let mut a = Tensor::zeros(&[5, 8]);
        for i in [0usize, 9, 17, 33] {
            a.as_mut_slice()[i] = rng.normal();
        }
        let b = Tensor::randn(&[8, 6], 1.0, rng.as_rng());
        let fast = a.matmul(&b).unwrap();
        let mut reference = Tensor::zeros(&[5, 6]);
        matmul_into_reference(&a, &b, &mut reference).unwrap();
        assert_eq!(fast.as_slice(), reference.as_slice());
        let slow = naive(&a, &b);
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut out = Tensor::full(&[2, 2], 99.0);
        gemm(&a, &b, &mut out).unwrap();
        assert_eq!(out.as_slice(), b.as_slice(), "previous contents must not leak");
    }

    #[test]
    fn packed_path_overwrites_stale_output() {
        // The kernels skip any output pre-fill (accumulators start in
        // registers) and the masked tail stores only live rows, so stale
        // output reuse is a dedicated hazard: 19 rows leave a 3-row tail.
        let mut rng = Rng64::new(17);
        let a = Tensor::randn(&[19, 20], 1.0, rng.as_rng());
        let b = Tensor::randn(&[20, 24], 1.0, rng.as_rng());
        let mut want = Tensor::zeros(&[19, 24]);
        matmul_into_reference(&a, &b, &mut want).unwrap();
        let pa = PackedA::pack(&a).unwrap();
        let mut stale = Tensor::full(&[19, 24], f32::NAN);
        gemm_packed(&pa, &b, &mut stale).unwrap();
        assert_eq!(bits(&want), bits(&stale), "NaN canary leaked into output");
    }

    #[test]
    fn gemm_validates_out_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut bad = Tensor::zeros(&[2, 3]);
        assert!(gemm(&a, &b, &mut bad).is_err());
        assert!(matmul_into_reference(&a, &b, &mut bad).is_err());
        let mut good = Tensor::zeros(&[2, 4]);
        assert!(gemm(&a, &b, &mut good).is_ok());
    }

    #[test]
    fn degenerate_inner_dimension_zeroes_output() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 2]);
        let mut out = Tensor::full(&[3, 2], 5.0);
        gemm(&a, &b, &mut out).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        // The fused-bias path must still see the bias on a k=0 product.
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let mut with_bias = Tensor::full(&[3, 2], 5.0);
        gemm_bias(&a, &b, &bias, &mut with_bias).unwrap();
        assert_eq!(with_bias.as_slice(), &[1.5, -2.0, 1.5, -2.0, 1.5, -2.0]);
    }
}
