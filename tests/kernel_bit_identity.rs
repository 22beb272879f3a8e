//! Bit-identity property suite for the compute core.
//!
//! The determinism contract: the threaded, cache-blocked GEMM
//! (`matmul_into_with`, and conv3d as im2col followed by it) produces
//! outputs equal to the serial kernel at `f32::to_bits` granularity for
//! every shape and every thread count — workers own disjoint output rows
//! and run the identical per-element float program, so partitioning can
//! never move a bit. Thread counts {1, 2, 3, 8} cover the degenerate
//! pool, non-divisible row splits, and oversubscription; the generated
//! shapes land on every `MR`/`NR` tile remainder class.
//!
//! The wide-kernel rework extends the wall: the fused-bias entry points
//! (`gemm_bias`, `gemm_bias_with`) must equal a GEMM followed by a bias
//! loop, a `PackedA` reused across right operands must equal packing
//! fresh, and every 8-row block remainder class must survive the packed
//! kernel's full-depth store schedule.
//!
//! The convolution lowering is serial and range-driven (padding runs are
//! zero-filled, unit-stride lines are slice copies), so its wall is the
//! per-element formula itself: `im2col3d_into` must equal it bit for bit
//! in every position of a NaN-prefilled buffer, and `col2im3d` must equal
//! a naive per-element scatter-add in the same order.
//!
//! Failing case seeds persist to `tests/properties.regressions` and
//! replay before fresh generation (asserted at the bottom of this file).

use duo_check::{check, prop_assert_eq, Config, Strategy};
use duo_tensor::{
    col2im3d, gemm_bias, gemm_bias_with, gemm_packed, im2col3d_into, matmul_into_serial,
    matmul_into_with, Conv3dSpec, PackedA, Rng64, Tensor, ThreadPool,
};
use std::ops::Range;

/// Thread counts every property sweeps: serial shortcut, uneven splits,
/// and oversubscription past any sane core count for the tiny shapes.
const THREADS: [usize; 4] = [1, 2, 3, 8];

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/properties.regressions");

fn config() -> Config {
    Config::default().with_cases(24).with_regressions(REGRESSIONS)
}

/// GEMM dimension strategy, shared with the replay-order test below so
/// replayed seeds regenerate the exact committed cases.
fn dim() -> Range<usize> {
    1..48
}

fn seed() -> Range<u64> {
    0..0x1000_0000
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

check! {
    #![config(config())]

    fn threaded_matmul_is_bitwise_serial(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut serial = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut serial).unwrap();
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::zeros(&[m, n]);
            matmul_into_with(&a, &b, &mut par, &pool).unwrap();
            prop_assert_eq!(
                bits(&serial),
                bits(&par),
                "({m},{k},{n}) drifted at {threads} threads"
            );
        }
    }

    fn fused_bias_gemm_is_bitwise_unfused(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
        // Unfused reference: serial GEMM, then a bias sweep adding
        // `bias[j]` onto each finished element — bias last, exactly the
        // contract's float program.
        let mut reference = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut reference).unwrap();
        let bv = bias.as_slice().to_vec();
        for row in reference.as_mut_slice().chunks_exact_mut(n) {
            for (o, bval) in row.iter_mut().zip(&bv) {
                *o += bval;
            }
        }
        let mut fused = Tensor::full(&[m, n], f32::NAN);
        gemm_bias(&a, &b, &bias, &mut fused).unwrap();
        prop_assert_eq!(
            bits(&reference),
            bits(&fused),
            "({m},{k},{n}) fused bias drifted from gemm + bias loop"
        );
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::full(&[m, n], f32::NAN);
            gemm_bias_with(&a, &b, &bias, &mut par, &pool).unwrap();
            prop_assert_eq!(
                bits(&reference),
                bits(&par),
                "({m},{k},{n}) fused bias drifted at {threads} threads"
            );
        }
    }

    fn packed_a_reuse_is_bitwise_fresh(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b1 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let b2 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let packed = PackedA::pack(&a).unwrap();
        // One packing, two right operands — the reuse pattern of
        // `Conv3d::infer_batch` — must match the fresh serial kernel on
        // both products.
        for bmat in [&b1, &b2] {
            let mut serial = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, bmat, &mut serial).unwrap();
            let mut reused = Tensor::full(&[m, n], f32::NAN);
            gemm_packed(&packed, bmat, &mut reused).unwrap();
            prop_assert_eq!(
                bits(&serial),
                bits(&reused),
                "({m},{k},{n}) packed-A reuse drifted from the serial kernel"
            );
        }
    }

    fn threaded_conv3d_is_bitwise_serial(
        oc in 1usize..6,
        thw in (3usize..7, 3usize..7, 3usize..7),
        ck in (1usize..3, 1usize..4),
        s in seed(),
    ) {
        let (t, h, w) = thw;
        let (chans, kern) = ck;
        let spec = Conv3dSpec::cubic(chans, kern, (1, 1, 1), 1);
        let mut rng = Rng64::new(s);
        let input = Tensor::randn(&[chans, t, h, w], 1.0, rng.as_rng());
        let (ot, oh, ow) = spec.output_thw(t, h, w).unwrap();
        let rows = chans * kern * kern * kern;
        let cols = ot * oh * ow;
        let weight = Tensor::randn(&[oc, rows], 1.0, rng.as_rng());

        // One serial lowering, then the serial GEMM against the threaded one.
        let mut cols_mat = Tensor::full(&[rows, cols], f32::NAN);
        im2col3d_into(&input, &spec, &mut cols_mat).unwrap();
        let mut out_serial = Tensor::zeros(&[oc, cols]);
        matmul_into_serial(&weight, &cols_mat, &mut out_serial).unwrap();

        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut out_par = Tensor::zeros(&[oc, cols]);
            matmul_into_with(&weight, &cols_mat, &mut out_par, &pool).unwrap();
            prop_assert_eq!(
                bits(&out_serial),
                bits(&out_par),
                "conv3d [{chans},{t},{h},{w}] k{kern} oc{oc} drifted at {threads} threads"
            );
        }
    }
}

check! {
    // Lowering cases are tiny, so sweep more of them: per-axis strides
    // 1–3, padding 0–2 (often ≥ the kernel) and 1-wide inputs all recur.
    #![config(config().with_cases(96))]

    fn im2col_matches_reference_formula(
        cs in (1usize..3, seed()),
        thw in (1usize..6, 1usize..6, 1usize..6),
        kern in (1usize..4, 1usize..4, 1usize..4),
        stride in (1usize..4, 1usize..4, 1usize..4),
        pad in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let (chans, s) = cs;
        let (t, h, w) = thw;
        let spec = conv_case(chans, thw, kern, stride, pad);
        let input = Tensor::randn(&[chans, t, h, w], 1.0, Rng64::new(s).as_rng());
        let expected = im2col_reference(&input, &spec);
        let mut cols = Tensor::full(expected.dims(), f32::NAN);
        im2col3d_into(&input, &spec, &mut cols).unwrap();
        prop_assert_eq!(bits(&expected), bits(&cols), "im2col {spec:?} on [{chans},{t},{h},{w}]");
    }

    fn col2im_matches_naive_scatter(
        cs in (1usize..3, seed()),
        thw in (1usize..6, 1usize..6, 1usize..6),
        kern in (1usize..4, 1usize..4, 1usize..4),
        stride in (1usize..4, 1usize..4, 1usize..4),
        pad in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let (chans, s) = cs;
        let (t, h, w) = thw;
        let spec = conv_case(chans, thw, kern, stride, pad);
        let grad = Tensor::randn(&col_dims(&spec, thw), 1.0, Rng64::new(s).as_rng());
        let expected = col2im_reference(&grad, &spec, t, h, w);
        let folded = col2im3d(&grad, &spec, t, h, w).unwrap();
        prop_assert_eq!(bits(&expected), bits(&folded), "col2im {spec:?} onto [{chans},{t},{h},{w}]");
    }
}

/// Per-axis conv geometry from generated `(t, h, w)`, kernel, stride and
/// padding, with each kernel extent clamped to its padded input so every
/// case is a valid lowering (padding may still exceed the kernel).
fn conv_case(
    chans: usize,
    (t, h, w): (usize, usize, usize),
    (kt, kh, kw): (usize, usize, usize),
    (st, sh, sw): (usize, usize, usize),
    (pt, ph, pw): (usize, usize, usize),
) -> Conv3dSpec {
    Conv3dSpec {
        in_channels: chans,
        kt: kt.min(t + 2 * pt),
        kh: kh.min(h + 2 * ph),
        kw: kw.min(w + 2 * pw),
        st,
        sh,
        sw,
        pt,
        ph,
        pw,
    }
}

/// `[rows, cols]` of the column matrix lowering a `(t, h, w)` input.
fn col_dims(spec: &Conv3dSpec, (t, h, w): (usize, usize, usize)) -> [usize; 2] {
    let (ot, oh, ow) = spec.output_thw(t, h, w).unwrap();
    [spec.in_channels * spec.kt * spec.kh * spec.kw, ot * oh * ow]
}

/// Input index `o·s + k − p` along one axis, or `None` in the padding.
fn tap(o: usize, k: usize, s: usize, p: usize, n: usize) -> Option<usize> {
    (o * s + k).checked_sub(p).filter(|&i| i < n)
}

/// Calls `visit(row, col, input_index)` for every column-matrix position
/// in row-major order, with `None` where the tap reads padding: the
/// per-element definition of the 3-D lowering.
fn for_each_tap(
    spec: &Conv3dSpec,
    (t, h, w): (usize, usize, usize),
    mut visit: impl FnMut(usize, usize, Option<usize>),
) {
    let (ot, oh, ow) = spec.output_thw(t, h, w).unwrap();
    let mut row = 0;
    for ch in 0..spec.in_channels {
        for kz in 0..spec.kt {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let mut col = 0;
                    for oz in 0..ot {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let src = match (
                                    tap(oz, kz, spec.st, spec.pt, t),
                                    tap(oy, ky, spec.sh, spec.ph, h),
                                    tap(ox, kx, spec.sw, spec.pw, w),
                                ) {
                                    (Some(z), Some(y), Some(x)) => {
                                        Some(((ch * t + z) * h + y) * w + x)
                                    }
                                    _ => None,
                                };
                                visit(row, col, src);
                                col += 1;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

fn im2col_reference(input: &Tensor, spec: &Conv3dSpec) -> Tensor {
    let thw = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let dims = col_dims(spec, thw);
    let mut out = Tensor::zeros(&dims);
    let (iv, ov) = (input.as_slice(), out.as_mut_slice());
    for_each_tap(spec, thw, |row, col, src| {
        ov[row * dims[1] + col] = src.map_or(0.0, |i| iv[i]);
    });
    out
}

fn col2im_reference(grad: &Tensor, spec: &Conv3dSpec, t: usize, h: usize, w: usize) -> Tensor {
    let cols = grad.dims()[1];
    let mut out = Tensor::zeros(&[spec.in_channels, t, h, w]);
    let (gv, ov) = (grad.as_slice(), out.as_mut_slice());
    for_each_tap(spec, (t, h, w), |row, col, src| {
        if let Some(i) = src {
            ov[i] += gv[row * cols + col];
        }
    });
    out
}

/// Fixed shapes that straddle the blocking constants (`KC = 256`,
/// `NC = 1024`, `MR = 4`, `NR = 16`): multi-panel k, multi-panel n, and
/// dimensions one off every tile multiple.
#[test]
fn panel_boundary_shapes_are_bitwise_serial() {
    let mut rng = Rng64::new(0xb10c);
    for &(m, k, n) in &[
        (13usize, 259usize, 60usize), // k crosses one KC boundary, odd everything
        (5, 513, 48),                 // k spans three KC panels
        (9, 40, 1030),                // n crosses the NC panel boundary
        (64, 256, 64),                // exact tile/panel multiples
        (3, 17, 15),                  // below one NR tile, m < MR
    ] {
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let mut serial = Tensor::zeros(&[m, n]);
        matmul_into_serial(&a, &b, &mut serial).unwrap();
        for &threads in &THREADS {
            let pool = ThreadPool::new(threads);
            let mut par = Tensor::zeros(&[m, n]);
            matmul_into_with(&a, &b, &mut par, &pool).unwrap();
            assert_eq!(
                serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n}) drifted at {threads} threads"
            );
        }
    }
}

/// Every row-remainder class of the 8-row packed kernel, with the depth
/// crossing the legacy `KC = 256` panel boundary: the packed path sweeps
/// full depth in one register pass while the serial reference re-panels
/// at `KC`, so these shapes prove the store-schedule difference never
/// moves a bit. `m ∈ {1, 4, 7}` never fills a block (pure
/// `micro_4`/`micro_1` tail), `{8, 16}` are exact blocks, `{9, 15, 17}`
/// mix full blocks with every tail size class.
#[test]
fn eight_row_block_boundaries_are_bitwise_serial() {
    let mut rng = Rng64::new(0x8b10c);
    for &m in &[1usize, 4, 7, 8, 9, 15, 16, 17] {
        for &(k, n) in &[(259usize, 37usize), (300, 64)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
            let mut serial = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, &b, &mut serial).unwrap();
            let mut expected_bias = serial.clone();
            for row in expected_bias.as_mut_slice().chunks_exact_mut(n) {
                for (o, bval) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bval;
                }
            }
            for &threads in &THREADS {
                let pool = ThreadPool::new(threads);
                let mut par = Tensor::full(&[m, n], f32::NAN);
                matmul_into_with(&a, &b, &mut par, &pool).unwrap();
                assert_eq!(
                    bits(&serial),
                    bits(&par),
                    "({m},{k},{n}) drifted at {threads} threads"
                );
                let mut fused = Tensor::full(&[m, n], f32::NAN);
                gemm_bias_with(&a, &b, &bias, &mut fused, &pool).unwrap();
                assert_eq!(
                    bits(&expected_bias),
                    bits(&fused),
                    "({m},{k},{n}) fused bias drifted at {threads} threads"
                );
            }
        }
    }
}

/// The committed kernel regression seeds must replay *before* fresh
/// generation: running the property with zero fresh cases must evaluate
/// exactly the values those seeds regenerate, in file order.
#[test]
fn committed_regression_seeds_replay_before_fresh_generation() {
    let text = std::fs::read_to_string(REGRESSIONS).unwrap();
    let committed: Vec<u64> = duo_check::parse_regressions(&text)
        .into_iter()
        .filter(|(name, _)| name == "threaded_matmul_is_bitwise_serial")
        .map(|(_, s)| s)
        .collect();
    assert!(
        !committed.is_empty(),
        "tests/properties.regressions must carry the PR 5 kernel seeds"
    );
    for required in ["im2col_matches_reference_formula", "fused_bias_gemm_is_bitwise_unfused"] {
        assert!(
            duo_check::parse_regressions(&text).iter().any(|(name, _)| name == required),
            "tests/properties.regressions must carry a seed for {required}"
        );
    }

    let strategy = (dim(), dim(), dim(), seed());
    let observed = std::cell::RefCell::new(Vec::new());
    let cfg = Config::default().with_cases(0).with_regressions(REGRESSIONS);
    let outcome = duo_check::run_property_result(
        "threaded_matmul_is_bitwise_serial",
        &cfg,
        &strategy,
        |value| {
            observed.borrow_mut().push(*value);
            Ok(())
        },
    );
    assert!(outcome.is_ok(), "recorder property cannot fail");

    let expected: Vec<(usize, usize, usize, u64)> = committed
        .iter()
        .map(|&s| strategy.generate(&mut Rng64::new(s)))
        .collect();
    assert_eq!(
        *observed.borrow(),
        expected,
        "replayed cases must come first and regenerate the committed seeds exactly"
    );
}
