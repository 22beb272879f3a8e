//! Bit-identity property suite for the compute core.
//!
//! The determinism contract: every GEMM entry point — `gemm`,
//! `gemm_bias`, `gemm_packed` against a reused `PackedA`, and conv3d as
//! im2col followed by the GEMM — builds each output element by the
//! contract's float program (FMA fold from `0.0` in increasing depth,
//! bias last), so it equals the plain-loop oracle
//! `matmul_into_reference` (plus a bias loop) at `f32::to_bits`
//! granularity for every shape. Outputs are NaN-prefilled, so an element
//! the kernel fails to store shows up as a mismatch. The generated shapes
//! land on every 8-row masked-tail class and every `NR`/`NR2` column
//! remainder; fixed-shape tests cover m = 1..=17 with the depth crossing
//! 256, degenerate (zero-sized) products, and non-finite B under zero A
//! entries.
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
    col2im3d, gemm, gemm_bias, gemm_packed, im2col3d_into, matmul_into_reference, Conv3dSpec,
    PackedA, Rng64, Tensor,
};
use std::ops::Range;

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

/// The oracle's product `a · b`.
fn oracle(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::full(&[a.dims()[0], b.dims()[1]], f32::NAN);
    matmul_into_reference(a, b, &mut out).unwrap();
    out
}

/// The oracle's product plus a bias loop adding `bias[j]` onto each
/// finished element — bias last, exactly the contract's float program.
fn oracle_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = oracle(a, b);
    let n = b.dims()[1];
    if n > 0 {
        for row in out.as_mut_slice().chunks_exact_mut(n) {
            for (o, bval) in row.iter_mut().zip(bias.as_slice()) {
                *o += bval;
            }
        }
    }
    out
}

/// `gemm(a, b)` into a NaN-prefilled output.
fn run_gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::full(&[a.dims()[0], b.dims()[1]], f32::NAN);
    gemm(a, b, &mut out).unwrap();
    out
}

/// `gemm_bias(a, b, bias)` into a NaN-prefilled output.
fn run_gemm_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = Tensor::full(&[a.dims()[0], b.dims()[1]], f32::NAN);
    gemm_bias(a, b, bias, &mut out).unwrap();
    out
}

check! {
    #![config(config())]

    fn gemm_is_bitwise_oracle(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        prop_assert_eq!(bits(&oracle(&a, &b)), bits(&run_gemm(&a, &b)), "({m},{k},{n}) drifted");
    }

    fn fused_bias_gemm_is_bitwise_unfused(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
        prop_assert_eq!(
            bits(&oracle_bias(&a, &b, &bias)),
            bits(&run_gemm_bias(&a, &b, &bias)),
            "({m},{k},{n}) fused bias drifted from oracle + bias loop"
        );
    }

    fn packed_a_reuse_is_bitwise_fresh(m in dim(), k in dim(), n in dim(), s in seed()) {
        let mut rng = Rng64::new(s);
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b1 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let b2 = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let packed = PackedA::pack(&a).unwrap();
        // One packing, two right operands — the reuse pattern of
        // `Conv3d::infer_batch` — must match the oracle on both products.
        for bmat in [&b1, &b2] {
            let mut reused = Tensor::full(&[m, n], f32::NAN);
            gemm_packed(&packed, bmat, &mut reused).unwrap();
            prop_assert_eq!(
                bits(&oracle(&a, bmat)),
                bits(&reused),
                "({m},{k},{n}) packed-A reuse drifted from the oracle"
            );
        }
    }

    fn conv3d_gemm_is_bitwise_oracle(
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

        // One lowering, then the oracle against both ways `Conv3d` runs
        // its GEMM: a fresh packing (`infer`) and a reused one
        // (`infer_batch`).
        let mut cols_mat = Tensor::full(&[rows, cols], f32::NAN);
        im2col3d_into(&input, &spec, &mut cols_mat).unwrap();
        let want = bits(&oracle(&weight, &cols_mat));
        prop_assert_eq!(
            &want,
            &bits(&run_gemm(&weight, &cols_mat)),
            "conv3d [{chans},{t},{h},{w}] k{kern} oc{oc} drifted"
        );
        let packed = PackedA::pack(&weight).unwrap();
        let mut out = Tensor::full(&[oc, cols], f32::NAN);
        gemm_packed(&packed, &cols_mat, &mut out).unwrap();
        prop_assert_eq!(
            &want,
            &bits(&out),
            "conv3d [{chans},{t},{h},{w}] k{kern} oc{oc} drifted on a reused packing"
        );
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

/// Asserts every entry point equals the oracle on one `(a, b, bias)`.
fn assert_all_entry_points_match(a: &Tensor, b: &Tensor, bias: &Tensor) {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let want = bits(&oracle(a, b));
    assert_eq!(want, bits(&run_gemm(a, b)), "gemm ({m},{k},{n})");
    let packed = PackedA::pack(a).unwrap();
    let mut reused = Tensor::full(&[m, n], f32::NAN);
    gemm_packed(&packed, b, &mut reused).unwrap();
    assert_eq!(want, bits(&reused), "gemm_packed ({m},{k},{n})");
    assert_eq!(
        bits(&oracle_bias(a, b, bias)),
        bits(&run_gemm_bias(a, b, bias)),
        "gemm_bias ({m},{k},{n})"
    );
}

/// Fixed shapes that straddle the kernel's tile constants (`MR8 = 8`
/// rows, `NR = 16` and `NR2 = 32` columns): deep k, many strips ending in
/// a narrow one, exact block multiples, and dimensions one off every tile
/// multiple.
#[test]
fn panel_boundary_shapes_are_bitwise_serial() {
    let mut rng = Rng64::new(0xb10c);
    for &(m, k, n) in &[
        (13usize, 259usize, 60usize), // k past 256, odd everything
        (5, 513, 48),                 // deep k, tail-only block
        (9, 40, 1030),                // 32 full strips, 6-wide final strip
        (64, 256, 64),                // exact block/strip multiples
        (3, 17, 15),                  // below one NR tile, tail-only
    ] {
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
        assert_all_entry_points_match(&a, &b, &bias);
    }
}

/// Every masked-tail class of the 8-row packed kernel, m = 1..=17, with
/// the depth crossing 256 and n covering a full strip plus narrow
/// remainders: `m < 8` is a padded block alone, `{8, 16}` are exact
/// blocks, and the rest mix full blocks with every live-row count.
#[test]
fn eight_row_block_boundaries_are_bitwise_serial() {
    let mut rng = Rng64::new(0x8b10c);
    for m in 1usize..=17 {
        for &(k, n) in &[(259usize, 37usize), (300, 64)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
            assert_all_entry_points_match(&a, &b, &bias);
        }
    }
}

/// Degenerate products: any of m, k, n zero, with and without bias. With
/// k = 0 every element is the empty sum `0.0` plus its bias, so the
/// fused output must be exactly the bias.
#[test]
fn degenerate_products_match_oracle() {
    let mut rng = Rng64::new(0xdead0);
    for &(m, k, n) in &[(0usize, 5usize, 7usize), (9, 0, 7), (9, 5, 0), (0, 0, 0), (3, 0, 40)] {
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::from_vec((1..=n).map(|j| j as f32 * 0.75 - 2.0).collect(), &[n]).unwrap();
        assert_all_entry_points_match(&a, &b, &bias);
        if k == 0 {
            let fused = run_gemm_bias(&a, &b, &bias);
            let expected: Vec<u32> =
                (0..m).flat_map(|_| bias.as_slice().iter().map(|v| v.to_bits())).collect();
            assert_eq!(bits(&fused), expected, "({m},0,{n}) must equal the bias exactly");
            assert!(run_gemm(&a, &b).as_slice().iter().all(|&x| x.to_bits() == 0));
        }
    }
}

/// The oracle performs every product, zero operands included: with ±∞ or
/// NaN in B under zero entries of A, a `0 × ∞` or `0 × NaN` term turns the
/// element to NaN in the oracle exactly as in the packed kernel. Finite
/// outputs match bit for bit and NaN lands in the same positions.
#[test]
fn oracle_runs_zero_times_non_finite_products() {
    let mut rng = Rng64::new(0x1f1f);
    let (m, k, n) = (11usize, 9usize, 37usize);
    let mut a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
    // Rows 0..4 have zeros at depths 2 and 5; the other rows stay dense.
    for i in 0..4 {
        a.as_mut_slice()[i * k + 2] = 0.0;
        a.as_mut_slice()[i * k + 5] = -0.0;
    }
    let mut b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
    b.as_mut_slice()[2 * n + 3] = f32::INFINITY;
    b.as_mut_slice()[2 * n + 20] = f32::NEG_INFINITY;
    b.as_mut_slice()[5 * n + 33] = f32::NAN;
    let want = oracle(&a, &b);
    for got in [run_gemm(&a, &b), {
        let mut out = Tensor::full(&[m, n], f32::NAN);
        gemm_packed(&PackedA::pack(&a).unwrap(), &b, &mut out).unwrap();
        out
    }] {
        for (idx, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            let j = idx % n;
            if [3, 20, 33].contains(&j) {
                assert!(w.is_nan() || w.is_infinite(), "oracle skipped a non-finite term at {idx}");
            }
            if w.is_nan() {
                assert!(g.is_nan(), "NaN position {idx} differs: oracle NaN, kernel {g}");
            } else {
                assert_eq!(w.to_bits(), g.to_bits(), "element {idx}: {w} vs {g}");
            }
        }
    }
    // The zero rows hit `0 × ±∞` and `0 × NaN`, so those columns are NaN
    // in the oracle, not the `0.0` a skipped term would leave.
    for i in 0..4 {
        for j in [3, 20, 33] {
            assert!(want.as_slice()[i * n + j].is_nan(), "oracle ({i},{j}) must be NaN");
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
        .filter(|(name, _)| name == "gemm_is_bitwise_oracle")
        .map(|(_, s)| s)
        .collect();
    assert!(
        !committed.is_empty(),
        "tests/properties.regressions must carry the committed kernel seeds"
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
        "gemm_is_bitwise_oracle",
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
