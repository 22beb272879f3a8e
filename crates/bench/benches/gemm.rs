//! GEMM kernel benchmarks: the packed serial kernel against the plain-loop
//! oracle (`matmul_into_reference`).
//!
//! For each shape the bench times:
//!
//! * `reference` — the i·k·j oracle loop, the baseline every speedup in
//!   `BENCH_gemm.json` and the README table is quoted against;
//! * `packed` — `gemm`: A packed into 8-row blocks (the final partial
//!   block zero-padded), B packed into 32-column strips, and the
//!   full-depth 8×32 micro-kernel, the masked tail copying out only
//!   its live rows;
//! * `fused_bias` — `gemm_bias`, the same kernel folding the bias add
//!   into its final store instead of a second pass over the output.
//!
//! Before timing, every variant's output is asserted bit-identical to the
//! oracle (the fused-bias path against the oracle plus a bias sweep), so
//! the determinism contract is enforced in the bench itself, not just the
//! test suite.
//!
//! Noise control: the three variants of a shape run as one interleaved
//! group (`Runner::bench_interleaved`: reference, packed, fused, then
//! again), so drift on a shared host lands on all of them alike; 3
//! warmup iterations per entry (the first calls fault in the packing
//! workspaces and let the allocator settle); and enough samples that the
//! recorded `trimmed_mean_s` (drop the fastest and slowest fifth, mean
//! the middle) is stable. That trimmed mean is what `bench_check`
//! compares against the committed rules in `BENCH_thresholds.txt`.
//!
//! Results land in `BENCH_gemm.json` at the repo root; `DUO_SCALE=smoke`
//! shrinks shapes and samples for the verify gate. Every variant runs on
//! the calling thread, so the host's core count does not enter the
//! ratios.

use duo_bench::Runner;
use duo_tensor::{gemm, gemm_bias, matmul_into_reference, Rng64, Tensor};

fn smoke() -> bool {
    std::env::var("DUO_SCALE").as_deref() == Ok("smoke")
}

/// Benched shapes `(m, k, n)`. The 256³ GEMM is the headline size; the
/// skinny 128×1024×512 shape stresses deep B strips (k = 1024); 512³
/// stresses the cache hierarchy with the largest operands.
fn sizes() -> Vec<(usize, usize, usize)> {
    if smoke() {
        vec![(48, 64, 48), (96, 160, 80)]
    } else {
        vec![(256, 256, 256), (128, 1024, 512), (512, 512, 512)]
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let mut runner = Runner::default()
        .sample_size(if smoke() { 7 } else { 25 })
        .warmup_iters(3);
    runner.apply_cli_args();

    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let mut rng = Rng64::new(0x6E44 ^ ((m * 1_000_003 + k * 1_009 + n) as u64));
        let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
        let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
        let bias = Tensor::randn(&[n], 1.0, rng.as_rng());

        let mut oracle = Tensor::full(&[m, n], f32::NAN);
        matmul_into_reference(&a, &b, &mut oracle).unwrap();
        let mut packed = Tensor::full(&[m, n], f32::NAN);
        gemm(&a, &b, &mut packed).unwrap();
        assert_eq!(bits(&oracle), bits(&packed), "gemm/{tag} packed drifted from the oracle");

        // Fused bias: identical bits to the oracle with a second bias
        // pass on top.
        let mut fused = Tensor::full(&[m, n], f32::NAN);
        gemm_bias(&a, &b, &bias, &mut fused).unwrap();
        for row in oracle.as_mut_slice().chunks_exact_mut(n) {
            for (o, bv) in row.iter_mut().zip(bias.as_slice()) {
                *o += bv;
            }
        }
        assert_eq!(bits(&oracle), bits(&fused), "gemm/{tag} fused bias drifted from oracle+sweep");

        // Interleaved sample by sample: the threshold rules compare these
        // entries with each other, so host drift must land on all three.
        let mut run_reference = || matmul_into_reference(&a, &b, &mut oracle).unwrap();
        let mut run_packed = || gemm(&a, &b, &mut packed).unwrap();
        let mut run_fused = || gemm_bias(&a, &b, &bias, &mut fused).unwrap();
        runner.bench_interleaved(&mut [
            (format!("gemm/{tag}/reference").as_str(), &mut run_reference as &mut dyn FnMut()),
            (format!("gemm/{tag}/packed").as_str(), &mut run_packed),
            (format!("gemm/{tag}/fused_bias").as_str(), &mut run_fused),
        ]);
    }

    // Speedup table vs the oracle loop, from the recorded trimmed means.
    let results = runner.results().to_vec();
    for (m, k, n) in sizes() {
        let tag = format!("{m}x{k}x{n}");
        let stat = |suffix: &str| {
            results
                .iter()
                .find(|r| r.name == format!("gemm/{tag}/{suffix}"))
                .map(|r| r.trimmed_mean_s)
        };
        let Some(base) = stat("reference") else { continue };
        let mut row = format!("gemm/{tag} speedup vs reference:");
        for suffix in ["packed", "fused_bias"] {
            if let Some(t) = stat(suffix) {
                row.push_str(&format!(" {suffix} {:.2}x", base / t));
            }
        }
        println!("{row}");
    }

    let path = duo_bench::repo_root_bench_path("gemm");
    duo_bench::write_bench_json(&path, &results).expect("write BENCH_gemm.json");
    println!("wrote {}", path.display());
    runner.finish();
}
