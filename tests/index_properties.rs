//! Property-based coverage of the shard index layer: the exact-mode
//! bit-identity contract against the seed per-entry scan, the
//! `nprobe == nlist` ⇒ exhaustive equivalence of IVF, monotonicity of
//! recall@m in `nprobe` (DESIGN.md §6d's equivalence contract), and the
//! compressed-mode contracts from §6h — full probe + full-depth exact
//! rerank ≡ exact at the bit level for PQ and SQ8, recall monotone in
//! `nprobe` under full-depth rerank, the SQ8 per-dimension quantization
//! error bound, and `DUOINDX3` save → load → save byte-identity.
//!
//! The PQ monotonicity property deliberately pins `rerank` to the full
//! candidate depth: under pure ADC ranking a wider probe can *demote* a
//! true neighbour (its quantized distance may beat a closer row's), so
//! recall is only provably monotone when the rerank tail rescores every
//! candidate exactly — which is exactly the superset argument the IVF
//! property uses.
//!
//! This suite persists failing case seeds to
//! `tests/index_properties.regressions` (see [`duo_check`]); past
//! failures replay before fresh generation.

use duo::prelude::*;
use duo_check::{check, prop_assert, prop_assert_eq, Config};
use duo_retrieval::ScoredId;

fn config() -> Config {
    Config::default()
        .with_cases(48)
        .with_regressions(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/index_properties.regressions"))
}

/// A random gallery of `n` unique ids with `dim`-dimensional features,
/// a pure function of `seed`.
fn gallery(seed: u64, n: usize, dim: usize) -> Vec<(VideoId, Tensor)> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|i| {
            let data: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
            let id = VideoId { class: (i / 4) as u32, instance: (i % 4) as u32 };
            (id, Tensor::from_vec(data, &[dim]).unwrap())
        })
        .collect()
}

fn query(seed: u64, dim: usize) -> Tensor {
    let mut rng = Rng64::new(seed ^ 0xA5A5_A5A5);
    let data: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
    Tensor::from_vec(data, &[dim]).unwrap()
}

/// The seed implementation of `DataNode::scan`, verbatim: per-entry
/// `Tensor::sq_distance`, full sort with the id tie-break, truncate.
fn reference_scan(entries: &[(VideoId, Tensor)], q: &Tensor, m: usize) -> Vec<ScoredId> {
    let mut scored: Vec<ScoredId> = entries
        .iter()
        .map(|(id, feat)| ScoredId { id: *id, distance: feat.sq_distance(q).unwrap() })
        .collect();
    scored.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| (a.id.class, a.id.instance).cmp(&(b.id.class, b.id.instance)))
    });
    scored.truncate(m);
    scored
}

check! {
    #![config(config())]

    /// Exact mode must reproduce the seed scan bit for bit: same ids in
    /// the same order, and distances equal at the representation level
    /// (`to_bits`), not merely approximately.
    fn exact_mode_is_bit_identical_to_seed_scan(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        dim in 1usize..12,
        m in 1usize..20,
    ) {
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let node = DataNode::new("p", entries.clone());
        let got = node.query(&q, m).unwrap();
        let want = reference_scan(&entries, &q, m);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    /// Probing every list makes IVF exhaustive: the candidate set is the
    /// whole shard, so results must equal exact mode exactly (same total
    /// order, same distances).
    fn full_probe_ivf_equals_exact(
        seed in 0u64..1_000_000,
        n in 1usize..100,
        dim in 1usize..10,
        nlist in 1usize..12,
    ) {
        let m = 1 + (seed % 16) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact = DataNode::new("e", entries.clone());
        let ivf = DataNode::with_index_mode(
            "i", entries, IndexMode::ivf(nlist, nlist), shard_seed(seed as usize),
        ).unwrap();
        prop_assert_eq!(ivf.query(&q, m).unwrap(), exact.query(&q, m).unwrap());
    }

    /// Widening the probe never hurts: the candidate set at `nprobe+1`
    /// is a superset of the set at `nprobe`, so recall@m against the
    /// exact answer is monotone non-decreasing, ending at 1 when every
    /// list is probed.
    fn recall_is_monotone_in_nprobe(
        seed in 0u64..1_000_000,
        n in 8usize..100,
        dim in 1usize..8,
        nlist in 2usize..10,
    ) {
        let m = 1 + (seed % 12) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact_ids: Vec<VideoId> = reference_scan(&entries, &q, m)
            .into_iter().map(|s| s.id).collect();
        let mut last = 0.0f32;
        for nprobe in 1..=nlist {
            let node = DataNode::with_index_mode(
                "i", entries.clone(), IndexMode::ivf(nlist, nprobe), shard_seed(3),
            ).unwrap();
            let approx_ids: Vec<VideoId> =
                node.query(&q, m).unwrap().into_iter().map(|s| s.id).collect();
            let r = recall_at_m(&approx_ids, &exact_ids);
            prop_assert!(
                r >= last,
                "recall dropped from {} to {} at nprobe {}", last, r, nprobe
            );
            last = r;
        }
        prop_assert_eq!(last, 1.0);
    }

    /// Probing every list with a full-depth rerank tail makes PQ
    /// exhaustive *and* exact: every row is a candidate, the tail
    /// rescores them all from the f32 matrix, so results must equal
    /// exact mode bit for bit regardless of codebook shape.
    fn pq_full_probe_full_rerank_equals_exact(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        dsub in 1usize..5,
        m_sub in 1usize..5,
        nlist in 1usize..10,
    ) {
        let dim = dsub * m_sub;
        let m = 1 + (seed % 16) as usize;
        let nbits = 1 + (seed % 8) as u32;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact = DataNode::new("e", entries.clone());
        let pq = DataNode::with_index_mode(
            "p", entries, IndexMode::pq(nlist, nlist, m_sub, nbits, n),
            shard_seed(seed as usize),
        ).unwrap();
        let got = pq.query(&q, m).unwrap();
        let want = exact.query(&q, m).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    /// The same exhaustive-equivalence contract for SQ8: full probe plus
    /// a rerank tail deep enough to rescore every candidate reproduces
    /// the exact scan at the representation level.
    fn sq8_full_probe_full_rerank_equals_exact(
        seed in 0u64..1_000_000,
        n in 1usize..100,
        dim in 1usize..12,
        nlist in 1usize..10,
    ) {
        let m = 1 + (seed % 16) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact = DataNode::new("e", entries.clone());
        let sq8 = DataNode::with_index_mode(
            "s", entries, IndexMode::sq8(nlist, nlist, n), shard_seed(seed as usize),
        ).unwrap();
        let got = sq8.query(&q, m).unwrap();
        let want = exact.query(&q, m).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    /// Widening the probe never hurts PQ *when the rerank tail rescores
    /// every candidate exactly*: the candidate set at `nprobe+1` is a
    /// superset, and exact rescoring returns its true top-m, so recall
    /// against the exact answer is monotone and ends at 1. (Without the
    /// full-depth tail this is false — ADC ordering can demote a true
    /// neighbour behind a quantization artifact.)
    fn pq_full_rerank_recall_monotone_in_nprobe(
        seed in 0u64..1_000_000,
        n in 8usize..80,
        dsub in 1usize..4,
        m_sub in 1usize..4,
        nlist in 2usize..8,
    ) {
        let dim = dsub * m_sub;
        let m = 1 + (seed % 12) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact_ids: Vec<VideoId> = reference_scan(&entries, &q, m)
            .into_iter().map(|s| s.id).collect();
        let mut last = 0.0f32;
        for nprobe in 1..=nlist {
            let node = DataNode::with_index_mode(
                "p", entries.clone(), IndexMode::pq(nlist, nprobe, m_sub, 8, n),
                shard_seed(3),
            ).unwrap();
            let approx_ids: Vec<VideoId> =
                node.query(&q, m).unwrap().into_iter().map(|s| s.id).collect();
            let r = recall_at_m(&approx_ids, &exact_ids);
            prop_assert!(
                r >= last,
                "pq recall dropped from {} to {} at nprobe {}", last, r, nprobe
            );
            last = r;
        }
        prop_assert_eq!(last, 1.0);
    }

    /// The SQ8 affine quantizer's error bound: every decoded residual
    /// dimension sits within half a quantization step of the original
    /// (plus float slack), so decoded rows are uniformly close to the
    /// f32 matrix.
    fn sq8_decode_error_is_bounded(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        dim in 1usize..10,
        nlist in 1usize..8,
    ) {
        let entries = gallery(seed, n, dim);
        let index = ShardIndex::build(
            &entries, IndexMode::sq8(nlist, 1, 0), shard_seed(seed as usize),
        ).unwrap();
        let (_, steps) = index.sq8_params().unwrap();
        let steps = steps.to_vec();
        for (row, (_, feat)) in entries.iter().enumerate() {
            let decoded = index.decode_row(row);
            for ((&x, &y), &step) in feat.as_slice().iter().zip(&decoded).zip(&steps) {
                let bound = step * 0.5001 + 1e-5;
                prop_assert!(
                    (x - y).abs() <= bound,
                    "row {} decode error {} exceeds bound {} (step {})",
                    row, (x - y).abs(), bound, step
                );
            }
        }
    }

    /// `DUOINDX3` round-trip determinism: serializing a system, loading
    /// it, and serializing again must produce byte-identical images for
    /// every index mode — the loaded system reconstructs exactly the
    /// trained structures (codebooks, coarse lists, packed codes, epoch),
    /// never retrains.
    fn duoindx3_save_load_save_is_byte_identical(
        seed in 0u64..1_000_000,
        n in 1usize..50,
        dsub in 1usize..4,
        m_sub in 1usize..4,
        nodes in 1usize..4,
    ) {
        let dim = dsub * m_sub;
        let mode = match seed % 4 {
            0 => IndexMode::Exact,
            1 => IndexMode::ivf(4, 2),
            2 => IndexMode::pq(4, 2, m_sub, 8, 8),
            _ => IndexMode::sq8(4, 2, 8),
        };
        let entries = gallery(seed ^ 0xD15C, n, dim);
        let snapshot = GalleryIndex::with_mode(entries, mode);
        let backbone = || {
            let mut rng = Rng64::new(9);
            Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap()
        };
        let sys = RetrievalSystem::from_index(
            backbone(),
            &snapshot,
            RetrievalConfig { m: 3, nodes, threaded: false, index: mode },
        ).unwrap();
        let (_, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        let loaded = RetrievalSystem::from_v3_bytes(
            backbone(), &bytes, RetrievalConfig::default(),
        ).unwrap();
        let (_, bytes2) = GalleryIndex::to_v3_bytes(&loaded).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }
}

/// A small served system's `DUOINDX3` image under `mode`, plus the
/// backbone its loads reuse.
fn small_image(seed: u64, n: usize, nodes: usize, mode: IndexMode) -> (Backbone, Vec<u8>) {
    let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut Rng64::new(9))
        .unwrap();
    let snapshot = GalleryIndex::with_mode(gallery(seed ^ 0x7A11, n, 4), mode);
    let sys = RetrievalSystem::from_index(
        backbone.clone(),
        &snapshot,
        RetrievalConfig { m: 3, nodes, threaded: false, index: mode },
    )
    .unwrap();
    (backbone, GalleryIndex::to_v3_bytes(&sys).unwrap().1)
}

check! {
    #![config(Config::default().with_cases(8))]

    /// Untrusted images fail closed: every strict prefix of a valid
    /// `DUOINDX3` image, and the image under a retired (`DUOINDX1`,
    /// `DUOINDX2`) or garbage magic, is rejected with a typed
    /// `RetrievalError`, never a panic; the whole image loads.
    fn duoindx3_truncated_or_foreign_images_are_rejected(
        seed in 0u64..1_000_000,
        n in 1usize..12,
        nodes in 1usize..3,
    ) {
        let mode = match seed % 4 {
            0 => IndexMode::Exact,
            1 => IndexMode::ivf(2, 1),
            2 => IndexMode::pq(2, 1, 2, 4, 4),
            _ => IndexMode::sq8(2, 1, 4),
        };
        let (backbone, bytes) = small_image(seed, n, nodes, mode);
        let load = |image: &[u8]| {
            RetrievalSystem::from_v3_bytes(backbone.clone(), image, RetrievalConfig::default())
        };
        prop_assert_eq!(load(&bytes).map(|s| s.gallery_len()).ok(), Some(n));
        for cut in 0..bytes.len() {
            prop_assert!(load(&bytes[..cut]).is_err(), "prefix of {cut}/{} bytes loaded", bytes.len());
        }
        let garbage = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1).to_le_bytes();
        for magic in [*b"DUOINDX1", *b"DUOINDX2", garbage] {
            let mut foreign = bytes.clone();
            foreign[..8].copy_from_slice(&magic);
            prop_assert!(load(&foreign).is_err(), "magic {magic:?} loaded");
        }
    }
}
