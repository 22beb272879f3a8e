//! Gallery-index persistence.
//!
//! A production retrieval service re-indexes its gallery only when the
//! embedding model changes; across restarts the index is loaded from
//! disk. The on-disk format is `DUOINDX3`, a whole-system image: a
//! sectioned, 64-byte-aligned layout that persists the trained
//! structures — centroids, coarse assignment, codebooks/quantizer tables,
//! packed residual codes — per shard, exactly as served. A system loads
//! from it in a single `read` with no retraining and no re-sharding, so
//! the restored service replays a mutate+query trace bit-identically,
//! epoch counter included. The byte-level format table lives in
//! DESIGN.md §6h. Storing trained structures does not create a second
//! source of truth: they are the deterministic function of
//! `(features, seed)` that retraining would recompute, which the
//! save→load→save byte-identity property pins down.
//!
//! [`GalleryIndex`] is the in-memory snapshot of a gallery's
//! `(id, feature)` entries and index mode; [`RetrievalSystem::from_index`]
//! builds a fresh system from one, retraining each shard.

use crate::{shard_seed, DataNode, IndexMode, RetrievalConfig, RetrievalError, Result, RetrievalSystem};
use duo_models::Backbone;
use duo_tensor::Tensor;
use duo_video::VideoId;
use std::path::Path;

const MAGIC_V3: &[u8; 8] = b"DUOINDX3";

const MODE_EXACT: u8 = 0;
const MODE_IVF: u8 = 1;
const MODE_PQ: u8 = 2;
const MODE_SQ8: u8 = 3;

/// `DUOINDX3` sections start on 64-byte boundaries (cache-line aligned,
/// and f32/u32 views of the mapped buffer stay aligned with headroom).
const V3_ALIGN: usize = 64;

/// Sections per shard in a `DUOINDX3` image, in layout order: ids,
/// features, centroids, coarse assignment, codec tables, codes.
const V3_SECTIONS: usize = 6;

/// Serializes an [`IndexMode`] as the `DUOINDX3` tag + u64 parameter
/// run: `exact` has no parameters, `ivf` carries `nlist, nprobe`, `pq`
/// carries `nlist, nprobe, m_sub, nbits, rerank`, `sq8` carries
/// `nlist, nprobe, rerank`.
fn mode_params(mode: IndexMode) -> (u8, Vec<u64>) {
    match mode {
        IndexMode::Exact => (MODE_EXACT, Vec::new()),
        IndexMode::Ivf { nlist, nprobe } => (MODE_IVF, vec![nlist as u64, nprobe as u64]),
        IndexMode::Pq { nlist, nprobe, m_sub, nbits, rerank } => (
            MODE_PQ,
            vec![nlist as u64, nprobe as u64, m_sub as u64, u64::from(nbits), rerank as u64],
        ),
        IndexMode::Sq8 { nlist, nprobe, rerank } => {
            (MODE_SQ8, vec![nlist as u64, nprobe as u64, rerank as u64])
        }
    }
}

/// Inverse of [`mode_params`]; validates the reconstructed mode.
fn mode_from_params(tag: u8, params: &[u64]) -> Result<IndexMode> {
    let need = |n: usize| {
        if params.len() < n {
            Err(RetrievalError::BadConfig(format!(
                "index mode tag {tag} needs {n} parameters, got {}",
                params.len()
            )))
        } else {
            Ok(())
        }
    };
    let mode = match tag {
        MODE_EXACT => IndexMode::Exact,
        MODE_IVF => {
            need(2)?;
            IndexMode::Ivf { nlist: params[0] as usize, nprobe: params[1] as usize }
        }
        MODE_PQ => {
            need(5)?;
            IndexMode::Pq {
                nlist: params[0] as usize,
                nprobe: params[1] as usize,
                m_sub: params[2] as usize,
                nbits: params[3] as u32,
                rerank: params[4] as usize,
            }
        }
        MODE_SQ8 => {
            need(3)?;
            IndexMode::Sq8 {
                nlist: params[0] as usize,
                nprobe: params[1] as usize,
                rerank: params[2] as usize,
            }
        }
        other => {
            return Err(RetrievalError::BadConfig(format!("unknown index mode tag {other}")))
        }
    };
    mode.validate()?;
    Ok(mode)
}

/// A serializable snapshot of an indexed gallery: the `(id, feature)`
/// entries plus the [`IndexMode`] the system served them in.
#[derive(Debug, Clone, PartialEq)]
pub struct GalleryIndex {
    entries: Vec<(VideoId, Tensor)>,
    mode: IndexMode,
}

impl GalleryIndex {
    /// Snapshots the given `(id, feature)` entries in exact mode.
    pub fn new(entries: Vec<(VideoId, Tensor)>) -> Self {
        GalleryIndex { entries, mode: IndexMode::Exact }
    }

    /// Snapshots entries together with an index mode.
    pub fn with_mode(entries: Vec<(VideoId, Tensor)>, mode: IndexMode) -> Self {
        GalleryIndex { entries, mode }
    }

    /// Extracts the index currently served by a retrieval system,
    /// including its index mode.
    ///
    /// The capture happens under the system's epoch gate — one
    /// consistent cross-shard cut — so a snapshot taken while a
    /// mutation batch or rebalance is publishing always equals exactly
    /// one published epoch, never a half-applied batch or a row caught
    /// mid-move. (To persist a system, use [`GalleryIndex::to_v3_bytes`].)
    pub fn from_system(system: &RetrievalSystem) -> Self {
        let (_epoch, snaps) = system.snapshot_with_epoch();
        let mut entries = Vec::with_capacity(system.gallery_len());
        for snap in &snaps {
            entries.extend(snap.entries());
        }
        // Deterministic order regardless of shard layout.
        entries.sort_by_key(|(id, _)| (id.class, id.instance));
        GalleryIndex { entries, mode: system.config().index }
    }

    /// Number of indexed videos.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed entries, sorted by id.
    pub fn entries(&self) -> &[(VideoId, Tensor)] {
        &self.entries
    }

    /// The index mode captured in this snapshot.
    pub fn mode(&self) -> IndexMode {
        self.mode
    }

    /// Serializes a system as one `DUOINDX3` image: header, shard
    /// directory, then each shard's trained sections (ids, features,
    /// centroids, coarse assignment, codec tables, packed codes) on
    /// 64-byte boundaries. Captured under the epoch gate — the image is
    /// always exactly one published epoch, and the epoch counter itself
    /// is stored so a reload resumes the epoch sequence. Returns the
    /// captured epoch and the image bytes.
    ///
    /// The writer is deterministic: same system state ⇒ same bytes, and
    /// because the trained structures are themselves deterministic in
    /// `(features, seed)`, save→load→save produces a byte-identical
    /// image (a duo-check property).
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] when a shard's mode
    /// disagrees with the system config (cannot happen through public
    /// construction paths).
    pub fn to_v3_bytes(system: &RetrievalSystem) -> Result<(u64, Vec<u8>)> {
        let (epoch, snaps) = system.snapshot_with_epoch();
        let mode = system.config().index;
        let dim = snaps.iter().map(|s| s.dim()).find(|&d| d > 0).unwrap_or(0);
        let (tag, params) = mode_params(mode);

        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V3);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u32::from(tag).to_le_bytes());
        for i in 0..5 {
            buf.extend_from_slice(&params.get(i).copied().unwrap_or(0).to_le_bytes());
        }
        buf.extend_from_slice(&(snaps.len() as u64).to_le_bytes());
        debug_assert_eq!(buf.len(), 64, "V3 header is exactly 64 bytes");

        buf.extend_from_slice(&(dim as u64).to_le_bytes());
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.extend_from_slice(&(system.gallery_len() as u64).to_le_bytes());

        // Directory: per shard, the row count plus (offset, len) of each
        // section. Offsets are patched in after layout.
        let dir_at = buf.len();
        for snap in &snaps {
            buf.extend_from_slice(&(snap.len() as u64).to_le_bytes());
            buf.extend_from_slice(&[0u8; V3_SECTIONS * 16]);
        }

        let mut sections: Vec<[(u64, u64); V3_SECTIONS]> = Vec::with_capacity(snaps.len());
        for snap in &snaps {
            let parts = snap.parts();
            let mut entry = [(0u64, 0u64); V3_SECTIONS];
            let mut write_section = |slot: usize, bytes: &[u8], buf: &mut Vec<u8>| {
                let pad = (V3_ALIGN - buf.len() % V3_ALIGN) % V3_ALIGN;
                buf.resize(buf.len() + pad, 0);
                entry[slot] = (buf.len() as u64, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            };
            let mut ids = Vec::with_capacity(parts.ids.len() * 8);
            for id in parts.ids {
                ids.extend_from_slice(&id.class.to_le_bytes());
                ids.extend_from_slice(&id.instance.to_le_bytes());
            }
            write_section(0, &ids, &mut buf);
            write_section(1, &f32_bytes(parts.feats), &mut buf);
            write_section(2, &f32_bytes(parts.centroids), &mut buf);
            let mut assign = Vec::with_capacity(parts.assign.len() * 4);
            for a in parts.assign {
                assign.extend_from_slice(&a.to_le_bytes());
            }
            write_section(3, &assign, &mut buf);
            write_section(4, &f32_bytes(&parts.aux), &mut buf);
            write_section(5, parts.codes, &mut buf);
            sections.push(entry);
        }
        // Patch the directory.
        for (s, entry) in sections.iter().enumerate() {
            let mut at = dir_at + s * (8 + V3_SECTIONS * 16) + 8;
            for &(off, len) in entry {
                buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
                buf[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
                at += 16;
            }
        }
        Ok((epoch, buf))
    }

    /// Writes a `DUOINDX3` whole-system image to a file (see
    /// [`GalleryIndex::to_v3_bytes`]); returns the captured epoch.
    ///
    /// ```no_run
    /// use duo_retrieval::GalleryIndex;
    /// # fn demo(system: &duo_retrieval::RetrievalSystem) -> Result<(), duo_retrieval::RetrievalError> {
    /// let epoch = GalleryIndex::save_system_v3(system, "gallery.duoindx3")?;
    /// assert_eq!(epoch, system.current_epoch());
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] wrapping I/O failures.
    pub fn save_system_v3<P: AsRef<Path>>(system: &RetrievalSystem, path: P) -> Result<u64> {
        let (epoch, bytes) = Self::to_v3_bytes(system)?;
        std::fs::write(path, bytes)
            .map_err(|e| RetrievalError::BadConfig(format!("index write: {e}")))?;
        Ok(epoch)
    }
}

/// The f32 slice as little-endian bytes (the layout `DUOINDX3` sections
/// use for every float table).
fn f32_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for &x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// A bounds-checked little-endian reader over a `DUOINDX3` image.
struct V3Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> V3Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            RetrievalError::BadConfig("truncated DUOINDX3 image".to_string())
        })?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// One section slice out of the image, validated against the directory.
fn v3_section(bytes: &[u8], off: u64, len: u64) -> Result<&[u8]> {
    let (off, len) = (off as usize, len as usize);
    if off % V3_ALIGN != 0 {
        return Err(RetrievalError::BadConfig(format!(
            "DUOINDX3 section at {off} is not {V3_ALIGN}-byte aligned"
        )));
    }
    off.checked_add(len)
        .filter(|&e| e <= bytes.len())
        .map(|end| &bytes[off..end])
        .ok_or_else(|| RetrievalError::BadConfig("DUOINDX3 section out of bounds".to_string()))
}

fn v3_f32s(section: &[u8]) -> Vec<f32> {
    section.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))).collect()
}

impl RetrievalSystem {
    /// Rebuilds a retrieval service from a persisted index and a backbone
    /// (restart-without-reindexing: the backbone is only used for *query*
    /// embeddings; gallery features come from the snapshot).
    ///
    /// The serving index mode is taken from `config.index` — the caller
    /// decides, typically forwarding [`GalleryIndex::mode`]. IVF shards
    /// are retrained at load from the snapshot's features with the same
    /// per-shard seeds a fresh build uses. Exact-mode rankings are
    /// bit-identical to the snapshotted system regardless of node count;
    /// IVF rankings can differ from the original when the snapshot's
    /// entries re-shard into different k-means problems (see the
    /// equivalence contract in DESIGN.md §6d).
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for invalid configuration.
    pub fn from_index(
        backbone: Backbone,
        index: &GalleryIndex,
        config: RetrievalConfig,
    ) -> Result<Self> {
        if config.m == 0 || config.nodes == 0 {
            return Err(RetrievalError::BadConfig(format!(
                "m and nodes must be positive, got {config:?}"
            )));
        }
        let mut shards: Vec<Vec<(VideoId, Tensor)>> =
            (0..config.nodes).map(|_| Vec::new()).collect();
        for (i, entry) in index.entries().iter().enumerate() {
            shards[i % config.nodes].push(entry.clone());
        }
        let nodes = shards
            .into_iter()
            .enumerate()
            .map(|(i, entries)| {
                DataNode::with_index_mode(format!("node-{i}"), entries, config.index, shard_seed(i))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(RetrievalSystem::assemble(backbone, nodes, config, index.len()))
    }

    /// Reconstructs a system from a `DUOINDX3` image in memory, without
    /// retraining: shard layout, trained coarse quantizers, codebooks,
    /// packed codes, and the epoch counter all come from the image
    /// exactly as the saved system served them, so the restored service
    /// replays a mutate+query trace bit-identically (telemetry epochs
    /// included). `m`/`threaded`/resilience come from `base`; node count
    /// and index mode come from the image.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for bad magic, truncated or
    /// misaligned sections, or parameters that fail validation.
    pub fn from_v3_bytes(
        backbone: Backbone,
        bytes: &[u8],
        base: RetrievalConfig,
    ) -> Result<Self> {
        if base.m == 0 {
            return Err(RetrievalError::BadConfig(format!(
                "m must be positive, got {base:?}"
            )));
        }
        let mut cur = V3Cursor { bytes, at: 0 };
        if cur.take(8)? != MAGIC_V3 {
            return Err(RetrievalError::BadConfig("not a DUOINDX3 image".into()));
        }
        let version = cur.u32()?;
        if version != 1 {
            return Err(RetrievalError::BadConfig(format!(
                "unsupported DUOINDX3 version {version}"
            )));
        }
        let tag = cur.u32()?;
        let mut params = [0u64; 5];
        for p in &mut params {
            *p = cur.u64()?;
        }
        let tag = u8::try_from(tag)
            .map_err(|_| RetrievalError::BadConfig(format!("implausible mode tag {tag}")))?;
        let mode = mode_from_params(tag, &params)?;
        let shard_count = cur.u64()? as usize;
        if shard_count == 0 || shard_count > 65_536 {
            return Err(RetrievalError::BadConfig(format!(
                "implausible shard count {shard_count}"
            )));
        }
        let dim = cur.u64()? as usize;
        if dim > 1_000_000 {
            return Err(RetrievalError::BadConfig(format!("implausible feature dim {dim}")));
        }
        let epoch = cur.u64()?;
        let total_rows = cur.u64()? as usize;

        let mut nodes = Vec::with_capacity(shard_count);
        let mut seen_rows = 0usize;
        for shard in 0..shard_count {
            let rows = cur.u64()? as usize;
            let mut sections = [(0u64, 0u64); V3_SECTIONS];
            for s in &mut sections {
                *s = (cur.u64()?, cur.u64()?);
            }
            let ids_raw = v3_section(bytes, sections[0].0, sections[0].1)?;
            if ids_raw.len() != rows * 8 {
                return Err(RetrievalError::BadConfig(format!(
                    "shard {shard}: id section holds {} bytes for {rows} rows",
                    ids_raw.len()
                )));
            }
            let ids: Vec<VideoId> = ids_raw
                .chunks_exact(8)
                .map(|c| VideoId {
                    class: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                    instance: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                })
                .collect();
            let feats = v3_f32s(v3_section(bytes, sections[1].0, sections[1].1)?);
            let centroids = v3_f32s(v3_section(bytes, sections[2].0, sections[2].1)?);
            let assign: Vec<u32> = v3_section(bytes, sections[3].0, sections[3].1)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            let aux = v3_f32s(v3_section(bytes, sections[4].0, sections[4].1)?);
            let codes = v3_section(bytes, sections[5].0, sections[5].1)?.to_vec();
            seen_rows += rows;
            let index = crate::ShardIndex::from_parts(
                ids, feats, dim, mode, centroids, assign, aux, codes,
            )?;
            nodes.push(DataNode::from_prebuilt(
                format!("node-{shard}"),
                index,
                shard_seed(shard),
            ));
        }
        if seen_rows != total_rows {
            return Err(RetrievalError::BadConfig(format!(
                "DUOINDX3 directory claims {total_rows} rows, sections hold {seen_rows}"
            )));
        }
        let config = RetrievalConfig { nodes: shard_count, index: mode, ..base };
        let system = RetrievalSystem::assemble(backbone, nodes, config, total_rows);
        system.restore_epoch(epoch);
        Ok(system)
    }

    /// Loads a `DUOINDX3` whole-system image from a file in a **single
    /// read** (`fs::read`, then in-memory section slicing — no seeks, no
    /// per-entry I/O), reconstructing every shard without retraining.
    /// See [`RetrievalSystem::from_v3_bytes`].
    ///
    /// ```no_run
    /// use duo_retrieval::{RetrievalConfig, RetrievalSystem};
    /// # fn demo(backbone: duo_models::Backbone) -> Result<(), duo_retrieval::RetrievalError> {
    /// let system = RetrievalSystem::load_v3(
    ///     backbone,
    ///     "gallery.duoindx3",
    ///     RetrievalConfig { m: 10, ..RetrievalConfig::default() },
    /// )?;
    /// assert!(system.gallery_len() > 0);
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`RetrievalSystem::from_v3_bytes`], plus wrapped I/O
    /// failures.
    pub fn load_v3<P: AsRef<Path>>(
        backbone: Backbone,
        path: P,
        base: RetrievalConfig,
    ) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| RetrievalError::BadConfig(format!("index open: {e}")))?;
        Self::from_v3_bytes(backbone, &bytes, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_models::{Architecture, BackboneConfig};
    use duo_tensor::Rng64;
    use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};

    fn system() -> (RetrievalSystem, SyntheticDataset) {
        let mut rng = Rng64::new(281);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 281, 2, 0);
        let gallery: Vec<VideoId> =
            ds.train().iter().filter(|id| id.class < 8).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let sys = RetrievalSystem::build(
            backbone,
            &ds,
            &gallery,
            RetrievalConfig { m: 5, nodes: 3, threaded: false, ..Default::default() },
        )
        .unwrap();
        (sys, ds)
    }

    #[test]
    fn restored_service_ranks_identically() {
        let (mut sys, ds) = system();
        let index = GalleryIndex::from_system(&sys);
        // Clone the backbone weights into a fresh system via checkpointing.
        let mut rng = Rng64::new(282);
        let mut restored_backbone =
            Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let params = duo_models::export_params(sys.backbone_mut());
        duo_models::import_params(&mut restored_backbone, &params).unwrap();
        let restored = RetrievalSystem::from_index(
            restored_backbone,
            &index,
            RetrievalConfig { m: 5, nodes: 5, threaded: false, index: index.mode() },
        )
        .unwrap();
        for c in 0..8 {
            let q = ds.video(VideoId { class: c, instance: 1 });
            assert_eq!(sys.retrieve(&q).unwrap(), restored.retrieve(&q).unwrap());
        }
    }

    #[test]
    fn restored_ivf_service_with_full_probe_matches_exact_restore() {
        let (mut sys, ds) = system();
        let snapshot = GalleryIndex::from_system(&sys);
        let params = duo_models::export_params(sys.backbone_mut());
        let make_backbone = || {
            let mut rng = Rng64::new(283);
            let mut b =
                Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            duo_models::import_params(&mut b, &params).unwrap();
            b
        };
        let exact = RetrievalSystem::from_index(
            make_backbone(),
            &snapshot,
            RetrievalConfig { m: 5, nodes: 4, threaded: false, index: IndexMode::Exact },
        )
        .unwrap();
        // nprobe == nlist: IVF is exhaustive, so the restored services
        // must agree ranking-for-ranking.
        let ivf = RetrievalSystem::from_index(
            make_backbone(),
            &snapshot,
            RetrievalConfig { m: 5, nodes: 4, threaded: false, index: IndexMode::ivf(3, 3) },
        )
        .unwrap();
        for c in 0..8 {
            let q = ds.video(VideoId { class: c, instance: 1 });
            assert_eq!(exact.retrieve(&q).unwrap(), ivf.retrieve(&q).unwrap());
        }
    }

    #[test]
    fn snapshot_under_concurrent_mutation_is_one_published_epoch() {
        let (sys, _) = system();
        let base = sys.gallery_len();
        let dim = sys.nodes()[0].snapshot().dim();
        let marker = |k: u32| VideoId { class: 200 + k, instance: 0 };
        let feature = |k: u32| {
            Tensor::from_vec(vec![k as f32 + 1.0; dim], &[dim]).unwrap()
        };
        let load = |bytes: &[u8]| {
            let mut rng = Rng64::new(7);
            let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            RetrievalSystem::from_v3_bytes(b, bytes, RetrievalConfig::default()).unwrap()
        };

        // Writer: five epoch transactions, each inserting TWO markers in
        // one batch. A torn capture would show an odd marker count.
        const EPOCHS: u32 = 5;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..EPOCHS {
                    let batch = crate::MutationBatch::new()
                        .insert(marker(2 * k), feature(2 * k))
                        .insert(marker(2 * k + 1), feature(2 * k + 1));
                    sys.apply(&batch).unwrap();
                }
            });
            // Reader: repeatedly image mid-mutation and reload. Every
            // image must load as exactly the published epoch it reports —
            // all of batch `e` and nothing of batch `e + 1`.
            for _ in 0..40 {
                let (epoch, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
                let back = load(&bytes);
                assert_eq!(back.current_epoch(), epoch, "the image carries its epoch");
                let markers: Vec<u32> = GalleryIndex::from_system(&back)
                    .entries()
                    .iter()
                    .filter(|(id, _)| id.class >= 200)
                    .map(|(id, _)| id.class - 200)
                    .collect();
                assert_eq!(
                    markers.len() as u64,
                    2 * epoch,
                    "epoch {epoch} image shows a half-applied batch: {markers:?}"
                );
                assert_eq!(markers, (0..2 * epoch as u32).collect::<Vec<_>>());
                assert_eq!(back.gallery_len(), base + markers.len());
            }
        });

        // After the writer drains, a final image holds every batch.
        let (epoch, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        assert_eq!(epoch, u64::from(EPOCHS));
        assert_eq!(load(&bytes).gallery_len(), base + 10);
    }

    #[test]
    fn rejects_bad_magic() {
        for magic in [b"BADMAGIC", b"DUOINDX1", b"DUOINDX2"] {
            let mut rng = Rng64::new(7);
            let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            assert!(RetrievalSystem::from_v3_bytes(b, magic, RetrievalConfig::default()).is_err());
        }
    }

    fn restored_backbone(sys: &mut RetrievalSystem, seed: u64) -> Backbone {
        let params = duo_models::export_params(sys.backbone_mut());
        let mut rng = Rng64::new(seed);
        let mut b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        duo_models::import_params(&mut b, &params).unwrap();
        b
    }

    /// Rebuilds the persist-test system under a compressed index mode.
    fn compressed_system(mode: IndexMode) -> (RetrievalSystem, SyntheticDataset) {
        let (mut sys, ds) = system();
        let snapshot = GalleryIndex::from_system(&sys);
        let backbone = restored_backbone(&mut sys, 991);
        let restored = RetrievalSystem::from_index(
            backbone,
            &snapshot,
            RetrievalConfig { m: 5, nodes: 3, threaded: false, index: mode },
        )
        .unwrap();
        (restored, ds)
    }

    #[test]
    fn v3_save_load_save_is_byte_identical() {
        for mode in
            [IndexMode::Exact, IndexMode::ivf(3, 2), IndexMode::pq(3, 2, 2, 4, 8), IndexMode::sq8(3, 2, 4)]
        {
            let (mut sys, _) = compressed_system(mode);
            // Mutate so the image covers a published epoch, not just the
            // initial build.
            sys.insert(
                VideoId { class: 201, instance: 0 },
                sys.nodes()[0].snapshot().entries().remove(0).1,
            )
            .unwrap();
            let (epoch, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
            assert_eq!(epoch, 1);
            let backbone = restored_backbone(&mut sys, 992);
            let loaded = RetrievalSystem::from_v3_bytes(
                backbone,
                &bytes,
                RetrievalConfig { m: 5, ..RetrievalConfig::default() },
            )
            .unwrap();
            assert_eq!(loaded.current_epoch(), 1, "epoch counter restores");
            assert_eq!(loaded.config().index, mode);
            let (_, bytes2) = GalleryIndex::to_v3_bytes(&loaded).unwrap();
            assert_eq!(bytes, bytes2, "save -> load -> save must be byte-identical ({mode:?})");
        }
    }

    #[test]
    fn v3_restored_system_replays_mutate_query_trace_bit_identically() {
        let (mut sys, ds) = compressed_system(IndexMode::pq(3, 2, 2, 4, 8));
        let feats: Vec<Tensor> = (0..4)
            .map(|c| sys.embed(&ds.video(VideoId { class: c, instance: 1 })).unwrap())
            .collect();
        // Pre-save mutations so the loaded system starts mid-sequence.
        sys.insert(VideoId { class: 150, instance: 0 }, feats[0].clone()).unwrap();
        sys.rebalance().unwrap();
        let (_, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        let backbone = restored_backbone(&mut sys, 993);
        let loaded = RetrievalSystem::from_v3_bytes(
            backbone,
            &bytes,
            RetrievalConfig { m: 5, ..RetrievalConfig::default() },
        )
        .unwrap();
        // Same continued trace on both systems: inserts, a delete, a
        // rebalance, queries after every step. Everything must agree —
        // rankings, coverage, telemetry, epochs.
        let script = |s: &RetrievalSystem| {
            let mut trace = Vec::new();
            for (i, f) in feats.iter().enumerate() {
                let t = s.insert(VideoId { class: 160 + i as u32, instance: 0 }, f.clone()).unwrap();
                trace.push((t, s.retrieve_resilient(f).unwrap()));
            }
            let t = s.delete(VideoId { class: 160, instance: 0 }).unwrap();
            trace.push((t, s.retrieve_resilient(&feats[0]).unwrap()));
            let t = s.rebalance().unwrap();
            trace.push((t, s.retrieve_resilient(&feats[3]).unwrap()));
            trace
        };
        assert_eq!(script(&sys), script(&loaded), "loaded system must replay bit-identically");
    }

    #[test]
    fn v3_loads_truncated_image_as_error() {
        let (sys, _) = compressed_system(IndexMode::sq8(3, 2, 0));
        let (_, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        for cut in [4usize, 63, 64, 200] {
            let mut rng = Rng64::new(7);
            let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            assert!(
                RetrievalSystem::from_v3_bytes(b, &bytes[..cut], RetrievalConfig::default())
                    .is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn v3_file_round_trip_single_read() {
        let (mut sys, ds) = compressed_system(IndexMode::ivf(3, 3));
        let dir = std::env::temp_dir().join("duo_index_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gallery.duoindx3");
        let epoch = GalleryIndex::save_system_v3(&sys, &path).unwrap();
        assert_eq!(epoch, sys.current_epoch());
        let backbone = restored_backbone(&mut sys, 994);
        let loaded = RetrievalSystem::load_v3(
            backbone,
            &path,
            RetrievalConfig { m: 5, ..RetrievalConfig::default() },
        )
        .unwrap();
        assert_eq!(loaded.gallery_len(), sys.gallery_len());
        for c in 0..8 {
            let q = ds.video(VideoId { class: c, instance: 1 });
            assert_eq!(sys.retrieve(&q).unwrap(), loaded.retrieve(&q).unwrap());
        }
        let _ = std::fs::remove_file(path);
    }
}
