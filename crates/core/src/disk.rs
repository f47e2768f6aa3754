//! The disk-resident SILC index.
//!
//! The paper's experiments (p.32, p.38) run the quadtrees from disk with an
//! LRU cache holding 5 % of the pages, and find that I/O time dominates
//! query time because every refinement may touch a different vertex's
//! quadtree. This module serializes an index into a real page file and
//! serves lookups through `silc_storage::BufferPool`, so those experiments
//! measure genuine page reads.
//!
//! ## File layout (magic `SILCIDX4`)
//!
//! The envelope — magic, span lengths, page padding and the per-page
//! checksum table — is [`silc_storage::container`]'s. Inside it:
//!
//! ```text
//! meta      n u32 | q u32 | world bounds 4×f64 | global min ratio f64
//!           codes     n × u64 — per-vertex grid-cell Morton codes
//!           directory n × (u64, u32) — per vertex: byte offset of its
//!                     record span in the payload + entry count
//! payload   variable-length records, all vertices concatenated; within a
//!           vertex the blocks are sorted by Morton base and disjoint, so
//!           each record stores (LEB128 varints unless noted):
//!           level | gap = base − previous block's end | color | λ− f32 | λ+ f32
//!           The first record's gap is its absolute base. A tiling quadtree
//!           has gap 0 almost everywhere, so the usual record is
//!           1 + 1 + 1 + 8 = 11 bytes against 19 for fixed-width fields.
//! ```
//!
//! The metadata is checksum-verified at open time; every payload page is
//! verified on its physical read, so bit rot surfaces as a typed error
//! naming the page instead of a silently wrong distance. Varint decoding
//! is canonical and fully validated (level ≤ q, aligned base, block inside
//! the grid, exact span consumption), so corrupt bytes that slip past the
//! page checksums still surface as a typed [`QueryError::Corrupt`], never
//! a panic or a silently wrong answer.
//!
//! Codes and directory are small and held in memory (they are the
//! "directory" any disk index keeps pinned); only the entry payload — the
//! `O(N√N)` part — goes through the buffer pool. λ bounds are narrowed to
//! `f32` with outward rounding, so disk intervals are never tighter than the
//! exact ones (correctness is preserved; bounds may be a hair looser).

use crate::browser::DistanceBrowser;
use crate::error::{BuildError, QueryError};
use crate::index::SilcIndex;
use crate::sp_quadtree::{BlockEntry, CellRect};
use bytes::{Buf, BufMut};
use silc_geom::{GridMapper, Rect};
use silc_morton::{MortonBlock, MortonCode};
use silc_network::{SpatialNetwork, VertexId};
use silc_storage::varint::{self, VarintReader};
use silc_storage::{container, BufferPool, FilePageStore, PageStore, TieredPool};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The container magic of the one live SILC index format.
const MAGIC: &[u8; 8] = b"SILCIDX4";
/// Metadata bytes before the per-vertex arrays: n, q, bounds, min ratio.
const META_FIXED: usize = 4 + 4 + 32 + 8;
/// Metadata bytes per vertex: its Morton code and its directory slot.
const META_PER_VERTEX: usize = 8 + 8 + 4;

/// Rounds toward −∞ when narrowing to `f32`.
fn f32_down(x: f64) -> f32 {
    let f = x as f32;
    if f as f64 > x {
        f.next_down()
    } else {
        f
    }
}

/// Rounds toward +∞ when narrowing to `f32`.
fn f32_up(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// Appends one vertex's record span: per entry, varint level, varint gap
/// from the previous block's end (the first entry's absolute base), varint
/// color, then the two outward-rounded λ `f32`s.
fn encode_entries(entries: &[BlockEntry], buf: &mut Vec<u8>) {
    let mut prev_end = 0u64;
    for e in entries {
        varint::encode_u64(e.block.level() as u64, buf);
        let base = e.block.start();
        debug_assert!(base >= prev_end, "blocks must be sorted and disjoint");
        varint::encode_u64(base - prev_end, buf);
        varint::encode_u64(e.color as u64, buf);
        buf.put_f32_le(f32_down(e.lambda_lo));
        buf.put_f32_le(f32_up(e.lambda_hi));
        prev_end = e.block.end();
    }
}

/// Decodes one vertex's record span, validating every invariant the
/// encoder maintains: canonical varints, level ≤ `q`, aligned base, block
/// inside the `4^q`-cell grid, blocks sorted and disjoint (gaps are
/// non-negative by construction), and the span consumed exactly. Any
/// violation is an error — corrupt bytes can never produce a wrong entry
/// list or a panic.
fn decode_entries(raw: &[u8], count: u32, q: u32) -> io::Result<Arc<[BlockEntry]>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let grid_end = 1u64 << (2 * q); // q ≤ 16, validated at open
    let mut r = VarintReader::new(raw);
    let mut entries = Vec::with_capacity(count as usize);
    let mut prev_end = 0u64;
    for _ in 0..count {
        let level = r.u64()?;
        if level > q as u64 {
            return Err(invalid(format!("block level {level} exceeds grid exponent {q}")));
        }
        let size = 1u64 << (2 * level as u32);
        let gap = r.u64()?;
        let base = prev_end
            .checked_add(gap)
            .ok_or_else(|| invalid("block base overflows u64".to_string()))?;
        if base % size != 0 {
            return Err(invalid(format!("block base {base:#x} unaligned for level {level}")));
        }
        let end =
            base.checked_add(size).ok_or_else(|| invalid("block end overflows u64".to_string()))?;
        if end > grid_end {
            return Err(invalid(format!("block [{base:#x}, {end:#x}) extends past the grid")));
        }
        let color = r.u64()?;
        let color =
            u16::try_from(color).map_err(|_| invalid(format!("color {color} out of range")))?;
        let lambda_lo = (r.f32_le()? as f64).max(0.0);
        let lambda_hi = r.f32_le()? as f64;
        entries.push(BlockEntry {
            block: MortonBlock::new(MortonCode(base), level as u8),
            color,
            lambda_lo,
            lambda_hi,
        });
        prev_end = end;
    }
    if r.remaining() != 0 {
        return Err(invalid(format!("{} trailing bytes after {count} records", r.remaining())));
    }
    Ok(entries.into())
}

/// Serializes `index` into its page-file byte image.
pub fn encode_index(index: &SilcIndex) -> Vec<u8> {
    let g = index.network();
    let n = g.vertex_count();
    let mut payload: Vec<u8> = Vec::new();
    let mut meta = Vec::with_capacity(META_FIXED + n * META_PER_VERTEX);
    meta.put_u32_le(n as u32);
    meta.put_u32_le(index.mapper().q());
    let b = index.mapper().bounds();
    for x in [b.min_x, b.min_y, b.max_x, b.max_y, index.global_min_ratio()] {
        meta.put_f64_le(x);
    }
    for v in g.vertices() {
        meta.put_u64_le(index.vertex_code(v).value());
    }
    for v in g.vertices() {
        meta.put_u64_le(payload.len() as u64);
        meta.put_u32_le(index.tree(v).block_count() as u32);
        encode_entries(index.tree(v).entries(), &mut payload);
    }
    container::encode(MAGIC, &meta, payload)
}

/// Serializes `index` into a page file at `path`. The write is crash-safe:
/// a temp file in the target directory, fsynced, then atomically renamed —
/// a crash mid-write never leaves a truncated index at `path`.
pub fn write_index<P: AsRef<Path>>(index: &SilcIndex, path: P) -> Result<(), BuildError> {
    FilePageStore::create(path, &encode_index(index))?;
    Ok(())
}

/// A SILC index served from a page file through an LRU buffer pool.
///
/// Cheaply shareable: wrap it in an [`Arc`] and query it from any number of
/// threads. All interior state (the page pool, the decoded-entries cache)
/// is sharded and internally synchronized.
pub struct DiskSilcIndex {
    network: Arc<SpatialNetwork>,
    mapper: GridMapper,
    codes: Vec<MortonCode>,
    /// Per vertex: the byte offset of its record span in the entry region
    /// and how many records it holds.
    directory: Vec<(u64, u32)>,
    entries_base: u64,
    /// Byte length of the entry region.
    entries_len: u64,
    min_ratio: f64,
    /// The two-tier read path: the page pool plus decoded entry lists per
    /// vertex, so repeated probes of the same vertex's quadtree (every
    /// refinement step, every block descent) do not re-deserialize its full
    /// block list from page bytes. The store is type-erased so a wrapper
    /// (fault injection, instrumentation) can be slotted in at open time.
    cached: TieredPool<Box<dyn PageStore>, Arc<[BlockEntry]>>,
}

/// Both index types must stay shareable across query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SilcIndex>();
    assert_send_sync::<DiskSilcIndex>();
};

impl DiskSilcIndex {
    /// Opens an index file, pairing it with the network it was built for.
    ///
    /// `cache_fraction` sizes the buffer pool relative to the file's page
    /// count; the paper uses 0.05. The decoded-entries cache gets a default
    /// size — big enough that a query's working set (the query vertex plus
    /// the refinement frontier) stays decoded; see
    /// [`Self::open_with_entry_cache`] to pick one explicitly.
    pub fn open<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        let cache = silc_storage::default_decoded_capacity(network.vertex_count());
        Self::open_with_entry_cache(path, network, cache_fraction, cache)
    }

    /// Opens an index file with an explicit decoded-entries cache capacity
    /// (in vertices; minimum 1).
    pub fn open_with_entry_cache<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        let store = FilePageStore::open(&path)?;
        Self::from_store(Box::new(store), network, cache_fraction, entry_cache_capacity)
    }

    /// Opens an index from an arbitrary page store — the seam that lets
    /// tests wrap the file in a fault injector, or serve an index from any
    /// other page source. Validates the container and the metadata exactly
    /// like [`Self::open`]: the metadata pages are checksum-verified here,
    /// the entry pages lazily in the buffer pool.
    pub fn from_store(
        store: Box<dyn PageStore>,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        let corrupt = |msg: &str| BuildError::Corrupt(msg.to_string());
        let opened = container::open(&store, MAGIC).map_err(BuildError::from_open)?;
        let mut m = &opened.meta[..];
        if m.len() < META_FIXED {
            return Err(corrupt("metadata too small for its fixed fields"));
        }
        let n = m.get_u32_le() as usize;
        if n != network.vertex_count() {
            return Err(corrupt("index vertex count does not match network"));
        }
        if m.len() != META_FIXED - 4 + n * META_PER_VERTEX {
            return Err(corrupt("metadata size does not match the vertex count"));
        }
        let q = m.get_u32_le();
        if !(1..=16).contains(&q) {
            return Err(corrupt("grid exponent out of range"));
        }
        let bounds = Rect::new(m.get_f64_le(), m.get_f64_le(), m.get_f64_le(), m.get_f64_le());
        let min_ratio = m.get_f64_le();
        let codes = (0..n).map(|_| MortonCode(m.get_u64_le())).collect();
        // Byte-offset directory: spans are contiguous, so each vertex's
        // span ends where the next one starts (the last at the region end).
        let mut directory = Vec::with_capacity(n);
        let mut prev_start = 0u64;
        for i in 0..n {
            let start = m.get_u64_le();
            let count = m.get_u32_le();
            if i == 0 && start != 0 {
                return Err(corrupt("directory does not start at offset 0"));
            }
            if start < prev_start {
                return Err(corrupt("directory offsets are not sorted"));
            }
            prev_start = start;
            directory.push((start, count));
        }
        if prev_start > opened.payload_len {
            return Err(corrupt("directory offset past entry region"));
        }

        let mut cached = TieredPool::new(store, cache_fraction, entry_cache_capacity);
        cached.set_checksums(opened.checks);
        Ok(DiskSilcIndex {
            mapper: GridMapper::new(bounds, q),
            network,
            codes,
            directory,
            entries_base: opened.payload_base,
            entries_len: opened.payload_len,
            min_ratio,
            cached,
        })
    }

    /// Byte length of the compressed entry region.
    pub fn entry_region_bytes(&self) -> u64 {
        self.entries_len
    }

    /// Opts this open out of per-page checksum verification (every page is
    /// verified on its physical read by default). For trusted media and for
    /// measuring the verification overhead — corruption then goes
    /// undetected. Configure before sharing the index across threads.
    pub fn disable_checksum_validation(&mut self) {
        self.cached.clear_checksums();
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.cached.io_stats()
    }

    /// Hit/miss counters of the decoded-entries cache.
    pub fn entry_cache_stats(&self) -> silc_storage::CacheStats {
        self.cached.cache_stats()
    }

    /// Zeroes the I/O counters (pool and decoded-entries cache).
    pub fn reset_io_stats(&self) {
        self.cached.reset_stats();
    }

    /// Drops all cached pages *and* decoded entries (cold start).
    pub fn clear_cache(&self) {
        self.cached.clear();
    }

    /// Number of pages in the index file.
    pub fn page_count(&self) -> u64 {
        self.cached.store().page_count()
    }

    /// Fetches the whole shortest-path quadtree of `u` — the paper's access
    /// pattern ("retrieve the shortest-path quadtree Qs", p.17). Served in
    /// three tiers: the decoded-entries cache (no page access, no decode),
    /// then the buffer pool (decode from cached page bytes), then the store.
    /// Per-vertex quadtrees average `O(√n)` entries, typically well under
    /// one page, so a cold load is one sequential page read.
    ///
    /// A store fault (after the pool's retries) or a checksum mismatch
    /// propagates; nothing is cached for `u`, so a later call re-attempts
    /// the read.
    fn try_load_entries(&self, u: VertexId) -> io::Result<Arc<[BlockEntry]>> {
        self.cached.try_get_or_decode(u.index() as u64, |pool| self.read_entries(pool, u))
    }

    /// Reads and decodes `u`'s entry list from its pages through the pool.
    fn read_entries(
        &self,
        pool: &BufferPool<Box<dyn PageStore>>,
        u: VertexId,
    ) -> io::Result<Arc<[BlockEntry]>> {
        let (start, count) = self.directory[u.index()];
        let end = self.directory.get(u.index() + 1).map_or(self.entries_len, |d| d.0);
        let (byte_lo, byte_hi) = (self.entries_base + start, self.entries_base + end);
        let mut raw = Vec::with_capacity((byte_hi.saturating_sub(byte_lo)) as usize);
        pool.read_range(byte_lo, byte_hi, &mut raw)?;
        // Any decode failure — truncated or malformed varint, invariant
        // violation — is structural corruption; normalize it to one
        // InvalidData error naming the vertex, which the query layer lifts
        // to a typed `Corrupt`.
        decode_entries(&raw, count, self.mapper.q()).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("vertex {}: {e}", u.index()))
        })
    }

    fn min_lambda_walk(
        entries: &[BlockEntry],
        block: MortonBlock,
        rect: &CellRect,
        best: &mut Option<f64>,
    ) {
        if !rect.intersects_block(&block) {
            return;
        }
        if matches!(*best, Some(b) if b == 0.0) {
            return;
        }
        let idx = entries.partition_point(|e| e.block.end() <= block.start());
        let Some(e) = entries.get(idx) else { return };
        if e.block.start() >= block.end() {
            return;
        }
        if e.block.start() <= block.start() && e.block.end() >= block.end() {
            let lambda =
                if e.color == crate::sp_quadtree::COLOR_SOURCE { 0.0 } else { e.lambda_lo };
            *best = Some(best.map_or(lambda, |b| b.min(lambda)));
            return;
        }
        for child in block.children() {
            Self::min_lambda_walk(entries, child, rect, best);
        }
    }
}

impl DistanceBrowser for DiskSilcIndex {
    fn network(&self) -> &SpatialNetwork {
        &self.network
    }

    fn mapper(&self) -> &GridMapper {
        &self.mapper
    }

    fn vertex_code(&self, v: VertexId) -> MortonCode {
        self.codes[v.index()]
    }

    /// # Panics
    /// Panics where [`DistanceBrowser::try_entry`] would error (I/O
    /// failure after retries, checksum mismatch) — the infallible API
    /// boundary for callers that treat a failed disk as fatal.
    fn entry(&self, u: VertexId, code: MortonCode) -> Option<BlockEntry> {
        self.try_entry(u, code).unwrap_or_else(|e| panic!("{e}"))
    }

    /// # Panics
    /// Panics where [`DistanceBrowser::try_min_lambda`] would error.
    fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64> {
        self.try_min_lambda(u, rect).unwrap_or_else(|e| panic!("{e}"))
    }

    fn global_min_ratio(&self) -> f64 {
        self.min_ratio
    }

    fn try_entry(&self, u: VertexId, code: MortonCode) -> Result<Option<BlockEntry>, QueryError> {
        let entries = self.try_load_entries(u)?;
        let idx = entries.partition_point(|e| e.block.end() <= code.0);
        Ok(entries.get(idx).filter(|e| e.block.contains_code(code)).copied())
    }

    fn try_min_lambda(&self, u: VertexId, rect: &CellRect) -> Result<Option<f64>, QueryError> {
        let entries = self.try_load_entries(u)?;
        let mut best = None;
        Self::min_lambda_walk(&entries, MortonBlock::root(self.mapper.q()), rect, &mut best);
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BuildConfig;
    use crate::path;
    use silc_network::dijkstra;
    use silc_network::generate::{grid_network, GridConfig};
    use silc_storage::PAGE_SIZE;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn build_pair(name: &str) -> (SilcIndex, DiskSilcIndex) {
        let g = Arc::new(grid_network(&GridConfig {
            rows: 8,
            cols: 8,
            seed: 41,
            ..Default::default()
        }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 2 }).unwrap();
        let path = tmp(name);
        write_index(&idx, &path).unwrap();
        let disk = DiskSilcIndex::open(&path, g, 0.25).unwrap();
        (idx, disk)
    }

    #[test]
    fn disk_lookups_match_memory() {
        let (mem, disk) = build_pair("match.idx");
        let g = mem.network();
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    mem.next_hop(u, v),
                    disk.next_hop(u, v),
                    "next hop differs for {u}->{v}"
                );
                let im = mem.interval(u, v);
                let id = disk.interval(u, v);
                // Disk λ are widened by f32 rounding: the disk interval must
                // contain the memory interval.
                assert!(id.lo <= im.lo + 1e-9 && id.hi >= im.hi - 1e-9, "{u}->{v}: {id} vs {im}");
            }
        }
    }

    #[test]
    fn disk_paths_are_optimal() {
        let (_, disk) = build_pair("paths.idx");
        let g = disk.network();
        for &(s, d) in &[(0u32, 63u32), (17, 44)] {
            let p = path::shortest_path(&disk, VertexId(s), VertexId(d)).unwrap();
            let truth = dijkstra::distance(g, VertexId(s), VertexId(d)).unwrap();
            assert!((p.distance - truth).abs() < 1e-6);
        }
        let stats = disk.io_stats();
        assert!(stats.requests() > 0, "disk queries must touch pages");
    }

    #[test]
    fn cache_stats_reflect_locality() {
        // A page cache big enough for the whole file, but a decoded-entries
        // cache of one vertex: the second identical query is served from
        // memory (no misses), and because the entry cache cannot hold the
        // query's working set, the pool itself sees the warm hits.
        let (mem, _) = build_pair("stats.idx");
        let file = tmp("stats.idx");
        let disk =
            DiskSilcIndex::open_with_entry_cache(&file, mem.network_arc().clone(), 1.0, 1).unwrap();
        let _ = path::shortest_path(&disk, VertexId(0), VertexId(63)).unwrap();
        let cold = disk.io_stats();
        assert!(cold.misses > 0);
        disk.reset_io_stats();
        let _ = path::shortest_path(&disk, VertexId(0), VertexId(63)).unwrap();
        let warm = disk.io_stats();
        assert_eq!(warm.misses, 0, "warm run must not touch the disk: {warm:?}");
        assert!(warm.hits > 0);
    }

    #[test]
    fn entry_cache_absorbs_repeated_lookups() {
        let (mem, _) = build_pair("entrycache.idx");
        let g = mem.network();
        let file = tmp("entrycache.idx");
        // An entry cache holding every vertex: the first full sweep decodes
        // each vertex once, the second sweep must not touch the pool.
        let disk = DiskSilcIndex::open_with_entry_cache(
            &file,
            mem.network_arc().clone(),
            0.25,
            g.vertex_count(),
        )
        .unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                let _ = disk.entry(u, disk.vertex_code(v));
            }
        }
        let after_first = disk.io_stats();
        let cache_first = disk.entry_cache_stats();
        assert_eq!(cache_first.misses, g.vertex_count() as u64, "one decode per vertex");
        for u in g.vertices() {
            for v in g.vertices() {
                let _ = disk.entry(u, disk.vertex_code(v));
            }
        }
        assert_eq!(
            disk.io_stats(),
            after_first,
            "warm entry lookups must not touch the page pool at all"
        );
        let cache = disk.entry_cache_stats();
        assert_eq!(cache.misses, cache_first.misses, "no further decodes");
        assert!(cache.hits > cache_first.hits);
        // clear_cache drops decoded entries too: the next lookup re-decodes.
        disk.clear_cache();
        let _ = disk.entry(VertexId(0), disk.vertex_code(VertexId(1)));
        assert_eq!(disk.entry_cache_stats().misses, cache.misses + 1);
        assert!(disk.io_stats().misses > after_first.misses, "cold start re-reads pages");
    }

    #[test]
    fn region_bounds_agree_with_memory_validity() {
        let (mem, disk) = build_pair("region.idx");
        let g = mem.network();
        let u = VertexId(9);
        let b = g.bounds();
        let world =
            Rect::new(b.min_x + b.width() * 0.5, b.min_y, b.max_x, b.max_y * 0.5 + b.min_y * 0.5);
        let bound = disk.region_lower_bound(u, &world);
        for v in g.vertices() {
            if world.contains(&g.position(v)) {
                let d = dijkstra::distance(g, u, v).unwrap();
                assert!(d >= bound - 1e-6, "disk region bound invalid");
            }
        }
    }

    #[test]
    fn wrong_network_rejected() {
        let (mem, _) = build_pair("wrongnet.idx");
        let path = tmp("wrongnet.idx");
        let other = Arc::new(grid_network(&GridConfig { rows: 3, cols: 3, ..Default::default() }));
        match DiskSilcIndex::open(&path, other, 0.2) {
            Err(BuildError::Corrupt(msg)) => assert!(msg.contains("vertex count")),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        drop(mem);
    }

    #[test]
    fn truncated_file_rejected() {
        let (_, _) = build_pair("trunc-src.idx");
        let src = tmp("trunc-src.idx");
        let dst = tmp("trunc.idx");
        let data = std::fs::read(&src).unwrap();
        std::fs::write(&dst, &data[..PAGE_SIZE.min(data.len())]).unwrap();
        let g = Arc::new(grid_network(&GridConfig {
            rows: 8,
            cols: 8,
            seed: 41,
            ..Default::default()
        }));
        assert!(DiskSilcIndex::open(&dst, g, 0.2).is_err());
    }

    #[test]
    fn v3_entry_region_shrinks_by_at_least_thirty_percent() {
        // The delta+varint records against fixed-width fields (u64 base,
        // u8 level, u16 color, two f32 λ = 19 bytes per entry).
        const FIXED_RECORD_BYTES: u64 = 19;
        let (mem, disk) = build_pair("shrink.idx");
        let entries: u64 = mem.network().vertices().map(|v| mem.tree(v).block_count() as u64).sum();
        let (fixed, compressed) = (entries * FIXED_RECORD_BYTES, disk.entry_region_bytes());
        assert!(
            (compressed as f64) <= 0.7 * fixed as f64,
            "entry region {compressed} B not ≤ 70% of the fixed-width {fixed} B"
        );
    }

    #[test]
    fn v3_span_decoder_round_trips_and_rejects_malformed_bytes() {
        let q = 8u32;
        let entries = [
            BlockEntry {
                block: MortonBlock::new(MortonCode(0), 2),
                color: 3,
                lambda_lo: 1.0,
                lambda_hi: 2.5,
            },
            BlockEntry {
                block: MortonBlock::new(MortonCode(16), 2),
                color: 700,
                lambda_lo: 1.25,
                lambda_hi: 4.0,
            },
            BlockEntry {
                block: MortonBlock::new(MortonCode(64), 3),
                color: 0,
                lambda_lo: 0.5,
                lambda_hi: 0.75,
            },
        ];
        let mut buf = Vec::new();
        encode_entries(&entries, &mut buf);
        let back = decode_entries(&buf, entries.len() as u32, q).unwrap();
        assert_eq!(&back[..], &entries[..], "round trip must be bit-identical");
        // Empty span, zero entries: fine.
        assert!(decode_entries(&[], 0, q).unwrap().is_empty());

        let kind = |raw: &[u8], count: u32| decode_entries(raw, count, q).unwrap_err();
        // Truncation anywhere inside the span is an error, never a panic.
        for cut in 0..buf.len() {
            let e = kind(&buf[..cut], entries.len() as u32);
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // Trailing bytes after the last record.
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(
            kind(&long, entries.len() as u32).kind(),
            io::ErrorKind::InvalidData,
            "trailing bytes must be rejected"
        );
        // Over-long varint in the level field.
        assert_eq!(kind(&[0x80; 11], 1).kind(), io::ErrorKind::InvalidData);
        // Non-canonical varint (0 as two bytes).
        assert_eq!(kind(&[0x80, 0x00], 1).kind(), io::ErrorKind::InvalidData);
        // Level above the grid exponent.
        let mut bad = Vec::new();
        silc_storage::varint::encode_u64(q as u64 + 1, &mut bad);
        assert!(kind(&bad, 1).to_string().contains("exceeds grid exponent"));
        // Unaligned base: level 2 (16 cells) at base 4.
        let mut bad = Vec::new();
        for v in [2u64, 4, 0] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("unaligned"));
        // Block past the grid: level q at a gap that lands outside 4^q.
        let mut bad = Vec::new();
        for v in [0u64, 1u64 << (2 * q), 0] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("past the grid"));
        // Color out of u16 range.
        let mut bad = Vec::new();
        for v in [0u64, 0, 1 << 16] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("color"));
        // A gap that overflows the base accumulator.
        let mut bad = Vec::new();
        encode_entries(&entries[..1], &mut bad);
        let mut second = Vec::new();
        for v in [0u64, u64::MAX, 0] {
            silc_storage::varint::encode_u64(v, &mut second);
        }
        second.extend_from_slice(&[0u8; 8]);
        bad.extend_from_slice(&second);
        let e = kind(&bad, 2);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_v3_records_surface_as_typed_corruption_not_panics() {
        // Bytes that pass the page checksums but violate the record
        // structure (a rewritten file with a recomputed table) must fail
        // with a pageless typed Corrupt at query time.
        let (_, disk) = build_pair("v3-tamper-src.idx");
        let src = tmp("v3-tamper-src.idx");
        let mut data = std::fs::read(&src).unwrap();
        let entries_base = disk.entries_base as usize;
        // Stomp the first vertex's level varint with an over-long varint.
        data[entries_base] = 0x80;
        data[entries_base + 1] = 0x80;
        // Recompute the checksum table so corruption reaches the decoder.
        container::reseal(&mut data);
        let dst = tmp("v3-tamper.idx");
        std::fs::write(&dst, &data).unwrap();
        let g = Arc::new(grid_network(&GridConfig {
            rows: 8,
            cols: 8,
            seed: 41,
            ..Default::default()
        }));
        let bad = DiskSilcIndex::open(&dst, g, 0.25).unwrap();
        match bad.try_entry(VertexId(0), bad.vertex_code(VertexId(1))) {
            Err(QueryError::Corrupt { page: None, detail }) => {
                assert!(detail.contains("vertex 0"), "{detail}");
            }
            other => panic!("expected pageless Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_in_entry_region_is_a_typed_corrupt_error() {
        let (_, disk) = build_pair("bitflip-src.idx");
        let src = tmp("bitflip-src.idx");
        let dst = tmp("bitflip.idx");
        let mut data = std::fs::read(&src).unwrap();
        // Flip one bit in the first entry page (past the pinned metadata).
        let meta_pages = (disk.entries_base as usize).div_ceil(PAGE_SIZE);
        let victim = meta_pages.max(1); // an entry-region page
        data[victim * PAGE_SIZE + 100] ^= 0x10;
        std::fs::write(&dst, &data).unwrap();
        let g = Arc::new(grid_network(&GridConfig {
            rows: 8,
            cols: 8,
            seed: 41,
            ..Default::default()
        }));
        let bad = DiskSilcIndex::open(&dst, g.clone(), 0.25).unwrap();
        // Some vertex's entries live on the flipped page; scanning all of
        // them must surface exactly a typed Corrupt naming that page —
        // never a silently wrong answer.
        let mut hit = None;
        for u in g.vertices() {
            match bad.try_entry(u, bad.vertex_code(VertexId(0))) {
                Ok(_) => {}
                Err(QueryError::Corrupt { page, detail }) => {
                    assert_eq!(page, Some(victim as u64), "wrong page named: {detail}");
                    assert!(detail.contains("checksum mismatch"), "{detail}");
                    hit = Some(u);
                    break;
                }
                Err(e) => panic!("expected Corrupt, got {e}"),
            }
        }
        assert!(hit.is_some(), "no lookup touched the corrupted page");
        // The checksum counters saw the fault; nothing was retried.
        let stats = bad.io_stats();
        assert!(stats.faults_seen >= 1);
        assert_eq!(stats.retries, 0, "checksum mismatches must not be retried");
    }

    #[test]
    fn every_page_aligned_truncation_is_rejected_or_detected() {
        let (_, _) = build_pair("truncsweep-src.idx");
        let src = tmp("truncsweep-src.idx");
        let data = std::fs::read(&src).unwrap();
        let pages = data.len() / PAGE_SIZE;
        let g = Arc::new(grid_network(&GridConfig {
            rows: 8,
            cols: 8,
            seed: 41,
            ..Default::default()
        }));
        for keep in 0..pages {
            let dst = tmp("truncsweep.idx");
            std::fs::write(&dst, &data[..keep * PAGE_SIZE]).unwrap();
            assert!(
                DiskSilcIndex::open(&dst, g.clone(), 0.25).is_err(),
                "truncation to {keep}/{pages} pages must not open"
            );
        }
    }

    #[test]
    fn f32_rounding_is_outward() {
        for &x in &[0.1f64, 1.7, 1234.5678, 1e-9, 3.0] {
            assert!(f32_down(x) as f64 <= x);
            assert!(f32_up(x) as f64 >= x);
        }
        assert_eq!(f32_down(2.0) as f64, 2.0);
        assert_eq!(f32_up(2.0) as f64, 2.0);
    }
}
