//! A disk-resident spatial network: adjacency lists served from disk pages
//! through an LRU buffer pool.
//!
//! The paper's evaluation is disk-resident end to end: the competitors INE
//! and IER traverse the *network* from disk exactly as SILC reads its
//! quadtrees from disk. This module provides that substrate — the vertex
//! directory (offsets, positions) stays in memory like any index's root
//! metadata, while the `O(m)` adjacency records are fetched page by page.
//!
//! ## File layout (magic `SILCPNT2`)
//!
//! The envelope — magic, span lengths, page padding and the per-page
//! checksum table — is [`silc_storage::container`]'s. Inside it:
//!
//! ```text
//! meta      n u32 | m u32 | positions n × (f64, f64) | offsets (n+1) × u32
//! payload   m × (target u32 | weight f64) — 12 bytes per record
//! ```
//!
//! Offsets are validated at open (start at 0, non-decreasing, end at `m`)
//! and every record at read time (target `< n`, weight neither NaN nor
//! negative), so a corrupt file surfaces as `InvalidData`, never as a panic
//! or a phantom vertex.

use crate::{SpatialNetwork, VertexId};
use bytes::{Buf, BufMut};
use silc_geom::Point;
use silc_storage::{container, BufferPool, FilePageStore};
use std::io;
use std::path::Path;

/// The container magic of the one live paged-network format.
const MAGIC: &[u8; 8] = b"SILCPNT2";
/// Bytes per serialized edge record.
pub const EDGE_BYTES: usize = 12;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serializes `g` into a page file at `path` (see the module docs for the
/// layout).
pub fn write_paged<P: AsRef<Path>>(g: &SpatialNetwork, path: P) -> io::Result<()> {
    let n = g.vertex_count();
    let m = g.edge_count();
    let mut meta = Vec::with_capacity(8 + n * 16 + (n + 1) * 4);
    meta.put_u32_le(n as u32);
    meta.put_u32_le(m as u32);
    for v in g.vertices() {
        let p = g.position(v);
        meta.put_f64_le(p.x);
        meta.put_f64_le(p.y);
    }
    let mut offset = 0u32;
    meta.put_u32_le(0);
    for v in g.vertices() {
        offset += g.out_degree(v) as u32;
        meta.put_u32_le(offset);
    }
    let mut edges = Vec::with_capacity(m * EDGE_BYTES);
    for u in g.vertices() {
        for (v, w) in g.out_edges(u) {
            edges.put_u32_le(v.0);
            edges.put_f64_le(w);
        }
    }
    FilePageStore::create(path, &container::encode(MAGIC, &meta, edges))?;
    Ok(())
}

/// A spatial network whose adjacency lists live on disk behind an LRU
/// buffer pool.
pub struct PagedNetwork {
    positions: Vec<Point>,
    offsets: Vec<u32>,
    edges_base: u64,
    pool: BufferPool<FilePageStore>,
}

impl PagedNetwork {
    /// Opens a paged network file with a buffer pool holding
    /// `cache_fraction` of its pages (the paper uses 0.05). The metadata is
    /// checksum-verified here, the edge pages on every physical read.
    pub fn open<P: AsRef<Path>>(path: P, cache_fraction: f64) -> io::Result<Self> {
        let store = FilePageStore::open(&path)?;
        let opened = container::open(&store, MAGIC)?;
        let mut r = &opened.meta[..];
        if r.len() < 8 {
            return Err(invalid("metadata too small for its counts".into()));
        }
        let n = r.get_u32_le() as usize;
        let m = r.get_u32_le() as usize;
        if r.len() != n * 16 + (n + 1) * 4 {
            return Err(invalid(format!("metadata size does not match {n} vertices")));
        }
        if opened.payload_len != (m * EDGE_BYTES) as u64 {
            return Err(invalid(format!("edge region does not hold {m} records")));
        }
        let positions = (0..n).map(|_| Point::new(r.get_f64_le(), r.get_f64_le())).collect();
        let offsets: Vec<u32> = (0..=n).map(|_| r.get_u32_le()).collect();
        if offsets[0] != 0 || offsets[n] as usize != m {
            return Err(invalid("offset table does not span the edge count".into()));
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(invalid(format!("offset table decreases at vertex {v}")));
        }
        let mut pool = BufferPool::with_fraction(store, cache_fraction);
        pool.set_checksums(opened.checks);
        Ok(PagedNetwork { positions, offsets, edges_base: opened.payload_base, pool })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of vertex `v` (the spatial directory stays in memory).
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// Reads the adjacency list of `v` from disk pages — the
    /// panic-at-the-boundary wrapper around [`Self::try_out_edges`] for
    /// the INE/IER baselines, whose scans treat a vanished network file
    /// as fatal.
    ///
    /// # Panics
    /// Panics on I/O errors; use [`Self::try_out_edges`] to handle them.
    pub fn out_edges(&self, v: VertexId, out: &mut Vec<(VertexId, f64)>) {
        self.try_out_edges(v, out).unwrap_or_else(|e| panic!("network page read failed: {e}"))
    }

    /// Fallible adjacency read: I/O trouble, a checksum mismatch, or a
    /// record naming no vertex or carrying a NaN or negative weight comes
    /// back as the error (the scratch vector is then left cleared, holding
    /// no partial list).
    pub fn try_out_edges(&self, v: VertexId, out: &mut Vec<(VertexId, f64)>) -> io::Result<()> {
        out.clear();
        let start = self.offsets[v.index()] as u64;
        let end = self.offsets[v.index() + 1] as u64;
        let mut raw = Vec::with_capacity(((end - start) as usize) * EDGE_BYTES);
        self.pool.read_range(
            self.edges_base + start * EDGE_BYTES as u64,
            self.edges_base + end * EDGE_BYTES as u64,
            &mut raw,
        )?;
        let mut r = &raw[..];
        for _ in start..end {
            let target = r.get_u32_le();
            let weight = r.get_f64_le();
            if target as usize >= self.positions.len() || weight.is_nan() || weight < 0.0 {
                out.clear();
                return Err(invalid(format!("vertex {v}: bad edge record ({target}, {weight})")));
            }
            out.push((VertexId(target), weight));
        }
        Ok(())
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.pool.stats()
    }

    /// Zeroes the I/O counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats()
    }

    /// Drops all cached pages.
    pub fn clear_cache(&self) {
        self.pool.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{road_network, RoadConfig};
    use silc_storage::PAGE_SIZE;
    use std::ops::Range;
    use std::path::PathBuf;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-paged-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn paged_adjacency_matches_memory() {
        let g = road_network(&RoadConfig { vertices: 120, seed: 4, ..Default::default() });
        let path = tmp("adj.pnet");
        write_paged(&g, &path).unwrap();
        let p = PagedNetwork::open(&path, 1.0).unwrap();
        assert_eq!(p.vertex_count(), g.vertex_count());
        let mut buf = Vec::new();
        for v in g.vertices() {
            assert_eq!(p.position(v), g.position(v));
            p.out_edges(v, &mut buf);
            let want: Vec<_> = g.out_edges(v).collect();
            assert_eq!(buf, want, "adjacency of {v} differs");
        }
        assert!(p.io_stats().requests() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_cache_pays_for_scans() {
        let g = road_network(&RoadConfig { vertices: 300, seed: 5, ..Default::default() });
        let path = tmp("scan.pnet");
        write_paged(&g, &path).unwrap();
        let p = PagedNetwork::open(&path, 0.05).unwrap();
        let mut buf = Vec::new();
        for v in g.vertices() {
            p.out_edges(v, &mut buf);
        }
        let first = p.io_stats();
        assert!(first.misses > 0);
        // A second full scan in the same order re-misses (sequential flood
        // beats a 5% LRU).
        p.reset_io_stats();
        for v in g.vertices() {
            p.out_edges(v, &mut buf);
        }
        assert!(p.io_stats().misses > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_rejected() {
        let path = tmp("bad.pnet");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(PagedNetwork::open(&path, 0.5).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Writes a 50-vertex network, lets `edit` tamper with the image given
    /// its metadata and edge spans, reseals the checksums so the edit
    /// reaches the validators, and returns the file's path.
    fn tampered(name: &str, edit: impl FnOnce(&mut [u8], Range<usize>, Range<usize>)) -> PathBuf {
        let g = road_network(&RoadConfig { vertices: 50, seed: 9, ..Default::default() });
        let path = tmp(name);
        write_paged(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (meta, edges) = container::spans(&bytes);
        edit(&mut bytes, meta, edges);
        container::reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn non_monotone_offsets_rejected_at_open() {
        // offsets[1] > offsets[2]: a negative-length adjacency list, which
        // used to open and then underflow in `try_out_edges`.
        let path = tampered("decreasing.pnet", |b, meta, _| {
            let offsets = meta.start + 8 + 50 * 16;
            let second = u32::from_le_bytes(b[offsets + 8..offsets + 12].try_into().unwrap());
            put_u32(b, offsets + 4, second + 1);
        });
        let err = PagedNetwork::open(&path, 0.5).err().expect("decreasing offsets must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("decreases at vertex 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_edge_target_rejected() {
        // The first edge record names vertex n + 1000 of a 50-vertex network.
        let path = tampered("farvertex.pnet", |b, _, edges| put_u32(b, edges.start, 1050));
        let p = PagedNetwork::open(&path, 0.5).unwrap();
        let mut out = vec![(VertexId(7), 1.0)];
        let err = p.try_out_edges(VertexId(0), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1050"), "{err}");
        assert!(out.is_empty(), "no partial list on error");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_or_negative_edge_weight_rejected() {
        for (name, bad) in [("nanweight.pnet", f64::NAN), ("negweight.pnet", -2.5)] {
            let path = tampered(name, |b, _, edges| {
                b[edges.start + 4..edges.start + 12].copy_from_slice(&bad.to_le_bytes());
            });
            let p = PagedNetwork::open(&path, 0.5).unwrap();
            let err = p.try_out_edges(VertexId(0), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn edge_page_bit_flip_is_a_typed_checksum_error() {
        let g = road_network(&RoadConfig { vertices: 400, seed: 6, ..Default::default() });
        let path = tmp("bitflip.pnet");
        write_paged(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let edges = container::spans(&bytes).1;
        let victim = edges.end / PAGE_SIZE;
        assert!(victim * PAGE_SIZE > edges.start, "fixture edges must span pages");
        bytes[edges.end - 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let p = PagedNetwork::open(&path, 1.0).unwrap();
        let mut buf = Vec::new();
        let err = g
            .vertices()
            .find_map(|v| p.try_out_edges(v, &mut buf).err())
            .expect("some adjacency list lives on the flipped page");
        let pc = silc_storage::as_page_corrupt(&err).expect("the error names its page");
        assert_eq!(pc.page, victim as u64);
        std::fs::remove_file(&path).ok();
    }
}
