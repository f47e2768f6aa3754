//! Persistence: networks (in the FMI exchange format) and SILC indexes
//! survive serialization; the disk-resident index behaves like the
//! in-memory one through the buffer pool; malformed files are rejected,
//! never mis-read.

use silc::{disk, BuildConfig, DiskSilcIndex, DistanceBrowser, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{io as netio, VertexId};
use silc_storage::PageStore;
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("silc-persistence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn network_file_roundtrip_preserves_queries() {
    let g = road_network(&RoadConfig { vertices: 160, seed: 21, ..Default::default() });
    let path = tmp("net.fmi");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    netio::write_fmi(&g, &mut w).unwrap();
    w.into_inner().unwrap();
    let g2 = netio::read_fmi(&mut std::fs::File::open(&path).unwrap()).unwrap();
    // Same SSSP answers on the reloaded network.
    let a = silc_network::dijkstra::full_sssp(&g, VertexId(0));
    let b = silc_network::dijkstra::full_sssp(&g2, VertexId(0));
    assert_eq!(a.dist, b.dist);
    std::fs::remove_file(&path).ok();
}

#[test]
fn index_roundtrip_preserves_every_lookup() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 140, seed: 22, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let path = tmp("full.idx");
    disk::write_index(&idx, &path).unwrap();
    let dsk = DiskSilcIndex::open(&path, g.clone(), 1.0).unwrap();
    for u in g.vertices() {
        for v in g.vertices() {
            if u == v {
                continue;
            }
            assert_eq!(idx.next_hop(u, v), dsk.next_hop(u, v), "{u}->{v}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_cache_still_answers_correctly_just_slower() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 140, seed: 23, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let path = tmp("tiny-cache.idx");
    disk::write_index(&idx, &path).unwrap();
    // A pathologically small cache (one page) must not change results.
    let store = silc_storage::FilePageStore::open(&path).unwrap();
    let tiny_fraction = 1.0 / store.page_count().max(1) as f64;
    drop(store);
    let dsk = DiskSilcIndex::open(&path, g.clone(), tiny_fraction).unwrap();
    for &(s, d) in &[(0u32, 139u32), (50, 90)] {
        let a = silc::path::shortest_path(&idx, VertexId(s), VertexId(d)).unwrap();
        let b = silc::path::shortest_path(&dsk, VertexId(s), VertexId(d)).unwrap();
        assert_eq!(a.path, b.path);
        assert!((a.distance - b.distance).abs() < 1e-6);
    }
    let stats = dsk.io_stats();
    assert!(stats.evictions > 0, "a one-page cache must evict");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_files_are_rejected() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 120, seed: 24, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let path = tmp("corrupt.idx");
    disk::write_index(&idx, &path).unwrap();
    let data = std::fs::read(&path).unwrap();

    // Bad magic.
    let mut bad = data.clone();
    bad[0] ^= 0xFF;
    let bad_path = tmp("bad-magic.idx");
    std::fs::write(&bad_path, &bad).unwrap();
    assert!(DiskSilcIndex::open(&bad_path, g.clone(), 0.5).is_err());

    // Truncated to half a page boundary multiple.
    let trunc_path = tmp("trunc.idx");
    std::fs::write(&trunc_path, &data[..4096]).unwrap();
    assert!(DiskSilcIndex::open(&trunc_path, g.clone(), 0.5).is_err());

    // Wrong network.
    let other = Arc::new(road_network(&RoadConfig { vertices: 50, seed: 1, ..Default::default() }));
    assert!(DiskSilcIndex::open(&path, other, 0.5).is_err());

    for p in [path, bad_path, trunc_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn io_stats_track_real_reads() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 140, seed: 25, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let path = tmp("stats.idx");
    disk::write_index(&idx, &path).unwrap();
    let dsk = DiskSilcIndex::open(&path, g.clone(), 0.05).unwrap();
    let _ = silc::path::shortest_path(&dsk, VertexId(0), VertexId(139)).unwrap();
    let s = dsk.io_stats();
    assert!(s.misses > 0);
    assert_eq!(s.bytes_read, s.misses * silc_storage::PAGE_SIZE as u64);
    assert!(s.read_nanos > 0, "file reads take nonzero time");
    std::fs::remove_file(&path).ok();
}
