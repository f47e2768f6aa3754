//! Proptest law: every on-disk format answers bit-identically to the
//! in-memory structure it was written from.
//!
//! Each page format has one live version, wrapped in the shared
//! `silc_storage::container` envelope; its payload codec (delta+varint
//! block lists and pair groups, elided representatives, raw adjacency
//! records) must be a *pure* representation change — no query may be able
//! to tell whether memory or disk served it. On random road networks this
//! locks, per case:
//!
//! * **SILC**: the encoded index, reopened through an in-memory page store,
//!   answers `network_distance` bit-identically to the in-memory index;
//! * **PCP**: the encoded oracle answers `distance_with_epsilon` — distance
//!   *and* per-pair cap — bit-identically to the memory oracle, and its
//!   compression actually engages (the pair region is strictly smaller
//!   than fixed-width records would be whenever the oracle stores pairs);
//! * **paged network**: every adjacency list read from disk pages equals
//!   the `SpatialNetwork`'s, targets and weight bits included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc::disk::{encode_index, DiskSilcIndex};
use silc::path::network_distance;
use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::paged::{write_paged, PagedNetwork};
use silc_network::VertexId;
use silc_pcp::{DiskDistanceOracle, DistanceOracle};
use silc_storage::MemPageStore;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The live SILC format against the in-memory index.
    #[test]
    fn silc_disk_format_answers_bit_identically(
        seed in 0u64..1_000_000,
        vertices in 30usize..80,
    ) {
        let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 1 }).unwrap();
        let disk = DiskSilcIndex::from_store(
            Box::new(MemPageStore::new(&encode_index(&idx))),
            g.clone(),
            0.5,
            8,
        )
        .unwrap();

        let n = g.vertex_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0_F0);
        for _ in 0..25 {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            let want = network_distance(&idx, u, v).unwrap();
            let got = network_distance(&disk, u, v).unwrap();
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "disk diverged at {u}->{v}: {got} vs {want}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The live PCP format against the memory oracle.
    #[test]
    fn pcp_disk_format_answers_bit_identically(
        seed in 0u64..1_000_000,
        vertices in 40usize..90,
        separation in 6.0f64..12.0,
    ) {
        // b, two representatives (u32 each), distance and cap (f64 each).
        const FIXED_RECORD_BYTES: u64 = 28;
        let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
        let mem = DistanceOracle::build_with(
            &g,
            &silc_pcp::PcpBuildConfig { grid_exponent: 8, separation, threads: 1 },
        );
        let disk = DiskDistanceOracle::from_store(
            MemPageStore::new(&silc_pcp::encode_oracle(&mem)),
            0.5,
            None,
        )
        .unwrap();
        let fixed_bytes = mem.pair_count() as u64 * FIXED_RECORD_BYTES;
        if mem.pair_count() > 0 {
            prop_assert!(
                disk.pair_region_bytes() < fixed_bytes,
                "pair region ({} B) did not compress below fixed-width records ({fixed_bytes} B)",
                disk.pair_region_bytes()
            );
        }

        let n = g.vertex_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE5);
        for _ in 0..40 {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            let (m, m_cap) = mem.distance_with_epsilon(u, v);
            let (d, d_cap) = disk.distance_with_epsilon(u, v);
            prop_assert!(
                d.to_bits() == m.to_bits(),
                "distance bits diverged at {u}->{v}: {d} vs {m}"
            );
            prop_assert!(
                d_cap.to_bits() == m_cap.to_bits(),
                "cap bits diverged at {u}->{v}: {d_cap} vs {m_cap}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The live paged-network format against the in-memory adjacency.
    #[test]
    fn paged_network_adjacency_matches_memory(
        seed in 0u64..1_000_000,
        vertices in 30usize..400,
    ) {
        let g = road_network(&RoadConfig { vertices, seed, ..Default::default() });
        let dir = std::env::temp_dir().join("silc-format-identity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{seed}-{vertices}.pnet"));
        write_paged(&g, &path).unwrap();
        let paged = PagedNetwork::open(&path, 0.25).unwrap();
        prop_assert_eq!(paged.vertex_count(), g.vertex_count());
        let mut out = Vec::new();
        for v in g.vertices() {
            prop_assert_eq!(paged.position(v), g.position(v));
            paged.try_out_edges(v, &mut out).unwrap();
            let want: Vec<(VertexId, f64)> = g.out_edges(v).collect();
            prop_assert_eq!(out.len(), want.len());
            for (&(t, w), &(wt, ww)) in out.iter().zip(&want) {
                prop_assert!(t == wt && w.to_bits() == ww.to_bits(), "edge of {v} differs");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
