//! The one seeded generator every workload draws from.
//!
//! The seed goes in; a road network, an object set and a query stream come
//! out. The engine sees nothing else, so the same seed always hands it the
//! same inputs, and two workloads built from one seed share the network,
//! objects and queries.
//!
//! Like the paper's single TIGER extract, the data set is fixed: one
//! network per size ([`NETWORK_SEED`]) with one object set
//! ([`OBJECT_SEED`]). The seed varies what is asked of it: the query stream
//! and the arrival schedules. Index size, build time and per-query cost
//! then measure the code, not the luck of one random geometry.

use silc_network::generate::{road_network, RoadConfig};
use silc_network::{SpatialNetwork, VertexId};
use silc_query::ObjectSet;
use std::sync::Arc;

/// SplitMix64: tiny, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2⁻³² for our n).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (inter-arrival time of a Poisson
    /// process).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Derives the independent sub-seed `stream` of `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Seed of every generated network.
pub const NETWORK_SEED: u64 = 2008;
/// Seed of every object set.
pub const OBJECT_SEED: u64 = 2008 ^ 0xBA5E;

/// Sub-seed streams, one per kind of input.
pub const STREAM_QUERIES: u64 = 3;
/// Poisson schedules use `STREAM_SCHEDULE + rung`.
pub const STREAM_SCHEDULE: u64 = 100;

/// Road-network shape shared by every workload.
pub const EDGE_FACTOR: f64 = 1.25;
pub const DETOUR: f64 = 0.2;
pub const EXTENT: f64 = 1000.0;

/// Everything the engine is given.
pub struct Inputs {
    pub network: Arc<SpatialNetwork>,
    pub objects: Arc<ObjectSet>,
    pub queries: Vec<VertexId>,
}

/// The road network of `vertices` vertices.
pub fn network(vertices: usize) -> SpatialNetwork {
    road_network(&RoadConfig {
        vertices,
        edge_factor: EDGE_FACTOR,
        detour: DETOUR,
        extent: EXTENT,
        seed: NETWORK_SEED,
    })
}

/// The objects at `density` on `network`, and `count` query vertices
/// drawn uniformly from `seed`.
pub fn objects_and_queries(
    network: &SpatialNetwork,
    density: f64,
    count: usize,
    seed: u64,
) -> (ObjectSet, Vec<VertexId>) {
    let objects = ObjectSet::random(network, density, OBJECT_SEED);
    (objects, query_stream(network.vertex_count() as u32, count, seed))
}

/// `count` query vertices uniform in `0..n`.
pub fn query_stream(n: u32, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SplitMix::new(sub_seed(seed, STREAM_QUERIES));
    (0..count).map(|_| VertexId(rng.below(n))).collect()
}

/// Generates the full input set.
pub fn inputs(vertices: usize, density: f64, queries: usize, seed: u64) -> Inputs {
    let network = network(vertices);
    let (objects, queries) = objects_and_queries(&network, density, queries, seed);
    Inputs { network: Arc::new(network), objects: Arc::new(objects), queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = inputs(300, 0.07, 50, 7);
        let b = inputs(300, 0.07, 50, 7);
        let c = inputs(300, 0.07, 50, 8);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.network.edge_count(), b.network.edge_count());
        let oa: Vec<_> = a.objects.iter().collect();
        let ob: Vec<_> = b.objects.iter().collect();
        let oc: Vec<_> = c.objects.iter().collect();
        assert_eq!(oa, ob);
        assert_eq!(oa, oc, "the data set does not depend on the seed");
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn below_stays_in_range_and_exponential_has_the_right_mean() {
        let mut r = SplitMix::new(1);
        assert!((0..10_000).all(|_| r.below(17) < 17));
        let mean: f64 = (0..200_000).map(|_| r.exponential(4.0)).sum::<f64>() / 200_000.0;
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
    }
}
