//! The shortest-path quadtree: a disjoint Morton-block decomposition of a
//! shortest-path map.
//!
//! A region of the grid becomes a leaf block as soon as every vertex inside
//! shares the same first-hop color; empty regions are never materialized
//! (paper p.13–15: this is why the structure is `O(perimeter)` per source,
//! "dimension reducing", unlike MX/region quadtrees). Each block also keeps
//! `[λ−, λ+]`, the extremes of `network distance / Euclidean distance` over
//! its vertices, from which `DISTANCE_INTERVAL(u, v) = [λ−·dE, λ+·dE]` is
//! computed in O(1) after an `O(log n)` block lookup.

use crate::error::BuildError;
use crate::interval::DistInterval;
use crate::spmap::ShortestPathMap;
pub use crate::spmap::COLOR_SOURCE;
use silc_geom::Point;
use silc_morton::{MortonBlock, MortonCode};
use silc_network::VertexId;

/// One Morton block of a shortest-path quadtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockEntry {
    /// The region of the grid this entry covers.
    pub block: MortonBlock,
    /// First-hop color: the slot index into the source's sorted adjacency
    /// list, or [`COLOR_SOURCE`] for the block holding the source itself.
    pub color: u16,
    /// Minimum of `d_network / d_euclidean` over the block's vertices.
    pub lambda_lo: f64,
    /// Maximum of `d_network / d_euclidean` over the block's vertices.
    pub lambda_hi: f64,
}

impl BlockEntry {
    /// The distance interval for a destination inside this block at
    /// Euclidean distance `euclid` from the source.
    #[inline]
    pub fn interval(&self, euclid: f64) -> DistInterval {
        DistInterval::new(self.lambda_lo * euclid, self.lambda_hi * euclid)
    }
}

/// An inclusive rectangle of grid cells `[x0..=x1] × [y0..=y1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRect {
    pub x0: u32,
    pub y0: u32,
    pub x1: u32,
    pub y1: u32,
}

impl CellRect {
    /// Creates a cell rectangle; coordinates are clamped to `x0<=x1`, `y0<=y1`
    /// by the caller.
    pub fn new(x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        debug_assert!(x0 <= x1 && y0 <= y1, "inverted cell rect");
        CellRect { x0, y0, x1, y1 }
    }

    /// Does `block` share at least one cell with the rectangle?
    #[inline]
    pub fn intersects_block(&self, block: &MortonBlock) -> bool {
        let o = block.origin();
        let s = block.side();
        o.x <= self.x1 && o.x + s > self.x0 && o.y <= self.y1 && o.y + s > self.y0
    }

    /// Does the rectangle contain the single cell `(x, y)`?
    #[inline]
    pub fn contains_cell(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }
}

/// The shortest-path quadtree of one source vertex, stored as a sorted flat
/// list of Morton blocks.
#[derive(Debug, Clone, Default)]
pub struct SpQuadtree {
    entries: Vec<BlockEntry>,
    q: u32,
}

/// One source's shortest-path map in *Morton order*: entry `i` of every
/// slice describes the vertex in the `i`-th grid cell (ascending cell
/// code). The index builder scatters straight into this layout during the
/// SSSP settle callback, so the decomposition below runs on contiguous
/// memory with no per-vertex gathers.
pub struct MortonMap<'a> {
    /// The source vertex.
    pub source: VertexId,
    /// World position of the source.
    pub src_pos: Point,
    /// First-hop colors in code order ([`COLOR_SOURCE`] at the source).
    pub colors: &'a [u16],
    /// Network distances in code order.
    pub dist: &'a [f64],
    /// The sorted cell codes themselves.
    pub codes: &'a [u64],
    /// Vertex ids in code order (error reporting only).
    pub verts: &'a [u32],
    /// World positions in code order.
    pub positions: &'a [Point],
}

/// Reusable decomposition state: the traversal stack, the entry output
/// buffer (cloned into each finished tree at exact size), and the
/// uniform-run index. One scratch per worker makes quadtree construction
/// allocation-free across sources; for a single build, [`SpQuadtree::build`]
/// creates a throwaway one.
#[derive(Debug, Default)]
pub struct TreeScratch {
    stack: Vec<(MortonBlock, usize, usize)>,
    entries: Vec<BlockEntry>,
    /// `run_end[i]` = end (exclusive) of the maximal same-color run
    /// starting at code rank `i` — turns the per-node uniformity scan into
    /// an O(1) lookup (`run_end[lo] >= hi`).
    run_end: Vec<u32>,
}

impl TreeScratch {
    /// Materializes the most recent decomposition as an owned quadtree —
    /// one exact-size copy of the entry buffer.
    pub fn to_quadtree(&self, q: u32) -> SpQuadtree {
        SpQuadtree { entries: self.entries.clone(), q }
    }
}

impl SpQuadtree {
    /// Builds the quadtree for `map`.
    ///
    /// * `sorted` — all `(cell code, vertex)` pairs sorted by code (shared
    ///   across every source, computed once by the index builder),
    /// * `positions[v]` — world positions,
    /// * `q` — grid resolution exponent.
    ///
    /// One-shot wrapper over [`SpQuadtree::build_with`]: permutes the map
    /// into Morton order and allocates a throwaway scratch. The index
    /// builder bypasses this and scatters into Morton order during the
    /// SSSP itself.
    pub fn build(
        map: &ShortestPathMap,
        sorted: &[(u64, u32)],
        positions: &[Point],
        q: u32,
    ) -> Result<Self, BuildError> {
        let codes: Vec<u64> = sorted.iter().map(|&(c, _)| c).collect();
        let verts: Vec<u32> = sorted.iter().map(|&(_, v)| v).collect();
        let colors: Vec<u16> = verts.iter().map(|&v| map.colors[v as usize]).collect();
        let dist: Vec<f64> = verts.iter().map(|&v| map.dist[v as usize]).collect();
        let pos: Vec<Point> = verts.iter().map(|&v| positions[v as usize]).collect();
        let morton = MortonMap {
            source: map.source,
            src_pos: positions[map.source.index()],
            colors: &colors,
            dist: &dist,
            codes: &codes,
            verts: &verts,
            positions: &pos,
        };
        Self::build_with(&mut TreeScratch::default(), &morton, q)
    }

    /// Builds the quadtree from a Morton-ordered map using reusable scratch
    /// buffers. The finished tree's entry vector is allocated at exact size
    /// (one copy out of the scratch); everything else is reused.
    pub fn build_with(
        scratch: &mut TreeScratch,
        map: &MortonMap<'_>,
        q: u32,
    ) -> Result<Self, BuildError> {
        Self::decompose_with(scratch, map, q)?;
        Ok(scratch.to_quadtree(q))
    }

    /// Runs the block decomposition into `scratch.entries` and returns the
    /// block count without materializing a tree — the streaming storage
    /// counter uses this to avoid any per-source allocation at all.
    pub fn decompose_with(
        scratch: &mut TreeScratch,
        map: &MortonMap<'_>,
        q: u32,
    ) -> Result<usize, BuildError> {
        let n = map.codes.len();
        debug_assert!(map.colors.len() == n && map.dist.len() == n && map.positions.len() == n);
        let source = map.source;
        let src_pos = map.src_pos;
        let colors = map.colors;

        // Uniform-run index, rebuilt right-to-left in O(n).
        if scratch.run_end.len() != n {
            scratch.run_end.resize(n, 0);
        }
        for i in (0..n).rev() {
            scratch.run_end[i] = if i + 1 < n && colors[i + 1] == colors[i] {
                scratch.run_end[i + 1]
            } else {
                (i + 1) as u32
            };
        }
        let run_end = &scratch.run_end[..];
        let entries = &mut scratch.entries;
        entries.clear();
        let stack = &mut scratch.stack;
        stack.clear();

        // Explicit stack to avoid recursion depth limits; children are pushed
        // in reverse so blocks are emitted in ascending Morton order.
        stack.push((MortonBlock::root(q), 0, n));
        while let Some((block, lo, hi)) = stack.pop() {
            if lo == hi {
                continue;
            }
            let first_color = colors[lo];
            if run_end[lo] as usize >= hi {
                if first_color == COLOR_SOURCE {
                    entries.push(BlockEntry {
                        block,
                        color: COLOR_SOURCE,
                        lambda_lo: 0.0,
                        lambda_hi: 0.0,
                    });
                    continue;
                }
                let mut l_lo = f64::INFINITY;
                let mut l_hi = 0.0f64;
                for i in lo..hi {
                    let e = src_pos.distance(&map.positions[i]);
                    if e <= 0.0 {
                        return Err(BuildError::CoincidentVertices(source, VertexId(map.verts[i])));
                    }
                    let ratio = map.dist[i] / e;
                    l_lo = l_lo.min(ratio);
                    l_hi = l_hi.max(ratio);
                }
                entries.push(BlockEntry {
                    block,
                    color: first_color,
                    lambda_lo: l_lo,
                    lambda_hi: l_hi,
                });
                continue;
            }
            debug_assert!(block.level() > 0, "mixed colors in a single cell: duplicate cells?");
            let children = block.children();
            // Partition [lo, hi) into the four children by binary search.
            let mut bounds = [lo; 5];
            bounds[4] = hi;
            for (i, child) in children.iter().enumerate().take(3) {
                let end = child.end();
                bounds[i + 1] = bounds[i] + map.codes[bounds[i]..hi].partition_point(|&c| c < end);
            }
            bounds[3] = bounds[3].max(bounds[2]);
            for i in (0..4).rev() {
                stack.push((children[i], bounds[i], bounds[i + 1]));
            }
        }
        // The stack emits SW/SE/NW/NE first-to-last, so entries are sorted.
        debug_assert!(entries.windows(2).all(|w| w[0].block.end() <= w[1].block.start()));
        Ok(entries.len())
    }

    /// Number of Morton blocks (the unit of the paper's storage-complexity
    /// plot, p.16).
    pub fn block_count(&self) -> usize {
        self.entries.len()
    }

    /// All blocks, in ascending Morton order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }

    /// Grid resolution exponent.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// The block containing `code`, if any vertex-bearing block covers it.
    pub fn lookup(&self, code: MortonCode) -> Option<&BlockEntry> {
        let idx = self.entries.partition_point(|e| e.block.end() <= code.0);
        self.entries.get(idx).filter(|e| e.block.contains_code(code))
    }

    /// The minimum `λ−` over all blocks intersecting `rect`, or `None` when
    /// no vertex-bearing block intersects it.
    ///
    /// This is the region lower bound of the paper's
    /// `DISTANCE_INTERVAL(object, region)` primitive: every vertex inside
    /// `rect` is covered by some intersecting block, so its network distance
    /// is at least `λ− · dE` for the returned λ−.
    pub fn min_lambda_in_rect(&self, rect: &CellRect) -> Option<f64> {
        let mut best: Option<f64> = None;
        self.min_lambda_walk(MortonBlock::root(self.q), rect, &mut best);
        best
    }

    fn min_lambda_walk(&self, block: MortonBlock, rect: &CellRect, best: &mut Option<f64>) {
        if !rect.intersects_block(&block) {
            return;
        }
        if let Some(b) = *best {
            if b == 0.0 {
                return; // cannot improve
            }
        }
        // First entry overlapping `block`.
        let idx = self.entries.partition_point(|e| e.block.end() <= block.start());
        let Some(e) = self.entries.get(idx) else { return };
        if e.block.start() >= block.end() {
            return; // no vertices in this region
        }
        if e.block.start() <= block.start() && e.block.end() >= block.end() {
            // A single entry covers the whole region.
            let lambda = if e.color == COLOR_SOURCE { 0.0 } else { e.lambda_lo };
            *best = Some(best.map_or(lambda, |b| b.min(lambda)));
            return;
        }
        debug_assert!(block.level() > 0);
        for child in block.children() {
            self.min_lambda_walk(child, rect, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::{GridMapper, Rect};
    use silc_network::generate::{grid_network, GridConfig};
    use silc_network::SpatialNetwork;

    /// Shared fixture: network, grid layout, and one map+quadtree.
    fn fixture(
        source: u32,
    ) -> (SpatialNetwork, GridMapper, Vec<MortonCode>, ShortestPathMap, SpQuadtree) {
        let g = grid_network(&GridConfig { rows: 8, cols: 8, seed: 5, ..Default::default() });
        let q = 7;
        let mapper = GridMapper::new(*g.bounds(), q);
        let cells = mapper.assign_unique(g.positions());
        let codes: Vec<MortonCode> = cells.iter().map(|&c| MortonCode::encode(c)).collect();
        let mut sorted: Vec<(u64, u32)> =
            codes.iter().enumerate().map(|(v, c)| (c.0, v as u32)).collect();
        sorted.sort_unstable();
        let map = ShortestPathMap::compute(&g, VertexId(source)).unwrap();
        let tree = SpQuadtree::build(&map, &sorted, g.positions(), q).unwrap();
        (g, mapper, codes, map, tree)
    }

    #[test]
    fn blocks_are_sorted_and_disjoint() {
        let (_, _, _, _, tree) = fixture(10);
        let e = tree.entries();
        assert!(!e.is_empty());
        for w in e.windows(2) {
            assert!(w[0].block.end() <= w[1].block.start(), "blocks overlap or unsorted");
        }
    }

    #[test]
    fn every_vertex_gets_its_color() {
        let (g, _, codes, map, tree) = fixture(10);
        for v in g.vertices() {
            let entry = tree.lookup(codes[v.index()]).expect("vertex cell must be covered");
            assert_eq!(entry.color, map.colors[v.index()], "wrong color for {v}");
        }
    }

    #[test]
    fn source_block_isolates_the_source() {
        let (_, _, codes, _, tree) = fixture(10);
        let e = *tree.lookup(codes[10]).unwrap();
        assert_eq!(e.color, COLOR_SOURCE);
        assert_eq!(e.lambda_lo, 0.0);
        assert_eq!(e.lambda_hi, 0.0);
        // The source's block may cover surrounding *empty* cells, but never
        // another vertex's cell.
        for (v, code) in codes.iter().enumerate() {
            if v != 10 {
                assert!(!e.block.contains_code(*code), "vertex {v} inside the source block");
            }
        }
    }

    #[test]
    fn lambda_interval_contains_true_distance() {
        let (g, _, codes, map, tree) = fixture(27);
        let src = VertexId(27);
        for v in g.vertices() {
            if v == src {
                continue;
            }
            let e = tree.lookup(codes[v.index()]).unwrap();
            let interval = e.interval(g.euclidean(src, v));
            let d = map.dist[v.index()];
            assert!(
                interval.contains(d)
                    || (d - interval.lo).abs() < 1e-9
                    || (d - interval.hi).abs() < 1e-9,
                "interval {interval} misses true distance {d} for {v}"
            );
        }
    }

    #[test]
    fn fewer_blocks_than_vertices_times_constant() {
        // Path coherence: the quadtree has far fewer blocks than cells.
        let (g, _, _, _, tree) = fixture(0);
        let cells = 1u64 << (2 * tree.q());
        assert!((tree.block_count() as u64) < cells / 4);
        assert!(tree.block_count() >= g.out_degree(VertexId(0)));
    }

    #[test]
    fn lookup_outside_any_block_is_none_or_block() {
        let (_, mapper, _, _, tree) = fixture(0);
        // The grid corner far from all jittered vertices may be uncovered;
        // whatever comes back must actually contain the probe.
        let probe = MortonCode::encode(
            mapper.to_grid(&Point::new(mapper.bounds().max_x, mapper.bounds().max_y)),
        );
        if let Some(e) = tree.lookup(probe) {
            assert!(e.block.contains_code(probe));
        }
    }

    #[test]
    fn min_lambda_in_rect_is_valid_lower_bound() {
        let (g, mapper, _, map, tree) = fixture(33);
        let src = VertexId(33);
        // A rect over the north-east quarter of the world.
        let b = g.bounds();
        let world =
            Rect::new((b.min_x + b.max_x) / 2.0, (b.min_y + b.max_y) / 2.0, b.max_x, b.max_y);
        let lo = mapper.to_grid(&Point::new(world.min_x, world.min_y));
        let hi = mapper.to_grid(&Point::new(world.max_x, world.max_y));
        let rect = CellRect::new(lo.x, lo.y, hi.x, hi.y);
        let lambda = tree.min_lambda_in_rect(&rect).expect("quarter must contain vertices");
        for v in g.vertices() {
            if v == src {
                continue;
            }
            let cell = mapper.to_grid(&g.position(v));
            if rect.contains_cell(cell.x, cell.y) {
                let d = map.dist[v.index()];
                let e = g.euclidean(src, v);
                assert!(
                    d >= lambda * e - 1e-9,
                    "regional λ={lambda} invalid for {v}: d={d}, dE={e}"
                );
            }
        }
    }

    #[test]
    fn min_lambda_empty_region_is_none() {
        let (_, _, _, _, tree) = fixture(0);
        // A 1-cell rect in a far corner of the (mostly empty) fine grid.
        let rect = CellRect::new(0, (1 << 7) - 1, 0, (1 << 7) - 1);
        // Either no block covers it (None) or a block does; both acceptable,
        // but when None the caller falls back to the global ratio.
        let _ = tree.min_lambda_in_rect(&rect);
    }

    #[test]
    fn cell_rect_block_intersection() {
        let rect = CellRect::new(2, 2, 5, 5);
        // Level-1 block at origin (0,0): cells 0..=1 — disjoint.
        let b00 = MortonBlock::new(MortonCode::encode(silc_geom::GridCoord::new(0, 0)), 1);
        assert!(!rect.intersects_block(&b00));
        // Level-1 block at (4,4): cells 4..=5 — inside.
        let b44 = MortonBlock::new(MortonCode::encode(silc_geom::GridCoord::new(4, 4)), 1);
        assert!(rect.intersects_block(&b44));
        // Level-2 block at (4,0): x 4..=7, y 0..=3 — overlaps corner.
        let b40 = MortonBlock::new(MortonCode::encode(silc_geom::GridCoord::new(4, 0)), 2);
        assert!(rect.intersects_block(&b40));
    }

    use silc_geom::Point;
}
