//! Quadtree blocks in Morton space.

use crate::MortonCode;
use silc_geom::GridCoord;

/// A grid-aligned square quadtree block.
///
/// A block of `level` ℓ covers a `2^ℓ × 2^ℓ` square of cells whose Morton
/// codes form the contiguous, aligned range `[base, base + 4^ℓ)`. Level 0 is
/// a single cell. Because blocks are aligned, any two blocks are either
/// disjoint or nested — the property that makes a sorted block list a valid
/// disjoint decomposition (unlike the overlapping minimum bounding boxes the
/// paper rejects on p.13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MortonBlock {
    base: u64,
    level: u8,
}

impl MortonBlock {
    /// Creates a block from its base code and level.
    ///
    /// # Panics
    /// Panics (debug builds) if `base` is not aligned to `4^level`.
    #[inline]
    pub fn new(base: MortonCode, level: u8) -> Self {
        debug_assert!(level <= 32, "level {level} exceeds 32");
        debug_assert!(
            level == 32 || base.0 % (1u64 << (2 * level as u32)) == 0,
            "unaligned block base {:#x} for level {level}",
            base.0
        );
        MortonBlock { base: base.0, level }
    }

    /// The level-0 block holding a single cell.
    #[inline]
    pub fn cell(code: MortonCode) -> Self {
        MortonBlock { base: code.0, level: 0 }
    }

    /// The block of the whole `2^q × 2^q` grid.
    #[inline]
    pub fn root(q: u32) -> Self {
        MortonBlock { base: 0, level: q as u8 }
    }

    /// First Morton code in the block.
    #[inline]
    pub fn start(&self) -> u64 {
        self.base
    }

    /// One past the last Morton code in the block.
    #[inline]
    pub fn end(&self) -> u64 {
        if self.level >= 32 {
            u64::MAX
        } else {
            self.base + (1u64 << (2 * self.level as u32))
        }
    }

    /// Block level (side length is `2^level` cells).
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Side length of the block in cells.
    #[inline]
    pub fn side(&self) -> u32 {
        1u32 << self.level.min(31)
    }

    /// Number of cells covered.
    #[inline]
    pub fn cell_count(&self) -> u64 {
        self.end() - self.start()
    }

    /// Grid coordinate of the block's lower-left (minimum) cell.
    #[inline]
    pub fn origin(&self) -> GridCoord {
        MortonCode(self.base).decode()
    }

    /// Tests whether a cell's code lies inside the block.
    #[inline]
    pub fn contains_code(&self, code: MortonCode) -> bool {
        code.0 >= self.start() && code.0 < self.end()
    }

    /// Tests whether `other` is entirely inside `self`.
    #[inline]
    pub fn contains_block(&self, other: &MortonBlock) -> bool {
        self.start() <= other.start() && other.end() <= self.end()
    }

    /// Tests whether the two blocks share any cell. For aligned blocks this
    /// is equivalent to one containing the other.
    #[inline]
    pub fn intersects(&self, other: &MortonBlock) -> bool {
        self.start() < other.end() && other.start() < self.end()
    }

    /// The four child blocks in Z order (SW, SE, NW, NE).
    ///
    /// # Panics
    /// Panics if called on a level-0 block.
    pub fn children(&self) -> [MortonBlock; 4] {
        assert!(self.level > 0, "level-0 blocks have no children");
        let child_level = self.level - 1;
        let step = 1u64 << (2 * child_level as u32);
        [
            MortonBlock { base: self.base, level: child_level },
            MortonBlock { base: self.base + step, level: child_level },
            MortonBlock { base: self.base + 2 * step, level: child_level },
            MortonBlock { base: self.base + 3 * step, level: child_level },
        ]
    }

    /// The parent block one level up, or `None` at level 32.
    pub fn parent(&self) -> Option<MortonBlock> {
        if self.level >= 32 {
            return None;
        }
        let parent_level = self.level + 1;
        let mask = !((1u64 << (2 * parent_level as u32)) - 1);
        Some(MortonBlock { base: self.base & mask, level: parent_level })
    }
}

/// Decomposes an arbitrary half-open Morton range `[lo, hi)` into the minimal
/// sequence of aligned blocks, in code order.
///
/// This is the classic "tiling" of an interval by power-of-four aligned
/// pieces; it is used to express rectangular region queries as block scans.
pub fn block_cover(lo: u64, hi: u64, max_level: u8) -> Vec<MortonBlock> {
    let mut out = Vec::new();
    let mut cur = lo;
    while cur < hi {
        // Largest level such that cur is aligned and the block fits in [cur, hi).
        let align = if cur == 0 { max_level } else { (cur.trailing_zeros() / 2) as u8 };
        let mut level = align.min(max_level);
        while level > 0 && cur + (1u64 << (2 * level as u32)) > hi {
            level -= 1;
        }
        if cur + (1u64 << (2 * level as u32)) > hi {
            // Even a single cell does not fit; range exhausted.
            break;
        }
        out.push(MortonBlock { base: cur, level });
        cur += 1u64 << (2 * level as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn root_covers_everything() {
        let root = MortonBlock::root(8);
        assert_eq!(root.start(), 0);
        assert_eq!(root.end(), 1 << 16);
        assert_eq!(root.side(), 256);
        for code in [0u64, 1, 100, (1 << 16) - 1] {
            assert!(root.contains_code(MortonCode(code)));
        }
        assert!(!root.contains_code(MortonCode(1 << 16)));
    }

    #[test]
    fn children_partition_parent() {
        let b = MortonBlock::new(MortonCode(16), 2);
        let kids = b.children();
        assert_eq!(kids[0].start(), b.start());
        for w in kids.windows(2) {
            assert_eq!(w[0].end(), w[1].start());
        }
        assert_eq!(kids[3].end(), b.end());
        let total: u64 = kids.iter().map(|k| k.cell_count()).sum();
        assert_eq!(total, b.cell_count());
    }

    #[test]
    fn parent_of_child_is_self() {
        let b = MortonBlock::new(MortonCode(64), 3);
        for child in b.children() {
            assert_eq!(child.parent().unwrap(), b);
        }
    }

    #[test]
    fn blocks_nest_or_are_disjoint() {
        let a = MortonBlock::new(MortonCode(0), 2); // [0,16)
        let b = MortonBlock::new(MortonCode(4), 1); // [4,8)
        let c = MortonBlock::new(MortonCode(16), 2); // [16,32)
        assert!(a.intersects(&b) && a.contains_block(&b));
        assert!(!a.intersects(&c));
        assert!(!b.contains_block(&a));
    }

    #[test]
    fn origin_is_minimum_cell() {
        // Block [16, 32) at level 2 starts at the cell decoding code 16.
        let b = MortonBlock::new(MortonCode(16), 2);
        assert_eq!(b.origin(), MortonCode(16).decode());
        assert_eq!(b.origin(), GridCoord::new(4, 0));
    }

    #[test]
    fn cell_block_is_single_cell() {
        let b = MortonBlock::cell(MortonCode(7));
        assert_eq!(b.cell_count(), 1);
        assert!(b.contains_code(MortonCode(7)));
        assert!(!b.contains_code(MortonCode(8)));
    }

    #[test]
    fn cover_whole_grid_is_one_block() {
        let cover = block_cover(0, 1 << 16, 8);
        assert_eq!(cover, vec![MortonBlock::root(8)]);
    }

    #[test]
    fn cover_unaligned_range() {
        // [1, 9): cells 1,2,3 then block [4,8) then cell 8.
        let cover = block_cover(1, 9, 8);
        let total: u64 = cover.iter().map(|b| b.cell_count()).sum();
        assert_eq!(total, 8);
        assert_eq!(cover[0].start(), 1);
        assert_eq!(cover.last().unwrap().end(), 9);
        for w in cover.windows(2) {
            assert_eq!(w[0].end(), w[1].start());
        }
    }

    #[test]
    fn cover_empty_range() {
        assert!(block_cover(5, 5, 8).is_empty());
        assert!(block_cover(9, 5, 8).is_empty());
    }

    proptest! {
        #[test]
        fn cover_tiles_exactly(lo in 0u64..4096, len in 0u64..4096) {
            let hi = lo + len;
            let cover = block_cover(lo, hi, 16);
            // Contiguous, exact, and aligned.
            let mut cur = lo;
            for b in &cover {
                prop_assert_eq!(b.start(), cur);
                prop_assert_eq!(b.start() % b.cell_count(), 0);
                cur = b.end();
            }
            prop_assert_eq!(cur, hi);
        }

        #[test]
        fn cover_is_minimal_locally(lo in 0u64..4096, len in 1u64..4096) {
            // No four consecutive blocks form a complete aligned parent —
            // such a quadruple could be merged, contradicting minimality.
            let cover = block_cover(lo, lo + len, 16);
            for w in cover.windows(4) {
                let same_level = w.iter().all(|b| b.level() == w[0].level());
                if same_level {
                    let same_parent = w.iter().all(|b| b.parent() == w[0].parent());
                    let starts_parent = w[0].parent().is_some_and(|p| p.start() == w[0].start());
                    prop_assert!(
                        !(same_parent && starts_parent),
                        "blocks {:?} could merge into parent",
                        w
                    );
                }
            }
        }

        #[test]
        fn contains_code_matches_range(base in 0u64..1024, level in 0u8..5, code in 0u64..65536) {
            let aligned = base - base % (1u64 << (2 * level as u32));
            let b = MortonBlock::new(MortonCode(aligned), level);
            let inside = code >= b.start() && code < b.end();
            prop_assert_eq!(b.contains_code(MortonCode(code)), inside);
        }
    }
}
