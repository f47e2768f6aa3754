//! Bit-interleaved Z-order codes.

use silc_geom::GridCoord;

/// A Morton (Z-order) code: the bit-interleave of a grid cell's `(x, y)`.
///
/// With grid coordinates up to 16 bits each, codes occupy the low 32 bits of
/// the `u64`; the type supports up to 32-bit coordinates (64-bit codes) so
/// callers never have to worry about overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MortonCode(pub u64);

/// Spreads the low 32 bits of `v` so bit `i` moves to bit `2i`.
#[inline]
fn spread(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread`]: gathers every second bit back into the low half.
#[inline]
fn compact(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

impl MortonCode {
    /// Encodes a grid cell. `x` occupies even bits, `y` odd bits.
    #[inline]
    pub fn encode(c: GridCoord) -> Self {
        MortonCode(spread(c.x) | (spread(c.y) << 1))
    }

    /// Decodes back to the grid cell.
    #[inline]
    pub fn decode(self) -> GridCoord {
        GridCoord::new(compact(self.0), compact(self.0 >> 1))
    }

    /// Raw code value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known_values() {
        // (x=1, y=0) -> 0b01, (x=0, y=1) -> 0b10, (x=1,y=1) -> 0b11
        assert_eq!(MortonCode::encode(GridCoord::new(0, 0)).0, 0);
        assert_eq!(MortonCode::encode(GridCoord::new(1, 0)).0, 1);
        assert_eq!(MortonCode::encode(GridCoord::new(0, 1)).0, 2);
        assert_eq!(MortonCode::encode(GridCoord::new(1, 1)).0, 3);
        assert_eq!(MortonCode::encode(GridCoord::new(2, 0)).0, 4);
        assert_eq!(MortonCode::encode(GridCoord::new(0, 2)).0, 8);
        assert_eq!(MortonCode::encode(GridCoord::new(3, 5)).0, 0b100111);
    }

    #[test]
    fn z_order_visits_quadrants_in_order() {
        // Within a 2x2 block the order is SW, SE, NW, NE (x fastest).
        let codes: Vec<u64> = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .iter()
            .map(|&(x, y)| MortonCode::encode(GridCoord::new(x, y)).0)
            .collect();
        assert_eq!(codes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn max_coordinate_roundtrip() {
        let c = GridCoord::new(u32::MAX, u32::MAX);
        assert_eq!(MortonCode::encode(c).decode(), c);
        assert_eq!(MortonCode::encode(c).0, u64::MAX);
    }

    proptest! {
        #[test]
        fn roundtrip(x in any::<u32>(), y in any::<u32>()) {
            let c = GridCoord::new(x, y);
            prop_assert_eq!(MortonCode::encode(c).decode(), c);
        }

        #[test]
        fn ordering_respects_shared_prefix(x in 0u32..65536, y in 0u32..65536) {
            // All cells in the same 2x2 parent block are contiguous in code
            // space: the parent's code range is [base, base+4).
            let c = GridCoord::new(x & !1, y & !1);
            let base = MortonCode::encode(c).0;
            for dy in 0..2u32 {
                for dx in 0..2u32 {
                    let code = MortonCode::encode(GridCoord::new(c.x + dx, c.y + dy)).0;
                    prop_assert!(code >= base && code < base + 4);
                }
            }
        }
    }
}
