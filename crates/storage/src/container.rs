//! The paged-artifact container: the one envelope every on-disk format in
//! the workspace is wrapped in.
//!
//! A format owns two byte spans — its pinned *metadata* (read once at open
//! time) and its *payload* (served page by page through a
//! [`TieredPool`](crate::TieredPool)) — and nothing else. The container
//! owns the rest: the magic, the span lengths, the page padding, and the
//! per-page [`ChecksumTable`] that makes bit rot a typed error.
//!
//! ```text
//! header    magic [u8; 8] — names the family and its single live version
//!           meta_len u64 | payload_len u64 | cksum_base u64
//! meta      meta_len bytes, verified against the table at open time
//! payload   payload_len bytes, verified page by page by the buffer pool
//! (zero padding up to cksum_base, the next page boundary)
//! checksums one fnv1a64x8 digest per page of [0, cksum_base)
//! ```
//!
//! [`open`] validates every bound before it trusts one: the spans must tile
//! `[HEADER_BYTES, cksum_base)` exactly, the table must be page-aligned and
//! inside the file, and the header plus metadata must pass their page
//! checksums. Failures come back as [`io::ErrorKind::InvalidData`] (a
//! checksum failure carries its [`PageCorrupt`](crate::PageCorrupt) page),
//! which each format lifts to its own typed `Corrupt` error; store failures
//! keep their own kind.

use crate::checksum::{read_span_verified, ChecksumTable};
use crate::store::{PageStore, PAGE_SIZE};
use crate::tiered::read_span;
use std::io;
use std::ops::Range;
use std::sync::Arc;

/// Bytes of the envelope header: the magic and three `u64` span fields.
pub const HEADER_BYTES: usize = 8 + 3 * 8;

/// Wraps `meta` and `payload` into a complete image (see the module docs).
/// Deterministic: equal inputs give equal bytes. The image is built in
/// `payload`'s own allocation — the payload moves up past the header and
/// metadata — so encoding never holds the bulk of an artifact twice.
pub fn encode(magic: &[u8; 8], meta: &[u8], payload: Vec<u8>) -> Vec<u8> {
    let mut buf = payload;
    let payload_len = buf.len();
    let payload_base = HEADER_BYTES + meta.len();
    let cksum_base = (payload_base + payload_len).div_ceil(PAGE_SIZE) * PAGE_SIZE;
    buf.reserve_exact(cksum_base + cksum_base / PAGE_SIZE * 8 - payload_len);
    buf.resize(payload_base + payload_len, 0);
    buf.copy_within(..payload_len, payload_base);
    buf[..8].copy_from_slice(magic);
    for (i, field) in [meta.len(), payload_len, cksum_base].into_iter().enumerate() {
        buf[8 + 8 * i..16 + 8 * i].copy_from_slice(&(field as u64).to_le_bytes());
    }
    buf[HEADER_BYTES..payload_base].copy_from_slice(meta);
    buf.resize(cksum_base, 0);
    let table = ChecksumTable::compute(&buf);
    buf.extend_from_slice(&table.to_bytes());
    buf
}

/// What [`open`] hands a format: its verified metadata, where its payload
/// lives, and the table to install in the pool that serves it.
#[derive(Debug)]
pub struct Opened {
    /// The metadata span, checksum-verified.
    pub meta: Vec<u8>,
    /// Byte offset of the payload span in the file.
    pub payload_base: u64,
    /// Byte length of the payload span.
    pub payload_len: u64,
    /// Per-page digests of `[0, cksum_base)`, for
    /// [`TieredPool::set_checksums`](crate::TieredPool::set_checksums).
    pub checks: Arc<ChecksumTable>,
}

/// Opens the envelope of the image in `store`, which must carry `magic`.
/// Validates every bound, then reads the header and metadata verified
/// against the checksum table (see the module docs for the error kinds).
pub fn open<S: PageStore>(store: &S, magic: &[u8; 8]) -> io::Result<Opened> {
    let file_len = store.page_count() * PAGE_SIZE as u64;
    if file_len < HEADER_BYTES as u64 {
        return Err(invalid("file too small for the container header".into()));
    }
    let header = read_span(store, 0, HEADER_BYTES)?;
    if &header[..8] != magic {
        return Err(invalid(format!(
            "bad magic {:?} (expected {:?})",
            String::from_utf8_lossy(&header[..8]),
            String::from_utf8_lossy(magic)
        )));
    }
    let field =
        |i: usize| u64::from_le_bytes(header[8 + 8 * i..16 + 8 * i].try_into().expect("8 bytes"));
    let (meta_len, payload_len, cksum_base) = (field(0), field(1), field(2));
    let page = PAGE_SIZE as u64;
    if cksum_base == 0 || cksum_base % page != 0 {
        return Err(invalid(format!("checksum table offset {cksum_base} is not page-aligned")));
    }
    let pages = cksum_base / page;
    if pages.checked_mul(8).and_then(|t| t.checked_add(cksum_base)).is_none_or(|e| e > file_len) {
        return Err(invalid("checksum table extends past end of file".into()));
    }
    let payload_base = (HEADER_BYTES as u64).checked_add(meta_len);
    let payload_end = payload_base.and_then(|b| b.checked_add(payload_len));
    if payload_end.is_none_or(|end| end > cksum_base || end.div_ceil(page) * page != cksum_base) {
        return Err(invalid(format!(
            "metadata ({meta_len} B) and payload ({payload_len} B) do not tile the {cksum_base} B \
             before the checksum table"
        )));
    }
    let raw = read_span(store, cksum_base as usize, (pages * 8) as usize)?;
    let checks = Arc::new(ChecksumTable::from_bytes(&raw, pages as usize)?);
    let mut meta = read_span_verified(store, 0, HEADER_BYTES + meta_len as usize, &checks)?;
    meta.drain(..HEADER_BYTES);
    Ok(Opened { meta, payload_base: HEADER_BYTES as u64 + meta_len, payload_len, checks })
}

/// The metadata and payload byte ranges an image's header declares — for
/// tests and tools that edit images in place. Not validated; [`open`] is
/// what checks them.
///
/// # Panics
/// Panics if `image` is shorter than [`HEADER_BYTES`].
pub fn spans(image: &[u8]) -> (Range<usize>, Range<usize>) {
    let field =
        |i: usize| u64::from_le_bytes(image[8 + 8 * i..16 + 8 * i].try_into().expect("8 bytes"));
    let payload_base = HEADER_BYTES + field(0) as usize;
    (HEADER_BYTES..payload_base, payload_base..payload_base + field(1) as usize)
}

/// Recomputes the checksum table of an image after its bytes were edited,
/// so the edit reaches the format's own validators instead of failing a
/// page checksum first. Tests use it to build structurally corrupt files.
///
/// # Panics
/// Panics if the header's table offset does not leave room for the table
/// inside `image`.
pub fn reseal(image: &mut [u8]) {
    let cksum_base = u64::from_le_bytes(image[24..32].try_into().expect("8 bytes")) as usize;
    let table = ChecksumTable::compute(&image[..cksum_base]).to_bytes();
    image[cksum_base..cksum_base + table.len()].copy_from_slice(&table);
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::as_page_corrupt;
    use crate::store::{MemPageStore, PageId};

    const MAGIC: &[u8; 8] = b"TESTBOX1";

    /// A two-page metadata span and a payload ending mid-page, so every
    /// span boundary and the padding are exercised.
    fn image() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let meta: Vec<u8> = (0..PAGE_SIZE + 300).map(|i| (i % 251) as u8).collect();
        let payload: Vec<u8> = (0..2 * PAGE_SIZE + 77).map(|i| (i % 239) as u8).collect();
        (encode(MAGIC, &meta, payload.clone()), meta, payload)
    }

    fn open_bytes(bytes: &[u8]) -> io::Result<Opened> {
        open(&MemPageStore::new(bytes), MAGIC)
    }

    fn set_field(image: &mut [u8], i: usize, value: u64) {
        image[8 + 8 * i..16 + 8 * i].copy_from_slice(&value.to_le_bytes());
    }

    fn assert_invalid(result: io::Result<Opened>, needle: &str) {
        let err = result.expect_err("the image must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(needle), "expected {needle:?} in: {err}");
    }

    #[test]
    fn round_trip_returns_the_spans_and_the_table() {
        let (bytes, meta, payload) = image();
        let opened = open_bytes(&bytes).unwrap();
        assert_eq!(opened.meta, meta);
        let base = opened.payload_base as usize;
        assert_eq!(base, HEADER_BYTES + meta.len());
        assert_eq!(opened.payload_len as usize, payload.len());
        assert_eq!(&bytes[base..base + payload.len()], &payload[..]);
        assert_eq!(spans(&bytes), (HEADER_BYTES..base, base..base + payload.len()));
        // The table covers every page up to itself and verifies them all.
        let cksum_base = (base + payload.len()).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        assert_eq!(opened.checks.pages(), cksum_base / PAGE_SIZE);
        let store = MemPageStore::new(&bytes);
        for p in 0..opened.checks.pages() as u64 {
            opened.checks.verify(p, &store.read_page(PageId(p)).unwrap()).unwrap();
        }
        // Empty spans are legal too.
        let tiny = encode(MAGIC, &[], Vec::new());
        let opened = open_bytes(&tiny).unwrap();
        assert!(opened.meta.is_empty());
        assert_eq!((opened.payload_base, opened.payload_len), (HEADER_BYTES as u64, 0));
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut bytes, _, _) = image();
        bytes[7] = b'9';
        assert_invalid(open_bytes(&bytes), "bad magic");
        assert_invalid(open(&MemPageStore::new(&image().0), b"OTHERFMT"), "bad magic");
    }

    #[test]
    fn truncation_at_every_page_boundary_rejected() {
        let (bytes, _, _) = image();
        let pages = bytes.len().div_ceil(PAGE_SIZE);
        for keep in 0..pages {
            let cut = &bytes[..keep * PAGE_SIZE];
            let err = open_bytes(cut).expect_err("a truncated image must not open");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{keep}/{pages} pages: {err}");
        }
        open_bytes(&bytes).unwrap();
    }

    #[test]
    fn misaligned_or_out_of_file_checksum_table_rejected() {
        let (bytes, _, _) = image();
        let cksum_base = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let mut bad = bytes.clone();
        set_field(&mut bad, 2, cksum_base + 8);
        assert_invalid(open_bytes(&bad), "not page-aligned");
        let mut bad = bytes.clone();
        set_field(&mut bad, 2, 0);
        assert_invalid(open_bytes(&bad), "not page-aligned");
        let mut bad = bytes.clone();
        set_field(&mut bad, 2, cksum_base + 4 * PAGE_SIZE as u64);
        assert_invalid(open_bytes(&bad), "past end of file");
        let mut bad = bytes.clone();
        set_field(&mut bad, 2, u64::MAX - (PAGE_SIZE as u64 - 1));
        assert_invalid(open_bytes(&bad), "past end of file");
        // Aligned and inside the file, but not where the spans end.
        let mut bad = bytes;
        set_field(&mut bad, 2, cksum_base - PAGE_SIZE as u64);
        assert_invalid(open_bytes(&bad), "do not tile");
    }

    #[test]
    fn metadata_payload_overlap_rejected() {
        let (bytes, meta, payload) = image();
        // The metadata span claims the payload's bytes while the payload
        // still claims them too: the spans overrun the table.
        let mut bad = bytes.clone();
        set_field(&mut bad, 0, (meta.len() + payload.len()) as u64);
        assert_invalid(open_bytes(&bad), "do not tile");
        // Lengths that overflow the offset arithmetic.
        let mut bad = bytes.clone();
        set_field(&mut bad, 0, u64::MAX - 8);
        assert_invalid(open_bytes(&bad), "do not tile");
        let mut bad = bytes.clone();
        set_field(&mut bad, 1, u64::MAX);
        assert_invalid(open_bytes(&bad), "do not tile");
        // Spans that end a page short of the table leave a gap: rejected.
        let mut bad = bytes;
        set_field(&mut bad, 1, (payload.len() - PAGE_SIZE) as u64);
        assert_invalid(open_bytes(&bad), "do not tile");
    }

    #[test]
    fn metadata_bit_flip_caught_at_open() {
        let (bytes, meta, _) = image();
        for at in [HEADER_BYTES + 5, HEADER_BYTES + meta.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            let err = open_bytes(&bad).unwrap_err();
            let pc = as_page_corrupt(&err).expect("a checksum failure names its page");
            assert_eq!(pc.page, (at / PAGE_SIZE) as u64);
            assert!(pc.detail.contains("checksum mismatch"), "{}", pc.detail);
        }
        // A flip on a payload-only page is not open's business: the pool
        // verifies that page when a query reads it.
        let mut bad = bytes;
        let in_payload = spans(&bad).1.end - 1;
        bad[in_payload] ^= 1;
        open_bytes(&bad).unwrap();
    }

    #[test]
    fn reseal_lets_edits_through_and_store_errors_keep_their_kind() {
        let (bytes, meta, _) = image();
        let mut edited = bytes.clone();
        edited[HEADER_BYTES] ^= 0xFF;
        assert!(open_bytes(&edited).is_err(), "the edit fails its checksum first");
        reseal(&mut edited);
        let opened = open_bytes(&edited).unwrap();
        assert_eq!(opened.meta[0], meta[0] ^ 0xFF);
        // Resealing an untouched image is the identity.
        let mut same = bytes.clone();
        reseal(&mut same);
        assert_eq!(same, bytes);
        // A store that fails is an I/O error, not corruption.
        struct Dead;
        impl PageStore for Dead {
            fn read_page(&self, _: PageId) -> io::Result<Arc<[u8]>> {
                Err(io::Error::other("disk gone"))
            }
            fn page_count(&self) -> u64 {
                4
            }
        }
        assert_eq!(open(&Dead, MAGIC).unwrap_err().kind(), io::ErrorKind::Other);
    }
}
