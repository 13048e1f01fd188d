//! Fixed-size checksummed pages — the unit of both table-file layout and
//! WAL page images.
//!
//! Every page is [`PAGE_SIZE`] bytes at offset `page_no * PAGE_SIZE`:
//!
//! ```text
//! [ payload_len: u32 LE ][ checksum: u64 LE ][ payload ][ zero padding ]
//! ```
//!
//! The checksum is XXH64 (seed 0) over the payload bytes.  A page that was
//! never written (all zeroes), a torn write, or a flipped bit all fail
//! validation — XXH64 of the empty payload is nonzero, so even the all-zero
//! page is detected.  Decoding never panics: every malformed shape maps to
//! [`StoreError::Corruption`].
//!
//! A column segment is a run of consecutive pages, read with one positioned
//! read into one buffer and verified page by page in place
//! ([`read_payload`]).

use crate::error::{StoreError, StoreResult};
use std::io::{Read, Seek, SeekFrom};

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Bytes of per-page framing (length + checksum).
pub const PAGE_HEADER: usize = 4 + 8;
/// Payload capacity of one page.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap())
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 with seed 0: four independent 8-byte lanes over each 32-byte
/// stripe, then the tail and the final avalanche.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for s in &mut stripes {
            v[0] = xxh_round(v[0], le_u64(&s[0..8]));
            v[1] = xxh_round(v[1], le_u64(&s[8..16]));
            v[2] = xxh_round(v[2], le_u64(&s[16..24]));
            v[3] = xxh_round(v[3], le_u64(&s[24..32]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh_merge(h, acc))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
        h = (h ^ word.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Encodes a payload (at most [`PAGE_PAYLOAD`] bytes) into a full page image.
pub fn encode_page(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= PAGE_PAYLOAD,
        "payload exceeds page capacity"
    );
    let mut page = vec![0u8; PAGE_SIZE];
    page[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[4..12].copy_from_slice(&xxh64(payload).to_le_bytes());
    page[12..12 + payload.len()].copy_from_slice(payload);
    page
}

/// Validates a raw page image and returns its payload slice.
pub fn decode_page<'a>(page: &'a [u8], file: &str, page_no: u64) -> StoreResult<&'a [u8]> {
    if page.len() != PAGE_SIZE {
        return Err(StoreError::corruption(
            file,
            format!(
                "page {page_no} is {} bytes, expected {PAGE_SIZE}",
                page.len()
            ),
        ));
    }
    let len = u32::from_le_bytes(page[0..4].try_into().unwrap()) as usize;
    if len > PAGE_PAYLOAD {
        return Err(StoreError::corruption(
            file,
            format!("page {page_no} declares payload of {len} bytes"),
        ));
    }
    let checksum = le_u64(&page[4..12]);
    let payload = &page[12..12 + len];
    if xxh64(payload) != checksum {
        return Err(StoreError::corruption(
            file,
            format!("page {page_no} checksum mismatch"),
        ));
    }
    Ok(payload)
}

/// Number of pages needed to hold `nbytes` of payload.
pub fn pages_for(nbytes: usize) -> u64 {
    (nbytes.max(1)).div_ceil(PAGE_PAYLOAD) as u64
}

/// Splits a payload into per-page chunks (at least one, possibly empty).
pub fn split_payload(payload: &[u8]) -> Vec<&[u8]> {
    if payload.is_empty() {
        return vec![payload];
    }
    payload.chunks(PAGE_PAYLOAD).collect()
}

/// Reads `npages` raw, unverified page images starting at `first_page` with
/// one read.  A range past the end of the file is corruption, checked before
/// the buffer is allocated, so a bad directory entry cannot ask for more
/// memory than the file holds.
pub(crate) fn read_raw_pages<F: Read + Seek>(
    file: &mut F,
    first_page: u64,
    npages: u64,
    name: &str,
) -> StoreResult<Vec<u8>> {
    let last = first_page.saturating_add(npages);
    let truncated =
        || StoreError::corruption(name, format!("pages {first_page}..{last} truncated"));
    let start = first_page
        .checked_mul(PAGE_SIZE as u64)
        .ok_or_else(truncated)?;
    let size = npages.checked_mul(PAGE_SIZE as u64).ok_or_else(truncated)?;
    let file_len = file.seek(SeekFrom::End(0))?;
    if start.checked_add(size).is_none_or(|end| end > file_len) {
        return Err(truncated());
    }
    file.seek(SeekFrom::Start(start))?;
    let mut buf = vec![0u8; usize::try_from(size).map_err(|_| truncated())?];
    file.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            truncated()
        } else {
            StoreError::Io(e)
        }
    })?;
    Ok(buf)
}

/// Verifies every page image in `raw` (numbered from `first_page`) and
/// returns their concatenated payloads, compacted inside `raw` itself.
pub(crate) fn verify_pages(mut raw: Vec<u8>, first_page: u64, name: &str) -> StoreResult<Vec<u8>> {
    let mut out = 0;
    for (i, at) in (0..raw.len()).step_by(PAGE_SIZE).enumerate() {
        let page = &raw[at..(at + PAGE_SIZE).min(raw.len())];
        let len = decode_page(page, name, first_page + i as u64)?.len();
        raw.copy_within(at + PAGE_HEADER..at + PAGE_HEADER + len, out);
        out += len;
    }
    raw.truncate(out);
    Ok(raw)
}

/// Reads a contiguous page range with one read, verifies each page in
/// place, and returns the concatenated payloads truncated to `nbytes` (the
/// logical length recorded in the directory).
pub fn read_payload<F: Read + Seek>(
    file: &mut F,
    first_page: u64,
    npages: u64,
    nbytes: usize,
    name: &str,
) -> StoreResult<Vec<u8>> {
    let mut out = verify_pages(
        read_raw_pages(file, first_page, npages, name)?,
        first_page,
        name,
    )?;
    if out.len() < nbytes {
        return Err(StoreError::corruption(
            name,
            format!(
                "pages {first_page}..{} hold {} bytes, directory claims {nbytes}",
                first_page + npages,
                out.len()
            ),
        ));
    }
    out.truncate(nbytes);
    Ok(out)
}

/// Re-frames a file of format-2 pages the way format 1 wrote them: FNV-1a
/// page checksums, after `edit` has set page 0's payload to format 1.
#[cfg(test)]
pub(crate) fn in_format_1(bytes: &[u8], edit: impl Fn(&mut [u8])) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for (page_no, page) in bytes.chunks(PAGE_SIZE).enumerate() {
        let mut payload = decode_page(page, "t", page_no as u64).unwrap().to_vec();
        if page_no == 0 {
            edit(&mut payload);
        }
        let mut image = encode_page(&payload);
        image[4..12].copy_from_slice(&crate::wal::fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&image);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn xxh64_matches_known_answers() {
        for (input, want) in [
            (&b""[..], 0xEF46_DB37_51D8_E999u64),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(xxh64(input), want, "{:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn page_roundtrip() {
        let payload = vec![7u8; 1000];
        let page = encode_page(&payload);
        assert_eq!(page.len(), PAGE_SIZE);
        assert_eq!(decode_page(&page, "t", 0).unwrap(), &payload[..]);
    }

    #[test]
    fn zero_page_is_detected_as_corrupt() {
        let zero = vec![0u8; PAGE_SIZE];
        let err = decode_page(&zero, "t", 3).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut page = encode_page(b"hello world");
        page[20] ^= 0x40;
        assert!(decode_page(&page, "t", 0).unwrap_err().is_corruption());
    }

    #[test]
    fn oversized_declared_length_is_corrupt_not_panic() {
        let mut page = encode_page(b"x");
        page[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode_page(&page, "t", 0).unwrap_err().is_corruption());
    }

    #[test]
    fn truncated_file_reads_as_corruption() {
        let page = encode_page(b"data");
        let mut cur = Cursor::new(page[..100].to_vec());
        let err = read_payload(&mut cur, 0, 1, 4, "t").unwrap_err();
        assert!(err.is_corruption());
        // A range that ends past the file is refused before it is read.
        let mut cur = Cursor::new(page);
        let err = read_payload(&mut cur, 0, u32::MAX as u64, 10, "t").unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn multi_page_payload_roundtrip() {
        let payload: Vec<u8> = (0..3 * PAGE_PAYLOAD + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let chunks = split_payload(&payload);
        assert_eq!(chunks.len(), 4);
        let mut file = Vec::new();
        for c in &chunks {
            file.extend_from_slice(&encode_page(c));
        }
        let mut cur = Cursor::new(file);
        let back = read_payload(&mut cur, 0, 4, payload.len(), "t").unwrap();
        assert_eq!(back, payload);
        // The directory's byte count is checked against what the pages hold.
        let err = read_payload(&mut cur, 0, 4, payload.len() + 1, "t").unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }
}
