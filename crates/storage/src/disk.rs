//! On-disk page images.
//!
//! The paper stresses that base and tail pages are "persisted identically"
//! (§2.1): at this layer there is no difference between page kinds, only a
//! column of `u64` cells (possibly compressed). This module defines the
//! small self-describing binary format of one page image; the page store
//! (`crate::store`) frames and persists them.
//!
//! An image is codec-native: it holds the codec's own parts, exactly as the
//! in-memory column keeps them, so writing one is a word copy out and
//! loading one is a word copy in — no decode, no re-encode. All integers
//! are little-endian:
//!
//! ```text
//! magic "LSPC" | u8 codec | u64 len | parts
//!
//! plain (0):       len × u64 values
//! dictionary (1):  u64 entries | entries × u64 dictionary | packed codes
//! rle (2):         u64 runs | runs × u32 run starts | runs × u64 run values
//! for-bitpack (3): u64 frame | packed deltas
//!
//! packed:          u8 width | u64 words | words × u64
//! ```
//!
//! The header around the parts is at most [`MAX_IMAGE_OVERHEAD`] bytes, so
//! an image is [`Compressed::encoded_bytes`] plus a few dozen bytes: a
//! single-run RLE page is a 33-byte image.
//!
//! [`decode_image`] checks the structure before it builds a column — bit
//! widths in `1..=64`, word counts that match `len × width`, RLE starts
//! rising strictly from 0 below `len`, dictionary codes inside the
//! dictionary, no truncated or trailing bytes — and returns
//! [`StorageError::Corrupt`] otherwise, so every column it returns is
//! readable at every slot. Images of the earlier `"LSPG"` format, which
//! stored decoded big-endian values, fail the magic check and are rejected
//! the same way; there is no legacy reader.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::{encode, CodecChoice, Compressed};
//! use lstore_storage::disk::{decode_image, encode_image};
//!
//! let col = encode(&[5, 5, 5, 9], CodecChoice::Rle);
//! let image = encode_image(&col);
//! assert_eq!(image.len(), 13 + 8 + col.encoded_bytes()); // header + runs
//! let Compressed::Rle(back) = decode_image(&image).unwrap() else {
//!     unreachable!()
//! };
//! assert_eq!((back.starts(), back.run_values()), (&[0, 3][..], &[5, 9][..]));
//! assert!(decode_image(&image[..image.len() - 1]).is_err());
//! ```

use bytes::Bytes;

use crate::compress::{BitPacked, Compressed, DictColumn, ForColumn, RleColumn};
use crate::error::{StorageError, StorageResult};

const MAGIC: &[u8; 4] = b"LSPC";

const CODEC_PLAIN: u8 = 0;
const CODEC_DICT: u8 = 1;
const CODEC_RLE: u8 = 2;
const CODEC_FOR: u8 = 3;

/// Upper bound on an image's bytes beyond [`Compressed::encoded_bytes`]:
/// the 13-byte header plus the parts' counts, frame and width.
pub const MAX_IMAGE_OVERHEAD: usize = 64;

/// Serialize a compressed column into a self-describing byte image of its
/// codec parts.
pub fn encode_image(col: &Compressed) -> Bytes {
    let mut buf = Vec::with_capacity(col.encoded_bytes() + MAX_IMAGE_OVERHEAD);
    buf.extend_from_slice(MAGIC);
    let codec = match col {
        Compressed::Plain(_) => CODEC_PLAIN,
        Compressed::Dict(_) => CODEC_DICT,
        Compressed::Rle(_) => CODEC_RLE,
        Compressed::For(_) => CODEC_FOR,
    };
    buf.push(codec);
    put_u64(&mut buf, col.len() as u64);
    match col {
        Compressed::Plain(values) => put_words(&mut buf, values),
        Compressed::Dict(c) => {
            put_u64(&mut buf, c.dictionary().len() as u64);
            put_words(&mut buf, c.dictionary());
            put_packed(&mut buf, c.codes());
        }
        Compressed::Rle(c) => {
            put_u64(&mut buf, c.run_count() as u64);
            for start in c.starts() {
                buf.extend_from_slice(&start.to_le_bytes());
            }
            put_words(&mut buf, c.run_values());
        }
        Compressed::For(c) => {
            put_u64(&mut buf, c.frame());
            put_packed(&mut buf, c.deltas());
        }
    }
    Bytes::from(buf)
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_words(buf: &mut Vec<u8>, words: &[u64]) {
    for &w in words {
        put_u64(buf, w);
    }
}

fn put_packed(buf: &mut Vec<u8>, packed: &BitPacked) {
    buf.push(packed.width());
    put_u64(buf, packed.words().len() as u64);
    put_words(buf, packed.words());
}

/// Deserialize a page image produced by [`encode_image`]. A structurally
/// invalid image is [`StorageError::Corrupt`], never a panic.
pub fn decode_image(data: &[u8]) -> StorageResult<Compressed> {
    let mut r = ImageReader { rest: data };
    if r.take(4)? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let codec = r.u8()?;
    let len = r.count()?;
    let col = match codec {
        CODEC_PLAIN => Compressed::Plain(r.u64s(len)?),
        CODEC_DICT => {
            let entries = r.count()?;
            let dict = r.u64s(entries)?;
            let codes = r.packed(len)?;
            Compressed::Dict(DictColumn::from_parts(dict, codes).map_err(corrupt)?)
        }
        CODEC_RLE => {
            let runs = r.count()?;
            let starts = r.u32s(runs)?;
            let values = r.u64s(runs)?;
            Compressed::Rle(RleColumn::from_parts(starts, values, len).map_err(corrupt)?)
        }
        CODEC_FOR => {
            let frame = r.u64()?;
            Compressed::For(ForColumn::from_parts(frame, r.packed(len)?))
        }
        other => return Err(StorageError::Corrupt(format!("unknown codec {other}"))),
    };
    if !r.rest.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after the image",
            r.rest.len()
        )));
    }
    Ok(col)
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// Bounds-checked little-endian cursor over an image: reading past the end
/// is a `Corrupt` error, and no buffer is allocated before the bytes it
/// will hold are known to be present.
struct ImageReader<'a> {
    rest: &'a [u8],
}

impl<'a> ImageReader<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if n > self.rest.len() {
            return Err(StorageError::Corrupt(format!(
                "truncated image: want {n} bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    /// A `u64` element count that must fit in memory.
    fn count(&mut self) -> StorageResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count exceeds address space"))
    }

    fn u64s(&mut self, n: usize) -> StorageResult<Box<[u64]>> {
        let bytes = self.take(n.checked_mul(8).ok_or_else(|| corrupt("count overflows"))?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn u32s(&mut self, n: usize) -> StorageResult<Box<[u32]>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| corrupt("count overflows"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    fn packed(&mut self, len: usize) -> StorageResult<BitPacked> {
        let width = self.u8()?;
        let words = self.count()?;
        let words = self.u64s(words)?;
        BitPacked::from_parts(words, width, len).map_err(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CodecChoice;
    use crate::page::BasePage;

    #[test]
    fn image_roundtrip_all_codecs() {
        let values: Vec<u64> = (0..1000).map(|i| i % 5 + 100).collect();
        for choice in [
            CodecChoice::None,
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
        ] {
            let col = crate::compress::encode(&values, choice);
            let image = encode_image(&col);
            let back = decode_image(&image).unwrap();
            assert_eq!(back.decode(), values, "{choice:?}");
            // The codec choice survives the round trip, and wrapping the
            // loaded column as a page must not re-encode it (the page keeps
            // whatever the image said, not what CodecChoice::Auto would pick).
            assert_eq!(back.codec_name(), col.codec_name(), "{choice:?}");
            let page = BasePage::from_compressed(back);
            assert_eq!(page.codec_name(), col.codec_name(), "{choice:?}");
        }
    }

    /// One column per codec, including the edge shapes: empty columns and
    /// a FOR column whose deltas need all 64 bits.
    fn sample_columns() -> Vec<Compressed> {
        let mixed: Vec<u64> = (0..1000).map(|i| i % 5 + 100).collect();
        let wide = [0, u64::MAX, 17, u64::MAX - 1];
        let mut cols = Vec::new();
        for choice in [
            CodecChoice::None,
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
        ] {
            cols.push(crate::compress::encode(&mixed, choice));
            cols.push(crate::compress::encode(&[], choice));
            cols.push(crate::compress::encode(&wide, choice));
        }
        cols
    }

    fn packed_parts(p: &BitPacked) -> (u8, usize, &[u64]) {
        (p.width(), p.len(), p.words())
    }

    #[test]
    fn images_carry_codec_parts_exactly() {
        for col in sample_columns() {
            let name = col.codec_name();
            let image = encode_image(&col);
            let back = decode_image(&image).unwrap();
            assert_eq!(back.len(), col.len(), "{name}");
            match (&col, &back) {
                (Compressed::Plain(a), Compressed::Plain(b)) => assert_eq!(a, b),
                (Compressed::For(a), Compressed::For(b)) => {
                    assert_eq!(a.frame(), b.frame());
                    assert_eq!(packed_parts(a.deltas()), packed_parts(b.deltas()));
                }
                (Compressed::Rle(a), Compressed::Rle(b)) => {
                    assert_eq!(a.starts(), b.starts());
                    assert_eq!(a.run_values(), b.run_values());
                }
                (Compressed::Dict(a), Compressed::Dict(b)) => {
                    assert_eq!(a.dictionary(), b.dictionary());
                    assert_eq!(packed_parts(a.codes()), packed_parts(b.codes()));
                }
                _ => panic!("{name} came back as {}", back.codec_name()),
            }
            // The header around the parts is fixed per codec and small.
            let overhead = match col {
                Compressed::Plain(_) => 13,
                Compressed::Rle(_) => 13 + 8,
                Compressed::For(_) => 13 + 1 + 8,
                Compressed::Dict(_) => 13 + 8 + 1 + 8,
            };
            assert!(overhead <= MAX_IMAGE_OVERHEAD);
            assert_eq!(image.len(), col.encoded_bytes() + overhead, "{name}");
        }
        // The 64-bit-wide case really is 64 bits wide.
        let wide = ForColumn::encode(&[0, u64::MAX]);
        assert_eq!(wide.width(), 64);
        let Compressed::For(back) = decode_image(&encode_image(&Compressed::For(wide))).unwrap()
        else {
            panic!("codec changed");
        };
        assert_eq!((back.width(), back.get(1)), (64, u64::MAX));
    }

    fn assert_corrupt(image: &[u8], what: &str) {
        match decode_image(image) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    /// `image` with the bytes at `at` replaced by `with`.
    fn patched(image: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        let mut out = image.to_vec();
        out[at..at + with.len()].copy_from_slice(with);
        out
    }

    fn assert_patch_corrupt(image: &[u8], at: usize, with: &[u8], what: &str) {
        assert_corrupt(&patched(image, at, with), what);
    }

    /// An image of the earlier format: decoded big-endian values.
    fn old_format_image(codec: u8, values: &[u64]) -> Vec<u8> {
        let mut out = b"LSPG".to_vec();
        out.push(codec);
        out.extend_from_slice(&(values.len() as u64).to_be_bytes());
        for v in values {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out
    }

    #[test]
    fn corrupt_images_rejected() {
        assert_corrupt(b"nope", "bad magic");
        assert_corrupt(b"LS", "short magic");
        assert_corrupt(b"LSPC\x09\0\0\0\0\0\0\0\x01", "unknown codec");
        // Truncated payload, and trailing bytes.
        let plain = encode_image(&Compressed::Plain(vec![1u64, 2, 3].into_boxed_slice()));
        assert_corrupt(&plain[..plain.len() - 4], "truncated");
        assert_corrupt(&[&plain[..], &[0]].concat(), "trailing byte");
        // A length no image could hold fails before anything is allocated.
        assert_patch_corrupt(&plain, 5, &u64::MAX.to_le_bytes(), "huge len");

        // FOR: header 13, frame 13..21, width 21, word count 22..30.
        let values: Vec<u64> = (0..100).map(|i| 1000 + i % 9).collect();
        let fr = encode_image(&Compressed::For(ForColumn::encode(&values)));
        assert_eq!(fr[21], 4);
        // Widths outside 1..=64, even with a word count that would fit them.
        let for_image = |len: u64, width: u8, words: u64| {
            let header = [&fr[..5], &len.to_le_bytes(), &[0; 8], &[width]].concat();
            [
                header,
                words.to_le_bytes().to_vec(),
                vec![0; 8 * words as usize],
            ]
            .concat()
        };
        assert_corrupt(&for_image(0, 0, 0), "width 0");
        assert_corrupt(&for_image(1, 65, 2), "width 65");
        assert_patch_corrupt(&fr, 21, &[5], "width disagrees with word count");
        let more_words = [&patched(&fr, 22, &8u64.to_le_bytes())[..], &[0; 8]].concat();
        assert_corrupt(&more_words, "word count disagrees with len × width");
        assert_patch_corrupt(&fr, 5, &200u64.to_le_bytes(), "len disagrees with words");

        // RLE: runs count 13..21, then u32 starts, then u64 values.
        let rle = encode_image(&Compressed::Rle(RleColumn::encode(&[4, 4, 9, 9, 9, 2])));
        assert_eq!(&rle[13..21], &3u64.to_le_bytes());
        let start = |run: usize| 21 + 4 * run;
        assert_patch_corrupt(&rle, start(0), &1u32.to_le_bytes(), "starts not at 0");
        assert_patch_corrupt(&rle, start(2), &2u32.to_le_bytes(), "repeated start");
        assert_patch_corrupt(&rle, start(2), &1u32.to_le_bytes(), "falling start");
        assert_patch_corrupt(&rle, start(2), &6u32.to_le_bytes(), "start at len");
        assert_patch_corrupt(&rle, 5, &0u64.to_le_bytes(), "runs in an empty column");

        // Dictionary: entries 13..21, 3 × u64 dictionary, width at 45.
        let dict = encode_image(&Compressed::Dict(DictColumn::encode(&[30, 10, 20, 30])));
        assert_eq!((&dict[13..21], dict[45]), (&3u64.to_le_bytes()[..], 2));
        let code_word = 45 + 1 + 8;
        assert_patch_corrupt(&dict, code_word, &[0xFF], "code 3 of 3 entries");
        assert_patch_corrupt(&dict, 13, &2u64.to_le_bytes(), "dictionary shrunk");

        // The earlier decoded big-endian format is rejected, not misread.
        let old = old_format_image(CODEC_PLAIN, &[1, 2, 3]);
        assert_corrupt(&old, "old-format image");
        assert_corrupt(
            &old_format_image(CODEC_RLE, &[7; 64]),
            "old-format rle image",
        );
    }

    #[test]
    fn store_rejects_old_format_images() {
        // Hand-frame an old-format image as a store record ("LSPR" | u64 id
        // | u32 len, big-endian) and read it back through the store.
        let dir = std::env::temp_dir().join("lstore-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("old-image-{}.lspr", std::process::id()));
        let image = old_format_image(CODEC_FOR, &[5, 6, 7, 8]);
        let mut record = b"LSPR".to_vec();
        record.extend_from_slice(&9u64.to_be_bytes());
        record.extend_from_slice(&(image.len() as u32).to_be_bytes());
        record.extend_from_slice(&image);
        std::fs::write(&path, &record).unwrap();

        let store = crate::store::PageStore::open(&path, None).unwrap();
        assert!(store.contains(9), "the record framing itself is intact");
        match store.read_page(9) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_images_never_panic() {
        // xorshift64*: a fixed seed keeps every run on the same inputs.
        let mut state = 0x5EED_1A6E_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let values: Vec<u64> = (0..300).map(|i| (i / 7) % 11 + 40).collect();
        let images: Vec<Vec<u8>> = sample_columns()
            .iter()
            .chain(&[
                crate::compress::encode(&values, CodecChoice::Dictionary),
                crate::compress::encode(&values, CodecChoice::Rle),
            ])
            .map(|c| encode_image(c).to_vec())
            .collect();
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..4000 {
            let mut image = images[round % images.len()].clone();
            let flips = (next() % 3) as usize;
            for _ in 0..flips.max(1) {
                let at = (next() as usize) % image.len();
                image[at] ^= (next() % 255 + 1) as u8;
            }
            if next() % 4 == 0 {
                image.truncate((next() as usize) % (image.len() + 1));
            }
            match decode_image(&image) {
                Ok(col) => {
                    accepted += 1;
                    // Every slot is readable. A flipped length can make a
                    // legal RLE column of up to 2³² slots: read its runs
                    // instead of materialising it.
                    if col.len() <= 1 << 16 {
                        assert_eq!(col.decode().len(), col.len());
                    } else {
                        let Compressed::Rle(rle) = &col else {
                            panic!("only RLE can outgrow its image");
                        };
                        for &s in rle.starts() {
                            col.get(s as usize);
                        }
                        col.get(col.len() - 1);
                    }
                    crate::compress::ColumnKernel::sum_range(&col, 0, col.len());
                }
                Err(StorageError::Corrupt(_)) => rejected += 1,
                Err(e) => panic!("damaged image gave a non-Corrupt error: {e:?}"),
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{rejected} rejected, {accepted} accepted"
        );
    }
}
