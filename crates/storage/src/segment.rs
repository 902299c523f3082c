//! Durable segments: the one on-disk discipline under every durable file.
//!
//! Checkpoints ([`crate::checkpoint`]), spill files ([`crate::disk`]), WAL
//! segments ([`crate::wal`]) and flight-recorder segments
//! ([`crate::recorder`]) are record schemas on top of the five pieces owned
//! here; DESIGN.md §18 states the protocol and its rules once:
//!
//! - [`crc32`], the IEEE CRC-32 (slicing-by-16);
//! - the [`Envelope`] `magic | version u16 | body | crc32 u32`, whose
//!   trailer covers every byte before it — sealed by [`seal`] or
//!   [`Envelope::trailer`], opened by [`Envelope::open`];
//! - the atomic write [`SegmentDir::write`] (`<name>.tmp`, fsync, rename,
//!   directory fsync) and its crash image [`SegmentDir::write_torn`];
//! - numbered files `{prefix}{seq:012}.{ext}`: [`SegmentDir::list`] and
//!   keep-newest [`SegmentDir::prune`] with an optional pin;
//! - the bounds-checked big-endian [`Reader`].

use std::fs::{self, File};
use std::io::Write;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use bytes::BufMut;

use crate::StorageError;

/// Bytes of the `magic | version` header.
pub const HEADER_LEN: usize = 6;
/// Bytes of the CRC-32 trailer.
const TRAILER_LEN: usize = 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven
/// slicing-by-16.
pub fn crc32(data: &[u8]) -> u32 {
    !crc_update(0xFFFF_FFFF, data)
}

/// `CRC_TABLES[0]` is the byte-at-a-time table of the reflected polynomial;
/// `CRC_TABLES[k][b]` advances the CRC of byte `b` over `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Advances a running (pre-inversion) CRC over `data`: sixteen bytes per
/// step, each looked up in the table for its distance from the block's end,
/// then the tail one byte at a time. Streaming is exact:
/// `crc_update(crc_update(c, a), b) == crc_update(c, a ++ b)`.
fn crc_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(block);
        for (byte, c) in bytes.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= c;
        }
        crc = bytes
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&byte, table)| acc ^ table[usize::from(byte)]);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ byte)];
    }
    crc
}

/// Appends the CRC-32 trailer over every byte already in `frame` (which
/// starts with an [`Envelope::header`]).
pub fn seal<B: BufMut + Deref<Target = [u8]>>(frame: &mut B) {
    let crc = crc32(frame);
    frame.put_u32(crc);
}

/// One durable file format: `magic | version u16 | body | crc32 u32`.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// Format name used in error messages.
    pub name: &'static str,
    /// Four-byte magic prefix.
    pub magic: [u8; 4],
    /// The version this build writes.
    pub version: u16,
    /// Every version this build reads (the write version among them).
    pub reads: &'static [u16],
}

impl Envelope {
    /// The `magic | version` header bytes.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let [m0, m1, m2, m3] = self.magic;
        let [v0, v1] = self.version.to_be_bytes();
        [m0, m1, m2, m3, v0, v1]
    }

    /// The trailer of a file laid out as `header | body`, for a body that
    /// lives in its own buffer and is written without being copied.
    pub fn trailer(&self, body: &[u8]) -> [u8; TRAILER_LEN] {
        (!crc_update(crc_update(0xFFFF_FFFF, &self.header()), body)).to_be_bytes()
    }

    /// Verifies a whole file — CRC first, then magic, then version — and
    /// returns its version and body.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] for a short file, a checksum mismatch or a
    /// foreign magic; [`StorageError::VersionMismatch`] for an intact file
    /// of a version this build does not read.
    pub fn open<'a>(&self, data: &'a [u8]) -> Result<(u16, &'a [u8]), StorageError> {
        if data.len() < HEADER_LEN + TRAILER_LEN {
            return Err(StorageError::Corrupt(format!("{} truncated", self.name)));
        }
        let (frame, trailer) = data.split_at(data.len() - TRAILER_LEN);
        let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = crc32(frame);
        if stored != actual {
            return Err(StorageError::Corrupt(format!(
                "{} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}",
                self.name
            )));
        }
        self.open_header(frame)
    }

    /// Checks only the header (for append-only files whose records carry
    /// their own checksums) and returns the version and the bytes after it.
    ///
    /// # Errors
    /// As [`Envelope::open`], minus the checksum.
    pub fn open_header<'a>(&self, data: &'a [u8]) -> Result<(u16, &'a [u8]), StorageError> {
        if data.len() < HEADER_LEN {
            return Err(StorageError::Corrupt(format!("{} truncated", self.name)));
        }
        if data[..4] != self.magic {
            return Err(StorageError::Corrupt(format!("bad {} magic", self.name)));
        }
        let version = u16::from_be_bytes([data[4], data[5]]);
        if !self.reads.contains(&version) {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected: self.version,
            });
        }
        Ok((version, &data[HEADER_LEN..]))
    }
}

/// A directory of numbered files `{prefix}{seq:012}.{ext}`, written
/// atomically.
#[derive(Debug)]
pub struct SegmentDir {
    dir: PathBuf,
    prefix: &'static str,
    ext: &'static str,
}

impl SegmentDir {
    /// Opens (creating if needed) `dir` for files named
    /// `{prefix}{seq:012}.{ext}`.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(
        dir: impl AsRef<Path>,
        prefix: &'static str,
        ext: &'static str,
    ) -> Result<Self, StorageError> {
        let files = Self::at(dir, prefix, ext);
        fs::create_dir_all(&files.dir)?;
        Ok(files)
    }

    /// [`SegmentDir::open`] without creating the directory.
    pub fn at(dir: impl AsRef<Path>, prefix: &'static str, ext: &'static str) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
            prefix,
            ext,
        }
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of file `seq`.
    pub fn path(&self, seq: u64) -> PathBuf {
        self.dir
            .join(format!("{}{seq:012}.{}", self.prefix, self.ext))
    }

    /// Sequence numbers of every file present, ascending (numeric order,
    /// independent of directory iteration order). Temp files and foreign
    /// names are ignored; nothing is validated.
    ///
    /// # Errors
    /// I/O errors reading the directory.
    pub fn list(&self) -> Result<Vec<u64>, StorageError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let seq = name
                .to_str()
                .and_then(|n| n.strip_prefix(self.prefix))
                .and_then(|n| n.strip_suffix(self.ext))
                .and_then(|n| n.strip_suffix('.'))
                .and_then(|digits| digits.parse::<u64>().ok());
            seqs.extend(seq);
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Durably writes `parts`, back to back, as file `seq`: into
    /// `<name>.tmp`, fsync, rename over the final name, fsync the directory.
    /// A crash at any point leaves either the previous file or the new one
    /// in full. Returns the bytes written.
    ///
    /// # Errors
    /// Any I/O error, including a failed directory fsync; a directory that
    /// cannot be opened for syncing (some platforms) is tolerated.
    pub fn write(&self, seq: u64, parts: &[&[u8]]) -> Result<u64, StorageError> {
        let path = self.path(seq);
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        for part in parts {
            file.write_all(part)?;
        }
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        if let Ok(dir) = File::open(&self.dir) {
            dir.sync_all()?;
        }
        Ok(parts.iter().map(|p| p.len() as u64).sum())
    }

    /// The on-disk state a kill in the middle of [`SegmentDir::write`]
    /// leaves: the first half of the bytes in the temp file, never renamed.
    /// Crash injection only.
    ///
    /// # Errors
    /// I/O errors writing the temp file.
    pub fn write_torn(&self, seq: u64, parts: &[&[u8]]) -> Result<(), StorageError> {
        let mut left = parts.iter().map(|p| p.len()).sum::<usize>() / 2;
        let mut file = File::create(self.path(seq).with_extension("tmp"))?;
        for part in parts {
            let n = left.min(part.len());
            file.write_all(&part[..n])?;
            left -= n;
        }
        Ok(())
    }

    /// Deletes file `seq`; `Ok(false)` when it was already gone.
    ///
    /// # Errors
    /// I/O errors other than "not found".
    pub fn remove(&self, seq: u64) -> Result<bool, StorageError> {
        match fs::remove_file(self.path(seq)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Deletes the oldest files until at most `keep` remain, never the
    /// newest and never `pinned`. Deletions are not fsynced: one that a
    /// crash undoes brings back an older valid file, which the next prune
    /// removes again.
    ///
    /// # Errors
    /// I/O errors listing or deleting.
    pub fn prune(&self, keep: usize, pinned: Option<u64>) -> Result<(), StorageError> {
        let mut seqs = self.list()?;
        let mut i = 0;
        while seqs.len() > keep && i + 1 < seqs.len() {
            if Some(seqs[i]) == pinned {
                i += 1;
                continue;
            }
            self.remove(seqs.remove(i))?;
        }
        Ok(())
    }
}

/// A bounds-checked big-endian cursor over a decoded body. Every read past
/// the end is [`StorageError::Corrupt`], and no buffer is sized from a
/// length field before the bytes it promises are known to be present, so
/// decoding hostile input allocates at most in proportion to its length.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `what` names the body in error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, what }
    }

    /// A [`StorageError::Corrupt`] naming this body.
    pub(crate) fn corrupt(&self, msg: &str) -> StorageError {
        StorageError::Corrupt(format!("{} {msg}", self.what))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.buf.len() < n {
            return Err(self.corrupt("truncated"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// `n` elements of `width` bytes each, as one slice.
    fn elements(&mut self, n: usize, width: usize) -> Result<&'a [u8], StorageError> {
        match n.checked_mul(width) {
            Some(len) => self.take(len),
            None => Err(self.corrupt("truncated")),
        }
    }

    /// One byte.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on truncation (likewise for every read).
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian `u32`.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        self.array().map(u64::from_be_bytes)
    }

    /// An `f64` from its big-endian bit pattern.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        self.u64().map(f64::from_bits)
    }

    /// `n` big-endian `u32`s.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, StorageError> {
        let raw = self.elements(n, 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// `n` big-endian `u64`s.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, StorageError> {
        let raw = self.elements(n, 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// `n` `f64`s from their big-endian bit patterns.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, StorageError> {
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    /// A `u32` count followed by that many `u64`s.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, StorageError> {
        let n = self.u32()? as usize;
        self.u64s(n)
    }

    /// A `u32` count followed by that many `f64`s.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, StorageError> {
        let n = self.u32()? as usize;
        self.f64s(n)
    }

    /// A `u32` length followed by that many bytes.
    ///
    /// # Errors
    /// As [`Reader::u8`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, StorageError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A `u32` length followed by that many bytes of UTF-8.
    ///
    /// # Errors
    /// As [`Reader::u8`], or [`StorageError::Corrupt`] for invalid UTF-8.
    pub fn string(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.corrupt("string is not UTF-8")),
        }
    }

    /// Succeeds only when every byte was read.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] naming the trailing byte count.
    pub fn finish(&self) -> Result<(), StorageError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(self.corrupt(&format!("has {n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Envelope = Envelope {
        name: "test file",
        magic: *b"TEST",
        version: 2,
        reads: &[1, 2],
    };

    fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cdp-segment-{tag}-{}", std::process::id()))
    }

    #[test]
    fn checksum_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 the sliced one replaced: the reference it must
    /// match bit for bit.
    fn bitwise_crc_update(mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        crc
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc_matches_the_bitwise_reference() {
        // Every length across the 16-byte block boundaries and the tail.
        let data = noise(300, 1);
        for len in 0..=data.len() {
            let bytes = &data[..len];
            assert_eq!(
                crc_update(0xFFFF_FFFF, bytes),
                bitwise_crc_update(0xFFFF_FFFF, bytes),
                "length {len}"
            );
            assert_eq!(crc32(bytes), !bitwise_crc_update(0xFFFF_FFFF, bytes));
        }
        // Streaming over every split point equals one pass (what
        // `Envelope::trailer` relies on).
        let buf = noise(100, 2);
        let whole = crc_update(0xFFFF_FFFF, &buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                crc_update(crc_update(0xFFFF_FFFF, a), b),
                whole,
                "split {split}"
            );
        }
        // Unaligned sub-slices, from a non-initial running CRC too.
        let wide = noise(257, 3);
        for start in 0..17 {
            for end in [start, start + 15, start + 16, start + 33, wide.len()] {
                let sub = &wide[start..end];
                for init in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    assert_eq!(
                        crc_update(init, sub),
                        bitwise_crc_update(init, sub),
                        "{start}..{end} from {init:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_trailer_equals_in_place_seal() {
        let mut frame = TEST.header().to_vec();
        frame.extend_from_slice(b"body bytes");
        let trailer = TEST.trailer(b"body bytes");
        seal(&mut frame);
        assert_eq!(&frame[frame.len() - TRAILER_LEN..], &trailer);
        assert_eq!(ok(TEST.open(&frame)), (2, &b"body bytes"[..]));
    }

    #[test]
    fn open_checks_crc_before_magic_and_version() {
        let mut frame = TEST.header().to_vec();
        frame.extend_from_slice(b"xyz");
        seal(&mut frame);
        // Any flipped byte — magic and version included — is a checksum
        // failure, so a damaged header never reads as a foreign format.
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x01;
            assert!(matches!(TEST.open(&damaged), Err(StorageError::Corrupt(_))));
        }
        // Intact files of a foreign version or magic are typed as such.
        let future = Envelope { version: 9, ..TEST };
        let mut other = future.header().to_vec();
        seal(&mut other);
        assert!(matches!(
            TEST.open(&other),
            Err(StorageError::VersionMismatch {
                found: 9,
                expected: 2
            })
        ));
        let foreign = Envelope {
            magic: *b"NOPE",
            ..TEST
        };
        let mut other = foreign.header().to_vec();
        seal(&mut other);
        assert!(matches!(TEST.open(&other), Err(StorageError::Corrupt(_))));
        // An older version this build reads opens with its number.
        let old = Envelope { version: 1, ..TEST };
        let mut v1 = old.header().to_vec();
        seal(&mut v1);
        assert_eq!(ok(TEST.open(&v1)).0, 1);
    }

    #[test]
    fn write_lists_prunes_and_tears() {
        let dir = temp_dir("files");
        let _ = fs::remove_dir_all(&dir);
        let files = ok(SegmentDir::open(&dir, "f-", "seg"));
        for seq in [3u64, 1, 2, 10] {
            assert_eq!(ok(files.write(seq, &[b"ab", b"cde"])), 5);
        }
        ok(files.write_torn(11, &[b"ab", b"cdef"]));
        ok(fs::write(dir.join("f-x.seg"), b""));
        assert_eq!(ok(files.list()), vec![1, 2, 3, 10]);
        assert_eq!(ok(fs::read(files.path(10))), b"abcde");
        assert_eq!(ok(fs::read(dir.join("f-000000000011.tmp"))), b"abc");
        ok(files.prune(2, Some(1)));
        assert_eq!(ok(files.list()), vec![1, 10]);
        ok(files.prune(0, None));
        assert_eq!(
            ok(files.list()),
            vec![10],
            "the newest file is never pruned"
        );
        assert!(!ok(files.remove(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_never_allocates_from_a_hostile_count() {
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert!(Reader::new(&bytes, "t").f64_vec().is_err());
        assert!(Reader::new(&bytes, "t").u64_vec().is_err());
        assert!(Reader::new(&bytes, "t").bytes().is_err());
        assert!(Reader::new(&bytes, "t").u32s(usize::MAX).is_err());
        let mut r = Reader::new(&bytes, "t");
        assert_eq!(ok(r.u32()), u32::MAX);
        assert_eq!(ok(r.f64s(2)), vec![0.0, 0.0]);
        ok(r.finish());
        assert!(Reader::new(&bytes, "t").finish().is_err());
    }
}
