//! Flight recorder: a bounded on-disk telemetry segment log that survives
//! crashes.
//!
//! A [`FlightRecorder`] periodically persists the full [`TelemetryStore`]
//! (every ring-buffered series) plus the alerts fired so far as a durable
//! segment (DESIGN.md §18, [`crate::segment`]): `seg-{seq:012}.cdpt`, magic
//! `CDPT`, written atomically, then the oldest segments beyond the
//! retention budget are pruned.
//!
//! After a crash, [`load_segments`] scans the directory newest-first and
//! decodes every valid segment, *skipping* torn, corrupt or unreadable
//! files (a crash mid-write leaves at most a temp file, never a
//! valid-looking segment with bad data, thanks to the CRC). The
//! `postmortem` binary in `cdp-bench` builds its timeline from exactly
//! this scan.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use bytes::BufMut;
use cdp_obs::{Alert, HistogramFrame, SamplePoint, TelemetryStore};

use crate::segment::{seal, Envelope, Reader, SegmentDir};
use crate::StorageError;

/// Segment file extension.
pub const SEGMENT_EXT: &str = "cdpt";

const ENVELOPE: Envelope = Envelope {
    name: "telemetry segment",
    magic: *b"CDPT",
    version: 1,
    reads: &[1],
};

/// One histogram's series as persisted in a segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentHistogram {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Retained frames, oldest first.
    pub frames: Vec<HistogramFrame>,
}

/// One decoded telemetry segment: a point-in-time copy of the recorder's
/// telemetry store and alert history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySegment {
    /// Segment sequence number (from the file name).
    pub seq: u64,
    /// Clock seconds of the flush that wrote this segment.
    pub at_secs: f64,
    /// Samples the store had recorded at flush time.
    pub samples: u64,
    /// Counter series, name-ordered, oldest sample first.
    pub counters: BTreeMap<String, Vec<SamplePoint>>,
    /// Gauge series, name-ordered, oldest sample first.
    pub gauges: BTreeMap<String, Vec<SamplePoint>>,
    /// Histogram series, name-ordered.
    pub histograms: BTreeMap<String, SegmentHistogram>,
    /// Alerts fired up to the flush, oldest first.
    pub alerts: Vec<Alert>,
}

/// Result of scanning a recorder directory after a crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentScan {
    /// Valid segments, newest first.
    pub segments: Vec<TelemetrySegment>,
    /// Files that looked like segments but could not be read or decoded
    /// (torn writes, corruption, future versions) — skipped, never fatal.
    pub skipped: usize,
}

/// Writes bounded, checksummed telemetry segments with rotation.
#[derive(Debug)]
pub struct FlightRecorder {
    files: SegmentDir,
    keep: usize,
    next_seq: u64,
}

fn segment_files(dir: &Path) -> SegmentDir {
    SegmentDir::at(dir, "seg-", SEGMENT_EXT)
}

impl FlightRecorder {
    /// Opens (creating if needed) a recorder over `dir`, retaining the
    /// newest `keep` segments (clamped ≥ 1). Existing segments are kept;
    /// new flushes continue the sequence after the highest present.
    ///
    /// # Errors
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, StorageError> {
        let files = segment_files(&dir.into());
        fs::create_dir_all(files.dir())?;
        let next_seq = files.list()?.last().map_or(0, |seq| seq + 1);
        Ok(Self {
            files,
            keep: keep.max(1),
            next_seq,
        })
    }

    /// The recorder directory.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// Sequence number the next flush will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Durably writes one segment capturing `store` and `alerts` at
    /// `at_secs`, then prunes segments beyond the retention budget.
    /// Returns the bytes written.
    ///
    /// # Errors
    /// I/O errors writing, syncing, renaming or pruning.
    pub fn flush(
        &mut self,
        store: &TelemetryStore,
        alerts: &[Alert],
        at_secs: f64,
    ) -> Result<u64, StorageError> {
        let bytes = self
            .files
            .write(self.next_seq, &[&encode_segment(store, alerts, at_secs)])?;
        self.next_seq += 1;
        self.files.prune(self.keep, None)?;
        Ok(bytes)
    }
}

/// Stable file name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:012}.{SEGMENT_EXT}")
}

/// Segment files in `dir`, oldest first, with their sequence numbers.
/// Temp files and foreign names are ignored.
///
/// # Errors
/// I/O errors reading the directory.
pub fn list_segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let files = segment_files(dir);
    Ok(files
        .list()?
        .into_iter()
        .map(|seq| (seq, files.path(seq)))
        .collect())
}

/// Scans `dir` newest-first and decodes up to `max` valid segments,
/// skipping (and counting) unreadable, torn or corrupt files. A missing
/// directory yields an empty scan — postmortem analysis over "nothing
/// recorded" is a report, not an error.
///
/// # Errors
/// I/O errors reading the directory.
pub fn load_segments(dir: &Path, max: usize) -> Result<SegmentScan, StorageError> {
    let mut scan = SegmentScan::default();
    if !dir.exists() {
        return Ok(scan);
    }
    let files = segment_files(dir);
    for seq in files.list()?.into_iter().rev() {
        if scan.segments.len() >= max {
            break;
        }
        match fs::read(files.path(seq))
            .map_err(StorageError::from)
            .and_then(|b| decode_segment(&b))
        {
            Ok(segment) => scan.segments.push(TelemetrySegment { seq, ..segment }),
            Err(_) => scan.skipped += 1,
        }
    }
    Ok(scan)
}

// ---- Encoding (big-endian, hand-rolled — no serialization dependency) ----

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn put_points<'a>(out: &mut Vec<u8>, len: usize, points: impl Iterator<Item = &'a SamplePoint>) {
    out.put_u32(len as u32);
    for p in points {
        out.put_f64(p.at_secs);
        out.put_f64(p.value);
    }
}

fn encode_segment(store: &TelemetryStore, alerts: &[Alert], at_secs: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.put_slice(&ENVELOPE.header());
    out.put_f64(at_secs);
    out.put_u64(store.samples());

    let counters: Vec<_> = store.counters().collect();
    out.put_u32(counters.len() as u32);
    for (name, series) in counters {
        put_str(&mut out, name);
        put_points(&mut out, series.len(), series.points());
    }
    let gauges: Vec<_> = store.gauges().collect();
    out.put_u32(gauges.len() as u32);
    for (name, series) in gauges {
        put_str(&mut out, name);
        put_points(&mut out, series.len(), series.points());
    }
    let histograms: Vec<_> = store.histograms().collect();
    out.put_u32(histograms.len() as u32);
    for (name, series) in histograms {
        put_str(&mut out, name);
        out.put_u32(series.bounds().len() as u32);
        for b in series.bounds() {
            out.put_f64(*b);
        }
        out.put_u32(series.len() as u32);
        for f in series.frames() {
            out.put_f64(f.at_secs);
            out.put_u64(f.count);
            out.put_f64(f.sum);
            out.put_u64(f.dropped);
            out.put_u32(f.buckets.len() as u32);
            for c in &f.buckets {
                out.put_u64(*c);
            }
        }
    }
    out.put_u32(alerts.len() as u32);
    for a in alerts {
        put_str(&mut out, &a.rule);
        out.put_f64(a.value);
        out.put_f64(a.threshold);
        out.put_f64(a.at_secs);
        out.put_u64(a.fired_count);
    }
    seal(&mut out);
    out
}

fn read_points(r: &mut Reader<'_>) -> Result<Vec<SamplePoint>, StorageError> {
    let mut points = Vec::new();
    for _ in 0..r.u32()? {
        points.push(SamplePoint {
            at_secs: r.f64()?,
            value: r.f64()?,
        });
    }
    Ok(points)
}

/// Decodes one segment file's bytes (sequence number is assigned by the
/// caller from the file name).
///
/// # Errors
/// [`StorageError::Corrupt`] when the envelope or payload is invalid,
/// [`StorageError::VersionMismatch`] for an intact segment of a foreign
/// version. Never a panic, whatever the bytes.
pub fn decode_segment(bytes: &[u8]) -> Result<TelemetrySegment, StorageError> {
    let (_, body) = ENVELOPE.open(bytes)?;
    let mut r = Reader::new(body, "telemetry segment");
    let mut segment = TelemetrySegment {
        at_secs: r.f64()?,
        samples: r.u64()?,
        ..TelemetrySegment::default()
    };
    for _ in 0..r.u32()? {
        let name = r.string()?;
        segment.counters.insert(name, read_points(&mut r)?);
    }
    for _ in 0..r.u32()? {
        let name = r.string()?;
        segment.gauges.insert(name, read_points(&mut r)?);
    }
    for _ in 0..r.u32()? {
        let name = r.string()?;
        let bounds = r.f64_vec()?;
        let mut frames = Vec::new();
        for _ in 0..r.u32()? {
            frames.push(HistogramFrame {
                at_secs: r.f64()?,
                count: r.u64()?,
                sum: r.f64()?,
                dropped: r.u64()?,
                buckets: r.u64_vec()?,
            });
        }
        segment
            .histograms
            .insert(name, SegmentHistogram { bounds, frames });
    }
    for _ in 0..r.u32()? {
        segment.alerts.push(Alert {
            rule: r.string()?,
            value: r.f64()?,
            threshold: r.f64()?,
            at_secs: r.f64()?,
            fired_count: r.u64()?,
        });
    }
    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::crc32;
    use cdp_obs::Metrics;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cdp-recorder-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store(rounds: usize) -> (TelemetryStore, Vec<Alert>) {
        let metrics = Metrics::collecting();
        let mut store = TelemetryStore::new(32);
        for i in 0..rounds {
            metrics.counter("deployment.chunks").inc();
            metrics.gauge("drift.level").set(i as f64);
            metrics
                .histogram_with_bounds("io", &[0.1, 1.0])
                .observe(0.05 * (i + 1) as f64);
            store.record(60.0 * (i + 1) as f64, &metrics.snapshot());
        }
        let alerts = vec![Alert {
            rule: "store.lost_spills".into(),
            value: 2.0,
            threshold: 0.0,
            at_secs: 120.0,
            fired_count: 1,
        }];
        (store, alerts)
    }

    #[test]
    fn segment_round_trips_exactly() {
        let (store, alerts) = sample_store(3);
        let bytes = encode_segment(&store, &alerts, 180.0);
        let seg = decode_segment(&bytes).unwrap();
        assert_eq!(seg.at_secs, 180.0);
        assert_eq!(seg.samples, 3);
        assert_eq!(seg.counters["deployment.chunks"].len(), 3);
        assert_eq!(seg.counters["deployment.chunks"][2].value, 3.0);
        assert_eq!(seg.gauges["drift.level"][1].value, 1.0);
        let h = &seg.histograms["io"];
        assert_eq!(h.bounds, vec![0.1, 1.0]);
        assert_eq!(h.frames.len(), 3);
        assert_eq!(h.frames[2].count, 3);
        assert_eq!(seg.alerts, alerts);
    }

    #[test]
    fn flush_rotates_and_retains_newest() {
        let dir = temp_dir("rotate");
        let mut rec = FlightRecorder::open(&dir, 2).unwrap();
        let (store, alerts) = sample_store(2);
        for i in 0..5 {
            let bytes = rec.flush(&store, &alerts, i as f64).unwrap();
            assert!(bytes > 0);
        }
        let files = list_segment_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "retention prunes to keep");
        assert_eq!(files[0].0, 3);
        assert_eq!(files[1].0, 4);
        // Reopening continues the sequence.
        let rec2 = FlightRecorder::open(&dir, 2).unwrap();
        assert_eq!(rec2.next_seq(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_tails_are_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let mut rec = FlightRecorder::open(&dir, 4).unwrap();
        let (store, alerts) = sample_store(2);
        rec.flush(&store, &alerts, 60.0).unwrap();
        rec.flush(&store, &alerts, 120.0).unwrap();
        // Torn tail: truncate the newest segment mid-payload.
        let newest = dir.join(segment_file_name(1));
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        // Corrupt a fresh third segment by flipping one payload byte.
        rec.flush(&store, &alerts, 180.0).unwrap();
        let corrupt = dir.join(segment_file_name(2));
        let mut bytes = fs::read(&corrupt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&corrupt, bytes).unwrap();

        let scan = load_segments(&dir, 8).unwrap();
        assert_eq!(scan.skipped, 2);
        assert_eq!(scan.segments.len(), 1, "only the intact segment survives");
        assert_eq!(scan.segments[0].seq, 0);
        assert_eq!(scan.segments[0].samples, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_missing_or_foreign_dir_is_empty() {
        let dir = temp_dir("missing");
        let scan = load_segments(&dir, 4).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.skipped, 0);
        // A directory with only foreign files scans empty too.
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join(".tmp-seg-000000000000.cdpt"), b"partial").unwrap();
        let scan = load_segments(&dir, 4).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let (store, alerts) = sample_store(1);
        let mut bytes = encode_segment(&store, &alerts, 60.0);
        assert!(decode_segment(&bytes[..4]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_segment(&wrong_magic),
            Err(StorageError::Corrupt(m)) if m.contains("checksum")
        ));
        // Re-trailered, so only the magic check fails.
        let body_len = bytes.len() - 4;
        let crc = crc32(&wrong_magic[..body_len]);
        wrong_magic[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            decode_segment(&wrong_magic),
            Err(StorageError::Corrupt(m)) if m.contains("magic")
        ));
        // Bump the version and re-trailer so only the version check fails.
        bytes[5] = 99;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            decode_segment(&bytes),
            Err(StorageError::VersionMismatch {
                found: 99,
                expected: 1
            })
        ));
    }

    #[test]
    fn hostile_point_count_is_a_typed_error() {
        // A CRC-valid segment whose first counter claims u32::MAX points
        // must fail on truncation, not attempt the allocation.
        let mut bytes = ENVELOPE.header().to_vec();
        bytes.put_f64(60.0);
        bytes.put_u64(1);
        bytes.put_u32(1);
        put_str(&mut bytes, "deployment.chunks");
        bytes.put_u32(u32::MAX);
        seal(&mut bytes);
        assert!(matches!(
            decode_segment(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn segment_bytes_match_the_golden_encoding() {
        // (length, CRC-32 of the whole file) of this fixed input: the
        // segment format is fixed, so these values must never change.
        let dir = temp_dir("golden");
        let mut rec = FlightRecorder::open(&dir, 2).unwrap();
        let (store, alerts) = sample_store(2);
        rec.flush(&store, &alerts, 120.0).unwrap();
        let bytes = fs::read(dir.join(segment_file_name(0))).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (353, 0xc7a4_a623));
        let _ = fs::remove_dir_all(&dir);
    }
}
