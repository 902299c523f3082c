//! Every on-disk decoder survives arbitrary bytes.
//!
//! Checkpoints (envelope and `DeploymentCheckpoint` payload), spill files,
//! WAL segments and flight-recorder segments are fed every truncation of a
//! valid file, single-bit flips, random bytes, and CRC-valid envelopes
//! around random bodies (so the body decoders are reached past the
//! checksum). Each input must come back as a typed `StorageError` — or, for
//! the WAL, as records counted torn/corrupt and dropped — and never as a
//! panic or an allocation abort.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::faults::NoFaults;
use cdpipe::linalg::{DenseVector, SparseBuilder, Vector};
use cdpipe::prelude::*;
use cdpipe::storage::disk::{decode_chunk, encode_chunk};
use cdpipe::storage::segment::crc32;
use cdpipe::storage::{
    decode_segment, CheckpointDir, FeatureChunk, LabeledPoint, RawChunk, Record, StorageError,
    Timestamp, Value, WalDir, WalOptions, WalWriter,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cdp-decoders-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn is_typed<T>(r: &Result<T, StorageError>) -> bool {
    matches!(
        r,
        Err(StorageError::Corrupt(_) | StorageError::VersionMismatch { .. })
    )
}

fn spill_files() -> Vec<Vec<u8>> {
    let mut b1 = SparseBuilder::new();
    b1.add(2, 1.0);
    let mut b2 = SparseBuilder::new();
    b2.add(0, -3.0);
    b2.add(7, 2.5);
    let dense = vec![
        LabeledPoint::new(1.0, DenseVector::new(vec![1.0, -2.0]).into()),
        LabeledPoint::new(-1.0, DenseVector::new(vec![0.5, 4.0]).into()),
    ];
    let csr = vec![
        LabeledPoint::new(1.0, Vector::Sparse(b1.build(8).expect("sparse"))),
        LabeledPoint::new(0.0, Vector::Sparse(b2.build(8).expect("sparse"))),
    ];
    let mut rows = csr.clone();
    rows.push(LabeledPoint::new(
        0.5,
        DenseVector::new(vec![1.0; 3]).into(),
    ));
    [dense, csr, rows]
        .into_iter()
        .enumerate()
        .map(|(i, points)| {
            let ts = Timestamp(i as u64);
            encode_chunk(&FeatureChunk::new(ts, ts, points)).to_vec()
        })
        .collect()
}

fn raw_chunk(seq: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(seq),
        vec![Record::new(vec![
            Value::Num(seq as f64),
            Value::Text(format!("tok-{seq}")),
            Value::Missing,
        ])],
    )
}

fn wal_segment() -> Vec<u8> {
    let dir = scratch_dir("wal-src");
    let options = WalOptions {
        fsync_every: 1,
        group_window_secs: 0.0,
        ..WalOptions::default()
    };
    let mut w = WalWriter::open(
        &dir,
        options,
        Arc::new(NoFaults),
        Arc::new(VirtualClock::default()),
        Metrics::disabled(),
        0,
    )
    .expect("open WAL");
    for seq in 0..3 {
        w.append(seq, &raw_chunk(seq)).expect("append");
    }
    w.flush().expect("flush");
    let bytes = std::fs::read(dir.join("wal-000000000000.cdpw")).expect("read WAL");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Recovers a WAL directory holding exactly `segment`: whatever the bytes,
/// recovery succeeds, and every record it returns is the one written.
fn recover_wal(segment: &[u8]) -> Result<(), String> {
    let dir = scratch_dir("wal");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("wal-000000000000.cdpw"), segment).map_err(|e| e.to_string())?;
    let recovered = WalDir::open(&dir)
        .and_then(|d| d.recover())
        .map_err(|e| format!("WAL recovery failed: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    for (seq, chunk) in recovered?.chunks {
        if seq < 3 && chunk != raw_chunk(seq) {
            return Err(format!("record {seq} recovered with different contents"));
        }
    }
    Ok(())
}

fn recorder_segment() -> Vec<u8> {
    let metrics = Metrics::collecting();
    let mut store = TelemetryStore::new(8);
    for i in 0..3 {
        metrics.counter("deployment.chunks").inc();
        metrics.gauge("drift.level").set(f64::from(i));
        metrics
            .histogram_with_bounds("io", &[0.1, 1.0])
            .observe(0.3 * f64::from(i));
        store.record(60.0 * f64::from(i + 1), &metrics.snapshot());
    }
    let alerts = vec![Alert {
        rule: "store.lost_spills".into(),
        value: 1.0,
        threshold: 0.0,
        at_secs: 120.0,
        fired_count: 1,
    }];
    let dir = scratch_dir("rec");
    let mut rec = FlightRecorder::open(&dir, 1).expect("open recorder");
    rec.flush(&store, &alerts, 180.0).expect("flush");
    let bytes = std::fs::read(dir.join("seg-000000000000.cdpt")).expect("read segment");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A small but complete checkpoint payload from a real tiny run, with the
/// large vectors cut short so exhaustive sweeps stay cheap.
fn checkpoint_payload() -> Vec<u8> {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let dir = scratch_dir("ckpt-src");
    let mut cfg = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    cfg.collect_metrics = true;
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(4).keep(1));
    run_deployment(&stream, &spec, &cfg);
    let (_, version, payload) = CheckpointDir::open(&dir, 1)
        .and_then(|d| d.latest_valid_versioned())
        .expect("read checkpoint")
        .expect("a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let mut ckpt = DeploymentCheckpoint::decode_versioned(version, &payload).expect("decode");
    for v in [&mut ckpt.weights, &mut ckpt.opt_acc1, &mut ckpt.opt_acc2] {
        v.truncate(4);
    }
    ckpt.metrics.lineage.clear();
    ckpt.metrics.events.truncate(2);
    ckpt.encode()
}

/// Opens `file` as the only checkpoint in a directory, then decodes its
/// payload the way resume does.
fn open_checkpoint(
    file: &[u8],
) -> Result<Option<Result<DeploymentCheckpoint, StorageError>>, String> {
    let dir = scratch_dir("ckpt");
    let store = CheckpointDir::open(&dir, 1).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("ckpt-000000000000.cdpk"), file).map_err(|e| e.to_string())?;
    let latest = store.latest_valid_versioned().map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(latest?
        .map(|(_, version, payload)| DeploymentCheckpoint::decode_versioned(version, &payload)))
}

/// Seals `body` as a checkpoint file exactly as `CheckpointDir::write` does.
fn sealed_checkpoint(dir: &Path, body: &[u8]) -> Vec<u8> {
    let store = CheckpointDir::open(dir, 1).expect("open checkpoint dir");
    store.write(0, body).expect("write checkpoint");
    std::fs::read(dir.join("ckpt-000000000000.cdpk")).expect("read checkpoint")
}

/// Flips bit `bit` (modulo the file's bit length) of a copy of `bytes`.
fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let bit = bit % (out.len() * 8);
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

/// `header | body | crc32` with the CRC made valid, for any envelope.
fn reseal(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = header.to_vec();
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

#[test]
fn every_truncation_is_a_typed_error() {
    for file in spill_files() {
        for len in 0..file.len() {
            assert!(is_typed(&decode_chunk(&file[..len])), "spill prefix {len}");
        }
    }
    let segment = recorder_segment_cached();
    for len in 0..segment.len() {
        assert!(
            is_typed(&decode_segment(&segment[..len])),
            "segment prefix {len}"
        );
    }
    let wal = wal_segment_cached();
    for len in 0..wal.len() {
        assert_eq!(recover_wal(&wal[..len]), Ok(()), "WAL prefix {len}");
    }
    let payload = checkpoint_payload_cached();
    for len in 0..payload.len() {
        let decoded = DeploymentCheckpoint::decode(&payload[..len]);
        assert!(is_typed(&decoded), "checkpoint payload prefix {len}");
    }
    let dir = scratch_dir("ckpt-trunc");
    let file = sealed_checkpoint(&dir, payload);
    let _ = std::fs::remove_dir_all(&dir);
    for len in (0..file.len()).step_by(13).chain([file.len() - 1]) {
        assert!(
            matches!(open_checkpoint(&file[..len]), Ok(None)),
            "checkpoint prefix {len} must not open"
        );
    }
}

#[test]
fn every_single_bit_flip_of_a_sealed_file_is_rejected() {
    for file in spill_files() {
        for bit in 0..file.len() * 8 {
            assert!(
                is_typed(&decode_chunk(&flipped(&file, bit))),
                "spill bit {bit}"
            );
        }
    }
    let segment = recorder_segment_cached();
    for bit in 0..segment.len() * 8 {
        assert!(
            is_typed(&decode_segment(&flipped(segment, bit))),
            "segment bit {bit}"
        );
    }
}

proptest! {
    #[test]
    fn bit_flips_never_panic_and_never_forge_data(bit in 0usize..1 << 20) {
        let payload = checkpoint_payload_cached();
        // The payload has no checksum of its own: a flip may decode, but
        // must never panic.
        let _ = DeploymentCheckpoint::decode(&flipped(payload, bit));
        let dir = scratch_dir("ckpt-flip");
        let file = sealed_checkpoint(&dir, payload);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(matches!(open_checkpoint(&flipped(&file, bit)), Ok(None)));
        prop_assert_eq!(recover_wal(&flipped(wal_segment_cached(), bit)), Ok(()));
    }

    #[test]
    fn random_bytes_are_typed_errors(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(is_typed(&decode_chunk(&bytes)));
        prop_assert!(is_typed(&decode_segment(&bytes)));
        prop_assert!(is_typed(&DeploymentCheckpoint::decode(&bytes)));
        prop_assert!(matches!(open_checkpoint(&bytes), Ok(None)));
        prop_assert_eq!(recover_wal(&bytes), Ok(()));
    }

    #[test]
    fn crc_valid_random_bodies_reach_the_body_decoders(
        body in prop::collection::vec(0u8..=255, 0..512),
        prefix_len in 0usize..64,
        count in prop_oneof![Just(0u32), Just(1u32), Just(7u32), Just(u32::MAX)],
    ) {
        let count: u32 = count;
        // Start the body from a plausible prefix of a real one, then splice
        // in a (possibly hostile) count, so decoding gets past the first
        // fields before it meets the random bytes.
        let splice = |valid: &[u8], skip: usize| {
            let mut out = valid[..(skip + prefix_len).min(valid.len())].to_vec();
            out.extend_from_slice(&count.to_be_bytes());
            out.extend_from_slice(&body);
            out
        };
        for (i, file) in spill_files().iter().enumerate() {
            let spliced = reseal(&file[..6], &splice(&file[6..file.len() - 4], 16));
            let r = decode_chunk(&spliced);
            prop_assert!(r.is_ok() || is_typed(&r), "spill layout {}", i);
            // The same body under the v2 header reaches the legacy decoder.
            let mut v2 = file[..6].to_vec();
            v2[5] = 2;
            let r = decode_chunk(&reseal(&v2, &splice(&file[6..file.len() - 4], 16)));
            prop_assert!(r.is_ok() || is_typed(&r));
        }
        let segment = recorder_segment_cached();
        let r = decode_segment(&reseal(&segment[..6], &splice(&segment[6..segment.len() - 4], 16)));
        prop_assert!(r.is_ok() || is_typed(&r));

        let payload = checkpoint_payload_cached();
        let dir = scratch_dir("ckpt-body");
        let file = sealed_checkpoint(&dir, &splice(payload, 16));
        let _ = std::fs::remove_dir_all(&dir);
        match open_checkpoint(&file) {
            Ok(Some(decoded)) => prop_assert!(decoded.is_ok() || is_typed(&decoded)),
            other => prop_assert!(false, "sealed checkpoint must open: {:?}", other.map(|o| o.is_some())),
        }
        for version in [1u16, 3] {
            let r = DeploymentCheckpoint::decode_versioned(version, &splice(payload, 16));
            prop_assert!(r.is_ok() || is_typed(&r));
        }

        // A WAL frame with a valid CRC around a random payload (sequence
        // number 9, past the records `recover_wal` compares).
        let wal = wal_segment_cached();
        let mut frame_payload = 9u64.to_be_bytes().to_vec();
        frame_payload.extend_from_slice(&splice(&wal[18..], 8));
        let mut segment = wal[..6].to_vec();
        segment.extend_from_slice(&(frame_payload.len() as u32).to_be_bytes());
        segment.extend_from_slice(&frame_payload);
        segment.extend_from_slice(&crc32(&frame_payload).to_be_bytes());
        prop_assert_eq!(recover_wal(&segment), Ok(()));
    }
}

fn checkpoint_payload_cached() -> &'static [u8] {
    static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PAYLOAD.get_or_init(checkpoint_payload)
}

fn wal_segment_cached() -> &'static [u8] {
    static SEGMENT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SEGMENT.get_or_init(wal_segment)
}

fn recorder_segment_cached() -> &'static [u8] {
    static SEGMENT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SEGMENT.get_or_init(recorder_segment)
}
