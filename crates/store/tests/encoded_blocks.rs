//! Encoded column blocks through a real snapshot: zero-copy views,
//! byte-identical re-serialization, copy-on-write decode accounting, and
//! rejection of structurally corrupt encoded payloads.
//!
//! Whole-file corruption (bit flips, truncation) is caught upstream by
//! the snapshot checksums — see `tests/snapshot_corruption.rs` at the
//! workspace root. The cases here are the ones checksums *cannot* catch:
//! a block that was checksummed after it was written wrong, i.e. an
//! internally inconsistent encoded payload behind a valid footer. Every
//! one must surface as a typed [`StoreError::BadBlock`] at load — never
//! a panic, never a silently wrong column.

use tabula_storage::{Codable, ColumnBuf, EncodedBuf, EncodingMode};
use tabula_store::blocks::{FOR_HEADER, RLE_HEADER};
use tabula_store::{Snapshot, SnapshotWriter, StoreError, Word};

/// Ten long runs — Force picks RLE.
fn clustered() -> Vec<i64> {
    (0..1_000).map(|i| (i / 100) * 7 - 3).collect()
}

/// Scattered small values — Force picks FOR.
fn scattered() -> Vec<u32> {
    (0..1_000).map(|i| (i * 37) % 101).collect()
}

fn force<T: tabula_storage::Codable>(values: Vec<T>) -> ColumnBuf<T> {
    let mut buf: ColumnBuf<T> = values.into();
    buf.encode_in_place(EncodingMode::Force);
    buf
}

fn snapshot_with(name: &str, rows: u64, payload: &[u8]) -> Snapshot {
    let mut w = SnapshotWriter::new(Vec::new());
    w.add_block(name, rows, payload).unwrap();
    Snapshot::from_bytes(w.finish().unwrap()).unwrap()
}

/// The payload the writer streams for `buf` under the base name `c`, or
/// `None` when it lands in a block other than `c<suffix>`.
fn streamed<T: Codable + Word>(buf: &ColumnBuf<T>, suffix: &str) -> Option<Vec<u8>> {
    let mut w = SnapshotWriter::new(Vec::new());
    w.add_column_buf("c", buf).unwrap();
    let snap = Snapshot::from_bytes(w.finish().unwrap()).unwrap();
    let block = snap.block(&format!("c{suffix}")).ok()?;
    Some(block.bytes().to_vec())
}

#[test]
fn rle_block_round_trips_zero_copy_and_reserializes_identically() {
    let values = clustered();
    let buf = force(values.clone());
    let Some(bytes) = streamed(&buf, ":rle") else { panic!("clustered i64s must RLE-encode") };
    let snap = snapshot_with("col:0:data:rle", values.len() as u64, &bytes);
    let enc = snap.block("col:0:data:rle").unwrap().encoded_rle::<i64>().unwrap();
    assert_eq!(enc.len(), values.len());
    // Per-row access reads the mapped bytes directly — no decode.
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(enc.get(i), v);
    }
    // Re-serializing the loaded view reproduces the block byte-for-byte,
    // so a load → re-freeze cycle cannot drift.
    let restored: ColumnBuf<i64> = EncodedBuf::new(enc).into();
    let Some(again) = streamed(&restored, ":rle") else {
        panic!("restored buffer must still be RLE")
    };
    assert_eq!(again, bytes);
}

#[test]
fn for_block_round_trips_zero_copy_and_reserializes_identically() {
    let values = scattered();
    let buf = force(values.clone());
    let Some(bytes) = streamed(&buf, ":for") else { panic!("scattered u32s must FOR-encode") };
    let snap = snapshot_with("col:0:codes:for", values.len() as u64, &bytes);
    let enc = snap.block("col:0:codes:for").unwrap().encoded_for::<u32>().unwrap();
    assert_eq!(enc.len(), values.len());
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(enc.get(i), v);
    }
    let restored: ColumnBuf<u32> = EncodedBuf::new(enc).into();
    let Some(again) = streamed(&restored, ":for") else {
        panic!("restored buffer must still be FOR")
    };
    assert_eq!(again, bytes);
}

/// A snapshot-backed encoded buffer decodes once: loading does not
/// decode, and `to_mut` (copy-on-write) decodes through the payload's
/// shared cache, so every other holder of the payload reuses that decode.
#[test]
fn snapshot_backed_buffer_decodes_once_on_write() {
    let values = clustered();
    let buf = force(values.clone());
    let Some(bytes) = streamed(&buf, ":rle") else { panic!() };
    let snap = snapshot_with("col:0:data:rle", values.len() as u64, &bytes);
    let enc = EncodedBuf::new(snap.block("col:0:data:rle").unwrap().encoded_rle::<i64>().unwrap());
    let mut restored: ColumnBuf<i64> = enc.clone().into();

    assert!(!enc.is_decoded(), "a zero-copy restore must not decode");
    let rows = restored.to_mut(); // CoW: decodes into the shared cache
    rows[0] += 1;
    assert!(enc.is_decoded(), "to_mut must decode through the shared cache");
    assert_eq!(enc.decoded(), &values[..]);
    assert_eq!(restored[0], values[0] + 1);
}

/// Every structural fault in an encoded block is a typed `BadBlock`
/// naming the damaged region.
fn expect_bad_rle(name: &str, rows: u64, payload: &[u8]) -> String {
    let snap = snapshot_with(name, rows, payload);
    match snap.block(name).unwrap().encoded_rle::<i64>() {
        Err(StoreError::BadBlock { region, reason }) => {
            assert_eq!(region, format!("block:{name}"));
            reason
        }
        other => panic!("corrupt RLE block must be BadBlock, got {other:?}"),
    }
}

#[test]
fn truncated_rle_payload_is_rejected() {
    let values = clustered();
    let Some(bytes) = streamed(&force(values.clone()), ":rle") else { panic!() };
    // Drop the final run-end word: header still claims 10 runs.
    let reason = expect_bad_rle("c", values.len() as u64, &bytes[..bytes.len() - 4]);
    assert!(reason.contains("do not tile"), "{reason}");
    // Truncate into the header itself.
    let reason = expect_bad_rle("c", values.len() as u64, &bytes[..RLE_HEADER - 8]);
    assert!(reason.contains("overruns"), "{reason}");
}

#[test]
fn non_monotonic_rle_run_ends_are_rejected() {
    let values = clustered();
    let Some(mut bytes) = streamed(&force(values.clone()), ":rle") else { panic!() };
    // Swap the first two run ends (they live after 10 × i64 run values).
    let ends_at = RLE_HEADER + 10 * 8;
    let (a, b) = (ends_at, ends_at + 4);
    for k in 0..4 {
        bytes.swap(a + k, b + k);
    }
    let reason = expect_bad_rle("c", values.len() as u64, &bytes);
    assert!(reason.contains("not strictly increasing"), "{reason}");
}

#[test]
fn rle_row_count_mismatch_with_manifest_is_rejected() {
    let values = clustered();
    let Some(bytes) = streamed(&force(values.clone()), ":rle") else { panic!() };
    let reason = expect_bad_rle("c", values.len() as u64 + 1, &bytes);
    assert!(reason.contains("manifest"), "{reason}");
}

#[test]
fn rle_last_end_must_equal_row_count() {
    let values = clustered();
    let Some(mut bytes) = streamed(&force(values.clone()), ":rle") else { panic!() };
    // Shrink the final run end by one row; lie about the row count in the
    // header too so the ends are the only inconsistency left.
    let last_end_at = RLE_HEADER + 10 * 8 + 9 * 4;
    let mut last = u32::from_le_bytes(bytes[last_end_at..last_end_at + 4].try_into().unwrap());
    last -= 1;
    bytes[last_end_at..last_end_at + 4].copy_from_slice(&last.to_le_bytes());
    let reason = expect_bad_rle("c", values.len() as u64, &bytes);
    assert!(reason.contains("does not equal row count"), "{reason}");
}

#[test]
fn truncated_for_payload_is_rejected() {
    let values = scattered();
    let Some(bytes) = streamed(&force(values.clone()), ":for") else { panic!() };
    let snap = snapshot_with("c", values.len() as u64, &bytes[..bytes.len() - 8]);
    match snap.block("c").unwrap().encoded_for::<u32>() {
        Err(StoreError::BadBlock { reason, .. }) => {
            assert!(reason.contains("do not tile"), "{reason}")
        }
        other => panic!("truncated FOR block must be BadBlock, got {other:?}"),
    }
}

#[test]
fn for_width_over_64_bits_is_rejected() {
    let values = scattered();
    let Some(mut bytes) = streamed(&force(values.clone()), ":for") else { panic!() };
    bytes[16..24].copy_from_slice(&65u64.to_le_bytes());
    let snap = snapshot_with("c", values.len() as u64, &bytes);
    match snap.block("c").unwrap().encoded_for::<u32>() {
        Err(StoreError::BadBlock { reason, .. }) => {
            assert!(reason.contains("exceeds 64 bits"), "{reason}")
        }
        other => panic!("width=65 FOR block must be BadBlock, got {other:?}"),
    }
}

#[test]
fn for_ordinal_overflowing_the_value_type_is_rejected() {
    // A hand-built FOR block whose base + delta exceeds u32::MAX: four
    // rows, width 8, base u32::MAX - 1. Row deltas 0..4 push rows 2 and 3
    // past the u32 domain — structurally valid, semantically impossible.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&4u64.to_le_bytes()); // len
    bytes.extend_from_slice(&(u32::MAX as u64 - 1).to_le_bytes()); // base
    bytes.extend_from_slice(&8u64.to_le_bytes()); // width
    bytes.extend_from_slice(&u64::from_le_bytes([0, 1, 2, 3, 0, 0, 0, 0]).to_le_bytes());
    assert_eq!(bytes.len(), FOR_HEADER + 8);
    let snap = snapshot_with("c", 4, &bytes);
    match snap.block("c").unwrap().encoded_for::<u32>() {
        Err(StoreError::BadBlock { reason, .. }) => {
            assert!(reason.contains("does not fit"), "{reason}")
        }
        other => panic!("overflowing FOR ordinals must be BadBlock, got {other:?}"),
    }
}
