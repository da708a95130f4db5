//! Corruption-injection matrix for the snapshot store.
//!
//! For every region of a snapshot file — header magic, version word,
//! reserved bytes, each block, the manifest, every footer field — inject
//! a single bit flip and a truncation, and assert the load fails with a
//! **typed [`StoreError`] naming the damaged region**: no panic, no
//! silent success, and (because detection happens at load, before a cube
//! is ever constructed) no possibility of a wrong answer. A final sweep
//! flips one bit in *every* byte of the file to prove there is no
//! unprotected gap anywhere in the format.
//!
//! Checksums only prove a file is what its writer wrote. The last test
//! plays a hostile writer: cube-table blocks that lie — unsorted,
//! duplicated, out-of-domain, mis-sized — under valid CRCs must still be
//! typed errors, because the loader adopts those arrays as written.

mod common;

use std::sync::Arc;

use tabula::core::builder::{MaterializationMode, SamplingCubeBuilder};
use tabula::core::loss::MeanLoss;
use tabula::core::SamplingCube;
use tabula::data::example_dcm_table;
use tabula::store::{Snapshot, SnapshotWriter, StoreError, FOOTER_LEN, HEADER_LEN};

fn snapshot_bytes() -> Vec<u8> {
    let t = Arc::new(example_dcm_table());
    let fare = t.schema().index_of("fare").unwrap();
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .mode(MaterializationMode::Tabula)
            .build()
            .unwrap();
    cube.snapshot_bytes(42).unwrap()
}

/// Load a (possibly damaged) image through both the store layer and the
/// cube loader, asserting the two agree on failure, and return the store
/// layer's error.
fn load_err(bytes: &[u8]) -> StoreError {
    let store_result = Snapshot::from_bytes(bytes.to_vec());
    let cube_result = SamplingCube::from_snapshot_bytes(bytes.to_vec());
    match store_result {
        Ok(_) => {
            panic!("corrupted snapshot loaded successfully ({} bytes)", bytes.len())
        }
        Err(e) => {
            assert!(
                cube_result.is_err(),
                "store layer rejected the image but the cube loader accepted it"
            );
            assert!(!e.to_string().is_empty());
            e
        }
    }
}

fn flipped(bytes: &[u8], byte: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[byte] ^= 1 << bit;
    out
}

#[test]
fn clean_snapshot_loads() {
    let bytes = snapshot_bytes();
    let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
    assert_eq!(snap.epoch(), 42);
    assert!(snap.manifest().blocks.len() >= 8, "expected a full block inventory");
    let (cube, info) = SamplingCube::from_snapshot_bytes(bytes).unwrap();
    assert_eq!(info.epoch, 42);
    assert!(cube.materialized_cells() > 0);
}

#[test]
fn header_magic_flip_is_bad_magic() {
    let bytes = snapshot_bytes();
    for byte in 0..8 {
        let e = load_err(&flipped(&bytes, byte, 3));
        assert!(
            matches!(e, StoreError::BadMagic { region: "magic" }),
            "header magic byte {byte}: got {e}"
        );
    }
}

#[test]
fn header_version_flip_is_bad_version() {
    let bytes = snapshot_bytes();
    let e = load_err(&flipped(&bytes, 8, 0));
    match e {
        StoreError::BadVersion { found, supported } => {
            assert_ne!(found, supported);
        }
        other => panic!("expected BadVersion, got {other}"),
    }
}

#[test]
fn header_reserved_flip_is_file_checksum_mismatch() {
    let bytes = snapshot_bytes();
    // Reserved header bytes are inside the whole-file CRC's coverage.
    let e = load_err(&flipped(&bytes, 13, 5));
    assert!(
        matches!(&e, StoreError::ChecksumMismatch { region, .. } if region == "file"),
        "got {e}"
    );
}

#[test]
fn every_block_flip_names_the_block() {
    let bytes = snapshot_bytes();
    let clean = Snapshot::from_bytes(bytes.clone()).unwrap();
    let blocks: Vec<(String, u64, u64)> =
        clean.manifest().blocks.iter().map(|b| (b.name.clone(), b.offset, b.len)).collect();
    assert!(!blocks.is_empty());
    for (name, offset, len) in blocks {
        if len == 0 {
            continue; // nothing to flip inside an empty block
        }
        // First, middle and last byte of the payload.
        for pos in [offset, offset + len / 2, offset + len - 1] {
            let e = load_err(&flipped(&bytes, pos as usize, 2));
            let want = format!("block:{name}");
            assert!(
                matches!(&e, StoreError::ChecksumMismatch { region, .. } if *region == want),
                "block {name} byte {pos}: got {e}"
            );
        }
    }
}

#[test]
fn manifest_flip_names_the_manifest() {
    let bytes = snapshot_bytes();
    let footer = &bytes[bytes.len() - FOOTER_LEN as usize..];
    let manifest_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap()) as usize;
    let manifest_len = u64::from_le_bytes(footer[8..16].try_into().unwrap()) as usize;
    for pos in
        [manifest_offset, manifest_offset + manifest_len / 2, manifest_offset + manifest_len - 1]
    {
        let e = load_err(&flipped(&bytes, pos, 6));
        assert!(
            matches!(&e, StoreError::ChecksumMismatch { region, .. } if region == "manifest"),
            "manifest byte {pos}: got {e}"
        );
    }
}

#[test]
fn footer_field_flips_are_detected_and_described() {
    let bytes = snapshot_bytes();
    let base = bytes.len() - FOOTER_LEN as usize;
    // (field byte range within the footer, expected mention in the error)
    let fields: [(std::ops::Range<usize>, &str); 5] = [
        (0..8, "manifest"),   // manifest_offset → bounds or checksum failure
        (8..16, "manifest"),  // manifest_len
        (16..24, "manifest"), // manifest_crc64
        (24..32, "file"),     // file_crc64
        (32..40, "footer"),   // reserved, must be zero
    ];
    for (range, mention) in fields {
        for byte in [range.start, range.end - 1] {
            for bit in [0u8, 7] {
                let e = load_err(&flipped(&bytes, base + byte, bit));
                let msg = e.to_string();
                assert!(
                    msg.contains(mention),
                    "footer byte {byte} bit {bit}: error {msg:?} does not mention {mention:?}"
                );
            }
        }
    }
    // Footer magic.
    for byte in 40..48 {
        let e = load_err(&flipped(&bytes, base + byte, 1));
        assert!(matches!(e, StoreError::BadMagic { region: "footer" }), "footer magic byte {byte}");
    }
}

#[test]
fn truncation_at_every_region_boundary_is_detected() {
    let bytes = snapshot_bytes();
    let clean = Snapshot::from_bytes(bytes.clone()).unwrap();
    let mut cuts: Vec<usize> = vec![
        0,
        1,
        HEADER_LEN as usize - 1,
        HEADER_LEN as usize,
        bytes.len() - FOOTER_LEN as usize,
        bytes.len() - 1,
    ];
    for b in &clean.manifest().blocks {
        cuts.push(b.offset as usize);
        cuts.push((b.offset + b.len / 2) as usize);
    }
    drop(clean);
    for cut in cuts {
        let e = load_err(&bytes[..cut]);
        // Whatever check fires first, it must be one of the structural
        // variants — never a success and never a panic.
        assert!(
            matches!(
                e,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::BadVersion { .. }
            ),
            "cut at {cut}: got {e}"
        );
    }
}

#[test]
fn stale_format_version_is_rejected_with_bad_version() {
    // Author a structurally valid file claiming an old (and a future)
    // format version; the reader must refuse both before touching blocks.
    for version in [0u32, 2, u32::MAX] {
        let mut w = SnapshotWriter::with_version(version);
        w.add_block("payload", 1, &42u64.to_le_bytes()).unwrap();
        let bytes = w.finish().unwrap();
        match Snapshot::from_bytes(bytes) {
            Err(StoreError::BadVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_ne!(found, supported);
            }
            other => panic!(
                "version {version}: expected BadVersion, got {other:?}",
                other = other.map(|_| "Ok")
            ),
        }
    }
}

#[test]
fn no_unprotected_byte_anywhere_in_the_file() {
    // Flip one bit in every single byte of the image: each must be
    // detected by some validation layer. This proves the format has no
    // gap (padding, reserved words, unreferenced ranges included).
    let bytes = snapshot_bytes();
    for byte in 0..bytes.len() {
        let damaged = flipped(&bytes, byte, (byte % 8) as u8);
        assert!(
            Snapshot::from_bytes(damaged).is_err(),
            "bit flip at byte {byte}/{} went undetected",
            bytes.len()
        );
    }
}

/// A snapshot whose columns are all force-encoded, so the image carries
/// `:rle` / `:for` blocks instead of raw column words.
fn encoded_snapshot_bytes() -> Vec<u8> {
    use tabula::storage::{EncodingMode, Table};
    let t = example_dcm_table();
    let cols = (0..t.schema().fields().len())
        .map(|i| {
            let mut c = t.column(i).clone();
            c.encode_for_freeze(EncodingMode::Force);
            c
        })
        .collect();
    let t = Arc::new(Table::from_columns(t.schema().clone(), cols).unwrap());
    let fare = t.schema().index_of("fare").unwrap();
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .mode(MaterializationMode::Tabula)
            .build()
            .unwrap();
    cube.snapshot_bytes(42).unwrap()
}

#[test]
fn encoded_block_corruption_is_typed_and_never_a_wrong_answer() {
    let bytes = encoded_snapshot_bytes();
    let clean = Snapshot::from_bytes(bytes.clone()).unwrap();
    let enc_blocks: Vec<(String, u64, u64)> = clean
        .manifest()
        .blocks
        .iter()
        .filter(|b| b.name.ends_with(":rle") || b.name.ends_with(":for"))
        .map(|b| (b.name.clone(), b.offset, b.len))
        .collect();
    assert!(!enc_blocks.is_empty(), "force-encoded cube must persist encoded blocks");
    // The clean image restores: the encoded blocks are real and load.
    drop(clean);
    let (cube, _) = SamplingCube::from_snapshot_bytes(bytes.clone()).unwrap();
    assert!(cube.materialized_cells() > 0);

    for (name, offset, len) in enc_blocks {
        // Truncating inside an encoded payload is detected before any
        // column is built — a typed error, never a short column.
        for cut in [offset as usize, (offset + len / 2) as usize, (offset + len) as usize - 1] {
            let e = load_err(&bytes[..cut]);
            assert!(
                matches!(
                    e,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::BadVersion { .. }
                ),
                "{name} cut at {cut}: got {e}"
            );
        }
        // A bit flip inside the encoded payload is pinned to the block.
        let e = load_err(&flipped(&bytes, (offset + len / 2) as usize, 5));
        let want = format!("block:{name}");
        assert!(
            matches!(&e, StoreError::ChecksumMismatch { region, .. } if *region == want),
            "{name}: got {e}"
        );
    }
}

/// `bytes` re-authored through [`SnapshotWriter`] with block `name`
/// carrying `payload` instead: every checksum in the result is valid, so
/// only the cube loader's own checks stand between it and a served cube.
fn reauthored(bytes: &[u8], name: &str, payload: &[u8]) -> Vec<u8> {
    let snap = Snapshot::from_bytes(bytes.to_vec()).unwrap();
    let mut w = SnapshotWriter::new();
    w.set_epoch(snap.epoch());
    w.set_meta(snap.meta().to_string());
    for b in &snap.manifest().blocks {
        let body = if b.name == name { payload } else { snap.block(&b.name).unwrap().bytes() };
        w.add_block(&b.name, b.rows, body).unwrap();
    }
    w.finish().unwrap()
}

/// Lies a cube table can tell while every CRC passes, as
/// `(case, block to replace, its payload, block the error must name)`.
fn hostile_cube_tables(
    cube: &SamplingCube,
) -> Vec<(&'static str, &'static str, Vec<u8>, &'static str)> {
    use tabula::core::CubeKeys;
    use tabula::store::{encode_u32s, encode_u64s};
    let cards: Vec<usize> =
        cube.cubed_cols().iter().map(|&c| cube.table().cat(c).unwrap().cardinality()).collect();
    let n = cards.len();
    let ids = cube.cells().sample_ids();
    assert!(ids.len() >= 3, "need a few cells to shuffle");
    let mut bad_id = ids.to_vec();
    bad_id[ids.len() / 2] = cube.persisted_samples() as u32;
    let mut cases = vec![
        (
            "sample id past the sample count",
            "cube:sample_ids",
            encode_u32s(&bad_id),
            "cube:sample_ids",
        ),
        ("one sample id short", "cube:sample_ids", encode_u32s(&ids[1..]), KEYS),
    ];
    let alter = |f: &dyn Fn(&mut Vec<u64>)| {
        let CubeKeys::Packed(keys) = cube.cells().keys() else { unreachable!() };
        let mut keys = keys.clone();
        f(&mut keys);
        encode_u64s(&keys)
    };
    let alter_flat = |f: &dyn Fn(&mut Vec<u32>)| {
        let CubeKeys::Flat(words) = cube.cells().keys() else { unreachable!() };
        let mut words = words.clone();
        f(&mut words);
        encode_u32s(&words)
    };
    const KEYS: &str = "cube:keys";
    const FLAT: &str = "cube:flat";
    match cube.cells().space().layout() {
        Some(layout) => {
            // An attribute whose bit field has room past `cardinality`
            // (slot 0 is `*`, so codes occupy 1..=cardinality).
            let roomy = (0..n)
                .find(|&i| cards[i] + 1 < 1usize << layout.attr_bits(i))
                .expect("some attribute's field must have an unused value");
            assert!(layout.total_bits() < 64);
            cases.extend([
                ("two adjacent keys swapped", KEYS, alter(&|k| k.swap(1, 2)), KEYS),
                ("one key duplicated", KEYS, alter(&|k| k[2] = k[1]), KEYS),
                (
                    "a code past its attribute's cardinality",
                    KEYS,
                    alter(&|k| {
                        let mut fields = layout.decode(k[0]);
                        fields[roomy] = cards[roomy] as u32 + 1;
                        k[0] = layout.encode(&fields);
                    }),
                    KEYS,
                ),
                (
                    "a bit outside the key layout",
                    KEYS,
                    alter(&|k| *k.last_mut().unwrap() |= 1 << 63),
                    KEYS,
                ),
                ("one key short", KEYS, alter(&|k| k.truncate(k.len() - 1)), KEYS),
            ]);
        }
        None => {
            cases[1].3 = FLAT;
            cases.extend([
                (
                    "two adjacent rows swapped",
                    FLAT,
                    alter_flat(&|w| w[n..3 * n].rotate_left(n)),
                    FLAT,
                ),
                ("one row duplicated", FLAT, alter_flat(&|w| w.copy_within(n..2 * n, 2 * n)), FLAT),
                (
                    "a code past its attribute's cardinality",
                    FLAT,
                    alter_flat(&|w| w[0] = cards[0] as u32),
                    FLAT,
                ),
                (
                    "words that do not tile rows",
                    FLAT,
                    alter_flat(&|w| w.truncate(w.len() - 1)),
                    FLAT,
                ),
                ("one row short", FLAT, alter_flat(&|w| w.truncate(w.len() - n)), FLAT),
            ]);
        }
    }
    cases
}

#[test]
fn checksummed_but_hostile_cube_tables_are_typed_errors() {
    use tabula::core::CoreError;
    let dcm = SamplingCube::from_snapshot_bytes(snapshot_bytes()).unwrap().0;
    let wide = common::cube_over(&common::wide_table());
    for cube in [dcm, wide] {
        let bytes = cube.snapshot_bytes(42).unwrap();
        // Re-authoring alone changes nothing the loader can see.
        let same = reauthored(
            &bytes,
            "cube:sample_ids",
            &tabula::store::encode_u32s(cube.cells().sample_ids()),
        );
        assert_eq!(same, bytes);
        for (case, block, payload, named) in hostile_cube_tables(&cube) {
            let hostile = reauthored(&bytes, block, &payload);
            assert!(Snapshot::from_bytes(hostile.clone()).is_ok(), "{case}: checksums must pass");
            let want = format!("block:{named}");
            match SamplingCube::from_snapshot_bytes(hostile) {
                Err(CoreError::Store(e)) => assert!(
                    matches!(&*e, StoreError::BadBlock { region, .. } if *region == want),
                    "{case}: got {e}"
                ),
                Err(other) => panic!("{case}: expected a store error, got {other}"),
                Ok(_) => panic!("{case}: a hostile cube table loaded"),
            }
        }
    }
}
