//! Property tests: every block encoder round-trips **bit-identically**
//! through encode → checksum → decode.
//!
//! Each case goes through the full production pipeline — payloads are
//! written with [`SnapshotWriter`] (which checksums every block, the
//! manifest, and the whole file) and read back through
//! [`Snapshot::from_bytes`] (which verifies all of it) — so these
//! properties cover the writer, the CRCs, and the zero-copy typed views
//! in one pass. Floats are compared by bit pattern: NaN payloads and
//! signed zeros must survive unchanged.

use proptest::prelude::*;
use tabula_storage::{ColumnBuf, Dictionary, Point};
use tabula_store::{
    decode_dict_strings, encode_dict, rebuild_dict, Snapshot, SnapshotWriter, Word,
};

/// Round-trip a single payload through writer → verified reader.
fn round_trip<T: Word>(payload: &[T], rows: u64) -> Snapshot {
    let mut w = SnapshotWriter::new(Vec::new());
    w.add_words("b", rows, payload).unwrap();
    Snapshot::from_bytes(w.finish().unwrap()).unwrap()
}

/// f64s that hit the hard cases: NaNs with arbitrary payloads, ±0.0,
/// ±∞, subnormals, and plain garbage bit patterns.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|s| match s % 8 {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        // NaN with a nonzero payload — must survive bit-for-bit.
        5 => f64::from_bits(0x7FF8_0000_0000_0000 | (s >> 12)),
        // Subnormal.
        6 => f64::from_bits(s & 0x000F_FFFF_FFFF_FFFF),
        _ => f64::from_bits(s),
    })
}

/// Strings over an alphabet with multi-byte UTF-8, empties included.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u64..u64::MAX, 0usize..8), 0..4).prop_map(|parts| {
        const ALPHABET: [&str; 8] = ["a", "B", "0", " ", "é", "漢", "🚕", "\u{0}"];
        parts.iter().map(|&(s, i)| ALPHABET[(s as usize ^ i) % ALPHABET.len()]).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn i64_blocks_round_trip(values in proptest::collection::vec(
        (0u64..u64::MAX).prop_map(|s| s as i64), 0..200)) {
        let snap = round_trip(&values, values.len() as u64);
        prop_assert_eq!(&snap.block("b").unwrap().shared_i64s().unwrap()[..], &values[..]);
    }

    #[test]
    fn u64_blocks_round_trip(values in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        let snap = round_trip(&values, values.len() as u64);
        prop_assert_eq!(snap.block("b").unwrap().u64s().unwrap(), &values[..]);
    }

    #[test]
    fn u32_blocks_round_trip(values in proptest::collection::vec(0u32..u32::MAX, 0..200)) {
        let snap = round_trip(&values, values.len() as u64);
        prop_assert_eq!(snap.block("b").unwrap().u32s().unwrap(), &values[..]);
    }

    #[test]
    fn f64_blocks_round_trip_bit_identically(
        values in proptest::collection::vec(arb_f64(), 0..200)) {
        let snap = round_trip(&values, values.len() as u64);
        let back = snap.block("b").unwrap().shared_f64s().unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(back.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn point_blocks_round_trip_bit_identically(
        coords in proptest::collection::vec((arb_f64(), arb_f64()), 0..100)) {
        let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let snap = round_trip(&points, points.len() as u64);
        let back = snap.block("b").unwrap().shared_points().unwrap();
        prop_assert_eq!(back.len(), points.len());
        for (a, b) in points.iter().zip(back.iter()) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn dictionary_blocks_round_trip(raw in proptest::collection::vec(arb_string(), 0..60)) {
        // Build a dictionary the production way: first-seen dense codes.
        let mut dict = Dictionary::new();
        let codes: Vec<u32> = raw.iter().map(|s| dict.encode(s)).collect();
        let entries: Vec<String> = dict.iter().map(|(_, s)| s.to_string()).collect();

        let payload = encode_dict(&dict);
        let snap = round_trip(&payload, dict.len() as u64);
        let view = snap.block("b").unwrap();

        // Strings come back in code order…
        let strings = view.dict_strings().unwrap();
        prop_assert_eq!(&strings, &entries);
        prop_assert_eq!(decode_dict_strings("block:b", view.bytes()).unwrap(), entries);
        // …and the rebuilt dictionary reproduces the exact code mapping.
        let rebuilt = rebuild_dict("block:b", &strings).unwrap();
        prop_assert_eq!(rebuilt.len(), dict.len());
        for (s, &code) in raw.iter().zip(&codes) {
            prop_assert_eq!(rebuilt.lookup(s), Some(code));
        }
    }

    #[test]
    fn str_column_codes_round_trip(raw in proptest::collection::vec(arb_string(), 0..60)) {
        let mut dict = Dictionary::new();
        let codes: Vec<u32> = raw.iter().map(|s| dict.encode(s)).collect();
        let mut w = SnapshotWriter::new(Vec::new());
        w.add_column_buf("codes", &ColumnBuf::from(codes.clone())).unwrap();
        w.add_block("dict", 0, &encode_dict(&dict)).unwrap();
        let snap = Snapshot::from_bytes(w.finish().unwrap()).unwrap();
        // Plain (owned) codes serialize as a raw-words block: no suffix.
        prop_assert_eq!(snap.manifest().blocks[0].name.as_str(), "codes");
        prop_assert_eq!(snap.block("codes").unwrap().u32s().unwrap(), &codes[..]);
        let back = snap.block("dict").unwrap().dict().unwrap();
        for (s, &code) in raw.iter().zip(&codes) {
            prop_assert_eq!(back.lookup(s), Some(code));
            prop_assert_eq!(back.decode(code), s.as_str());
        }
    }
}
