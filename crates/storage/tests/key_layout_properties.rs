//! Property-based tests of bit-packed key encoding ([`KeyLayout`]): the
//! packed `u64` must round-trip every in-domain code tuple exactly —
//! including zero-width attributes (cardinality ≤ 1) and keys wider than
//! 32 bits in total — in lexicographic tuple order. (What a cube does with
//! such keys — star attributes out, tell a cell's cuboid — is
//! `tests/realrun_partition.rs`'s key-space property at the repo root.)

use proptest::prelude::*;
use tabula_storage::packed::KeyLayout;

/// One attribute: an exponent picking the cardinality's magnitude (0 →
/// cardinality 1, a zero-width attribute) and a raw seed that maps to an
/// in-domain code.
fn arb_attrs() -> impl Strategy<Value = Vec<(usize, u32)>> {
    let attr = (0u32..23, 0u64..u64::MAX).prop_map(|(exp, seed)| {
        let card = if exp == 0 {
            1usize
        } else {
            (1usize << (exp - 1)) + (seed % (1 << (exp - 1))) as usize + 1
        };
        let code = ((seed >> 32) % card as u64) as u32;
        (card, code)
    });
    proptest::collection::vec(attr, 1..7)
}

fn total_bits(cards: &[usize]) -> u32 {
    cards.iter().map(|&c| if c <= 1 { 0 } else { usize::BITS - (c - 1).leading_zeros() }).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every in-domain tuple, and the
    /// layout exists exactly when the packed width fits 64 bits.
    #[test]
    fn encode_decode_round_trips(attrs in arb_attrs()) {
        let cards: Vec<usize> = attrs.iter().map(|&(c, _)| c).collect();
        let codes: Vec<u32> = attrs.iter().map(|&(_, code)| code).collect();
        let bits = total_bits(&cards);
        match KeyLayout::from_cardinalities(&cards) {
            None => prop_assert!(bits > 64, "layout rejected a {bits}-bit key"),
            Some(layout) => {
                prop_assert!(bits <= 64);
                prop_assert!(layout.fits(&codes));
                let key = layout.encode(&codes);
                prop_assert_eq!(layout.decode(key), codes);
            }
        }
    }

    /// Packed-key order equals lexicographic tuple order (attribute 0 in
    /// the highest bits) — the invariant that lets the rollup sort `u64`s
    /// instead of tuples.
    #[test]
    fn packed_order_is_lexicographic(a in arb_attrs(), seed in 0u64..u64::MAX) {
        let cards: Vec<usize> = a.iter().map(|&(c, _)| c).collect();
        if let Some(layout) = KeyLayout::from_cardinalities(&cards) {
            let x: Vec<u32> = a.iter().map(|&(_, code)| code).collect();
            // Derive a second in-domain tuple from the extra seed.
            let y: Vec<u32> = cards
                .iter()
                .enumerate()
                .map(|(i, &c)| ((seed >> (i * 8)) % c as u64) as u32)
                .collect();
            let (kx, ky) = (layout.encode(&x), layout.encode(&y));
            prop_assert_eq!(kx.cmp(&ky), x.cmp(&y), "keys {:?} vs {:?}", x, y);
        }
    }
}
