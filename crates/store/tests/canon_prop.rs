//! Property tests for the canonical encoding: hashing is invariant
//! under object-key reordering, encode→decode round-trips, and
//! non-finite floats normalize deterministically.

use proptest::prelude::*;
use serde::Value;
use tia_store::{canonical_bytes, canonical_hash, from_canonical_bytes};

/// A small random value tree. Depth is bounded by construction.
fn arb_value() -> impl Strategy<Value = Value> {
    (any::<u64>(), any::<u64>()).prop_map(|(seed, shape)| build_value(seed, shape % 4, 2))
}

/// Deterministically grows a value tree from two seeds; `depth`
/// bounds recursion.
fn build_value(seed: u64, kind: u64, depth: u32) -> Value {
    let mix = |s: u64, salt: u64| {
        s.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .rotate_left(17)
    };
    match (kind + depth as u64) % 7 {
        0 => Value::Null,
        1 => Value::Bool(seed.is_multiple_of(2)),
        2 => Value::UInt(seed),
        3 => Value::Int((seed as i64).wrapping_sub(i64::MAX / 2)),
        4 => Value::Float(f64::from_bits(seed).fract()),
        5 if depth == 0 => Value::String(format!("s{}", seed % 1000)),
        5 => Value::Array(
            (0..(seed % 4))
                .map(|i| build_value(mix(seed, i), i, depth - 1))
                .collect(),
        ),
        _ if depth == 0 => Value::UInt(seed % 9),
        _ => Value::Object(
            (0..(seed % 5))
                .map(|i| (format!("k{i}"), build_value(mix(seed, i + 7), i, depth - 1)))
                .collect(),
        ),
    }
}

/// Recursively reverses the entry order of every object in the tree.
fn permute_objects(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(permute_objects).collect()),
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), permute_objects(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #[test]
    fn hash_is_stable_under_object_key_reordering(value in arb_value()) {
        let permuted = permute_objects(&value);
        let a = canonical_hash(7, &value).expect("generated keys are unique");
        let b = canonical_hash(7, &permuted).expect("permutation keeps keys unique");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn encode_decode_roundtrip_is_stable(value in arb_value()) {
        let bytes = canonical_bytes(&value).expect("encodable");
        let decoded = from_canonical_bytes(&bytes).expect("decodable");
        // The decoded value is in canonical form; re-encoding it must
        // reproduce the same bytes and the same hash.
        let again = canonical_bytes(&decoded).expect("canonical form re-encodes");
        prop_assert_eq!(&bytes, &again);
        prop_assert_eq!(
            canonical_hash(1, &value).expect("hashable"),
            canonical_hash(1, &decoded).expect("hashable")
        );
    }

    #[test]
    fn float_bit_patterns_normalize_deterministically(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        let one = canonical_bytes(&Value::Float(f)).expect("floats encode");
        let two = canonical_bytes(&Value::Float(f)).expect("floats encode");
        prop_assert_eq!(&one, &two);
        if f.is_nan() {
            // Every NaN payload collapses to the one canonical NaN.
            let canonical = canonical_bytes(&Value::Float(f64::NAN)).expect("encodes");
            prop_assert_eq!(&one, &canonical);
        }
        if f == 0.0 {
            let zero = canonical_bytes(&Value::Float(0.0)).expect("encodes");
            prop_assert_eq!(&one, &zero, "-0.0 normalizes to +0.0");
        }
        // Decoding gives back the normalized bit pattern exactly.
        let decoded = from_canonical_bytes(&one).expect("decodes");
        let again = canonical_bytes(&decoded).expect("re-encodes");
        prop_assert_eq!(&one, &again);
    }
}
