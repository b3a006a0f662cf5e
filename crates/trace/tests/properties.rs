//! Property-based tests for the log2-bucketed histogram and the JSON
//! string reader/writer.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_trace::histogram::{bucket_bounds, bucket_index, NUM_BUCKETS};
use specmpk_trace::{Histogram, Json};

fn build(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Percentiles are ordered and bounded by the observed extremes.
    #[test]
    fn percentiles_are_ordered(values in prop::collection::vec(0u64..1 << 48, 1..200)) {
        let h = build(&values);
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= h.max() as f64, "p99 {p99} > max {}", h.max());
        prop_assert!(h.min() as f64 <= p50, "min {} > p50 {p50}", h.min());
    }

    /// Merging a partition of the samples conserves count, sum, extremes,
    /// and every bucket — i.e. merge is exactly set union.
    #[test]
    fn merge_conserves_count_and_sum(
        values in prop::collection::vec(0u64..1 << 48, 1..200),
        split in 0usize..200,
    ) {
        let cut = split.min(values.len());
        let mut merged = build(&values[..cut]);
        merged.merge(&build(&values[cut..]));
        let whole = build(&values);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(merged.bucket_count(i), whole.bucket_count(i), "bucket {}", i);
        }
        // Percentile ordering survives the merge too.
        prop_assert!(merged.p50() <= merged.p90() && merged.p90() <= merged.p99());
    }

    /// Every value lands in the bucket whose bounds contain it.
    #[test]
    fn values_land_inside_their_bucket(v in any::<u64>()) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
    }

    /// Snapshot diffs recover the interval's samples exactly (count, sum,
    /// buckets), mirroring what per-interval sampling serializes.
    #[test]
    fn diff_is_exact_on_counts(
        first in prop::collection::vec(0u64..1 << 32, 0..100),
        second in prop::collection::vec(0u64..1 << 32, 0..100),
    ) {
        let snap = build(&first);
        let mut total = snap.clone();
        for &v in &second {
            total.record(v);
        }
        let d = total.diff(&snap);
        let expect = build(&second);
        prop_assert_eq!(d.count(), expect.count());
        prop_assert_eq!(d.sum(), expect.sum());
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(d.bucket_count(i), expect.bucket_count(i), "bucket {}", i);
        }
    }

    /// The JSON summary round-trips through the crate's own parser.
    #[test]
    fn summary_round_trips(values in prop::collection::vec(0u64..1 << 48, 0..50)) {
        let h = build(&values);
        let parsed = specmpk_trace::Json::parse(&h.to_json().dump()).expect("valid JSON");
        prop_assert_eq!(parsed.get("count").unwrap().as_u64(), Some(h.count()));
        prop_assert_eq!(parsed.get("sum").unwrap().as_u64(), Some(h.sum()));
        prop_assert_eq!(parsed.get("p90").unwrap().as_f64(), Some(h.p90()));
    }
}

/// One character, biased towards the ones JSON strings treat specially:
/// quotes, backslashes, control characters, and multi-byte UTF-8 (two-,
/// three- and four-byte sequences, up to the last scalar value).
fn arb_json_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::sample::select(vec![
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'é',
            'π',
            '→',
            '\u{FFFF}',
            '😀',
            '\u{10FFFF}',
            'u',
            ' ',
        ]),
        (0x20u32..0x7F).prop_map(|u| char::from_u32(u).unwrap()),
        (0u32..0x11_0000).prop_map(|u| char::from_u32(u).unwrap_or('\u{FFFD}')),
    ]
}

fn arb_json_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_json_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
}

/// Writes `s` as a JSON string literal, spelling character `i` as a
/// `\uXXXX` escape (a surrogate pair above U+FFFF) when bit `i % 64` of
/// `escape_mask` is set, and as the writer would otherwise.
fn encode_mixed(s: &str, escape_mask: u64) -> String {
    let mut out = String::from("\"");
    for (i, c) in s.chars().enumerate() {
        if escape_mask >> (i % 64) & 1 == 1 {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        } else {
            let one = Json::Str(c.to_string()).dump_compact();
            out.push_str(&one[1..one.len() - 1]);
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any string round-trips exactly through both writers, as a value and
    /// as an object key.
    #[test]
    fn json_strings_round_trip(s in arb_json_string()) {
        let value = Json::Str(s.clone());
        prop_assert_eq!(Json::parse(&value.dump()).unwrap(), value.clone());
        prop_assert_eq!(Json::parse(&value.dump_compact()).unwrap(), value.clone());
        let object = Json::object().with(&s, value);
        prop_assert_eq!(Json::parse(&object.dump()).unwrap(), object.clone());
        prop_assert_eq!(Json::parse(&object.dump_compact()).unwrap(), object);
    }

    /// `\uXXXX` escapes (surrogate pairs included) decode to the same
    /// string wherever they sit among raw multi-byte characters.
    #[test]
    fn json_escapes_mix_with_multibyte_text(s in arb_json_string(), mask in any::<u64>()) {
        let parsed = Json::parse(&encode_mixed(&s, mask)).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// Every truncation of a string document is rejected as unterminated
    /// or with a bad escape, never accepted and never a panic.
    #[test]
    fn truncated_json_strings_are_errors(s in arb_json_string(), mask in any::<u64>()) {
        let doc = encode_mixed(&s, mask);
        for (cut, _) in doc.char_indices().skip(1) {
            prop_assert!(Json::parse(&doc[..cut]).is_err(), "accepted {:?}", &doc[..cut]);
        }
    }
}
