//! The metric catalogue is well formed and `BENCHMARK.json` agrees with it.

use std::collections::HashSet;

use specmpk_simbench::bench::Kind;
use specmpk_simbench::metrics::{lookup, valid_name, valid_unit, Better, END_TO_END, PER_LAYER};
use specmpk_trace::Json;

#[test]
fn every_metric_has_a_valid_unique_name_a_unit_and_a_direction() {
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "{}: invalid unit {:?}", m.name, m.unit);
        assert!(matches!(m.better, Better::Lower | Better::Higher));
        assert!(seen.insert(m.name), "{} is listed twice", m.name);
        assert_eq!(lookup(m.name), Some(m));
    }
    let setup = lookup("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

#[test]
fn name_and_unit_rules_reject_bad_spellings() {
    assert!(!valid_name(""));
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit(""));
    assert!(!valid_unit("kinstr per s"));
    assert!(valid_unit("kinstr/s"));
}

/// `BENCHMARK.json` at the repository root.
fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn rows<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is a list"))
}

#[test]
fn benchmark_json_lists_the_catalogue_and_the_workloads() {
    let json = manifest();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = rows(&json, key);
        assert_eq!(listed.len(), table.len(), "{key}: count differs from the catalogue");
        for (row, m) in listed.iter().zip(table) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(row.get("better").and_then(Json::as_str), Some(m.better.as_str()));
            if key == "end_to_end" {
                let bound = row.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            }
        }
    }
    let names: Vec<&str> =
        rows(&json, "workloads").iter().filter_map(|w| w.get("name")?.as_str()).collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, kinds);
}
