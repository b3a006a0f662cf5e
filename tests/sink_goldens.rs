//! Byte-identity goldens for the JSONL sinks: the micro-event journal and
//! the speculative-access ledger, teed from one run, must reproduce the
//! committed `tests/goldens/*.jsonl` files exactly. The files were
//! written when both sinks still built a `Json` tree per record, so they
//! pin the line format across changes to how records are stored and
//! encoded. Two runs cover every journal event kind and both ledger
//! record kinds: omnetpp under specmpk (WRPKRU-dense, with deferred
//! accesses and replay bursts) and Spectre-V1 under nonsecure (squashed
//! wrong-path accesses with surviving residue).

use specmpk::attacks::spectre_v1;
use specmpk::core_model::WrpkruPolicy;
use specmpk::isa::Program;
use specmpk::ooo::{Core, SimConfig};
use specmpk::trace::{Journal, Json, LeakObserver, Tee};
use specmpk::workloads::standard_suite;

/// Runs `program` with both JSONL sinks attached; returns (journal, ledger).
fn sink_text(config: SimConfig, program: &Program) -> (String, String) {
    let sinks = Tee::new(Journal::default(), LeakObserver::default());
    let mut core = Core::with_sink(config, program, sinks);
    core.run();
    let sinks = core.into_sink();
    (sinks.a.to_jsonl(), sinks.b.to_jsonl())
}

fn omnetpp_specmpk() -> (String, String) {
    let workload = standard_suite()
        .into_iter()
        .find(|w| w.name().contains("omnetpp"))
        .expect("the suite has an omnetpp workload");
    let mut config = SimConfig::with_policy(WrpkruPolicy::SpecMpk);
    config.max_instructions = 3_000;
    sink_text(config, &workload.build_protected())
}

fn spectre_v1_nonsecure() -> (String, String) {
    let attack = spectre_v1(101, 72);
    sink_text(SimConfig::with_policy(WrpkruPolicy::NonSecureSpec), attack.program())
}

/// Every line must be canonical compact JSON: parsing it and dumping the
/// tree again gives the same bytes.
fn assert_canonical(text: &str) {
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(doc.dump_compact(), line);
    }
}

#[test]
fn omnetpp_specmpk_sinks_match_goldens() {
    let (journal, ledger) = omnetpp_specmpk();
    assert_eq!(journal, include_str!("goldens/omnetpp_specmpk.journal.jsonl"));
    assert_eq!(ledger, include_str!("goldens/omnetpp_specmpk.ledger.jsonl"));
    assert_canonical(&journal);
    assert_canonical(&ledger);
}

#[test]
fn spectre_v1_nonsecure_sinks_match_goldens() {
    let (journal, ledger) = spectre_v1_nonsecure();
    assert_eq!(journal, include_str!("goldens/spectre_v1_nonsecure.journal.jsonl"));
    assert_eq!(ledger, include_str!("goldens/spectre_v1_nonsecure.ledger.jsonl"));
    assert!(journal.contains("\"event\":\"residue\""), "the wrong path leaves residue");
    assert!(ledger.contains("\"record\":\"squash\""), "the ledger records squash batches");
    assert_canonical(&journal);
    assert_canonical(&ledger);
}
