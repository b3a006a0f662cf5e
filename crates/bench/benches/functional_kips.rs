//! Functional fast-forward throughput vs the detailed core — the number
//! that justifies sampled simulation. One iteration executes the same
//! fixed instruction budget of the protected omnetpp workload either
//! functionally (`FastForward`, warming caches/TLB/predictor without
//! pipeline modeling) or cycle-by-cycle (`Core`), so the median ratio in
//! the saved baseline is the fast-forward speedup directly; the sampling
//! design (DESIGN.md §15) requires it to stay ≥10×. Three more entries
//! price the checkpoint path: serializing a warm state, booting a
//! detailed core from it, and the whole `specmpk-sim --restore` path from
//! checkpoint text (`Json::parse` → `Checkpoint::from_json` →
//! `Core::from_checkpoint`).
//!
//! Save a baseline with
//! `cargo bench -p specmpk-bench --bench functional_kips -- --save-baseline main`
//! (merged into `benches/baselines/main.tsv`, which is committed).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use specmpk_ooo::{Checkpoint, Core, FastForward, SimConfig};
use specmpk_trace::Json;
use specmpk_workloads::standard_suite;

/// Instructions executed per benchmark iteration — matches `sim_kips` so
/// the `fast_forward` / `detailed` entries divide directly.
const BUDGET: u64 = 20_000;

fn functional_kips(c: &mut Criterion) {
    let workload = standard_suite()
        .into_iter()
        .find(|w| w.name().contains("520.omnetpp_r"))
        .expect("suite contains 520.omnetpp_r");
    let program = workload.build_protected();
    let mut group = c.benchmark_group("functional_kips");
    group.bench_function("fast_forward", |b| {
        b.iter(|| {
            let mut ff = FastForward::new(&SimConfig::default(), black_box(&program));
            assert!(ff.step_n(BUDGET).is_none());
            ff.executed()
        })
    });
    group.bench_function("detailed", |b| {
        b.iter(|| {
            let config = SimConfig { max_instructions: BUDGET, ..SimConfig::default() };
            let mut core = Core::new(config, black_box(&program));
            core.run().stats.retired
        })
    });
    // Checkpoint costs, amortized once per sampled window: serializing a
    // warm state to its byte format, and transplanting it into a core.
    let mut ff = FastForward::new(&SimConfig::default(), &program);
    assert!(ff.step_n(BUDGET).is_none());
    let cp = Checkpoint::capture(ff);
    group.bench_function("checkpoint_serialize", |b| {
        b.iter(|| black_box(&cp).to_json().dump().len())
    });
    group.bench_function("restore_boot", |b| {
        b.iter(|| {
            let core = Core::from_checkpoint(SimConfig::default(), &program, black_box(&cp));
            drop(core);
        })
    });
    // What `--restore` pays per file: `restore_boot` plus parsing and
    // validating the text.
    let text = cp.to_json().dump();
    group.bench_function("restore_from_text", |b| {
        b.iter(|| {
            let json = Json::parse(black_box(&text)).expect("checkpoint text parses");
            let cp = Checkpoint::from_json(&SimConfig::default(), &json).expect("valid checkpoint");
            drop(Core::from_checkpoint(SimConfig::default(), &program, &cp));
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .baseline_dir("benches/baselines")
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = config();
    targets = functional_kips
}
criterion_main!(benches);
