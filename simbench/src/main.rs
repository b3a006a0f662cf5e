//! `simbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! simbench --workload wrpkru_dense|mem_bound|sampled|observed
//!          [--seed N] [--seconds S] [--trace 0|1] [--inject-mismatch]
//! ```

use std::process::ExitCode;

use specmpk_simbench::bench::{self, Kind, Options};
use specmpk_simbench::summary::summarize;
use specmpk_simbench::{host, readings, result_line, table};

const USAGE: &str = "usage: simbench --workload wrpkru_dense|mem_bound|sampled|observed \
                     [--seed N] [--seconds S] [--trace 0|1] [--inject-mismatch]";

fn parse() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::WrpkruDense,
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject_mismatch: false,
        work_dir: host::repo_root().join(".simbench"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--inject-mismatch" => opts.inject_mismatch = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    opts.kind = kind.ok_or(USAGE)?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // One process, one worker: sampled_run's windows run in order here,
    // and the simulator's environment switches stay off.
    std::env::set_var("SPECMPK_JOBS", "1");
    for var in ["SPECMPK_PROFILE", "SPECMPK_PROGRESS", "SPECMPK_GUEST_PROFILE"] {
        std::env::remove_var(var);
    }
    let outcome = match bench::run(&opts) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("simbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut rec = outcome.rec;
    let readings = readings(&mut rec, opts.trace);
    let rec = &rec;
    for failure in rec.failures() {
        eprintln!("simbench: FAILED {failure}");
    }
    println!(
        "# simbench workload={} seed={} seconds={} trace={}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# revision: {}", host::revision(&host::repo_root()));
    println!("# host: nproc={} cpu=\"{}\"", host::nproc(), host::cpu_model());
    println!("# passes: {}; checked operations: {}", outcome.passes, rec.attempted());
    let ref_ms = summarize(rec.samples("host.ref_ms"));
    println!(
        "# host.ref_ms: median {:.4} over {} kernel timings; detailed_kips, ff_kips and pass_s \
         are scaled to {} ms",
        ref_ms.median,
        ref_ms.n,
        host::REF_NOMINAL_MS
    );
    println!("# model: unvalidated - no reference results exist, so no error figure is given");
    println!("# unmeasured layers: specmpk-par (jobs=1); attacks, report, isa::parse (on no measured path)");
    print!("{}", table(&readings));
    println!("{}", result_line(rec, &readings));
    ExitCode::SUCCESS
}
