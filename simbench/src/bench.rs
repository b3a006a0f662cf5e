//! The four workloads and the passes that measure them.
//!
//! A run builds its programs (timed as `setup_s`), computes untimed
//! reference results with the in-order interpreter, then repeats *passes*
//! over the workload's operations until the time budget is spent. Every
//! pass checks its outputs; a mismatch counts as a failed operation.

use std::time::Instant;

use specmpk_core::{registry, PolicyRef};
use specmpk_experiments::sampled_run;
use specmpk_isa::{Program, Reg, NUM_REGS};
use specmpk_ooo::interp::{Interp, InterpExit};
use specmpk_ooo::{
    BranchPredictor, Checkpoint, Core, ExitReason, FastForward, SimConfig, SimResult, SimStats,
};
use specmpk_trace::{GuestProfile, Journal, Json, LeakObserver, Profiler, Tee};
use specmpk_workloads::{standard_profiles, Workload};

use crate::host::{RefKernel, Work, REF_NOMINAL_MS};
use crate::record::Recorder;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// omnetpp and gcc (shadow stack) under all three policies.
    WrpkruDense,
    /// 429.mcf (CPI) and 505.mcf_r (shadow stack) under specmpk and
    /// serialized.
    MemBound,
    /// perlbench through fast-forward, checkpoint file, restore and
    /// `sampled_run`.
    Sampled,
    /// omnetpp under specmpk with the journal and leak observer attached.
    Observed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::WrpkruDense, Kind::MemBound, Kind::Sampled, Kind::Observed];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::WrpkruDense => "wrpkru_dense",
            Kind::MemBound => "mem_bound",
            Kind::Sampled => "sampled",
            Kind::Observed => "observed",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Suite programs this workload runs.
    fn programs(self) -> &'static [&'static str] {
        match self {
            Kind::WrpkruDense => &["520.omnetpp_r", "502.gcc_r"],
            Kind::MemBound => &["429.mcf", "505.mcf_r"],
            Kind::Sampled => &["500.perlbench_r"],
            Kind::Observed => &["520.omnetpp_r"],
        }
    }

    /// Policies of the detailed cells; every workload has specmpk and
    /// serialized, for `sim_cpi` and `specmpk_speedup`.
    fn policies(self) -> Vec<PolicyRef> {
        match self {
            Kind::WrpkruDense => registry::all().to_vec(),
            _ => vec![PolicyRef::SPEC_MPK, PolicyRef::SERIALIZED],
        }
    }
}

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Picks the instruction every cell starts from ([`start_offset`]);
    /// 0 starts at program entry, as the suite's experiments do.
    pub seed: u64,
    /// Seconds of passes to measure (at least [`MIN_PASSES`] are run).
    pub seconds: f64,
    /// Record spans and stage profiles (the per-layer run).
    pub trace: bool,
    /// Corrupt one reference result so its checks fail (tests the
    /// failure accounting).
    pub inject_mismatch: bool,
    /// Directory for the checkpoint file and the span dump.
    pub work_dir: std::path::PathBuf,
}

/// Minimum passes per run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 2;
/// Set-ups before every pass, besides the one whose programs the run
/// uses; `setup_s` is the median of them all.
const SETUPS_PER_PASS: usize = 3;

/// Instruction budgets of one run.
#[derive(Debug, Clone, Copy)]
struct Budgets {
    /// Retired instructions per detailed cell.
    cell: u64,
    /// Instructions per fast-forward of a whole program
    /// (`wrpkru_dense`, `mem_bound`, `observed`).
    ff: u64,
    /// Fast-forward chunk (one `step_n` call).
    ff_chunk: u64,
    /// Fast-forward chunks before the checkpoint (`sampled`).
    ff_chunks: u64,
    /// Detailed window after the restore (`sampled`).
    window: u64,
    /// `sampled_run` windows and their length.
    sampled_windows: usize,
    sampled_window: u64,
}

/// The run's budgets: every invocation measures the same work.
const BUDGETS: Budgets = Budgets {
    cell: 200_000,
    ff: 2_000_000,
    ff_chunk: 1_000_000,
    ff_chunks: 4,
    window: 100_000,
    sampled_windows: 4,
    sampled_window: 25_000,
};

impl Budgets {
    fn ff_total(self) -> u64 {
        self.ff_chunk * self.ff_chunks
    }
}

/// The architectural outcome the detailed core must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reference {
    regs: [u64; NUM_REGS],
    pkru: u32,
    /// Instructions executed since program entry.
    executed: u64,
    halted: bool,
}

impl Reference {
    fn of(interp: &Interp<'_>, exit: &InterpExit) -> Reference {
        let state = interp.state();
        Reference {
            regs: state.regs,
            pkru: state.pkru.bits(),
            executed: interp.executed(),
            halted: *exit == InterpExit::Halted,
        }
    }

    /// Whether a detailed run booted at instruction `start` ended here.
    fn matches_core(&self, start: u64, r: &SimResult) -> bool {
        let exit_ok = match r.exit {
            ExitReason::InstrLimit => !self.halted,
            ExitReason::Halted => self.halted,
            _ => false,
        };
        exit_ok
            && start + r.stats.retired == self.executed
            && r.pkru().bits() == self.pkru
            && Reg::all().all(|reg| r.reg(reg) == self.regs[reg.index()])
    }

    fn matches_ff(&self, ff: &FastForward<'_>) -> bool {
        ff.executed() == self.executed
            && ff.state().pkru.bits() == self.pkru
            && ff.state().regs == self.regs
    }
}

/// A program of the workload, the state its cells start from, and the
/// interpreter's results they are checked against.
struct Prog {
    name: &'static str,
    program: Program,
    /// The seed's start point: the interpreter's state after
    /// [`start_offset`] instructions, with cold caches, TLB and predictor.
    start: Checkpoint,
    /// After one detailed cell's budget.
    cell_ref: Reference,
    /// After a fast-forward over [`Budgets::ff`].
    ff_ref: Reference,
    /// After the fast-forward chunks plus the window (`sampled` only).
    window_ref: Option<Reference>,
}

/// Instructions between two start points a seed can pick.
const OFFSET_STEP: u64 = 40_000;
/// Start points a seed can pick.
const OFFSET_SLOTS: u64 = 16;

/// Where seed `seed` starts every cell: 0 (program entry) for seed 0,
/// otherwise one of [`OFFSET_SLOTS`] points [`OFFSET_STEP`] apart. All lie
/// in the programs' first phase, so a seed changes the instructions
/// simulated but not the workload's character.
#[must_use]
pub fn start_offset(seed: u64) -> u64 {
    if seed == 0 {
        return 0;
    }
    // SplitMix64 finalizer: neighbouring seeds pick unrelated slots.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (1 + z % (OFFSET_SLOTS - 1)) * OFFSET_STEP
}

impl Prog {
    /// Positions the interpreter at the seed's start point and records
    /// the references (untimed: this is input preparation, not set-up).
    fn new(
        name: &'static str,
        program: Program,
        offset: u64,
        budgets: Budgets,
        kind: Kind,
    ) -> Prog {
        let config = SimConfig::default();
        let mut interp = Interp::new(&program, config.initial_pkru);
        let exit = interp.step_n(offset);
        assert!(exit == InterpExit::StepLimit, "{name} ends before its start point");
        let start = Checkpoint {
            arch: interp.state().clone(),
            executed: offset,
            mem: interp.memory().clone(),
            predictor: BranchPredictor::new(config.predictor),
            last_fetch_line: None,
        };
        let window = budgets.ff_total() + budgets.window;
        let mut targets = vec![budgets.cell, budgets.ff];
        if kind == Kind::Sampled {
            targets.push(window);
        }
        targets.sort_unstable();
        let mut refs = Vec::new();
        for target in targets {
            let exit = interp.step_n(offset + target - interp.executed());
            refs.push((target, Reference::of(&interp, &exit)));
        }
        let find = |t: u64| refs.iter().find(|(x, _)| *x == t).map(|(_, r)| r.clone());
        Prog {
            name,
            start,
            cell_ref: find(budgets.cell).expect("every program has a cell reference"),
            ff_ref: find(budgets.ff).expect("every program has a fast-forward reference"),
            window_ref: find(window),
            program,
        }
    }

    /// A fast-forward engine at the start point.
    fn fast_forward(&self) -> FastForward<'_> {
        self.start.resume_fast_forward(&self.program)
    }
}

/// The simulated statistics with the host- and guest-profile sections
/// removed, serialized: two runs simulated the same thing exactly when
/// these strings are equal.
fn sim_fingerprint(stats: &SimStats) -> String {
    let mut s = stats.clone();
    s.host = Profiler::default();
    s.guest = GuestProfile::default();
    s.to_json().dump()
}

/// Builds suite program `name` (protected, with its suite profile seed).
fn build(name: &str) -> Program {
    let profile = standard_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .expect("workload programs are suite profiles");
    Workload::from_profile(profile).build_protected()
}

fn cell_config(policy: PolicyRef, budget: u64) -> SimConfig {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = budget;
    config
}

/// One detailed cell of a pass: program index, policy, simulated
/// statistics. The first pass's cells give `sim_cpi`, `specmpk_speedup`
/// and the per-layer counts.
type Cell = (usize, PolicyRef, SimStats);

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The collector, with samples, values, spans and the check tally.
    pub rec: Recorder,
    /// Passes run.
    pub passes: usize,
}

/// One operation's host time, or a sum of them.
#[derive(Debug, Default, Clone, Copy)]
struct Timing {
    /// Wall seconds.
    secs: f64,
    /// Wall seconds scaled to the reference host (see [`Run::measure`]).
    scaled_secs: f64,
}

impl Timing {
    fn add(&mut self, t: Timing) {
        self.secs += t.secs;
        self.scaled_secs += t.scaled_secs;
    }
}

/// Instructions executed by one kind of engine in one pass, with their
/// host time.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    instr: u64,
    time: Timing,
}

impl Rate {
    fn add(&mut self, instr: u64, t: Timing) {
        self.instr += instr;
        self.time.add(t);
    }

    /// The pass's scaled and raw rates in kinstr/s, if it ran any.
    fn kips(self) -> Option<(f64, f64)> {
        let per_sec = |secs: f64| self.instr as f64 / secs / 1e3;
        (self.instr > 0).then(|| (per_sec(self.time.scaled_secs), per_sec(self.time.secs)))
    }

    /// Samples the pass's rate: scaled as `name`, raw as `raw_name`.
    fn sample(self, rec: &mut Recorder, name: &'static str, raw_name: &'static str) {
        if let Some((scaled, raw)) = self.kips() {
            rec.sample(name, scaled);
            rec.sample(raw_name, raw);
        }
    }
}

/// The state of one run: the collector, the reference kernel, the
/// budgets, and this pass's host-time totals.
struct Run {
    rec: Recorder,
    kernel: RefKernel,
    budgets: Budgets,
    work_dir: std::path::PathBuf,
    detailed: Rate,
    ff: Rate,
    /// This pass's measured operations, summed.
    pass_ops: Timing,
    /// This pass's `Simulate` kernel timings, in ms.
    pass_kernel_ms: Vec<f64>,
    /// Wall seconds this pass spent outside its operations: kernel
    /// timings and [`Run::untimed`] work.
    pass_untimed_secs: f64,
    /// The checkpoint file whose parse -> dump round trip was checked
    /// (`sampled`).
    round_tripped: Option<String>,
}

impl Run {
    /// Times `f` between two timings of the reference kernel half that
    /// matches `work`. Returns its result and its wall seconds, raw and
    /// scaled to the reference host: `secs × REF_NOMINAL_MS / kernel_ms`,
    /// where `kernel_ms` is the mean of the two kernel timings.
    fn measure<R>(&mut self, work: Work, f: impl FnOnce(&mut Recorder) -> R) -> (R, Timing) {
        let before = self.kernel.time_ms(work);
        let t = Instant::now();
        let out = f(&mut self.rec);
        let secs = t.elapsed().as_secs_f64();
        let after = self.kernel.time_ms(work);
        let name = match work {
            Work::Simulate => "host.ref_ms",
            Work::Scan => "host.scan_ref_ms",
        };
        for ms in [before, after] {
            self.rec.sample(name, ms);
            if work == Work::Simulate {
                self.pass_kernel_ms.push(ms);
            }
        }
        self.pass_untimed_secs += (before + after) * 1e-3;
        let timing = Timing { secs, scaled_secs: secs * REF_NOMINAL_MS / ((before + after) / 2.0) };
        self.pass_ops.add(timing);
        (out, timing)
    }

    /// Runs `f` without counting its time in the pass.
    fn untimed<R>(&mut self, f: impl FnOnce(&mut Run) -> R) -> R {
        let t = Instant::now();
        let out = f(self);
        self.pass_untimed_secs += t.elapsed().as_secs_f64();
        out
    }

    /// Starts a pass: clears its totals.
    fn begin_pass(&mut self) {
        (self.detailed, self.ff) = (Rate::default(), Rate::default());
        self.pass_ops = Timing::default();
        self.pass_kernel_ms.clear();
        self.pass_untimed_secs = 0.0;
    }

    /// A pass that took `wall` seconds, untimed work included: its
    /// seconds without it, raw and scaled. Measured operations count
    /// with their own scaling, the rest (checks, serialization) with the
    /// pass's median `Simulate` kernel timing.
    fn pass_timing(&self, wall: f64) -> Timing {
        let secs = wall - self.pass_untimed_secs;
        let rest = secs - self.pass_ops.secs;
        let kernel_ms = crate::summary::median(&self.pass_kernel_ms);
        let scaled_secs = self.pass_ops.scaled_secs + rest * REF_NOMINAL_MS / kernel_ms;
        Timing { secs, scaled_secs }
    }
}

/// Runs one workload under `opts`.
///
/// # Errors
///
/// Returns a message if the work directory cannot be used.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let names = opts.kind.programs();
    let policies = opts.kind.policies();
    let mut run = Run {
        rec: Recorder::new(opts.trace),
        kernel: RefKernel::new(),
        budgets: BUDGETS,
        work_dir: opts.work_dir.clone(),
        detailed: Rate::default(),
        ff: Rate::default(),
        pass_ops: Timing::default(),
        pass_kernel_ms: Vec::new(),
        pass_untimed_secs: 0.0,
        round_tripped: None,
    };

    let programs = set_up(&mut run.rec, names, &policies);
    let offset = start_offset(opts.seed);
    let mut progs: Vec<Prog> = names
        .iter()
        .zip(programs)
        .map(|(&name, program)| Prog::new(name, program, offset, run.budgets, opts.kind))
        .collect();
    if opts.inject_mismatch {
        let p = &mut progs[0];
        let refs = [Some(&mut p.cell_ref), Some(&mut p.ff_ref), p.window_ref.as_mut()];
        for r in refs.into_iter().flatten() {
            r.regs[Reg::T0.index()] ^= 1;
        }
    }

    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let start = Instant::now();
    let mut passes = 0;
    let mut first_cells: Option<Vec<Cell>> = None;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        // The traced run interleaves untraced passes: their
        // `detailed_kips` over the traced passes' is the tracing overhead.
        let traced = opts.trace && passes % 2 == 0;
        run.rec.set_tracing(traced);
        // Set-ups spread over the whole run see the host as the passes
        // do; taken in one burst they all landed in the same host phase.
        for _ in 0..SETUPS_PER_PASS {
            drop(set_up(&mut run.rec, names, &policies));
        }
        run.begin_pass();
        let t = Instant::now();
        let pass_span = run.rec.open("pass");
        let cells = match opts.kind {
            Kind::WrpkruDense | Kind::MemBound => dense_pass(&mut run, &progs, &policies),
            Kind::Observed => observed_pass(&mut run, &progs[0]),
            Kind::Sampled => sampled_pass(&mut run, &progs[0]),
        };
        run.rec.close(pass_span);
        let pass = run.pass_timing(t.elapsed().as_secs_f64());
        let (detailed, ff) = (run.detailed, run.ff);
        let rec = &mut run.rec;
        if opts.trace && !traced {
            if let Some((kips, _)) = detailed.kips() {
                rec.sample("detailed_kips.untraced", kips);
            }
        } else {
            rec.sample("pass_s", pass.scaled_secs);
            rec.sample("host.pass_s_raw", pass.secs);
            detailed.sample(rec, "detailed_kips", "host.detailed_kips_raw");
            ff.sample(rec, "ff_kips", "host.ff_kips_raw");
        }
        // A pass whose restore failed has no cells; the figures come from
        // the first pass that has some.
        if first_cells.is_none() && !cells.is_empty() {
            first_cells = Some(cells);
        }
        passes += 1;
    }
    let mut rec = run.rec;
    rec.set_tracing(opts.trace);
    if let Some(rss) = crate::host::peak_rss_mb() {
        rec.set("peak_rss_mb", rss);
    }
    let cells = first_cells.unwrap_or_default();
    simulated_figures(&mut rec, &cells, progs.len());
    if opts.trace {
        per_layer_counts(&mut rec, &cells);
        let spans = rec.spans_jsonl();
        let path = opts.work_dir.join(format!("spans.{}.jsonl", opts.kind.name()));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome { rec, passes })
}

/// One set-up, sampled as `setup_s`: codegen of the workload's programs
/// plus construction of their engines (a `Core` per policy and a
/// `FastForward`). Its time stays raw: dividing it by the reference
/// kernel widened its spread (README.md).
fn set_up(rec: &mut Recorder, names: &[&str], policies: &[PolicyRef]) -> Vec<Program> {
    let t = Instant::now();
    let programs: Vec<Program> =
        names.iter().map(|&n| rec.span("workloads.codegen", |_| build(n))).collect();
    for program in &programs {
        for &policy in policies {
            let config = cell_config(policy, 0);
            let core = rec.span("ooo.core_new", |_| Core::new(config, program));
            drop(std::hint::black_box(core));
        }
        let config = SimConfig::default();
        let ff = rec.span("arch.ff_new", |_| FastForward::new(&config, program));
        drop(std::hint::black_box(ff));
    }
    rec.sample("setup_s", t.elapsed().as_secs_f64());
    programs
}

/// Runs `core` to its budget between kernel timings.
fn run_core<S: specmpk_trace::TraceSink>(run: &mut Run, core: &mut Core<S>) -> (SimResult, Timing) {
    core.set_progress(None);
    core.set_profiling(run.rec.tracing());
    let (result, t) = run.measure(Work::Simulate, |rec| rec.span("ooo.run", |_| core.run()));
    if run.rec.tracing() {
        stage_profile(&mut run.rec, &result.stats);
    }
    (result, t)
}

/// One detailed cell: a core booted at the seed's start point (cold
/// caches) and run for the cell budget, checked against the interpreter.
fn detailed_cell(run: &mut Run, prog: &Prog, policy: PolicyRef) -> (SimStats, Timing) {
    let config = cell_config(policy, run.budgets.cell);
    let mut core =
        run.rec.span("ooo.boot", |_| Core::from_checkpoint(config, &prog.program, &prog.start));
    let (result, t) = run_core(run, &mut core);
    run.rec.check(prog.cell_ref.matches_core(prog.start.executed, &result), || {
        format!("{} under {}: core disagrees with the interpreter", prog.name, policy.key())
    });
    (result.stats, t)
}

/// A functional fast-forward over [`Budgets::ff`] from the start point,
/// checked against the interpreter.
fn ff_cell(run: &mut Run, prog: &Prog) {
    let budget = run.budgets.ff;
    let mut ff = run.rec.span("arch.ff_new", |_| prog.fast_forward());
    let (_, t) = run.measure(Work::Simulate, |rec| rec.span("arch.ff_step", |_| ff.step_n(budget)));
    run.ff.add(budget, t);
    if run.rec.tracing() {
        run.rec.set("arch.ff_instr", budget as f64);
    }
    run.rec.check(prog.ff_ref.matches_ff(&ff), || {
        format!("{}: fast-forward disagrees with the interpreter", prog.name)
    });
}

/// `wrpkru_dense` and `mem_bound`: every program under every policy, then
/// one fast-forward per program.
fn dense_pass(run: &mut Run, progs: &[Prog], policies: &[PolicyRef]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, prog) in progs.iter().enumerate() {
        for &policy in policies {
            let (stats, t) = detailed_cell(run, prog, policy);
            run.detailed.add(stats.retired, t);
            cells.push((i, policy, stats));
        }
    }
    for prog in progs {
        ff_cell(run, prog);
    }
    cells
}

/// `observed`: the specmpk cell with `Tee(Journal, LeakObserver)` and
/// guest profiling, its sink output serialized in memory; the same cell
/// with sinks off (whose time is not part of `detailed_kips`), and under
/// serialized; one fast-forward.
fn observed_pass(run: &mut Run, prog: &Prog) -> Vec<Cell> {
    let policy = PolicyRef::SPEC_MPK;
    let config = cell_config(policy, run.budgets.cell);
    let sinks = Tee::new(Journal::default(), LeakObserver::default());
    let mut core = run.rec.span("ooo.boot", |_| {
        Core::with_sink_from_checkpoint(config, &prog.program, &prog.start, sinks)
    });
    core.set_guest_profiling(true);
    let (result, on) = run_core(run, &mut core);
    run.detailed.add(result.stats.retired, on);
    run.rec.check(prog.cell_ref.matches_core(prog.start.executed, &result), || {
        format!("{} with sinks on: core disagrees with the interpreter", prog.name)
    });
    let sinks = core.into_sink();
    let rec = &mut run.rec;
    let t = Instant::now();
    let (journal, ledger) =
        rec.span("trace.to_jsonl", |_| (sinks.a.to_jsonl(), sinks.b.to_jsonl()));
    let encode_s = t.elapsed().as_secs_f64();
    if rec.tracing() {
        let bytes = (journal.len() + ledger.len()) as f64;
        rec.sample("json.encode_mb_s", bytes / 1e6 / encode_s);
        rec.set("trace.jsonl_bytes", bytes);
        let records = sinks.a.len() as u64 + sinks.a.dropped_records();
        rec.set("trace.journal_records", records as f64);
        let entries = sinks.b.entries().len() as u64 + sinks.b.dropped();
        rec.set("trace.ledger_entries", entries as f64);
    }
    std::hint::black_box((journal, ledger));

    // The sinks-off cells are checked and counted, but `detailed_kips` on
    // this workload is the observed cell's rate.
    let (off, off_t) = detailed_cell(run, prog, policy);
    run.rec.check(sim_fingerprint(&off) == sim_fingerprint(&result.stats), || {
        format!("{}: simulated statistics differ with sinks on and off", prog.name)
    });
    if run.rec.tracing() {
        run.rec.sample("trace.sink_overhead", on.secs / off_t.secs);
    }
    let (serialized, _) = detailed_cell(run, prog, PolicyRef::SERIALIZED);
    ff_cell(run, prog);
    vec![(0, policy, result.stats), (0, PolicyRef::SERIALIZED, serialized)]
}

/// `sampled`: fast-forward, capture, serialize and save a checkpoint,
/// restore it from the file, run the detailed window under specmpk and
/// serialized, check it against an in-process window, then `sampled_run`.
fn sampled_pass(run: &mut Run, prog: &Prog) -> Vec<Cell> {
    let program = &prog.program;
    let budgets = run.budgets;
    let mut ff = run.rec.span("arch.ff_new", |_| prog.fast_forward());
    for _ in 0..budgets.ff_chunks {
        let (exit, t) = run.measure(Work::Simulate, |rec| {
            rec.span("arch.ff_step", |_| ff.step_n(budgets.ff_chunk))
        });
        run.ff.add(budgets.ff_chunk, t);
        run.rec.check(exit.is_none(), || format!("{}: program ended in fast-forward", prog.name));
    }
    let rec = &mut run.rec;
    if rec.tracing() {
        rec.set("arch.ff_instr", budgets.ff_chunk as f64);
    }
    let cp = rec.span("checkpoint.capture", |_| Checkpoint::capture(ff));
    let json = rec.span("checkpoint.to_json", |_| cp.to_json());
    let t = Instant::now();
    let dumped = rec.span("json.dump", |_| json.dump());
    let dump_s = t.elapsed().as_secs_f64();
    let path = run.work_dir.join("sampled.ckpt");
    let saved = rec.span("checkpoint.save", |_| cp.save(&path));
    rec.check(saved.is_ok(), || format!("saving {}: {saved:?}", path.display()));

    // From the file to a booted core, as `specmpk-sim --restore` does it:
    // `Checkpoint::load` then `Core::from_checkpoint`. Traced passes take
    // load's three steps apart so each gets a span.
    let config = cell_config(PolicyRef::SPEC_MPK, budgets.window);
    let (restored, restore) = run.measure(Work::Scan, |rec| {
        rec.span("restore", |rec| {
            let cp = if rec.tracing() {
                let text = rec.span("checkpoint.read", |_| std::fs::read_to_string(&path)).ok()?;
                let tree = rec.span("json.parse", |_| Json::parse(&text)).ok()?;
                rec.span("checkpoint.from_json", |_| Checkpoint::from_json(&config, &tree)).ok()?
            } else {
                Checkpoint::load(&config, &path).ok()?
            };
            let core = rec.span("ooo.boot", |_| Core::from_checkpoint(config, program, &cp));
            Some((cp, core))
        })
    });
    let Some((restored_cp, mut core)) = restored else {
        run.rec.check(false, || format!("restoring {} failed", path.display()));
        return Vec::new();
    };
    // The round trip is checked outside every timing, with a parse of its
    // own in the first pass only: a later pass's file must equal the
    // checked one byte for byte.
    run.untimed(|run| {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let ok = run.round_tripped.as_ref() == Some(&text)
            || Json::parse(&text).is_ok_and(|t| format!("{}\n", t.dump()) == text);
        let rec = &mut run.rec;
        rec.check(ok, || format!("{}: checkpoint parse -> dump is not byte-identical", prog.name));
        if rec.tracing() {
            rec.set("checkpoint.bytes", text.len() as f64);
            rec.sample("json.dump_mb_s", dumped.len() as f64 / 1e6 / dump_s);
            let parse: f64 = rec.spans_named("json.parse").last().map_or(0.0, |s| s.secs());
            rec.sample("json.parse_mb_s", text.len() as f64 / 1e6 / parse);
            rec.sample("restore.parse_share", parse / restore.secs);
        }
        if ok {
            run.round_tripped = Some(text);
        }
    });

    let reference = prog.window_ref.as_ref().expect("sampled programs have a window reference");
    let mut cells = Vec::new();
    let mut window = |run: &mut Run, core: &mut Core, policy: PolicyRef| {
        let (result, t) = run_core(run, core);
        run.detailed.add(result.stats.retired, t);
        let ok = result.stats.retired == budgets.window
            && result.pkru().bits() == reference.pkru
            && Reg::all().all(|reg| result.reg(reg) == reference.regs[reg.index()]);
        run.rec.check(ok, || {
            format!("{} window under {}: disagrees with the interpreter", prog.name, policy.key())
        });
        cells.push((0, policy, result.stats.clone()));
        result.stats
    };
    let from_file = window(run, &mut core, PolicyRef::SPEC_MPK);
    let config_ser = cell_config(PolicyRef::SERIALIZED, budgets.window);
    let mut core =
        run.rec.span("ooo.boot", |_| Core::from_checkpoint(config_ser, program, &restored_cp));
    window(run, &mut core, PolicyRef::SERIALIZED);
    // The in-process path (`--fast-forward` without a file) must simulate
    // the same window exactly.
    let mut core = Core::from_checkpoint(config, program, &cp);
    core.set_progress(None);
    let in_process = core.run().stats;
    let rec = &mut run.rec;
    rec.check(sim_fingerprint(&in_process) == sim_fingerprint(&from_file), || {
        format!("{}: restored window differs from the in-process window", prog.name)
    });

    // sampled_run panics when the program ends before its windows; that
    // is a failed check here, not the end of the run.
    let windows = rec.span("experiments.sampled_run", |_| {
        std::panic::catch_unwind(|| {
            sampled_run(
                program,
                PolicyRef::SPEC_MPK,
                budgets.ff_total(),
                budgets.sampled_windows,
                budgets.sampled_window,
            )
        })
    });
    let ok = windows.is_ok_and(|windows| {
        windows.len() == budgets.sampled_windows
            && windows.iter().all(|w| w.stats.retired == budgets.sampled_window)
    });
    rec.check(ok, || format!("{}: sampled_run windows incomplete", prog.name));
    cells
}

/// Adds one traced core's stage spans, per simulated cycle.
fn stage_profile(rec: &mut Recorder, stats: &SimStats) {
    let host = &stats.host;
    for (i, &name) in host.names().iter().enumerate() {
        let ns = host.total_ns(specmpk_trace::SpanId::from_index(i));
        let key = STAGE_METRICS.iter().find(|(span, _)| *span == name).map(|(_, key)| *key);
        if let Some(key) = key {
            rec.sample(key, ns as f64 / stats.cycles.max(1) as f64);
        }
    }
}

/// The core's profiler spans and the metric each one feeds.
const STAGE_METRICS: &[(&str, &str)] = &[
    ("stage.fetch", "stage.fetch.ns_per_cycle"),
    ("stage.rename", "stage.rename.ns_per_cycle"),
    ("stage.issue", "stage.issue.ns_per_cycle"),
    ("stage.writeback", "stage.writeback.ns_per_cycle"),
    ("stage.retire", "stage.retire.ns_per_cycle"),
    ("stage.squash", "stage.squash.ns_per_cycle"),
    ("step.housekeeping", "step.housekeeping.ns_per_cycle"),
    ("step.idle_skip", "step.idle_skip.ns_per_cycle"),
];

/// `sim_cpi` (specmpk cells) and `specmpk_speedup` (geometric mean over
/// programs of specmpk IPC over serialized IPC), from the first pass.
fn simulated_figures(rec: &mut Recorder, cells: &[Cell], programs: usize) {
    let of = |policy: PolicyRef| cells.iter().filter(move |(_, p, _)| *p == policy);
    let (cycles, retired) =
        of(PolicyRef::SPEC_MPK).fold((0, 0), |(c, r), (_, _, s)| (c + s.cycles, r + s.retired));
    if retired > 0 {
        rec.set("sim_cpi", cycles as f64 / retired as f64);
    }
    let mut log_sum = 0.0;
    let mut n = 0;
    for i in 0..programs {
        let ipc = |policy| of(policy).find(|(j, _, _)| *j == i).map(|(_, _, s)| s.ipc());
        if let (Some(spec), Some(ser)) = (ipc(PolicyRef::SPEC_MPK), ipc(PolicyRef::SERIALIZED)) {
            log_sum += (spec / ser).ln();
            n += 1;
        }
    }
    if n > 0 {
        rec.set("specmpk_speedup", (log_sum / f64::from(n)).exp());
    }
}

/// Simulated per-layer counts, summed over the first pass's cells.
fn per_layer_counts(rec: &mut Recorder, cells: &[Cell]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| -> f64 {
        cells.iter().map(|(_, _, s)| f(s)).sum::<u64>() as f64
    };
    use specmpk_ooo::RenameStall;
    let retired = sum(&|s| s.retired);
    let squashed = sum(&|s| s.squashed);
    let rows: [(&'static str, f64); 20] = [
        ("ooo.cycles", sum(&|s| s.cycles)),
        ("ooo.retired", retired),
        ("ooo.squashed", squashed),
        ("ooo.useful_ratio", retired / (retired + squashed).max(1.0)),
        ("ooo.idle_cycles_skipped", sum(&|s| s.idle_cycles_skipped)),
        ("ooo.fused_rename_issue_instrs", sum(&|s| s.fused_rename_issue_instrs)),
        ("core.wrpkru_renamed", sum(&|s| s.pkru.wrpkru_renamed)),
        ("core.wrpkru_squashed", sum(&|s| s.pkru.wrpkru_squashed)),
        ("core.rob_full_stall_cycles", sum(&|s| s.pkru.rob_full_stall_cycles)),
        ("core.load_check_failures", sum(&|s| s.pkru.load_check_failures)),
        ("core.store_check_failures", sum(&|s| s.pkru.store_check_failures)),
        ("stall.wrpkru_serialize", sum(&|s| s.rename_stall_cycles(RenameStall::WrpkruSerialize))),
        ("stall.rob_pkru_full", sum(&|s| s.rename_stall_cycles(RenameStall::RobPkruFull))),
        ("mem.l1i.misses", sum(&|s| s.mem.l1i.misses)),
        ("mem.l1d.misses", sum(&|s| s.mem.l1d.misses)),
        ("mem.l2.misses", sum(&|s| s.mem.l2.misses)),
        ("mem.l3.misses", sum(&|s| s.mem.l3.misses)),
        ("mem.dtlb.misses", sum(&|s| s.mem.dtlb.misses)),
        ("ooo.tlb_miss_stalls", sum(&|s| s.tlb_miss_stalls)),
        ("ooo.mpki", sum(&|s| s.mispredicts) * 1000.0 / retired.max(1.0)),
    ];
    for (name, v) in rows {
        rec.set(name, v);
    }
}
