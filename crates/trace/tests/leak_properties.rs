//! Property-based tests for the speculative-access ledger.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use specmpk_isa::Instr;
use specmpk_trace::{
    AccessDecision, Fate, LeakObserver, LedgerCounts, LedgerEntry, PkruCheckKind, ResidueFlags,
    SquashCause, SquashRecord, TraceEvent, TraceSink as _, WitnessChain, DEFAULT_WITNESS_WINDOW,
};

/// What happens to one synthetic instruction after its access issues.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Retire,
    Squash,
    Open, // run ends with the instruction in flight
}

fn outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Retire), Just(Outcome::Squash), Just(Outcome::Open)]
}

proptest! {
    /// Every ledger entry resolves to exactly one fate: retired xor
    /// squashed, matching the event the core emitted — and entries whose
    /// instruction never left the pipeline stay unresolved.
    #[test]
    fn every_entry_resolves_to_exactly_one_fate(
        outcomes in prop::collection::vec(outcome(), 1..80),
        accesses_per_instr in prop::collection::vec(1u64..4, 1..80),
    ) {
        let mut o = LeakObserver::default();
        // Issue phase: every instruction renames and records its accesses.
        for (i, n) in outcomes.iter().zip(&accesses_per_instr).map(|(_, n)| n).enumerate() {
            let seq = i as u64;
            o.record(TraceEvent::Rename {
                seq,
                pc: 0x1000 + 4 * seq,
                fetch_cycle: seq,
                cycle: seq + 1,
                instr: Instr::Nop,
            });
            for k in 0..*n {
                o.record(TraceEvent::SpecAccess {
                    seq,
                    cycle: seq + 2,
                    pc: 0x1000 + 4 * seq,
                    addr: 0x2000 + 64 * seq + k,
                    pkey: (seq % 16) as u8,
                    pkru: 0xffff_ffff,
                    kind: if k % 2 == 0 { PkruCheckKind::Load } else { PkruCheckKind::Store },
                    decision: AccessDecision::Allowed,
                });
            }
        }
        // Resolution phase: retires oldest-first, squashes youngest-first
        // (as the core would), open instructions never resolve.
        for (i, out) in outcomes.iter().enumerate() {
            if matches!(out, Outcome::Retire) {
                o.record(TraceEvent::Retire { seq: i as u64, cycle: 1000 + i as u64 });
            }
        }
        for (i, out) in outcomes.iter().enumerate().rev() {
            if matches!(out, Outcome::Squash) {
                o.record(TraceEvent::Squash { seq: i as u64, cycle: 2000 + i as u64 });
            }
        }
        // Every entry's fate matches its instruction's outcome, and the
        // aggregate counts partition the ledger exactly.
        for e in o.entries() {
            let expected = outcomes[e.seq as usize];
            match (expected, e.fate) {
                (Outcome::Retire, Some(Fate::Retired { .. }))
                | (Outcome::Squash, Some(Fate::Squashed { .. }))
                | (Outcome::Open, None) => {}
                other => prop_assert!(false, "seq {} fate mismatch: {:?}", e.seq, other),
            }
        }
        let c = o.counts();
        prop_assert_eq!(c.retired + c.squashed + c.unresolved, c.accesses);
        prop_assert_eq!(c.accesses, o.entries().len() as u64);
    }

    /// Re-resolving is impossible by construction: after a fate is
    /// sealed, later Retire/Squash events for the same seq are ignored.
    #[test]
    fn sealed_fates_never_flip(retire_first in any::<bool>()) {
        let mut o = LeakObserver::default();
        o.record(TraceEvent::SpecAccess {
            seq: 1,
            cycle: 5,
            pc: 0x1000,
            addr: 0x2000,
            pkey: 3,
            pkru: 0,
            kind: PkruCheckKind::Load,
            decision: AccessDecision::Allowed,
        });
        let (first, second) = if retire_first {
            (TraceEvent::Retire { seq: 1, cycle: 10 }, TraceEvent::Squash { seq: 1, cycle: 11 })
        } else {
            (TraceEvent::Squash { seq: 1, cycle: 10 }, TraceEvent::Retire { seq: 1, cycle: 11 })
        };
        o.record(first);
        o.record(second);
        let fate = o.entries()[0].fate.expect("resolved");
        prop_assert_eq!(fate.cycle(), 10, "first resolution wins");
        match fate {
            Fate::Retired { .. } => prop_assert!(retire_first),
            Fate::Squashed { .. } => prop_assert!(!retire_first),
        }
    }
}

// ------------------------------------------------ reference-model check

/// The ledger as a plain `HashMap`-keyed model: every join is a lookup by
/// sequence number or PC. The observer must reproduce its results on any
/// event stream, in core order or not.
struct Reference {
    entries: Vec<LedgerEntry>,
    squashes: Vec<SquashRecord>,
    capacity: usize,
    dropped: u64,
    open: HashMap<u64, Vec<usize>>,
    in_flight: HashMap<u64, u64>,
    retired_pcs: HashMap<u64, u64>,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            entries: Vec::new(),
            squashes: Vec::new(),
            capacity,
            dropped: 0,
            open: HashMap::new(),
            in_flight: HashMap::new(),
            retired_pcs: HashMap::new(),
        }
    }

    fn resolve(&mut self, seq: u64, fate: Fate) {
        for i in self.open.remove(&seq).unwrap_or_default() {
            self.entries[i].fate = Some(fate);
        }
    }

    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Rename { seq, pc, .. } => {
                self.in_flight.insert(seq, pc);
            }
            TraceEvent::SpecAccess { seq, cycle, pc, addr, pkey, pkru, kind, decision } => {
                if self.entries.len() >= self.capacity {
                    self.dropped += 1;
                    return;
                }
                self.open.entry(seq).or_default().push(self.entries.len());
                self.entries.push(LedgerEntry {
                    seq,
                    pc,
                    cycle,
                    addr,
                    pkey,
                    pkru,
                    kind,
                    decision,
                    fate: None,
                    residue: None,
                });
            }
            TraceEvent::Retire { seq, cycle } => {
                self.resolve(seq, Fate::Retired { cycle });
                if let Some(pc) = self.in_flight.remove(&seq) {
                    *self.retired_pcs.entry(pc).or_insert(0) += 1;
                }
            }
            TraceEvent::Squash { seq, cycle } => {
                self.resolve(seq, Fate::Squashed { cycle });
                self.in_flight.remove(&seq);
            }
            TraceEvent::Residue { seq, addr, line, tlb, .. } => {
                for &i in self.open.get(&seq).into_iter().flatten() {
                    if self.entries[i].addr == addr {
                        self.entries[i].residue = Some(ResidueFlags { line, tlb });
                    }
                }
            }
            TraceEvent::SquashBatch { seq, cycle, depth, cause, .. }
                if self.squashes.len() < self.capacity =>
            {
                let trigger_pc = self.in_flight.get(&seq).copied().unwrap_or(0);
                self.squashes.push(SquashRecord {
                    cycle,
                    trigger_seq: seq,
                    trigger_pc,
                    cause,
                    depth,
                });
            }
            _ => {}
        }
    }

    fn counts(&self) -> LedgerCounts {
        let mut c = LedgerCounts { accesses: self.entries.len() as u64, ..Default::default() };
        for e in &self.entries {
            match e.fate {
                Some(Fate::Retired { .. }) => c.retired += 1,
                Some(Fate::Squashed { .. }) => c.squashed += 1,
                None => c.unresolved += 1,
            }
            if let Some(r) = e.residue {
                c.residue_lines += u64::from(r.line);
                c.residue_tlb += u64::from(r.tlb);
            }
        }
        c
    }

    fn witness_chain(&self, secret_pkey: u8) -> Option<WitnessChain> {
        for e in &self.entries {
            let Some(Fate::Squashed { cycle: squash_cycle }) = e.fate else { continue };
            if e.pkey != secret_pkey
                || e.kind != PkruCheckKind::Load
                || e.decision != AccessDecision::Allowed
            {
                continue;
            }
            let Some(s) = self
                .squashes
                .iter()
                .rev()
                .find(|s| s.cycle == squash_cycle && s.trigger_seq < e.seq)
            else {
                continue;
            };
            let dependent = self.entries.iter().find(|d| {
                d.seq > e.seq
                    && d.pkey != secret_pkey
                    && d.decision == AccessDecision::Allowed
                    && d.fate == Some(Fate::Squashed { cycle: squash_cycle })
                    && d.cycle.saturating_sub(e.cycle) <= DEFAULT_WITNESS_WINDOW
                    && d.residue.is_some_and(ResidueFlags::any)
            });
            if let Some(d) = dependent {
                return Some(WitnessChain {
                    train_retires: self.retired_pcs.get(&s.trigger_pc).copied().unwrap_or(0),
                    mispredict_seq: s.trigger_seq,
                    mispredict_pc: s.trigger_pc,
                    cause: s.cause,
                    squash_cycle,
                    squash_depth: s.depth,
                    secret_seq: e.seq,
                    secret_pc: e.pc,
                    secret_addr: e.addr,
                    secret_cycle: e.cycle,
                    secret_pkru: e.pkru,
                    dependent_seq: d.seq,
                    dependent_pc: d.pc,
                    dependent_addr: d.addr,
                    dependent_cycle: d.cycle,
                    residue: d.residue.unwrap_or_default(),
                });
            }
        }
        None
    }
}

/// One step of a synthetic pipeline. Selector bytes pick in-flight
/// instructions, PCs and addresses from small pools, so accesses repeat
/// per instruction (replays), residue probes hit recorded addresses,
/// and PCs retire often enough to train.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Rename the next instruction at one of eight PCs.
    Rename(u8),
    /// A speculative access by an in-flight instruction.
    Access(u8, u8, u8),
    /// A residue probe on an in-flight instruction.
    Residue(u8, u8, u8),
    /// Retire the oldest in-flight instruction.
    Retire,
    /// Squash everything younger than an in-flight trigger, youngest
    /// first; consecutive mispredicts share a cycle (nested squashes).
    Mispredict(u8, u8),
    /// Fault flush: squash every in-flight instruction, oldest first.
    Flush,
    /// One event out of core order: a sequence number near the window
    /// that may be unknown, resolved already, or not yet renamed.
    Stray(u8, u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    let b = || any::<u8>();
    prop_oneof![
        10 => b().prop_map(Op::Rename),
        12 => (b(), b(), b()).prop_map(|(w, a, f)| Op::Access(w, a, f)),
        2 => (b(), b(), b()).prop_map(|(w, a, f)| Op::Residue(w, a, f)),
        5 => Just(Op::Retire),
        2 => (b(), b()).prop_map(|(w, c)| Op::Mispredict(w, c)),
        1 => Just(Op::Flush),
        2 => (b(), b(), b()).prop_map(|(w, k, f)| Op::Stray(w, k, f)),
    ]
}

const CAUSES: [SquashCause; 4] = [
    SquashCause::BranchMispredict,
    SquashCause::IndirectMispredict,
    SquashCause::ReturnMispredict,
    SquashCause::JumpMispredict,
];
const DECISIONS: [AccessDecision; 4] = [
    AccessDecision::Allowed,
    AccessDecision::Allowed,
    AccessDecision::Deferred,
    AccessDecision::Faulted,
];

fn pc_of(sel: u8) -> u64 {
    0x1000 + 4 * u64::from(sel % 8)
}

fn addr_of(sel: u8) -> u64 {
    0x2000 + 8 * u64::from(sel % 8)
}

fn access_event(seq: u64, cycle: u64, addr_sel: u8, flags: u8) -> TraceEvent {
    TraceEvent::SpecAccess {
        seq,
        cycle,
        pc: pc_of(addr_sel),
        addr: addr_of(addr_sel),
        pkey: flags % 4,
        pkru: u32::from(flags),
        kind: if flags & 0x10 == 0 { PkruCheckKind::Load } else { PkruCheckKind::Store },
        decision: DECISIONS[usize::from(flags >> 6)],
    }
}

fn residue_event(seq: u64, cycle: u64, addr_sel: u8, flags: u8) -> TraceEvent {
    TraceEvent::Residue {
        seq,
        cycle,
        addr: addr_of(addr_sel),
        pkey: flags % 4,
        line: flags & 1 != 0,
        tlb: flags & 2 != 0,
    }
}

/// Expands `ops` into the event stream a core would emit.
fn events(ops: &[Op]) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let mut window: VecDeque<u64> = VecDeque::new();
    // The address selector of each instruction's latest access, so squash
    // residue lands on an address the ledger holds.
    let mut touched: HashMap<u64, u8> = HashMap::new();
    let mut next_seq = 0u64;
    let mut cycle = 0u64;
    let pick = |window: &VecDeque<u64>, sel: u8| window[usize::from(sel) % window.len()];
    for &op in ops {
        match op {
            Op::Rename(pc) => {
                cycle += 1;
                out.push(TraceEvent::Rename {
                    seq: next_seq,
                    pc: pc_of(pc),
                    fetch_cycle: cycle,
                    cycle,
                    instr: Instr::Nop,
                });
                window.push_back(next_seq);
                next_seq += 1;
            }
            Op::Access(w, a, f) if !window.is_empty() => {
                let seq = pick(&window, w);
                touched.insert(seq, a);
                out.push(access_event(seq, cycle, a, f));
            }
            Op::Residue(w, a, f) if !window.is_empty() => {
                out.push(residue_event(pick(&window, w), cycle, a, f));
            }
            Op::Retire => {
                cycle += 1;
                if let Some(seq) = window.pop_front() {
                    out.push(TraceEvent::Retire { seq, cycle });
                }
            }
            Op::Mispredict(w, c) if !window.is_empty() => {
                let trigger = usize::from(w) % window.len();
                let victims = window.split_off(trigger + 1);
                out.push(TraceEvent::SquashBatch {
                    seq: window[trigger],
                    cycle,
                    depth: victims.len() as u64,
                    cause: CAUSES[usize::from(c) % CAUSES.len()],
                    rob: (window.len() + victims.len()) as u64,
                });
                for (k, &seq) in victims.iter().enumerate().rev() {
                    if let Some(&a) = touched.get(&seq).filter(|_| c & (1 << (k % 8)) != 0) {
                        out.push(residue_event(seq, cycle, a, c | 1));
                    }
                    out.push(TraceEvent::Squash { seq, cycle });
                }
            }
            Op::Flush if !window.is_empty() => {
                out.push(TraceEvent::SquashBatch {
                    seq: window[0],
                    cycle,
                    depth: window.len() as u64,
                    cause: SquashCause::FaultFlush,
                    rob: window.len() as u64,
                });
                for seq in window.drain(..) {
                    out.push(TraceEvent::Squash { seq, cycle });
                }
            }
            Op::Stray(w, kind, f) => {
                let seq = (next_seq + u64::from(w % 16)).saturating_sub(12);
                out.push(match kind % 6 {
                    0 => TraceEvent::Rename {
                        seq,
                        pc: pc_of(f),
                        fetch_cycle: cycle,
                        cycle,
                        instr: Instr::Nop,
                    },
                    1 => access_event(seq, cycle, f, f),
                    2 => residue_event(seq, cycle, f, f),
                    3 => TraceEvent::Retire { seq, cycle },
                    4 => TraceEvent::Squash { seq, cycle },
                    _ => TraceEvent::SquashBatch {
                        seq,
                        cycle,
                        depth: 0,
                        cause: CAUSES[usize::from(f) % CAUSES.len()],
                        rob: 0,
                    },
                });
            }
            _ => {}
        }
    }
    out
}

proptest! {
    /// The observer and the `HashMap` reference model agree on every
    /// output: entries with their fates and residue, squash records with
    /// their trigger PCs, drops, counts, per-PC retirements and the
    /// witness chain of every domain.
    #[test]
    fn observer_matches_the_hash_map_reference(
        ops in prop::collection::vec(op(), 0..400),
        capacity in 8usize..400,
    ) {
        let mut o = LeakObserver::with_capacity(capacity);
        let mut r = Reference::new(capacity);
        for event in events(&ops) {
            o.record(event);
            r.record(event);
        }
        prop_assert_eq!(o.entries(), &r.entries[..]);
        prop_assert_eq!(o.squashes(), &r.squashes[..]);
        prop_assert_eq!(o.dropped(), r.dropped);
        prop_assert_eq!(o.counts(), r.counts());
        for sel in 0..8 {
            let pc = pc_of(sel);
            prop_assert_eq!(o.retire_count(pc), r.retired_pcs.get(&pc).copied().unwrap_or(0));
        }
        for pkey in 0..4 {
            prop_assert_eq!(o.witness_chain(pkey), r.witness_chain(pkey));
        }
    }
}
