//! Property-based tests: encode/decode round-trip, semantics invariants.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_isa::{decode, encode, AluOp, BranchCond, Instr, MemWidth, Operand, Reg};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::all().to_vec())
}

fn arb_cond() -> impl Strategy<Value = BranchCond> {
    prop::sample::select(BranchCond::all().to_vec())
}

fn arb_width() -> impl Strategy<Value = MemWidth> {
    prop::sample::select(vec![MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D])
}

fn arb_target() -> impl Strategy<Value = u64> {
    0u64..(1 << 43)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        Just(Instr::Wrpkru),
        Just(Instr::Rdpkru),
        (arb_reg(), (-(1i64 << 47))..(1i64 << 47)).prop_map(|(rd, imm)| Instr::Li { rd, imm }),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Instr::Alu {
            op,
            rd,
            rs1,
            src2: Operand::Reg(rs2)
        }),
        (arb_alu_op(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(op, rd, rs1, imm)| Instr::Alu { op, rd, rs1, src2: Operand::Imm(imm) }),
        (arb_reg(), arb_reg(), any::<i32>(), arb_width())
            .prop_map(|(rd, base, offset, width)| Instr::Load { rd, base, offset, width }),
        (arb_reg(), arb_reg(), any::<i32>(), arb_width())
            .prop_map(|(rs, base, offset, width)| Instr::Store { rs, base, offset, width }),
        (arb_cond(), arb_reg(), arb_reg(), arb_target())
            .prop_map(|(cond, rs1, rs2, target)| Instr::Branch { cond, rs1, rs2, target }),
        arb_target().prop_map(|target| Instr::Jump { target }),
        (arb_reg(), arb_target()).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instr::Jalr { rd, rs }),
        (arb_reg(), any::<i32>()).prop_map(|(base, offset)| Instr::Clflush { base, offset }),
    ]
}

proptest! {
    /// Every instruction round-trips through the binary encoding.
    #[test]
    fn encode_decode_round_trip(instr in arb_instr()) {
        prop_assert_eq!(decode(encode(&instr)), Ok(instr));
    }

    /// dest() never reports the zero register.
    #[test]
    fn zero_never_a_destination(instr in arb_instr()) {
        prop_assert_ne!(instr.dest(), Some(Reg::ZERO));
    }

    /// Memory instructions and only memory instructions need PKRU checks.
    #[test]
    fn memory_classification(instr in arb_instr()) {
        let mem = instr.is_load() || instr.is_store()
            || matches!(instr, Instr::Clflush { .. });
        prop_assert_eq!(instr.is_memory(), mem);
    }

    /// ALU eval never panics and truncation is idempotent.
    #[test]
    fn alu_total_and_truncation_idempotent(
        op in arb_alu_op(), a in any::<u64>(), b in any::<u64>(), w in arb_width()
    ) {
        let v = op.eval(a, b);
        prop_assert_eq!(w.truncate(w.truncate(v)), w.truncate(v));
    }

    /// Branch conditions are coherent: Eq/Ne complementary, Lt/Ge complementary.
    #[test]
    fn branch_condition_complements(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(BranchCond::Eq.eval(a, b), BranchCond::Ne.eval(a, b));
        prop_assert_ne!(BranchCond::Lt.eval(a, b), BranchCond::Ge.eval(a, b));
        prop_assert_ne!(BranchCond::Ltu.eval(a, b), BranchCond::Geu.eval(a, b));
    }
}

proptest! {
    /// Disassemble → parse is the identity on every instruction (using a
    /// 48-bit-safe `li` immediate and in-range targets).
    #[test]
    fn display_parse_round_trip(instr in arb_instr()) {
        let text = instr.to_string();
        // Branch/jump targets print as absolute addresses, so parse at any base.
        let parsed = specmpk_isa::parse_program(&text, 0).unwrap();
        prop_assert_eq!(parsed, vec![instr]);
    }
}

/// A short listing touching labels, registers, immediates, memory
/// operands and branch targets — the assembler's whole surface.
const MUTATION_BASE: &str = "\
start:
    li   t0, 40
    addi t1, t0, -0x2   # pseudo add
    std  t1, 8(sp)
    ldd  t2, 8(sp)
    bne  t1, t2, start
    wrpkru
    halt
";

/// Characters an edit inserts or writes: assembler syntax plus one-,
/// two-, three- and four-byte UTF-8.
fn arb_edit_char() -> impl Strategy<Value = char> {
    prop::sample::select(vec![
        ' ', ',', ':', '(', ')', '#', ';', '-', 'x', '0', '9', 'a', 's', 't', '\n', 'é', 'π', '→',
        '😀',
    ])
}

/// Applies one insert (`kind` 0), delete (1) or replace (2) at char
/// index `at` (taken modulo the listing's length).
fn edit(text: &str, kind: u8, at: usize, c: char) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    match kind {
        0 => chars.insert(at % (chars.len() + 1), c),
        1 => {
            chars.remove(at % chars.len());
        }
        _ => {
            let i = at % chars.len();
            chars[i] = c;
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every single-character edit of a valid listing assembles or
    /// returns a `ParseError`; none panics.
    #[test]
    fn single_edit_mutants_never_panic(kind in 0u8..3, at in 0usize..1 << 16, c in arb_edit_char()) {
        prop_assert!(specmpk_isa::parse_program(MUTATION_BASE, 0x1000).is_ok());
        let mutant = edit(MUTATION_BASE, kind, at, c);
        let outcome = std::panic::catch_unwind(|| specmpk_isa::parse_program(&mutant, 0x1000));
        prop_assert!(outcome.is_ok(), "parse_program panicked on {mutant:?}");
    }
}
