//! Text-format assembler: parses the same syntax the disassembler
//! ([`Instr`]'s `Display`) prints, plus labels and comments.
//!
//! ```text
//! # comments run to end of line
//! start:
//!     li   t0, 40
//!     addi t1, t0, 2          # pseudo: add t1, t0, 2
//!     std  t1, 8(sp)
//!     ldd  t2, 8(sp)
//!     beq  t1, t2, done
//!     halt
//! done:
//!     wrpkru
//!     halt
//! ```
//!
//! Branch/jump targets may be label names or absolute addresses
//! (`0x1018` or decimal).

use std::fmt;

use crate::{AluOp, Assembler, BranchCond, Instr, Label, MemWidth, Operand, Reg};

/// Error produced by [`parse_program`], with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_reg(line: usize, token: &str) -> Result<Reg, ParseError> {
    let token = token.trim();
    let named = match token {
        "zero" => Some(Reg::ZERO),
        "eax" => Some(Reg::EAX),
        "sp" => Some(Reg::SP),
        "fp" => Some(Reg::FP),
        "ra" => Some(Reg::RA),
        "ssp" => Some(Reg::SSP),
        _ => None,
    };
    if let Some(r) = named {
        return Ok(r);
    }
    // Split off the first *char*, not byte: the token may be empty or
    // start with a multi-byte character.
    let mut chars = token.chars();
    let prefix = chars.next();
    let n: u8 = chars
        .as_str()
        .parse()
        .map_err(|_| ParseError { line, message: format!("bad register '{token}'") })?;
    let base = match prefix {
        Some('a') if n <= 4 => 5,
        Some('t') if n <= 4 => 10,
        Some('s') if n <= 15 => 16,
        _ => return err(line, format!("bad register '{token}'")),
    };
    Reg::new(base + n).ok_or(ParseError { line, message: format!("bad register '{token}'") })
}

fn parse_int(line: usize, token: &str) -> Result<i64, ParseError> {
    let token = token.trim();
    let (neg, t) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let value =
        if let Some(hex) = t.strip_prefix("0x") { i64::from_str_radix(hex, 16) } else { t.parse() };
    // `-0x-8000000000000000` parses the magnitude as i64::MIN, which has
    // no negation.
    match value.ok().and_then(|v| if neg { v.checked_neg() } else { Some(v) }) {
        Some(v) => Ok(v),
        None => err(line, format!("bad integer '{token}'")),
    }
}

/// Parses `offset(base)` into its parts.
fn parse_mem_operand(line: usize, token: &str) -> Result<(i32, Reg), ParseError> {
    let token = token.trim();
    let open = token
        .find('(')
        .ok_or(ParseError { line, message: format!("expected offset(base), got '{token}'") })?;
    if !token.ends_with(')') {
        return err(line, format!("expected offset(base), got '{token}'"));
    }
    let offset = parse_int(line, &token[..open])?;
    let offset = i32::try_from(offset)
        .map_err(|_| ParseError { line, message: format!("offset {offset} out of range") })?;
    let base = parse_reg(line, &token[open + 1..token.len() - 1])?;
    Ok((offset, base))
}

fn alu_op(mnemonic: &str) -> Option<AluOp> {
    AluOp::all().into_iter().find(|op| op.to_string() == mnemonic)
}

fn branch_cond(mnemonic: &str) -> Option<BranchCond> {
    BranchCond::all().into_iter().find(|c| c.to_string() == mnemonic)
}

fn mem_width(suffix: &str) -> Option<MemWidth> {
    match suffix {
        "b" => Some(MemWidth::B),
        "h" => Some(MemWidth::H),
        "w" => Some(MemWidth::W),
        "d" => Some(MemWidth::D),
        _ => None,
    }
}

enum Target {
    Label(String),
    Absolute(u64),
}

fn parse_target(line: usize, token: &str) -> Result<Target, ParseError> {
    let token = token.trim();
    if token.starts_with("0x") || token.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        let v = parse_int(line, token)?;
        u64::try_from(v)
            .map(Target::Absolute)
            .map_err(|_| ParseError { line, message: format!("negative target '{token}'") })
    } else {
        Ok(Target::Label(token.to_owned()))
    }
}

/// Parses an assembly listing into instructions at `base`.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line on bad syntax, unknown
/// mnemonics/registers, or unresolved/duplicate labels.
///
/// # Examples
///
/// ```
/// use specmpk_isa::{parse_program, Instr};
///
/// let text = "
/// loop:
///     addi s0, s0, -1
///     bne  s0, zero, loop
///     halt
/// ";
/// let instrs = parse_program(text, 0x1000)?;
/// assert_eq!(instrs.len(), 3);
/// assert_eq!(instrs[2], Instr::Halt);
/// # Ok::<(), specmpk_isa::ParseError>(())
/// ```
#[allow(clippy::too_many_lines)]
pub fn parse_program(text: &str, base: u64) -> Result<Vec<Instr>, ParseError> {
    let mut asm = Assembler::new(base);
    let mut labels: std::collections::HashMap<String, Label> = std::collections::HashMap::new();
    let mut intern = |asm: &mut Assembler, name: &str| {
        *labels.entry(name.to_owned()).or_insert_with(|| asm.fresh_label())
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let code = raw.split(['#', ';']).next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        // Label definitions (possibly followed by an instruction).
        let mut rest = code;
        while let Some(colon) = rest.find(':') {
            let (name, after) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return err(line, format!("bad label '{name}'"));
            }
            let label = intern(&mut asm, name);
            asm.bind(label)
                .map_err(|_| ParseError { line, message: format!("label '{name}' bound twice") })?;
            rest = after[1..].trim();
            if rest.is_empty() {
                break;
            }
        }
        if rest.is_empty() {
            continue;
        }
        // Mnemonic + comma-separated operands.
        let (mnemonic, operand_text) = match rest.split_once(char::is_whitespace) {
            Some((m, o)) => (m.trim(), o.trim()),
            None => (rest, ""),
        };
        let ops: Vec<&str> = if operand_text.is_empty() {
            Vec::new()
        } else {
            operand_text.split(',').map(str::trim).collect()
        };
        let want = |n: usize| -> Result<(), ParseError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(line, format!("{mnemonic} expects {n} operands, got {}", ops.len()))
            }
        };

        match mnemonic {
            "nop" => {
                want(0)?;
                asm.nop();
            }
            "halt" => {
                want(0)?;
                asm.halt();
            }
            "wrpkru" => {
                want(0)?;
                asm.wrpkru();
            }
            "rdpkru" => {
                want(0)?;
                asm.rdpkru();
            }
            "li" => {
                want(2)?;
                asm.li(parse_reg(line, ops[0])?, parse_int(line, ops[1])?);
            }
            "addi" => {
                want(3)?;
                let imm = parse_int(line, ops[2])?;
                let imm = i32::try_from(imm)
                    .map_err(|_| ParseError { line, message: "immediate out of range".into() })?;
                asm.addi(parse_reg(line, ops[0])?, parse_reg(line, ops[1])?, imm);
            }
            "clflush" => {
                want(1)?;
                let (offset, base_reg) = parse_mem_operand(line, ops[0])?;
                asm.clflush(base_reg, offset);
            }
            "j" => {
                want(1)?;
                match parse_target(line, ops[0])? {
                    Target::Label(name) => {
                        let l = intern(&mut asm, &name);
                        asm.jump(l);
                    }
                    Target::Absolute(a) => asm.raw(Instr::Jump { target: a }),
                }
            }
            "jal" => {
                want(2)?;
                let rd = parse_reg(line, ops[0])?;
                match parse_target(line, ops[1])? {
                    Target::Label(name) => {
                        let l = intern(&mut asm, &name);
                        asm.jal(rd, l);
                    }
                    Target::Absolute(a) => asm.raw(Instr::Jal { rd, target: a }),
                }
            }
            "jalr" => {
                want(2)?;
                asm.jalr(parse_reg(line, ops[0])?, parse_reg(line, ops[1])?);
            }
            "call" => {
                want(1)?;
                match parse_target(line, ops[0])? {
                    Target::Label(name) => {
                        let l = intern(&mut asm, &name);
                        asm.call(l);
                    }
                    Target::Absolute(a) => asm.call_abs(a),
                }
            }
            "ret" => {
                want(0)?;
                asm.ret();
            }
            m if m.len() == 3 && (m.starts_with("ld") || m.starts_with("st")) => {
                want(2)?;
                let width = mem_width(&m[2..])
                    .ok_or(ParseError { line, message: format!("unknown mnemonic '{m}'") })?;
                let reg = parse_reg(line, ops[0])?;
                let (offset, base_reg) = parse_mem_operand(line, ops[1])?;
                if m.starts_with("ld") {
                    asm.load(reg, base_reg, offset, width);
                } else {
                    asm.store(reg, base_reg, offset, width);
                }
            }
            m if branch_cond(m).is_some() => {
                want(3)?;
                let cond = branch_cond(m).expect("checked");
                let rs1 = parse_reg(line, ops[0])?;
                let rs2 = parse_reg(line, ops[1])?;
                match parse_target(line, ops[2])? {
                    Target::Label(name) => {
                        let l = intern(&mut asm, &name);
                        asm.branch(cond, rs1, rs2, l);
                    }
                    Target::Absolute(a) => {
                        asm.raw(Instr::Branch { cond, rs1, rs2, target: a });
                    }
                }
            }
            m if alu_op(m).is_some() => {
                want(3)?;
                let op = alu_op(m).expect("checked");
                let rd = parse_reg(line, ops[0])?;
                let rs1 = parse_reg(line, ops[1])?;
                let src2 = if parse_reg(line, ops[2]).is_ok() {
                    Operand::Reg(parse_reg(line, ops[2])?)
                } else {
                    let imm = parse_int(line, ops[2])?;
                    Operand::Imm(i32::try_from(imm).map_err(|_| ParseError {
                        line,
                        message: "immediate out of range".into(),
                    })?)
                };
                asm.alu(op, rd, rs1, src2);
            }
            other => return err(line, format!("unknown mnemonic '{other}'")),
        }
    }
    asm.assemble().map_err(|e| ParseError { line: 0, message: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_small_loop_with_labels() {
        let text = "
            # sum 1..=3
            li s0, 0
            li s1, 3
        loop:
            add  s0, s0, s1
            addi s1, s1, -1
            bne  s1, zero, loop
            halt
        ";
        let instrs = parse_program(text, 0x1000).unwrap();
        assert_eq!(instrs.len(), 6);
        assert_eq!(
            instrs[4],
            Instr::Branch { cond: BranchCond::Ne, rs1: Reg::S1, rs2: Reg::ZERO, target: 0x1010 }
        );
    }

    #[test]
    fn round_trips_the_disassembler_output() {
        // Build a program covering most instruction shapes, disassemble it,
        // re-parse, and compare.
        let mut asm = Assembler::new(0x2000);
        asm.li(Reg::T0, -42);
        asm.alu(AluOp::Xor, Reg::T1, Reg::T0, Operand::Reg(Reg::S3));
        asm.alu(AluOp::Sltu, Reg::T2, Reg::T1, Operand::Imm(77));
        asm.load(Reg::A0, Reg::SP, -8, MemWidth::W);
        asm.store(Reg::A0, Reg::SP, 16, MemWidth::B);
        asm.raw(Instr::Branch {
            cond: BranchCond::Geu,
            rs1: Reg::A0,
            rs2: Reg::T2,
            target: 0x2000,
        });
        asm.raw(Instr::Jump { target: 0x2000 });
        asm.raw(Instr::Jal { rd: Reg::RA, target: 0x2010 });
        asm.jalr(Reg::ZERO, Reg::RA);
        asm.wrpkru();
        asm.rdpkru();
        asm.clflush(Reg::T3, 192);
        asm.nop();
        asm.halt();
        let original = asm.assemble().unwrap();
        let program = crate::Program::new(0x2000, original.clone());
        let listing = program.disassemble();
        // Strip the "addr:" prefixes the disassembler adds.
        let text: String = listing
            .lines()
            .map(|l| l.split_once(':').map_or(l, |(_, i)| i).trim())
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = parse_program(&text, 0x2000).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn label_and_instruction_on_one_line() {
        let instrs = parse_program("top: nop\n j top\n", 0).unwrap();
        assert_eq!(instrs[1], Instr::Jump { target: 0 });
    }

    #[test]
    fn call_and_ret_pseudo_ops() {
        let text = "
            call f
            halt
        f:  ret
        ";
        let instrs = parse_program(text, 0x100).unwrap();
        assert!(instrs[0].is_call());
        assert!(instrs[2].is_return());
    }

    #[test]
    fn reports_unknown_mnemonic_with_line() {
        let e = parse_program("nop\n frobnicate t0\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{e}");
    }

    #[test]
    fn reports_bad_register() {
        let e = parse_program("li q9, 1\n", 0).unwrap_err();
        assert!(e.message.contains("q9"), "{e}");
    }

    #[test]
    fn empty_register_token_is_an_error() {
        let e = parse_program("add t0, , t1", 0).unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.message, "bad register ''");
    }

    #[test]
    fn multibyte_register_token_is_an_error() {
        let e = parse_program("add t0, é1, t1", 0).unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.message, "bad register 'é1'");
    }

    #[test]
    fn unnegatable_immediate_is_an_error() {
        let e = parse_program("li t0, -0x-8000000000000000", 0).unwrap_err();
        assert!(e.message.contains("bad integer"), "{e}");
    }

    #[test]
    fn reports_unbound_label() {
        let e = parse_program("j nowhere\n", 0).unwrap_err();
        assert!(e.message.contains("never bound"), "{e}");
    }

    #[test]
    fn reports_duplicate_label() {
        let e = parse_program("a: nop\na: nop\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn hex_and_negative_immediates() {
        let instrs = parse_program("li t0, 0x1F\nli t1, -0x10\n", 0).unwrap();
        assert_eq!(instrs[0], Instr::Li { rd: Reg::T0, imm: 31 });
        assert_eq!(instrs[1], Instr::Li { rd: Reg::T1, imm: -16 });
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let instrs = parse_program("\n  # full comment\n nop ; trailing\n\n", 0).unwrap();
        assert_eq!(instrs, vec![Instr::Nop]);
    }
}
