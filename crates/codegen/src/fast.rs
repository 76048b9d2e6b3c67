//! # Single-pass "fast" backend: lpat IR → risc32 machine words
//!
//! A TPDE-style low-latency backend (PAPERS.md: "TPDE: A Fast Adaptable
//! Compiler Back-End Framework"): instruction selection, register
//! allocation and binary encoding are fused into **one forward walk** of
//! the IR per function. There is no MIR, no separate liveness analysis and
//! no iterative allocator — translation cost is a small constant per IR
//! instruction, which is what lets the tiered VM afford a third tier.
//!
//! ## Value model
//!
//! Every SSA value is assigned a [`Class`] from its static type and one
//! permanent **home**: a register of the risc32 file, or a frame slot when
//! the file is full (spill on pressure). Registers are 64 bits wide and
//! hold the bit pattern of the interpreter's canonical value:
//!
//! * classes ≤ 32 bits (`Bool`, `S8`…`U32`, `Ptr`) live in the **low
//!   word**: the canonical `i64` is the sign/zero-extension of those 32
//!   bits, and the upper word is never read. 32-bit operations keep
//!   their 32-bit encodings; add/sub/mul/bitwise ops compute all 64 bits,
//!   whose low word equals the 32-bit result;
//! * 64-bit integers (`S64`, `U64`) use the **whole register**. Shifts,
//!   division, remainder, compares and tests carry a width flag in their
//!   `extra` field; widening casts sign/zero-extend through `NORM`;
//! * floats (`F32`, `F64`) are **bit patterns** in the same file (`F32`
//!   in the low word). Their arithmetic, compares and casts decode the
//!   bits into the interpreter's scalar values and call its own helpers,
//!   so float semantics exist exactly once.
//!
//! Speculation guards lower to a compare plus a [`enc::GUARD`] branch
//! whose fail edge deoptimizes the native frame into an interpreter frame
//! at the slow block (see `lpat_vm::native`).
//!
//! What the translator still refuses is an `Err(`[`Bail`]`)` from
//! [`translate_fast`]: varargs, encoding limits and malformed IR. It is a
//! *tiering* decision, never a semantic one: the VM keeps such functions
//! in the interpreter and counts them by the bail's [`bail`] reason.
//!
//! ## Register file
//!
//! 32 × `u64`. `r0` is hardwired zero; `r1`–`r3` are translator scratch
//! (immediate materialisation, spill staging, φ-cycle breaking); `r4`–`r31`
//! (28 registers) are allocatable homes. Homes are fixed for the lifetime
//! of the function — the allocator is a single priority pass (static use
//! count × 4^loop-depth), so the mapping InstId → home is a pure function
//! of the IR. That is what makes on-stack replacement and deoptimization
//! trivial: converting an interpreter frame to a native frame and back is
//! one table-driven copy in each direction.
//!
//! ## Encoding
//!
//! Fixed 4-byte words in four formats (see [`enc`]); side tables carry the
//! data a fixed-width word cannot (φ-edge copy lists, call descriptors,
//! switch and guard tables, 64-bit constants), exactly as real RISC
//! binaries park jump tables, literal pools and relocation records out of
//! line. Accounting words ([`enc::ACCT`]) mark the start of each IR
//! instruction's machine sequence with its opcode index; the emulator's
//! decoder folds them into the next op so fuel metering and the opcode
//! histogram stay *per IR instruction*, identical to the interpreter.

use lpat_core::{
    BinOp, BlockId, CmpPred, Const, FuncId, Function, Inst, InstId, IntKind, Module, Type, TypeId,
    Value,
};

// ----------------------------------------------------------------------
// Value classes
// ----------------------------------------------------------------------

/// Static class of an SSA value in the native value model.
///
/// Classes ≤ 32 bits live in a register's low word; `S64`, `U64` and
/// `F64` use all 64 bits; `F32` is its bit pattern in the low word.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Class {
    /// `bool`: register holds 0 or 1.
    Bool,
    /// `sbyte`: low word holds the 32-bit sign-extension of the value.
    S8,
    /// `ubyte`: low word holds the zero-extension of the value.
    U8,
    /// `short`.
    S16,
    /// `ushort`.
    U16,
    /// `int`: low word is the value (two's complement).
    S32,
    /// `uint`: low word is the value.
    U32,
    /// Any pointer: low word is the 32-bit address.
    Ptr,
    /// `long`: the register is the value.
    S64,
    /// `ulong`: the register is the value.
    U64,
    /// `float`: low word is the IEEE-754 bit pattern.
    F32,
    /// `double`: the register is the IEEE-754 bit pattern.
    F64,
}

impl Class {
    /// Every class, in code order.
    const ALL: [Class; 12] = [
        Class::Bool,
        Class::S8,
        Class::U8,
        Class::S16,
        Class::U16,
        Class::S32,
        Class::U32,
        Class::Ptr,
        Class::S64,
        Class::U64,
        Class::F32,
        Class::F64,
    ];

    /// Stable numeric code (4 bits) used in instruction `extra` fields
    /// and tables.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Inverse of [`Class::code`].
    pub fn from_code(c: u16) -> Option<Class> {
        Class::ALL.get(c as usize).copied()
    }

    /// Class of an integer kind.
    pub fn of_kind(k: IntKind) -> Class {
        match k {
            IntKind::S8 => Class::S8,
            IntKind::U8 => Class::U8,
            IntKind::S16 => Class::S16,
            IntKind::U16 => Class::U16,
            IntKind::S32 => Class::S32,
            IntKind::U32 => Class::U32,
            IntKind::S64 => Class::S64,
            IntKind::U64 => Class::U64,
        }
    }

    /// The integer kind of an integer class.
    pub fn int_kind(self) -> Option<IntKind> {
        Some(match self {
            Class::S8 => IntKind::S8,
            Class::U8 => IntKind::U8,
            Class::S16 => IntKind::S16,
            Class::U16 => IntKind::U16,
            Class::S32 => IntKind::S32,
            Class::U32 => IntKind::U32,
            Class::S64 => IntKind::S64,
            Class::U64 => IntKind::U64,
            _ => return None,
        })
    }

    /// Bit width of an integer class (shift masking, width flags).
    fn bits(self) -> Option<u16> {
        self.int_kind().map(|k| k.bits() as u16)
    }

    fn is_signed_int(self) -> bool {
        matches!(self, Class::S8 | Class::S16 | Class::S32 | Class::S64)
    }

    fn is_narrow(self) -> bool {
        matches!(self, Class::S8 | Class::U8 | Class::S16 | Class::U16)
    }

    /// Whether the value occupies the whole 64-bit register.
    pub fn is_wide(self) -> bool {
        matches!(self, Class::S64 | Class::U64 | Class::F64)
    }

    /// Whether this is a float class.
    pub fn is_float(self) -> bool {
        matches!(self, Class::F32 | Class::F64)
    }
}

/// The closed set of reasons the translator gives up on a function. The
/// VM counts demotions per reason (`TierStats`), so the set stays small
/// and fixed; the free-form detail travels in [`Bail::detail`].
pub mod bail {
    /// A varargs function or `vaarg`.
    pub const VARARGS: &str = "varargs";
    /// A frame, edge, switch, guard, constant or call-site count past the
    /// encoding's field widths.
    pub const ENCODING_LIMIT: &str = "encoding_limit";
    /// An injected `native.translate` or `tier.deopt` fault (set by the
    /// VM, never by the translator).
    pub const INJECTED_FAULT: &str = "injected_fault";
    /// Anything else (malformed or unsupported IR).
    pub const OTHER: &str = "other";
    /// Every reason, in reporting order.
    pub const ALL: [&str; 4] = [VARARGS, ENCODING_LIMIT, INJECTED_FAULT, OTHER];
}

/// Why a translation gave up: one [`bail`] reason plus the exact
/// construct, for the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bail {
    /// One of [`bail::ALL`].
    pub reason: &'static str,
    /// What the translator refused, in words.
    pub detail: String,
}

impl Bail {
    /// A bail for `reason` with `detail`.
    pub fn new(reason: &'static str, detail: impl Into<String>) -> Bail {
        Bail {
            reason,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Bail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.detail, self.reason)
    }
}

/// Unclassified bails: malformed or unsupported IR.
impl From<&str> for Bail {
    fn from(detail: &str) -> Bail {
        Bail::new(bail::OTHER, detail)
    }
}

impl From<String> for Bail {
    fn from(detail: String) -> Bail {
        Bail::new(bail::OTHER, detail)
    }
}

/// Classify a type: `Ok(None)` for void (no value), `Ok(Some)` for a
/// first-class type, `Err` for an aggregate used as a value.
fn classify(m: &Module, t: TypeId) -> Result<Option<Class>, Bail> {
    Ok(Some(match m.types.ty(t) {
        Type::Void => return Ok(None),
        Type::Bool => Class::Bool,
        Type::Int(k) => Class::of_kind(*k),
        Type::Ptr(_) => Class::Ptr,
        Type::F32 => Class::F32,
        Type::F64 => Class::F64,
        other => return Err(format!("non-scalar value type {other:?}").into()),
    }))
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

/// Binary word formats and opcode assignments of the risc32 executable
/// subset.
///
/// All words are 32 bits, opcode in the top byte. Formats:
///
/// * **R**: `op(8) | rd(5) | ra(5) | rb(5) | extra(9)` — three-address ALU,
///   memory and compare ops; `extra` carries the class/predicate.
/// * **I**: `op(8) | rd(5) | ra(5) | imm14` — immediates, spill-slot
///   traffic, conditional branch (edge index), `ret` flags. `imm14` is
///   signed for `ADDI`/`LDI` and unsigned for indices.
/// * **U**: `op(8) | rd(5) | imm19` — `LUI` loads `imm19 << 13`; paired
///   with `ORI`'s 13-bit immediate it materialises any 32-bit constant in
///   two words (the classic `sethi`/`or` split).
/// * **E**: `op(8) | idx(24)` — edge/descriptor/table references and
///   accounting words.
pub mod enc {
    /// Accounting word (format E): `idx` is the IR opcode index charged
    /// before the next executable op. Decoders fuse it into that op.
    pub const ACCT: u8 = 0x00;
    /// `rd = ra + rb` (wrapping).
    pub const ADD: u8 = 0x01;
    /// `rd = ra - rb` (wrapping).
    pub const SUB: u8 = 0x02;
    /// `rd = ra * rb` (wrapping).
    pub const MUL: u8 = 0x03;
    /// `rd = rd + ra * rb` (wrapping) — GEP address chains.
    pub const MADD: u8 = 0x04;
    /// `rd = ra & rb`.
    pub const AND: u8 = 0x05;
    /// `rd = ra | rb`.
    pub const OR: u8 = 0x06;
    /// `rd = ra ^ rb`.
    pub const XOR: u8 = 0x07;
    /// `rd = ra << (rb & (extra-1))`; `extra` = operand bit width
    /// (8, 16, 32 or 64).
    pub const SLL: u8 = 0x08;
    /// Logical right shift, same masking; reads the low word unless
    /// `extra` is 64.
    pub const SRL: u8 = 0x09;
    /// Arithmetic right shift, same masking and width.
    pub const SRA: u8 = 0x0A;
    /// Signed division (traps DivByZero at run time); `extra` = [`W64`]
    /// for 64-bit operands, else 0 (low words).
    pub const DIVS: u8 = 0x0B;
    /// Unsigned division, same width flag.
    pub const DIVU: u8 = 0x0C;
    /// Signed remainder, same width flag.
    pub const REMS: u8 = 0x0D;
    /// Unsigned remainder, same width flag.
    pub const REMU: u8 = 0x0E;
    /// `rd = ra <pred> rb`; `extra` bits 0–2 = predicate
    /// (eq,ne,lt,gt,le,ge), bit 3 = unsigned compare, bit 4 = 64-bit
    /// operands.
    pub const CMP: u8 = 0x0F;
    /// `rd = (ra != 0)` — casts to bool; `extra` = [`W64`] tests all 64
    /// bits, else the low word.
    pub const SETNZ: u8 = 0x10;
    /// `rd` = the full 64-bit canonical value of `ra`'s low bits read as
    /// the class in `extra` (sign/zero-extend from 8, 16 or 32 bits;
    /// `Bool`/`Ptr` zero-extend). Renormalises narrow arithmetic and
    /// widens to 64-bit integers.
    pub const NORM: u8 = 0x11;
    /// `rd = ra`.
    pub const MOV: u8 = 0x12;
    /// Float arithmetic: `rd = ra <op> rb` through the interpreter's
    /// scalar semantics; `extra` = `BinOp` index | float class code << 4.
    pub const FBIN: u8 = 0x13;
    /// Float compare: `rd = ra <pred> rb` (IEEE unordered rules);
    /// `extra` = `CmpPred` index | float class code << 4.
    pub const FCMP: u8 = 0x14;
    /// Scalar conversion through the interpreter's cast semantics (every
    /// cast to or from a float, and the casts it rejects); `extra` =
    /// source class code | target class code << 4.
    pub const CVT: u8 = 0x15;
    /// `rd = ra + simm14`.
    pub const ADDI: u8 = 0x18;
    /// `rd = simm14`.
    pub const LDI: u8 = 0x19;
    /// `rd = imm19 << 13` (format U).
    pub const LUI: u8 = 0x1A;
    /// `rd = ra | uimm13`.
    pub const ORI: u8 = 0x1B;
    /// `rd = slots[uimm14]` — spill reload.
    pub const LDS: u8 = 0x1C;
    /// `slots[uimm14] = ra` — spill store.
    pub const STS: u8 = 0x1D;
    /// `rd = consts[uimm14]` — a 64-bit constant from the literal pool.
    pub const LDK: u8 = 0x1E;
    /// Memory load: `rd = mem[ra]` at the class in `extra` (full access
    /// checks).
    pub const LD: u8 = 0x20;
    /// Memory store: `mem[ra] = rb` at the class in `extra`.
    pub const ST: u8 = 0x21;
    /// Allocate: `rd = alloc(rb_elem_size × count(ra))`; `extra` bit 0 =
    /// stack (alloca), bit 1 = count-is-one, bit 2 = count unsigned,
    /// bit 3 = 64-bit count.
    pub const ALLOC: u8 = 0x22;
    /// Free the pointer in `ra`.
    pub const FREE: u8 = 0x23;
    /// Unconditional branch through edge `idx` (format E).
    pub const BR: u8 = 0x28;
    /// Branch through edge `uimm14` when `ra != 0`.
    pub const CBNZ: u8 = 0x29;
    /// Multi-way branch: scrutinee `ra`, switch table `uimm14`.
    pub const SWITCH: u8 = 0x2A;
    /// Call through descriptor `idx` (format E).
    pub const CALLD: u8 = 0x2B;
    /// Return; `imm14` bit 0 = has-value, bits 1–4 = value class, value
    /// in `ra`.
    pub const RET: u8 = 0x2C;
    /// Begin unwinding (format E).
    pub const UNWIND: u8 = 0x2D;
    /// Unreachable-executed trap (format E).
    pub const UNREACHABLE: u8 = 0x2E;
    /// Speculation guard on the bool in `ra`, guard table entry `uimm14`:
    /// the engine records the outcome, then branches through the pass
    /// edge, or through the fail edge and deoptimizes.
    pub const GUARD: u8 = 0x2F;

    /// Width flag in `extra` for 64-bit division, remainder and tests.
    pub const W64: u16 = 64;

    /// Hardwired zero register.
    pub const R_ZERO: u8 = 0;
    /// First scratch register (immediates, first spilled operand,
    /// φ-cycle temporary).
    pub const R_S1: u8 = 1;
    /// Second scratch register (second spilled operand).
    pub const R_S2: u8 = 2;
    /// Third scratch register (spilled destinations before `STS`).
    pub const R_S3: u8 = 3;
    /// First allocatable register.
    pub const R_FIRST: u8 = 4;
    /// Register file size.
    pub const NUM_REGS: usize = 32;

    /// Pack an R-format word.
    pub fn r(op: u8, rd: u8, ra: u8, rb: u8, extra: u16) -> u32 {
        debug_assert!(rd < 32 && ra < 32 && rb < 32 && extra < 512);
        (op as u32) << 24 | (rd as u32) << 19 | (ra as u32) << 14 | (rb as u32) << 9 | extra as u32
    }

    /// Pack an I-format word (`imm` already reduced to 14 bits).
    pub fn i(op: u8, rd: u8, ra: u8, imm: u32) -> u32 {
        debug_assert!(rd < 32 && ra < 32 && imm < (1 << 14));
        (op as u32) << 24 | (rd as u32) << 19 | (ra as u32) << 14 | imm
    }

    /// Pack a U-format word.
    pub fn u(op: u8, rd: u8, imm19: u32) -> u32 {
        debug_assert!(rd < 32 && imm19 < (1 << 19));
        (op as u32) << 24 | (rd as u32) << 19 | imm19
    }

    /// Pack an E-format word.
    pub fn e(op: u8, idx: u32) -> u32 {
        debug_assert!(idx < (1 << 24));
        (op as u32) << 24 | idx
    }

    /// Opcode byte of a word.
    pub fn op(w: u32) -> u8 {
        (w >> 24) as u8
    }
    /// `rd` field.
    pub fn rd(w: u32) -> u8 {
        ((w >> 19) & 31) as u8
    }
    /// `ra` field.
    pub fn ra(w: u32) -> u8 {
        ((w >> 14) & 31) as u8
    }
    /// `rb` field.
    pub fn rb(w: u32) -> u8 {
        ((w >> 9) & 31) as u8
    }
    /// R-format `extra` field.
    pub fn extra(w: u32) -> u16 {
        (w & 511) as u16
    }
    /// I-format immediate, sign-extended.
    pub fn simm14(w: u32) -> i32 {
        ((w as i32) << 18) >> 18
    }
    /// I-format immediate, unsigned.
    pub fn uimm14(w: u32) -> u32 {
        w & 0x3FFF
    }
    /// U-format immediate.
    pub fn imm19(w: u32) -> u32 {
        w & 0x7FFFF
    }
    /// E-format index.
    pub fn idx24(w: u32) -> u32 {
        w & 0xFF_FFFF
    }
}

// ----------------------------------------------------------------------
// Side tables
// ----------------------------------------------------------------------

/// A value's permanent storage home.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Home {
    /// An allocatable register (`r4`–`r31`).
    Reg(u8),
    /// A frame spill slot.
    Slot(u16),
}

/// A copy/argument source: a home or a pre-evaluated immediate.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Src {
    /// Read a register.
    Reg(u8),
    /// Read a frame slot.
    Slot(u16),
    /// A constant's register image.
    Imm(u64),
}

impl From<Home> for Src {
    fn from(h: Home) -> Src {
        match h {
            Home::Reg(r) => Src::Reg(r),
            Home::Slot(s) => Src::Slot(s),
        }
    }
}

/// One φ-copy on an edge, already sequentialised (safe to apply in order).
#[derive(Clone, Debug)]
pub struct FastCopy {
    /// Destination home (scratch `r1` appears as `Reg(1)` in cycle breaks).
    pub dst: Home,
    /// Source location or immediate.
    pub src: Src,
}

/// A control-flow edge: φ-copies plus the branch target, with the CFG
/// metadata the profiler and tier ladder need.
#[derive(Clone, Debug)]
pub struct FastEdge {
    /// Sequentialised parallel copy for the target block's φs.
    pub copies: Vec<FastCopy>,
    /// Word index of the target block's first word.
    pub target: u32,
    /// Source block index.
    pub from: u32,
    /// Target block index.
    pub to: u32,
    /// Whether this is a loop back-edge (`to <= from`), the tier ladder's
    /// hotness signal.
    pub back: bool,
}

/// Call target in a descriptor.
#[derive(Clone, Debug)]
pub enum FastCallee {
    /// Statically known function.
    Direct(FuncId),
    /// Function pointer read from `Src` at call time.
    Indirect(Src),
}

/// Out-of-line call descriptor referenced by a [`enc::CALLD`] word.
#[derive(Clone, Debug)]
pub struct FastCall {
    /// Callee.
    pub callee: FastCallee,
    /// Actual arguments with the classes used to rebuild scalar values at
    /// the call boundary.
    pub args: Vec<(Src, Class)>,
    /// Return-value home and class, when the callee's result is used.
    pub dst: Option<(Home, Class)>,
    /// `(normal, unwind)` edge indices for invokes.
    pub eh: Option<(u32, u32)>,
    /// IR instruction id of the call site (profiling key).
    pub site: u32,
}

/// Out-of-line switch table referenced by a [`enc::SWITCH`] word.
#[derive(Clone, Debug)]
pub struct FastSwitch {
    /// `(case value, edge index)`, compared in order. Case constants
    /// share the scrutinee's kind; for ≤ 32-bit kinds both sides are
    /// compared as low words, which equals comparing canonical values.
    pub cases: Vec<(u64, u32)>,
    /// Default edge index.
    pub default: u32,
    /// Whether the scrutinee is a 64-bit integer (compare whole
    /// registers).
    pub wide: bool,
}

/// Out-of-line guard descriptor referenced by a [`enc::GUARD`] word.
#[derive(Clone, Debug)]
pub struct FastGuard {
    /// The speculation overlay's stable guard id.
    pub gid: u32,
    /// Edge index of the speculated fast path (the branch's `then`).
    pub pass: u32,
    /// Edge index of the slow path, where the frame deoptimizes.
    pub fail: u32,
}

/// A translated function: the word buffer plus its side tables.
#[derive(Clone, Debug)]
pub struct FastFunc {
    /// Encoded machine words.
    pub words: Vec<u32>,
    /// Word index of each block's first word (φs emit no code, so this is
    /// also the on-stack-replacement entry point of the block).
    pub block_word: Vec<u32>,
    /// Edge table.
    pub edges: Vec<FastEdge>,
    /// Call descriptors.
    pub calls: Vec<FastCall>,
    /// Switch tables.
    pub switches: Vec<FastSwitch>,
    /// Guard descriptors.
    pub guards: Vec<FastGuard>,
    /// 64-bit literal pool read by [`enc::LDK`].
    pub consts: Vec<u64>,
    /// Number of frame spill slots.
    pub n_slots: u32,
    /// Home and class of each formal argument.
    pub arg_homes: Vec<(Home, Class)>,
    /// Home and class of each value-producing instruction, indexed by
    /// `InstId` — the frame-mapping table for OSR and deoptimization.
    pub homes: Vec<Option<(Home, Class)>>,
    /// Function name (diagnostics, trace spans).
    pub name: String,
}

/// Engine facts the translator needs but must not compute itself: address
/// layout is owned by the VM, speculation state by the optimizer.
pub struct FastEnv<'a> {
    /// Address of a function (for `FuncAddr` constants).
    pub func_addr: &'a dyn Fn(FuncId) -> u32,
    /// Address of a global by index, if the engine has laid it out.
    pub global_addr: &'a dyn Fn(usize) -> Option<u32>,
    /// The guard id when a conditional branch carries a speculation
    /// guard.
    pub guard: &'a dyn Fn(InstId) -> Option<u32>,
}

// ----------------------------------------------------------------------
// Translation
// ----------------------------------------------------------------------

/// Operand as seen during emission.
#[derive(Copy, Clone)]
enum Opnd {
    Home(Home, Class),
    Imm(u64, Class),
}

impl Opnd {
    fn class(&self) -> Class {
        match *self {
            Opnd::Home(_, c) | Opnd::Imm(_, c) => c,
        }
    }
    fn src(&self) -> Src {
        match *self {
            Opnd::Home(h, _) => h.into(),
            Opnd::Imm(k, _) => Src::Imm(k),
        }
    }
}

struct Tr<'a> {
    m: &'a Module,
    f: &'a Function,
    env: &'a FastEnv<'a>,
    words: Vec<u32>,
    block_word: Vec<u32>,
    edges: Vec<FastEdge>,
    calls: Vec<FastCall>,
    switches: Vec<FastSwitch>,
    guards: Vec<FastGuard>,
    consts: Vec<u64>,
    homes: Vec<Option<(Home, Class)>>,
    arg_homes: Vec<(Home, Class)>,
    n_slots: u32,
}

/// Translate one function to native words in a single forward pass.
///
/// `Err` means "this function stays in the interpreter" — varargs,
/// encoding limits or malformed IR. The [`Bail`] names the first reason
/// encountered.
pub fn translate_fast(m: &Module, fid: FuncId, env: &FastEnv) -> Result<FastFunc, Bail> {
    let f = m.func(fid);
    if f.is_declaration() {
        return Err("declaration has no body".into());
    }
    if f.is_varargs() {
        // Native frames carry no vararg vector; `va_arg` callees stay in
        // the interpreter.
        return Err(Bail::new(bail::VARARGS, "varargs function"));
    }

    // -- classes -------------------------------------------------------
    let mut arg_classes = Vec::with_capacity(f.num_params());
    for &p in f.params() {
        match classify(m, p)? {
            Some(c) => arg_classes.push(c),
            None => return Err("void parameter".into()),
        }
    }
    let n_insts = f.num_inst_slots();
    let mut inst_class: Vec<Option<Class>> = vec![None; n_insts];
    for b in f.block_ids() {
        for &iid in f.block_insts(b) {
            inst_class[iid.index()] = classify(m, f.inst_ty(iid))?;
        }
    }

    // -- loop weights + use counts (one counting sweep, no liveness) ---
    // A back-edge span [to, from] approximates a loop; a block's depth is
    // the number of spans containing it, and uses are weighted 4^depth so
    // loop-carried values win the register file.
    let mut spans: Vec<(u32, u32)> = Vec::new();
    for b in f.block_ids() {
        let bi = b.index() as u32;
        if let Some(&last) = f.block_insts(b).last() {
            for t in term_targets(f.inst(last)) {
                let ti = t.index() as u32;
                if ti <= bi {
                    spans.push((ti, bi));
                }
            }
        }
    }
    let weight = |b: BlockId| -> u64 {
        let x = b.index() as u32;
        let d = spans.iter().filter(|&&(t, fr)| t <= x && x <= fr).count();
        4u64.saturating_pow(d.min(8) as u32)
    };
    let mut arg_prio = vec![0u64; arg_classes.len()];
    let mut inst_prio = vec![0u64; n_insts];
    for b in f.block_ids() {
        let w = weight(b);
        for &iid in f.block_insts(b) {
            let inst = f.inst(iid);
            if inst_class[iid.index()].is_some() {
                inst_prio[iid.index()] = inst_prio[iid.index()].saturating_add(w);
            }
            if let Inst::Phi { incoming } = inst {
                for &(v, pred) in incoming {
                    bump(&mut arg_prio, &mut inst_prio, v, weight(pred));
                }
            } else {
                for v in operand_values(inst) {
                    bump(&mut arg_prio, &mut inst_prio, v, w);
                }
            }
        }
    }

    // -- home assignment (priority order, top 28 in registers) ---------
    // kind 0 = arg, 1 = inst; sort is stable on (priority desc, id) so
    // the mapping is deterministic.
    let mut cand: Vec<(u64, u8, u32)> = Vec::new();
    for (i, _) in arg_classes.iter().enumerate() {
        cand.push((arg_prio[i].max(1), 0, i as u32));
    }
    for i in 0..n_insts {
        if inst_class[i].is_some() {
            cand.push((inst_prio[i].max(1), 1, i as u32));
        }
    }
    cand.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let n_regs_avail = enc::NUM_REGS - enc::R_FIRST as usize;
    let mut homes: Vec<Option<(Home, Class)>> = vec![None; n_insts];
    let mut arg_homes: Vec<(Home, Class)> = Vec::with_capacity(arg_classes.len());
    arg_homes.resize(arg_classes.len(), (Home::Slot(0), Class::S32));
    let mut next_slot: u32 = 0;
    for (rank, &(_, kind, id)) in cand.iter().enumerate() {
        let home = if rank < n_regs_avail {
            Home::Reg(enc::R_FIRST + rank as u8)
        } else {
            let s = next_slot;
            next_slot += 1;
            if s > 16_000 {
                return Err(Bail::new(
                    bail::ENCODING_LIMIT,
                    "frame too large for slot encoding",
                ));
            }
            Home::Slot(s as u16)
        };
        if kind == 0 {
            arg_homes[id as usize] = (home, arg_classes[id as usize]);
        } else {
            homes[id as usize] = Some((home, inst_class[id as usize].unwrap()));
        }
    }

    let mut tr = Tr {
        m,
        f,
        env,
        words: Vec::new(),
        block_word: Vec::new(),
        edges: Vec::new(),
        calls: Vec::new(),
        switches: Vec::new(),
        guards: Vec::new(),
        consts: Vec::new(),
        homes,
        arg_homes,
        n_slots: next_slot,
    };

    // -- emission: one forward walk ------------------------------------
    for b in f.block_ids() {
        tr.block_word.push(tr.words.len() as u32);
        let insts = f.block_insts(b);
        if insts.is_empty() {
            return Err("block without terminator".into());
        }
        for &iid in insts {
            tr.emit_inst(b, iid)?;
        }
    }

    // Resolve edge targets now that every block's word offset is known
    // (the only fixup in the pass; TPDE does the same for forward jumps).
    for e in &mut tr.edges {
        e.target = tr.block_word[e.to as usize];
    }

    Ok(FastFunc {
        words: tr.words,
        block_word: tr.block_word,
        edges: tr.edges,
        calls: tr.calls,
        switches: tr.switches,
        guards: tr.guards,
        consts: tr.consts,
        n_slots: tr.n_slots,
        arg_homes: tr.arg_homes,
        homes: tr.homes,
        name: f.name.clone(),
    })
}

fn bump(args: &mut [u64], insts: &mut [u64], v: Value, w: u64) {
    match v {
        Value::Arg(a) => {
            if let Some(p) = args.get_mut(a as usize) {
                *p = p.saturating_add(w);
            }
        }
        Value::Inst(i) => {
            if let Some(p) = insts.get_mut(i.index()) {
                *p = p.saturating_add(w);
            }
        }
        Value::Const(_) => {}
    }
}

fn term_targets(inst: &Inst) -> Vec<BlockId> {
    match inst {
        Inst::Br(t) => vec![*t],
        Inst::CondBr {
            then_bb, else_bb, ..
        } => vec![*then_bb, *else_bb],
        Inst::Switch { default, cases, .. } => {
            let mut v = vec![*default];
            v.extend(cases.iter().map(|&(_, b)| b));
            v
        }
        Inst::Invoke { normal, unwind, .. } => vec![*normal, *unwind],
        _ => Vec::new(),
    }
}

fn operand_values(inst: &Inst) -> Vec<Value> {
    match inst {
        Inst::Ret(v) => v.iter().copied().collect(),
        Inst::Br(_) | Inst::Unwind | Inst::Unreachable | Inst::VaArg { .. } => Vec::new(),
        Inst::CondBr { cond, .. } => vec![*cond],
        Inst::Switch { val, .. } => vec![*val],
        Inst::Invoke { callee, args, .. } | Inst::Call { callee, args } => {
            let mut v = vec![*callee];
            v.extend_from_slice(args);
            v
        }
        Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
        Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => count.iter().copied().collect(),
        Inst::Free(p) => vec![*p],
        Inst::Load { ptr } => vec![*ptr],
        Inst::Store { val, ptr } => vec![*val, *ptr],
        Inst::Gep { ptr, indices } => {
            let mut v = vec![*ptr];
            v.extend_from_slice(indices);
            v
        }
        Inst::Phi { incoming } => incoming.iter().map(|&(v, _)| v).collect(),
        Inst::Cast { val, .. } => vec![*val],
    }
}

impl<'a> Tr<'a> {
    fn word(&mut self, w: u32) {
        self.words.push(w);
    }

    fn acct(&mut self, inst: &Inst) {
        self.word(enc::e(enc::ACCT, inst.opcode_index() as u32));
    }

    /// Evaluate a `Value` to an operand (no code emitted).
    fn opnd(&mut self, v: Value) -> Result<Opnd, Bail> {
        match v {
            Value::Inst(i) => self.homes[i.index()]
                .map(|(h, c)| Opnd::Home(h, c))
                .ok_or_else(|| "use of void value".into()),
            Value::Arg(a) => self
                .arg_homes
                .get(a as usize)
                .map(|&(h, c)| Opnd::Home(h, c))
                .ok_or_else(|| "argument out of range".into()),
            Value::Const(c) => self.const_opnd(c),
        }
    }

    fn const_opnd(&mut self, c: lpat_core::ConstId) -> Result<Opnd, Bail> {
        Ok(match self.m.consts.get(c) {
            Const::Bool(b) => Opnd::Imm(*b as u64, Class::Bool),
            Const::Int { kind, value } => Opnd::Imm(*value as u64, Class::of_kind(*kind)),
            Const::F32(bits) => Opnd::Imm(*bits as u64, Class::F32),
            Const::F64(bits) => Opnd::Imm(*bits, Class::F64),
            Const::Null(_) => Opnd::Imm(0, Class::Ptr),
            Const::Undef(t) | Const::Zero(t) => match classify(self.m, *t)? {
                Some(cl) => Opnd::Imm(0, cl),
                None => return Err("void constant".into()),
            },
            Const::FuncAddr(f) => Opnd::Imm((self.env.func_addr)(*f) as u64, Class::Ptr),
            Const::GlobalAddr(g) => match (self.env.global_addr)(g.index()) {
                Some(addr) => Opnd::Imm(addr as u64, Class::Ptr),
                None => return Err("global address unavailable".into()),
            },
            other => return Err(format!("aggregate constant {other:?} as scalar").into()),
        })
    }

    /// Materialise a constant of class `class` into `rd`. Low-word
    /// classes take `LDI` or the `LUI`/`ORI` pair; a whole-register value
    /// outside `LDI`'s sign-extended range comes from the literal pool.
    fn load_imm(&mut self, rd: u8, k: u64, class: Class) -> Result<(), Bail> {
        let small = (-(1 << 13)..(1 << 13)).contains(&(k as i64));
        if class.is_wide() && !small {
            let idx = self.consts.len() as u32;
            if idx >= (1 << 14) {
                return Err(Bail::new(bail::ENCODING_LIMIT, "literal pool full"));
            }
            self.consts.push(k);
            self.word(enc::i(enc::LDK, rd, 0, idx));
            return Ok(());
        }
        let k = k as u32;
        let v = k as i32;
        if (-(1 << 13)..(1 << 13)).contains(&v) {
            self.word(enc::i(enc::LDI, rd, 0, (v as u32) & 0x3FFF));
        } else {
            self.word(enc::u(enc::LUI, rd, k >> 13));
            if k & 0x1FFF != 0 {
                self.word(enc::i(enc::ORI, rd, rd, k & 0x1FFF));
            }
        }
        Ok(())
    }

    /// Bring an operand into a register, spilling through `scratch` when
    /// it lives in a slot or is a constant. Returns the register to read.
    fn use_reg(&mut self, o: Opnd, scratch: u8) -> Result<u8, Bail> {
        Ok(match o {
            Opnd::Home(Home::Reg(r), _) => r,
            Opnd::Home(Home::Slot(s), _) => {
                self.word(enc::i(enc::LDS, scratch, 0, s as u32));
                scratch
            }
            Opnd::Imm(0, _) => enc::R_ZERO,
            Opnd::Imm(k, class) => {
                self.load_imm(scratch, k, class)?;
                scratch
            }
        })
    }

    /// Register to compute a destination into; the closer writes it back
    /// to the slot when the home is spilled.
    fn dst_reg(&self, iid: InstId) -> Option<(u8, Option<u16>)> {
        self.homes[iid.index()].map(|(h, _)| match h {
            Home::Reg(r) => (r, None),
            Home::Slot(s) => (enc::R_S3, Some(s)),
        })
    }

    fn dst_done(&mut self, spill: Option<u16>) {
        if let Some(s) = spill {
            self.word(enc::i(enc::STS, 0, enc::R_S3, s as u32));
        }
    }

    fn norm_if_narrow(&mut self, class: Class, rd: u8) {
        if class.is_narrow() {
            self.word(enc::r(enc::NORM, rd, rd, 0, class.code()));
        }
    }

    fn make_edge(&mut self, from: BlockId, to: BlockId) -> Result<u32, Bail> {
        let mut moves: Vec<(Home, Src)> = Vec::new();
        for &iid in self.f.block_insts(to) {
            if let Inst::Phi { incoming } = self.f.inst(iid) {
                let Some((dst, _)) = self.homes[iid.index()] else {
                    continue;
                };
                let Some(&(v, _)) = incoming.iter().find(|&&(_, p)| p == from) else {
                    return Err("phi missing incoming for edge".into());
                };
                let src = self.opnd(v)?.src();
                if Src::from(dst) != src {
                    moves.push((dst, src));
                }
            }
        }
        let copies = sequentialize(moves);
        let idx = self.edges.len() as u32;
        if idx >= (1 << 14) {
            return Err(Bail::new(
                bail::ENCODING_LIMIT,
                "too many edges for encoding",
            ));
        }
        self.edges.push(FastEdge {
            copies,
            target: 0,
            from: from.index() as u32,
            to: to.index() as u32,
            back: to.index() <= from.index(),
        });
        Ok(idx)
    }

    fn emit_inst(&mut self, b: BlockId, iid: InstId) -> Result<(), Bail> {
        let inst = self.f.inst(iid);
        match inst {
            Inst::Phi { .. } => Ok(()), // edges carry φs; no code, no charge
            Inst::Br(t) => {
                self.acct(inst);
                let e = self.make_edge(b, *t)?;
                self.word(enc::e(enc::BR, e));
                Ok(())
            }
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                self.acct(inst);
                let c = self.opnd(*cond)?;
                if c.class() != Class::Bool {
                    return Err("condbr on non-bool".into());
                }
                let cr = self.use_reg(c, enc::R_S1)?;
                let et = self.make_edge(b, *then_bb)?;
                let ee = self.make_edge(b, *else_bb)?;
                if let Some(gid) = (self.env.guard)(iid) {
                    let gi = self.guards.len() as u32;
                    if gi >= (1 << 14) {
                        return Err(Bail::new(bail::ENCODING_LIMIT, "too many guards"));
                    }
                    self.guards.push(FastGuard {
                        gid,
                        pass: et,
                        fail: ee,
                    });
                    self.word(enc::i(enc::GUARD, 0, cr, gi));
                } else {
                    self.word(enc::i(enc::CBNZ, 0, cr, et));
                    self.word(enc::e(enc::BR, ee));
                }
                Ok(())
            }
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                self.acct(inst);
                let v = self.opnd(*val)?;
                let vc = v.class();
                let Some(kind) = vc.int_kind() else {
                    return Err("switch scrutinee class".into());
                };
                let vr = self.use_reg(v, enc::R_S1)?;
                let mut tbl = FastSwitch {
                    cases: Vec::with_capacity(cases.len()),
                    default: self.make_edge(b, *default)?,
                    wide: vc.is_wide(),
                };
                for &(c, t) in cases {
                    let Some((k, cv)) = self.m.consts.as_int(c) else {
                        return Err("non-integer switch case".into());
                    };
                    if k != kind {
                        return Err("switch case kind mismatch".into());
                    }
                    let cv = if tbl.wide {
                        cv as u64
                    } else {
                        cv as u32 as u64
                    };
                    tbl.cases.push((cv, self.make_edge(b, t)?));
                }
                let ti = self.switches.len() as u32;
                if ti >= (1 << 14) {
                    return Err(Bail::new(bail::ENCODING_LIMIT, "too many switch tables"));
                }
                self.switches.push(tbl);
                self.word(enc::i(enc::SWITCH, 0, vr, ti));
                Ok(())
            }
            Inst::Ret(v) => {
                self.acct(inst);
                match v {
                    None => self.word(enc::i(enc::RET, 0, 0, 0)),
                    Some(v) => {
                        let o = self.opnd(*v)?;
                        let r = self.use_reg(o, enc::R_S1)?;
                        self.word(enc::i(enc::RET, 0, r, 1 | (o.class().code() as u32) << 1));
                    }
                }
                Ok(())
            }
            Inst::Unwind => {
                self.acct(inst);
                self.word(enc::e(enc::UNWIND, 0));
                Ok(())
            }
            Inst::Unreachable => {
                self.acct(inst);
                self.word(enc::e(enc::UNREACHABLE, 0));
                Ok(())
            }
            Inst::Bin { op, lhs, rhs } => self.emit_bin(iid, *op, *lhs, *rhs, inst),
            Inst::Cmp { pred, lhs, rhs } => self.emit_cmp(iid, *pred, *lhs, *rhs, inst),
            Inst::Cast { val, to } => self.emit_cast(iid, *val, *to, inst),
            Inst::Load { ptr } => {
                self.acct(inst);
                let Some((_, class)) = self.homes[iid.index()] else {
                    return Err("void load".into());
                };
                let p = self.opnd(*ptr)?;
                if p.class() != Class::Ptr {
                    return Err("load address class".into());
                }
                let pr = self.use_reg(p, enc::R_S1)?;
                let Some((rd, spill)) = self.dst_reg(iid) else {
                    return Err("void load".into());
                };
                self.word(enc::r(enc::LD, rd, pr, 0, class.code()));
                self.dst_done(spill);
                Ok(())
            }
            Inst::Store { val, ptr } => {
                self.acct(inst);
                let v = self.opnd(*val)?;
                let p = self.opnd(*ptr)?;
                if p.class() != Class::Ptr {
                    return Err("store address class".into());
                }
                let pr = self.use_reg(p, enc::R_S1)?;
                let vr = self.use_reg(v, enc::R_S2)?;
                self.word(enc::r(enc::ST, 0, pr, vr, v.class().code()));
                Ok(())
            }
            Inst::Gep { ptr, indices } => self.emit_gep(b, iid, *ptr, indices, inst),
            Inst::Malloc { count, .. } | Inst::Alloca { count, .. } => {
                self.acct(inst);
                let stack = matches!(inst, Inst::Alloca { .. });
                let elem_ty = match inst {
                    Inst::Malloc { elem_ty, .. } | Inst::Alloca { elem_ty, .. } => *elem_ty,
                    _ => unreachable!(),
                };
                let elem_size = self
                    .m
                    .types
                    .try_size_of(elem_ty)
                    .ok_or("allocation of unsized type")?;
                let elem32: u32 = elem_size.try_into().map_err(|_| "giant element type")?;
                let mut extra: u16 = if stack { 1 } else { 0 };
                let cr = match count {
                    None => {
                        extra |= 2;
                        enc::R_ZERO
                    }
                    Some(cv) => {
                        let c = self.opnd(*cv)?;
                        match c.class() {
                            Class::U32 => extra |= 4,
                            Class::S64 | Class::U64 => extra |= 8,
                            Class::Bool
                            | Class::S8
                            | Class::U8
                            | Class::S16
                            | Class::U16
                            | Class::S32 => {}
                            _ => return Err("allocation count class".into()),
                        }
                        self.use_reg(c, enc::R_S1)?
                    }
                };
                self.load_imm(enc::R_S2, elem32 as u64, Class::U32)?;
                let Some((rd, spill)) = self.dst_reg(iid) else {
                    return Err("void allocation".into());
                };
                self.word(enc::r(enc::ALLOC, rd, cr, enc::R_S2, extra));
                self.dst_done(spill);
                Ok(())
            }
            Inst::Free(p) => {
                self.acct(inst);
                let o = self.opnd(*p)?;
                if o.class() != Class::Ptr {
                    return Err("free of non-pointer".into());
                }
                let r = self.use_reg(o, enc::R_S1)?;
                self.word(enc::r(enc::FREE, 0, r, 0, 0));
                Ok(())
            }
            Inst::Call { callee, args } => self.emit_call(b, iid, *callee, args, None, inst),
            Inst::Invoke {
                callee,
                args,
                normal,
                unwind,
            } => {
                let en = self.make_edge(b, *normal)?;
                let eu = self.make_edge(b, *unwind)?;
                self.emit_call(b, iid, *callee, args, Some((en, eu)), inst)
            }
            Inst::VaArg { .. } => Err(Bail::new(bail::VARARGS, "vaarg")),
        }
    }

    fn emit_bin(
        &mut self,
        iid: InstId,
        op: BinOp,
        lhs: Value,
        rhs: Value,
        inst: &Inst,
    ) -> Result<(), Bail> {
        let Some((_, class)) = self.homes[iid.index()] else {
            return Err("void bin".into());
        };
        let l = self.opnd(lhs)?;
        let r = self.opnd(rhs)?;
        if l.class() != class || r.class() != class {
            return Err("bin operand class mismatch".into());
        }
        match class {
            Class::Bool if !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) => {
                return Err("arith on bool".into());
            }
            Class::Ptr => return Err("arith on pointer".into()),
            _ => {}
        }
        self.acct(inst);
        let la = self.use_reg(l, enc::R_S1)?;
        let rb = self.use_reg(r, enc::R_S2)?;
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void bin".into());
        };
        if class.is_float() {
            let extra = op as u16 | class.code() << 4;
            self.word(enc::r(enc::FBIN, rd, la, rb, extra));
            self.dst_done(spill);
            return Ok(());
        }
        let bits = class.bits().unwrap_or(32);
        let w64 = if bits == 64 { enc::W64 } else { 0 };
        let signed = class.is_signed_int();
        let (word_op, extra, renorm) = match op {
            BinOp::Add => (enc::ADD, 0, true),
            BinOp::Sub => (enc::SUB, 0, true),
            BinOp::Mul => (enc::MUL, 0, true),
            BinOp::And => (enc::AND, 0, false),
            BinOp::Or => (enc::OR, 0, false),
            BinOp::Xor => (enc::XOR, 0, false),
            BinOp::Shl => (enc::SLL, bits, true),
            BinOp::Shr if signed => (enc::SRA, bits, true),
            BinOp::Shr => (enc::SRL, bits, false),
            BinOp::Div if signed => (enc::DIVS, w64, true),
            BinOp::Div => (enc::DIVU, w64, false),
            BinOp::Rem if signed => (enc::REMS, w64, true),
            BinOp::Rem => (enc::REMU, w64, false),
        };
        self.word(enc::r(word_op, rd, la, rb, extra));
        if renorm {
            self.norm_if_narrow(class, rd);
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_cmp(
        &mut self,
        iid: InstId,
        pred: CmpPred,
        lhs: Value,
        rhs: Value,
        inst: &Inst,
    ) -> Result<(), Bail> {
        let l = self.opnd(lhs)?;
        let r = self.opnd(rhs)?;
        let c = l.class();
        if r.class() != c {
            return Err("cmp operand class mismatch".into());
        }
        self.acct(inst);
        let la = self.use_reg(l, enc::R_S1)?;
        let rb = self.use_reg(r, enc::R_S2)?;
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void cmp".into());
        };
        let word = if c.is_float() {
            enc::r(enc::FCMP, rd, la, rb, pred as u16 | c.code() << 4)
        } else {
            // Canonical values order exactly like their register images
            // under the matching signedness and width; pointers and bools
            // compare unsigned.
            let unsigned = if c.is_signed_int() { 0 } else { 8 };
            let wide = if c.is_wide() { 16 } else { 0 };
            enc::r(enc::CMP, rd, la, rb, pred as u16 | unsigned | wide)
        };
        self.word(word);
        self.dst_done(spill);
        Ok(())
    }

    fn emit_cast(&mut self, iid: InstId, val: Value, to: TypeId, inst: &Inst) -> Result<(), Bail> {
        let Some(tc) = classify(self.m, to)? else {
            return Err("cast to void".into());
        };
        let v = self.opnd(val)?;
        let fc = v.class();
        self.acct(inst);
        let r = self.use_reg(v, enc::R_S1)?;
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void cast".into());
        };
        let word = match tc {
            // Floats, and the casts the interpreter rejects, go through
            // its own cast semantics.
            _ if fc.is_float() || tc.is_float() || (fc, tc) == (Class::Bool, Class::Ptr) => {
                enc::r(enc::CVT, rd, r, 0, fc.code() | tc.code() << 4)
            }
            // `!= 0` over the source's width.
            Class::Bool => enc::r(
                enc::SETNZ,
                rd,
                r,
                0,
                if fc.is_wide() { enc::W64 } else { 0 },
            ),
            // Low word carried over unchanged: int→ptr truncates,
            // ptr→int zero-extends, 64→32 truncates — in every case the
            // canonical low word is the source's low word.
            Class::Ptr | Class::S32 | Class::U32 => enc::r(enc::MOV, rd, r, 0, 0),
            Class::S8 | Class::U8 | Class::S16 | Class::U16 => {
                enc::r(enc::NORM, rd, r, 0, tc.code())
            }
            // Widening: the source's canonical 64-bit value is already the
            // target's (S64 and U64 share bit patterns).
            _ if fc.is_wide() => enc::r(enc::MOV, rd, r, 0, 0),
            _ => enc::r(enc::NORM, rd, r, 0, fc.code()),
        };
        self.word(word);
        self.dst_done(spill);
        Ok(())
    }

    fn emit_gep(
        &mut self,
        _b: BlockId,
        iid: InstId,
        ptr: Value,
        indices: &[Value],
        inst: &Inst,
    ) -> Result<(), Bail> {
        let tys = &self.m.types;
        let base = self.opnd(ptr)?;
        if base.class() != Class::Ptr {
            return Err("gep base class".into());
        }
        // Fold constant indices into a static offset, keep `(value,
        // scale)` pairs for the rest. Only the low 32 bits of the offset
        // are observable, so every index contributes through its low word.
        let mut cur = tys
            .pointee(self.m.value_type(self.f, ptr))
            .ok_or("gep base not a pointer")?;
        let mut const_off: i64 = 0;
        let mut scaled: Vec<(Opnd, i64)> = Vec::new();
        for (k, &idx) in indices.iter().enumerate() {
            let const_v = match idx {
                Value::Const(c) => self.m.consts.as_int(c).map(|(_, v)| v),
                _ => None,
            };
            if k == 0 {
                let scale = tys.try_size_of(cur).ok_or("gep through unsized type")? as i64;
                match const_v {
                    Some(v) => const_off = const_off.wrapping_add(v.wrapping_mul(scale)),
                    None => scaled.push((self.opnd(idx)?, scale)),
                }
                continue;
            }
            match tys.ty(cur).clone() {
                Type::Struct { fields, .. } => {
                    let fi = const_v.ok_or("dynamic struct index")? as usize;
                    if fi >= fields.len() || tys.try_size_of(cur).is_none() {
                        return Err("struct index out of range".into());
                    }
                    const_off = const_off.wrapping_add(tys.field_offset(cur, fi) as i64);
                    cur = fields[fi];
                }
                Type::Array { elem, .. } => {
                    let scale = tys.try_size_of(elem).ok_or("gep through unsized type")? as i64;
                    match const_v {
                        Some(v) => const_off = const_off.wrapping_add(v.wrapping_mul(scale)),
                        None => scaled.push((self.opnd(idx)?, scale)),
                    }
                    cur = elem;
                }
                _ => return Err("gep into scalar".into()),
            }
        }
        for (o, _) in &scaled {
            if o.class() != Class::Bool && o.class().int_kind().is_none() {
                return Err("gep index class".into());
            }
        }
        self.acct(inst);
        let br = self.use_reg(base, enc::R_S1)?;
        let Some((rd, spill)) = self.dst_reg(iid) else {
            return Err("void gep".into());
        };
        // dst = base + const_off, then dst += idx · scale per dynamic
        // index. Homes are unique, so rd never aliases a live operand.
        let off = const_off as u32;
        if off == 0 {
            if rd != br {
                self.word(enc::r(enc::MOV, rd, br, 0, 0));
            }
        } else if (-(1 << 13)..(1 << 13)).contains(&(off as i32)) {
            self.word(enc::i(enc::ADDI, rd, br, off & 0x3FFF));
        } else {
            self.load_imm(enc::R_S2, off as u64, Class::U32)?;
            self.word(enc::r(enc::ADD, rd, br, enc::R_S2, 0));
        }
        for (o, scale) in scaled {
            let ir = self.use_reg(o, enc::R_S1)?;
            self.load_imm(enc::R_S2, scale as u32 as u64, Class::U32)?;
            self.word(enc::r(enc::MADD, rd, ir, enc::R_S2, 0));
        }
        self.dst_done(spill);
        Ok(())
    }

    fn emit_call(
        &mut self,
        _b: BlockId,
        iid: InstId,
        callee: Value,
        args: &[Value],
        eh: Option<(u32, u32)>,
        inst: &Inst,
    ) -> Result<(), Bail> {
        let callee = if let Value::Const(c) = callee {
            if let Const::FuncAddr(f) = self.m.consts.get(c) {
                FastCallee::Direct(*f)
            } else {
                let o = self.const_opnd(c)?;
                FastCallee::Indirect(o.src())
            }
        } else {
            let o = self.opnd(callee)?;
            if o.class() != Class::Ptr {
                return Err("indirect callee class".into());
            }
            FastCallee::Indirect(o.src())
        };
        let mut argv = Vec::with_capacity(args.len());
        for &a in args {
            let o = self.opnd(a)?;
            argv.push((o.src(), o.class()));
        }
        self.acct(inst);
        let di = self.calls.len() as u32;
        if di >= (1 << 24) {
            return Err(Bail::new(bail::ENCODING_LIMIT, "too many call sites"));
        }
        self.calls.push(FastCall {
            callee,
            args: argv,
            dst: self.homes[iid.index()],
            eh,
            site: iid.index() as u32,
        });
        self.word(enc::e(enc::CALLD, di));
        Ok(())
    }
}

/// Sequentialise a parallel copy: emit ready moves (destination not read
/// by any pending move) first; break each remaining cycle with the `r1`
/// scratch and drain it fully before touching the next cycle, so the
/// scratch is never live across two cycles.
fn sequentialize(mut pend: Vec<(Home, Src)>) -> Vec<FastCopy> {
    let mut out = Vec::with_capacity(pend.len());
    loop {
        let mut progress = true;
        while progress {
            progress = false;
            let mut i = 0;
            while i < pend.len() {
                let d = pend[i].0;
                let blocked = pend
                    .iter()
                    .enumerate()
                    .any(|(j, (_, s))| j != i && *s == Src::from(d));
                if !blocked {
                    let (dst, src) = pend.remove(i);
                    out.push(FastCopy { dst, src });
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
        if pend.is_empty() {
            return out;
        }
        // Every pending destination is still read by someone: cycles.
        // Park one destination in scratch, retarget its readers, repeat.
        let (d0, s0) = pend.remove(0);
        let tmp = Home::Reg(enc::R_S1);
        out.push(FastCopy {
            dst: tmp,
            src: d0.into(),
        });
        for (_, s) in pend.iter_mut() {
            if *s == Src::from(d0) {
                *s = tmp.into();
            }
        }
        out.push(FastCopy { dst: d0, src: s0 });
    }
}
