//! # The translated tier: a fuel-metered risc32 machine-code emulator
//!
//! Runs the binary words produced by `lpat_codegen::fast` (see that
//! module for the value model and encoding). The words are **decoded
//! once** at translation time into a dense op array — the standard
//! pre-decoded-dispatch technique — so the hot loop is a flat `u64`
//! register file, a `match` on an op byte, and wrapping integer
//! arithmetic: no tagged values, no `Option`, no per-operand enum walk.
//!
//! ## Exact observational parity
//!
//! The contract with the interpreter (enforced by `tests/tiered.rs`) is
//! that output, return value, trap kind, remaining fuel, the opcode
//! histogram and profile counters are identical:
//!
//! * **fuel / histogram** — every decoded op carries the accounting tag
//!   ([`lpat_codegen::fast::enc::ACCT`]) of the IR instruction it begins,
//!   charged through [`Vm::charge`] *before* the op executes, so
//!   fuel exhaustion traps on exactly the same IR instruction as the
//!   interpreter and each IR instruction is charged exactly once;
//! * **memory traps** — loads/stores go through the same [`Memory`]
//!   access checks (NullAccess / BadAccess / OutOfMemory), at the same
//!   width;
//! * **arithmetic traps** — division/remainder by zero trap with the
//!   interpreter's messages; wrapping 32- and 64-bit arithmetic matches
//!   canonical `i64` arithmetic bit-for-bit for every integer class;
//! * **floats** — arithmetic, compares and casts decode the register bits
//!   into scalars and call the interpreter's own helpers
//!   ([`crate::interp::exec_bin`], [`crate::interp::exec_cmp`],
//!   [`crate::interp::cast_to`]);
//! * **calls / unwinding** — call boundaries rebuild real `VmValue`
//!   scalars from class-tagged registers, so externals, profile
//!   counters, invoke edges and unwinding behave identically;
//! * **guards** — a `GUARD` op records its outcome through
//!   [`Vm::guard_check`], like the interpreter; a failing guard takes the
//!   slow edge and reports [`Flow::Deopt`], and the tier ladder rebuilds
//!   an interpreter frame from the home table ([`NatFrame::interp_regs`]).
//!
//! ## Boundary fallbacks
//!
//! A native frame is only built when every actual argument matches the
//! declared parameter class ([`Vm::make_native_frame`] returns `None`
//! otherwise and the caller interprets that activation, which handles
//! any value). The one boundary with no fallback is a *returned* value
//! of the wrong kind reaching a waiting native frame — possible only in
//! unverified, type-confused modules — which traps as `Invalid` rather
//! than silently reinterpreting bits (documented in DESIGN.md §16).

use std::cell::Cell;
use std::rc::Rc;

use lpat_codegen::fast::{
    bail, enc, translate_fast, Bail, Class, FastCall, FastCallee, FastCopy, FastEnv, FastFunc,
    FastGuard, FastSwitch, Home, Src,
};
use lpat_core::trace;
use lpat_core::{BinOp, BlockId, CmpPred, FuncId, InstId, Type, TypeId};

use crate::error::{ExecError, TrapKind};
use crate::interp::{Frame, Vm};
use crate::mem::Memory;
use crate::tier::Tier;
use crate::value::VmValue;

// ----------------------------------------------------------------------
// Decoded form
// ----------------------------------------------------------------------

/// One pre-decoded op. `imm` is pre-massaged per op (sign-extended for
/// `ADDI`/`LDI`, shifted for `LUI`, the pool entry for `LDK`, raw index
/// otherwise); `acct` is the IR opcode index + 1 to charge before
/// executing, 0 for none.
#[derive(Copy, Clone)]
struct NOp {
    op: u8,
    a: u8,
    b: u8,
    c: u8,
    extra: u16,
    acct: u16,
    imm: u64,
}

/// A decoded edge: φ-copies (already sequentialised by the encoder) and
/// the decoded-index branch target.
struct NatEdge {
    copies: Vec<FastCopy>,
    target: u32,
    from: u32,
    to: u32,
}

/// A decoded call descriptor with its inline cache.
struct NatCall {
    desc: FastCall,
    ic: Cell<(u32, u32)>,
}

/// A function's decoded native code plus the home tables that make frame
/// conversion (entry, OSR, deoptimization) a table-driven copy.
pub(crate) struct NatCode {
    ops: Vec<NOp>,
    /// Decoded-op index of each block start (the OSR entry points).
    block_dec: Vec<u32>,
    edges: Vec<NatEdge>,
    calls: Vec<NatCall>,
    switches: Vec<FastSwitch>,
    guards: Vec<FastGuard>,
    n_slots: u32,
    arg_homes: Vec<(Home, Class)>,
    homes: Vec<Option<(Home, Class)>>,
}

/// Decode the word buffer into the dense dispatch form. Accounting words
/// disappear into the following op's `acct` tag; `LUI` and `LDK` become
/// `LDI` with the full immediate; branch targets are remapped from word
/// indices to decoded indices.
fn decode(ff: FastFunc) -> NatCode {
    let mut ops: Vec<NOp> = Vec::with_capacity(ff.words.len());
    let mut word_to_dec: Vec<u32> = Vec::with_capacity(ff.words.len() + 1);
    let mut pending: u16 = 0;
    for &w in &ff.words {
        word_to_dec.push(ops.len() as u32);
        let op = enc::op(w);
        if op == enc::ACCT {
            pending = enc::idx24(w) as u16 + 1;
            continue;
        }
        let imm = match op {
            enc::ADDI | enc::LDI => enc::simm14(w) as i64 as u64,
            enc::LUI => (enc::imm19(w) << 13) as u64,
            enc::LDK => ff.consts[enc::uimm14(w) as usize],
            // Spill slots sit after the registers in the frame's slab.
            enc::LDS | enc::STS => enc::uimm14(w) as u64 + enc::NUM_REGS as u64,
            enc::ORI | enc::CBNZ | enc::SWITCH | enc::RET | enc::GUARD => enc::uimm14(w) as u64,
            enc::BR | enc::CALLD | enc::UNWIND | enc::UNREACHABLE => enc::idx24(w) as u64,
            _ => 0,
        };
        // Every constant load is one hot-loop case.
        let op = if matches!(op, enc::LUI | enc::LDK) {
            enc::LDI
        } else {
            op
        };
        ops.push(NOp {
            op,
            a: enc::rd(w),
            b: enc::ra(w),
            c: enc::rb(w),
            extra: enc::extra(w),
            acct: pending,
            imm,
        });
        pending = 0;
    }
    word_to_dec.push(ops.len() as u32);
    let block_dec = ff
        .block_word
        .iter()
        .map(|&w| word_to_dec[w as usize])
        .collect();
    let edges = ff
        .edges
        .into_iter()
        .map(|e| NatEdge {
            copies: e.copies,
            target: word_to_dec[e.target as usize],
            from: e.from,
            to: e.to,
        })
        .collect();
    let calls = ff
        .calls
        .into_iter()
        .map(|desc| NatCall {
            desc,
            ic: Cell::new((0, 0)),
        })
        .collect();
    NatCode {
        ops,
        block_dec,
        edges,
        calls,
        switches: ff.switches,
        guards: ff.guards,
        n_slots: ff.n_slots,
        arg_homes: ff.arg_homes,
        homes: ff.homes,
    }
}

// ----------------------------------------------------------------------
// Frames and value boundaries
// ----------------------------------------------------------------------

/// A native activation record. `regs` is one pooled `u64` slab: the
/// register file `r0`–`r31`, then the spill slots.
pub(crate) struct NatFrame {
    pub(crate) func: FuncId,
    pub(crate) code: Rc<NatCode>,
    pub(crate) regs: Vec<u64>,
    pub(crate) pc: usize,
    pub(crate) allocas: Vec<u32>,
    /// Suspended call site: return-value home/class and invoke edges.
    pub(crate) pending: Option<PendingCall>,
}

/// What a suspended native call site needs on resume: where the return
/// value lands (if any) and the invoke edges (ok, unwind) if the call
/// was an `invoke`.
pub(crate) type PendingCall = (Option<(Home, Class)>, Option<(u32, u32)>);

impl NatFrame {
    #[inline]
    pub(crate) fn put(&mut self, h: Home, v: u64) {
        match h {
            Home::Reg(r) => self.regs[r as usize] = v,
            Home::Slot(s) => self.regs[enc::NUM_REGS + s as usize] = v,
        }
    }

    #[inline]
    fn get(&self, s: Src) -> u64 {
        match s {
            Src::Reg(r) => self.regs[r as usize],
            Src::Slot(s) => self.regs[enc::NUM_REGS + s as usize],
            Src::Imm(k) => k,
        }
    }

    /// The frame's formal arguments, rebuilt from their homes (arguments
    /// are never reassigned, so their homes still hold them).
    pub(crate) fn args(&self) -> Vec<VmValue> {
        self.code
            .arg_homes
            .iter()
            .map(|&(h, c)| value_of(self.get(h.into()), c))
            .collect()
    }

    /// Deoptimization's register copy — the inverse of
    /// [`Vm::native_frame_from_interp`]: every home becomes an assigned
    /// interpreter register. A value not yet defined reads back as
    /// whatever its home holds; definitions dominate uses, so that is
    /// unobservable in verified modules.
    pub(crate) fn interp_regs(&self, mut slab: Vec<Option<VmValue>>) -> Vec<Option<VmValue>> {
        slab.clear();
        slab.extend(
            self.code
                .homes
                .iter()
                .map(|home| home.map(|(h, c)| value_of(self.get(h.into()), c))),
        );
        slab
    }
}

/// The register image of a scalar: its canonical bit pattern.
#[inline]
pub(crate) fn bits(v: &VmValue) -> u64 {
    match *v {
        VmValue::Bool(b) => b as u64,
        VmValue::Int { v, .. } => v as u64,
        VmValue::F32(f) => f.to_bits() as u64,
        VmValue::F64(f) => f.to_bits(),
        VmValue::Ptr(p) => p as u64,
    }
}

/// Rebuild the exact scalar a class-tagged register represents
/// (classes ≤ 32 bits read only the low word).
#[inline]
fn value_of(reg: u64, c: Class) -> VmValue {
    match c {
        Class::Bool => VmValue::Bool(reg != 0),
        Class::Ptr => VmValue::Ptr(reg as u32),
        Class::F32 => VmValue::F32(f32::from_bits(reg as u32)),
        Class::F64 => VmValue::F64(f64::from_bits(reg)),
        int => VmValue::int(int.int_kind().expect("integer class"), reg as i64),
    }
}

/// Whether a runtime scalar has exactly the class the native code was
/// compiled for (the class invariant native registers rely on).
pub(crate) fn matches_class(v: &VmValue, c: Class) -> bool {
    match v {
        VmValue::Bool(_) => c == Class::Bool,
        VmValue::Int { kind, .. } => Class::of_kind(*kind) == c,
        VmValue::Ptr(_) => c == Class::Ptr,
        VmValue::F32(_) => c == Class::F32,
        VmValue::F64(_) => c == Class::F64,
    }
}

/// A class code from an op's `extra` field (the encoder only emits valid
/// ones).
fn class_at(code: u16) -> Result<Class, ExecError> {
    Class::from_code(code).ok_or_else(|| ExecError::trap(TrapKind::Invalid, "bad class code"))
}

/// The interpreter's cast to a scalar class. Scalar casts never look at
/// a pointer's pointee, so any pointer type stands for `Ptr`.
fn cast_scalar(v: VmValue, to: Class) -> Result<VmValue, ExecError> {
    let ty = match to {
        Class::Bool => Type::Bool,
        Class::Ptr => Type::Ptr(TypeId::from_index(0)),
        Class::F32 => Type::F32,
        Class::F64 => Type::F64,
        int => Type::Int(int.int_kind().expect("integer class")),
    };
    crate::interp::cast_to(v, &ty)
}

fn load(mem: &mut Memory, addr: u32, cl: Class) -> Result<VmValue, ExecError> {
    match cl {
        Class::Bool => mem.load_bool(addr),
        Class::Ptr => mem.load_ptr(addr),
        Class::F32 => mem.load_f32(addr),
        Class::F64 => mem.load_f64(addr),
        int => mem.load_int(addr, int.int_kind().expect("integer class")),
    }
}

impl<'m> Vm<'m> {
    /// The native code of `f`, translating on first use. The
    /// `native.translate` fault site fires here: any injected non-delay
    /// action surfaces as a translation failure, which the tier ladder
    /// answers with permanent demotion to the interpreter (the program
    /// keeps running).
    pub(crate) fn ensure_native_translated(&mut self, f: FuncId) -> Result<Rc<NatCode>, Bail> {
        if let Some(nc) = &self.native_cache[f.index()] {
            return Ok(nc.clone());
        }
        let mut sp = if trace::enabled() {
            Some(trace::span(
                "native",
                format!("native.translate @{}", self.module().func(f).name),
            ))
        } else {
            None
        };
        let t0 = std::time::Instant::now();
        let result = match lpat_core::faultpoint!("native.translate") {
            Some(lpat_core::fault::FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.translate_native(f)
            }
            Some(action) => Err(Bail::new(
                bail::INJECTED_FAULT,
                format!("injected {action:?} fault at site 'native.translate'"),
            )),
            None => self.translate_native(f),
        };
        self.tier_stats.native_translate_ns += t0.elapsed().as_nanos() as u64;
        match result {
            Ok(nc) => {
                self.tier_stats.native_translated += 1;
                let rc = Rc::new(nc);
                self.native_cache[f.index()] = Some(rc.clone());
                Ok(rc)
            }
            Err(b) => {
                if let Some(sp) = &mut sp {
                    sp.arg("error", b.detail.clone());
                    trace::instant_args(
                        "native",
                        "bail-to-interp",
                        vec![
                            ("function", self.module().func(f).name.clone()),
                            ("reason", b.reason.to_string()),
                            ("error", b.detail.clone()),
                        ],
                    );
                }
                Err(b)
            }
        }
    }

    fn translate_native(&self, f: FuncId) -> Result<NatCode, Bail> {
        let m = self.module();
        let globals: Vec<u32> = (0..m.num_globals())
            .map(|i| self.global_addr(lpat_core::GlobalId::from_index(i)))
            .collect();
        let spec = self.spec_map();
        let env = FastEnv {
            func_addr: &|f| Memory::func_addr(f.index()),
            global_addr: &|i| globals.get(i).copied(),
            guard: &|iid| spec.and_then(|sm| sm.guard_at(f, iid)).map(|g| g.id),
        };
        translate_fast(m, f, &env).map(decode)
    }

    /// A native frame for `code` with the arguments in place, or `None`
    /// when an actual argument does not match its declared class.
    fn native_frame(
        &mut self,
        f: FuncId,
        code: &Rc<NatCode>,
        args: &[VmValue],
    ) -> Option<NatFrame> {
        if args.len() != code.arg_homes.len()
            || args
                .iter()
                .zip(&code.arg_homes)
                .any(|(v, &(_, c))| !matches_class(v, c))
        {
            return None;
        }
        let mut regs = self.native_reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(enc::NUM_REGS + code.n_slots as usize, 0);
        let mut fr = NatFrame {
            func: f,
            code: code.clone(),
            regs,
            pc: 0,
            allocas: Vec::new(),
            pending: None,
        };
        for (v, &(h, _)) in args.iter().zip(&code.arg_homes) {
            fr.put(h, bits(v));
        }
        Some(fr)
    }

    /// Build a native activation record for a call to `f`, or `None` when
    /// an actual argument does not match its declared class — the caller
    /// then interprets the call, which represents anything. Records the
    /// call in the profile only on success.
    pub(crate) fn make_native_frame(
        &mut self,
        f: FuncId,
        args: &[VmValue],
    ) -> Result<Option<NatFrame>, ExecError> {
        let code = self.ensure_native_translated(f)?;
        let fr = self.native_frame(f, &code, args);
        if fr.is_some() && self.opts.profile {
            self.profile.record_call(f);
            self.profile.record_block(f, self.module().func(f).entry());
        }
        Ok(fr)
    }

    /// Release a popped native frame's allocas and recycle its register
    /// slab.
    pub(crate) fn recycle_native_frame(&mut self, mut fr: NatFrame) -> Result<(), ExecError> {
        self.recycle_native_regs(&mut fr);
        for a in fr.allocas {
            self.mem.release(a)?;
        }
        Ok(())
    }

    /// Return a native frame's register slab to the pool.
    pub(crate) fn recycle_native_regs(&mut self, fr: &mut NatFrame) {
        let mut regs = std::mem::take(&mut fr.regs);
        regs.clear();
        self.native_reg_pool.push(regs);
    }

    /// Convert an interpreter frame at a block boundary (`idx == 0`) into
    /// a native frame — interpreter-to-native OSR. `None` when an actual
    /// argument defies its declared class; the frame keeps interpreting.
    /// Homes are a pure function of `InstId`, so this is one table-driven
    /// copy ([`NatFrame::interp_regs`] is its inverse).
    pub(crate) fn native_frame_from_interp(
        &mut self,
        fr: &mut Frame,
    ) -> Result<Option<NatFrame>, ExecError> {
        let code = self.ensure_native_translated(fr.func)?;
        let Some(mut nf) = self.native_frame(fr.func, &code, &fr.args) else {
            return Ok(None);
        };
        nf.pc = code.block_dec[fr.block.index()] as usize;
        nf.allocas = std::mem::take(&mut fr.allocas);
        for (i, home) in code.homes.iter().enumerate() {
            if let Some((h, _)) = home {
                // Unset registers keep the zero filler: definitions
                // dominate uses, so an unset register is unobservable.
                if let Some(Some(v)) = fr.regs.get(i) {
                    nf.put(*h, bits(v));
                }
            }
        }
        Ok(Some(nf))
    }
}

// ----------------------------------------------------------------------
// Execution
// ----------------------------------------------------------------------

/// How a native burst ended.
pub(crate) enum Flow {
    /// A call into a defined function; the return-value home and invoke
    /// edges are parked in the frame's `pending` slot.
    Call {
        target: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    },
    Ret(Option<VmValue>),
    Unwinding,
    /// A speculation guard failed. The fail edge has already been taken
    /// (φ-copies done, pc at the start of `block`, profile recorded), so
    /// the frame is at a clean block boundary: the tier ladder rebuilds
    /// an interpreter frame there (deoptimization).
    Deopt {
        block: u32,
    },
}

/// Transfer control along edge `e`: apply the sequentialised φ-copies,
/// move the pc, and record the edge/block profile (matching the
/// interpreter's `transfer`).
#[inline]
pub(crate) fn take_nat_edge(vm: &mut Vm<'_>, fr: &mut NatFrame, code: &NatCode, e: usize) {
    let edge = &code.edges[e];
    for c in &edge.copies {
        let v = fr.get(c.src);
        fr.put(c.dst, v);
    }
    fr.pc = edge.target as usize;
    if vm.opts.profile {
        let from = BlockId::from_index(edge.from as usize);
        let to = BlockId::from_index(edge.to as usize);
        vm.profile.record_edge(fr.func, from, to);
        vm.profile.record_block(fr.func, to);
    }
}

fn div_by_zero(rem: bool) -> ExecError {
    let what = if rem {
        "integer remainder"
    } else {
        "integer division"
    };
    ExecError::trap(TrapKind::DivByZero, what)
}

/// Run the frame's decoded code until a call boundary, return, unwind,
/// deoptimization or trap. The inner loop touches only the flat register
/// file, the frame's slot slab and (for memory ops) the checked
/// [`Memory`].
pub(crate) fn run_native_burst(vm: &mut Vm<'_>, fr: &mut NatFrame) -> Result<Flow, ExecError> {
    let code = fr.code.clone();
    loop {
        let op = code.ops[fr.pc];
        fr.pc += 1;
        if op.acct != 0 {
            vm.charge(Tier::Native, (op.acct - 1) as usize)?;
        }
        let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);
        let wide = op.extra == enc::W64;
        match op.op {
            enc::ADD => fr.regs[a] = fr.regs[b].wrapping_add(fr.regs[c]),
            enc::SUB => fr.regs[a] = fr.regs[b].wrapping_sub(fr.regs[c]),
            enc::MUL => fr.regs[a] = fr.regs[b].wrapping_mul(fr.regs[c]),
            enc::MADD => fr.regs[a] = fr.regs[a].wrapping_add(fr.regs[b].wrapping_mul(fr.regs[c])),
            enc::AND => fr.regs[a] = fr.regs[b] & fr.regs[c],
            enc::OR => fr.regs[a] = fr.regs[b] | fr.regs[c],
            enc::XOR => fr.regs[a] = fr.regs[b] ^ fr.regs[c],
            enc::SLL => {
                let sh = fr.regs[c] & (op.extra as u64 - 1);
                fr.regs[a] = fr.regs[b] << sh;
            }
            enc::SRL => {
                let sh = fr.regs[c] & (op.extra as u64 - 1);
                fr.regs[a] = if wide {
                    fr.regs[b] >> sh
                } else {
                    (fr.regs[b] as u32 >> sh) as u64
                };
            }
            enc::SRA => {
                let sh = fr.regs[c] & (op.extra as u64 - 1);
                fr.regs[a] = if wide {
                    ((fr.regs[b] as i64) >> sh) as u64
                } else {
                    ((fr.regs[b] as i32) >> sh) as u32 as u64
                };
            }
            enc::DIVS | enc::REMS => {
                let rem = op.op == enc::REMS;
                fr.regs[a] = if wide {
                    let (x, y) = (fr.regs[b] as i64, fr.regs[c] as i64);
                    if y == 0 {
                        return Err(div_by_zero(rem));
                    }
                    (if rem {
                        x.wrapping_rem(y)
                    } else {
                        x.wrapping_div(y)
                    }) as u64
                } else {
                    let (x, y) = (fr.regs[b] as i32, fr.regs[c] as i32);
                    if y == 0 {
                        return Err(div_by_zero(rem));
                    }
                    (if rem {
                        x.wrapping_rem(y)
                    } else {
                        x.wrapping_div(y)
                    }) as u32 as u64
                };
            }
            enc::DIVU | enc::REMU => {
                let rem = op.op == enc::REMU;
                let (x, y) = if wide {
                    (fr.regs[b], fr.regs[c])
                } else {
                    (fr.regs[b] as u32 as u64, fr.regs[c] as u32 as u64)
                };
                if y == 0 {
                    return Err(div_by_zero(rem));
                }
                fr.regs[a] = if rem { x % y } else { x / y };
            }
            enc::CMP => {
                let (x, y) = (fr.regs[b], fr.regs[c]);
                let ord = match op.extra & 24 {
                    0 => (x as i32).cmp(&(y as i32)),
                    8 => (x as u32).cmp(&(y as u32)),
                    16 => (x as i64).cmp(&(y as i64)),
                    _ => x.cmp(&y),
                };
                let hit = match op.extra & 7 {
                    0 => ord.is_eq(),
                    1 => ord.is_ne(),
                    2 => ord.is_lt(),
                    3 => ord.is_gt(),
                    4 => ord.is_le(),
                    _ => ord.is_ge(),
                };
                fr.regs[a] = hit as u64;
            }
            enc::SETNZ => {
                let v = fr.regs[b];
                fr.regs[a] = if wide { v != 0 } else { v as u32 != 0 } as u64;
            }
            enc::NORM => {
                let v = fr.regs[b];
                fr.regs[a] = match class_at(op.extra)? {
                    Class::S8 => v as i8 as i64 as u64,
                    Class::U8 => v as u8 as u64,
                    Class::S16 => v as i16 as i64 as u64,
                    Class::U16 => v as u16 as u64,
                    Class::S32 => v as i32 as i64 as u64,
                    Class::S64 | Class::U64 | Class::F64 => v,
                    _ => v as u32 as u64,
                };
            }
            enc::MOV => fr.regs[a] = fr.regs[b],
            enc::FBIN => {
                let cl = class_at(op.extra >> 4)?;
                let bop = BinOp::ALL[(op.extra & 15) as usize % BinOp::ALL.len()];
                let r = crate::interp::exec_bin(
                    bop,
                    value_of(fr.regs[b], cl),
                    value_of(fr.regs[c], cl),
                )?;
                fr.regs[a] = bits(&r);
            }
            enc::FCMP => {
                let cl = class_at(op.extra >> 4)?;
                let pred = CmpPred::ALL[(op.extra & 15) as usize % CmpPred::ALL.len()];
                let r = crate::interp::exec_cmp(
                    pred,
                    value_of(fr.regs[b], cl),
                    value_of(fr.regs[c], cl),
                )?;
                fr.regs[a] = r as u64;
            }
            enc::CVT => {
                let (from, to) = (class_at(op.extra & 15)?, class_at(op.extra >> 4)?);
                fr.regs[a] = bits(&cast_scalar(value_of(fr.regs[b], from), to)?);
            }
            enc::ADDI => fr.regs[a] = fr.regs[b].wrapping_add(op.imm),
            enc::LDI => fr.regs[a] = op.imm,
            enc::ORI => fr.regs[a] = fr.regs[b] | op.imm,
            enc::LDS => fr.regs[a] = fr.regs[op.imm as usize],
            enc::STS => fr.regs[op.imm as usize] = fr.regs[b],
            enc::LD => {
                let v = load(&mut vm.mem, fr.regs[b] as u32, class_at(op.extra)?)?;
                fr.regs[a] = bits(&v);
            }
            enc::ST => {
                let v = value_of(fr.regs[c], class_at(op.extra)?);
                vm.mem.store(fr.regs[b] as u32, v)?;
            }
            enc::ALLOC => {
                let r = fr.regs[b];
                let n: u64 = if op.extra & 2 != 0 {
                    1
                } else if op.extra & 8 != 0 {
                    (r as i64).max(0) as u64
                } else if op.extra & 4 != 0 {
                    r as u32 as u64
                } else {
                    (r as i32 as i64).max(0) as u64
                };
                let size = (fr.regs[c] as u32 as u64).saturating_mul(n);
                let size32: u32 = size
                    .try_into()
                    .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "allocation too large"))?;
                let addr = vm.mem.alloc(size32.max(1))?;
                if op.extra & 1 != 0 {
                    fr.allocas.push(addr);
                }
                fr.regs[a] = addr as u64;
            }
            enc::FREE => {
                let p = fr.regs[b] as u32;
                if p != 0 {
                    vm.mem.release(p)?;
                }
            }
            enc::BR => take_nat_edge(vm, fr, &code, op.imm as usize),
            enc::CBNZ => {
                if fr.regs[b] != 0 {
                    // Skip the paired fall-through BR.
                    fr.pc += 1;
                    take_nat_edge(vm, fr, &code, op.imm as usize);
                }
            }
            enc::GUARD => {
                let g = &code.guards[op.imm as usize];
                if vm.guard_check(g.gid, fr.regs[b] != 0) {
                    take_nat_edge(vm, fr, &code, g.pass as usize);
                } else {
                    take_nat_edge(vm, fr, &code, g.fail as usize);
                    let block = code.edges[g.fail as usize].to;
                    return Ok(Flow::Deopt { block });
                }
            }
            enc::SWITCH => {
                let tbl = &code.switches[op.imm as usize];
                let v = if tbl.wide {
                    fr.regs[b]
                } else {
                    fr.regs[b] as u32 as u64
                };
                let e = tbl
                    .cases
                    .iter()
                    .find(|&&(cv, _)| cv == v)
                    .map_or(tbl.default, |&(_, ce)| ce);
                take_nat_edge(vm, fr, &code, e as usize);
            }
            enc::CALLD => {
                let call = &code.calls[op.imm as usize];
                if vm.opts.profile {
                    vm.profile
                        .record_callsite(fr.func, InstId::from_index(call.desc.site as usize));
                }
                let target = match &call.desc.callee {
                    FastCallee::Direct(f) => *f,
                    FastCallee::Indirect(s) => {
                        let addr = fr.get(*s) as u32;
                        let (hit_addr, hit_func) = call.ic.get();
                        if hit_func != 0 && hit_addr == addr {
                            FuncId::from_index((hit_func - 1) as usize)
                        } else {
                            let f = vm
                                .mem
                                .addr_to_func(addr)
                                .map(FuncId::from_index)
                                .ok_or_else(|| {
                                    ExecError::trap(TrapKind::Invalid, "call through data pointer")
                                })?;
                            call.ic.set((addr, f.index() as u32 + 1));
                            f
                        }
                    }
                };
                let argv: Vec<VmValue> = call
                    .desc
                    .args
                    .iter()
                    .map(|&(s, cl)| value_of(fr.get(s), cl))
                    .collect();
                let tf = vm.module().func(target);
                if tf.is_declaration() {
                    let ret = vm.call_external(target, &argv)?;
                    if let (Some((h, cl)), Some(v)) = (call.desc.dst, ret) {
                        if !matches_class(&v, cl) {
                            return Err(ExecError::trap(
                                TrapKind::Invalid,
                                "native call result class mismatch",
                            ));
                        }
                        fr.put(h, bits(&v));
                    }
                    if let Some((normal, _)) = call.desc.eh {
                        take_nat_edge(vm, fr, &code, normal as usize);
                    }
                    continue;
                }
                let nfixed = tf.num_params();
                let (fixed, extra) = if argv.len() > nfixed {
                    let (x, y) = argv.split_at(nfixed);
                    (x.to_vec(), y.to_vec())
                } else {
                    (argv, Vec::new())
                };
                fr.pending = Some((call.desc.dst, call.desc.eh));
                return Ok(Flow::Call {
                    target,
                    args: fixed,
                    varargs: extra,
                });
            }
            enc::RET => {
                if op.imm & 1 != 0 {
                    let cl = class_at((op.imm >> 1) as u16)?;
                    return Ok(Flow::Ret(Some(value_of(fr.regs[b], cl))));
                }
                return Ok(Flow::Ret(None));
            }
            enc::UNWIND => return Ok(Flow::Unwinding),
            enc::UNREACHABLE => {
                return Err(ExecError::trap(
                    TrapKind::Unreachable,
                    "unreachable executed",
                ))
            }
            _ => return Err(ExecError::trap(TrapKind::Invalid, "bad native opcode")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Vm, VmOptions};

    /// Every function translated on its first call.
    fn eager(opts: VmOptions) -> VmOptions {
        VmOptions { tier_up: 0, ..opts }
    }

    /// Run `src` interpreted and all-native; outputs must agree and the
    /// native run must never interpret.
    fn both(src: &str) -> (i64, i64) {
        let m = lpat_asm::parse_module("t", src).unwrap();
        m.verify().unwrap();
        let mut a = Vm::new(&m, VmOptions::default()).unwrap();
        let ra = a.run_main().unwrap_or_else(|e| panic!("interp: {e}"));
        let mut b = Vm::new(&m, eager(VmOptions::default())).unwrap();
        let rb = b
            .run_main_tiered()
            .unwrap_or_else(|e| panic!("native: {e}"));
        assert_eq!(b.tier_stats.interp_insts, 0, "eager run interpreted");
        assert_eq!(a.output, b.output, "output must match");
        assert_eq!(a.opcode_counts, b.opcode_counts, "histogram must match");
        (ra, rb)
    }

    #[test]
    fn native_matches_interp_on_loops_and_calls() {
        let (a, b) = both(
            "
define int @fact(int %n) {
e:
  %c = setle int %n, 1
  br bool %c, label %base, label %rec
base:
  ret int 1
rec:
  %n1 = sub int %n, 1
  %r = call int @fact(int %n1)
  %v = mul int %n, %r
  ret int %v
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 1, %e ], [ %i2, %h ]
  %s = phi int [ 0, %e ], [ %s2, %h ]
  %f = call int @fact(int %i)
  %s2 = add int %s, %f
  %i2 = add int %i, 1
  %c = setle int %i2, 6
  br bool %c, label %h, label %x
x:
  ret int %s2
}",
        );
        assert_eq!(a, b);
        assert_eq!(a, 873); // 1!+2!+...+6!
    }

    #[test]
    fn native_memory_globals_and_gep() {
        // 64-bit induction variable, compare and GEP index.
        let (a, b) = both(
            "
%s = type { int, [4 x int] }
@tab = global %s zeroinitializer
declare void @print_int(int)
define int @main() {
e:
  %f0 = getelementptr %s* @tab, long 0, ubyte 0
  store int 7, int* %f0
  br label %h
h:
  %i = phi long [ 0, %e ], [ %i2, %h ]
  %p = getelementptr %s* @tab, long 0, ubyte 1, long %i
  %iv = cast long %i to int
  %v = mul int %iv, 3
  store int %v, int* %p
  %i2 = add long %i, 1
  %c = setlt long %i2, 4
  br bool %c, label %h, label %x
x:
  %last = getelementptr %s* @tab, long 0, ubyte 1, long 3
  %lv = load int* %last
  %base = load int* %f0
  %r = add int %lv, %base
  call void @print_int(int %r)
  ret int %r
}",
        );
        assert_eq!(a, b);
        assert_eq!(a, 16);
    }

    #[test]
    fn native_wide_ints_and_floats_match_interp() {
        // Whole-register 64-bit values (above 2^32, negative, shifted,
        // divided, stored and returned) and float bit patterns (NaN,
        // -0.0, int<->float casts) through every boundary.
        let (a, b) = both(
            "
@cell = global long 0
@fcell = global double zeroinitializer
declare void @print_int(int)
declare void @print_double(double)
define long @mix(long %x, double %d) {
e:
  %big = mul long %x, 4294967296
  %sh = shr long %big, 3
  %q = div long %sh, -7
  %r = rem long %big, 1000000007
  %s = add long %q, %r
  store long %s, long* @cell
  %back = load long* @cell
  %fd = cast long %back to double
  %h = mul double %fd, %d
  store double %h, double* @fcell
  %nan = div double 0x0000000000000000, 0x0000000000000000
  %isn = setne double %nan, %nan
  %nz = sub double 0x8000000000000000, 0x0000000000000000
  %eqz = seteq double %nz, 0x0000000000000000
  %both = and bool %isn, %eqz
  br bool %both, label %ok, label %bad
ok:
  %g = load double* @fcell
  call void @print_double(double %g)
  %hi = shr long %back, 33
  %lt = setlt long %back, 0
  %w = cast bool %lt to long
  %res = add long %hi, %w
  ret long %res
bad:
  ret long -1
}
define int @main() {
e:
  %v = call long @mix(long -12345, double 0x3FE0000000000000)
  %t = cast long %v to int
  call void @print_int(int %t)
  %f = cast int %t to float
  %f2 = mul float %f, 0x3FC00000
  %back = cast float %f2 to int
  ret int %back
}",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn native_eh_unwinds() {
        let (a, b) = both(
            "
define void @thrower() {
e:
  unwind
}
define void @mid() {
e:
  call void @thrower()
  ret void
}
define int @main() {
e:
  invoke void @mid() to label %fine unwind label %handler
fine:
  ret int 1
handler:
  ret int 2
}",
        );
        assert_eq!((a, b), (2, 2));
    }

    #[test]
    fn native_indirect_calls_and_switch() {
        let (a, b) = both(
            "
define int @one(int %x) {
e:
  ret int 1
}
define int @two(int %x) {
e:
  ret int 2
}
@vt = constant [2 x int (int)*] [ int (int)* @one, int (int)* @two ]
define int @main() {
e:
  %slot = getelementptr [2 x int (int)*]* @vt, long 0, long 1
  %fp = load int (int)** %slot
  %v = call int %fp(int 0)
  %w = cast int %v to long
  switch long %w, label %d [ long 2, label %good ]
good:
  ret int 42
d:
  ret int 0
}",
        );
        assert_eq!((a, b), (42, 42));
    }

    #[test]
    fn native_histogram_and_fuel_match_interp() {
        let w = &lpat_workloads::suite(0)[1];
        let m = lpat_minic::compile(w.name, &w.source).unwrap();
        let opts = VmOptions {
            fuel: Some(20_000_000),
            ..VmOptions::default()
        };
        let mut a = Vm::new(&m, opts.clone()).unwrap();
        let ra = a.run_main().unwrap();
        let mut b = Vm::new(&m, eager(opts)).unwrap();
        let rb = b.run_main_tiered().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.output, b.output);
        assert_eq!(a.insts_executed, b.insts_executed);
        assert_eq!(a.opcode_counts, b.opcode_counts);
        assert_eq!(a.opts.fuel, b.opts.fuel);
        assert_eq!(b.tier_stats.interp_insts, 0);
    }
}
