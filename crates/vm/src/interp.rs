//! The portable interpreter (the "Execution Engine" of paper §3.4).
//!
//! Executes a module one function at a time against the simulated memory,
//! implementing the full semantics of the representation including the
//! `invoke`/`unwind` exception model (§2.4): `unwind` pops activation
//! records until it removes one created by an `invoke`, then transfers
//! control to that invoke's unwind successor — running no handler code of
//! its own, exactly as the abstract model prescribes.
//!
//! When profiling is enabled the engine plays the role of the paper's
//! lightweight instrumentation (§3.5), counting block and edge executions
//! for the runtime optimizer.

use std::collections::VecDeque;

use lpat_core::trace;
use lpat_core::{
    BinOp, BlockId, CmpPred, Const, ConstId, FuncId, Inst, InstId, IntKind, Module, Type, TypeId,
    Value,
};

use crate::error::{ExecError, TrapKind};
use crate::mem::Memory;
use crate::profile::ProfileData;
use crate::tier::Tier;
use crate::value::VmValue;

/// Trace-counter name per dense opcode index: `"vm.op."` +
/// [`Inst::opcode_mnemonic`]. Spelled out because counter names must be
/// `&'static str`; a unit test pins the alignment.
const OP_COUNTER_NAMES: [&str; Inst::NUM_OPCODES] = [
    "vm.op.ret",
    "vm.op.br",
    "vm.op.switch",
    "vm.op.invoke",
    "vm.op.unwind",
    "vm.op.unreachable",
    "vm.op.malloc",
    "vm.op.free",
    "vm.op.alloca",
    "vm.op.load",
    "vm.op.store",
    "vm.op.getelementptr",
    "vm.op.phi",
    "vm.op.call",
    "vm.op.cast",
    "vm.op.vaarg",
    "vm.op.add",
    "vm.op.sub",
    "vm.op.mul",
    "vm.op.div",
    "vm.op.rem",
    "vm.op.and",
    "vm.op.or",
    "vm.op.xor",
    "vm.op.shl",
    "vm.op.shr",
    "vm.op.seteq",
    "vm.op.setne",
    "vm.op.setlt",
    "vm.op.setgt",
    "vm.op.setle",
    "vm.op.setge",
];

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Instruction budget; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Collect block/edge/call profiles.
    pub profile: bool,
    /// Memory limit in bytes.
    pub mem_limit: u32,
    /// Scripted input for `read_int`.
    pub input: VecDeque<i64>,
    /// Call-stack depth limit: deep recursion traps with
    /// [`TrapKind::StackOverflow`] instead of overflowing the host stack
    /// (the interpreter's call stack is heap-allocated, so the limit is a
    /// policy bound, not a host constraint).
    pub max_stack: usize,
    /// Tier-up threshold for [`Vm::run_main_tiered`]: a function is
    /// promoted from the profiling interpreter to single-pass machine
    /// code once its hotness counter — calls plus loop back-edges —
    /// *exceeds* this value. `0` promotes every function on first call;
    /// a very large value never promotes (pure interpretation).
    pub tier_up: u64,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel: None,
            profile: false,
            mem_limit: 64 << 20,
            input: VecDeque::new(),
            max_stack: 10_000,
            tier_up: 50,
        }
    }
}

/// Speculation statistics: how the guards emitted by the speculative
/// optimizer behaved at run time. Engine-independent — the interpreter
/// and machine code record through the same [`Vm::guard_check`] path.
#[derive(Clone, Debug, Default)]
pub struct SpecStats {
    /// Guards the speculation pass emitted into the executing module.
    pub emitted: u64,
    /// Plan entries retracted (prior misspeculation rate over threshold).
    pub retracted: u64,
    /// Guard executions that took the speculated fast path.
    pub passed: u64,
    /// Guard executions that failed (misspeculation).
    pub failed: u64,
    /// Deoptimizations: guard failures in machine code that rebuilt an
    /// interpreter frame from the native one.
    pub deopts: u64,
}

impl SpecStats {
    /// Human-readable speculation table for `--stats`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("  guards emitted  {:>12}\n", self.emitted));
        s.push_str(&format!("  retracted       {:>12}\n", self.retracted));
        s.push_str(&format!("  guard passed    {:>12}\n", self.passed));
        s.push_str(&format!("  guard failed    {:>12}\n", self.failed));
        s.push_str(&format!("  deopts          {:>12}\n", self.deopts));
        s
    }
}

/// An activation record.
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) args: Vec<VmValue>,
    pub(crate) varargs: Vec<VmValue>,
    pub(crate) va_next: usize,
    pub(crate) regs: Vec<Option<VmValue>>,
    pub(crate) block: BlockId,
    pub(crate) idx: usize,
    pub(crate) allocas: Vec<u32>,
    /// The call/invoke instruction in *this* frame currently awaiting a
    /// callee's return.
    pub(crate) pending: Option<InstId>,
}

/// The execution engine.
pub struct Vm<'m> {
    m: &'m Module,
    /// Simulated memory.
    pub mem: Memory,
    /// Configuration.
    pub opts: VmOptions,
    /// Captured program output.
    pub output: String,
    /// Collected profile (when `opts.profile`).
    pub profile: ProfileData,
    /// Total instructions executed.
    pub insts_executed: u64,
    /// Executed-instruction histogram, indexed by
    /// [`Inst::opcode_index`]. Counted unconditionally (one array add per
    /// dispatched instruction); rendered by `--stats` and folded into the
    /// trace by [`Vm::flush_trace`].
    pub opcode_counts: [u64; Inst::NUM_OPCODES],
    /// Tiered-execution statistics (promotions, per-tier instruction
    /// counts, translation time). Populated by every engine; the tiered
    /// engine is the main writer.
    pub tier_stats: crate::tier::TierStats,
    /// Speculation statistics (guards installed, pass/fail outcomes,
    /// deoptimizations). All zero unless speculation was installed.
    pub spec_stats: SpecStats,
    /// The speculation overlay: which conditional branches are guards.
    /// Installed by [`Vm::install_speculation`] before execution; `None`
    /// means the module carries no speculation.
    spec: Option<std::rc::Rc<lpat_transform::SpecMap>>,
    global_addrs: Vec<u32>,
    /// Native translation cache, dense over `FuncId` (translated on
    /// promotion, reused across `run_*` invocations).
    pub(crate) native_cache: Vec<Option<std::rc::Rc<crate::native::NatCode>>>,
    /// Per-function tier state, dense over `FuncId`.
    pub(crate) tier: Vec<crate::tier::TierCell>,
    /// Free-list arenas of interpreter and native register slabs,
    /// recycled across frames so the hot call path does not allocate.
    pub(crate) interp_reg_pool: Vec<Vec<Option<VmValue>>>,
    pub(crate) native_reg_pool: Vec<Vec<u64>>,
}

impl<'m> Vm<'m> {
    /// Create an engine for `m`, materializing global variables into the
    /// simulated memory.
    ///
    /// # Errors
    ///
    /// Fails when globals exceed the memory limit.
    pub fn new(m: &'m Module, opts: VmOptions) -> Result<Vm<'m>, ExecError> {
        let _sp = trace::span("heap", "materialize-globals");
        let mut mem = Memory::new(opts.mem_limit, m.num_funcs() as u32);
        // Two passes: assign addresses, then write initializers (which may
        // reference other globals' addresses).
        let mut global_addrs = Vec::with_capacity(m.num_globals());
        for (_, g) in m.globals() {
            let size: u32 = m
                .types
                .try_size_of(g.value_ty)
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "global of unsized type"))?
                .try_into()
                .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "global too large"))?;
            global_addrs.push(mem.alloc(size.max(1))?);
        }
        let mut vm = Vm {
            m,
            mem,
            opts,
            output: String::new(),
            profile: ProfileData::default(),
            insts_executed: 0,
            opcode_counts: [0; Inst::NUM_OPCODES],
            tier_stats: crate::tier::TierStats::default(),
            spec_stats: SpecStats::default(),
            spec: None,
            global_addrs,
            native_cache: vec![None; m.num_funcs()],
            tier: vec![crate::tier::TierCell::Cold(0); m.num_funcs()],
            interp_reg_pool: Vec::new(),
            native_reg_pool: Vec::new(),
        };
        for (gid, g) in m.globals() {
            if let Some(init) = g.init {
                let addr = vm.global_addrs[gid.index()];
                vm.write_const(addr, g.value_ty, init)?;
            }
        }
        Ok(vm)
    }

    /// Address of a global.
    pub fn global_addr(&self, g: lpat_core::GlobalId) -> u32 {
        self.global_addrs[g.index()]
    }

    /// The module this engine executes.
    pub fn module(&self) -> &'m Module {
        self.m
    }

    /// Install a speculation overlay: the guard map produced by
    /// `lpat_transform::speculate` for *this engine's module*, plus the
    /// plan's emitted/retracted counts for `--stats`. Must be called
    /// before execution (guards lower to `GUARD` ops in machine code,
    /// and translations are cached).
    pub fn install_speculation(
        &mut self,
        map: std::rc::Rc<lpat_transform::SpecMap>,
        emitted: u64,
        retracted: u64,
    ) {
        self.spec = if map.is_empty() { None } else { Some(map) };
        self.spec_stats.emitted = emitted;
        self.spec_stats.retracted = retracted;
    }

    /// The installed speculation overlay, if any (used at translation).
    pub(crate) fn spec_map(&self) -> Option<&lpat_transform::SpecMap> {
        self.spec.as_deref()
    }

    /// Record one guard execution and decide its direction. `actual` is
    /// the evaluated guard condition; the `spec.guard` fault site can
    /// force the fail side (modeling 100% misspeculation) without
    /// touching the condition's dataflow value, so forced failures stay
    /// observationally equivalent across engines. Shared by the
    /// interpreter and machine code so counters and the persisted guard
    /// profile are engine-independent.
    pub(crate) fn guard_check(&mut self, gid: u32, actual: bool) -> bool {
        let pass = match lpat_core::faultpoint!("spec.guard") {
            Some(lpat_core::FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                actual
            }
            Some(_) => false,
            None => actual,
        };
        if pass {
            self.spec_stats.passed += 1;
        } else {
            self.spec_stats.failed += 1;
        }
        if self.opts.profile {
            self.profile.record_guard(gid, !pass);
        }
        pass
    }

    /// Serialize a constant of type `ty` into memory at `addr`.
    fn write_const(&mut self, addr: u32, ty: TypeId, c: ConstId) -> Result<(), ExecError> {
        self.write_const_at(addr, ty, c, 0)
    }

    fn write_const_at(
        &mut self,
        addr: u32,
        ty: TypeId,
        c: ConstId,
        depth: u32,
    ) -> Result<(), ExecError> {
        // This recursion runs on the host stack, so a deeply nested
        // aggregate constant (possible in decoded-but-unverified modules)
        // needs an explicit bound.
        if depth > 512 {
            return Err(ExecError::trap(
                TrapKind::StackOverflow,
                "constant nesting too deep",
            ));
        }
        match self.m.consts.get(c).clone() {
            Const::Zero(_) | Const::Undef(_) => {
                let size: u32 = self
                    .m
                    .types
                    .try_size_of(ty)
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "unsized zero constant"))?
                    .try_into()
                    .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "constant too large"))?;
                // Zero in bounded chunks so a hostile declared size hits
                // the range check before any proportional host allocation.
                let zeros = [0u8; 4096];
                let mut done = 0u32;
                while done < size {
                    let n = (size - done).min(zeros.len() as u32);
                    let at = addr.checked_add(done).ok_or_else(|| {
                        ExecError::trap(TrapKind::BadAccess, "address wraparound")
                    })?;
                    self.mem.write_bytes(at, &zeros[..n as usize])?;
                    done += n;
                }
            }
            Const::Array { elems, ty: aty } => {
                let elem_ty = match self.m.types.ty(aty) {
                    Type::Array { elem, .. } => *elem,
                    _ => return Err(ExecError::trap(TrapKind::Invalid, "bad array constant")),
                };
                let stride =
                    self.m.types.try_size_of(elem_ty).ok_or_else(|| {
                        ExecError::trap(TrapKind::Invalid, "unsized array element")
                    })?;
                for (i, e) in elems.iter().enumerate() {
                    let at = (i as u64)
                        .checked_mul(stride)
                        .and_then(|o| o.checked_add(addr as u64))
                        .filter(|&end| end <= u32::MAX as u64)
                        .ok_or_else(|| ExecError::trap(TrapKind::BadAccess, "address wraparound"))?
                        as u32;
                    self.write_const_at(at, elem_ty, *e, depth + 1)?;
                }
            }
            Const::Struct { fields, ty: sty } => {
                let ftys = match self.m.types.ty(sty) {
                    Type::Struct { fields, .. } => fields.clone(),
                    _ => return Err(ExecError::trap(TrapKind::Invalid, "bad struct constant")),
                };
                if fields.len() != ftys.len() || self.m.types.try_size_of(sty).is_none() {
                    return Err(ExecError::trap(TrapKind::Invalid, "bad struct constant"));
                }
                for (i, e) in fields.iter().enumerate() {
                    let off = self.m.types.field_offset(sty, i);
                    let at = (addr as u64)
                        .checked_add(off)
                        .filter(|&end| end <= u32::MAX as u64)
                        .ok_or_else(|| ExecError::trap(TrapKind::BadAccess, "address wraparound"))?
                        as u32;
                    self.write_const_at(at, ftys[i], *e, depth + 1)?;
                }
            }
            _ => {
                let v = self.const_value(c)?;
                self.mem.store(addr, v)?;
            }
        }
        Ok(())
    }

    /// Evaluate a scalar constant.
    fn const_value(&self, c: ConstId) -> Result<VmValue, ExecError> {
        Ok(match self.m.consts.get(c) {
            Const::Bool(b) => VmValue::Bool(*b),
            Const::Int { kind, value } => VmValue::Int {
                kind: *kind,
                v: *value,
            },
            Const::F32(bits) => VmValue::F32(f32::from_bits(*bits)),
            Const::F64(bits) => VmValue::F64(f64::from_bits(*bits)),
            Const::Null(_) => VmValue::Ptr(0),
            Const::Undef(t) if self.m.types.is_first_class(*t) => {
                VmValue::zero_of(&self.m.types, *t)
            }
            Const::Zero(t) if self.m.types.is_first_class(*t) => {
                VmValue::zero_of(&self.m.types, *t)
            }
            Const::GlobalAddr(g) => VmValue::Ptr(self.global_addrs[g.index()]),
            Const::FuncAddr(f) => VmValue::Ptr(Memory::func_addr(f.index())),
            other => {
                return Err(ExecError::trap(
                    TrapKind::Invalid,
                    format!("aggregate constant {other:?} used as scalar"),
                ))
            }
        })
    }

    /// Run `main()` and return its integer exit value (an explicit
    /// `exit(code)` also returns here).
    pub fn run_main(&mut self) -> Result<i64, ExecError> {
        let mut sp = trace::span("vm", "interp @main");
        let result = {
            let main = self
                .m
                .func_by_name("main")
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "no @main in module"))?;
            match self.run_function(main, vec![]) {
                Ok(Some(v)) => v
                    .as_i64()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "main returned non-integer")),
                Ok(None) => Ok(0),
                Err(ExecError::Exited(c)) => Ok(c as i64),
                Err(e) => Err(e),
            }
        };
        if trace::enabled() {
            match &result {
                Ok(code) => sp.arg("exit", code.to_string()),
                Err(e) => {
                    sp.arg("error", e.to_string());
                    trace::instant_args("vm", "trap", vec![("error", e.to_string())]);
                }
            }
        }
        result
    }

    /// Call function `f` with `args`; returns its return value.
    ///
    /// # Errors
    ///
    /// Any trap, uncaught `unwind`, or `exit` call surfaces here.
    pub fn run_function(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        let mut stack: Vec<Frame> = Vec::new();
        self.push_frame(&mut stack, f, args, vec![])?;
        loop {
            // Fetch the next instruction of the top frame.
            let m = self.m;
            let fr = stack.last_mut().expect("non-empty stack");
            let func = m.func(fr.func);
            let insts = func.block_insts(fr.block);
            if fr.idx >= insts.len() {
                return Err(ExecError::trap(
                    TrapKind::Invalid,
                    "fell off the end of a block",
                ));
            }
            let iid = insts[fr.idx];
            let block = fr.block;
            // φ-nodes were already executed on the incoming edge (in
            // `transfer`); visiting one in sequence is free — it is not a
            // real instruction at run time.
            let fetched = func.inst(iid);
            if !matches!(fetched, Inst::Phi { .. }) {
                self.charge(Tier::Interp, fetched.opcode_index())?;
            }
            match self.step(fr, block, iid, fetched)? {
                StepResult::Continue => {
                    fr.idx += 1;
                }
                StepResult::Jumped => {}
                StepResult::Call {
                    target,
                    fixed,
                    extra,
                } => {
                    self.push_frame(&mut stack, target, fixed, extra)?;
                }
                StepResult::Returned(v) => {
                    let done = self.pop_frame(&mut stack)?;
                    if done {
                        return Ok(v);
                    }
                    let fr = stack.last_mut().unwrap();
                    let site = fr.pending.take().expect("return into pending call");
                    if let Some(v) = v {
                        fr.regs[site.index()] = Some(v);
                    }
                    // An invoke transfers to its normal successor; a call
                    // continues in-line.
                    match m.func(fr.func).inst(site) {
                        Inst::Invoke { normal, .. } => {
                            let normal = *normal;
                            let from = fr.block;
                            self.transfer(stack.last_mut().unwrap(), from, normal)?;
                        }
                        _ => {
                            fr.idx += 1;
                        }
                    }
                }
                StepResult::Unwinding => {
                    if trace::enabled() {
                        let fname = {
                            let top = stack.last().expect("non-empty stack");
                            self.m.func(top.func).name.clone()
                        };
                        trace::instant_args("vm", "unwind", vec![("from", fname)]);
                    }
                    // Pop frames until one is pending on an invoke.
                    loop {
                        let done = self.pop_frame(&mut stack)?;
                        if done {
                            return Err(ExecError::trap(
                                TrapKind::UncaughtUnwind,
                                "unwind reached the bottom of the stack",
                            ));
                        }
                        let fr = stack.last_mut().unwrap();
                        let site = fr.pending.take().expect("unwind into pending call");
                        if let Inst::Invoke { unwind, .. } = self.m.func(fr.func).inst(site) {
                            let unwind = *unwind;
                            let from = fr.block;
                            self.transfer(stack.last_mut().unwrap(), from, unwind)?;
                            break;
                        }
                        // A plain call: keep unwinding through it.
                    }
                }
            }
        }
    }

    /// Charge one IR instruction dispatched by `tier` against the fuel
    /// budget and the dispatch counters. Every tier charges through here,
    /// before the instruction runs, so fuel exhaustion traps at the same
    /// instruction and the opcode histogram is the same on every tier;
    /// only the per-tier instruction counter differs.
    #[inline]
    pub(crate) fn charge(&mut self, tier: Tier, opidx: usize) -> Result<(), ExecError> {
        if let Some(fuel) = &mut self.opts.fuel {
            if *fuel == 0 {
                return Err(ExecError::trap(TrapKind::OutOfFuel, "instruction budget"));
            }
            *fuel -= 1;
        }
        self.insts_executed += 1;
        let t = &mut self.tier_stats;
        *match tier {
            Tier::Interp => &mut t.interp_insts,
            Tier::Native => &mut t.native_insts,
        } += 1;
        self.opcode_counts[opidx] += 1;
        Ok(())
    }

    /// Build an interpreter activation record for a call to `f`, recording
    /// the call in the profile and drawing the register slab from the
    /// free-list arena. Stack-depth policy is the caller's job.
    pub(crate) fn make_frame(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    ) -> Result<Frame, ExecError> {
        let func = self.m.func(f);
        if func.is_declaration() {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("call into declaration @{}", func.name),
            ));
        }
        if self.opts.profile {
            self.profile.record_call(f);
            self.profile.record_block(f, func.entry());
        }
        let mut regs = self.interp_reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(func.num_inst_slots(), None);
        Ok(Frame {
            func: f,
            args,
            varargs,
            va_next: 0,
            regs,
            block: func.entry(),
            idx: 0,
            allocas: Vec::new(),
            pending: None,
        })
    }

    fn push_frame(
        &mut self,
        stack: &mut Vec<Frame>,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    ) -> Result<(), ExecError> {
        if stack.len() >= self.opts.max_stack {
            return Err(ExecError::trap(TrapKind::StackOverflow, "call depth"));
        }
        let fr = self.make_frame(f, args, varargs)?;
        stack.push(fr);
        Ok(())
    }

    /// Release a popped frame's allocas and return its register slab to
    /// the arena.
    pub(crate) fn recycle_frame(&mut self, mut fr: Frame) -> Result<(), ExecError> {
        let mut regs = std::mem::take(&mut fr.regs);
        regs.clear();
        self.interp_reg_pool.push(regs);
        for a in fr.allocas {
            self.mem.release(a)?;
        }
        Ok(())
    }

    /// Pop the top frame, releasing its allocas. Returns `true` when the
    /// stack is now empty.
    fn pop_frame(&mut self, stack: &mut Vec<Frame>) -> Result<bool, ExecError> {
        let fr = stack.pop().expect("frame to pop");
        self.recycle_frame(fr)?;
        Ok(stack.is_empty())
    }

    /// Transfer control along the CFG edge `from -> to`, executing φs.
    pub(crate) fn transfer(
        &mut self,
        fr: &mut Frame,
        from: BlockId,
        to: BlockId,
    ) -> Result<(), ExecError> {
        let func = self.m.func(fr.func);
        // Simultaneous φ assignment: read all inputs first.
        let mut updates: Vec<(InstId, VmValue)> = Vec::new();
        for &iid in func.block_insts(to) {
            if let Inst::Phi { incoming } = func.inst(iid) {
                let (v, _) = incoming.iter().find(|(_, b)| *b == from).ok_or_else(|| {
                    ExecError::trap(
                        TrapKind::Invalid,
                        format!("phi in bb{} lacks edge from bb{}", to.index(), from.index()),
                    )
                })?;
                updates.push((iid, self.value(fr, *v)?));
            }
        }
        for (iid, v) in updates {
            fr.regs[iid.index()] = Some(v);
        }
        if self.opts.profile {
            self.profile.record_edge(fr.func, from, to);
            self.profile.record_block(fr.func, to);
        }
        fr.block = to;
        fr.idx = 0;
        Ok(())
    }

    /// Evaluate an operand in a frame.
    pub(crate) fn value(&self, fr: &Frame, v: Value) -> Result<VmValue, ExecError> {
        match v {
            Value::Inst(i) => fr.regs[i.index()].ok_or_else(|| {
                ExecError::trap(
                    TrapKind::Invalid,
                    format!("read of unassigned register %t{}", i.index()),
                )
            }),
            Value::Arg(n) => {
                fr.args.get(n as usize).copied().ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "argument index out of range")
                })
            }
            Value::Const(c) => self.const_value(c),
        }
    }

    /// Execute one instruction in frame `fr` (the top of whatever stack
    /// the caller maintains — the pure interpreter's or the tiered
    /// engine's mixed stack). Calls into defined functions are *not*
    /// pushed here: `fr.pending` is set and [`StepResult::Call`] returned
    /// so the caller can pick the callee's tier.
    ///
    /// `inst` is the already-fetched instruction for `iid` — borrowed from
    /// the module (which outlives the engine), never cloned: several
    /// opcodes carry heap-allocated operand lists (`call`, `switch`,
    /// `getelementptr`), and cloning them per dispatch dominated the
    /// interpreter's hot loop.
    pub(crate) fn step(
        &mut self,
        fr: &mut Frame,
        block: BlockId,
        iid: InstId,
        inst: &'m Inst,
    ) -> Result<StepResult, ExecError> {
        let fid = fr.func;
        let func = self.m.func(fid);
        // Shorthand to evaluate operands in the frame.
        macro_rules! ev {
            ($v:expr) => {{
                self.value(fr, $v)?
            }};
        }
        macro_rules! setreg {
            ($v:expr) => {{
                fr.regs[iid.index()] = Some($v);
            }};
        }
        match inst {
            Inst::Phi { .. } => {
                // Already assigned by `transfer` on block entry.
                Ok(StepResult::Continue)
            }
            Inst::Ret(v) => {
                let out = match v {
                    Some(v) => Some(ev!(*v)),
                    None => None,
                };
                Ok(StepResult::Returned(out))
            }
            Inst::Br(t) => {
                self.transfer(fr, block, *t)?;
                Ok(StepResult::Jumped)
            }
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = ev!(*cond)
                    .as_bool()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "non-bool condition"))?;
                // A guard is an ordinary conditional branch plus
                // bookkeeping: when the speculation overlay registers this
                // branch, record the outcome (and honor a forced failure).
                // The interpreter needs no deoptimization — it already
                // *is* the deoptimized tier; the slow path is just taken.
                let guard = self
                    .spec
                    .as_ref()
                    .and_then(|s| s.guard_at(fid, iid))
                    .map(|g| g.id);
                let c = match guard {
                    Some(gid) => self.guard_check(gid, c),
                    None => c,
                };
                let t = if c { *then_bb } else { *else_bb };
                self.transfer(fr, block, t)?;
                Ok(StepResult::Jumped)
            }
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                let v = ev!(*val)
                    .as_i64()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "non-int switch"))?;
                let mut target = *default;
                for (c, b) in cases {
                    if let Some((_, cv)) = self.m.consts.as_int(*c) {
                        if cv == v {
                            target = *b;
                            break;
                        }
                    }
                }
                self.transfer(fr, block, target)?;
                Ok(StepResult::Jumped)
            }
            Inst::Unwind => Ok(StepResult::Unwinding),
            Inst::Unreachable => Err(ExecError::trap(
                TrapKind::Unreachable,
                "unreachable executed",
            )),
            Inst::Bin { op, lhs, rhs } => {
                let a = ev!(*lhs);
                let b = ev!(*rhs);
                setreg!(exec_bin(*op, a, b)?);
                Ok(StepResult::Continue)
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let a = ev!(*lhs);
                let b = ev!(*rhs);
                setreg!(VmValue::Bool(exec_cmp(*pred, a, b)?));
                Ok(StepResult::Continue)
            }
            Inst::Cast { val, to } => {
                let v = ev!(*val);
                setreg!(cast_to(v, self.m.types.ty(*to))?);
                Ok(StepResult::Continue)
            }
            Inst::Malloc { elem_ty, count } | Inst::Alloca { elem_ty, count } => {
                let n = match count {
                    None => 1u64,
                    Some(c) => ev!(*c).as_i64().unwrap_or(0).max(0) as u64,
                };
                let size = self
                    .m
                    .types
                    .try_size_of(*elem_ty)
                    .ok_or_else(|| {
                        ExecError::trap(TrapKind::Invalid, "allocation of unsized type")
                    })?
                    .saturating_mul(n);
                let size: u32 = size
                    .try_into()
                    .map_err(|_| ExecError::trap(TrapKind::OutOfMemory, "allocation too large"))?;
                let addr = self.mem.alloc(size.max(1))?;
                if matches!(inst, Inst::Alloca { .. }) {
                    fr.allocas.push(addr);
                }
                setreg!(VmValue::Ptr(addr));
                Ok(StepResult::Continue)
            }
            Inst::Free(p) => {
                let a = ev!(*p)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "free of non-pointer"))?;
                if a != 0 {
                    self.mem.release(a)?;
                }
                Ok(StepResult::Continue)
            }
            Inst::Load { ptr } => {
                let a = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "load of non-pointer"))?;
                let ty = func.inst_ty(iid);
                let v = self.load_typed(a, ty)?;
                setreg!(v);
                Ok(StepResult::Continue)
            }
            Inst::Store { val, ptr } => {
                let v = ev!(*val);
                let a = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "store to non-pointer"))?;
                self.mem.store(a, v)?;
                Ok(StepResult::Continue)
            }
            Inst::Gep { ptr, indices } => {
                let base = ev!(*ptr)
                    .as_ptr()
                    .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "gep on non-pointer"))?;
                let fr_vals: Vec<i64> = indices
                    .iter()
                    .map(|&i| {
                        self.value(fr, i).and_then(|v| {
                            v.as_i64().ok_or_else(|| {
                                ExecError::trap(TrapKind::Invalid, "non-int gep index")
                            })
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let pty = self.m.value_type(func, *ptr);
                let off = self.gep_offset(pty, indices, &fr_vals)?;
                setreg!(VmValue::Ptr(base.wrapping_add(off as u32)));
                Ok(StepResult::Continue)
            }
            Inst::VaArg { .. } => {
                let v = fr.varargs.get(fr.va_next).copied().ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "vaarg past the end of the variadic list")
                })?;
                fr.va_next += 1;
                fr.regs[iid.index()] = Some(v);
                Ok(StepResult::Continue)
            }
            Inst::Call { callee, args } | Inst::Invoke { callee, args, .. } => {
                if self.opts.profile {
                    self.profile.record_callsite(fid, iid);
                }
                let target = self.resolve_callee(fr, *callee)?;
                let argv: Vec<VmValue> = args
                    .iter()
                    .map(|&a| self.value(fr, a))
                    .collect::<Result<_, _>>()?;
                let tf = self.m.func(target);
                if tf.is_declaration() {
                    // Intrinsic / external.
                    let ret = self.call_external(target, &argv)?;
                    if let Some(v) = ret {
                        setreg!(v);
                    }
                    // Invokes of externals return normally (externals here
                    // never unwind).
                    if let Inst::Invoke { normal, .. } = inst {
                        let n = *normal;
                        self.transfer(fr, block, n)?;
                        return Ok(StepResult::Jumped);
                    }
                    return Ok(StepResult::Continue);
                }
                let nfixed = tf.num_params();
                let (fixed, extra) = if argv.len() > nfixed {
                    let (a, b) = argv.split_at(nfixed);
                    (a.to_vec(), b.to_vec())
                } else {
                    (argv, Vec::new())
                };
                fr.pending = Some(iid);
                Ok(StepResult::Call {
                    target,
                    fixed,
                    extra,
                })
            }
        }
    }

    fn resolve_callee(&self, fr: &Frame, callee: Value) -> Result<FuncId, ExecError> {
        let v = self.value(fr, callee)?;
        let addr = v
            .as_ptr()
            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "call through non-pointer"))?;
        self.mem
            .addr_to_func(addr)
            .map(FuncId::from_index)
            .ok_or_else(|| {
                ExecError::trap(
                    TrapKind::Invalid,
                    format!("call through {addr:#x}, not a function address"),
                )
            })
    }

    fn load_typed(&mut self, addr: u32, ty: TypeId) -> Result<VmValue, ExecError> {
        match self.m.types.ty(ty) {
            Type::Bool => self.mem.load_bool(addr),
            Type::Int(k) => self.mem.load_int(addr, *k),
            Type::F32 => self.mem.load_f32(addr),
            Type::F64 => self.mem.load_f64(addr),
            Type::Ptr(_) => self.mem.load_ptr(addr),
            other => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("load of non-first-class type {other:?}"),
            )),
        }
    }

    /// Byte offset of a GEP with runtime index values.
    fn gep_offset(
        &self,
        base_ptr: TypeId,
        indices: &[Value],
        vals: &[i64],
    ) -> Result<i64, ExecError> {
        let tys = &self.m.types;
        let mut cur = tys
            .pointee(base_ptr)
            .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "gep base not a pointer"))?;
        let mut off: i64 = 0;
        for (k, &v) in vals.iter().enumerate() {
            if k == 0 {
                let sz = tys.try_size_of(cur).ok_or_else(|| {
                    ExecError::trap(TrapKind::Invalid, "gep through unsized type")
                })?;
                off = off.wrapping_add(v.wrapping_mul(sz as i64));
                continue;
            }
            match tys.ty(cur).clone() {
                Type::Struct { fields, .. } => {
                    let fi = v as usize;
                    if fi >= fields.len() || tys.try_size_of(cur).is_none() {
                        return Err(ExecError::trap(TrapKind::Invalid, "struct index range"));
                    }
                    off = off.wrapping_add(tys.field_offset(cur, fi) as i64);
                    cur = fields[fi];
                }
                Type::Array { elem, .. } => {
                    let sz = tys.try_size_of(elem).ok_or_else(|| {
                        ExecError::trap(TrapKind::Invalid, "gep through unsized type")
                    })?;
                    off = off.wrapping_add(v.wrapping_mul(sz as i64));
                    cur = elem;
                }
                _ => return Err(ExecError::trap(TrapKind::Invalid, "gep into scalar")),
            }
        }
        let _ = indices;
        Ok(off)
    }

    /// The `n` most-executed opcodes so far: `(mnemonic, count)`, sorted by
    /// descending count (ties broken by opcode index, so the order is
    /// deterministic). Zero-count opcodes are omitted.
    pub fn top_opcodes(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut order: Vec<usize> = (0..Inst::NUM_OPCODES)
            .filter(|&i| self.opcode_counts[i] > 0)
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.opcode_counts[i]), i));
        order
            .into_iter()
            .take(n)
            .map(|i| (Inst::opcode_mnemonic(i), self.opcode_counts[i]))
            .collect()
    }

    /// Fold the engine's accumulated counters — dispatch total, per-opcode
    /// histogram, heap traffic — into the trace layer. Counts are
    /// cumulative, so call once, after the last run, before exporting.
    pub fn flush_trace(&self) {
        if !trace::enabled() {
            return;
        }
        trace::counter("vm.insts", self.insts_executed);
        for (i, &n) in self.opcode_counts.iter().enumerate() {
            trace::counter(OP_COUNTER_NAMES[i], n);
        }
        let t = &self.tier_stats;
        trace::counter("vm.tier.promotions", t.promoted);
        trace::counter("vm.tier.demotions", t.demoted);
        trace::counter("vm.tier.warm", t.warmed);
        trace::counter("vm.tier.osr", t.osr);
        trace::counter("vm.tier.interp_insts", t.interp_insts);
        trace::counter("vm.tier.native.translated", t.native_translated);
        trace::counter("vm.tier.native.insts", t.native_insts);
        // Speculation counters are exported unconditionally (all zero
        // without `--speculate`) so trace consumers see a stable key set.
        let s = &self.spec_stats;
        trace::counter_keyed("vm.spec.emitted", s.emitted);
        trace::counter_keyed("vm.spec.retracted", s.retracted);
        trace::counter_keyed("vm.spec.passed", s.passed);
        trace::counter_keyed("vm.spec.failed", s.failed);
        trace::counter_keyed("vm.spec.deopts", s.deopts);
        let h = self.mem.stats();
        trace::counter("heap.allocs", h.allocs);
        trace::counter("heap.frees", h.frees);
        trace::counter("heap.coalesces", h.coalesces);
        trace::counter("heap.peak_bytes", h.peak_bytes);
    }

    /// Dispatch a call to an external declaration (the VM's tiny runtime
    /// library: I/O and process control). Shared with machine code.
    pub(crate) fn call_external(
        &mut self,
        f: FuncId,
        args: &[VmValue],
    ) -> Result<Option<VmValue>, ExecError> {
        use std::fmt::Write;
        let name = self.m.func(f).name.clone();
        let geti = |i: usize| -> i64 { args.get(i).and_then(|v| v.as_i64()).unwrap_or(0) };
        match name.as_str() {
            "print_int" => {
                let _ = writeln!(self.output, "{}", geti(0));
                Ok(None)
            }
            "print_double" => {
                let v = match args.first() {
                    Some(VmValue::F64(f)) => *f,
                    Some(VmValue::F32(f)) => *f as f64,
                    _ => 0.0,
                };
                let _ = writeln!(self.output, "{v}");
                Ok(None)
            }
            "print_str" | "puts" => {
                let addr = args.first().and_then(|v| v.as_ptr()).unwrap_or(0);
                if addr != 0 {
                    let bytes = self.mem.read_cstr(addr, 1 << 20)?;
                    self.output.push_str(&String::from_utf8_lossy(&bytes));
                }
                self.output.push('\n');
                Ok(Some(VmValue::int(IntKind::S32, 0)))
            }
            "putchar" => {
                let c = geti(0) as u8 as char;
                self.output.push(c);
                Ok(Some(VmValue::int(IntKind::S32, geti(0))))
            }
            "read_int" => {
                let v = self.opts.input.pop_front().unwrap_or(0);
                Ok(Some(VmValue::int(IntKind::S32, v)))
            }
            "exit" => Err(ExecError::Exited(geti(0) as i32)),
            "abort" => Err(ExecError::trap(TrapKind::Invalid, "abort() called")),
            other => Err(ExecError::trap(
                TrapKind::Invalid,
                format!("call to unknown external @{other}"),
            )),
        }
    }
}

pub(crate) enum StepResult {
    Continue,
    Jumped,
    /// A call into a defined function: `fr.pending` is already set; the
    /// caller decides which tier executes the callee and pushes the frame.
    Call {
        target: FuncId,
        fixed: Vec<VmValue>,
        extra: Vec<VmValue>,
    },
    Returned(Option<VmValue>),
    Unwinding,
}

// ----------------------------------------------------------------------
// Scalar semantics
// ----------------------------------------------------------------------

pub(crate) fn exec_bin(op: BinOp, a: VmValue, b: VmValue) -> Result<VmValue, ExecError> {
    match (a, b) {
        (VmValue::Int { kind, v: x }, VmValue::Int { v: y, .. }) => {
            let signed = kind.is_signed();
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(ExecError::trap(TrapKind::DivByZero, "integer division"));
                    }
                    if signed {
                        x.wrapping_div(y)
                    } else {
                        ((x as u64).wrapping_div(y as u64)) as i64
                    }
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(ExecError::trap(TrapKind::DivByZero, "integer remainder"));
                    }
                    if signed {
                        x.wrapping_rem(y)
                    } else {
                        ((x as u64).wrapping_rem(y as u64)) as i64
                    }
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl((y as u64 % kind.bits() as u64) as u32),
                BinOp::Shr => {
                    let sh = (y as u64 % kind.bits() as u64) as u32;
                    if signed {
                        x.wrapping_shr(sh)
                    } else {
                        let mask = if kind.bits() == 64 {
                            u64::MAX
                        } else {
                            (1u64 << kind.bits()) - 1
                        };
                        (((x as u64) & mask) >> sh) as i64
                    }
                }
            };
            Ok(VmValue::int(kind, v))
        }
        (VmValue::F64(x), VmValue::F64(y)) => Ok(VmValue::F64(exec_fbin(op, x, y)?)),
        (VmValue::F32(x), VmValue::F32(y)) => {
            Ok(VmValue::F32(exec_fbin(op, x as f64, y as f64)? as f32))
        }
        (VmValue::Bool(x), VmValue::Bool(y)) => Ok(VmValue::Bool(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            BinOp::Xor => x != y,
            _ => return Err(ExecError::trap(TrapKind::Invalid, "arith on bool")),
        })),
        _ => Err(ExecError::trap(
            TrapKind::Invalid,
            format!("{} on mismatched operands", op.name()),
        )),
    }
}

fn exec_fbin(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => x % y,
        _ => return Err(ExecError::trap(TrapKind::Invalid, "bitwise on float")),
    })
}

pub(crate) fn exec_cmp(pred: CmpPred, a: VmValue, b: VmValue) -> Result<bool, ExecError> {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (a, b) {
        (VmValue::Int { kind, v: x }, VmValue::Int { v: y, .. }) => Some(if kind.is_signed() {
            x.cmp(&y)
        } else {
            (x as u64).cmp(&(y as u64))
        }),
        (VmValue::Bool(x), VmValue::Bool(y)) => Some(x.cmp(&y)),
        (VmValue::F32(x), VmValue::F32(y)) => x.partial_cmp(&y),
        (VmValue::F64(x), VmValue::F64(y)) => x.partial_cmp(&y),
        (VmValue::Ptr(x), VmValue::Ptr(y)) => Some(x.cmp(&y)),
        _ => return Err(ExecError::trap(TrapKind::Invalid, "mismatched comparison")),
    };
    Ok(match ord {
        // IEEE: every ordered predicate is false on unordered operands,
        // except != which is true.
        None => matches!(pred, CmpPred::Ne),
        Some(o) => match pred {
            CmpPred::Eq => o == Ordering::Equal,
            CmpPred::Ne => o != Ordering::Equal,
            CmpPred::Lt => o == Ordering::Less,
            CmpPred::Gt => o == Ordering::Greater,
            CmpPred::Le => o != Ordering::Greater,
            CmpPred::Ge => o != Ordering::Less,
        },
    })
}

/// Cast a scalar to the first-class type `tt` (shared with machine
/// code).
pub(crate) fn cast_to(v: VmValue, tt: &Type) -> Result<VmValue, ExecError> {
    let tt = tt.clone();
    Ok(match (v, tt) {
        (VmValue::Int { v, .. }, Type::Int(k)) => VmValue::int(k, v),
        (VmValue::Int { kind, v }, Type::F32) => {
            let f = if kind.is_signed() {
                v as f64
            } else {
                v as u64 as f64
            };
            VmValue::F32(f as f32)
        }
        (VmValue::Int { kind, v }, Type::F64) => {
            let f = if kind.is_signed() {
                v as f64
            } else {
                v as u64 as f64
            };
            VmValue::F64(f)
        }
        (VmValue::Int { v, .. }, Type::Bool) => VmValue::Bool(v != 0),
        (VmValue::Int { v, .. }, Type::Ptr(_)) => VmValue::Ptr(v as u32),
        (VmValue::Bool(b), Type::Int(k)) => VmValue::int(k, b as i64),
        (VmValue::Bool(b), Type::Bool) => VmValue::Bool(b),
        (VmValue::F32(f), t) => cast_float(f as f64, t)?,
        (VmValue::F64(f), t) => cast_float(f, t)?,
        (VmValue::Ptr(p), Type::Ptr(_)) => VmValue::Ptr(p),
        (VmValue::Ptr(p), Type::Int(k)) => VmValue::int(k, p as i64),
        (VmValue::Ptr(p), Type::Bool) => VmValue::Bool(p != 0),
        (v, t) => {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("unsupported cast of {v:?} to {t:?}"),
            ))
        }
    })
}

fn cast_float(f: f64, t: Type) -> Result<VmValue, ExecError> {
    Ok(match t {
        Type::F32 => VmValue::F32(f as f32),
        Type::F64 => VmValue::F64(f),
        Type::Bool => VmValue::Bool(f != 0.0),
        Type::Int(k) => {
            let v = if k.is_signed() {
                f.clamp(i64::MIN as f64, i64::MAX as f64) as i64
            } else {
                f.clamp(0.0, u64::MAX as f64) as u64 as i64
            };
            VmValue::int(k, v)
        }
        other => {
            return Err(ExecError::trap(
                TrapKind::Invalid,
                format!("unsupported float cast to {other:?}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counter_names_align_with_opcode_table() {
        for (i, name) in OP_COUNTER_NAMES.iter().enumerate() {
            assert_eq!(
                name.strip_prefix("vm.op."),
                Some(Inst::opcode_mnemonic(i)),
                "counter name {i} out of sync with the opcode table"
            );
        }
    }
}
