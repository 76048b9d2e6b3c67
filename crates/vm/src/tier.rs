//! Tiered hot-path execution (paper §3.5's runtime optimizer, applied to
//! the execution engine itself).
//!
//! The paper's runtime model assumes execution *starts* cheap and
//! *becomes* fast: lightweight profiling identifies hot regions, which
//! are then handed to a code generator that translates "one function at
//! a time" (§3.4). This module is that adaptive layer for the VM, a
//! two-rung ladder:
//!
//! * Every function starts in the **profiling interpreter**. A hotness
//!   counter per function sums its calls and its loop back-edges.
//! * When the counter *exceeds* `VmOptions::tier_up`, the function is
//!   **promoted**: translated by the single-pass backend to machine code
//!   (`native.rs`) and run there from then on. If the current activation
//!   is interpreted when its function crosses the threshold on a
//!   back-edge, it is switched in place at the loop-header boundary
//!   (**on-stack replacement**) — hot loops in `main` get fast without
//!   waiting for a second call that never comes.
//! * A translation failure (varargs, an encoding limit, an injected
//!   `native.translate` fault) **demotes** the function permanently to
//!   the interpreter; execution continues. [`TierStats`] counts
//!   demotions by reason.
//! * A failing speculation guard in machine code **deoptimizes**: the
//!   native frame becomes an interpreter frame at the guard's slow block
//!   through one home-table copy, the inverse of OSR.
//! * Interpreted and native frames interleave freely on one call stack
//!   in both directions — including across `invoke`/`unwind`.
//! * [`Vm::warm_start`] seeds the tier decisions from a prior run's
//!   profile (the lifelong store's accumulated counts): functions already
//!   known hot are translated eagerly at load, closing the paper's
//!   "lifelong" loop at the execution layer.
//!
//! Observational identity: the tiered engine produces the same output,
//! return value, trap kind, fuel consumption, profile counters, and
//! opcode histogram as the reference interpreter at *any* threshold —
//! a differential suite in `tests/tiered.rs` pins this across the whole
//! workload suite.

use std::collections::BTreeMap;

use lpat_core::trace;
use lpat_core::{BlockId, FuncId, Inst};

use lpat_codegen::fast::bail;

use crate::error::{ExecError, TrapKind};
use crate::interp::{Frame, StepResult, Vm};
use crate::native::{Flow, NatFrame};
use crate::profile::ProfileData;
use crate::value::VmValue;

/// Per-function tier state: `Cold → Native`, or `Demoted` for good.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TierCell {
    /// Interpreted; the payload is the hotness counter (calls +
    /// back-edges observed so far).
    Cold(u64),
    /// Promoted: machine code exists in the native cache and is used for
    /// every call whose arguments match the declared classes (others are
    /// interpreted, per call), and, via OSR, for running interpreted
    /// activations.
    Native,
    /// Translation failed, or deoptimization panicked; permanently
    /// interpreted.
    Demoted,
}

/// One rung of the ladder: what dispatches an instruction, picked per
/// call and per frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    Interp,
    Native,
}

/// Tiered-execution statistics, kept outside the trace layer so wall
/// clock–dependent values (translation time) never leak into
/// byte-deterministic trace exports.
///
/// Fields marked *unused* belong to the deleted middle rung. The
/// single interp ⇄ native rung never writes them, so they stay 0; they
/// remain only because the frozen benchmark (`perfbench/`) reads them,
/// and go with its next change.
#[derive(Clone, Debug, Default)]
pub struct TierStats {
    /// Functions promoted interpreter → machine code (includes
    /// warm-start promotions; `promoted - warmed` is the runtime count).
    pub promoted: u64,
    /// Functions demoted to the interpreter: a failed translation, or a
    /// deoptimization whose frame rebuild panicked.
    pub demoted: u64,
    /// `demoted`, split by [`bail`] reason.
    pub demoted_by: BTreeMap<&'static str, u64>,
    /// Functions promoted eagerly from a prior run's profile.
    pub warmed: u64,
    /// Interpreted activations switched to machine code mid-run at a
    /// loop header (on-stack replacement).
    pub osr: u64,
    /// Unused (always 0).
    pub translated: u64,
    /// Instructions dispatched by the interpreter.
    pub interp_insts: u64,
    /// Unused (always 0).
    pub jit_insts: u64,
    /// Unused (always 0).
    pub translate_ns: u64,
    /// Unused (always 0).
    pub native_promoted: u64,
    /// Unused (always 0).
    pub native_demoted: u64,
    /// Unused (always empty).
    pub native_demoted_by: BTreeMap<&'static str, u64>,
    /// Unused (always 0).
    pub native_osr: u64,
    /// Functions translated by the single-pass native backend.
    pub native_translated: u64,
    /// Instructions dispatched as machine code.
    pub native_insts: u64,
    /// Wall-clock nanoseconds spent in the native backend.
    pub native_translate_ns: u64,
}

/// A frame on the mixed call stack: interpreted or native.
pub(crate) enum TFrame {
    I(Frame),
    N(NatFrame),
}

/// Per-tier trace segments: one span per contiguous run of same-tier
/// execution, so a Perfetto timeline shows execution time migrating up
/// the ladder as promotions happen.
struct TierSegments {
    active: bool,
    cur: Option<(trace::Span, Tier)>,
}

impl TierSegments {
    fn new() -> TierSegments {
        TierSegments {
            active: trace::enabled(),
            cur: None,
        }
    }

    fn enter(&mut self, tier: Tier) {
        if !self.active {
            return;
        }
        if let Some((_, k)) = &self.cur {
            if *k == tier {
                return;
            }
        }
        // Dropping the old span records its end before the new one opens.
        self.cur = None;
        let name = match tier {
            Tier::Interp => "tier-interp",
            Tier::Native => "tier-native",
        };
        self.cur = Some((trace::span("vm", name), tier));
    }
}

impl<'m> Vm<'m> {
    /// Run `main()` under the tiered engine. Produces the same results as
    /// [`Vm::run_main`] at any `VmOptions::tier_up` threshold.
    pub fn run_main_tiered(&mut self) -> Result<i64, ExecError> {
        let mut sp = trace::span("vm", "tiered @main");
        let result = {
            let main = self
                .module()
                .func_by_name("main")
                .ok_or_else(|| ExecError::trap(TrapKind::Invalid, "no @main in module"))?;
            match self.run_function_tiered(main, vec![]) {
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

    /// Call `f` with `args` under the tiered engine: a single stack of
    /// interpreted and native frames, with counter-driven promotion, OSR
    /// and deoptimization.
    pub fn run_function_tiered(
        &mut self,
        f: FuncId,
        args: Vec<VmValue>,
    ) -> Result<Option<VmValue>, ExecError> {
        let mut stack: Vec<TFrame> = Vec::new();
        self.push_mixed(&mut stack, f, args, Vec::new())?;
        self.mixed_loop(&mut stack, &mut TierSegments::new())
    }

    /// Seed tier decisions from a prior run's profile (typically the
    /// lifelong store's accumulated counts): every function whose call
    /// count or hottest block count already exceeds the `tier_up`
    /// threshold is translated eagerly, so the run starts in machine code
    /// instead of re-warming. A translation failure demotes the function
    /// as it would at run time. Returns the number of functions warmed.
    pub fn warm_start(&mut self, profile: &ProfileData) -> usize {
        let _sp = trace::span("vm", "warm-start");
        let threshold = self.opts.tier_up;
        let m = self.module();
        let nf = m.num_funcs();
        // One pass over the profile maps; per-function max hotness.
        let mut hotness = vec![0u64; nf];
        for (&(f, _), &c) in &profile.block_counts {
            if f.index() < nf {
                hotness[f.index()] = hotness[f.index()].max(c);
            }
        }
        for (&f, &c) in &profile.call_counts {
            if f.index() < nf {
                hotness[f.index()] = hotness[f.index()].max(c);
            }
        }
        let mut warmed = 0usize;
        // Function-index order: deterministic regardless of map order.
        for (i, &hot) in hotness.iter().enumerate() {
            let f = FuncId::from_index(i);
            if hot <= threshold
                || m.func(f).is_declaration()
                || !matches!(self.tier[i], TierCell::Cold(_))
            {
                continue;
            }
            if self.try_promote(f) {
                self.tier_stats.warmed += 1;
                warmed += 1;
            }
        }
        warmed
    }

    fn mixed_loop(
        &mut self,
        stack: &mut Vec<TFrame>,
        seg: &mut TierSegments,
    ) -> Result<Option<VmValue>, ExecError> {
        // What a hoisted interpreter burst ended with (the inner loop
        // holds a borrow of the top frame, so stack surgery happens out
        // here where that borrow is dead).
        enum After {
            Call {
                target: FuncId,
                fixed: Vec<VmValue>,
                extra: Vec<VmValue>,
            },
            Ret(Option<VmValue>),
            Unwind,
            Osr,
        }
        loop {
            if let TFrame::N(fr) = stack.last_mut().expect("frame") {
                // Machine-code burst: runs until a call boundary, return,
                // unwind, deoptimization or trap.
                seg.enter(Tier::Native);
                match crate::native::run_native_burst(self, fr)? {
                    Flow::Call {
                        target,
                        args,
                        varargs,
                    } => self.push_mixed(stack, target, args, varargs)?,
                    Flow::Ret(v) => {
                        if let Some(out) = self.deliver_return(stack, v)? {
                            return Ok(out);
                        }
                    }
                    Flow::Unwinding => self.deliver_unwind(stack)?,
                    Flow::Deopt { block } => self.deopt_enter(stack, block),
                }
                continue;
            }
            seg.enter(Tier::Interp);
            // Single-step interpretation of the current frame. The frame
            // borrow, function lookup, and module access are hoisted out
            // of the per-instruction loop (they are loop-invariant:
            // `fr.func` never changes within an activation, and the stack
            // is untouched until a call / return / unwind / OSR ends the
            // burst).
            let m = self.module();
            let after = {
                let fr = match stack.last_mut().expect("frame") {
                    TFrame::I(fr) => fr,
                    TFrame::N(_) => unreachable!(),
                };
                let func = m.func(fr.func);
                loop {
                    let insts = func.block_insts(fr.block);
                    if fr.idx >= insts.len() {
                        return Err(ExecError::trap(
                            TrapKind::Invalid,
                            "fell off the end of a block",
                        ));
                    }
                    let iid = insts[fr.idx];
                    let block = fr.block;
                    let fetched = func.inst(iid);
                    if !matches!(fetched, Inst::Phi { .. }) {
                        self.charge(Tier::Interp, fetched.opcode_index())?;
                    }
                    match self.step(fr, block, iid, fetched)? {
                        StepResult::Continue => fr.idx += 1,
                        StepResult::Jumped => {
                            // A back-edge (jump to the same or an earlier
                            // block) marks a loop iteration: bump the
                            // hotness counter, and if the function is (or
                            // just became) native, switch this activation
                            // to machine code at the header (OSR).
                            if fr.block.index() <= block.index() {
                                let f = fr.func;
                                self.tier_bump(f);
                                if matches!(self.tier[f.index()], TierCell::Native) {
                                    break After::Osr;
                                }
                            }
                        }
                        StepResult::Call {
                            target,
                            fixed,
                            extra,
                        } => {
                            break After::Call {
                                target,
                                fixed,
                                extra,
                            }
                        }
                        StepResult::Returned(v) => break After::Ret(v),
                        StepResult::Unwinding => break After::Unwind,
                    }
                }
            };
            match after {
                After::Call {
                    target,
                    fixed,
                    extra,
                } => self.push_mixed(stack, target, fixed, extra)?,
                After::Ret(v) => {
                    if let Some(out) = self.deliver_return(stack, v)? {
                        return Ok(out);
                    }
                }
                After::Unwind => self.deliver_unwind(stack)?,
                After::Osr => self.osr_enter(stack)?,
            }
        }
    }

    /// Push an activation for `f` on the tier the ladder picks.
    fn push_mixed(
        &mut self,
        stack: &mut Vec<TFrame>,
        f: FuncId,
        args: Vec<VmValue>,
        varargs: Vec<VmValue>,
    ) -> Result<(), ExecError> {
        if stack.len() >= self.opts.max_stack {
            return Err(ExecError::trap(TrapKind::StackOverflow, "call depth"));
        }
        if self.tier_decide_call(f) == Tier::Native {
            // `None` when an actual argument defies the declared class
            // (possible only through mistyped indirect calls): the
            // interpreter represents any value, so this call runs there.
            if let Some(fr) = self.make_native_frame(f, &args)? {
                stack.push(TFrame::N(fr));
                return Ok(());
            }
        }
        let fr = self.make_frame(f, args, varargs)?;
        stack.push(TFrame::I(fr));
        Ok(())
    }

    /// Pop and recycle the top frame.
    fn pop_mixed(&mut self, stack: &mut Vec<TFrame>) -> Result<(), ExecError> {
        match stack.pop().expect("frame to pop") {
            TFrame::I(fr) => self.recycle_frame(fr),
            TFrame::N(fr) => self.recycle_native_frame(fr),
        }
    }

    /// Pop the finished frame and deliver `v` to the caller (whatever its
    /// tier). Returns `Some(v)` when the popped frame was the outermost.
    fn deliver_return(
        &mut self,
        stack: &mut Vec<TFrame>,
        v: Option<VmValue>,
    ) -> Result<Option<Option<VmValue>>, ExecError> {
        self.pop_mixed(stack)?;
        let Some(parent) = stack.last_mut() else {
            return Ok(Some(v));
        };
        match parent {
            TFrame::I(fr) => {
                let site = fr.pending.take().expect("return into pending call");
                if let Some(v) = v {
                    fr.regs[site.index()] = Some(v);
                }
                // An invoke transfers to its normal successor; a call
                // continues in-line.
                let site_inst = self.module().func(fr.func).inst(site);
                if let Inst::Invoke { normal, .. } = site_inst {
                    let n = *normal;
                    let from = fr.block;
                    self.transfer(fr, from, n)?;
                } else {
                    fr.idx += 1;
                }
            }
            TFrame::N(fr) => {
                let (dst, eh) = fr.pending.take().expect("pending call");
                if let (Some((h, cl)), Some(v)) = (dst, v) {
                    // The returned scalar must have the class the native
                    // code was compiled for. A mismatch is only possible
                    // in unverified, type-confused modules; trap rather
                    // than silently reinterpret bits (DESIGN.md §16).
                    if !crate::native::matches_class(&v, cl) {
                        return Err(ExecError::trap(
                            TrapKind::Invalid,
                            "native call result class mismatch",
                        ));
                    }
                    fr.put(h, crate::native::bits(&v));
                }
                if let Some((normal, _)) = eh {
                    let code = fr.code.clone();
                    crate::native::take_nat_edge(self, fr, &code, normal as usize);
                }
            }
        }
        Ok(None)
    }

    /// Unwind: pop frames until one is suspended on an `invoke`, then
    /// transfer to its unwind successor — across tiers.
    fn deliver_unwind(&mut self, stack: &mut Vec<TFrame>) -> Result<(), ExecError> {
        if trace::enabled() {
            if let Some(top) = stack.last() {
                let f = match top {
                    TFrame::I(fr) => fr.func,
                    TFrame::N(fr) => fr.func,
                };
                let fname = self.module().func(f).name.clone();
                trace::instant_args("vm", "unwind", vec![("from", fname)]);
            }
        }
        loop {
            self.pop_mixed(stack)?;
            let Some(parent) = stack.last_mut() else {
                return Err(ExecError::trap(
                    TrapKind::UncaughtUnwind,
                    "unwind reached the bottom of the stack",
                ));
            };
            match parent {
                TFrame::I(fr) => {
                    let site = fr.pending.take().expect("unwind into pending call");
                    let site_inst = self.module().func(fr.func).inst(site);
                    if let Inst::Invoke { unwind, .. } = site_inst {
                        let u = *unwind;
                        let from = fr.block;
                        self.transfer(fr, from, u)?;
                        return Ok(());
                    }
                    // A plain call: keep unwinding through it.
                }
                TFrame::N(fr) => {
                    let (_, eh) = fr.pending.take().expect("pending call");
                    if let Some((_, unwind)) = eh {
                        let code = fr.code.clone();
                        crate::native::take_nat_edge(self, fr, &code, unwind as usize);
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Tier decision at a call boundary: native functions run machine
    /// code, demoted ones interpret, cold ones bump their counter (a call
    /// is a hotness event) and may promote right here, so `tier_up 0`
    /// runs every function native from its first call.
    fn tier_decide_call(&mut self, f: FuncId) -> Tier {
        match self.tier[f.index()] {
            TierCell::Native => Tier::Native,
            TierCell::Demoted => Tier::Interp,
            TierCell::Cold(_) => {
                self.tier_bump(f);
                if matches!(self.tier[f.index()], TierCell::Native) {
                    Tier::Native
                } else {
                    Tier::Interp
                }
            }
        }
    }

    /// Count a hotness event (call or loop back-edge) against a cold
    /// function; promote it when the threshold is crossed.
    fn tier_bump(&mut self, f: FuncId) {
        if let TierCell::Cold(n) = self.tier[f.index()] {
            let n = n.saturating_add(1);
            self.tier[f.index()] = TierCell::Cold(n);
            if n > self.opts.tier_up {
                self.try_promote(f);
            }
        }
    }

    /// Translate `f` to machine code and mark it `Native`; on failure — a
    /// backend bail or an injected `native.translate` fault — mark it
    /// `Demoted` (it keeps interpreting, the program keeps running).
    /// Returns whether the function is native.
    fn try_promote(&mut self, f: FuncId) -> bool {
        match self.ensure_native_translated(f) {
            Ok(_) => {
                self.tier[f.index()] = TierCell::Native;
                self.tier_stats.promoted += 1;
                if trace::enabled() {
                    trace::instant_args(
                        "vm",
                        "tier-up",
                        vec![("function", self.module().func(f).name.clone())],
                    );
                }
                true
            }
            Err(b) => {
                // `ensure_native_translated` already emitted the
                // bail-to-interp instant with the error.
                self.demote(f, b.reason);
                false
            }
        }
    }

    /// Mark `f` permanently interpreted, counting the demotion once.
    fn demote(&mut self, f: FuncId, reason: &'static str) {
        if matches!(self.tier[f.index()], TierCell::Demoted) {
            return;
        }
        self.tier[f.index()] = TierCell::Demoted;
        self.tier_stats.demoted += 1;
        *self.tier_stats.demoted_by.entry(reason).or_default() += 1;
        if trace::enabled() {
            trace::instant_args(
                "vm",
                "tier-demote",
                vec![("function", self.module().func(f).name.clone())],
            );
        }
    }

    /// On-stack replacement, interpreter → native: the top frame must be
    /// interpreted and at a block boundary (`idx == 0`, right after a
    /// `transfer`, so φs are done). Homes are a pure function of
    /// `InstId`, so the rebuild is one table-driven copy. When an
    /// argument's class defies the declared signature the frame keeps
    /// interpreting (correct either way; machine code is an
    /// optimization, never a semantic requirement).
    fn osr_enter(&mut self, stack: &mut [TFrame]) -> Result<(), ExecError> {
        let Some(TFrame::I(fr)) = stack.last_mut() else {
            return Ok(());
        };
        debug_assert_eq!(fr.idx, 0, "OSR only at a block boundary");
        let nf = match self.native_frame_from_interp(fr) {
            Ok(Some(nf)) => nf,
            Ok(None) | Err(_) => return Ok(()),
        };
        let mut old_regs = std::mem::take(&mut fr.regs);
        old_regs.clear();
        self.interp_reg_pool.push(old_regs);
        self.tier_stats.osr += 1;
        if trace::enabled() {
            trace::instant_args(
                "vm",
                "tier-osr",
                vec![("function", self.module().func(nf.func).name.clone())],
            );
        }
        *stack.last_mut().expect("frame") = TFrame::N(nf);
        Ok(())
    }

    /// Deoptimization: the inverse of [`Vm::osr_enter`]. The top frame
    /// must be native and sitting at a block boundary (a guard's fail
    /// edge was just taken, so φs are done and `pc` is at the block's
    /// first op). The frame is rebuilt in interpreted form at that block
    /// through the home table ([`NatFrame::interp_regs`]).
    ///
    /// The `tier.deopt` fault site fires inside the register
    /// reconstruction; a panic there (injected or real) must not kill a
    /// running program whose native frame is still perfectly valid —
    /// the function is demoted for future calls and the current
    /// activation keeps executing machine code (the slow path is
    /// ordinary code, so semantics are preserved either way).
    fn deopt_enter(&mut self, stack: &mut [TFrame], block: u32) {
        let Some(TFrame::N(fr)) = stack.last_mut() else {
            return;
        };
        let slab = self.interp_reg_pool.pop().unwrap_or_default();
        let mut reason = bail::OTHER;
        let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(a) = lpat_core::faultpoint!("tier.deopt") {
                match a {
                    lpat_core::FaultAction::Delay(d) => std::thread::sleep(d),
                    other => {
                        reason = bail::INJECTED_FAULT;
                        panic!("injected {other:?} fault at site 'tier.deopt'")
                    }
                }
            }
            fr.interp_regs(slab)
        }));
        let Ok(regs) = rebuilt else {
            let f = fr.func;
            self.demote(f, reason);
            return;
        };
        let ifr = Frame {
            func: fr.func,
            args: fr.args(),
            varargs: Vec::new(),
            va_next: 0,
            regs,
            block: BlockId::from_index(block as usize),
            idx: 0,
            allocas: std::mem::take(&mut fr.allocas),
            pending: None,
        };
        self.recycle_native_regs(fr);
        self.spec_stats.deopts += 1;
        if trace::enabled() {
            trace::instant_args(
                "vm",
                "deopt",
                vec![
                    ("function", self.module().func(ifr.func).name.clone()),
                    ("block", format!("bb{block}")),
                ],
            );
        }
        *stack.last_mut().expect("frame") = TFrame::I(ifr);
    }
}

impl TierStats {
    /// Human-readable tier table for `--stats`.
    pub fn render(&self) -> String {
        let total = self.interp_insts + self.native_insts;
        let pct = |n: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            }
        };
        let mut s = String::new();
        s.push_str(&format!(
            "  interp insts    {:>12}  ({:.1}%)\n",
            self.interp_insts,
            pct(self.interp_insts)
        ));
        s.push_str(&format!(
            "  native insts    {:>12}  ({:.1}%)\n",
            self.native_insts,
            pct(self.native_insts)
        ));
        s.push_str(&format!(
            "  promoted        {:>12}  (warm-start {}, osr {})\n",
            self.promoted, self.warmed, self.osr
        ));
        s.push_str(&format!(
            "  demoted         {:>12}{}\n",
            self.demoted,
            by_reason(&self.demoted_by)
        ));
        s.push_str(&format!(
            "  native compiled {:>12}  ({} us)\n",
            self.native_translated,
            self.native_translate_ns / 1_000
        ));
        s
    }
}

/// `  (varargs 2, injected_fault 1)` in [`bail::ALL`] order, or nothing
/// when no function was demoted.
fn by_reason(counts: &BTreeMap<&'static str, u64>) -> String {
    let parts: Vec<String> = bail::ALL
        .iter()
        .filter_map(|r| counts.get(r).map(|n| format!("{r} {n}")))
        .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!("  ({})", parts.join(", "))
    }
}
