//! Randomized property tests over generated programs (no external
//! dependencies: a seeded SplitMix64 generator drives the cases, so runs
//! are deterministic and reproducible by seed):
//!
//! * the three equivalent forms round-trip losslessly;
//! * the verifier accepts everything the generator builds;
//! * the scalar optimizers preserve the VM-observable result;
//! * constant folding agrees with the interpreter's arithmetic;
//! * generated programs — loops with φs, calls and memory traffic over
//!   8–64-bit integers and floats — run identically in the interpreter
//!   and in the tiered engine at every threshold, with and without a
//!   fuel cut-off.
//!
//! Build with `--features slow-tests` to multiply the case counts.

use lpat::core::{inst::Value, BinOp, CmpPred, IntKind, Linkage, Module};
use lpat::vm::{ExecError, Vm, VmOptions, VmValue};

/// Deterministic 64-bit generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn usize(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
    fn i32(&mut self) -> i32 {
        self.next() as i32
    }
    fn i64(&mut self) -> i64 {
        self.next() as i64
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.usize(xs.len())]
    }
}

/// Number of random cases per property (`slow-tests` multiplies by 8).
fn cases() -> u64 {
    if cfg!(feature = "slow-tests") {
        512
    } else {
        64
    }
}

/// A recipe for one instruction in a generated straight-line function.
#[derive(Clone, Debug)]
enum OpSpec {
    Bin(BinOp, usize, usize),
    Cmp(CmpPred, usize, usize),
    Const(i32),
}

fn gen_ops(rng: &mut Rng) -> Vec<OpSpec> {
    let n = 1 + rng.usize(39);
    (0..n)
        .map(|_| match rng.usize(3) {
            0 => OpSpec::Bin(*rng.pick(&BinOp::ALL[..]), rng.usize(64), rng.usize(64)),
            1 => OpSpec::Cmp(*rng.pick(&CmpPred::ALL[..]), rng.usize(64), rng.usize(64)),
            _ => OpSpec::Const(rng.i32()),
        })
        .collect()
}

/// Build `int f(int, int)` from the recipe, plus a `main` that calls it
/// with the given constants. All values are `int`; comparisons are cast
/// back to `int` so every op feeds the same pool.
fn build(ops: &[OpSpec], a0: i32, a1: i32) -> Module {
    let mut m = Module::new("gen");
    let i32t = m.types.i32();
    let f = m.add_function("f", &[i32t, i32t], i32t, false, Linkage::Internal);
    let mut b = m.builder(f);
    b.block();
    let mut pool: Vec<Value> = vec![Value::Arg(0), Value::Arg(1)];
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let v = match op {
            OpSpec::Bin(op, x, y) => b.bin(*op, pick(*x), pick(*y)),
            OpSpec::Cmp(p, x, y) => {
                let c = b.cmp(*p, pick(*x), pick(*y));
                b.cast(c, i32t)
            }
            OpSpec::Const(k) => b.iconst32(*k),
        };
        pool.push(v);
    }
    let last = *pool.last().unwrap();
    b.ret(Some(last));
    let main = m.add_function("main", &[], i32t, false, Linkage::External);
    let mut b = m.builder(main);
    b.block();
    let c0 = b.iconst32(a0);
    let c1 = b.iconst32(a1);
    let r = b.call(f, vec![c0, c1]);
    b.ret(Some(r));
    m
}

/// Run main; traps map to a distinguishable sentinel so optimized and
/// unoptimized programs can be compared even when they trap.
fn observe(m: &Module) -> Result<i64, &'static str> {
    let opts = VmOptions {
        fuel: Some(1_000_000),
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    match vm.run_main() {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(match kind {
            lpat::vm::TrapKind::DivByZero => "div0",
            _ => "trap",
        }),
        Err(_) => Err("exit"),
    }
}

#[test]
fn generated_ir_verifies_and_round_trips() {
    let mut rng = Rng::new(0xA11C_E500);
    for case in 0..cases() {
        let ops = gen_ops(&mut rng);
        let (a0, a1) = (rng.i32(), rng.i32());
        let m = build(&ops, a0, a1);
        assert!(m.verify().is_ok(), "case {case}: {:?}", m.verify());
        // Text round trip.
        let text = m.display();
        let re = lpat::asm::parse_module("gen", &text).unwrap();
        assert_eq!(&text, &re.display(), "case {case}");
        // Binary round trip.
        let bytes = lpat::bytecode::write_module(&m);
        let rb = lpat::bytecode::read_module("gen", &bytes).unwrap();
        assert_eq!(&text, &rb.display(), "case {case}");
    }
}

#[test]
fn optimizers_preserve_observable_behavior() {
    let mut rng = Rng::new(0xB0B0_CAFE);
    for case in 0..cases() {
        let ops = gen_ops(&mut rng);
        let (a0, a1) = (rng.i32(), rng.i32());
        let m = build(&ops, a0, a1);
        let before = observe(&m);
        let mut o = m.clone();
        lpat::transform::function_pipeline().run(&mut o);
        assert!(o.verify().is_ok(), "case {case}: {:?}", o.verify());
        // Division/remainder by zero is *undefined behavior* in the IR
        // (as in C and in LLVM itself); the VM traps as a sanitizer
        // courtesy. Optimizers may therefore delete an unused trapping
        // division — so when the baseline execution hits UB, any outcome
        // is acceptable for the optimized program.
        if before != Err("div0") {
            assert_eq!(before, observe(&o), "case {case}: function pipeline");
        }
        lpat::transform::link_time_pipeline().run(&mut o);
        assert!(o.verify().is_ok(), "case {case}");
        if before != Err("div0") {
            assert_eq!(before, observe(&o), "case {case}: link-time pipeline");
        }
    }
}

#[test]
fn constant_folding_matches_interpreter() {
    use lpat::core::fold::fold_bin;
    use lpat::core::Const;
    let mut rng = Rng::new(0xF01D_0101);
    for case in 0..cases() * 4 {
        let op = *rng.pick(&BinOp::ALL[..]);
        let kind = *rng.pick(&IntKind::ALL[..]);
        let (x, y) = (rng.i64(), rng.i64());
        let a = Const::Int {
            kind,
            value: kind.canonicalize(x),
        };
        let b = Const::Int {
            kind,
            value: kind.canonicalize(y),
        };
        let mut pool = lpat::core::ConstPool::new();
        let folded = fold_bin(&mut pool, op, &a, &b);
        // Interpreter result via a one-instruction program.
        let mut m = Module::new("t");
        let ty = m.types.int(kind);
        let f = m.add_function("f", &[ty, ty], ty, false, Linkage::External);
        let mut bl = m.builder(f);
        bl.block();
        let r = bl.bin(op, Value::Arg(0), Value::Arg(1));
        bl.ret(Some(r));
        let mut vm = Vm::new(&m, VmOptions::default()).unwrap();
        let exec = vm.run_function(f, vec![VmValue::int(kind, x), VmValue::int(kind, y)]);
        match (folded, exec) {
            (Some(Const::Int { value, .. }), Ok(Some(v))) => {
                assert_eq!(
                    Some(value),
                    v.as_i64(),
                    "case {case}: {:?} {} {:?}",
                    a,
                    op.name(),
                    b
                );
            }
            (None, Err(_)) => {} // div/rem by zero: not folded, traps
            (fold, run) => panic!("case {case}: fold {fold:?} vs run {run:?}"),
        }
    }
}

#[test]
fn type_display_parses_back() {
    let mut rng = Rng::new(0x7E57_7E57);
    for case in 0..cases() {
        // Random nested types built from the four derived constructors.
        let depth = rng.usize(4);
        let seed = rng.next() as u32;
        let mut m = Module::new("t");
        let mut ty = match seed % 5 {
            0 => m.types.i8(),
            1 => m.types.i32(),
            2 => m.types.u64(),
            3 => m.types.f64(),
            _ => m.types.bool_(),
        };
        for i in 0..depth {
            let w = rng.usize(4);
            ty = match (seed as usize + i) % 3 {
                0 => m.types.ptr(ty),
                1 => m.types.array(ty, w as u64 + 1),
                _ => {
                    let fields = vec![ty; w + 1];
                    m.types.struct_lit(fields)
                }
            };
        }
        let pty = m.types.ptr(ty);
        // Round-trip through a function signature.
        m.add_function("f", &[pty], m.types.void(), false, Linkage::External);
        let text = m.display();
        let re = lpat::asm::parse_module("t", &text).unwrap();
        assert_eq!(text, re.display(), "case {case}");
    }
}

/// Cross-run guard-counter merge: misspeculation and execution counts
/// saturate at `u64::MAX` (never wrap) and the accumulated profile is
/// independent of merge order. The seed folds in `LPAT_STORE_MATRIX`, so
/// every CI store-matrix leg shuffles the runs differently — and every
/// leg must converge on byte-identical accumulated bytes.
#[test]
fn guard_merge_saturates_and_is_order_independent() {
    use lpat::vm::ProfileData;
    let tag = std::env::var("LPAT_STORE_MATRIX").unwrap_or_default();
    let mut seed = 0xabad_cafe_d00d_u64;
    for b in tag.bytes() {
        seed = seed.wrapping_mul(0x0100_0000_01b3) ^ b as u64;
    }
    let mut rng = Rng::new(seed);
    // Guard ids as the planner packs them: devirt (bit 31 clear) and
    // const-arg specialization (bit 31 set).
    let ids = [0x0003_0000u32, 0x0001_0002, 0x8003_0001, 0x8000_0000];
    for case in 0..cases() {
        let k = 2 + rng.usize(6);
        let runs: Vec<ProfileData> = (0..k)
            .map(|_| {
                let mut p = ProfileData::default();
                for &id in &ids {
                    if rng.usize(3) == 0 {
                        continue; // guard not executed this run
                    }
                    // A third of the counts sit close enough to the
                    // ceiling that any multi-run sum overflows.
                    let near_max = rng.usize(3) == 0;
                    let exec = if near_max {
                        u64::MAX - rng.next() % 4
                    } else {
                        rng.next() % 1_000
                    };
                    p.guard_exec_counts.insert(id, exec);
                    p.guard_misspec_counts
                        .insert(id, exec.min(rng.next() % 1_000));
                }
                p
            })
            .collect();
        // Reference: forward merge.
        let mut fwd = ProfileData::default();
        for r in &runs {
            fwd.merge_saturating(r);
        }
        // Saturation: each id's merged count is the saturating sum.
        for &id in &ids {
            let want = runs
                .iter()
                .fold(0u64, |a, r| a.saturating_add(r.guard_exec(id)));
            assert_eq!(fwd.guard_exec(id), want, "case {case} id {id:#x}");
            let want_m = runs
                .iter()
                .fold(0u64, |a, r| a.saturating_add(r.guard_misspec(id)));
            assert_eq!(fwd.guard_misspec(id), want_m, "case {case} id {id:#x}");
        }
        // Order independence, down to the canonical container bytes the
        // store would persist.
        let mut perm: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            perm.swap(i, rng.usize(i + 1));
        }
        let mut shuffled = ProfileData::default();
        for &i in &perm {
            shuffled.merge_saturating(&runs[i]);
        }
        assert_eq!(
            fwd.to_bytes(),
            shuffled.to_bytes(),
            "case {case}: merge order {perm:?} changed the accumulated profile"
        );
    }
}

// ---------------------------------------------------------------------
// Tier differential on generated programs. The interpreter is the
// reference semantics; the tiered engine (interpreter ⇄ machine code)
// must match it in everything observable: output, return value, trap
// kind, remaining fuel, opcode histogram and profile counters.
// ---------------------------------------------------------------------

/// A scalar type of the generated programs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Sc {
    Bool,
    Int(IntKind),
    F32,
    F64,
}

impl Sc {
    const ALL: [Sc; 11] = [
        Sc::Bool,
        Sc::Int(IntKind::S8),
        Sc::Int(IntKind::U8),
        Sc::Int(IntKind::S16),
        Sc::Int(IntKind::U16),
        Sc::Int(IntKind::S32),
        Sc::Int(IntKind::U32),
        Sc::Int(IntKind::S64),
        Sc::Int(IntKind::U64),
        Sc::F32,
        Sc::F64,
    ];

    fn name(self) -> &'static str {
        match self {
            Sc::Bool => "bool",
            Sc::Int(k) => match k {
                IntKind::S8 => "sbyte",
                IntKind::U8 => "ubyte",
                IntKind::S16 => "short",
                IntKind::U16 => "ushort",
                IntKind::S32 => "int",
                IntKind::U32 => "uint",
                IntKind::S64 => "long",
                IntKind::U64 => "ulong",
            },
            Sc::F32 => "float",
            Sc::F64 => "double",
        }
    }
}

/// A random constant of type `t`, biased toward edge values (0, ±1,
/// extremes, NaN, ±0.0, infinities).
fn gen_const(rng: &mut Rng, t: Sc) -> String {
    match t {
        Sc::Bool => if rng.usize(2) == 0 { "true" } else { "false" }.to_string(),
        Sc::Int(k) => {
            let raw = match rng.usize(6) {
                0 => 0,
                1 => 1,
                2 => -1,
                3 => i64::MIN,
                4 => rng.i64() % 100,
                _ => rng.i64(),
            };
            let v = k.canonicalize(raw);
            if k.is_signed() {
                v.to_string()
            } else {
                (v as u64 & (u64::MAX >> (64 - k.bits()))).to_string()
            }
        }
        Sc::F32 | Sc::F64 => {
            let v = *rng.pick(&[
                0.0,
                -0.0,
                1.0,
                -2.5,
                0.1,
                1e300,
                -1e-300,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                4294967296.5,
                -9.3e18,
            ]);
            let v = if rng.usize(4) == 0 {
                (rng.i32() as f64) / 7.0
            } else {
                v
            };
            if t == Sc::F32 {
                format!("0x{:08X}", (v as f32).to_bits())
            } else {
                format!("0x{:016X}", v.to_bits())
            }
        }
    }
}

/// Textual IR generator: a value pool per type, one instruction per
/// step, scoped by snapshots at block boundaries.
struct ProgGen<'r> {
    rng: &'r mut Rng,
    out: String,
    next: usize,
    pool: Vec<(Sc, String)>,
}

impl ProgGen<'_> {
    fn fresh(&mut self) -> String {
        self.next += 1;
        format!("%v{}", self.next)
    }

    /// A value of type `t`: from the pool, or a constant.
    fn val(&mut self, t: Sc) -> String {
        let have: Vec<&String> = self
            .pool
            .iter()
            .filter(|(pt, _)| *pt == t)
            .map(|(_, n)| n)
            .collect();
        if !have.is_empty() && self.rng.usize(4) != 0 {
            let i = self.rng.usize(have.len());
            return have[i].clone();
        }
        gen_const(self.rng, t)
    }

    fn emit(&mut self, line: String) {
        self.out.push_str("  ");
        self.out.push_str(&line);
        self.out.push('\n');
    }

    /// One random instruction producing a value, added to the pool.
    fn step(&mut self) {
        let t = *self.rng.pick(&Sc::ALL);
        let d = self.fresh();
        let line = match (self.rng.usize(4), t) {
            // Compare any type into a bool.
            (0, _) => {
                let ct = *self.rng.pick(&Sc::ALL);
                let pred = ["seteq", "setne", "setlt", "setgt", "setle", "setge"];
                let p = *self.rng.pick(&pred);
                let (a, b) = (self.val(ct), self.val(ct));
                self.pool.push((Sc::Bool, d.clone()));
                self.emit(format!("{d} = {p} {} {a}, {b}", ct.name()));
                return;
            }
            // Cast from any type.
            (1, _) => {
                let ft = *self.rng.pick(&Sc::ALL);
                let a = self.val(ft);
                format!("{d} = cast {} {a} to {}", ft.name(), t.name())
            }
            // A round trip through memory at the type's width.
            (2, _) if self.rng.usize(2) == 0 => {
                let (n, v) = (t.name(), self.val(t));
                self.emit(format!("store {n} {v}, {n}* @g_{n}"));
                format!("{d} = load {n}* @g_{n}")
            }
            (_, Sc::Bool) => {
                let op = *self.rng.pick(&["and", "or", "xor"]);
                let (a, b) = (self.val(t), self.val(t));
                format!("{d} = {op} bool {a}, {b}")
            }
            (_, Sc::F32 | Sc::F64) => {
                let op = *self.rng.pick(&["add", "sub", "mul", "div", "rem"]);
                let (a, b) = (self.val(t), self.val(t));
                format!("{d} = {op} {} {a}, {b}", t.name())
            }
            (_, Sc::Int(_)) => {
                let ops = [
                    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
                ];
                let op = *self.rng.pick(&ops);
                let (a, mut b) = (self.val(t), self.val(t));
                // Most divisors are forced odd so loops run on; the rest
                // may be zero and trap.
                if matches!(op, "div" | "rem") && self.rng.usize(8) != 0 {
                    let o = self.fresh();
                    self.emit(format!("{o} = or {} {b}, 1", t.name()));
                    b = o;
                }
                format!("{d} = {op} {} {a}, {b}", t.name())
            }
        };
        self.emit(line);
        self.pool.push((t, d));
    }

    fn steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// A random program: a global per type, a straight-line callee `@f` and
/// a `main` whose loop carries φs of random types through a diamond,
/// calls `@f` every iteration, and prints the carried values at the end.
fn gen_program(rng: &mut Rng) -> String {
    let mut g = ProgGen {
        rng,
        out: String::new(),
        next: 0,
        pool: Vec::new(),
    };
    g.out
        .push_str("declare void @print_int(long)\ndeclare void @print_double(double)\n");
    for t in Sc::ALL {
        let n = t.name();
        g.out
            .push_str(&format!("@g_{n} = global {n} zeroinitializer\n"));
    }
    // Callee.
    let n_params = 1 + g.rng.usize(3);
    let params: Vec<Sc> = (0..n_params).map(|_| *g.rng.pick(&Sc::ALL)).collect();
    let ret = *g.rng.pick(&Sc::ALL);
    let sig: Vec<String> = params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{} %a{i}", t.name()))
        .collect();
    g.out.push_str(&format!(
        "define internal {} @f({}) {{\ne:\n",
        ret.name(),
        sig.join(", ")
    ));
    g.pool = params
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, format!("%a{i}")))
        .collect();
    let n = 1 + g.rng.usize(8);
    g.steps(n);
    let r = g.val(ret);
    g.out.push_str(&format!("  ret {} {r}\n}}\n", ret.name()));

    // main: e -> h -> (b -> p|q -> m -> h) | x
    let trips = 1 + g.rng.usize(80);
    let carried: Vec<Sc> = (0..1 + g.rng.usize(3))
        .map(|_| *g.rng.pick(&Sc::ALL))
        .collect();
    let inits: Vec<String> = carried.iter().map(|&t| gen_const(g.rng, t)).collect();
    g.out
        .push_str("define int @main() {\ne:\n  br label %h\nh:\n");
    g.out.push_str("  %i = phi int [ 0, %e ], [ %i.n, %m ]\n");
    g.out.push_str("  %h = phi long [ 0, %e ], [ %h.l, %m ]\n");
    for (k, t) in carried.iter().enumerate() {
        g.out.push_str(&format!(
            "  %c{k} = phi {} [ {}, %e ], [ %c{k}.l, %m ]\n",
            t.name(),
            inits[k]
        ));
    }
    g.out.push_str(&format!(
        "  %go = setlt int %i, {trips}\n  br bool %go, label %b, label %x\nb:\n"
    ));
    g.pool = vec![(Sc::Int(IntKind::S32), "%i".to_string())];
    for (k, t) in carried.iter().enumerate() {
        g.pool.push((*t, format!("%c{k}")));
    }
    let n = 2 + g.rng.usize(10);
    g.steps(n);
    let args: Vec<String> = params
        .iter()
        .map(|&t| format!("{} {}", t.name(), g.val(t)))
        .collect();
    let call = g.fresh();
    g.emit(format!(
        "{call} = call {} @f({})",
        ret.name(),
        args.join(", ")
    ));
    g.pool.push((ret, call));
    // The diamond's condition: a compare on data the loop computed.
    let ct = *g.rng.pick(&Sc::ALL);
    let (x, y) = (g.val(ct), g.val(ct));
    g.emit(format!("%cond = setle {} {x}, {y}", ct.name()));
    g.emit("br bool %cond, label %p, label %q".to_string());
    let base = g.pool.clone();
    let mut arms = Vec::new();
    for arm in ["p", "q"] {
        g.pool = base.clone();
        g.out.push_str(&format!("{arm}:\n"));
        let n = g.rng.usize(6);
        g.steps(n);
        let picks: Vec<String> = carried.iter().map(|&t| g.val(t)).collect();
        g.out.push_str("  br label %m\n");
        arms.push(picks);
    }
    g.pool = base;
    g.out.push_str("m:\n");
    for (k, t) in carried.iter().enumerate() {
        let d = format!("%c{k}.m");
        g.emit(format!(
            "{d} = phi {} [ {}, %p ], [ {}, %q ]",
            t.name(),
            arms[0][k],
            arms[1][k]
        ));
        g.pool.push((*t, d));
    }
    let n = 1 + g.rng.usize(8);
    g.steps(n);
    for (k, &t) in carried.iter().enumerate() {
        let v = g.val(t);
        let (op, id) = identity(t);
        g.emit(format!("%c{k}.l = {op} {} {v}, {id}", t.name()));
    }
    // Fold every value the body computed into a hash so that a wrong
    // result anywhere shows in the output.
    let mut h = "%h".to_string();
    for (t, v) in g.pool.clone() {
        let (w, m, a) = (g.fresh(), g.fresh(), g.fresh());
        g.emit(format!("{w} = cast {} {v} to long", t.name()));
        g.emit(format!("{m} = mul long {h}, 31"));
        g.emit(format!("{a} = add long {m}, {w}"));
        h = a;
    }
    g.emit(format!("%h.l = add long {h}, 0"));
    g.out
        .push_str("  %i.n = add int %i, 1\n  br label %h\nx:\n  call void @print_int(long %h)\n");
    for (k, &t) in carried.iter().enumerate() {
        let (f, pt) = if matches!(t, Sc::F32 | Sc::F64) {
            ("print_double", "double")
        } else {
            ("print_int", "long")
        };
        g.emit(format!("%o{k} = cast {} %c{k} to {pt}", t.name()));
        g.emit(format!("call void @{f}({pt} %o{k})"));
    }
    g.out.push_str("  ret int %i\n}\n");
    g.out
}

/// An op and operand that copy a value into the latch (`bool` has no
/// `add`).
fn identity(t: Sc) -> (&'static str, &'static str) {
    match t {
        Sc::Bool => ("or", "false"),
        Sc::F32 => ("add", "0x00000000"),
        Sc::F64 => ("add", "0x0000000000000000"),
        Sc::Int(_) => ("add", "0"),
    }
}

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<i64, lpat::vm::TrapKind>,
    output: String,
    fuel_left: Option<u64>,
    opcode_counts: Vec<u64>,
    profile: lpat::vm::ProfileData,
}

fn observe_tiered(m: &Module, tier_up: Option<u64>, fuel: u64) -> (Observed, u64) {
    let opts = VmOptions {
        fuel: Some(fuel),
        profile: true,
        tier_up: tier_up.unwrap_or(u64::MAX),
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    let r = match tier_up {
        None => vm.run_main(),
        Some(_) => vm.run_main_tiered(),
    };
    let outcome = match r {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(kind),
        Err(other) => panic!("unexpected error class: {other}"),
    };
    let obs = Observed {
        outcome,
        output: vm.output.clone(),
        fuel_left: vm.opts.fuel,
        opcode_counts: vm.opcode_counts.to_vec(),
        profile: vm.profile.clone(),
    };
    (obs, vm.insts_executed)
}

#[test]
fn generated_programs_match_interpreter_on_every_tier() {
    let mut rng = Rng::new(0x71E2_D1FF);
    let mut native = 0u64;
    for case in 0..cases() {
        let src = gen_program(&mut rng);
        let m = lpat::asm::parse_module("gen", &src)
            .unwrap_or_else(|e| panic!("case {case}: {e:?}\n{src}"));
        m.verify()
            .unwrap_or_else(|e| panic!("case {case}: {e:?}\n{src}"));
        let (_, insts) = observe_tiered(&m, None, 1_000_000);
        // The full run, and a cut-off somewhere inside it.
        let cut = 1 + rng.next() % insts.max(1);
        for fuel in [1_000_000, cut] {
            let (reference, _) = observe_tiered(&m, None, fuel);
            for t in [0, 1, 50] {
                let (tiered, _) = observe_tiered(&m, Some(t), fuel);
                assert_eq!(
                    reference, tiered,
                    "case {case}: tier_up {t}, fuel {fuel}\n{src}"
                );
            }
        }
        let opts = VmOptions {
            tier_up: 0,
            ..VmOptions::default()
        };
        let mut vm = Vm::new(&m, opts).unwrap();
        let _ = vm.run_main_tiered();
        assert_eq!(vm.tier_stats.demoted, 0, "case {case}: demoted\n{src}");
        native += vm.tier_stats.native_insts;
    }
    assert!(native > 0, "no generated program ran machine code");
}
