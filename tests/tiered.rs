//! Differential tests for the tiered execution engine (interp → JIT →
//! machine code): at *any* pair of promotion thresholds — 0 (promote
//! everything on first call), 1, the default, or effectively-infinite
//! (never promote) — the tiered engine must be observationally identical
//! to the reference interpreter: same program output, same return value
//! or trap kind, same instruction count, fuel consumption, opcode
//! histogram, and profile counters. This holds across the whole workload
//! suite, with the JIT tier pinned (`native_up = u64::MAX`), for trapping
//! programs, under injected translation faults (the tiered engine demotes
//! and keeps going), and with warm-started tier decisions.

use std::process::Command;

use lpat::vm::{ExecError, TrapKind, Vm, VmOptions};

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<i64, TrapKind>,
    output: String,
    insts: u64,
    fuel_left: Option<u64>,
    opcode_counts: Vec<u64>,
    profile: lpat::vm::ProfileData,
}

fn observe(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    warm: Option<&lpat::vm::ProfileData>,
) -> Observed {
    observe_spec(m, engine, tier_up, warm, None)
}

/// The default native threshold: `observe` varies only the first rung.
const NATIVE_UP: u64 = 50;

fn observe_spec(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
) -> Observed {
    observe_full(m, engine, tier_up, NATIVE_UP, warm, spec)
}

/// Tiered run with both promotion thresholds chosen: `native_up =
/// u64::MAX` pins hot code on the JIT tier.
fn observe_tiers(m: &lpat::core::Module, tier_up: u64, native_up: u64) -> Observed {
    observe_full(m, "tiered", tier_up, native_up, None, None)
}

fn observe_full(
    m: &lpat::core::Module,
    engine: &str,
    tier_up: u64,
    native_up: u64,
    warm: Option<&lpat::vm::ProfileData>,
    spec: Option<&std::rc::Rc<lpat::transform::SpecMap>>,
) -> Observed {
    let opts = VmOptions {
        profile: true,
        fuel: Some(20_000_000),
        tier_up,
        native_up,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).expect("vm init");
    if let Some(map) = spec {
        vm.install_speculation(map.clone(), map.len() as u64, 0);
    }
    if let Some(p) = warm {
        vm.warm_start(p);
    }
    let r = match engine {
        "interp" => vm.run_main(),
        "tiered" => vm.run_main_tiered(),
        other => panic!("unknown engine {other}"),
    };
    let outcome = match r {
        Ok(v) => Ok(v),
        Err(ExecError::Trap { kind, .. }) => Err(kind),
        Err(other) => panic!("unexpected error class: {other}"),
    };
    Observed {
        outcome,
        output: vm.output.clone(),
        insts: vm.insts_executed,
        fuel_left: vm.opts.fuel,
        opcode_counts: vm.opcode_counts.to_vec(),
        profile: vm.profile.clone(),
    }
}

/// The thresholds every differential case runs at: full-JIT-equivalent,
/// near-instant promotion, the default, and never-promote.
const THRESHOLDS: [u64; 4] = [0, 1, 50, u64::MAX];

#[test]
fn tiered_matches_interp_across_suite_at_every_threshold() {
    for (name, m) in lpat::workloads::compile_suite(0) {
        let reference = observe(&m, "interp", 0, None);
        for t in THRESHOLDS {
            let tiered = observe(&m, "tiered", t, None);
            assert_eq!(reference, tiered, "workload {name} diverged at tier_up={t}");
        }
        // The JIT tier pinned: every function translated on first call
        // and kept off machine code, so the LowFunc tier alone runs the
        // whole suite.
        let jit = observe_tiers(&m, 0, u64::MAX);
        assert_eq!(
            reference, jit,
            "workload {name} diverged on the pinned JIT tier"
        );
    }
}

#[test]
fn native_tier_matches_interp_across_suite_at_every_threshold() {
    // The observational-identity contract extends to machine code: with
    // the third tier enabled at every threshold pairing — including
    // tier_up 0 / native_up 0, where every function runs native from its
    // first call — output, return value, trap kind, fuel, histogram, and
    // profile counters must match the reference interpreter exactly.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let reference = observe(&m, "interp", 0, None);
        for t in THRESHOLDS {
            let native = observe_tiers(&m, t, t);
            assert_eq!(
                reference, native,
                "workload {name} diverged at tier_up={t}/native_up={t}"
            );
        }
    }
}

#[test]
fn native_tier_executes_the_bulk_of_a_hot_loop() {
    // Not just correct but *used*: on a loop-dominated workload with
    // immediate promotion, the machine-code tier must dispatch the vast
    // majority of instructions, and staged thresholds must reach native
    // through both OSR paths.
    let suite = lpat::workloads::compile_suite(0);
    let (name, m) = &suite[0]; // 164.gzip: loop-heavy
    let opts = VmOptions {
        tier_up: 0,
        native_up: 0,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let t = &vm.tier_stats;
    assert!(t.native_promoted > 0, "{name}: nothing promoted to native");
    assert!(
        t.native_insts > 9 * (t.jit_insts + t.interp_insts),
        "{name}: native tier dispatched too little: {t:?}"
    );

    // Staged thresholds: the hot loop crosses interp → jit → native
    // while running, so at least one on-stack replacement lands in
    // machine code.
    let opts = VmOptions {
        tier_up: 1,
        native_up: 1,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        vm.tier_stats.native_osr > 0,
        "{name}: staged run never OSR'd into native: {:?}",
        vm.tier_stats
    );
    assert!(vm.tier_stats.native_insts > 0);
}

#[test]
fn tiered_matches_interp_with_warm_start() {
    for (name, m) in lpat::workloads::compile_suite(0) {
        // First run populates the profile (as the lifelong store would).
        let first = observe(&m, "tiered", 50, None);
        let warm = observe(&m, "tiered", 50, Some(&first.profile));
        assert_eq!(
            first, warm,
            "workload {name} diverged between cold and warm-started runs"
        );
    }
}

#[test]
fn warm_start_promotes_hot_functions_eagerly() {
    let suite = lpat::workloads::compile_suite(0);
    let (name, m) = &suite[0]; // 164.gzip: loop-heavy, several hot functions
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(m, opts.clone()).unwrap();
    vm.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let profile = vm.profile.clone();
    let cold_promoted = vm.tier_stats.promoted;
    assert!(cold_promoted > 0, "{name}: nothing promoted in a cold run");

    let mut vm2 = Vm::new(m, opts).unwrap();
    let warmed = vm2.warm_start(&profile);
    assert!(warmed > 0, "{name}: warm-start promoted nothing");
    assert_eq!(vm2.tier_stats.warmed, warmed as u64);
    vm2.run_main_tiered()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    // The warm run starts hot: it never needs OSR for the functions the
    // profile already identified, so at least as much runs translated —
    // on either translated tier, since hot code moves on to machine code
    // — and no more runs interpreted.
    let (cold, warm) = (&vm.tier_stats, &vm2.tier_stats);
    assert!(
        warm.jit_insts + warm.native_insts >= cold.jit_insts + cold.native_insts,
        "{name}: warm run translated fewer instructions than cold: {warm:?} vs {cold:?}"
    );
    assert!(
        warm.interp_insts <= cold.interp_insts,
        "{name}: warm run interpreted more instructions than cold: {warm:?} vs {cold:?}"
    );
}

#[test]
fn native_bails_are_counted_by_reason() {
    // A hot float function and a hot 64-bit compare: both reach the JIT
    // tier, the native backend refuses each for its own reason, and the
    // tier table says which. `main` itself is all 32-bit and goes native.
    let m = lpat::asm::parse_module(
        "t",
        "
define int @twice(int %x) {
e:
  %d = cast int %x to double
  %s = add double %d, %d
  %r = cast double %s to int
  ret int %r
}
define int @wide(int %x) {
e:
  %n = cast int %x to long
  %c = setlt long %n, 5
  %r = cast bool %c to int
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %h ]
  %t = call int @twice(int %i)
  %w = call int @wide(int %i)
  %i2 = add int %i, 1
  %c = setlt int %i2, 20
  br bool %c, label %h, label %x
x:
  ret int %w
}",
    )
    .unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let opts = VmOptions {
        tier_up: 1,
        native_up: 1,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(&m, opts).unwrap();
    assert_eq!(vm.run_main_tiered().unwrap(), 0);
    let t = &vm.tier_stats;
    assert_eq!(t.native_demoted_by.get("float"), Some(&1), "{t:?}");
    assert_eq!(t.native_demoted_by.get("compare64"), Some(&1), "{t:?}");
    assert_eq!(t.native_demoted_by.values().sum::<u64>(), t.native_demoted);
    let table = t.render();
    let line = table
        .lines()
        .find(|l| l.trim_start().starts_with("native demoted"))
        .unwrap();
    assert!(line.contains("(float 1, compare64 1"), "{table}");
}

// ---------------------------------------------------------------------
// Trap differentials: the trap kind and everything executed before the
// trap must match at every threshold.
// ---------------------------------------------------------------------

fn trap_case(src: &str, expect: TrapKind) {
    let m = lpat::asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let reference = observe(&m, "interp", 0, None);
    assert_eq!(reference.outcome, Err(expect));
    for t in THRESHOLDS {
        let tiered = observe(&m, "tiered", t, None);
        assert_eq!(reference, tiered, "trap case diverged at tier_up={t}");
        let native = observe_tiers(&m, t, t);
        assert_eq!(reference, native, "trap case diverged at native_up={t}");
    }
}

#[test]
fn div_by_zero_in_hot_loop_traps_identically() {
    // The divisor reaches zero only after the loop has run hot: the trap
    // fires in translated code in tiered mode, interpreted otherwise.
    trap_case(
        "
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 200, %e ], [ %i2, %b ]
  %c = setgt int %i, -1
  br bool %c, label %b, label %x
b:
  %q = div int 1000, %i
  %i2 = sub int %i, 1
  br label %h
x:
  ret int 0
}",
        TrapKind::DivByZero,
    );
}

#[test]
fn out_of_fuel_traps_at_identical_instruction() {
    let m = lpat::asm::parse_module(
        "t",
        "
define int @main() {
e:
  br label %l
l:
  br label %l
}",
    )
    .unwrap();
    for t in THRESHOLDS {
        for native_up in [u64::MAX, t] {
            let opts = VmOptions {
                fuel: Some(10_000),
                tier_up: t,
                native_up,
                ..VmOptions::default()
            };
            let mut vm = Vm::new(&m, opts).unwrap();
            match vm.run_main_tiered().unwrap_err() {
                ExecError::Trap { kind, .. } => assert_eq!(kind, TrapKind::OutOfFuel),
                other => panic!("{other:?}"),
            }
            assert_eq!(vm.opts.fuel, Some(0));
            assert_eq!(
                vm.insts_executed, 10_000,
                "tier_up={t} native_up={native_up}"
            );
        }
    }
}

#[test]
fn uncaught_unwind_traps_identically_across_tiers() {
    trap_case(
        "
define void @thrower() {
e:
  unwind
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %c = setlt int %i, 100
  br bool %c, label %b, label %t
b:
  %i2 = add int %i, 1
  br label %h
t:
  call void @thrower()
  ret int 0
}",
        TrapKind::UncaughtUnwind,
    );
}

#[test]
fn invoke_across_tier_boundary_catches_unwind() {
    // The invoke sits in `main` (interpreted until OSR); the thrower gets
    // hot and throws from translated code. The unwind must cross the
    // tier boundary and land in the handler.
    let src = "
define void @maybe_throw(int %i) {
e:
  %c = seteq int %i, 900
  br bool %c, label %t, label %ok
t:
  unwind
ok:
  ret void
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %cont ]
  invoke void @maybe_throw(int %i) to label %cont unwind label %caught
cont:
  %i2 = add int %i, 1
  %c = setlt int %i2, 2000
  br bool %c, label %h, label %x
caught:
  ret int 77
x:
  ret int 0
}";
    let m = lpat::asm::parse_module("t", src).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let reference = observe(&m, "interp", 0, None);
    assert_eq!(reference.outcome, Ok(77));
    for t in THRESHOLDS {
        let tiered = observe(&m, "tiered", t, None);
        assert_eq!(reference, tiered, "invoke case diverged at tier_up={t}");
        let native = observe_tiers(&m, t, t);
        assert_eq!(reference, native, "invoke case diverged at native_up={t}");
    }
}

// ---------------------------------------------------------------------
// Injected translation faults: the tiered engine demotes the function
// and keeps interpreting; output is unchanged. Fault plans are
// process-global, so this runs through the lpatc driver in a subprocess.
// ---------------------------------------------------------------------

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn tiered_demotes_and_matches_interp_under_translate_fault() {
    let src = "
declare void @print_int(int)
define int @hot(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 500
  br bool %c, label %b, label %x
b:
  %v = call int @hot(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("tiered_fault.ll");
    std::fs::write(&p, src).unwrap();

    let reference = lpatc().arg("run").arg(&p).arg("--quiet").output().unwrap();
    // Every translation attempt faults: all promotions demote, the whole
    // run interprets, and the answer is still right.
    let faulted = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--tiered")
        .arg("--tier-up")
        .arg("1")
        .arg("--inject-faults")
        .arg("jit.translate:io")
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), faulted.status.code());
    assert_eq!(reference.stdout, faulted.stdout);

    // A fault on only the *first* translation demotes one function; the
    // rest still promote, and the answer is still right.
    let partial = lpatc()
        .arg("run")
        .arg(&p)
        .arg("--tier-up")
        .arg("1")
        .arg("--inject-faults")
        .arg("jit.translate:io@1")
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), partial.status.code());
    assert_eq!(reference.stdout, partial.stdout);
}

#[test]
fn native_demotes_to_jit_and_matches_interp_under_translate_fault() {
    // The `native.translate` site mirrors `jit.translate` one tier up: a
    // fault there permanently demotes the function to the JIT tier and
    // the run's answer is unchanged. Fault plans are process-global, so
    // this goes through the driver in a subprocess.
    let src = "
declare void @print_int(int)
define int @hot(int %x) {
e:
  %r = mul int %x, 3
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 500
  br bool %c, label %b, label %x
b:
  %v = call int @hot(int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 97
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("native_fault.ll");
    std::fs::write(&p, src).unwrap();

    let reference = lpatc().arg("run").arg(&p).arg("--quiet").output().unwrap();

    // Clean third-tier run: same answer as the interpreter.
    let native = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), native.status.code());
    assert_eq!(reference.stdout, native.stdout);

    // Every native translation faults: all candidates demote to the JIT
    // tier (which still translates fine) and the answer is unchanged.
    let faulted = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1"])
        .args(["--inject-faults", "native.translate:io"])
        .args(["--stats", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), faulted.status.code());
    assert_eq!(reference.stdout, faulted.stdout);
    // The demotion is visible in the tier table: demoted functions, zero
    // native instructions, and JIT instructions picking up the slack.
    let stats = String::from_utf8_lossy(&faulted.stderr);
    let row = |label: &str| -> u64 {
        stats
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .and_then(|l| {
                l.split_whitespace()
                    .filter_map(|w| w.parse::<u64>().ok())
                    .next()
            })
            .unwrap_or_else(|| panic!("no '{label}' row in stats:\n{stats}"))
    };
    assert!(row("native demoted") >= 1, "stats:\n{stats}");
    assert!(
        stats.contains("(injected_fault "),
        "demotions not attributed to the fault:\n{stats}"
    );
    assert_eq!(row("native insts"), 0, "stats:\n{stats}");
    assert!(row("jit insts") > 0, "stats:\n{stats}");

    // A fault on only the *first* native translation demotes one
    // function; the rest still reach machine code.
    let partial = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--tier-up", "1"])
        .args(["--inject-faults", "native.translate:io@1"])
        .arg("--quiet")
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), partial.status.code());
    assert_eq!(reference.stdout, partial.stdout);
}

// ---------------------------------------------------------------------
// Speculation differentials: a speculated module (guards installed as an
// in-memory overlay) must stay observationally identical across the
// interpreter, the tiered engine at every threshold, and the pinned JIT —
// fuel, opcode histogram, and profile counters included. Guard failure
// in translated code deoptimizes back to the interpreter frame.
// ---------------------------------------------------------------------

/// Hot monomorphic dispatch loop with a polymorphic tail: the guard the
/// profile justifies passes 400 times and fails once, so a tiered run
/// exercises the deopt path while the result stays engine-independent.
const SPEC_WORKLOAD: &str = "
declare void @print_int(int)
define internal int @alpha(int %x) {
e:
  %r = add int %x, 1
  ret int %r
}
define internal int @beta(int %x) {
e:
  %r = mul int %x, 2
  ret int %r
}
define int @disp(int (int)* %fp, int %x) {
e:
  %r = call int %fp(int %x)
  ret int %r
}
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 400
  br bool %c, label %b, label %x
b:
  %v = call int @disp(int (int)* @alpha, int %i)
  %s2 = add int %s, %v
  %i2 = add int %i, 1
  br label %h
x:
  %w = call int @disp(int (int)* @beta, int 5)
  %t = add int %s, %w
  %m = rem int %t, 97
  call void @print_int(int %m)
  ret int %m
}";

/// Parse SPEC_WORKLOAD, gather a profile, and return the speculated
/// module plus its guard overlay. Asserts speculation actually fired.
fn speculated_workload() -> (lpat::core::Module, std::rc::Rc<lpat::transform::SpecMap>) {
    let m = lpat::asm::parse_module("t", SPEC_WORKLOAD).unwrap();
    m.verify().unwrap_or_else(|e| panic!("{e:?}"));
    let profiled = observe(&m, "interp", 0, None);
    let mut sm = m.clone();
    let (map, plan) = lpat::transform::speculate::speculate(
        &mut sm,
        &profiled.profile.to_spec_profile(),
        &lpat::transform::SpecOptions::default(),
    );
    assert!(
        plan.emitted() >= 1,
        "plan emitted nothing:\n{}",
        plan.render()
    );
    assert!(!map.is_empty());
    sm.verify()
        .unwrap_or_else(|e| panic!("speculated module broken: {e:?}"));
    (sm, std::rc::Rc::new(map))
}

#[test]
fn speculated_tiered_matches_interp_at_every_threshold() {
    let (sm, map) = speculated_workload();
    let reference = observe_spec(&sm, "interp", 0, None, Some(&map));
    // Same answer as the unspeculated program.
    let plain = observe(
        &lpat::asm::parse_module("t", SPEC_WORKLOAD).unwrap(),
        "interp",
        0,
        None,
    );
    assert_eq!(reference.outcome, plain.outcome);
    assert_eq!(reference.output, plain.output);
    for t in THRESHOLDS {
        let tiered = observe_spec(&sm, "tiered", t, None, Some(&map));
        assert_eq!(reference, tiered, "speculated run diverged at tier_up={t}");
        // Guarded functions bail out of the native translator and stay on
        // the JIT tier, so the answer survives the third tier too.
        let native = observe_full(&sm, "tiered", t, t, None, Some(&map));
        assert_eq!(
            reference, native,
            "speculated run diverged at native_up={t}"
        );
    }
    let jit = observe_full(&sm, "tiered", 0, u64::MAX, None, Some(&map));
    assert_eq!(
        reference, jit,
        "speculated run diverged on the pinned JIT tier"
    );
}

#[test]
fn guard_failure_in_translated_code_deoptimizes() {
    let (sm, map) = speculated_workload();
    let opts = VmOptions {
        profile: true,
        tier_up: 1,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(&sm, opts).unwrap();
    vm.install_speculation(map.clone(), map.len() as u64, 0);
    let r = vm.run_main_tiered().unwrap();
    assert!(vm.spec_stats.passed >= 400, "{:?}", vm.spec_stats);
    assert!(vm.spec_stats.failed >= 1, "{:?}", vm.spec_stats);
    assert!(
        vm.spec_stats.deopts >= 1,
        "guard failed in translated code but never deoptimized: {:?}",
        vm.spec_stats
    );

    // The interpreter sees the same guard traffic but never deoptimizes
    // (there is no translated frame to leave).
    let mut ivm = Vm::new(
        &sm,
        VmOptions {
            profile: true,
            ..VmOptions::default()
        },
    )
    .unwrap();
    ivm.install_speculation(map.clone(), map.len() as u64, 0);
    let ir = ivm.run_main().unwrap();
    assert_eq!(r, ir);
    assert_eq!(ivm.spec_stats.passed, vm.spec_stats.passed);
    assert_eq!(ivm.spec_stats.failed, vm.spec_stats.failed);
    assert_eq!(ivm.spec_stats.deopts, 0);
    // Misspeculation flowed into the profile under the guard's stable id.
    let g = &map.guards[0];
    assert_eq!(ivm.profile.guard_exec(g.id), vm.profile.guard_exec(g.id));
    assert!(ivm.profile.guard_misspec(g.id) >= 1);
}

#[test]
fn speculated_suite_matches_interp() {
    // Speculation over the whole workload suite: profile a run, apply
    // whatever the profile justifies, and require observational identity
    // between interpreter and tiered engine on the speculated module.
    for (name, m) in lpat::workloads::compile_suite(0) {
        let profiled = observe(&m, "interp", 0, None);
        let mut sm = m.clone();
        let (map, _plan) = lpat::transform::speculate::speculate(
            &mut sm,
            &profiled.profile.to_spec_profile(),
            &lpat::transform::SpecOptions::default(),
        );
        sm.verify()
            .unwrap_or_else(|e| panic!("{name}: speculated module broken: {e:?}"));
        let map = std::rc::Rc::new(map);
        let reference = observe_spec(&sm, "interp", 0, None, Some(&map));
        assert_eq!(
            reference.outcome, profiled.outcome,
            "{name}: answer changed"
        );
        assert_eq!(reference.output, profiled.output, "{name}: output changed");
        for t in [1, 50] {
            let tiered = observe_spec(&sm, "tiered", t, None, Some(&map));
            assert_eq!(reference, tiered, "{name} diverged at tier_up={t}");
        }
    }
}

/// Forced 100% guard failure: with `spec.guard:corrupt` every guard
/// takes its slow path, so a speculated run must still print the plain
/// run's answer — interpreted or tiered (where every failure is a
/// deopt) — with identical instruction counts between the two engines.
#[test]
fn forced_guard_failure_is_observationally_clean() {
    let p = tmp("spec_fault.ll");
    std::fs::write(&p, SPEC_WORKLOAD).unwrap();
    let prof = tmp("spec_fault.prof");
    let seed = lpatc()
        .args(["run"])
        .arg(&p)
        .args(["--profile", "--profile-out"])
        .arg(&prof)
        .args(["--quiet"])
        .output()
        .unwrap();
    let insts_of = |stderr: &[u8]| -> String {
        let s = String::from_utf8_lossy(stderr);
        s.lines()
            .find(|l| l.contains("instructions]"))
            .unwrap_or_else(|| panic!("no instruction count in:\n{s}"))
            .to_string()
    };
    let run = |extra: &[&str]| {
        let mut c = lpatc();
        c.arg("run").arg(&p).arg("--profile-in").arg(&prof);
        c.args(["--speculate", "--inject-faults", "spec.guard:corrupt"]);
        c.args(extra);
        c.output().unwrap()
    };
    let interp = run(&[]);
    let tiered = run(&["--tiered", "--tier-up", "1"]);
    assert_eq!(seed.status.code(), interp.status.code());
    assert_eq!(
        seed.stdout, interp.stdout,
        "forced failure changed the answer"
    );
    assert_eq!(interp.status.code(), tiered.status.code());
    assert_eq!(interp.stdout, tiered.stdout);
    // Fuel parity: both engines execute the same instruction count even
    // with every guard failing (each failure a deopt in tiered mode).
    assert_eq!(insts_of(&interp.stderr), insts_of(&tiered.stderr));
}

/// Offline retraction decisions are byte-identical to the in-memory run
/// at any `--jobs`: the canonical plan rendering is printed to stdout by
/// `reopt --speculate` and compared across job counts.
#[test]
fn reopt_speculation_plan_is_byte_identical_across_jobs() {
    let p = tmp("spec_reopt.ll");
    std::fs::write(&p, SPEC_WORKLOAD).unwrap();
    let cache = tmp("spec_reopt_cache");
    let _ = std::fs::remove_dir_all(&cache);
    let seed = lpatc()
        .args(["run"])
        .arg(&p)
        .args(["--profile", "--cache-dir"])
        .arg(&cache)
        .args(["--quiet"])
        .output()
        .unwrap();
    assert!(seed.status.code().is_some());
    let reopt = |jobs: &str| {
        lpatc()
            .arg("reopt")
            .arg(&p)
            .args(["--cache-dir"])
            .arg(&cache)
            .args(["--speculate", "--quiet", "--jobs", jobs])
            .output()
            .unwrap()
    };
    let j1 = reopt("1");
    let j8 = reopt("8");
    assert!(
        j1.status.success(),
        "{}",
        String::from_utf8_lossy(&j1.stderr)
    );
    let plan = String::from_utf8_lossy(&j1.stdout);
    assert!(plan.contains("guard "), "no plan on stdout:\n{plan}");
    assert!(plan.contains("-> emit"), "{plan}");
    assert_eq!(j1.stdout, j8.stdout, "plan differs across --jobs");
}

#[test]
fn lpatc_tiered_warm_start_from_store_matches_cold() {
    let src = "
declare void @print_int(int)
define int @main() {
e:
  br label %h
h:
  %i = phi int [ 0, %e ], [ %i2, %b ]
  %s = phi int [ 0, %e ], [ %s2, %b ]
  %c = setlt int %i, 3000
  br bool %c, label %b, label %x
b:
  %s2 = add int %s, %i
  %i2 = add int %i, 1
  br label %h
x:
  %m = rem int %s, 101
  call void @print_int(int %m)
  ret int %m
}";
    let p = tmp("tiered_store.ll");
    std::fs::write(&p, src).unwrap();
    let cache = tmp("tiered_store_cache");
    let _ = std::fs::remove_dir_all(&cache);

    let run = |extra: &[&str]| {
        let mut c = lpatc();
        c.arg("run")
            .arg(&p)
            .arg("--tiered")
            .arg("--cache-dir")
            .arg(&cache);
        for a in extra {
            c.arg(a);
        }
        c.output().unwrap()
    };
    let cold = run(&["--quiet"]);
    let warm = run(&[]);
    assert_eq!(cold.status.code(), warm.status.code());
    assert_eq!(cold.stdout, warm.stdout);
    let notices = String::from_utf8_lossy(&warm.stderr);
    assert!(
        notices.contains("warm-start"),
        "second run did not warm-start: {notices}"
    );
}
