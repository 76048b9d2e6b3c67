//! Integration tests spanning every crate: the full lifelong-compilation
//! lifecycle of paper §3 — front-end, per-module optimization, linking,
//! link-time IPO, serialization, execution, profiling, and offline
//! reoptimization — with behavior checked at every stage.

use lpat::transform::pm::{ModulePass, PassContext};
use lpat::vm::{Vm, VmOptions};

fn run(m: &lpat::core::Module) -> (i64, String) {
    let mut vm = Vm::new(m, VmOptions::default()).unwrap();
    let r = vm
        .run_main()
        .unwrap_or_else(|e| panic!("{e}\n{}", m.display()));
    (r, vm.output.clone())
}

#[test]
fn separate_compilation_then_link_then_ipo() {
    let lib = lpat::minic::compile(
        "lib",
        "
int helper(int x) { return x * 3; }
int unused_api(int x) { return x - 1; }
",
    )
    .unwrap();
    let app = lpat::minic::compile(
        "app",
        "
extern int helper(int x);
int main() { return helper(14); }
",
    )
    .unwrap();
    let mut m = lpat::linker::link(vec![lib, app], "prog").unwrap();
    m.verify().unwrap();
    assert_eq!(run(&m).0, 42);

    let mut pm = lpat::transform::link_time_pipeline();
    pm.verify_each = true;
    pm.run(&mut m);
    assert_eq!(run(&m).0, 42);
    assert!(m.func_by_name("unused_api").is_none(), "{}", m.display());
    // helper inlined and removed; main folds to a constant return.
    assert!(m.func_by_name("helper").is_none(), "{}", m.display());
    assert!(m.display().contains("ret int 42"), "{}", m.display());
}

#[test]
fn all_three_forms_agree_across_the_pipeline() {
    for (name, mut m) in lpat::workloads::compile_suite(1) {
        lpat::transform::function_pipeline().run(&mut m);
        // Transforms leave sparse instruction ids; one trip through the
        // parser (or the bytecode) renumbers densely in block order —
        // that display is the canonical form all three must agree on.
        let canon = lpat::asm::parse_module(name, &m.display())
            .unwrap()
            .display();
        let from_text = lpat::asm::parse_module(name, &canon).unwrap();
        assert_eq!(canon, from_text.display(), "{name}: text round trip");
        let bytes = lpat::bytecode::write_module(&m);
        let from_bin = lpat::bytecode::read_module(name, &bytes).unwrap();
        assert_eq!(canon, from_bin.display(), "{name}: binary round trip");
        from_bin.verify().unwrap();
        // The decoded module still runs identically.
        assert_eq!(run(&m), run(&from_bin), "{name}");
    }
}

#[test]
fn full_lifecycle_on_a_real_program() {
    // Stage 1: compile-time.
    let w = &lpat::workloads::suite(3)[5]; // 181.mcf-like
    let mut m = lpat::minic::compile(w.name, &w.source).unwrap();
    let baseline = run(&m);
    lpat::transform::function_pipeline().run(&mut m);
    assert_eq!(run(&m), baseline, "per-module optimization");

    // Stage 2: link-time.
    let mut pm = lpat::transform::link_time_pipeline();
    pm.verify_each = true;
    pm.run(&mut m);
    assert_eq!(run(&m), baseline, "link-time IPO");

    // Stage 3: offline codegen + shipped bytecode.
    let cisc = lpat::codegen::compile_module(&m, &lpat::codegen::Cisc32);
    let risc = lpat::codegen::compile_module(&m, &lpat::codegen::Risc32);
    assert!(cisc.code_size > 0 && risc.code_size >= cisc.code_size);
    let shipped = lpat::bytecode::write_module(&m);

    // Stage 4: runtime profiling on the shipped representation.
    let loaded = lpat::bytecode::read_module(w.name, &shipped).unwrap();
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(&loaded, opts).unwrap();
    let r = vm.run_main().unwrap();
    assert_eq!((r, vm.output.clone()), baseline, "shipped representation");
    let profile = vm.profile.clone();
    assert!(!profile.block_counts.is_empty());

    // Stage 5: idle-time reoptimization.
    let mut re = loaded;
    lpat::vm::reoptimize(&mut re, &profile, &lpat::vm::PgoOptions::default());
    re.verify().unwrap();
    assert_eq!(run(&re), baseline, "profile-guided reoptimization");
}

#[test]
fn dsa_modref_consistency_on_linked_program() {
    let w = &lpat::workloads::suite(0)[9]; // 197.parser-like (pool allocator)
    let mut m = lpat::minic::compile(w.name, &w.source).unwrap();
    lpat::transform::function_pipeline().run(&mut m);
    let cg = lpat::analysis::CallGraph::build(&m);
    let dsa = lpat::analysis::Dsa::analyze(&m, &cg, &lpat::analysis::DsaOptions::default());
    let mr = lpat::analysis::ModRef::compute(&m, &cg, &dsa);
    // main transitively allocates & writes the pool: it must mod something.
    let main = m.func_by_name("main").unwrap();
    assert!(!mr.summary(main).modifies.is_empty());
    // And the typed-access profile is the custom-allocator one.
    let pct = dsa.access_stats().percent();
    assert!(pct < 70.0, "pool allocator program at {pct}%");
}

#[test]
fn internalize_is_required_for_aggressive_ipo() {
    // Without internalization, externally visible functions can't be
    // removed; with it, they can. (The capability-#5 story: linking the
    // *whole* program is what unlocks the optimization.)
    let src = "
int helper(int x) { return x + 1; }
int main() { return 41 + helper(0); }
";
    let m0 = lpat::minic::compile("t", src).unwrap();

    let mut without = m0.clone();
    lpat::transform::ipo::run_dge(&mut without);
    assert!(without.func_by_name("helper").is_some());

    let mut with = m0.clone();
    lpat::transform::ipo::Internalize::default().run(&mut with, &mut PassContext::default());
    let mut inliner = lpat::transform::inline::Inline::default();
    inliner.run(&mut with, &mut PassContext::default());
    lpat::transform::ipo::run_dge(&mut with);
    assert!(with.func_by_name("helper").is_none());
    assert_eq!(run(&with).0, 42);
}

#[test]
fn linker_compact_is_dead_type_elimination() {
    let mut m = lpat::minic::compile(
        "t",
        "struct unused_t { int a; double b; };\nint main() { return 7; }",
    )
    .unwrap();
    // Force extra junk into the tables.
    let junk = m.types.struct_lit(vec![]);
    m.consts.zero(junk);
    let before = m.types.len();
    let c = lpat::linker::compact(&m);
    assert!(c.types.len() < before, "{} < {before}", c.types.len());
    assert_eq!(run(&c).0, 7);
}

#[test]
fn jit_and_interpreter_agree_on_the_whole_suite() {
    // The paper's two execution paths (§3.4: the portable interpreter vs
    // a JIT "translating one function at a time") must be
    // observationally identical. With `tier_up 0` every function is
    // translated to machine code on its first call, so this is also the
    // single-pass backend's coverage check: no function of any
    // benchmark may be demoted, and a plain run interprets nothing.
    // Speculated runs add guards; a failing guard deoptimizes into the
    // interpreter, so only they may interpret.
    let eager = VmOptions {
        tier_up: 0,
        ..VmOptions::default()
    };
    let run_both = |name: &str, m: &lpat::core::Module, spec: Option<&lpat::transform::SpecMap>| {
        let install = |vm: &mut Vm| {
            if let Some(map) = spec {
                vm.install_speculation(std::rc::Rc::new(map.clone()), map.len() as u64, 0);
            }
        };
        let mut a = Vm::new(m, VmOptions::default()).unwrap();
        install(&mut a);
        let ra = a
            .run_main()
            .unwrap_or_else(|e| panic!("{name} interp: {e}"));
        let mut b = Vm::new(m, eager.clone()).unwrap();
        install(&mut b);
        let rb = b
            .run_main_tiered()
            .unwrap_or_else(|e| panic!("{name} native: {e}"));
        assert_eq!(ra, rb, "{name}: exit codes differ");
        assert_eq!(a.output, b.output, "{name}: output differs");
        let t = &b.tier_stats;
        assert!(t.native_demoted_by.is_empty(), "{name}: {t:?}");
        assert!(t.demoted_by.is_empty(), "{name}: demoted {t:?}");
        t.interp_insts
    };
    let mut guarded = 0;
    for (name, m) in lpat::workloads::compile_suite(0) {
        assert_eq!(run_both(name, &m, None), 0, "{name}: plain run interpreted");
        let mut profiler = Vm::new(
            &m,
            VmOptions {
                profile: true,
                ..VmOptions::default()
            },
        )
        .unwrap();
        profiler.run_main().unwrap();
        let mut sm = m.clone();
        let (map, _plan) = lpat::transform::speculate::speculate(
            &mut sm,
            &profiler.profile.to_spec_profile(),
            &lpat::transform::SpecOptions::default(),
        );
        sm.verify()
            .unwrap_or_else(|e| panic!("{name}: speculated module broken: {e:?}"));
        guarded += map.len();
        run_both(name, &sm, Some(&map));
    }
    assert!(guarded > 0, "no workload was speculated");
}

#[test]
fn summaries_travel_with_bytecode_and_feed_link_time_passes() {
    // §3.3: compile-time summaries attach to the bytecode; the link-time
    // optimizer consumes them instead of recomputing from scratch, and
    // the result is identical.
    let src = "
void helper() { }
void might(int x) { if (x > 0) throw; }
int main() {
    int r = 0;
    try {
        helper();
    } catch {
        r = 1;
    }
    try {
        might(1);
    } catch {
        r = r + 2;
    }
    return r;
}";
    let m = lpat::minic::compile("t", src).unwrap();
    let bytes = lpat::bytecode::write_module_with_summaries(&m);
    let (loaded, sums) = lpat::bytecode::read_module_and_summaries("t", &bytes).unwrap();
    let sums = sums.expect("summaries attached");
    // Compare modulo dense renumbering (one parse trip canonicalizes).
    let canon = lpat::asm::parse_module("t", &m.display())
        .unwrap()
        .display();
    assert_eq!(loaded.display(), canon);

    // Plain write_module output carries none.
    let plain = lpat::bytecode::write_module(&m);
    let (_, none) = lpat::bytecode::read_module_and_summaries("t", &plain).unwrap();
    assert!(none.is_none());

    // Summary-driven prune-eh == from-scratch prune-eh.
    let mut a = loaded.clone();
    let na = lpat::transform::prune_eh::run_prune_eh_with_summaries(&mut a, &sums);
    let mut b = loaded.clone();
    let nb = lpat::transform::prune_eh::run_prune_eh(&mut b);
    assert_eq!(na, nb);
    assert_eq!(a.display(), b.display());
    assert!(na >= 1, "the helper invoke converts");
    a.verify().unwrap();
    assert_eq!(run(&a), run(&loaded), "behavior preserved");

    // The symbol-level Mod summary answers without touching IR.
    assert!(!sums.may_write_global("helper", "anything"));
}
