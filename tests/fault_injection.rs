//! Fault isolation end-to-end: injected panics, timeouts, and
//! miscompiles must roll back cleanly, surface as structured
//! [`PassFault`]s, and leave the output byte-identical to skipping the
//! faulted pass — at any `--jobs` value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use lpat::asm::parse_module;
use lpat::bytecode::write_module;
use lpat::core::{FaultPlan, Module};
use lpat::transform::gvn::Gvn;
use lpat::transform::ipo::{Dge, Internalize};
use lpat::transform::mem2reg::Mem2Reg;
use lpat::transform::pm::FnPass;
use lpat::transform::simplifycfg::SimplifyCfg;
use lpat::transform::{
    function_pipeline, FaultCause, FunctionPassAdapter, ModulePass, PassContext, PassEffect,
    PassManager,
};

/// A miniature whole program: a helper worth inlining, a loop through
/// allocas, an unused function internalize+DGE can delete.
fn sample() -> Module {
    let m = parse_module(
        "t",
        "
@limit = global int 10
define int @square(int %x) {
e:
  %r = mul int %x, %x
  ret int %r
}
define int @sum_squares() {
e:
  %i = alloca int
  %s = alloca int
  store int 0, int* %i
  store int 0, int* %s
  br label %h
h:
  %iv = load int* %i
  %lim = load int* @limit
  %c = setlt int %iv, %lim
  br bool %c, label %b, label %x
b:
  %sq = call int @square(int %iv)
  %sv = load int* %s
  %s2 = add int %sv, %sq
  store int %s2, int* %s
  %i2 = add int %iv, 1
  store int %i2, int* %i
  br label %h
x:
  %r = load int* %s
  ret int %r
}
define int @unused_helper(int %a) {
e:
  ret int %a
}
define int @main() {
e:
  %v = call int @sum_squares()
  ret int %v
}",
    )
    .unwrap();
    m.verify().unwrap();
    m
}

fn plan(s: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(s).unwrap()))
}

#[test]
fn module_pass_panic_rolls_back_and_pipeline_continues() {
    let mut m = sample();
    let clean = m.display();
    let mut pm = PassManager::new();
    pm.add(FnPass::new("wreck", |m: &mut Module| -> bool {
        // Mutate, then die: the mutation must not survive.
        m.name.push('X');
        panic!("boom")
    }));
    pm.add(FnPass::new("tag", |_: &mut Module| true));
    let report = pm.run(&mut m);
    assert!(report.degraded());
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].pass, "wreck");
    assert!(report.faults[0].function.is_none());
    assert!(matches!(report.faults[0].cause, FaultCause::Panic(ref msg) if msg == "boom"));
    // Rolled back, and the pipeline still ran the next pass.
    assert_eq!(m.name, "t");
    assert_eq!(m.display(), clean);
    assert_eq!(report.passes.len(), 2);
    assert_eq!(report.passes[0].stats, "faulted; rolled back");
    assert!(!report.passes[0].changed);
    assert!(report.passes[1].changed);
}

/// Run [Internalize?, Dge] over `sample()` and return the resulting
/// text, bytecode, and fault count.
fn run_ipo(fault_plan: Option<&str>, with_internalize: bool) -> (String, Vec<u8>, usize) {
    let mut m = sample();
    let mut pm = PassManager::new();
    if with_internalize {
        pm.add(Internalize::default());
    }
    pm.add(Dge::default());
    if let Some(p) = fault_plan {
        pm.faults = plan(p);
    }
    let report = pm.run(&mut m);
    (m.display(), write_module(&m), report.faults.len())
}

#[test]
fn injected_panic_output_identical_to_skipping_the_pass() {
    let (skip_text, skip_bytes, n_skip) = run_ipo(None, false);
    let (fault_text, fault_bytes, n_fault) = run_ipo(Some("internalize:panic@1"), true);
    assert_eq!(n_skip, 0);
    assert_eq!(n_fault, 1);
    assert_eq!(fault_text, skip_text);
    assert_eq!(fault_bytes, skip_bytes);
    // The pass genuinely matters here, so the equality above is not
    // vacuous: with internalize intact, DGE can delete @unused_helper.
    let (full_text, _, _) = run_ipo(None, true);
    assert_ne!(full_text, skip_text);
    assert!(!full_text.contains("unused_helper"));
    assert!(skip_text.contains("unused_helper"));
}

/// Run the standard function pipeline with a fault plan and return the
/// output bytes plus (pass, function) for each isolated fault.
fn run_fn_pipeline(jobs: usize, fault_plan: &str) -> (Vec<u8>, Vec<(String, Option<String>)>) {
    let mut m = sample();
    let mut pm = function_pipeline();
    pm.jobs = Some(jobs);
    pm.faults = plan(fault_plan);
    let report = pm.run(&mut m);
    let faults = report
        .faults
        .iter()
        .map(|f| (f.pass.clone(), f.function.clone()))
        .collect();
    (write_module(&m), faults)
}

#[test]
fn unit_fault_is_deterministic_across_job_counts() {
    let (b1, f1) = run_fn_pipeline(1, "gvn:panic@2");
    let (b8, f8) = run_fn_pipeline(8, "gvn:panic@2");
    assert_eq!(f1.len(), 1);
    assert_eq!(f1, f8, "fault must land on the same unit at any -jobs");
    assert_eq!(f1[0].0, "gvn");
    assert!(f1[0].1.is_some(), "unit faults carry the function name");
    assert_eq!(b1, b8, "output must be byte-identical at any --jobs");
}

/// Build [mem2reg, gvn?, simplifycfg] as one function-pass stage.
fn run_units(with_gvn: bool, fault_plan: Option<&str>, jobs: usize) -> (Vec<u8>, usize) {
    let mut m = sample();
    let mut a = FunctionPassAdapter::new("units").add(Mem2Reg::default());
    if with_gvn {
        a = a.add(Gvn::default());
    }
    let a = a.add(SimplifyCfg::default());
    let mut pm = PassManager::new();
    pm.jobs = Some(jobs);
    pm.add(a);
    if let Some(p) = fault_plan {
        pm.faults = plan(p);
    }
    let report = pm.run(&mut m);
    (write_module(&m), report.faults.len())
}

#[test]
fn faulting_every_unit_equals_dropping_the_pass() {
    let (skip, n_skip) = run_units(false, None, 1);
    let (fault1, n1) = run_units(true, Some("gvn:panic"), 1);
    let (fault8, n8) = run_units(true, Some("gvn:panic"), 8);
    assert_eq!(n_skip, 0);
    assert!(n1 >= 1, "the unconditional plan must fire on every unit");
    assert_eq!(n1, n8);
    assert_eq!(fault1, skip, "all-units rollback == pipeline without gvn");
    assert_eq!(fault8, skip);
}

#[test]
fn suite_wide_fault_determinism() {
    for (name, m0) in lpat::workloads::compile_suite(0) {
        let run = |jobs: usize| {
            let mut m = m0.clone();
            let mut pm = function_pipeline();
            pm.jobs = Some(jobs);
            pm.faults = plan("instsimplify:panic@3,gvn:panic@1");
            let report = pm.run(&mut m);
            (write_module(&m), report.faults.len())
        };
        let (b1, n1) = run(1);
        let (b8, n8) = run(8);
        assert_eq!(b1, b8, "{name}: output differs across job counts");
        assert_eq!(n1, n8, "{name}: fault count differs across job counts");
    }
}

#[test]
fn blown_budget_rolls_back_with_timeout_fault() {
    let mut m = sample();
    let clean = m.display();
    let mut pm = PassManager::new();
    pm.budget = Some(Duration::from_millis(5));
    pm.faults = plan("slow:delay=60ms");
    pm.add(FnPass::new("slow", |m: &mut Module| {
        m.name.push('s');
        true
    }));
    let report = pm.run(&mut m);
    assert_eq!(report.faults.len(), 1);
    assert!(matches!(
        report.faults[0].cause,
        FaultCause::Timeout { budget } if budget == Duration::from_millis(5)
    ));
    assert_eq!(m.name, "t");
    assert_eq!(m.display(), clean);
}

#[test]
fn corrupt_injection_caught_by_verify_each_and_rolled_back() {
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.verify_each = true;
    pm.faults = plan("internalize:corrupt@1");
    pm.add(Internalize::default());
    let report = pm.run(&mut m);
    assert_eq!(report.faults.len(), 1);
    assert!(matches!(
        report.faults[0].cause,
        FaultCause::VerifyFailed(_)
    ));
    m.verify().unwrap();
    assert_eq!(m.display(), sample().display(), "rolled back to the input");

    // Without --verify-each the simulated miscompile flows downstream —
    // exactly the failure mode the flag exists to catch.
    let mut m2 = sample();
    let mut pm2 = PassManager::new();
    pm2.faults = plan("internalize:corrupt@1");
    pm2.add(Internalize::default());
    let r2 = pm2.run(&mut m2);
    assert!(r2.faults.is_empty());
    assert!(m2.verify().is_err());
}

#[test]
fn strict_mode_propagates_faults() {
    // Module-level panic propagates out of run().
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.degrade = false;
    pm.faults = plan("internalize:panic@1");
    pm.add(Internalize::default());
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());

    // A panic on a parallel worker is re-raised on the caller.
    let mut m = sample();
    let mut pm = function_pipeline();
    pm.degrade = false;
    pm.jobs = Some(4);
    pm.faults = plan("gvn:panic@1");
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());

    // A blown budget aborts instead of degrading.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.degrade = false;
    pm.budget = Some(Duration::from_millis(5));
    pm.faults = plan("slow:delay=60ms");
    pm.add(FnPass::new("slow", |_: &mut Module| false));
    assert!(catch_unwind(AssertUnwindSafe(|| pm.run(&mut m))).is_err());
}

/// Requests the dominator tree of every defined function, so its cache
/// row exposes hits vs. misses.
struct DomProbe;

impl ModulePass for DomProbe {
    fn name(&self) -> &'static str {
        "dom-probe"
    }
    fn run(&mut self, m: &mut Module, cx: &mut PassContext) -> PassEffect {
        let slots = cx.am.func_slots(m.num_funcs());
        for (i, id) in m.func_ids().enumerate() {
            let f = m.func(id);
            if !f.is_declaration() {
                let _ = slots[i].domtree(f);
            }
        }
        PassEffect::unchanged()
    }
}

#[test]
fn rollback_invalidates_cached_analyses() {
    // Baseline: with no fault in between, the second probe hits.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.add(DomProbe);
    pm.add(DomProbe);
    let r = pm.run(&mut m);
    assert!(r.passes[0].cache.misses > 0);
    assert_eq!(r.passes[1].cache.misses, 0);
    assert!(r.passes[1].cache.hits > 0);

    // A rolled-back pass in between must drop every cached analysis:
    // the restored module reuses version numbers, so stale entries
    // could ABA-collide with future versions.
    let mut m = sample();
    let mut pm = PassManager::new();
    pm.add(DomProbe);
    pm.add(FnPass::new("boom", |_: &mut Module| -> bool {
        panic!("kaboom")
    }));
    pm.add(DomProbe);
    let r = pm.run(&mut m);
    assert_eq!(r.faults.len(), 1);
    assert_eq!(r.passes[2].cache.hits, 0, "stale cache survived rollback");
    assert_eq!(r.passes[2].cache.misses, r.passes[0].cache.misses);
}

// ---------------------------------------------------------------------
// Subprocess tests: the lpatc driver under LPAT_FAULTS / --inject-faults.
// ---------------------------------------------------------------------

fn lpatc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lpatc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Passes to fault in the subprocess matrix. CI overrides this with
/// `LPAT_FAULTS_MATRIX=<pass>` to run one leg per transform pass.
fn matrix_passes() -> Vec<String> {
    match std::env::var("LPAT_FAULTS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v.split(',').map(|s| s.trim().to_string()).collect(),
        _ => vec!["gvn".to_string(), "inline".to_string()],
    }
}

#[test]
fn lpatc_degrades_cleanly_under_fault_matrix() {
    // Runtime fault sites (dotted names like `spec.guard`) have their own
    // matrix test below; this one injects into optimizer passes.
    for pass in matrix_passes().into_iter().filter(|p| !p.contains('.')) {
        for (name, m) in lpat::workloads::compile_suite(0) {
            let input = tmp(&format!("fi-{pass}-{name}.bc"));
            std::fs::write(&input, write_module(&m)).unwrap();
            let mut outputs = Vec::new();
            for jobs in ["1", "8"] {
                let out_path = tmp(&format!("fi-{pass}-{name}-j{jobs}.bc"));
                let out = lpatc()
                    .args([
                        "opt",
                        input.to_str().unwrap(),
                        "--link-pipeline",
                        "-o",
                        out_path.to_str().unwrap(),
                        "--emit",
                        "bc",
                        "--jobs",
                        jobs,
                    ])
                    .env("LPAT_FAULTS", format!("{pass}:panic@1"))
                    .output()
                    .unwrap();
                assert!(
                    out.status.success(),
                    "lpatc died on {pass}/{name}:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    stderr.matches("isolated fault").count(),
                    1,
                    "{pass}/{name} --jobs {jobs}: expected exactly one isolated \
                     fault, stderr:\n{stderr}"
                );
                outputs.push(std::fs::read(&out_path).unwrap());
            }
            assert_eq!(
                outputs[0], outputs[1],
                "{pass}/{name}: output differs across --jobs"
            );
        }
    }
}

/// Runtime fault-site matrix: `spec.guard` (force every guard to fail —
/// the program must still print the unspeculated answer, interpreted or
/// tiered), `tier.deopt` (panic during deopt frame reconstruction —
/// the function is demoted and the run completes on the still-valid
/// native frame), and `native.translate` (the single-pass machine
/// code backend fails — the function is permanently demoted to the
/// interpreter and the answer is unchanged). CI runs one leg per job via
/// `LPAT_FAULTS_MATRIX=<site>`; locally all legs run.
#[test]
fn lpatc_vm_fault_sites_degrade_cleanly() {
    let sites: Vec<String> = match std::env::var("LPAT_FAULTS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| s.contains('.'))
            .collect(),
        _ => vec![
            "spec.guard".to_string(),
            "tier.deopt".to_string(),
            "native.translate".to_string(),
        ],
    };
    if sites.is_empty() {
        return; // a transform-pass leg; nothing to do here
    }
    let src = "
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
    let p = tmp("fi-vm-sites.ll");
    std::fs::write(&p, src).unwrap();
    let prof = tmp("fi-vm-sites.prof");
    let seed = lpatc()
        .arg("run")
        .arg(&p)
        .args(["--profile", "--profile-out"])
        .arg(&prof)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(seed.status.code().is_some());
    for site in sites {
        match site.as_str() {
            "spec.guard" => {
                // Every guard fails: both engines fall back to the
                // generic path, the answer is unchanged.
                for engine in [&["--speculate"][..], &["--speculate", "--tier-up", "1"][..]] {
                    let out = lpatc()
                        .arg("run")
                        .arg(&p)
                        .arg("--profile-in")
                        .arg(&prof)
                        .args(engine)
                        .args(["--inject-faults", "spec.guard:corrupt", "--quiet"])
                        .output()
                        .unwrap();
                    assert_eq!(seed.status.code(), out.status.code(), "{engine:?}");
                    assert_eq!(seed.stdout, out.stdout, "{engine:?}: answer changed");
                }
            }
            "tier.deopt" => {
                // Frame reconstruction panics on the guard exit: the
                // function demotes, execution continues in machine code,
                // and the answer is unchanged.
                let out = lpatc()
                    .arg("run")
                    .arg(&p)
                    .arg("--profile-in")
                    .arg(&prof)
                    .args(["--speculate", "--tier-up", "1", "--stats"])
                    .args(["--inject-faults", "tier.deopt:panic"])
                    .output()
                    .unwrap();
                assert_eq!(seed.status.code(), out.status.code());
                assert_eq!(seed.stdout, out.stdout, "demoted run changed the answer");
                let stderr = String::from_utf8_lossy(&out.stderr);
                let demoted = stderr
                    .lines()
                    .find(|l| l.trim_start().starts_with("demoted"))
                    .unwrap_or_else(|| panic!("no demoted row in stats:\n{stderr}"));
                assert!(
                    !demoted.trim_end().ends_with(" 0"),
                    "tier.deopt fault never demoted: {demoted}\n{stderr}"
                );
            }
            "native.translate" => {
                // The machine-code backend fails on every candidate: each
                // hot function is permanently demoted to the interpreter,
                // no native instructions ever retire, and the answer is
                // unchanged.
                let out = lpatc()
                    .arg("run")
                    .arg(&p)
                    .args(["--tier-up", "1", "--stats"])
                    .args(["--inject-faults", "native.translate:io", "--quiet"])
                    .output()
                    .unwrap();
                assert_eq!(seed.status.code(), out.status.code());
                assert_eq!(seed.stdout, out.stdout, "demoted run changed the answer");
                let stderr = String::from_utf8_lossy(&out.stderr);
                let row = |label: &str| -> u64 {
                    stderr
                        .lines()
                        .find(|l| l.trim_start().starts_with(label))
                        .and_then(|l| l.split_whitespace().find_map(|w| w.parse::<u64>().ok()))
                        .unwrap_or_else(|| panic!("no `{label}` row in stats:\n{stderr}"))
                };
                assert!(
                    row("demoted") >= 1,
                    "translate fault never demoted:\n{stderr}"
                );
                assert_eq!(
                    row("native insts"),
                    0,
                    "faulted backend still ran machine code:\n{stderr}"
                );
            }
            other => panic!("unknown runtime fault site {other}"),
        }
    }
}

#[test]
fn lpatc_inject_faults_flag_matches_env_behavior() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-flag-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args([
            "opt",
            input.to_str().unwrap(),
            "--inject-faults",
            "gvn:panic@1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("isolated fault").count(), 1, "{stderr}");
}

#[test]
fn lpatc_no_degrade_makes_injected_fault_fatal() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-strict-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args([
            "opt",
            input.to_str().unwrap(),
            "--no-degrade",
            "--inject-faults",
            "gvn:panic@1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn lpatc_reports_bytecode_read_fault_gracefully() {
    let (name, m) = &lpat::workloads::compile_suite(0)[0];
    let input = tmp(&format!("fi-read-{name}.bc"));
    std::fs::write(&input, write_module(m)).unwrap();
    let out = lpatc()
        .args(["dis", input.to_str().unwrap()])
        .env("LPAT_FAULTS", "bytecode.read:panic@1")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "graceful error exit, not a crash"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault"), "{stderr}");
}
