//! `vmperf` — the VM execution-engine benchmark.
//!
//! Runs every workload under four engines — the reference interpreter,
//! the tiered engine cold (the interp → JIT → machine-code ladder,
//! counter-driven), the tiered engine warm-started from a prior run's
//! profile, and the tiered engine over the full lifelong cycle (offline
//! profile-guided reoptimization plus speculation with guards,
//! warm-started) — and emits `BENCH_vm.json` (`lpat-bench-vm/v4`):
//! per-workload wall time (best of N reps), instructions/second,
//! translation time, promotion counts, machine-code tier counters,
//! demotions by bail reason, and guard / deoptimization counts for the
//! speculative rows, plus the headline geomeans (tiered vs. interpreter,
//! warm vs. cold, spec-warm vs. cold).
//!
//! Every engine's program output and exit code are asserted identical to
//! the interpreter's before any timing is reported — a benchmark of a
//! wrong answer is worthless.
//!
//! ```text
//! cargo run -p lpat-bench --release --bin vmperf [-- --quick] [-- -o FILE]
//!     [-- --workloads GLOB] [-- --engines LIST]
//! ```
//!
//! `--quick` drops to one rep per engine (the CI smoke configuration);
//! the committed artifact is generated in release mode without it.
//! `--workloads GLOB` (shell-style `*`/`?`) and `--engines LIST`
//! (comma-separated) restrict the run for iterating on one engine or one
//! workload; a restricted run prints the table but skips the JSON
//! artifact — `BENCH_vm.json` only ever holds the full matrix.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use lpat_transform::{SpecMap, SpecOptions};
use lpat_vm::{PgoOptions, TierStats, Vm, VmOptions};

/// Engine rows in artifact order. `interp` is ground truth and always runs.
const ENGINES: [&str; 4] = ["interp", "tiered", "tiered_warm", "tiered_spec"];

#[derive(Clone, Default)]
struct EngineResult {
    wall_ms: f64,
    insts: u64,
    tier: TierStats,
    guards: u64,
    guard_passed: u64,
    guard_failed: u64,
    deopts: u64,
}

impl EngineResult {
    fn insts_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.insts as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Run `main` once under the interpreter (`engine` "interp") or the
/// tiered engine at the default thresholds, returning the result row
/// plus the observed (exit, output) pair for cross-engine verification.
fn run_once(
    m: &lpat_core::Module,
    engine: &str,
    warm: Option<&lpat_vm::ProfileData>,
    spec: Option<&Rc<SpecMap>>,
) -> (EngineResult, i64, String) {
    let mut vm = Vm::new(m, VmOptions::default()).expect("vm init");
    if let Some(map) = spec {
        vm.install_speculation(map.clone(), map.len() as u64, 0);
    }
    if let Some(p) = warm {
        vm.warm_start(p);
    }
    let t0 = Instant::now();
    let code = match engine {
        "interp" => vm.run_main(),
        _ => vm.run_main_tiered(),
    }
    .unwrap_or_else(|e| panic!("{}: {engine}: {e}", m.name));
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let s = &vm.spec_stats;
    (
        EngineResult {
            wall_ms,
            insts: vm.insts_executed,
            tier: vm.tier_stats.clone(),
            guards: s.emitted,
            guard_passed: s.passed,
            guard_failed: s.failed,
            deopts: s.deopts,
        },
        code,
        vm.output.clone(),
    )
}

/// Best-of-`reps` timing (minimum wall time; counters from the last rep —
/// they are identical across reps by determinism).
fn run_best(
    m: &lpat_core::Module,
    engine: &str,
    warm: Option<&lpat_vm::ProfileData>,
    spec: Option<&Rc<SpecMap>>,
    reps: usize,
    expect: Option<&(i64, String)>,
) -> (EngineResult, i64, String) {
    let mut best: Option<EngineResult> = None;
    let mut last = None;
    for _ in 0..reps {
        let (r, code, out) = run_once(m, engine, warm, spec);
        if let Some((ecode, eout)) = expect {
            assert_eq!(
                (*ecode, eout.as_str()),
                (code, out.as_str()),
                "{}: engine '{engine}' diverged from interpreter",
                m.name
            );
        }
        best = Some(match best {
            Some(b) if b.wall_ms <= r.wall_ms => b,
            _ => r,
        });
        last = Some((code, out));
    }
    let (code, out) = last.unwrap();
    (best.unwrap(), code, out)
}

fn jnum(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// A demotion-reason map as a JSON object (`{"float": 2}`).
fn jcounts(counts: &BTreeMap<&'static str, u64>) -> String {
    let fields: Vec<String> = counts
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Shell-style glob match: `*` any run, `?` any one char, else literal.
fn glob_match(pat: &str, name: &str) -> bool {
    let (p, n): (Vec<char>, Vec<char>) = (pat.chars().collect(), name.chars().collect());
    // Iterative backtracking matcher: remember the last `*` and retry it
    // against one more character whenever the tail mismatches.
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ni;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

fn flag_value<'a>(args: &'a [String], f: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == f)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "-o")
        .unwrap_or("BENCH_vm.json")
        .to_string();
    let workloads_pat = flag_value(&args, "--workloads");
    let engines_list = flag_value(&args, "--engines");
    let scale = 0u32;
    let reps = if quick { 1 } else { 3 };

    let selected: Vec<&str> = match engines_list {
        Some(list) => {
            let want: Vec<&str> = list.split(',').map(str::trim).collect();
            for e in &want {
                assert!(
                    ENGINES.contains(e),
                    "unknown engine '{e}' (have {ENGINES:?})"
                );
            }
            // Keep artifact order regardless of how the list was written.
            ENGINES
                .iter()
                .copied()
                .filter(|e| want.contains(e))
                .collect()
        }
        None => ENGINES.to_vec(),
    };
    // A filtered run is for iterating, not for publishing: the JSON
    // artifact only ever holds the full engine × workload matrix.
    let full_matrix = workloads_pat.is_none() && engines_list.is_none();

    let suite: Vec<_> = lpat_workloads::suite(scale)
        .into_iter()
        .filter(|w| workloads_pat.is_none_or(|p| glob_match(p, w.name)))
        .collect();
    assert!(!suite.is_empty(), "--workloads matched nothing");

    let mut rows: Vec<(&str, BTreeMap<&str, EngineResult>)> = Vec::new();
    print!("{:<14}", "workload");
    for e in &selected {
        print!(" {:>13}", format!("{e} ms"));
    }
    println!();
    for w in &suite {
        let m = lpat_bench::prepare(w.name, &w.source);
        // Reference run: the interpreter's answer is ground truth. It is
        // timed only when selected, but always runs once for the oracle.
        let (interp, code, output) = run_best(&m, "interp", None, None, reps, None);
        let expect = (code, output);
        // Warm-start profile (one untimed instrumented tiered run) and the
        // speculation overlay are built lazily: only the engines that
        // consume them pay for them.
        let need_profile = selected
            .iter()
            .any(|e| matches!(*e, "tiered_warm" | "tiered_spec"));
        let profile = need_profile.then(|| {
            let opts = VmOptions {
                profile: true,
                ..VmOptions::default()
            };
            let mut vm = Vm::new(&m, opts).expect("vm init");
            vm.run_main_tiered()
                .unwrap_or_else(|e| panic!("{}: profiling run: {e}", w.name));
            vm.profile.clone()
        });
        // Speculative warm run — the full lifelong cycle a cached store
        // session replays: offline profile-guided reoptimization (hot
        // inlining + layout), speculation justified by the same profile
        // (guards as an in-memory overlay), then a warm-started tiered
        // run of the result.
        let spec_setup = selected.contains(&"tiered_spec").then(|| {
            let profile = profile.as_ref().unwrap();
            let mut sm = m.clone();
            let report = lpat_vm::reoptimize(&mut sm, profile, &PgoOptions::default());
            assert!(
                !report.degraded(),
                "{}: reopt degraded: {:?}",
                w.name,
                report.faults
            );
            // Re-profile the reoptimized module: inlining rewrites
            // instruction ids, so the first generation's per-site counts no
            // longer name the hot call sites. Each lifelong generation
            // profiles itself.
            let profile2 = {
                let opts = VmOptions {
                    profile: true,
                    ..VmOptions::default()
                };
                let mut vm = Vm::new(&sm, opts).expect("vm init");
                vm.run_main_tiered()
                    .unwrap_or_else(|e| panic!("{}: reprofiling run: {e}", w.name));
                vm.profile.clone()
            };
            let (map, _plan) = lpat_transform::speculate::speculate(
                &mut sm,
                &profile2.to_spec_profile(),
                &SpecOptions::default(),
            );
            sm.verify()
                .unwrap_or_else(|e| panic!("{}: speculated module broken: {e:?}", w.name));
            (sm, profile2, Rc::new(map))
        });
        let mut engines: BTreeMap<&str, EngineResult> = BTreeMap::new();
        for e in &selected {
            let r = match *e {
                // The oracle run already timed the interpreter best-of-N.
                "interp" => interp.clone(),
                "tiered_warm" => {
                    run_best(&m, "tiered", profile.as_ref(), None, reps, Some(&expect)).0
                }
                "tiered_spec" => {
                    let (sm, profile2, map) = spec_setup.as_ref().unwrap();
                    run_best(sm, "tiered", Some(profile2), Some(map), reps, Some(&expect)).0
                }
                other => run_best(&m, other, None, None, reps, Some(&expect)).0,
            };
            engines.insert(e, r);
        }
        print!("{:<14}", w.name);
        for e in &selected {
            print!(" {:>13.2}", engines[e].wall_ms);
        }
        println!();
        rows.push((w.name, engines));
    }

    let geomean =
        |v: &[f64]| -> f64 { (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp() };
    let ratio = |num: &str, den: &str| -> Vec<f64> {
        rows.iter()
            .map(|(_, e)| e[den].wall_ms / e[num].wall_ms.max(1e-9))
            .collect()
    };

    if !full_matrix {
        println!("\n(filtered run: BENCH_vm.json not written)");
        return;
    }

    let g_tiered = geomean(&ratio("tiered", "interp"));
    let g_warm = geomean(&ratio("tiered_warm", "tiered"));
    let g_spec = geomean(&ratio("tiered_spec", "tiered"));
    println!(
        "\ngeomean speedup  tiered vs interp: {g_tiered:.2}x   warm vs cold: {g_warm:.2}x   \
         spec-warm vs cold: {g_spec:.2}x"
    );

    // Hand-serialized (the workspace has no serde); validated below.
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"lpat-bench-vm/v4\",\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str("  \"workloads\": [\n");
    for (i, (name, engines)) in rows.iter().enumerate() {
        let eng = |e: &str| -> String {
            let r = &engines[e];
            let mut s = format!(
                "{{\"wall_ms\": {}, \"insts\": {}, \"insts_per_sec\": {}",
                jnum(r.wall_ms),
                r.insts,
                jnum(r.insts_per_sec()),
            );
            // The interpreter row carries no tier counters: nothing
            // translates.
            if e != "interp" {
                let t = &r.tier;
                s.push_str(&format!(
                    ", \"translate_ms\": {}, \"promoted\": {}, \"warmed\": {}, \"osr\": {}, \
                     \"demoted\": {}, \"demoted_by\": {}, \
                     \"native_translate_ms\": {}, \"native_promoted\": {}, \
                     \"native_osr\": {}, \"native_insts\": {}, \
                     \"native_demoted\": {}, \"native_demoted_by\": {}",
                    jnum(t.translate_ns as f64 / 1e6),
                    t.promoted,
                    t.warmed,
                    t.osr,
                    t.demoted,
                    jcounts(&t.demoted_by),
                    jnum(t.native_translate_ns as f64 / 1e6),
                    t.native_promoted,
                    t.native_osr,
                    t.native_insts,
                    t.native_demoted,
                    jcounts(&t.native_demoted_by),
                ));
            }
            if e == "tiered_spec" {
                s.push_str(&format!(
                    ", \"guards\": {}, \"guard_passed\": {}, \"guard_failed\": {}, \"deopts\": {}",
                    r.guards, r.guard_passed, r.guard_failed, r.deopts
                ));
            }
            s.push('}');
            s
        };
        j.push_str(&format!("    {{\"name\": \"{name}\", \"engines\": {{\n"));
        for (k, e) in ENGINES.iter().enumerate() {
            j.push_str(&format!(
                "      \"{e}\": {}{}\n",
                eng(e),
                if k + 1 < ENGINES.len() { "," } else { "" }
            ));
        }
        j.push_str(&format!(
            "    }}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"geomean_speedup_tiered_vs_interp\": {},\n",
        jnum(g_tiered)
    ));
    j.push_str(&format!(
        "  \"geomean_speedup_warm_vs_cold\": {},\n",
        jnum(g_warm)
    ));
    j.push_str(&format!(
        "  \"geomean_speedup_spec_warm_vs_cold\": {}\n",
        jnum(g_spec)
    ));
    j.push_str("}\n");

    lpat_bench::validate_vm_bench(&j).expect("generated BENCH_vm.json fails its own schema");
    std::fs::write(&out_path, &j).unwrap_or_else(|e| panic!("{out_path}: {e}"));
    println!("wrote {out_path}");
}
