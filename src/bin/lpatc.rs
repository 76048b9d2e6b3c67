//! `lpatc` — the command-line driver for the lpat framework.
//!
//! ```text
//! lpatc compile <in.mc> [-o out.bc] [--emit text|bc] [-O]   miniC -> IR
//! lpatc opt     <in>    [-o out]    [--emit text|bc] [--link-pipeline]
//!               [--jobs N] [--verify-each] [--time-passes]
//!               [--inject-faults PLAN] [--no-degrade] [--pass-budget-ms N]
//! lpatc link    <in...> -o out      [--emit text|bc] [-O]
//! lpatc dis     <in.bc>                                     bytecode -> text
//! lpatc run     <in>    [-O] [--profile] [--fuel N] [--input a,b,c] [--max-stack N]
//!               [--tiered] [--tier-up N]
//!               [--speculate] [--spec-threshold N]
//!               [--cache-dir DIR] [--profile-in F] [--profile-out F]
//! lpatc reopt   <in>    [--cache-dir DIR] [--profile-in F] [-o out] [--jobs N]
//!               [--speculate] [--spec-threshold N]
//! lpatc analyze <in>                                        DSA + call graph report
//! lpatc size    <in>                                        code-size report
//! ```
//!
//! Every command also accepts `--quiet` (silence stderr notices and
//! warnings) and the observability flags `--trace-out FILE` (Chrome
//! trace-event JSON, loadable in Perfetto / `chrome://tracing`),
//! `--metrics-out FILE` (machine-readable metrics summary), `--stats`
//! (human-readable metrics table on stderr), and
//! `--trace-clock virtual|real` (or `LPAT_TRACE_CLOCK`) — the virtual
//! clock makes trace exports byte-deterministic for tests.
//!
//! Inputs are auto-detected: files beginning with the `LPAT` magic load as
//! bytecode, files ending in `.mc` compile as miniC, anything else parses
//! as the textual form.
//!
//! # Degraded compilation
//!
//! By default a pass that panics, miscompiles (under `--verify-each`), or
//! blows its `--pass-budget-ms` wall-clock budget is rolled back and the
//! pipeline continues — each fault is reported on stderr and the output is
//! exactly what skipping that pass would produce. `--no-degrade` makes
//! such faults fatal instead. `--inject-faults 'gvn:panic@2,...'` (or the
//! `LPAT_FAULTS` environment variable) deterministically triggers faults
//! at named sites for testing; see `lpat_core::fault`.
//!
//! # Tiered execution
//!
//! `run --tiered` starts every function in the profiling interpreter and
//! promotes it once its hotness counter (calls + loop back-edges) exceeds
//! the threshold (`--tier-up N`, default 50; `--tier-up` implies
//! `--tiered`): the single-pass backend in `lpat_codegen::fast`
//! translates it to risc32 machine code, executed by the fuel-metered
//! emulator in `lpat_vm::native`. A failing speculation guard drops the
//! activation back into the interpreter. With a lifelong store
//! (`--cache-dir`) or `--profile-in`, functions recorded hot in *prior*
//! runs are translated eagerly at load (warm-start), so a repeat run
//! skips the warm-up entirely. `--stats` prints a per-tier instruction
//! table. Tiered execution is observationally identical to the plain
//! interpreter at any threshold.
//!
//! # Speculative PGO
//!
//! `run --speculate` consults the accumulated profile and speculatively
//! devirtualizes hot indirect calls / specializes hot functions on
//! observed constant arguments, protecting each assumption with a guard.
//! A failed guard deoptimizes back to the interpreter (under `--tiered`)
//! or falls through to the generic path. Per-guard misspeculation counts
//! flow back into the lifelong store; `reopt --speculate` reports the
//! offline plan — which guards the profile justifies and which are
//! *retracted* because their misspeculation rate exceeds
//! `--spec-threshold` percent (default 25) — byte-identically to the
//! in-memory decision at any `--jobs`. Speculation is an in-memory
//! overlay: the stored module and its profile stay unspeculated.
//!
//! # Lifelong persistence
//!
//! `run --cache-dir DIR` (or `LPAT_CACHE_DIR`) keeps a crash-safe store of
//! execution profiles and reoptimized bytecode keyed by the content hash
//! of the module: each run merges its counts into the stored lifetime
//! profile (flushed on clean exit *and* on trap), and `reopt` consumes the
//! accumulated profile offline, caching the reoptimized module so the next
//! `run` picks it up automatically. Corrupt, truncated, or stale store
//! files are quarantined and regenerated, never trusted. `--profile-out` /
//! `--profile-in` do the same with a single explicit profile file.

use std::process::ExitCode;

use lpat::core::Module;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lpatc: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    // Install the fault plan before any module is loaded: the bytecode
    // reader's `bytecode.read` site must see it.
    if let Some(plan) = flag_value(rest, "--inject-faults") {
        let plan =
            lpat::core::FaultPlan::parse(plan).map_err(|e| format!("--inject-faults: {e}"))?;
        lpat::core::fault::install(plan);
    }
    // Enable tracing before any module is loaded or pipeline runs so every
    // subsystem's spans land in the export.
    let trace_cfg = setup_trace(rest)?;
    let mut diag = Diag::new(has_flag(rest, "--quiet"));
    let result = dispatch(cmd, rest, &mut diag);
    finalize_trace(&trace_cfg, &diag)?;
    diag.flush();
    result
}

fn dispatch(cmd: &str, rest: &[String], diag: &mut Diag) -> Result<ExitCode, String> {
    match cmd {
        "compile" | "opt" | "link" | "dis" => {
            let inputs: Vec<&String> = rest.iter().take_while(|a| !a.starts_with('-')).collect();
            if inputs.is_empty() {
                return Err(format!("{cmd}: no input files"));
            }
            let mut m = if cmd == "link" {
                let mods: Result<Vec<Module>, String> = inputs.iter().map(|p| load(p)).collect();
                lpat::linker::link(mods?, "a.out").map_err(|e| e.to_string())?
            } else {
                load(inputs[0])?
            };
            if cmd == "dis" {
                print!("{}", m.display());
                return Ok(ExitCode::SUCCESS);
            }
            let jobs = match flag_value(rest, "--jobs") {
                Some(v) => Some(v.parse::<usize>().map_err(|_| "bad --jobs value")?.max(1)),
                None => None,
            };
            let verify_each = has_flag(rest, "--verify-each");
            let time_passes = has_flag(rest, "--time-passes");
            let degrade = !has_flag(rest, "--no-degrade");
            let budget = match flag_value(rest, "--pass-budget-ms") {
                Some(v) => Some(std::time::Duration::from_millis(
                    v.parse::<u64>().map_err(|_| "bad --pass-budget-ms value")?,
                )),
                None => None,
            };
            let optimize = has_flag(rest, "-O") || has_flag(rest, "-O2") || cmd == "opt";
            let mut reports: Vec<(&str, lpat::transform::PipelineReport)> = Vec::new();
            if optimize {
                let mut pm = lpat::transform::function_pipeline();
                pm.jobs = jobs;
                pm.verify_each = verify_each;
                pm.degrade = degrade;
                pm.budget = budget;
                reports.push(("function pipeline", pm.run(&mut m)));
            }
            if has_flag(rest, "--link-pipeline")
                || (cmd == "link" && (has_flag(rest, "-O") || has_flag(rest, "-O2")))
            {
                let mut pm = lpat::transform::link_time_pipeline();
                pm.jobs = jobs;
                pm.verify_each = verify_each;
                pm.degrade = degrade;
                pm.budget = budget;
                reports.push(("link-time pipeline", pm.run(&mut m)));
            }
            if time_passes {
                for (title, r) in &reports {
                    diag.dump(&format!("=== {title} ==="));
                    diag.dump_raw(&r.render());
                }
            }
            for (title, r) in &reports {
                for f in &r.faults {
                    diag.warn(&format!("{title}: isolated fault: {f}"));
                }
            }
            m.verify().map_err(|e| format!("verifier: {}", e[0]))?;
            emit(&m, rest)?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let input = rest
                .iter()
                .find(|a| !a.starts_with('-'))
                .ok_or("run: no input file")?;
            let mut m = load(input)?;
            // `run -O` optimizes in-process first, so a single traced run
            // covers the compiler, the VM, the heap, and the store.
            if has_flag(rest, "-O") || has_flag(rest, "-O2") {
                let mut pm = lpat::transform::function_pipeline();
                if let Some(v) = flag_value(rest, "--jobs") {
                    pm.jobs = Some(v.parse::<usize>().map_err(|_| "bad --jobs value")?.max(1));
                }
                let r = pm.run(&mut m);
                for f in &r.faults {
                    diag.warn(&format!("function pipeline: isolated fault: {f}"));
                }
                m.verify().map_err(|e| format!("verifier: {}", e[0]))?;
            }
            let cache_dir = cache_dir(rest);
            let profile_out = flag_value(rest, "--profile-out");
            let profile_in = flag_value(rest, "--profile-in");
            let mut opts = lpat::vm::VmOptions {
                // Persistence implies instrumentation: the profile is
                // exactly what gets persisted.
                profile: has_flag(rest, "--profile")
                    || cache_dir.is_some()
                    || profile_out.is_some(),
                ..Default::default()
            };
            if let Some(f) = flag_value(rest, "--fuel") {
                opts.fuel = Some(f.parse().map_err(|_| "bad --fuel value")?);
            }
            if let Some(n) = flag_value(rest, "--max-stack") {
                opts.max_stack = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --max-stack value")?;
            }
            if let Some(vals) = flag_value(rest, "--input") {
                for v in vals.split(',') {
                    opts.input
                        .push_back(v.trim().parse().map_err(|_| "bad --input value")?);
                }
            }
            // The cache must never stop the program from running: any
            // store failure degrades to an uncached run with a warning.
            let store = match &cache_dir {
                Some(d) => match lpat::vm::Store::open(d) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        diag.cache_warn(e.class(), &format!("{e}; running uncached"));
                        None
                    }
                },
                None => None,
            };
            // Under a cache dir, prefer the reoptimized module a previous
            // idle-time `lpatc reopt` produced for these exact bytes.
            if let Some(store) = &store {
                let source_hash = lpat::vm::module_hash(&m);
                match store.load_reopt(source_hash, &m.name) {
                    Ok(loaded) => {
                        for q in &loaded.quarantined {
                            diag.cache_warn(q.error.class(), &q.to_string());
                        }
                        if let Some(r) = loaded.value {
                            diag.note(&format!(
                                "[cache] using reoptimized module for {source_hash:016x}"
                            ));
                            m = r;
                        }
                    }
                    Err(e) => diag.cache_warn(e.class(), &e.to_string()),
                }
            }
            // Profiles are keyed to the module actually executed.
            let run_hash = lpat::vm::module_hash(&m);
            // Load-and-merge a prior lifetime profile; a profile recorded
            // against different bytes is stale and must not be applied.
            let mut lifetime = lpat::vm::StoredProfile {
                profile: lpat::vm::ProfileData::default(),
                runs: 0,
            };
            if let Some(p) = profile_in {
                match lpat::vm::store::read_profile_file(std::path::Path::new(p)) {
                    Ok((h, sp)) if h == run_hash => lifetime = sp,
                    Ok((h, _)) => diag.warn(&format!(
                        "--profile-in {p}: recorded for module \
                         {h:016x}, have {run_hash:016x}; starting fresh"
                    )),
                    Err(e) => diag.warn(&format!("--profile-in {p}: {e}; starting fresh")),
                }
            }
            // `--tier-up N` implies `--tiered`.
            let tier_up_flag = flag_value(rest, "--tier-up");
            if let Some(v) = tier_up_flag {
                opts.tier_up = v.parse().map_err(|_| "bad --tier-up value")?;
            }
            let use_tiered = has_flag(rest, "--tiered") || tier_up_flag.is_some();
            let profiling = opts.profile;
            // Accumulated prior profile for these exact module bytes —
            // the explicit `--profile-in` file (hash-checked above) plus
            // the store's lifetime profile. Feeds both tier warm-start
            // and speculation.
            let mut accum = lifetime.profile.clone();
            let mut have_prior = lifetime.runs > 0;
            if let Some(store) = &store {
                match store.load_profile(run_hash) {
                    Ok(loaded) => {
                        for q in &loaded.quarantined {
                            diag.cache_warn(q.error.class(), &q.to_string());
                        }
                        if let Some(sp) = loaded.value {
                            accum.merge_saturating(&sp.profile);
                            have_prior = true;
                        }
                    }
                    Err(e) => diag.cache_warn(e.class(), &e.to_string()),
                }
            }
            // `--speculate`: apply guard-based speculative optimization
            // driven by the accumulated profile. The module hash — and so
            // profile attribution — was computed above, *before* this
            // mutation: guards are an ephemeral in-memory overlay,
            // re-derived each run, never part of any persisted module.
            let speculate_flag = has_flag(rest, "--speculate");
            let mut spec_install = None;
            if speculate_flag {
                let mut sopts = lpat::transform::SpecOptions::default();
                if let Some(t) = flag_value(rest, "--spec-threshold") {
                    sopts.misspec_threshold_pct =
                        t.parse().map_err(|_| "bad --spec-threshold value")?;
                }
                if have_prior {
                    let (map, plan) = lpat::transform::speculate::speculate(
                        &mut m,
                        &accum.to_spec_profile(),
                        &sopts,
                    );
                    m.verify()
                        .map_err(|e| format!("verifier after speculation: {}", e[0]))?;
                    diag.note(&format!(
                        "[spec] {} guard(s) emitted, {} retracted",
                        plan.emitted(),
                        plan.retracted()
                    ));
                    spec_install = Some((std::rc::Rc::new(map), plan));
                } else {
                    diag.note("[spec] no prior profile for this module; nothing to speculate");
                }
            }
            let mut vm = lpat::vm::Vm::new(&m, opts).map_err(|e| e.to_string())?;
            if let Some((map, plan)) = &spec_install {
                vm.install_speculation(map.clone(), plan.emitted() as u64, plan.retracted() as u64);
            }
            // Warm-start: seed tier decisions from every prior profile
            // recorded for these exact module bytes — the lifelong loop
            // closed at the execution layer.
            if use_tiered && have_prior {
                let n = vm.warm_start(&accum);
                if n > 0 {
                    diag.note(&format!(
                        "[tier] warm-start: {n} function(s) promoted from prior profile"
                    ));
                }
            }
            // Armed BEFORE execution: every exit route below — clean
            // exit, trap, even an early return — funnels its store flush
            // through this one guard, the same RAII type `lpatd` workers
            // use, so no path can flush twice or be forgotten.
            let mut flush = lpat::vm::store::FlushGuard::new(store.as_ref(), run_hash);
            let result = if use_tiered {
                vm.run_main_tiered()
            } else {
                vm.run_main()
            };
            print!("{}", vm.output);
            // Fold the VM's counters (instructions, per-opcode, heap) into
            // the trace before it is drained for export.
            vm.flush_trace();
            // Flush the profile on clean exit AND on trap: a lifetime
            // profile that loses its crashing runs is blind to exactly
            // the behavior worth reoptimizing around.
            if profiling {
                lifetime.profile.merge_saturating(&vm.profile);
                lifetime.runs = lifetime.runs.saturating_add(1);
                flush.set_delta(vm.profile.clone());
                // The store merges this run's delta under its lock; a
                // Locked/Io failure skips persisting this one run.
                match flush.flush() {
                    lpat::vm::FlushOutcome::Flushed(l) => {
                        for q in &l.quarantined {
                            diag.cache_warn(q.error.class(), &q.to_string());
                        }
                    }
                    lpat::vm::FlushOutcome::Failed(e) => {
                        diag.cache_warn(e.class(), &e.to_string());
                    }
                    lpat::vm::FlushOutcome::Skipped => {}
                }
                if let Some(p) = profile_out {
                    if let Err(e) = lpat::vm::store::write_profile_file(
                        std::path::Path::new(p),
                        run_hash,
                        &lifetime.profile,
                        lifetime.runs,
                    ) {
                        diag.warn(&format!("--profile-out {p}: {e}"));
                    }
                }
                if has_flag(rest, "--profile") {
                    report_profile(&m, &lifetime.profile, diag);
                }
            }
            // Per-opcode execution histogram (interpreter dispatch counts).
            if has_flag(rest, "--stats") {
                let top = vm.top_opcodes(10);
                if !top.is_empty() {
                    diag.dump("\n[profile] top opcodes:");
                    for (name, n) in top {
                        diag.dump(&format!("  {name:<14} {n:>12}"));
                    }
                }
                if use_tiered {
                    diag.dump("\n[tier]");
                    diag.dump_raw(&vm.tier_stats.render());
                }
                if speculate_flag {
                    diag.dump("\n[spec]");
                    diag.dump_raw(&vm.spec_stats.render());
                    if let Some((_, plan)) = &spec_install {
                        diag.dump_raw(&plan.render());
                    }
                }
            }
            match result {
                Ok(code) => {
                    diag.note(&format!(
                        "[exit {code}; {} instructions]",
                        vm.insts_executed
                    ));
                    Ok(ExitCode::from((code & 0xFF) as u8))
                }
                Err(e) => Err(e.to_string()),
            }
        }
        "reopt" => {
            let input = rest
                .iter()
                .find(|a| !a.starts_with('-'))
                .ok_or("reopt: no input file")?;
            let mut m = load(input)?;
            let source_hash = lpat::vm::module_hash(&m);
            let store = match cache_dir(rest) {
                Some(d) => Some(lpat::vm::Store::open(d).map_err(|e| e.to_string())?),
                None => None,
            };
            // Gather every available profile for these module bytes.
            let mut profile = lpat::vm::ProfileData::default();
            let mut runs = 0u64;
            if let Some(store) = &store {
                let loaded = store.load_profile(source_hash).map_err(|e| e.to_string())?;
                for q in &loaded.quarantined {
                    diag.cache_warn(q.error.class(), &q.to_string());
                }
                if let Some(sp) = loaded.value {
                    profile.merge_saturating(&sp.profile);
                    runs += sp.runs;
                }
            }
            if let Some(p) = flag_value(rest, "--profile-in") {
                let (h, sp) = lpat::vm::store::read_profile_file(std::path::Path::new(p))
                    .map_err(|e| format!("--profile-in {p}: {e}"))?;
                if h != source_hash {
                    return Err(format!(
                        "--profile-in {p}: profile was recorded for module {h:016x}, \
                         this module is {source_hash:016x} (stale; not applied)"
                    ));
                }
                profile.merge_saturating(&sp.profile);
                runs += sp.runs;
            }
            if runs == 0 {
                return Err(
                    "reopt: no profile available (use --cache-dir and/or --profile-in)".into(),
                );
            }
            let mut pgo = lpat::vm::PgoOptions::default();
            if let Some(v) = flag_value(rest, "--jobs") {
                pgo.jobs = Some(v.parse::<usize>().map_err(|_| "bad --jobs value")?.max(1));
            }
            if let Some(t) = flag_value(rest, "--hot-threshold") {
                pgo.hot_call_threshold = t.parse().map_err(|_| "bad --hot-threshold value")?;
            }
            if has_flag(rest, "--speculate") {
                let mut sopts = lpat::transform::SpecOptions::default();
                if let Some(t) = flag_value(rest, "--spec-threshold") {
                    sopts.misspec_threshold_pct =
                        t.parse().map_err(|_| "bad --spec-threshold value")?;
                }
                pgo.spec = Some(sopts);
            }
            let report = lpat::vm::reoptimize(&mut m, &profile, &pgo);
            m.verify().map_err(|e| format!("verifier: {}", e[0]))?;
            diag.note(&format!(
                "[reopt] inlined {} hot sites, re-laid {} functions ({} runs of profile)",
                report.inlined, report.relaid, runs
            ));
            if let Some(plan) = &report.spec_plan {
                diag.note(&format!(
                    "[spec] plan: {} guard(s) to emit, {} retracted",
                    plan.emitted(),
                    plan.retracted()
                ));
                // The canonical plan rendering goes to stdout so tests can
                // compare offline decisions byte-for-byte across --jobs.
                print!("{}", plan.render());
            }
            for f in &report.faults {
                diag.warn(&format!("reopt: isolated fault: {f}"));
            }
            if let Some(store) = &store {
                store
                    .save_reopt(source_hash, &m)
                    .map_err(|e| e.to_string())?;
                diag.note(&format!(
                    "[reopt] cached reoptimized module for {source_hash:016x}"
                ));
            }
            if flag_value(rest, "-o").is_some() {
                emit(&m, rest)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let input = rest.first().ok_or("analyze: no input file")?;
            let m = load(input)?;
            let cg = lpat::analysis::CallGraph::build(&m);
            let dsa = lpat::analysis::Dsa::analyze(&m, &cg, &lpat::analysis::DsaOptions::default());
            println!(
                "module {}: {} functions, {} globals, {} instructions",
                m.name,
                m.num_funcs(),
                m.num_globals(),
                m.total_insts()
            );
            println!("\nper-function typed memory accesses (DSA):");
            for (fid, f) in m.funcs() {
                if f.is_declaration() {
                    continue;
                }
                let s = dsa.access_stats_for(fid);
                println!(
                    "  @{:<24} {:>4} typed {:>4} untyped  ({:>5.1}%)  callees: {}",
                    f.name,
                    s.typed,
                    s.untyped,
                    s.percent(),
                    cg.callees(fid).len()
                );
            }
            let total = dsa.access_stats();
            println!(
                "\ntotal: {} typed / {} untyped ({:.1}%)",
                total.typed,
                total.untyped,
                total.percent()
            );
            Ok(ExitCode::SUCCESS)
        }
        "size" => {
            let input = rest.first().ok_or("size: no input file")?;
            let m = load(input)?;
            let bc = lpat::bytecode::write_module(&m);
            let cisc = lpat::codegen::compile_module(&m, &lpat::codegen::Cisc32);
            let risc = lpat::codegen::compile_module(&m, &lpat::codegen::Risc32);
            println!("{:<12} {:>10}", "form", "bytes");
            println!("{:<12} {:>10}", "bytecode", bc.len());
            println!(
                "{:<12} {:>10}   (code {} data {})",
                "cisc32", cisc.total, cisc.code_size, cisc.data_size
            );
            println!(
                "{:<12} {:>10}   (code {} data {})",
                "risc32", risc.total, risc.code_size, risc.data_size
            );
            Ok(ExitCode::SUCCESS)
        }
        "remote" => remote(rest, diag),
        "help" | "--help" | "-h" => {
            eprintln!(
                "usage: lpatc <compile|opt|link|dis|run|reopt|analyze|size|remote> <inputs> [flags]\n\
                 remote: lpatc remote <ping|run|compile|reopt|stats|top> [input] --connect ADDR\n\
                 \x20      [--tenant T] [--fuel N] [--deadline-ms N] [--input a,b,c]\n\
                 \x20      [-O] [--tiered] [--retries N] [--connect-timeout-ms N] [-o FILE]\n\
                 \x20      [--request-id N]; top: [--interval-ms N] [--iterations N]\n\
                 flags: -o FILE, --emit text|bc, -O/-O2, --link-pipeline,\n\
                 \x20      --jobs N, --verify-each, --time-passes,\n\
                 \x20      --inject-faults PLAN, --no-degrade, --pass-budget-ms N,\n\
                 \x20      --profile, --tiered, --tier-up N,\n\
                 \x20      --fuel N, --input a,b,c, --max-stack N,\n\
                 \x20      --cache-dir DIR (or LPAT_CACHE_DIR), --profile-in FILE,\n\
                 \x20      --profile-out FILE, --hot-threshold N,\n\
                 \x20      --speculate, --spec-threshold N,\n\
                 \x20      --trace-out FILE, --metrics-out FILE, --stats,\n\
                 \x20      --trace-clock virtual|real (or LPAT_TRACE_CLOCK), --quiet"
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}' (try 'lpatc help')")),
    }
}

/// `lpatc remote <op> [input] --connect ADDR` — run an op against a
/// running `lpatd` instead of in-process. `Busy` answers (tenant cap,
/// shed queue) are retried with jittered bounded exponential backoff,
/// honoring the server's `retry_after_ms` hint; a still-busy server
/// after the retry budget exits with a distinct code (3) so scripts can
/// tell "declined" from "failed", and a crash-loop-quarantined payload
/// exits 4 — retrying it cannot help.
fn remote(rest: &[String], diag: &mut Diag) -> Result<ExitCode, String> {
    use lpat::serve::{Addr, Client, ErrClass, Op, Request, Response, RetryPolicy, FLAG_MINIC};

    let op = match rest.first().map(String::as_str) {
        Some("ping") => Op::Ping,
        Some("run") => Op::Run,
        Some("compile") => Op::Compile,
        Some("reopt") => Op::Reopt,
        Some("stats") => Op::Stats,
        Some("top") => return remote_top(rest),
        Some(other) => return Err(format!("remote: unknown op '{other}'")),
        None => return Err("remote: no op (ping|run|compile|reopt|stats|top)".into()),
    };
    let addr = flag_value(rest, "--connect").ok_or("remote: --connect ADDR is required")?;
    let addr = Addr::parse(addr).map_err(|e| format!("remote: {e}"))?;
    let connect_timeout = match flag_value(rest, "--connect-timeout-ms") {
        Some(v) => std::time::Duration::from_millis(
            v.parse().map_err(|_| "bad --connect-timeout-ms value")?,
        ),
        None => std::time::Duration::from_secs(5),
    };
    let mut req = Request::new(op);
    if let Some(t) = flag_value(rest, "--tenant") {
        req.tenant = t.to_string();
    }
    if let Some(f) = flag_value(rest, "--fuel") {
        req.fuel = f.parse().map_err(|_| "bad --fuel value")?;
    }
    if let Some(d) = flag_value(rest, "--deadline-ms") {
        req.deadline_ms = d.parse().map_err(|_| "bad --deadline-ms value")?;
    }
    if let Some(vals) = flag_value(rest, "--input") {
        for v in vals.split(',') {
            req.inputs
                .push(v.trim().parse().map_err(|_| "bad --input value")?);
        }
    }
    if has_flag(rest, "-O") || has_flag(rest, "-O2") {
        req.flags |= lpat::serve::FLAG_OPT;
    }
    if has_flag(rest, "--tiered") {
        req.flags |= lpat::serve::FLAG_TIERED;
    }
    // Originate the distributed-trace context: the id rides the wire,
    // every daemon and worker span for this request carries it, and the
    // merged `lpatd --trace-out` file can be grepped for it end to end.
    // Accepts decimal or the 0x-hex form the diagnostics print, so an id
    // copied from another transcript round-trips.
    req.request_id = match flag_value(rest, "--request-id") {
        Some(v) => match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| "bad --request-id value")?,
            None => v.parse().map_err(|_| "bad --request-id value")?,
        },
        None => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            // SplitMix64-style mix of time and pid; `| 1` keeps it
            // nonzero (zero means "daemon, assign one").
            (nanos ^ (u64::from(std::process::id()) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
        }
    };
    diag.note(&format!("[remote] request id {:#018x}", req.request_id));
    // Ops that carry a module read it from the first non-flag argument
    // after the op name. The bytes ship raw — the daemon does the
    // auto-detection — except miniC, which the wire marks with a flag
    // since filenames don't cross it.
    if matches!(op, Op::Run | Op::Compile | Op::Reopt) {
        let input = rest[1..]
            .iter()
            .find(|a| !a.starts_with('-') && Some(a.as_str()) != flag_value(rest, "--connect"))
            .ok_or("remote: no input file")?;
        req.module = std::fs::read(input.as_str()).map_err(|e| format!("{input}: {e}"))?;
        req.name = std::path::Path::new(input.as_str())
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("module")
            .to_string();
        if input.ends_with(".mc") || input.ends_with(".c") {
            req.flags |= FLAG_MINIC;
        }
    }
    let mut policy = RetryPolicy::default();
    if let Some(r) = flag_value(rest, "--retries") {
        let retries: u32 = r.parse().map_err(|_| "bad --retries value")?;
        policy.max_attempts = retries + 1;
    }
    let mut client = Client::connect(&addr, connect_timeout).map_err(|e| format!("remote: {e}"))?;
    let mut sp = lpat::core::trace::span("serve.client", "request");
    sp.arg("rid", req.request_id.to_string());
    sp.arg("op", op.name());
    let resp = client
        .request_with_retry(&req, &policy)
        .map_err(|e| format!("remote: {e}"))?;
    sp.arg("status", resp.status_label());
    drop(sp);
    match resp {
        Response::Ok {
            exit,
            insts,
            cache_hit,
            output,
            module,
        } => {
            // Program stdout is relayed verbatim; server-generated status
            // lines (reopt summaries, stats JSON) get a terminating newline
            // so shell prompts don't glue onto them.
            let text = String::from_utf8_lossy(&output);
            if matches!(op, Op::Run) || text.ends_with('\n') || text.is_empty() {
                print!("{text}");
            } else {
                println!("{text}");
            }
            if !module.is_empty() {
                if let Some(p) = flag_value(rest, "-o") {
                    std::fs::write(p, &module).map_err(|e| format!("-o {p}: {e}"))?;
                    diag.note(&format!("[remote] wrote {p} ({} bytes)", module.len()));
                }
            }
            if cache_hit {
                diag.note("[remote] served from reopt cache");
            }
            if matches!(op, Op::Run) {
                diag.note(&format!("[remote exit {exit}; {insts} instructions]"));
                Ok(ExitCode::from((exit & 0xFF) as u8))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        Response::Err { class, message } => {
            // Guest traps mirror local `lpatc run` (error text, exit 2 via
            // the caller); a quarantined payload gets its own exit code
            // (4) — retrying it is pointless until the denylist is
            // cleared, and scripts need to tell that apart from a
            // retryable failure; everything else is prefixed with its
            // class so scripts can dispatch on it.
            match class {
                ErrClass::Trap => Err(message),
                ErrClass::Quarantined => {
                    diag.warn(&format!("quarantined: {message}"));
                    Ok(ExitCode::from(4))
                }
                _ => Err(format!("{}: {message}", class.name())),
            }
        }
        Response::Busy {
            retry_after_ms,
            reason,
        } => {
            diag.warn(&format!(
                "server busy after {} attempt(s): {reason} (retry_after {retry_after_ms}ms)",
                policy.max_attempts
            ));
            Ok(ExitCode::from(3))
        }
    }
}

/// `lpatc remote top --connect ADDR` — a refreshing live view of a
/// running daemon: req/s, latency/queue-wait quantiles, worker states,
/// crash/quarantine counters, and the payload memo and profile group
/// commit counters, all scraped from the `Stats` op's
/// `lpat-serve-stats/v2` JSON once per `--interval-ms` (default 1000).
/// `--iterations N` stops after N polls (0 = until interrupted), which
/// is how scripts and tests get one deterministic snapshot.
fn remote_top(rest: &[String]) -> Result<ExitCode, String> {
    use lpat::core::trace::{parse_json, Json};
    use lpat::serve::{Addr, Client, Op, Request, Response};

    let addr = flag_value(rest, "--connect").ok_or("remote top: --connect ADDR is required")?;
    let addr = Addr::parse(addr).map_err(|e| format!("remote top: {e}"))?;
    let interval = std::time::Duration::from_millis(match flag_value(rest, "--interval-ms") {
        Some(v) => v.parse().map_err(|_| "bad --interval-ms value")?,
        None => 1000,
    });
    let iterations: u64 = match flag_value(rest, "--iterations") {
        Some(v) => v.parse().map_err(|_| "bad --iterations value")?,
        None => 0,
    };
    let mut client = Client::connect(&addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("remote top: {e}"))?;
    let mut prev: Option<(f64, std::time::Instant)> = None;
    let mut poll = 0u64;
    loop {
        poll += 1;
        let json = match client.request(&Request::new(Op::Stats)) {
            Ok(Response::Ok { output, .. }) => String::from_utf8_lossy(&output).into_owned(),
            Ok(other) => return Err(format!("remote top: stats answered {other:?}")),
            Err(e) => return Err(format!("remote top: {e}")),
        };
        let stats = parse_json(&json).map_err(|e| format!("remote top: bad stats JSON: {e}"))?;
        let now = std::time::Instant::now();
        let requests = stats.num("requests").unwrap_or(0.0);
        let rate = match prev {
            Some((r0, t0)) => {
                let dt = now.duration_since(t0).as_secs_f64();
                if dt > 0.0 {
                    (requests - r0).max(0.0) / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        prev = Some((requests, now));
        {
            use std::io::IsTerminal as _;
            if std::io::stdout().is_terminal() {
                // Home + clear-to-end keeps a live table without scroll.
                print!("\x1b[H\x1b[2J");
            }
        }
        let n = |k: &str| stats.num(k).unwrap_or(0.0) as u64;
        println!(
            "lpatd {} — {} (poll {poll})",
            addr,
            stats.str_field("schema").unwrap_or("?")
        );
        println!(
            "requests {:>8}   {:>8.1} req/s   ok {}   errors {}   busy {}   shed {}",
            n("requests"),
            rate,
            n("ok"),
            n("errors"),
            n("busy"),
            n("shed_queue"),
        );
        let pids: Vec<String> = match stats.get("worker_pids") {
            Some(Json::Arr(v)) => v
                .iter()
                .filter_map(|p| match p {
                    Json::Num(x) if *x > 0.0 => Some(format!("{}", *x as u64)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        println!(
            "workers [{}]   crashes {}   restarts {}   watchdog {}   quarantined {}   flight {}",
            pids.join(", "),
            n("worker_crashes"),
            n("worker_restarts"),
            n("watchdog_kills"),
            n("quarantined"),
            n("flight_salvaged"),
        );
        println!(
            "memo hits {} misses {}   profile commits {} runs {} pending {} flush failures {}",
            n("memo_hits"),
            n("memo_misses"),
            n("profile_commits"),
            n("profile_runs_committed"),
            n("profile_runs_pending"),
            n("profile_flush_failures"),
        );
        println!(
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        if let Some(q) = stats.get("quantiles") {
            let row = |label: &str, h: &Json| {
                let f = |k: &str| h.num(k).unwrap_or(0.0) as u64;
                println!(
                    "{label:<24} {:>8} {:>8} {:>8} {:>8} {:>10}",
                    f("count"),
                    f("p50"),
                    f("p90"),
                    f("p99"),
                    f("max")
                );
            };
            if let Some(lat) = q.get("latency_us") {
                for (k, h) in lat.fields() {
                    row(&format!("latency_us {k}"), h);
                }
            }
            for plain in ["queue_wait_us", "fuel", "payload_bytes"] {
                if let Some(h) = q.get(plain) {
                    row(plain, h);
                }
            }
        }
        if iterations > 0 && poll >= iterations {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(interval);
    }
}

/// All driver diagnostics flow through here, and only program output and
/// report tables go to stdout. Notices and warnings print to stderr and
/// are silenced by `--quiet`; explicitly requested dumps (`--time-passes`,
/// `--profile`, `--stats`) always print. Cache warnings deduplicate per
/// `StoreError` class: the first of each class prints, the rest are
/// counted and summarized by `Diag::flush`.
struct Diag {
    quiet: bool,
    cache_seen: std::collections::BTreeMap<&'static str, u64>,
}

impl Diag {
    fn new(quiet: bool) -> Diag {
        Diag {
            quiet,
            cache_seen: std::collections::BTreeMap::new(),
        }
    }

    /// Informational notice (`[cache]`, `[reopt]`, `[exit …]`).
    fn note(&self, msg: &str) {
        if !self.quiet {
            eprintln!("{msg}");
        }
    }

    /// Warning (prefixed `lpatc: warning:`).
    fn warn(&self, msg: &str) {
        if !self.quiet {
            eprintln!("lpatc: warning: {msg}");
        }
    }

    /// Cache warning, deduplicated by error class.
    fn cache_warn(&mut self, class: &'static str, msg: &str) {
        let n = self.cache_seen.entry(class).or_insert(0);
        *n += 1;
        if *n == 1 {
            self.warn(&format!("cache: {msg}"));
        }
    }

    /// Explicitly requested dump line — prints even under `--quiet`.
    fn dump(&self, msg: &str) {
        eprintln!("{msg}");
    }

    /// Explicitly requested dump, pre-formatted (no trailing newline added).
    fn dump_raw(&self, msg: &str) {
        eprint!("{msg}");
    }

    /// Summarize suppressed duplicate cache warnings.
    fn flush(&self) {
        for (class, n) in &self.cache_seen {
            if *n > 1 {
                self.warn(&format!(
                    "cache: {} more '{class}' warning(s) suppressed",
                    n - 1
                ));
            }
        }
    }
}

/// Trace/metrics outputs requested on the command line.
struct TraceConfig {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    stats: bool,
}

impl TraceConfig {
    fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.stats
    }
}

/// Parse trace flags and enable recording if any output was requested.
/// The clock comes from `--trace-clock virtual|real`, falling back to the
/// `LPAT_TRACE_CLOCK` environment variable (the flag wins).
fn setup_trace(rest: &[String]) -> Result<TraceConfig, String> {
    let cfg = TraceConfig {
        trace_out: flag_value(rest, "--trace-out").map(str::to_string),
        metrics_out: flag_value(rest, "--metrics-out").map(str::to_string),
        stats: has_flag(rest, "--stats"),
    };
    if cfg.active() {
        let mode = match flag_value(rest, "--trace-clock") {
            Some("virtual") => lpat::core::trace::ClockMode::Virtual,
            Some("real") => lpat::core::trace::ClockMode::Real,
            Some(other) => {
                return Err(format!("bad --trace-clock '{other}' (virtual or real)"));
            }
            None => match std::env::var("LPAT_TRACE_CLOCK").as_deref() {
                Ok("virtual") => lpat::core::trace::ClockMode::Virtual,
                _ => lpat::core::trace::ClockMode::Real,
            },
        };
        lpat::core::trace::enable(mode);
    }
    Ok(cfg)
}

/// Drain the trace and write the requested exports.
fn finalize_trace(cfg: &TraceConfig, diag: &Diag) -> Result<(), String> {
    if !cfg.active() {
        return Ok(());
    }
    let data = lpat::core::trace::drain();
    if let Some(p) = &cfg.trace_out {
        std::fs::write(p, data.to_chrome_json()).map_err(|e| format!("--trace-out {p}: {e}"))?;
        diag.note(&format!("[trace] wrote {p}"));
    }
    if let Some(p) = &cfg.metrics_out {
        std::fs::write(p, data.to_metrics_json()).map_err(|e| format!("--metrics-out {p}: {e}"))?;
        diag.note(&format!("[trace] wrote {p}"));
    }
    if cfg.stats {
        diag.dump_raw(&data.render_stats());
    }
    Ok(())
}

fn has_flag(args: &[String], f: &str) -> bool {
    args.iter().any(|a| a == f)
}

fn flag_value<'a>(args: &'a [String], f: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == f)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Resolve the lifelong cache directory: `--cache-dir DIR` flag, falling
/// back to the `LPAT_CACHE_DIR` environment variable.
fn cache_dir(args: &[String]) -> Option<String> {
    flag_value(args, "--cache-dir")
        .map(str::to_string)
        .or_else(|| std::env::var("LPAT_CACHE_DIR").ok())
}

/// Load a module from any of the three on-disk shapes.
fn load(path: &str) -> Result<Module, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("module");
    if bytes.starts_with(b"LPAT") {
        return lpat::bytecode::read_module(name, &bytes).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
    let m = if path.ends_with(".mc") || path.ends_with(".c") {
        lpat::minic::compile(name, &text).map_err(|e| format!("{path}: {e}"))?
    } else {
        lpat::asm::parse_module(name, &text).map_err(|e| format!("{path}: {e}"))?
    };
    m.verify()
        .map_err(|e| format!("{path}: verifier: {}", e[0]))?;
    Ok(m)
}

/// Write the module per `-o` / `--emit` (default: text to stdout).
fn emit(m: &Module, args: &[String]) -> Result<(), String> {
    let emit_kind = flag_value(args, "--emit").unwrap_or("text");
    let out = flag_value(args, "-o");
    match (emit_kind, out) {
        ("text", None) => {
            print!("{}", m.display());
            Ok(())
        }
        ("text", Some(p)) => std::fs::write(p, m.display()).map_err(|e| e.to_string()),
        ("bc", Some(p)) => {
            std::fs::write(p, lpat::bytecode::write_module(m)).map_err(|e| e.to_string())
        }
        ("bc", None) => Err("--emit bc requires -o FILE".into()),
        (other, _) => Err(format!("unknown --emit kind '{other}'")),
    }
}

fn report_profile(m: &Module, profile: &lpat::vm::ProfileData, diag: &Diag) {
    diag.dump("\n[profile]");
    let hot = profile.hot_loops(m, 100);
    for h in hot.iter().take(8) {
        let (trace, cov) = lpat::vm::form_trace(m, profile, h);
        diag.dump(&format!(
            "  hot loop @{} bb{} x{}  trace {:?} ({:.0}% coverage)",
            m.func(h.func).name,
            h.header.index(),
            h.header_count,
            trace.iter().map(|b| b.index()).collect::<Vec<_>>(),
            cov * 100.0
        ));
    }
    for (caller, site, n) in profile.hot_callsites(100).iter().take(8) {
        diag.dump(&format!(
            "  hot call site @{} %t{} x{n}",
            m.func(*caller).name,
            site.index()
        ));
    }
}
