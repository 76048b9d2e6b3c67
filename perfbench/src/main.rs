//! `perfbench` — the lifelong-loop benchmark.
//!
//! ```text
//! perfbench --workload lifelong|exec|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of an lpat checkout (normally through
//! `python3 perfbench/run.py`, which builds this binary first). Each run
//! sets the workload up [`Workload::setups`] times (reporting the median as
//! `setup_s`), then runs its closed loop for `--seconds`, checking every
//! answer against an interpreter-computed reference. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! A traced run spends the first half of its time untraced and the second
//! half recording benchmark-side spans, so it can report its own tracing
//! overhead. Set-up is never traced: every per-layer time is one of the
//! measured loop, and a layer the loop does not call reads 0. Spans go
//! to `.bench_out/trace/`, and every run leaves a record (host
//! fingerprint, sample counts, tail percentiles, the determinism-checked
//! counts) in `.bench_out/runs/`.
//!
//! ## What the end-to-end metrics mean per workload
//!
//! Every workload reports every metric. A *cycle* is one unit of the
//! workload's closed loop, and what its user waits on, so the `req_*`
//! metrics repeat the `cycle_*` ones.
//!
//! | metric | lifelong | exec | daemon |
//! |---|---|---|---|
//! | cycle | source to the end of the warm run | a pass over the 15 programs (`Vm::new`, warm start, run each) | one request |
//! | `compile_p50_ms` | per cycle | per program, in set-up | `compile` requests |
//! | `run_geomean_ms` (over programs, of medians) | warm runs | timed runs | `run` requests |
//! | `guest_minsts_per_s` | cold and warm runs | timed runs | `run` requests |
//! | `bytecode_bytes` (over the 15 programs) | linked, optimized | wrapped, optimized | payloads |
//!
//! Times are CPU times of the whole process ([`trace::cpu_ns`]), so the
//! pass manager's and the daemon's worker threads count. Rates are per
//! second of that clock.

mod daemon;
mod exec;
mod host;
mod lifecycle;
mod lifelong;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lpat_core::trace::JsonWriter;

use crate::lifecycle::CountBook;
use crate::rng::Deck;
use crate::stats::{geomean, median, quartiles, tail};
use crate::trace::Tracer;

/// Worker threads for every pass pipeline, the daemon's included. The
/// reference host has two shared cores; one job keeps compile times
/// from depending on whether a neighbour holds the second.
const PIPELINE_JOBS: &str = "1";

/// Draws hashed into a run's draw fingerprint.
const FINGERPRINT_DRAWS: usize = 64;

/// One workload: built from scratch by `setup`, then measured in a
/// closed loop.
pub trait Workload {
    /// Build every input from scratch: compile, compute the reference
    /// answers, prime stores, start servers. `dir` is empty and private
    /// to this set-up; `tr` records nothing.
    fn setup(&mut self, tr: &mut Tracer, dir: &Path) -> Result<(), String>;
    /// Run the closed loop for `secs` seconds on the draw of `seed`.
    fn measure(&mut self, tr: &mut Tracer, seed: u64, secs: f64) -> Result<Phase, String>;
    /// The first `n` draws of `seed`, as numbers: by default the
    /// program order of a [`Deck`] over [`Workload::programs`].
    fn draws(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut deck = Deck::new(seed, self.programs().len());
        (0..n).map(|_| deck.next_index() as u64).collect()
    }
    /// Span around one cycle of the loop.
    fn cycle_span(&self) -> &'static str;
    /// The programs, in index order.
    fn programs(&self) -> Vec<&'static str>;
    /// Workload-specific facts for the run record.
    fn describe(&self, _w: &mut JsonWriter) {}
    /// Set-ups per run; `setup_s` is their median.
    fn setups(&self) -> usize {
        5
    }
}

/// What one measured loop observed.
#[derive(Default)]
pub struct Phase {
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
    /// Length of every cycle that completed correctly. All times are
    /// process CPU times.
    pub cycles_ms: Vec<f64>,
    /// (program, ms) of every correct piece of a cycle that serves one
    /// program: a lifelong cycle, an exec run, a daemon request.
    pub per_program: Vec<(usize, f64)>,
    pub compile_ms: Vec<f64>,
    /// (program, ms) of every run counted in `run_geomean_ms`.
    pub runs: Vec<(usize, f64)>,
    pub guest_insts: u64,
    pub guest_ms: f64,
    pub counts: CountBook,
    /// Pipeline faults isolated and store flushes refused.
    pub faults: u64,
    pub flush_failures: u64,
    /// Per-run translation times.
    pub translate_ms: Vec<f64>,
    pub native_translate_ms: Vec<f64>,
    /// Workload-specific per-layer values (the daemon's `serve.*`).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(msg);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let flag = |f: &str| -> Result<&str, String> {
            argv.iter()
                .position(|a| a == f)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {f}"))
        };
        let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        Ok(Args {
            workload: flag("--workload")?.to_string(),
            seed: flag("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds,
            trace: match flag("--trace")? {
                "0" => false,
                "1" => true,
                _ => return Err("--trace must be 0 or 1".into()),
            },
        })
    }
}

fn main() -> ExitCode {
    // Read by the pass manager at each pipeline run; set before any
    // thread starts.
    std::env::set_var("LPAT_JOBS", PIPELINE_JOBS);
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload lifelong|exec|daemon --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    let result = std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("{}: {e}", tmp.display()))
        .and_then(|()| run(&args, &out, &tmp));
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up, measure, and return the result line.
fn run(args: &Args, out: &Path, tmp: &Path) -> Result<String, String> {
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "lifelong" => Box::new(lifelong::Lifelong::new(tmp.join("cycles"))),
        "exec" => Box::new(exec::Exec::default()),
        "daemon" => Box::new(daemon::Daemon::default()),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let epoch = Instant::now();
    let tracer = |on| Tracer::new(on, epoch);
    // The last set-up is the one measured.
    let mut setup_s = Vec::new();
    for k in 0..wl.setups() {
        let dir = tmp.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (r, ms) = tracer(false).span("setup", 0, |tr| wl.setup(tr, &dir));
        r?;
        setup_s.push(ms / 1e3);
    }
    // A traced run measures untraced first, on the same draw, so the
    // difference is the tracing overhead.
    let steal_before = host::cpu_ticks();
    let mut spans = tracer(args.trace);
    let (phase, overhead) = if args.trace {
        let base = wl.measure(&mut tracer(false), args.seed, args.seconds / 2.0)?;
        let mut traced = wl.measure(&mut spans, args.seed, args.seconds / 2.0)?;
        let overhead = median(&traced.cycles_ms) / median(&base.cycles_ms) - 1.0;
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.first_failures.extend(base.first_failures);
        (traced, Some(overhead))
    } else {
        (
            wl.measure(&mut tracer(false), args.seed, args.seconds)?,
            None,
        )
    };
    let steal = host::steal_share(steal_before, host::cpu_ticks());

    let programs = wl.programs();
    let e2e = end_to_end(&phase, &setup_s);
    let layers = per_layer(&phase, spans.spans(), wl.cycle_span(), &programs, overhead);
    let metrics = if args.trace { &layers } else { &e2e };
    for (name, unit, v) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} ({unit}) is not a finite number"));
        }
    }

    // The run record and, for traced runs, the spans.
    let runs = out.join("runs");
    std::fs::create_dir_all(&runs).map_err(|e| e.to_string())?;
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let draws = wl.draws(args.seed, FINGERPRINT_DRAWS);
    let record = render_record(
        args, &*wl, &phase, &setup_s, &draws, &e2e, &layers, tmp, steal,
    );
    std::fs::write(runs.join(format!("{tag}.json")), record).map_err(|e| e.to_string())?;
    if args.trace {
        let dir = out.join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(
            dir.join(format!("{tag}.json")),
            trace::render(spans.spans()),
        )
        .map_err(|e| e.to_string())?;
    }
    for f in &phase.first_failures {
        eprintln!("perfbench: failure: {f}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, {} cycles in {:.2} s; setups {:?}",
        phase.attempted,
        phase.failed,
        phase.cycles_ms.len(),
        phase.elapsed_s,
        setup_s
    );

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        phase.failed == 0 && phase.attempted > 0,
        phase.attempted,
        phase.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        line.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    Ok(line)
}

type Metric = (String, &'static str, f64);

/// Median of each program's samples, by program index.
fn per_program_medians(v: &[(usize, f64)]) -> BTreeMap<usize, f64> {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(p, ms) in v {
        by.entry(p).or_default().push(ms);
    }
    by.into_iter().map(|(p, s)| (p, median(&s))).collect()
}

/// A request is what the workload's user waits on, which in every
/// workload is one cycle, so the `req_*` metrics repeat the `cycle_*`
/// ones: each workload reports the whole set.
fn end_to_end(p: &Phase, setup_s: &[f64]) -> Vec<Metric> {
    let rate = p.cycles_ms.len() as f64 / p.elapsed_s.max(1e-9);
    let (p50, (_, tail_ms)) = (median(&p.cycles_ms), tail(&p.cycles_ms));
    let run_medians: Vec<f64> = per_program_medians(&p.runs).into_values().collect();
    let m = |n: &str, u, v| (n.to_string(), u, v);
    vec![
        m("setup_s", "s", median(setup_s)),
        m("peak_rss_mb", "MiB", host::peak_rss_mb()),
        m("cycles_per_s", "1/s", rate),
        m("cycle_p50_ms", "ms", p50),
        m("cycle_tail_ms", "ms", tail_ms),
        m("compile_p50_ms", "ms", median(&p.compile_ms)),
        m(
            "bytecode_bytes",
            "bytes",
            p.counts.total("bytecode_bytes") as f64,
        ),
        m("run_geomean_ms", "ms", geomean(&run_medians)),
        m(
            "guest_minsts_per_s",
            "Minst/s",
            p.guest_insts as f64 / (p.guest_ms.max(1e-9) * 1e3),
        ),
        m("req_per_s", "1/s", rate),
        m("req_p50_ms", "ms", p50),
        m("req_tail_ms", "ms", tail_ms),
    ]
}

/// Spans whose per-call self time is a per-layer metric (`<span>_ms`).
const LAYER_SPANS: [&str; 16] = [
    "minic.compile",
    "transform.function_pipeline",
    "transform.link_pipeline",
    "linker.link",
    "bytecode.write",
    "bytecode.read",
    "core.verify",
    "vm.init",
    "vm.cold_run",
    "vm.warm_run",
    "vm.store.open",
    "vm.store.load",
    "vm.store.hash",
    "vm.store.record_run",
    "vm.store.save_reopt",
    "vm.pgo.reoptimize",
];

/// Per-program counts reported as totals over the distinct programs.
const COUNTS: [&str; 12] = [
    "minic.insts",
    "transform.function_pipeline.insts",
    "transform.link_pipeline.insts",
    "vm.guest_insts",
    "vm.tier.insts.interp",
    "vm.tier.insts.jit",
    "vm.tier.insts.native",
    "vm.tier.promoted",
    "vm.tier.osr",
    "vm.tier.native_promoted",
    "vm.tier.demoted",
    "vm.pgo.inlined",
];

/// Values only the daemon produces; other workloads report 0.
pub const SERVE_METRICS: [(&str, &str); 13] = [
    ("serve.req_wall_p50_ms", "ms"),
    ("serve.req_wall_tail_ms", "ms"),
    ("serve.service_p50_us", "us"),
    ("serve.service_tail_us", "us"),
    ("serve.service_p50_us.run", "us"),
    ("serve.service_p50_us.compile", "us"),
    ("serve.service_p50_us.reopt", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_tail_us", "us"),
    ("serve.wire_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
];

fn per_layer(
    p: &Phase,
    spans: &[trace::Span],
    cycle_span: &str,
    programs: &[&'static str],
    overhead: Option<f64>,
) -> Vec<Metric> {
    let by_name = trace::self_ms_by_name(spans);
    let mut out: Vec<Metric> = Vec::new();
    for s in LAYER_SPANS {
        let v = by_name.get(s).map_or(0.0, |v| median(v));
        out.push((format!("{s}_ms"), "ms", v));
    }
    // The store layers wait on fsync, which the CPU clock does not see.
    for s in [
        "vm.store.open",
        "vm.store.record_run",
        "vm.store.save_reopt",
    ] {
        let wall: Vec<f64> = spans
            .iter()
            .filter(|x| x.name == s)
            .map(|x| (x.end_ns - x.start_ns) as f64 / 1e6)
            .collect();
        out.push((format!("{s}_wall_ms"), "ms", median(&wall)));
    }
    for c in COUNTS {
        out.push((c.to_string(), "count", p.counts.total(c) as f64));
    }
    let (interp, jit, native) = (
        p.counts.total("vm.tier.insts.interp") as f64,
        p.counts.total("vm.tier.insts.jit") as f64,
        p.counts.total("vm.tier.insts.native") as f64,
    );
    let all = interp + jit + native;
    out.push((
        "vm.tier.translated_share".into(),
        "ratio",
        if all > 0.0 { (jit + native) / all } else { 0.0 },
    ));
    out.push(("vm.tier.translate_ms".into(), "ms", median(&p.translate_ms)));
    out.push((
        "vm.tier.native_translate_ms".into(),
        "ms",
        median(&p.native_translate_ms),
    ));
    out.push(("transform.faults".into(), "count", p.faults as f64));
    out.push((
        "vm.store.flush_failures".into(),
        "count",
        p.flush_failures as f64,
    ));
    for (name, unit) in SERVE_METRICS {
        out.push((name.into(), unit, p.layer.get(name).copied().unwrap_or(0.0)));
    }
    let runs = per_program_medians(&p.runs);
    let cycles = per_program_medians(&p.per_program);
    for (i, prog) in programs.iter().enumerate() {
        out.push((
            format!("exec.run_ms.{prog}"),
            "ms",
            runs.get(&i).copied().unwrap_or(0.0),
        ));
        out.push((
            format!("lifelong.cycle_ms.{prog}"),
            "ms",
            cycles.get(&i).copied().unwrap_or(0.0),
        ));
    }
    out.push((
        "lifelong.unattributed_frac".into(),
        "ratio",
        median(&trace::uncovered_shares(spans, cycle_span)),
    ));
    out.push((
        "trace.overhead_frac".into(),
        "ratio",
        overhead.unwrap_or(0.0),
    ));
    out.push((
        "fail_frac".into(),
        "ratio",
        p.failed as f64 / p.attempted.max(1) as f64,
    ));
    out
}

#[allow(clippy::too_many_arguments)]
fn render_record(
    args: &Args,
    wl: &dyn Workload,
    p: &Phase,
    setup_s: &[f64],
    draws: &[u64],
    e2e: &[Metric],
    layers: &[Metric],
    store_dir: &Path,
    steal: f64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "lpat-perfbench-run/v1");
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_raw("seconds", &args.seconds.to_string());
    w.field_bool("trace", args.trace);
    w.begin_object_field("host");
    host::write_fingerprint(&mut w, store_dir);
    w.field_raw("steal_share", &steal.to_string());
    w.end_object();
    wl.describe(&mut w);
    w.begin_object_field("samples");
    w.field_u64("setups", setup_s.len() as u64);
    w.field_u64("attempted", p.attempted);
    w.field_u64("failed", p.failed);
    w.field_u64("cycles", p.cycles_ms.len() as u64);
    w.field_u64("compiles", p.compile_ms.len() as u64);
    w.field_u64("runs", p.runs.len() as u64);
    w.field_raw("elapsed_s", &p.elapsed_s.to_string());
    w.end_object();
    // The tail's percentile and its sample count, with the cycles'
    // quartiles (the same for `cycle_tail_ms` and `req_tail_ms`).
    let (pct, _) = tail(&p.cycles_ms);
    let (q1, q3) = quartiles(&p.cycles_ms);
    w.begin_object_field("tail");
    w.field_u64("percentile", u64::from(pct));
    w.field_u64("n", p.cycles_ms.len() as u64);
    w.field_raw("q1", &q1.to_string());
    w.field_raw("q3", &q3.to_string());
    w.end_object();
    w.begin_array_field("setup_s");
    for s in setup_s {
        w.value_f64(*s, 6);
    }
    w.end_array();
    w.begin_array_field("draws");
    for d in draws {
        w.value_u64(*d);
    }
    w.end_array();
    w.begin_object_field("counts");
    for (prog, counts) in &p.counts.per_program {
        w.begin_object_field(&prog.to_string());
        for (k, v) in counts {
            w.field_u64(k, *v);
        }
        w.end_object();
    }
    w.end_object();
    w.field_u64("count_mismatches", p.counts.mismatches);
    w.begin_array_field("failures");
    for f in &p.first_failures {
        w.value_str(f);
    }
    w.end_array();
    for (field, list) in [("end_to_end", e2e), ("per_layer", layers)] {
        w.begin_object_field(field);
        for (name, unit, v) in list {
            w.begin_object_field(name);
            w.field_raw(
                "value",
                &if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                },
            );
            w.field_str("unit", unit);
            w.end_object();
        }
        w.end_object();
    }
    w.end_object();
    w.finish()
}
