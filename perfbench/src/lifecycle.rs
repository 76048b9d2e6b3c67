//! The stages of the lifelong loop, each wrapped in a span named after
//! the layer it calls, plus the output oracle and the per-program count
//! book the determinism check reads.

use std::collections::BTreeMap;
use std::path::Path;

use lpat_core::Module;
use lpat_vm::{FlushGuard, FlushOutcome, ProfileData, Store, TierStats, Vm, VmOptions};

use crate::trace::Tracer;

/// What a program printed and returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub exit: i64,
    pub output: String,
}

/// Counts observed for one program. They depend only on the program, so
/// every later observation must equal the first.
pub type Counts = BTreeMap<&'static str, u64>;

/// First-seen counts per program, plus how many later observations
/// disagreed with them. Observations may carry different keys (set-up
/// sees the compiler's counts, the loop the VM's); each key is checked on
/// its own.
#[derive(Clone, Default)]
pub struct CountBook {
    pub per_program: BTreeMap<usize, Counts>,
    pub mismatches: u64,
}

impl CountBook {
    pub fn observe(&mut self, program: usize, counts: Counts) {
        let seen = self.per_program.entry(program).or_default();
        for (k, v) in counts {
            match seen.get(k) {
                Some(first) if *first != v => self.mismatches += 1,
                Some(_) => {}
                None => {
                    seen.insert(k, v);
                }
            }
        }
    }

    /// `key` summed over the distinct programs seen.
    pub fn total(&self, key: &str) -> u64 {
        self.per_program.values().filter_map(|c| c.get(key)).sum()
    }
}

/// Source compiled the way `lpatc compile` does it, then read back.
pub struct Compiled {
    /// The module decoded from `bytes` and verified.
    pub module: Module,
    pub bytes: Vec<u8>,
    pub counts: Counts,
    /// Pipeline faults isolated (and rolled back) on the way.
    pub faults: u64,
}

/// Source to verified bytecode: front end, function pipeline, link,
/// link-time pipeline, bytecode write, then read and verify.
pub fn compile(tr: &mut Tracer, id: u64, name: &str, src: &str) -> Result<Compiled, String> {
    let (m, _) = tr.span("minic.compile", id, |_| lpat_minic::compile(name, src));
    let mut m = m.map_err(|e| format!("{name}: {e}"))?;
    let mut counts = Counts::new();
    counts.insert("minic.insts", m.total_insts() as u64);
    let (fp, _) = tr.span("transform.function_pipeline", id, |_| {
        lpat_transform::function_pipeline().run(&mut m)
    });
    counts.insert("transform.function_pipeline.insts", m.total_insts() as u64);
    let (linked, _) = tr.span("linker.link", id, |_| lpat_linker::link(vec![m], name));
    let mut m = linked.map_err(|e| format!("{name}: link: {e}"))?;
    let (lp, _) = tr.span("transform.link_pipeline", id, |_| {
        lpat_transform::link_time_pipeline().run(&mut m)
    });
    counts.insert("transform.link_pipeline.insts", m.total_insts() as u64);
    let (bytes, _) = tr.span("bytecode.write", id, |_| lpat_bytecode::write_module(&m));
    counts.insert("bytecode_bytes", bytes.len() as u64);
    let (read, _) = tr.span("bytecode.read", id, |_| {
        lpat_bytecode::read_module(name, &bytes)
    });
    let module = read.map_err(|e| format!("{name}: read back: {e}"))?;
    let (ok, _) = tr.span("core.verify", id, |_| module.verify());
    ok.map_err(|e| format!("{name}: verifier: {}", e[0]))?;
    Ok(Compiled {
        module,
        bytes,
        counts,
        faults: (fp.faults.len() + lp.faults.len()) as u64,
    })
}

/// The reference answer: the interpreter on the unoptimized module.
pub fn reference(tr: &mut Tracer, name: &str, src: &str) -> Result<Answer, String> {
    let (r, _) = tr.span("oracle.reference", 0, |_| {
        let m = lpat_minic::compile(name, src).map_err(|e| format!("{name}: {e}"))?;
        m.verify()
            .map_err(|e| format!("{name}: verifier: {}", e[0]))?;
        let mut vm = Vm::new(&m, VmOptions::default()).map_err(|e| e.to_string())?;
        let exit = vm
            .run_main()
            .map_err(|e| format!("{name}: reference run: {e}"))?;
        Ok(Answer {
            exit,
            output: std::mem::take(&mut vm.output),
        })
    });
    r
}

/// One tiered run with profiling on, as `lpatc run --tiered
/// --cache-dir` does it.
pub struct VmRun {
    pub answer: Answer,
    pub insts: u64,
    pub tier: TierStats,
    pub profile: ProfileData,
    /// Length of the run stage (warm start plus execution), in process
    /// CPU milliseconds.
    pub run_ms: f64,
}

/// `Vm::new` as `vm.init`, then (optionally) warm start and
/// `run_main_tiered` as span `stage`.
pub fn run_tiered(
    tr: &mut Tracer,
    id: u64,
    stage: &'static str,
    m: &Module,
    warm: Option<&ProfileData>,
) -> Result<VmRun, String> {
    let opts = VmOptions {
        profile: true,
        ..VmOptions::default()
    };
    let (vm, _) = tr.span("vm.init", id, |_| Vm::new(m, opts));
    let mut vm = vm.map_err(|e| format!("{}: vm init: {e}", m.name))?;
    let (exit, run_ms) = tr.span(stage, id, |_| {
        if let Some(p) = warm {
            vm.warm_start(p);
        }
        vm.run_main_tiered()
    });
    let exit = exit.map_err(|e| format!("{}: {e}", m.name))?;
    Ok(VmRun {
        answer: Answer {
            exit,
            output: std::mem::take(&mut vm.output),
        },
        insts: vm.insts_executed,
        tier: vm.tier_stats.clone(),
        profile: std::mem::take(&mut vm.profile),
        run_ms,
    })
}

/// The tier counters of one run, as determinism-checked counts.
pub fn tier_counts(counts: &mut Counts, run: &VmRun) {
    let t = &run.tier;
    let mut add = |k, v| *counts.entry(k).or_insert(0) += v;
    add("vm.guest_insts", run.insts);
    add("vm.tier.insts.interp", t.interp_insts);
    add("vm.tier.insts.jit", t.jit_insts);
    add("vm.tier.insts.native", t.native_insts);
    add("vm.tier.promoted", t.promoted);
    add("vm.tier.osr", t.osr);
    add("vm.tier.native_promoted", t.native_promoted);
    add("vm.tier.demoted", t.demoted + t.native_demoted);
}

pub fn open_store(tr: &mut Tracer, id: u64, dir: &Path) -> Result<Store, String> {
    let (s, _) = tr.span("vm.store.open", id, |_| Store::open(dir));
    s.map_err(|e| format!("store open: {e}"))
}

pub fn module_hash(tr: &mut Tracer, id: u64, m: &Module) -> u64 {
    tr.span("vm.store.hash", id, |_| lpat_vm::module_hash(m)).0
}

/// Flush one run's profile through `FlushGuard`, exactly as `lpatc run`
/// does. Returns whether the store took it.
pub fn record_run(
    tr: &mut Tracer,
    id: u64,
    store: &Store,
    hash: u64,
    profile: ProfileData,
) -> bool {
    tr.span("vm.store.record_run", id, |_| {
        let mut flush = FlushGuard::new(Some(store), hash);
        flush.set_delta(profile);
        !matches!(flush.flush(), FlushOutcome::Failed(_))
    })
    .0
}

pub fn load_profile(
    tr: &mut Tracer,
    id: u64,
    store: &Store,
    hash: u64,
) -> Result<ProfileData, String> {
    let (l, _) = tr.span("vm.store.load", id, |_| store.load_profile(hash));
    l.map_err(|e| format!("load profile: {e}"))?
        .value
        .map(|sp| sp.profile)
        .ok_or_else(|| format!("no stored profile for {hash:016x}"))
}

pub fn load_reopt(
    tr: &mut Tracer,
    id: u64,
    store: &Store,
    hash: u64,
    name: &str,
) -> Result<Module, String> {
    let (l, _) = tr.span("vm.store.load", id, |_| store.load_reopt(hash, name));
    l.map_err(|e| format!("load reopt: {e}"))?
        .value
        .ok_or_else(|| format!("no stored reoptimized module for {hash:016x}"))
}

/// `lpatc reopt`: reoptimize from the profile, then cache the result.
/// Returns the hot sites inlined and the faults isolated.
pub fn reoptimize_and_save(
    tr: &mut Tracer,
    id: u64,
    store: &Store,
    hash: u64,
    m: &mut Module,
    profile: &ProfileData,
) -> Result<(u64, u64), String> {
    let (report, _) = tr.span("vm.pgo.reoptimize", id, |_| {
        lpat_vm::reoptimize(m, profile, &lpat_vm::PgoOptions::default())
    });
    let (ok, _) = tr.span("core.verify", id, |_| m.verify());
    ok.map_err(|e| format!("{}: verifier after reopt: {}", m.name, e[0]))?;
    let (saved, _) = tr.span("vm.store.save_reopt", id, |_| store.save_reopt(hash, m));
    saved.map_err(|e| format!("save reopt: {e}"))?;
    Ok((report.inlined as u64, report.faults.len() as u64))
}
