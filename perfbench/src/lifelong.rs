//! `lifelong`: a single-threaded closed loop of whole lifelong cycles,
//! one per seeded draw from the 15 suite programs. Each cycle is the
//! `lpatc` path a user walks: compile, a cold profiled run flushed to a
//! fresh store, offline reoptimization from that profile, and a warm run
//! of the cached module, warm-started from the profile.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lpat_core::trace::JsonWriter;

use crate::lifecycle::{self as lc, Answer, Counts, VmRun};
use crate::rng::Deck;
use crate::trace::{cpu_ns, Tracer};
use crate::{Phase, Workload};

/// Suite scale: large enough that the compile stages take most of a
/// cycle, as whole programs do.
pub const SCALE: u32 = 120;

struct Input {
    name: &'static str,
    source: String,
    reference: Answer,
}

pub struct Lifelong {
    /// Each cycle's fresh store lives here and is removed after it.
    cycles_dir: PathBuf,
    inputs: Vec<Input>,
    next_id: u64,
}

impl Lifelong {
    pub fn new(cycles_dir: PathBuf) -> Lifelong {
        Lifelong {
            cycles_dir,
            inputs: Vec::new(),
            next_id: 0,
        }
    }
}

/// One finished cycle.
struct Cycle {
    compile_ms: f64,
    cold: VmRun,
    warm: VmRun,
    counts: Counts,
    faults: u64,
    flush_failures: u64,
}

fn cycle(tr: &mut Tracer, id: u64, input: &Input, dir: &Path) -> Result<Cycle, String> {
    let name = input.name;
    // `lpatc compile -O --link-pipeline`: source to verified bytecode.
    let t = cpu_ns();
    let c = lc::compile(tr, id, name, &input.source)?;
    let compile_ms = (cpu_ns() - t) as f64 / 1e6;
    // `lpatc run --tiered --cache-dir`, cold: profile flushed to a fresh store.
    let store = lc::open_store(tr, id, dir)?;
    let hash = lc::module_hash(tr, id, &c.module);
    let mut cold = lc::run_tiered(tr, id, "vm.cold_run", &c.module, None)?;
    let mut flush_failures = 0;
    flush_failures += u64::from(!lc::record_run(
        tr,
        id,
        &store,
        hash,
        std::mem::take(&mut cold.profile),
    ));
    // `lpatc reopt --cache-dir`.
    let profile = lc::load_profile(tr, id, &store, hash)?;
    let mut m = c.module;
    let (inlined, pgo_faults) = lc::reoptimize_and_save(tr, id, &store, hash, &mut m, &profile)?;
    // `lpatc run --tiered --cache-dir`, warm: the cached module,
    // warm-started from the stored profile.
    let reopt = lc::load_reopt(tr, id, &store, hash, name)?;
    let profile = lc::load_profile(tr, id, &store, hash)?;
    let mut warm = lc::run_tiered(tr, id, "vm.warm_run", &reopt, Some(&profile))?;
    let warm_hash = lc::module_hash(tr, id, &reopt);
    flush_failures += u64::from(!lc::record_run(
        tr,
        id,
        &store,
        warm_hash,
        std::mem::take(&mut warm.profile),
    ));

    let mut counts = c.counts;
    lc::tier_counts(&mut counts, &cold);
    lc::tier_counts(&mut counts, &warm);
    counts.insert("vm.pgo.inlined", inlined);
    Ok(Cycle {
        compile_ms,
        cold,
        warm,
        counts,
        faults: c.faults + pgo_faults,
        flush_failures,
    })
}

impl Workload for Lifelong {
    fn setup(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<(), String> {
        self.inputs = lpat_workloads::suite(SCALE)
            .into_iter()
            .map(|w| {
                Ok(Input {
                    reference: lc::reference(tr, w.name, &w.source)?,
                    name: w.name,
                    source: w.source,
                })
            })
            .collect::<Result<_, String>>()?;
        std::fs::create_dir_all(&self.cycles_dir).map_err(|e| e.to_string())
    }

    fn measure(&mut self, tr: &mut Tracer, seed: u64, secs: f64) -> Result<Phase, String> {
        let mut deck = Deck::new(seed, self.inputs.len());
        let mut ph = Phase::default();
        let t0 = Instant::now();
        let c0 = cpu_ns();
        // Whole rounds only, so every program weighs the same in the
        // medians whatever the seed.
        while t0.elapsed().as_secs_f64() < secs || !deck.at_round_start() {
            let prog = deck.next_index();
            self.next_id += 1;
            let id = self.next_id;
            let input = &self.inputs[prog];
            let dir = self.cycles_dir.join(format!("c{id}"));
            ph.attempted += 1;
            let (res, ms) = tr.span("lifelong.cycle", id, |tr| cycle(tr, id, input, &dir));
            let _ = std::fs::remove_dir_all(&dir);
            let c = match res {
                Ok(c) => c,
                Err(e) => {
                    ph.fail(format!("cycle {id}: {e}"));
                    continue;
                }
            };
            ph.faults += c.faults;
            ph.flush_failures += c.flush_failures;
            if c.cold.answer != input.reference || c.warm.answer != input.reference {
                ph.fail(format!(
                    "cycle {id}: {} answered differently from the reference",
                    input.name
                ));
                continue;
            }
            ph.cycles_ms.push(ms);
            ph.per_program.push((prog, ms));
            ph.compile_ms.push(c.compile_ms);
            ph.runs.push((prog, c.warm.run_ms));
            for r in [&c.cold, &c.warm] {
                ph.guest_insts += r.insts;
                ph.guest_ms += r.run_ms;
                ph.translate_ms.push(r.tier.translate_ns as f64 / 1e6);
                ph.native_translate_ms
                    .push(r.tier.native_translate_ns as f64 / 1e6);
            }
            ph.counts.observe(prog, c.counts);
        }
        ph.elapsed_s = (cpu_ns() - c0) as f64 / 1e9;
        Ok(ph)
    }

    fn cycle_span(&self) -> &'static str {
        "lifelong.cycle"
    }

    fn programs(&self) -> Vec<&'static str> {
        self.inputs.iter().map(|i| i.name).collect()
    }

    fn describe(&self, w: &mut JsonWriter) {
        w.field_u64("scale", u64::from(SCALE));
    }
}
