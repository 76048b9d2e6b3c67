//! `exec`: execution only. Set-up compiles each suite program with its
//! `main` renamed and called [`REPEAT`] times by a new `main`, records a
//! profile, reoptimizes, and records the cached module's own first
//! profile — the state `lpatc run --tiered --cache-dir` reaches after
//! `lpatc reopt`. Each timed run is then a fresh `Vm` on the reoptimized
//! module, warm-started, profiling on, with no compilation or store I/O.
//! A cycle is one pass over every program in the seeded order: a pass
//! sums the suite's noise out of any single program's.

use std::path::Path;
use std::time::Instant;

use lpat_core::trace::JsonWriter;
use lpat_core::Module;
use lpat_vm::ProfileData;

use crate::lifecycle::{self as lc, Answer, CountBook, Counts};
use crate::rng::Deck;
use crate::trace::{cpu_ns, Tracer};
use crate::{Phase, Workload};

/// Calls of the original `main` per run: long enough for hot functions
/// to climb the tiers.
pub const REPEAT: u32 = 50;

/// `src` with `main` renamed and called [`REPEAT`] times by a new `main`.
pub fn wrap(src: &str) -> Option<String> {
    const MAIN: &str = "int main() {";
    (src.matches(MAIN).count() == 1).then(|| {
        format!(
            "{}\nint main() {{\n    int r = 0;\n    for (int i = 0; i < {REPEAT}; i = i + 1) {{\n        r = bench_main();\n    }}\n    return r;\n}}\n",
            src.replacen(MAIN, "int bench_main() {", 1)
        )
    })
}

struct Prog {
    name: &'static str,
    reference: Answer,
    /// The reoptimized module, as loaded from the store.
    module: Module,
    /// The profile the store holds for `module`.
    warm: ProfileData,
}

#[derive(Default)]
pub struct Exec {
    progs: Vec<Prog>,
    counts: CountBook,
    /// Compile times of every set-up so far.
    compile_ms: Vec<f64>,
    setup_failures: Vec<String>,
    faults: u64,
    next_id: u64,
}

impl Workload for Exec {
    fn setup(&mut self, tr: &mut Tracer, dir: &Path) -> Result<(), String> {
        let store = lc::open_store(tr, 0, &dir.join("store"))?;
        self.progs.clear();
        self.setup_failures.clear();
        self.faults = 0;
        for (i, w) in lpat_workloads::suite(0).into_iter().enumerate() {
            let src =
                wrap(&w.source).ok_or_else(|| format!("{}: no unique `int main() {{`", w.name))?;
            let t = cpu_ns();
            let c = lc::compile(tr, 0, w.name, &src)?;
            self.compile_ms.push((cpu_ns() - t) as f64 / 1e6);
            let reference = lc::reference(tr, w.name, &src)?;
            // First run: profile recorded against the compiled bytes.
            let hash = lc::module_hash(tr, 0, &c.module);
            let mut cold = lc::run_tiered(tr, 0, "vm.cold_run", &c.module, None)?;
            lc::record_run(tr, 0, &store, hash, std::mem::take(&mut cold.profile));
            // `lpatc reopt`.
            let profile = lc::load_profile(tr, 0, &store, hash)?;
            let mut m = c.module;
            let (inlined, pgo_faults) =
                lc::reoptimize_and_save(tr, 0, &store, hash, &mut m, &profile)?;
            // First run of the cached module: no profile exists for its
            // bytes yet, so it runs cold and records one.
            let module = lc::load_reopt(tr, 0, &store, hash, w.name)?;
            let reopt_hash = lc::module_hash(tr, 0, &module);
            let mut first = lc::run_tiered(tr, 0, "vm.cold_run", &module, None)?;
            lc::record_run(
                tr,
                0,
                &store,
                reopt_hash,
                std::mem::take(&mut first.profile),
            );
            let warm = lc::load_profile(tr, 0, &store, reopt_hash)?;
            for (what, r) in [("compiled", &cold), ("reoptimized", &first)] {
                if r.answer != reference {
                    self.setup_failures.push(format!(
                        "{}: {what} module answered differently from the reference",
                        w.name
                    ));
                }
            }
            let mut counts: Counts = c.counts;
            counts.insert("vm.pgo.inlined", inlined);
            self.counts.observe(i, counts);
            self.faults += c.faults + pgo_faults;
            self.progs.push(Prog {
                name: w.name,
                reference,
                module,
                warm,
            });
        }
        Ok(())
    }

    fn measure(&mut self, tr: &mut Tracer, seed: u64, secs: f64) -> Result<Phase, String> {
        let mut ph = Phase {
            compile_ms: self.compile_ms.clone(),
            counts: self.counts.clone(),
            faults: self.faults,
            ..Phase::default()
        };
        for f in &self.setup_failures {
            ph.attempted += 1;
            ph.fail(format!("set-up: {f}"));
        }
        let mut deck = Deck::new(seed, self.progs.len());
        let t0 = Instant::now();
        let c0 = cpu_ns();
        // Whole rounds only, so every program weighs the same in the
        // medians whatever the seed. A pass with a wrong answer in it is
        // not a cycle.
        let (mut pass_ms, mut pass_ok) = (0.0, true);
        while t0.elapsed().as_secs_f64() < secs || !deck.at_round_start() {
            let prog = deck.next_index();
            self.next_id += 1;
            let id = self.next_id;
            let p = &self.progs[prog];
            ph.attempted += 1;
            let (res, ms) = tr.span("exec.run", id, |tr| {
                lc::run_tiered(tr, id, "vm.warm_run", &p.module, Some(&p.warm))
            });
            pass_ms += ms;
            match res {
                Ok(r) if r.answer == p.reference => {
                    ph.per_program.push((prog, ms));
                    ph.runs.push((prog, r.run_ms));
                    ph.guest_insts += r.insts;
                    ph.guest_ms += r.run_ms;
                    ph.translate_ms.push(r.tier.translate_ns as f64 / 1e6);
                    ph.native_translate_ms
                        .push(r.tier.native_translate_ns as f64 / 1e6);
                    let mut counts = Counts::new();
                    lc::tier_counts(&mut counts, &r);
                    ph.counts.observe(prog, counts);
                }
                Ok(_) => {
                    pass_ok = false;
                    ph.fail(format!(
                        "run {id}: {} answered differently from the reference",
                        p.name
                    ));
                }
                Err(e) => {
                    pass_ok = false;
                    ph.fail(format!("run {id}: {e}"));
                }
            }
            if deck.at_round_start() {
                if pass_ok {
                    ph.cycles_ms.push(pass_ms);
                }
                (pass_ms, pass_ok) = (0.0, true);
            }
        }
        ph.elapsed_s = (cpu_ns() - c0) as f64 / 1e9;
        Ok(ph)
    }

    fn cycle_span(&self) -> &'static str {
        "exec.run"
    }

    fn programs(&self) -> Vec<&'static str> {
        self.progs.iter().map(|p| p.name).collect()
    }

    fn describe(&self, w: &mut JsonWriter) {
        w.field_u64("repeat", u64::from(REPEAT));
    }

    /// Each set-up interprets every wrapped program once: long enough to
    /// time steadily, too long to repeat five times.
    fn setups(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_program_wraps() {
        for w in lpat_workloads::suite(0) {
            let src = wrap(&w.source).unwrap_or_else(|| panic!("{}", w.name));
            assert_eq!(src.matches("int main() {").count(), 1);
            assert!(src.contains("r = bench_main();"));
        }
    }
}
