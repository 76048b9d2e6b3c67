//! Seeded input generators. Every workload draws its sequence of
//! programs (and, for `daemon`, of operations) from here, so the same
//! `--seed` gives the same inputs.

/// SplitMix64: tiny, fast, and good enough to drive a benchmark mix.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// Draws program indices `0..n` in shuffled rounds: every round is a
/// fresh seeded permutation, so any prefix of the sequence holds each
/// program within one of the same count. The seed varies the order, not
/// the balance — a run's mix of cheap and expensive programs does not
/// depend on luck.
#[derive(Clone, Debug)]
pub struct Deck {
    rng: SplitMix64,
    round: Vec<usize>,
    pos: usize,
}

impl Deck {
    pub fn new(seed: u64, n: usize) -> Deck {
        assert!(n > 0, "empty deck");
        Deck {
            rng: SplitMix64::new(seed),
            round: (0..n).collect(),
            pos: n,
        }
    }

    /// Whether the next draw starts a new round.
    pub fn at_round_start(&self) -> bool {
        self.pos == self.round.len()
    }

    pub fn next_index(&mut self) -> usize {
        if self.pos == self.round.len() {
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

/// What one `daemon` request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonOp {
    /// `run` with `OPT|TIERED` of a module's bytecode.
    Run,
    /// `compile` of a module's miniC source.
    Compile,
    /// `reopt` of a module's bytecode from the daemon's store.
    Reopt,
}

/// Share of `daemon` requests sent to the hot module.
pub const HOT_SHARE: f64 = 0.5;
/// Share of `daemon` requests that are `compile`.
pub const COMPILE_SHARE: f64 = 0.06;
/// Share of `daemon` requests that are `reopt`.
pub const REOPT_SHARE: f64 = 0.04;

/// The `daemon` request mix: an operation and a module index per draw.
/// Module `hot` gets [`HOT_SHARE`] of the requests; the rest spread
/// evenly over the other modules.
#[derive(Clone, Debug)]
pub struct DaemonMix {
    rng: SplitMix64,
    modules: usize,
    hot: usize,
}

impl DaemonMix {
    pub fn new(seed: u64, modules: usize, hot: usize) -> DaemonMix {
        assert!(modules > 1 && hot < modules);
        DaemonMix {
            rng: SplitMix64::new(seed),
            modules,
            hot,
        }
    }

    pub fn next_request(&mut self) -> (DaemonOp, usize) {
        // Fractions as integer thresholds out of 2^32.
        let frac = |r: u64, share: f64| r < (share * 4_294_967_296.0) as u64;
        let r = self.rng.next_u64() >> 32;
        let op = if frac(r, COMPILE_SHARE) {
            DaemonOp::Compile
        } else if frac(r, COMPILE_SHARE + REOPT_SHARE) {
            DaemonOp::Reopt
        } else {
            DaemonOp::Run
        };
        let module = if frac(self.rng.next_u64() >> 32, HOT_SHARE) {
            self.hot
        } else {
            // Uniform over the others: skip past the hot index.
            let k = self.rng.below(self.modules - 1);
            if k >= self.hot {
                k + 1
            } else {
                k
            }
        };
        (op, module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let take = |seed| {
            let mut d = Deck::new(seed, 15);
            (0..200).map(|_| d.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let mix = |seed| {
            let mut m = DaemonMix::new(seed, 15, 3);
            (0..500).map(|_| m.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(mix(11), mix(11));
        assert_ne!(mix(11), mix(12));
    }

    #[test]
    fn every_deck_round_is_a_permutation() {
        let mut d = Deck::new(42, 15);
        for _ in 0..20 {
            let mut round: Vec<usize> = (0..15).map(|_| d.next_index()).collect();
            round.sort_unstable();
            assert_eq!(round, (0..15).collect::<Vec<_>>());
        }
    }

    #[test]
    fn daemon_mix_shares_within_bounds() {
        for seed in 0..5 {
            let n = 20_000;
            let mut m = DaemonMix::new(seed, 15, 3);
            let draws: Vec<_> = (0..n).map(|_| m.next_request()).collect();
            let share = |f: &dyn Fn(&(DaemonOp, usize)) -> bool| {
                draws.iter().filter(|d| f(d)).count() as f64 / n as f64
            };
            let hot = share(&|d| d.1 == 3);
            assert!(
                (hot - HOT_SHARE).abs() < 0.02,
                "seed {seed}: hot share {hot}"
            );
            let compile = share(&|d| d.0 == DaemonOp::Compile);
            assert!(
                (compile - COMPILE_SHARE).abs() < 0.01,
                "compile share {compile}"
            );
            let reopt = share(&|d| d.0 == DaemonOp::Reopt);
            assert!((reopt - REOPT_SHARE).abs() < 0.01, "reopt share {reopt}");
            // The cold modules share the rest evenly, and all are drawn.
            for k in (0..15).filter(|&k| k != 3) {
                let s = share(&|d| d.1 == k);
                assert!((s - 0.5 / 14.0).abs() < 0.01, "module {k}: {s}");
            }
        }
    }
}
