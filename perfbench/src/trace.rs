//! Benchmark-side spans. A traced run records one span per layer call
//! (name, wall start and end, parent, cycle or request id) in memory and
//! writes them out when the run ends; per-layer self times are computed
//! from them. Untraced runs use the same calls for their timings but keep
//! no spans.
//!
//! Spans are timed on the CPU clock of the whole process, not the wall
//! clock. The reference host's virtual CPUs are time-shared with other
//! guests: the share of CPU time the hypervisor gave away (steal) moved
//! between 7 % and 42 % within minutes, and wall times of the same work
//! moved with it: across runs, wall-clock spreads reached 0.2–1.0 where
//! CPU-time spreads stayed under 0.2. A
//! per-thread clock would not do: the pass manager runs function passes
//! on worker threads it starts for each pipeline run, and the daemon
//! serves requests on its own threads. The price is that time spent off
//! the CPU — waiting for an fsync or in a queue — does not count; wall
//! times are reported separately where it matters.

use std::collections::BTreeMap;
use std::time::Instant;

use lpat_core::trace::JsonWriter;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
#[cfg(test)]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(id: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed out-parameter with
    // the layout clock_gettime expects on 64-bit Linux.
    let r = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(r, 0, "clock_gettime({id}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of every thread of this process so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in nanoseconds.
#[cfg(test)]
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// One closed span. Wall times are nanoseconds since the run's epoch;
/// `took_ns` is the span's length in process CPU time.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub took_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Cycle, run or request id (0 for set-up).
    pub id: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Time `f` as span `name` under the innermost open span. Returns
    /// `f`'s result and its length in process CPU milliseconds, traced
    /// or not.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                took_ns: 0,
                parent: self.open.last().copied(),
                id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let c0 = cpu_ns();
        let r = f(self);
        let took = cpu_ns() - c0;
        if let Some(i) = slot {
            let end_ns = self.ns(Instant::now());
            let s = &mut self.spans[i];
            (s.end_ns, s.took_ns) = (end_ns, took);
            self.open.pop();
        }
        (r, took as f64 / 1e6)
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span: its length minus its direct children's lengths.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.took_ns;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.took_ns.saturating_sub(*c))
        .collect()
}

/// Self time per call in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        by.entry(s.name).or_default().push(own as f64 / 1e6);
    }
    by
}

/// For every span named `root`: the share of its CPU time that no child
/// span covers.
pub fn uncovered_shares(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns(spans))
        .filter(|(s, _)| s.name == root && s.took_ns > 0)
        .map(|(s, own)| own as f64 / s.took_ns as f64)
        .collect()
}

/// The trace file: every span, then per-name call counts and self-time
/// totals with their share of all self time.
pub fn render(spans: &[Span]) -> String {
    let own = self_ns(spans);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "lpat-perfbench-trace/v1");
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        let e = totals.entry(s.name).or_default();
        e.0 += 1;
        e.1 += o;
    }
    let all: u64 = own.iter().sum::<u64>().max(1);
    w.begin_object_field("self_time");
    for (name, (calls, ns)) in &totals {
        w.begin_object_field(name);
        w.field_u64("calls", *calls);
        w.field_f64("self_ms", *ns as f64 / 1e6, 3);
        w.field_f64("share", *ns as f64 / all as f64, 4);
        w.end_object();
    }
    w.end_object();
    w.begin_array_field("spans");
    for s in spans {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_u64("start_ns", s.start_ns);
        w.field_u64("end_ns", s.end_ns);
        w.field_u64("took_ns", s.took_ns);
        w.field_i64("parent", s.parent.map_or(-1, |p| p as i64));
        w.field_u64("id", s.id);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sp = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            took_ns: end_ns - start_ns,
            parent,
            id: 1,
        };
        let spans = vec![
            sp("cycle", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("a.inner", 15, 35, Some(1)),
            sp("b", 50, 95, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![25, 10, 20, 45]);
        let shares = uncovered_shares(&spans, "cycle");
        assert_eq!(shares, vec![0.25]);
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, ms) = t.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 3, |t| t.span("inner", 3, |_| ()));
        let s = t.spans();
        assert_eq!(
            (s[0].name, s[0].parent, s[1].parent),
            ("outer", None, Some(0))
        );
    }

    fn spin(ms: u128) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < ms {}
    }

    // Tests run side by side in one process, and their work shows on the
    // process clock too: only lower bounds on a span's time hold here.

    #[test]
    fn spans_count_work_on_every_thread() {
        let mut t = Tracer::new(true, Instant::now());
        let (_, busy) = t.span("spin", 1, |_| spin(20));
        assert!(busy >= 10.0, "spinning is: {busy} ms");
        // Work on another thread counts too, though the calling thread
        // only waits for it.
        let t0 = thread_cpu_ns();
        let (_, all) = t.span("join", 1, |_| {
            std::thread::spawn(|| spin(20)).join().unwrap()
        });
        let own = (thread_cpu_ns() - t0) as f64 / 1e6;
        assert!(
            own < 10.0 && all >= 10.0,
            "calling thread {own} ms, span {all} ms"
        );
    }

    /// The pass manager runs function passes on worker threads it starts
    /// per pipeline run, at any job count: a span around a pipeline must
    /// see their work, which the calling thread's clock does not.
    #[test]
    fn pipeline_spans_see_the_pass_manager_workers() {
        let w = lpat_workloads::suite(120)
            .into_iter()
            .max_by_key(|w| w.source.len())
            .unwrap();
        let mut m = lpat_minic::compile(w.name, &w.source).unwrap();
        let mut t = Tracer::new(false, Instant::now());
        let t0 = thread_cpu_ns();
        let (_, ms) = t.span("transform.function_pipeline", 1, |_| {
            lpat_transform::function_pipeline().run(&mut m)
        });
        let own = (thread_cpu_ns() - t0) as f64 / 1e6;
        assert!(
            ms > 0.0 && ms > 2.0 * own,
            "{}: span {ms} ms, calling thread {own} ms",
            w.name
        );
    }
}
