//! Unified tracing and metrics (observability spine).
//!
//! Every subsystem — pass manager, interpreter, machine code, heap, PGO,
//! and the lifelong store — records into this one module: RAII **spans**
//! (timed regions), **instant events** (point-in-time facts such as traps
//! or quarantines), and named **counters** (monotonic sums such as cache
//! hits or per-opcode execution counts). Recordings land in per-thread ring
//! buffers and are exported as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) plus a machine-readable metrics summary.
//!
//! # Cost model
//!
//! Tracing is off by default. Every record site ([`counter`], [`instant`],
//! [`instant_args`], span recording) is gated on a single relaxed atomic
//! load ([`enabled`]); when disabled nothing else runs and nothing
//! allocates. [`Span`] additionally measures wall time with
//! [`Instant`] because its callers (e.g. `--time-passes`) need the
//! duration whether or not tracing is on — the pass report is a *view*
//! over the same measurement the trace records, not a second stopwatch.
//!
//! # Determinism
//!
//! Two mechanisms keep the exported trace byte-identical regardless of
//! `--jobs`, mirroring the fault-injection design:
//!
//! 1. **Ordinals.** Every event carries a `u64` ordinal; export sorts by
//!    it. Serial code draws ordinals from a global counter; parallel
//!    stages [`reserve`] a contiguous block *before* spawning workers and
//!    index it by function number (exactly like `FaultPlan::reserve`), so
//!    the set of (ordinal, event) pairs is independent of interleaving.
//! 2. **Virtual clock.** Under [`ClockMode::Virtual`] (the injectable
//!    clock pattern from `lpat_vm::store`), exported timestamps, durations
//!    and thread ids are pure functions of the ordinal: `ts = ordinal *
//!    10`, `dur = 5`, `tid = 0`. Real measurements still happen (reports
//!    keep their wall-clock numbers); only the *export* is virtualized.
//!
//! Counters are order-independent sums and need no special handling.
//!
//! # Distributed traces
//!
//! A trace session can *absorb* event buffers recorded by other
//! processes (the `lpatd` workers): the remote side serializes its
//! drained session with [`encode_wire_trace`], ships the bytes over
//! whatever transport it already has, and the collecting side calls
//! [`absorb_foreign`]. Foreign events are re-based onto this session's
//! ordinal space (via [`reserve`]) and exported as their own Chrome
//! `pid` lane; under the virtual clock all foreign lanes collapse to
//! one stable virtual pid so the merged export stays byte-deterministic
//! no matter how many worker processes served the requests.
//!
//! # Always-on telemetry and the flight recorder
//!
//! [`Histogram`] is a zero-dependency log-linear (HDR-style) quantile
//! sketch for always-on latency/size telemetry — see its docs for the
//! bucket scheme and error bound. [`FlightRecorder`] keeps a bounded
//! ring of the most recent trace events spilled incrementally to a
//! checksummed file, so a `SIGKILL`ed process leaves a salvageable
//! post-mortem record behind ([`read_flight`]).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::hash::crc32;

/// Maximum buffered events per thread; overflow increments a drop counter
/// instead of reallocating without bound.
pub const RING_CAPACITY: usize = 1 << 16;

/// Clock used when *exporting* timestamps (recording always measures real
/// time; see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Wall-clock microseconds since [`enable`].
    Real,
    /// Timestamps derived purely from event ordinals — byte-deterministic
    /// across runs and `--jobs` values.
    Virtual,
}

/// What kind of trace event a [`TraceEvent`] is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timed region (Chrome phase `"X"`).
    Span {
        /// Measured wall-clock duration, in microseconds.
        dur_us: u64,
    },
    /// A point-in-time event (Chrome phase `"i"`).
    Instant,
}

/// One recorded event, as drained by [`drain`].
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Deterministic sort key; see the module docs.
    pub ordinal: u64,
    /// Subsystem category (`"pass"`, `"vm"`, `"native"`, `"heap"`, `"pgo"`,
    /// `"store"`, ...).
    pub cat: &'static str,
    /// Event name (pass name, opcode, file stem, ...).
    pub name: String,
    /// Span or instant.
    pub kind: EventKind,
    /// Wall-clock start, microseconds since [`enable`].
    pub ts_us: u64,
    /// Recording thread's lane (export `tid` under the real clock).
    pub lane: u32,
    /// Structured key/value payload.
    pub args: Vec<(&'static str, String)>,
}

struct LocalBuf {
    lane: u32,
    events: Vec<TraceEvent>,
    counters: HashMap<&'static str, u64>,
    dropped: u64,
}

impl LocalBuf {
    fn new(lane: u32) -> LocalBuf {
        LocalBuf {
            lane,
            events: Vec::new(),
            counters: HashMap::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        flight_observe(&ev);
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

struct GlobalTrace {
    enabled: AtomicBool,
    virtual_clock: AtomicBool,
    /// Bumped by [`enable`] so thread-local buffers from a previous session
    /// re-register instead of writing into drained storage.
    epoch: AtomicU64,
    ordinal: AtomicU64,
    next_lane: AtomicU32,
    start: Mutex<Option<Instant>>,
    buffers: Mutex<Vec<Arc<Mutex<LocalBuf>>>>,
    foreign: Mutex<Vec<ForeignLane>>,
}

fn global() -> &'static GlobalTrace {
    static G: OnceLock<GlobalTrace> = OnceLock::new();
    G.get_or_init(|| GlobalTrace {
        enabled: AtomicBool::new(false),
        virtual_clock: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        ordinal: AtomicU64::new(0),
        next_lane: AtomicU32::new(0),
        start: Mutex::new(None),
        buffers: Mutex::new(Vec::new()),
        foreign: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static TLS: RefCell<Option<(u64, Arc<Mutex<LocalBuf>>)>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> R {
    let g = global();
    let epoch = g.epoch.load(Ordering::Relaxed);
    TLS.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let lane = g.next_lane.fetch_add(1, Ordering::Relaxed);
            let buf = Arc::new(Mutex::new(LocalBuf::new(lane)));
            g.buffers.lock().unwrap().push(Arc::clone(&buf));
            *slot = Some((epoch, buf));
        }
        let buf = Arc::clone(&slot.as_ref().unwrap().1);
        drop(slot);
        let r = f(&mut buf.lock().unwrap());
        r
    })
}

/// Start a tracing session, discarding any previous one.
pub fn enable(clock: ClockMode) {
    let g = global();
    g.enabled.store(false, Ordering::SeqCst);
    g.buffers.lock().unwrap().clear();
    g.foreign.lock().unwrap().clear();
    g.epoch.fetch_add(1, Ordering::SeqCst);
    g.ordinal.store(0, Ordering::SeqCst);
    g.next_lane.store(0, Ordering::SeqCst);
    *g.start.lock().unwrap() = Some(Instant::now());
    g.virtual_clock
        .store(clock == ClockMode::Virtual, Ordering::SeqCst);
    g.enabled.store(true, Ordering::SeqCst);
}

/// Stop recording. Buffered events stay drainable.
pub fn disable() {
    global().enabled.store(false, Ordering::SeqCst);
}

/// Whether tracing is on — the one relaxed atomic check every record site
/// is gated on.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// The clock mode of the current (or last) session.
pub fn clock_mode() -> ClockMode {
    if global().virtual_clock.load(Ordering::Relaxed) {
        ClockMode::Virtual
    } else {
        ClockMode::Real
    }
}

/// Microseconds since [`enable`] (0 when tracing is off).
pub fn now_us() -> u64 {
    if !enabled() {
        return 0;
    }
    match *global().start.lock().unwrap() {
        Some(t0) => t0.elapsed().as_micros() as u64,
        None => 0,
    }
}

fn next_ordinal() -> u64 {
    global().ordinal.fetch_add(1, Ordering::Relaxed)
}

/// Reserve a contiguous block of `n` ordinals and return its base.
///
/// Call this *serially* before fanning work out to parallel workers; each
/// worker then records with `base + deterministic_index` via
/// [`record_span_at`], so the exported trace is independent of `--jobs`
/// (the same protocol `FaultPlan::reserve` uses for fault sites).
pub fn reserve(n: u64) -> u64 {
    global().ordinal.fetch_add(n, Ordering::Relaxed)
}

/// A timed region. Created by [`span`]; records itself on drop.
///
/// The measured [`Duration`] is available through [`Span::stop`] /
/// [`Span::finish`] so callers (e.g. `--time-passes`) report *exactly*
/// the number the trace records — one stopwatch, two views.
pub struct Span {
    recording: bool,
    cat: &'static str,
    name: Cow<'static, str>,
    ordinal: u64,
    ts_us: u64,
    t0: Instant,
    dur: Option<Duration>,
    args: Vec<(&'static str, String)>,
}

/// Open a [`Span`] in category `cat`. Draws a serial ordinal — parallel
/// workers must use [`record_span_at`] with reserved ordinals instead.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    let recording = enabled();
    Span {
        recording,
        cat,
        name: name.into(),
        ordinal: if recording { next_ordinal() } else { 0 },
        ts_us: if recording { now_us() } else { 0 },
        t0: Instant::now(),
        dur: None,
        args: Vec::new(),
    }
}

impl Span {
    /// Attach a structured argument (no-op when tracing is off).
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        if self.recording {
            self.args.push((key, value.into()));
        }
    }

    /// Freeze and return the duration without recording yet (idempotent).
    /// Lets callers bank the measurement, then attach outcome args before
    /// the span records on drop.
    pub fn stop(&mut self) -> Duration {
        if self.dur.is_none() {
            self.dur = Some(self.t0.elapsed());
        }
        self.dur.unwrap()
    }

    /// Record the span and return its measured duration.
    pub fn finish(mut self) -> Duration {
        self.stop()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.dur.unwrap_or_else(|| self.t0.elapsed());
        if self.recording {
            let ev = TraceEvent {
                ordinal: self.ordinal,
                cat: self.cat,
                name: std::mem::take(&mut self.name).into_owned(),
                kind: EventKind::Span {
                    dur_us: dur.as_micros() as u64,
                },
                ts_us: self.ts_us,
                lane: 0, // filled from the local buffer below
                args: std::mem::take(&mut self.args),
            };
            with_local(|b| {
                let mut ev = ev;
                ev.lane = b.lane;
                b.push(ev);
            });
        }
    }
}

/// Record a completed span with a *reserved* ordinal (parallel workers).
///
/// `ts_us` should come from [`now_us`] at region start; `dur` is the
/// measured duration. Only call when [`enabled`] — reserved ordinals only
/// exist in that case.
pub fn record_span_at(
    cat: &'static str,
    name: String,
    ordinal: u64,
    ts_us: u64,
    dur: Duration,
    args: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    with_local(|b| {
        let lane = b.lane;
        b.push(TraceEvent {
            ordinal,
            cat,
            name,
            kind: EventKind::Span {
                dur_us: dur.as_micros() as u64,
            },
            ts_us,
            lane,
            args,
        });
    });
}

/// Record a point-in-time event.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    instant_args(cat, name, Vec::new());
}

/// Record a point-in-time event with structured arguments.
pub fn instant_args(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    let ordinal = next_ordinal();
    let ts_us = now_us();
    let name = name.into().into_owned();
    with_local(|b| {
        let lane = b.lane;
        b.push(TraceEvent {
            ordinal,
            cat,
            name,
            kind: EventKind::Instant,
            ts_us,
            lane,
            args,
        });
    });
}

/// Add `delta` to the named counter. Sums are folded across threads at
/// [`drain`] time; addition commutes, so counters never perturb
/// determinism.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Like [`counter`], but records the key even when `delta` is zero.
/// For counter families whose consumers rely on a stable key set
/// (e.g. `vm.spec.*`): a zero is a statement, not an omission.
pub fn counter_keyed(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Events absorbed from another process ([`absorb_foreign`]), exported
/// as their own Chrome `pid` lane.
#[derive(Clone, Debug)]
pub struct ForeignLane {
    /// Recording process id (collapsed to one virtual pid on export
    /// under [`ClockMode::Virtual`]).
    pub pid: u32,
    /// The absorbed events; ordinals already re-based onto the local
    /// session's ordinal space.
    pub events: Vec<TraceEvent>,
    /// Events the remote ring dropped before shipping.
    pub dropped: u64,
}

/// Everything recorded in the current session, drained and merged.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// All events, sorted by ordinal (deterministic order).
    pub events: Vec<TraceEvent>,
    /// Folded counter sums, keyed by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Events discarded due to per-thread ring overflow.
    pub dropped: u64,
    /// Clock mode the session was enabled with.
    pub clock: ClockMode,
    /// Per-process lanes absorbed from workers via [`absorb_foreign`].
    pub foreign: Vec<ForeignLane>,
}

/// Drain all per-thread buffers into one deterministic [`TraceData`].
/// Recording may continue afterwards (buffers stay registered, emptied).
pub fn drain() -> TraceData {
    let g = global();
    let mut events = Vec::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dropped = 0;
    for buf in g.buffers.lock().unwrap().iter() {
        let mut b = buf.lock().unwrap();
        events.append(&mut b.events);
        for (k, v) in b.counters.drain() {
            *counters.entry(k).or_insert(0) += v;
        }
        dropped += b.dropped;
        b.dropped = 0;
    }
    events.sort_by_key(|e| e.ordinal);
    let foreign = std::mem::take(&mut *g.foreign.lock().unwrap());
    TraceData {
        events,
        counters,
        dropped,
        clock: clock_mode(),
        foreign,
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl TraceData {
    /// Exported (ts, dur, tid) for an event — virtualized under
    /// [`ClockMode::Virtual`] so the JSON is byte-identical across runs
    /// and `--jobs` values.
    fn view(&self, e: &TraceEvent) -> (u64, u64, u32) {
        let dur = match e.kind {
            EventKind::Span { dur_us } => dur_us,
            EventKind::Instant => 0,
        };
        match self.clock {
            ClockMode::Real => (e.ts_us, dur, e.lane),
            ClockMode::Virtual => (
                e.ordinal * 10,
                match e.kind {
                    EventKind::Span { .. } => 5,
                    EventKind::Instant => 0,
                },
                0,
            ),
        }
    }

    /// The Chrome `pid` a local event exports with: the stable virtual
    /// pid 1 under [`ClockMode::Virtual`], the real process id otherwise.
    fn local_pid(&self) -> u64 {
        match self.clock {
            ClockMode::Virtual => 1,
            ClockMode::Real => u64::from(std::process::id()),
        }
    }

    /// The Chrome `pid` a foreign lane exports with. Under the virtual
    /// clock every worker collapses to pid 2 (which worker served a
    /// request is scheduling noise; keeping real pids would break byte
    /// determinism), under the real clock each keeps its process id.
    fn foreign_pid(&self, lane: &ForeignLane) -> u64 {
        match self.clock {
            ClockMode::Virtual => 2,
            ClockMode::Real => u64::from(lane.pid),
        }
    }

    /// Serialize as Chrome trace-event JSON (`{"traceEvents": [...]}`),
    /// loadable in Perfetto and `chrome://tracing`. Span events use phase
    /// `"X"`, instants `"i"`, counters `"C"`. Local events export under
    /// [`Self::local_pid`]; absorbed worker lanes under their own pid
    /// (phase `"M"` `process_name` metadata labels the lanes), the whole
    /// merged stream sorted by ordinal.
    pub fn to_chrome_json(&self) -> String {
        let n = self.events.len() + self.foreign.iter().map(|l| l.events.len()).sum::<usize>();
        let mut out = String::with_capacity(256 + n * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // Merge local + foreign into one ordinal-sorted stream.
        // Absorbed lanes carry re-based (unique) ordinals, so the sort
        // is total and the merged bytes stay deterministic.
        let mut merged: Vec<(u64, u32, &TraceEvent)> = Vec::with_capacity(n);
        let local_pid = self.local_pid();
        for e in &self.events {
            merged.push((local_pid, e.lane, e));
        }
        for lane in &self.foreign {
            let pid = self.foreign_pid(lane);
            for e in &lane.events {
                let tid = match self.clock {
                    ClockMode::Virtual => 0,
                    ClockMode::Real => e.lane,
                };
                merged.push((pid, tid, e));
            }
        }
        merged.sort_by_key(|(_, _, e)| e.ordinal);
        if !self.foreign.is_empty() {
            // Label the process lanes so Perfetto shows "daemon" and
            // "worker" instead of bare numbers.
            let mut pids: Vec<(u64, &str)> = vec![(local_pid, "daemon")];
            for lane in &self.foreign {
                let pid = self.foreign_pid(lane);
                if !pids.iter().any(|&(p, _)| p == pid) {
                    pids.push((pid, "worker"));
                }
            }
            pids.sort_unstable();
            for (pid, label) in pids {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
                );
            }
        }
        let mut end_ts = 0u64;
        for (pid, tid, e) in &merged {
            let (ts, dur, local_tid) = self.view(e);
            let tid = if *pid == local_pid { local_tid } else { *tid };
            end_ts = end_ts.max(ts + dur);
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":\"");
            escape_json(&e.name, &mut out);
            out.push_str("\",\"cat\":\"");
            escape_json(e.cat, &mut out);
            match e.kind {
                EventKind::Span { .. } => {
                    let _ = write!(out, "\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur}");
                }
                EventKind::Instant => {
                    let _ = write!(out, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts}");
                }
            }
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, &mut out);
                    out.push_str("\":\"");
                    escape_json(v, &mut out);
                    out.push('"');
                }
                out.push('}');
            }
            out.push('}');
        }
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":\"");
            escape_json(name, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"C\",\"ts\":{end_ts},\"pid\":{local_pid},\"tid\":0,\
                 \"args\":{{\"value\":{value}}}}}"
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per-category span aggregates: `(count, total duration in µs)`,
    /// absorbed worker lanes included. Virtualized durations under the
    /// virtual clock, so the metrics file is deterministic whenever the
    /// trace is.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let locals = self.events.iter();
        let foreigns = self.foreign.iter().flat_map(|l| l.events.iter());
        for e in locals.chain(foreigns) {
            if let EventKind::Span { .. } = e.kind {
                let (_, dur, _) = self.view(e);
                let t = totals.entry(e.cat).or_insert((0, 0));
                t.0 += 1;
                t.1 += dur;
            }
        }
        totals
    }

    /// Serialize the metrics summary as JSON: counters, per-category span
    /// aggregates, event/drop totals.
    pub fn to_metrics_json(&self) -> String {
        let foreign_events: usize = self.foreign.iter().map(|l| l.events.len()).sum();
        let foreign_dropped: u64 = self.foreign.iter().map(|l| l.dropped).sum();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str(
            "clock",
            match self.clock {
                ClockMode::Real => "real",
                ClockMode::Virtual => "virtual",
            },
        );
        w.field_u64("events", self.events.len() as u64);
        w.field_u64("foreign_events", foreign_events as u64);
        w.field_u64("dropped", self.dropped + foreign_dropped);
        w.begin_object_field("counters");
        for (k, v) in &self.counters {
            w.field_u64(k, *v);
        }
        w.end_object();
        w.begin_object_field("spans");
        for (cat, (count, total_us)) in &self.span_totals() {
            w.begin_object_field(cat);
            w.field_u64("count", *count);
            w.field_u64("total_us", *total_us);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Render the human `--stats` table.
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== trace stats ===");
        let totals = self.span_totals();
        if !totals.is_empty() {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12}",
                "span category", "count", "total µs"
            );
            for (cat, (count, total_us)) in &totals {
                let _ = writeln!(out, "{cat:<20} {count:>8} {total_us:>12}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<32} {:>14}", "counter", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<32} {v:>14}");
            }
        }
        let foreign_events: usize = self.foreign.iter().map(|l| l.events.len()).sum();
        if foreign_events > 0 {
            let _ = writeln!(
                out,
                "{} event(s) (+{} from {} worker lane(s)), {} dropped",
                self.events.len(),
                foreign_events,
                self.foreign.len(),
                self.dropped + self.foreign.iter().map(|l| l.dropped).sum::<u64>()
            );
        } else {
            let _ = writeln!(
                out,
                "{} event(s), {} dropped",
                self.events.len(),
                self.dropped
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parsing (zero-dependency), used by the trace-schema
// validator below, by `lpatc remote top` to read `lpat-serve-stats/v2`
// documents, and by tests.
// ---------------------------------------------------------------------------

/// A parsed JSON value — validation-grade (numbers are `f64`, object
/// field order is preserved but not deduplicated).
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false` (the value itself is not retained).
    Bool,
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object (`None` for other shapes / missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field `key` of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// String field `key` of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The object's fields, in document order (empty for other shapes).
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields.as_slice(),
            _ => &[],
        }
    }
}

/// Parse a complete JSON document (rejects trailing data).
///
/// # Errors
///
/// A human-readable message with the byte offset of the first error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.s.len() {
                                return Err(self.err("bad \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.s[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Validate `json` against the Chrome trace-event shape: a root object
/// with a `traceEvents` array whose elements carry `name`/`ph`/`ts`/
/// `pid`/`tid` (and `dur` for phase `"X"`). Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let root = parse_json(json)?;
    let events = match root.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("traceEvents[{i}]: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            return fail("not an object");
        }
        match ev.get("name") {
            Some(Json::Str(_)) => {}
            _ => return fail("missing string 'name'"),
        }
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return fail("missing string 'ph'"),
        };
        for key in ["ts", "pid", "tid"] {
            match ev.get(key) {
                Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                _ => return fail(&format!("missing non-negative numeric '{key}'")),
            }
        }
        match ph {
            "X" => match ev.get("dur") {
                Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                _ => return fail("phase 'X' missing numeric 'dur'"),
            },
            "i" | "C" | "M" => {}
            other => return fail(&format!("unexpected phase {other:?}")),
        }
        if ph == "C" {
            match ev.get("args") {
                Some(Json::Obj(fields))
                    if fields.iter().any(|(_, v)| matches!(v, Json::Num(_))) => {}
                _ => return fail("phase 'C' needs an args object with a numeric value"),
            }
        }
    }
    Ok(events.len())
}

// ---------------------------------------------------------------------------
// JSON writer: the one serializer behind every stats/metrics/bench JSON
// document in the workspace (daemon stats, `--metrics-out`, servebench).
// ---------------------------------------------------------------------------

/// A minimal zero-dependency JSON writer with correct escaping and comma
/// placement. Objects are written with `field_*` methods, arrays with
/// `value_*` methods; nesting via `begin_*`/`end_*`. The caller is
/// responsible for balanced begin/end calls — this is a serializer for
/// code-shaped documents, not a general-purpose emitter.
pub struct JsonWriter {
    out: String,
    comma: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> JsonWriter {
        JsonWriter::new()
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            comma: vec![false],
        }
    }

    fn sep(&mut self) {
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.out.push(',');
            }
            *c = true;
        }
    }

    fn key(&mut self, k: &str) {
        self.sep();
        self.out.push('"');
        escape_json(k, &mut self.out);
        self.out.push_str("\":");
    }

    /// Open an object as a bare value (document root or array element).
    pub fn begin_object(&mut self) {
        self.sep();
        self.out.push('{');
        self.comma.push(false);
    }

    /// Open an object under key `k` of the enclosing object.
    pub fn begin_object_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('{');
        self.comma.push(false);
    }

    /// Open an array under key `k` of the enclosing object.
    pub fn begin_array_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('[');
        self.comma.push(false);
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.comma.pop();
        self.out.push('}');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.comma.pop();
        self.out.push(']');
    }

    /// String field of the enclosing object.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.out.push('"');
        escape_json(v, &mut self.out);
        self.out.push('"');
    }

    /// Unsigned integer field of the enclosing object.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Signed integer field of the enclosing object.
    pub fn field_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Boolean field of the enclosing object.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Float field of the enclosing object, with fixed `decimals`.
    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        let _ = write!(self.out, "{v:.decimals$}");
    }

    /// Pre-rendered JSON under key `k` — for embedding a document that
    /// was serialized elsewhere (e.g. scraped server stats). The caller
    /// guarantees `raw` is valid JSON.
    pub fn field_raw(&mut self, k: &str, raw: &str) {
        self.key(k);
        self.out.push_str(raw);
    }

    /// Unsigned integer element of the enclosing array.
    pub fn value_u64(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// String element of the enclosing array.
    pub fn value_str(&mut self, v: &str) {
        self.sep();
        self.out.push('"');
        escape_json(v, &mut self.out);
        self.out.push('"');
    }

    /// Float element of the enclosing array, with fixed `decimals`.
    pub fn value_f64(&mut self, v: f64, decimals: usize) {
        self.sep();
        let _ = write!(self.out, "{v:.decimals$}");
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Log-linear histograms: always-on quantile telemetry.
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two group: 2^4 = 16, which bounds the
/// relative bucket width — and therefore the quantile overestimate — at
/// 1/16 = 6.25%.
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Group 0 holds the exact values `0..16`; one 16-bucket group per
/// most-significant-bit position 4..=63 covers the rest of `u64`.
const HIST_GROUPS: usize = 64 - HIST_SUB_BITS as usize + 1;
const HIST_BUCKETS: usize = HIST_SUB as usize * HIST_GROUPS;

fn hist_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - HIST_SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB - 1)) as usize;
    group * HIST_SUB as usize + sub
}

/// Inclusive upper edge of bucket `index` (what quantile queries report).
fn hist_upper(index: usize) -> u64 {
    let sub = (index as u64) & (HIST_SUB - 1);
    let group = (index as u64) >> HIST_SUB_BITS;
    if group == 0 {
        return sub;
    }
    let hi = (u128::from(HIST_SUB + sub + 1) << (group - 1)) - 1;
    u64::try_from(hi).unwrap_or(u64::MAX)
}

/// A zero-dependency log-linear (HDR-style) histogram over `u64` values.
///
/// # Bucket scheme
///
/// Values `0..16` get exact unit buckets. Every larger value lands in
/// one of 16 equal-width linear sub-buckets of its power-of-two range
/// `[2^m, 2^(m+1))`, so bucket width is `2^(m-4)` — at most 1/16 of the
/// bucket's lower edge. Fixed size: 976 buckets × 8 bytes ≈ 7.6 KiB.
///
/// # Error bound
///
/// [`Histogram::quantile`] reports the inclusive upper edge of the
/// bucket holding the target rank (clamped to the observed maximum), so
/// it never under-reports, and over-reports by less than one bucket
/// width: the estimate `r` for a true rank value `t` satisfies
/// `t <= r <= t + t/16 + 1` (exact below 16).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[hist_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Fold `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), within the documented bucket
    /// error; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return hist_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Write the standard summary fields (`count`, `sum`, `max`, `p50`,
    /// `p90`, `p99`) into the currently open [`JsonWriter`] object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count);
        w.field_u64("sum", u64::try_from(self.sum).unwrap_or(u64::MAX));
        w.field_u64("max", self.max);
        w.field_u64("p50", self.quantile(0.50));
        w.field_u64("p90", self.quantile(0.90));
        w.field_u64("p99", self.quantile(0.99));
    }
}

/// A bounded family of histograms keyed by string (per-op, per-tenant).
/// Once `max_keys` distinct keys exist, further keys fold into `"other"`
/// so a tenant-name flood cannot grow memory without bound.
#[derive(Clone, Debug)]
pub struct HistogramSet {
    map: BTreeMap<String, Histogram>,
    max_keys: usize,
}

impl HistogramSet {
    /// An empty set admitting at most `max_keys` distinct keys.
    pub fn new(max_keys: usize) -> HistogramSet {
        HistogramSet {
            map: BTreeMap::new(),
            max_keys: max_keys.max(1),
        }
    }

    /// Record `v` under `key` (or under `"other"` once full).
    pub fn record(&mut self, key: &str, v: u64) {
        if let Some(h) = self.map.get_mut(key) {
            h.record(v);
            return;
        }
        let key = if self.map.len() >= self.max_keys {
            "other"
        } else {
            key
        };
        self.map.entry(key.to_string()).or_default().record(v);
    }

    /// The keyed histograms, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.map.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Write one summary object per key into the currently open
    /// [`JsonWriter`] object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        for (k, h) in self.iter() {
            w.begin_object_field(k);
            h.write_fields(w);
            w.end_object();
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-process trace shipping: binary event encoding, wire buffers, and
// absorption into the collecting session as foreign pid lanes.
// ---------------------------------------------------------------------------

/// Intern a string, returning a `&'static str`. Backs decoded event
/// categories, arg keys, and counter names, which [`TraceEvent`] holds
/// as `&'static str`. The leak is bounded by the vocabulary of names the
/// workspace actually records — a fixed set, not per-event data.
fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let m = INTERNED.get_or_init(|| Mutex::new(HashMap::new()));
    let mut m = m.lock().unwrap();
    if let Some(&v) = m.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    m.insert(s.to_owned(), leaked);
    leaked
}

struct ByteCursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated {what}"))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str16(&mut self, what: &str) -> Result<String, String> {
        let n = self.u16(what)? as usize;
        Ok(String::from_utf8_lossy(self.take(n, what)?).into_owned())
    }
}

fn push_str16(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let n = b.len().min(u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&b[..n]);
}

fn encode_event(e: &TraceEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&e.ordinal.to_le_bytes());
    let (kind, dur_us) = match e.kind {
        EventKind::Span { dur_us } => (0u8, dur_us),
        EventKind::Instant => (1u8, 0),
    };
    out.push(kind);
    out.extend_from_slice(&dur_us.to_le_bytes());
    out.extend_from_slice(&e.ts_us.to_le_bytes());
    out.extend_from_slice(&e.lane.to_le_bytes());
    push_str16(out, e.cat);
    push_str16(out, &e.name);
    let nargs = e.args.len().min(u16::MAX as usize);
    out.extend_from_slice(&(nargs as u16).to_le_bytes());
    for (k, v) in e.args.iter().take(nargs) {
        push_str16(out, k);
        push_str16(out, v);
    }
}

fn decode_event_at(c: &mut ByteCursor) -> Result<TraceEvent, String> {
    let ordinal = c.u64("event ordinal")?;
    let kind = c.u8("event kind")?;
    let dur_us = c.u64("event dur")?;
    let ts_us = c.u64("event ts")?;
    let lane = c.u32("event lane")?;
    let cat = intern(&c.str16("event cat")?);
    let name = c.str16("event name")?;
    let nargs = c.u16("event nargs")?;
    let mut args = Vec::with_capacity(usize::from(nargs).min(64));
    for _ in 0..nargs {
        let k = intern(&c.str16("arg key")?);
        let v = c.str16("arg value")?;
        args.push((k, v));
    }
    let kind = match kind {
        0 => EventKind::Span { dur_us },
        1 => EventKind::Instant,
        k => return Err(format!("bad event kind {k}")),
    };
    Ok(TraceEvent {
        ordinal,
        cat,
        name,
        kind,
        ts_us,
        lane,
        args,
    })
}

/// Magic prefix of a serialized trace buffer ([`encode_wire_trace`]).
pub const WIRE_TRACE_MAGIC: [u8; 4] = *b"LPTB";
const WIRE_TRACE_VERSION: u16 = 1;

/// A decoded wire trace buffer ([`decode_wire_trace`]): one process's
/// events plus its counter sums.
pub struct WireTrace {
    /// The remote events as a lane (ordinals still in the remote
    /// session's space until [`absorb_foreign`] re-bases them).
    pub lane: ForeignLane,
    /// Counter sums the remote session folded.
    pub counters: Vec<(&'static str, u64)>,
}

/// Serialize a drained session for shipping to a collecting process.
/// Layout: `"LPTB"` magic, `u16` version, `u32` pid, `u64` dropped,
/// `u32` event count + events, `u16` counter count + `(name, u64)`
/// pairs; all integers little-endian, strings as `u16` length + UTF-8.
/// `data.foreign` lanes are not nested (workers have none).
pub fn encode_wire_trace(data: &TraceData, pid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.events.len() * 64);
    out.extend_from_slice(&WIRE_TRACE_MAGIC);
    out.extend_from_slice(&WIRE_TRACE_VERSION.to_le_bytes());
    out.extend_from_slice(&pid.to_le_bytes());
    out.extend_from_slice(&data.dropped.to_le_bytes());
    let n_events = data.events.len().min(u32::MAX as usize);
    out.extend_from_slice(&(n_events as u32).to_le_bytes());
    for e in data.events.iter().take(n_events) {
        encode_event(e, &mut out);
    }
    let n_counters = data.counters.len().min(u16::MAX as usize);
    out.extend_from_slice(&(n_counters as u16).to_le_bytes());
    for (k, v) in data.counters.iter().take(n_counters) {
        push_str16(&mut out, k);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a buffer produced by [`encode_wire_trace`]. Total: every
/// malformed input yields `Err`, never a panic.
///
/// # Errors
///
/// A description of the first framing/bounds violation.
pub fn decode_wire_trace(bytes: &[u8]) -> Result<WireTrace, String> {
    let mut c = ByteCursor { b: bytes, pos: 0 };
    if c.take(4, "magic")? != WIRE_TRACE_MAGIC {
        return Err("bad wire-trace magic".into());
    }
    let ver = c.u16("version")?;
    if ver != WIRE_TRACE_VERSION {
        return Err(format!("unsupported wire-trace version {ver}"));
    }
    let pid = c.u32("pid")?;
    let dropped = c.u64("dropped")?;
    let n_events = c.u32("event count")?;
    let mut events = Vec::with_capacity((n_events as usize).min(4096));
    for _ in 0..n_events {
        events.push(decode_event_at(&mut c)?);
    }
    let n_counters = c.u16("counter count")?;
    let mut counters = Vec::with_capacity(usize::from(n_counters).min(256));
    for _ in 0..n_counters {
        let k = intern(&c.str16("counter name")?);
        let v = c.u64("counter value")?;
        counters.push((k, v));
    }
    if c.pos != bytes.len() {
        return Err("trailing bytes after wire trace".into());
    }
    Ok(WireTrace {
        lane: ForeignLane {
            pid,
            events,
            dropped,
        },
        counters,
    })
}

/// Absorb a remote process's serialized trace buffer into the current
/// session: its events are re-ordered by remote ordinal, re-based onto a
/// [`reserve`]d block of local ordinals (so merged export order is
/// deterministic), shifted by `ts_base_us` (the local time the remote
/// work started), and kept as a [`ForeignLane`]; its counters fold into
/// the session counters. No-op (but still validated) when tracing is
/// off. Returns the number of absorbed events.
///
/// # Errors
///
/// Propagates [`decode_wire_trace`] errors.
pub fn absorb_foreign(bytes: &[u8], ts_base_us: u64) -> Result<usize, String> {
    let mut wt = decode_wire_trace(bytes)?;
    if !enabled() {
        return Ok(0);
    }
    wt.lane.events.sort_by_key(|e| e.ordinal);
    let base = reserve(wt.lane.events.len() as u64);
    for (i, e) in wt.lane.events.iter_mut().enumerate() {
        e.ordinal = base + i as u64;
        e.ts_us = e.ts_us.saturating_add(ts_base_us);
    }
    for (k, v) in &wt.counters {
        counter_keyed(k, *v);
    }
    let n = wt.lane.events.len();
    if n > 0 || wt.lane.dropped > 0 {
        global().foreign.lock().unwrap().push(wt.lane);
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Crash flight recorder: a bounded ring of recent events, spilled
// incrementally to a checksummed file that survives SIGKILL.
// ---------------------------------------------------------------------------

/// Magic prefix of a flight spill/dump file.
pub const FLIGHT_MAGIC: [u8; 4] = *b"LPFR";
const FLIGHT_VERSION: u16 = 1;
/// Rewrite the spill file from the ring once it grows past this size, so
/// a long-lived worker's spill stays bounded.
const FLIGHT_REWRITE_BYTES: u64 = 64 * 1024;

fn flight_header() -> [u8; 6] {
    let mut h = [0u8; 6];
    h[..4].copy_from_slice(&FLIGHT_MAGIC);
    h[4..].copy_from_slice(&FLIGHT_VERSION.to_le_bytes());
    h
}

/// A bounded ring of the most recent trace events, spilled incrementally
/// to a file. Install with [`install_flight_recorder`]; every event any
/// record site pushes is then appended as a journal-style record
/// (`[len][crc32(payload)][payload]`, the same framing as the store's
/// write-ahead journal) after a `"LPFR"` header. Plain `write(2)` per
/// event — the data reaches the page cache, so it survives `SIGKILL`
/// and `abort(3)`; only a machine crash can lose the tail. A supervisor
/// salvages the file post-mortem with [`read_flight`], which keeps the
/// longest checksum-valid prefix and drops a torn tail record.
pub struct FlightRecorder {
    path: PathBuf,
    file: std::fs::File,
    ring: VecDeque<Vec<u8>>,
    capacity: usize,
    spilled_bytes: u64,
}

impl FlightRecorder {
    /// Create (truncating) the spill file at `path`, keeping at most
    /// `capacity` events in the ring.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file header.
    pub fn create(path: &Path, capacity: usize) -> std::io::Result<FlightRecorder> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&flight_header())?;
        Ok(FlightRecorder {
            path: path.to_path_buf(),
            file,
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            spilled_bytes: 6,
        })
    }

    /// The spill file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_record(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.spilled_bytes += framed.len() as u64;
        Ok(())
    }

    fn record(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        let mut payload = Vec::new();
        encode_event(ev, &mut payload);
        self.ring.push_back(payload.clone());
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
        if self.spilled_bytes >= FLIGHT_REWRITE_BYTES {
            self.rewrite()
        } else {
            self.append_record(&payload)
        }
    }

    /// Rewrite the spill from the in-memory ring: truncate, re-write the
    /// header, and append the ring's records.
    fn rewrite(&mut self) -> std::io::Result<()> {
        use std::io::Seek as _;
        self.file.rewind()?;
        self.file.set_len(0)?;
        self.file.write_all(&flight_header())?;
        self.spilled_bytes = 6;
        let ring: Vec<Vec<u8>> = self.ring.iter().cloned().collect();
        for payload in &ring {
            self.append_record(payload)?;
        }
        Ok(())
    }
}

static FLIGHT_ON: AtomicBool = AtomicBool::new(false);

fn flight_global() -> &'static Mutex<Option<FlightRecorder>> {
    static F: OnceLock<Mutex<Option<FlightRecorder>>> = OnceLock::new();
    F.get_or_init(|| Mutex::new(None))
}

/// Install `r` as the process-wide flight recorder: from now on every
/// recorded trace event is also spilled to its file (sessions come and
/// go via [`enable`]; the flight ring persists across them).
pub fn install_flight_recorder(r: FlightRecorder) {
    *flight_global().lock().unwrap() = Some(r);
    FLIGHT_ON.store(true, Ordering::SeqCst);
}

/// Remove and return the installed flight recorder, if any.
pub fn uninstall_flight_recorder() -> Option<FlightRecorder> {
    FLIGHT_ON.store(false, Ordering::SeqCst);
    flight_global().lock().unwrap().take()
}

fn flight_observe(ev: &TraceEvent) {
    if !FLIGHT_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(r) = flight_global().lock().unwrap().as_mut() {
        // Spill errors must never take down the recording process; the
        // flight record is best-effort by design.
        let _ = r.record(ev);
    }
}

/// Parse a flight spill/dump file: validate the `"LPFR"` header, then
/// decode records while their CRCs hold, dropping a torn or corrupt
/// tail. A process killed mid-`write(2)` therefore still yields every
/// fully-written event.
///
/// # Errors
///
/// Unreadable file, bad magic, or unsupported version. Torn/corrupt
/// record tails are not errors — the valid prefix is returned.
pub fn read_flight(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() < 6 || bytes[..4] != FLIGHT_MAGIC {
        return Err(format!(
            "{}: not a flight record (bad magic)",
            path.display()
        ));
    }
    let ver = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if ver != FLIGHT_VERSION {
        return Err(format!(
            "{}: unsupported flight version {ver}",
            path.display()
        ));
    }
    let mut out = Vec::new();
    let mut pos = 6usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // torn tail record
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // corruption: keep the valid prefix
        }
        let mut c = ByteCursor { b: payload, pos: 0 };
        match decode_event_at(&mut c) {
            Ok(ev) if c.pos == payload.len() => out.push(ev),
            _ => break,
        }
        pos = end;
    }
    Ok(out)
}

/// Write `events` as a standalone flight dump at `path`, in the same
/// checksummed format [`read_flight`] parses. Used by the supervisor to
/// preserve a dead worker's salvaged ring next to its diagnostics.
///
/// # Errors
///
/// I/O errors writing the file.
pub fn write_flight_dump(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let mut out = flight_header().to_vec();
    for ev in events {
        let mut payload = Vec::new();
        encode_event(ev, &mut payload);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that enable it serialize
    /// through this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        disable();
        let _ = drain();
        counter("t.disabled", 3);
        instant("test", "nope");
        let s = span("test", "also-nope");
        let d = s.finish();
        assert!(d <= Duration::from_secs(1));
        let data = drain();
        assert!(data.events.is_empty());
        assert!(data.counters.is_empty());
    }

    #[test]
    fn spans_counters_and_instants_roundtrip() {
        let _g = locked();
        enable(ClockMode::Real);
        {
            let mut s = span("test", "outer");
            s.arg("k", "v");
            instant_args("test", "mark", vec![("why", "because".into())]);
            counter("t.count", 2);
            counter("t.count", 3);
            let _ = s.finish();
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 2);
        // Ordinal order: the span opened before the instant.
        assert_eq!(data.events[0].name, "outer");
        assert_eq!(data.events[0].args, vec![("k", "v".to_string())]);
        assert!(matches!(data.events[0].kind, EventKind::Span { .. }));
        assert_eq!(data.events[1].name, "mark");
        assert!(matches!(data.events[1].kind, EventKind::Instant));
        assert_eq!(data.counters.get("t.count"), Some(&5));
        assert!(validate_chrome_trace(&data.to_chrome_json()).unwrap() >= 3);
    }

    #[test]
    fn reserved_ordinals_sort_deterministically() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let base = reserve(4);
        // Record out of order, as racing workers would.
        for idx in [2u64, 0, 3, 1] {
            record_span_at(
                "test",
                format!("unit-{idx}"),
                base + idx,
                0,
                Duration::from_micros(7),
                Vec::new(),
            );
        }
        disable();
        let data = drain();
        let names: Vec<&str> = data.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["unit-0", "unit-1", "unit-2", "unit-3"]);
        // Virtual clock: export is a pure function of ordinals.
        let json = data.to_chrome_json();
        assert!(json.contains("\"ts\":0,\"dur\":5"));
        assert!(json.contains(&format!("\"ts\":{}", (base + 3) * 10)));
        assert!(!json.contains("\"tid\":1"));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = locked();
        enable(ClockMode::Virtual);
        for _ in 0..(RING_CAPACITY + 10) {
            instant("test", "spam");
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), RING_CAPACITY);
        assert_eq!(data.dropped, 10);
    }

    #[test]
    fn json_escaping_and_validation() {
        let _g = locked();
        enable(ClockMode::Virtual);
        instant_args(
            "test",
            "weird \"name\"\twith\nescapes\u{1}",
            vec![("path", "a\\b".into())],
        );
        disable();
        let data = drain();
        let json = data.to_chrome_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
        assert!(json.contains("weird \\\"name\\\"\\twith\\nescapes\\u0001"));
        assert!(json.contains("a\\\\b"));
    }

    #[test]
    fn validator_rejects_malformed_shapes() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Phase X without dur.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
        )
        .is_err());
        assert_eq!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
            ),
            Ok(1)
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
    }

    #[test]
    fn metrics_and_stats_render() {
        let _g = locked();
        enable(ClockMode::Virtual);
        counter("m.counter", 41);
        counter("m.counter", 1);
        let _ = span("mcat", "thing").finish();
        disable();
        let data = drain();
        let metrics = data.to_metrics_json();
        assert!(metrics.contains("\"m.counter\":42"));
        assert!(metrics.contains("\"mcat\":{\"count\":1,\"total_us\":5}"));
        assert!(metrics.contains("\"clock\":\"virtual\""));
        let stats = data.render_stats();
        assert!(stats.contains("m.counter"));
        assert!(stats.contains("mcat"));
    }

    #[test]
    fn reenable_resets_ordinals_and_buffers() {
        let _g = locked();
        enable(ClockMode::Virtual);
        instant("test", "first-session");
        enable(ClockMode::Virtual);
        instant("test", "second-session");
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].name, "second-session");
        assert_eq!(data.events[0].ordinal, 0);
    }

    #[test]
    fn worker_threads_fold_into_one_drain() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let base = reserve(8);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                scope.spawn(move || {
                    record_span_at(
                        "test",
                        format!("w{w}"),
                        base + w,
                        0,
                        Duration::from_micros(1),
                        Vec::new(),
                    );
                    counter("t.worker", 1);
                });
            }
        });
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.counters.get("t.worker"), Some(&4));
        // Virtual export never leaks real lane ids.
        assert!(!data.to_chrome_json().contains("\"tid\":2"));
    }

    #[test]
    fn json_writer_nests_escapes_and_places_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "x/v1");
        w.field_u64("n", 7);
        w.field_f64("rate", 0.5, 3);
        w.field_bool("ok", true);
        w.begin_object_field("nested");
        w.field_str("quote", "a\"b\\c");
        w.end_object();
        w.begin_array_field("xs");
        w.value_u64(1);
        w.value_u64(2);
        w.value_str("three");
        w.end_array();
        w.field_raw("raw", "{\"inner\":1}");
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\"schema\":\"x/v1\",\"n\":7,\"rate\":0.500,\"ok\":true,\
             \"nested\":{\"quote\":\"a\\\"b\\\\c\"},\"xs\":[1,2,\"three\"],\
             \"raw\":{\"inner\":1}}"
        );
        // The writer's output parses back with our own parser.
        parse_json(&doc).expect("writer output is valid JSON");
    }

    #[test]
    fn histogram_quantiles_stay_within_documented_bucket_error() {
        // Property test over a deterministic pseudo-random stream: every
        // quantile estimate must satisfy t <= r <= t + t/16 + 1 against
        // the exact sorted data.
        let mut h = Histogram::new();
        let mut values = Vec::new();
        let mut z = 0x1234_5678_9abc_def0u64;
        for i in 0..5000u64 {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mix magnitudes: exact range, mid-range, and huge values.
            let v = match i % 4 {
                0 => z % 16,
                1 => z % 10_000,
                2 => z % 100_000_000,
                _ => z,
            };
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), 5000);
        assert_eq!(h.max(), *values.last().unwrap());
        for q in [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let r = h.quantile(q);
            let rank = ((values.len() as f64) * q).ceil().max(1.0) as usize - 1;
            let t = values[rank.min(values.len() - 1)];
            assert!(r >= t, "q={q}: estimate {r} under-reports true {t}");
            let bound = t.saturating_add(t / 16).saturating_add(1);
            assert!(r <= bound, "q={q}: estimate {r} > {t} + 6.25% ({bound})");
        }
        // Exact below 16.
        let mut small = Histogram::new();
        for v in [0u64, 1, 3, 3, 7, 15] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 3);
        assert_eq!(small.quantile(1.0), 15);
        // Merge is a sum of observations.
        let mut merged = Histogram::new();
        merged.merge(&h);
        merged.merge(&small);
        assert_eq!(merged.count(), h.count() + small.count());
        assert_eq!(merged.max(), h.max().max(small.max()));
    }

    #[test]
    fn histogram_set_caps_distinct_keys() {
        let mut s = HistogramSet::new(2);
        s.record("a", 1);
        s.record("b", 2);
        s.record("c", 3); // over the cap: folds into "other"
        s.record("a", 4);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "other"]);
        assert_eq!(s.iter().find(|(k, _)| *k == "a").unwrap().1.count(), 2);
    }

    #[test]
    fn wire_trace_roundtrips_and_rejects_garbage() {
        let _g = locked();
        enable(ClockMode::Virtual);
        let mut sp = span("serve.worker", "request");
        sp.arg("rid", "0000000000000001");
        drop(sp);
        instant("vm", "trap");
        counter("vm.insts", 42);
        disable();
        let data = drain();
        let bytes = encode_wire_trace(&data, 4242);
        let wt = decode_wire_trace(&bytes).expect("roundtrip");
        assert_eq!(wt.lane.pid, 4242);
        assert_eq!(wt.lane.events.len(), 2);
        assert_eq!(wt.lane.events[0].name, "request");
        assert_eq!(wt.lane.events[0].cat, "serve.worker");
        assert_eq!(
            wt.lane.events[0].args,
            vec![("rid", "0000000000000001".to_string())]
        );
        assert!(wt.counters.contains(&("vm.insts", 42)));
        // Total decoding: truncation at every offset errors, never panics.
        for cut in 0..bytes.len() {
            assert!(decode_wire_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_wire_trace(&bad).is_err());
    }

    #[test]
    fn absorbed_foreign_lanes_export_as_worker_pids() {
        let _g = locked();
        // "Worker" session: record two events, ship them.
        enable(ClockMode::Virtual);
        let _ = span("serve.worker", "request").finish();
        instant("vm", "ret");
        disable();
        let shipped = encode_wire_trace(&drain(), 777);

        // "Daemon" session: local span, then absorb the worker buffer.
        enable(ClockMode::Virtual);
        let _ = span("serve", "dispatch").finish();
        let n = absorb_foreign(&shipped, 0).expect("absorb");
        assert_eq!(n, 2);
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.foreign.len(), 1);
        assert_eq!(data.foreign[0].pid, 777);
        // Foreign ordinals were re-based after the local span's ordinal.
        assert!(data.foreign[0].events[0].ordinal > data.events[0].ordinal);
        let json = data.to_chrome_json();
        validate_chrome_trace(&json).expect("merged trace schema");
        // Virtual clock: daemon lane pid 1, worker lane pid 2, labeled.
        assert!(json.contains("\"pid\":1"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"name\":\"worker\""), "{json}");
        // Worker counters folded into the session counters.
        // (vm.insts was not recorded here, but spans totals include the
        // foreign request span.)
        let totals = data.span_totals();
        assert_eq!(totals.get("serve.worker"), Some(&(1, 5)));
        // Byte determinism: same inputs, same merged bytes.
        enable(ClockMode::Virtual);
        let _ = span("serve", "dispatch").finish();
        absorb_foreign(&shipped, 0).unwrap();
        disable();
        assert_eq!(drain().to_chrome_json(), json);
    }

    #[test]
    fn flight_recorder_spills_salvageable_checksummed_events() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("lpat-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("slot-0.spill");
        install_flight_recorder(FlightRecorder::create(&spill, 8).unwrap());
        enable(ClockMode::Virtual);
        for i in 0..20 {
            instant_args(
                "serve.worker",
                format!("ev-{i}"),
                vec![("i", i.to_string())],
            );
        }
        disable();
        let _ = drain();
        uninstall_flight_recorder();
        let events = read_flight(&spill).expect("salvage");
        // The spill holds at least the ring's worth of recent events and
        // ends with the last one recorded.
        assert!(events.len() >= 8, "only {} events salvaged", events.len());
        assert_eq!(events.last().unwrap().name, "ev-19");
        // A torn tail (partial record) is dropped, the prefix survives.
        let mut bytes = std::fs::read(&spill).unwrap();
        let clean = events.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3, 4, 0xAB]); // bogus half record
        let torn = dir.join("torn.spill");
        std::fs::write(&torn, &bytes).unwrap();
        assert_eq!(read_flight(&torn).unwrap().len(), clean);
        // Corrupting a payload byte truncates the salvage at that record.
        let mut corrupt = std::fs::read(&spill).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let cpath = dir.join("corrupt.spill");
        std::fs::write(&cpath, &corrupt).unwrap();
        let salvaged = read_flight(&cpath).unwrap();
        assert!(salvaged.len() < clean, "corruption not detected");
        // A dump written from salvaged events reads back identically.
        let dump = dir.join("crash.flight");
        write_flight_dump(&dump, &events).unwrap();
        let reread = read_flight(&dump).unwrap();
        assert_eq!(reread.len(), events.len());
        assert_eq!(reread.last().unwrap().name, "ev-19");
        // Bad magic is an error, not an empty success.
        let junk = dir.join("junk.spill");
        std::fs::write(&junk, b"not a flight file").unwrap();
        assert!(read_flight(&junk).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
