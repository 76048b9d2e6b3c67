//! `daemon`: a closed loop of [`CLIENTS`] client waiting for its reply
//! as `lpatc remote` does, against an in-process `lpatd` server
//! ([`WORKERS`] workers, a store under `--cache-dir`) over real TCP
//! sockets. Payloads are the scale-0 suite's bytecode; the mix is
//! seeded ([`crate::rng::DaemonMix`]): about half the requests go to one
//! hot module, most are `run` with `OPT|TIERED`, and small fixed shares
//! are `compile` of miniC source and `reopt`.
//!
//! Requests are timed on the process CPU clock: with one request in
//! flight, every thread's CPU time between send and reply — client,
//! connection, worker — is that request's. A second client would make
//! the split unknowable, and the wall clock follows the host's steal.
//! Time no thread spends on a CPU — the store's fsyncs, waits in the
//! queue or for a shard lock — therefore shows only in the wall-clock
//! per-layer metrics: `serve.req_wall_*` on the client side,
//! `serve.service_*` and `serve.queue_wait_*` from the server's `Stats`.
//!
//! Set-up compiles the payloads and the expected `compile` and `reopt`
//! answers in this process; that is not work the server does per
//! request, so the compile, decode and in-process VM and store layers
//! read 0 in this workload.

use std::path::Path;
use std::time::{Duration, Instant};

use lpat_core::trace::{parse_json, Json, JsonWriter};
use lpat_serve::{
    Addr, Client, Handle, Op, Request, Response, Server, ServerConfig, FLAG_MINIC, FLAG_OPT,
    FLAG_TIERED,
};

use crate::lifecycle::{self as lc, Answer, CountBook, Counts};
use crate::rng::{DaemonMix, DaemonOp, COMPILE_SHARE, HOT_SHARE, REOPT_SHARE};
use crate::stats::{median, tail, tail_percentile};
use crate::trace::{cpu_ns, Tracer};
use crate::{Phase, Workload};

/// One request in flight: see the module docs.
pub const CLIENTS: usize = 1;
pub const WORKERS: usize = 2;
/// Deep enough that two waiting clients are never shed.
pub const QUEUE: usize = 16;
/// The module that gets [`HOT_SHARE`] of the requests.
pub const HOT: &str = "181.mcf";
const TENANT: &str = "perfbench";

struct Mod {
    name: &'static str,
    source: String,
    /// Optimized bytecode that the daemon's own `-O` leaves unchanged, so
    /// `run` and `reopt` key the store by the same hash.
    payload: Vec<u8>,
    reference: Answer,
    /// What `compile -O` of `source` must return.
    compiled: Vec<u8>,
    /// What `reopt` of `payload` must return.
    reopt: Vec<u8>,
}

#[derive(Default)]
pub struct Daemon {
    mods: Vec<Mod>,
    server: Option<Handle>,
    counts: CountBook,
    next_id: u64,
}

impl Daemon {
    fn hot(&self) -> usize {
        self.mods.iter().position(|m| m.name == HOT).unwrap_or(0)
    }

    fn addr(&self) -> Result<Addr, String> {
        Ok(self.server.as_ref().ok_or("no server")?.addr().clone())
    }
}

/// The daemon's `-O` on a payload: decode, function pipeline, encode.
fn daemon_opt(name: &str, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut m = lpat_bytecode::read_module(name, bytes).map_err(|e| format!("{name}: {e}"))?;
    lpat_transform::function_pipeline().run(&mut m);
    Ok(lpat_bytecode::write_module(&m))
}

/// The daemon's `compile -O` of miniC source.
fn expected_compile(name: &str, src: &str) -> Result<Vec<u8>, String> {
    let mut m = lpat_minic::compile(name, src).map_err(|e| format!("{name}: {e}"))?;
    lpat_transform::function_pipeline().run(&mut m);
    lpat_transform::link_time_pipeline().run(&mut m);
    Ok(lpat_bytecode::write_module(&m))
}

fn request(op: Op, m: &Mod, id: u64) -> Request {
    let mut r = Request::new(op);
    r.tenant = TENANT.into();
    r.name = m.name.into();
    r.request_id = id;
    match op {
        Op::Compile => {
            r.flags = FLAG_MINIC | FLAG_OPT;
            r.module = m.source.clone().into_bytes();
        }
        _ => {
            r.flags = FLAG_OPT | FLAG_TIERED;
            r.module = m.payload.clone();
        }
    }
    r
}

fn connect(addr: &Addr) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(10)).map_err(|e| format!("connect: {e:?}"))
}

/// Check a response against the module's expectations; `Ok(insts)` for a
/// correct one.
fn check(op: DaemonOp, m: &Mod, resp: &Response) -> Result<u64, String> {
    match (op, resp) {
        (
            DaemonOp::Run,
            Response::Ok {
                exit,
                insts,
                output,
                ..
            },
        ) => {
            let want = (m.reference.exit & 0xFF) as i32;
            if *exit == want && output == m.reference.output.as_bytes() {
                Ok(*insts)
            } else {
                Err(format!(
                    "{}: run answered differently from the reference",
                    m.name
                ))
            }
        }
        (DaemonOp::Compile, Response::Ok { module, .. }) if *module == m.compiled => Ok(0),
        (DaemonOp::Reopt, Response::Ok { module, .. }) if *module == m.reopt => Ok(0),
        (_, Response::Ok { .. }) => Err(format!("{}: {op:?} returned unexpected bytecode", m.name)),
        (_, other) => Err(format!("{}: {op:?}: {}", m.name, other.status_label())),
    }
}

/// The client's closed loop, adding to `ph`. Also returns each correct
/// request's wall time: it holds what the CPU clock misses, and is set
/// against the server's own (wall-clock) latency.
fn client_loop(
    mods: &[Mod],
    addr: &Addr,
    mut mix: DaemonMix,
    tr: &mut Tracer,
    next_id: &mut u64,
    deadline: Instant,
    mut ph: Phase,
) -> (Phase, Vec<f64>) {
    let c0 = cpu_ns();
    let mut wall_ms = Vec::new();
    let mut client = None;
    while Instant::now() < deadline {
        let (op, k) = mix.next_request();
        let m = &mods[k];
        *next_id += 1;
        let id = *next_id;
        ph.attempted += 1;
        let c = match client.take() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    ph.fail(e);
                    continue;
                }
            },
        };
        let mut c = c;
        let wire = match op {
            DaemonOp::Run => Op::Run,
            DaemonOp::Compile => Op::Compile,
            DaemonOp::Reopt => Op::Reopt,
        };
        let req = request(wire, m, id);
        let sent = Instant::now();
        let (resp, ms) = tr.span("serve.request", id, |_| c.request(&req));
        let wall = sent.elapsed().as_secs_f64() * 1e3;
        let resp = match resp {
            Ok(r) => {
                client = Some(c);
                r
            }
            Err(e) => {
                ph.fail(format!("request {id}: {e:?}"));
                continue;
            }
        };
        match check(op, m, &resp) {
            Ok(insts) => {
                ph.cycles_ms.push(ms);
                ph.per_program.push((k, ms));
                wall_ms.push(wall);
                match op {
                    DaemonOp::Run => {
                        ph.runs.push((k, ms));
                        ph.guest_insts += insts;
                        ph.guest_ms += ms;
                        ph.counts
                            .observe(k, Counts::from([("vm.guest_insts", insts)]));
                    }
                    DaemonOp::Compile => ph.compile_ms.push(ms),
                    DaemonOp::Reopt => {}
                }
            }
            Err(e) => ph.fail(format!("request {id}: {e}")),
        }
    }
    ph.elapsed_s = (cpu_ns() - c0) as f64 / 1e9;
    (ph, wall_ms)
}

impl Workload for Daemon {
    fn setup(&mut self, tr: &mut Tracer, dir: &Path) -> Result<(), String> {
        // The previous set-up's server stops first.
        self.server = None;
        let mut mods = Vec::new();
        let mut counts = CountBook::default();
        for (i, w) in lpat_workloads::suite(0).into_iter().enumerate() {
            let c = lc::compile(tr, 0, w.name, &w.source)?;
            // Settle the payload at a fixed point of the daemon's -O.
            let mut payload = c.bytes;
            for _ in 0..4 {
                let next = daemon_opt(w.name, &payload)?;
                if next == payload {
                    break;
                }
                payload = next;
            }
            if daemon_opt(w.name, &payload)? != payload {
                return Err(format!(
                    "{}: no fixed point of the function pipeline",
                    w.name
                ));
            }
            let mut cc = c.counts;
            cc.insert("bytecode_bytes", payload.len() as u64);
            counts.observe(i, cc);
            mods.push(Mod {
                name: w.name,
                reference: lc::reference(tr, w.name, &w.source)?,
                compiled: expected_compile(w.name, &w.source)?,
                source: w.source,
                payload,
                reopt: Vec::new(),
            });
        }
        let cfg = ServerConfig {
            workers: WORKERS,
            queue_depth: QUEUE,
            cache_dir: Some(dir.join("store")),
            ..ServerConfig::default()
        };
        let (server, _) = tr.span("serve.start", 0, |_| Server::bind(cfg).map(Server::start));
        let server = server?;
        // Prime the store through the daemon: one run records a profile,
        // one reopt caches the reoptimized module. The reopt bytes become
        // the expectation for later reopts once the interpreter confirms
        // they still compute the reference answer.
        let mut client = connect(server.addr())?;
        for (i, m) in mods.iter_mut().enumerate() {
            // Apart from the loop's ids, which count up from 1.
            let id = (1 << 63) | (i as u64 + 1);
            let run = tr
                .span("serve.request", id, |_| {
                    client.request(&request(Op::Run, m, id))
                })
                .0;
            check(DaemonOp::Run, m, &run.map_err(|e| format!("{e:?}"))?)?;
            let reopt = tr
                .span("serve.request", id, |_| {
                    client.request(&request(Op::Reopt, m, id))
                })
                .0;
            match reopt.map_err(|e| format!("{e:?}"))? {
                Response::Ok { module, .. } => m.reopt = module,
                other => {
                    return Err(format!(
                        "{}: priming reopt: {}",
                        m.name,
                        other.status_label()
                    ))
                }
            }
            let rm = lpat_bytecode::read_module(m.name, &m.reopt).map_err(|e| e.to_string())?;
            let mut vm =
                lpat_vm::Vm::new(&rm, lpat_vm::VmOptions::default()).map_err(|e| e.to_string())?;
            let exit = vm
                .run_main()
                .map_err(|e| format!("{}: reoptimized: {e}", m.name))?;
            let output = std::mem::take(&mut vm.output);
            if (Answer { exit, output }) != m.reference {
                return Err(format!(
                    "{}: reoptimized module answered differently",
                    m.name
                ));
            }
        }
        self.mods = mods;
        self.counts = counts;
        self.server = Some(server);
        Ok(())
    }

    fn measure(&mut self, tr: &mut Tracer, seed: u64, secs: f64) -> Result<Phase, String> {
        let addr = self.addr()?;
        let mix = DaemonMix::new(seed, self.mods.len(), self.hot());
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let start = Phase {
            counts: self.counts.clone(),
            ..Phase::default()
        };
        let (mut ph, wall_ms) = client_loop(
            &self.mods,
            &addr,
            mix,
            tr,
            &mut self.next_id,
            deadline,
            start,
        );
        let stats = scrape_stats(&addr)?;
        server_layers(&mut ph, &stats, &wall_ms)?;
        Ok(ph)
    }

    fn draws(&self, seed: u64, n: usize) -> Vec<u64> {
        let names: Vec<_> = lpat_workloads::suite(0).iter().map(|w| w.name).collect();
        let hot = names.iter().position(|n| *n == HOT).unwrap_or(0);
        let mut mix = DaemonMix::new(seed, names.len(), hot);
        (0..n)
            .map(|_| {
                let (op, m) = mix.next_request();
                (op as u64) << 32 | m as u64
            })
            .collect()
    }

    fn cycle_span(&self) -> &'static str {
        "serve.request"
    }

    fn programs(&self) -> Vec<&'static str> {
        self.mods.iter().map(|m| m.name).collect()
    }

    fn describe(&self, w: &mut JsonWriter) {
        w.begin_object_field("daemon");
        w.field_u64("clients", CLIENTS as u64);
        w.field_u64("workers", WORKERS as u64);
        w.field_u64("queue_depth", QUEUE as u64);
        w.field_str("hot_module", HOT);
        w.field_f64("hot_share", HOT_SHARE, 2);
        w.field_f64("compile_share", COMPILE_SHARE, 2);
        w.field_f64("reopt_share", REOPT_SHARE, 2);
        w.field_f64("run_share", 1.0 - COMPILE_SHARE - REOPT_SHARE, 2);
        w.end_object();
    }
}

fn scrape_stats(addr: &Addr) -> Result<Json, String> {
    let mut c = connect(addr)?;
    match c
        .request(&Request::new(Op::Stats))
        .map_err(|e| format!("{e:?}"))?
    {
        Response::Ok { output, .. } => {
            parse_json(&String::from_utf8_lossy(&output)).map_err(|e| format!("stats: {e}"))
        }
        other => Err(format!("stats: {}", other.status_label())),
    }
}

/// The `serve.*` values: the client's wall-clock request latency, and
/// the server side from a `Stats` document. Tails follow the same rule
/// as the client side's ([`crate::stats::tail`]).
fn server_layers(ph: &mut Phase, stats: &Json, wall_ms: &[f64]) -> Result<(), String> {
    let q = stats.get("quantiles").ok_or("stats: no quantiles")?;
    let hist = |family: &str, key: Option<&str>| -> Result<&Json, String> {
        let f = q.get(family).ok_or_else(|| format!("stats: no {family}"))?;
        match key {
            Some(k) => f.get(k).ok_or_else(|| format!("stats: no {family}.{k}")),
            None => Ok(f),
        }
    };
    let tail_of = |h: &Json| -> f64 {
        let p = tail_percentile(h.num("count").unwrap_or(0.0) as u64);
        h.num(&format!("p{p}")).unwrap_or(0.0)
    };
    let service = hist("latency_us", Some(&format!("tenant:{TENANT}")))?;
    let wait = hist("queue_wait_us", None)?;
    let server_p50 = service.num("p50").unwrap_or(0.0);
    let num = |k: &str| stats.num(k).unwrap_or(0.0);
    let (hits, misses) = (num("cache_hits"), num("cache_misses"));
    let client_p50_ms = median(wall_ms);
    let l = &mut ph.layer;
    l.insert("serve.req_wall_p50_ms", client_p50_ms);
    l.insert("serve.req_wall_tail_ms", tail(wall_ms).1);
    l.insert("serve.service_p50_us", server_p50);
    l.insert("serve.service_tail_us", tail_of(service));
    for (key, op) in [
        ("serve.service_p50_us.run", "op:run"),
        ("serve.service_p50_us.compile", "op:compile"),
        ("serve.service_p50_us.reopt", "op:reopt"),
    ] {
        l.insert(key, hist("latency_us", Some(op))?.num("p50").unwrap_or(0.0));
    }
    l.insert("serve.queue_wait_p50_us", wait.num("p50").unwrap_or(0.0));
    l.insert("serve.queue_wait_tail_us", tail_of(wait));
    l.insert("serve.wire_ms", client_p50_ms - server_p50 / 1e3);
    l.insert(
        "serve.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    l.insert("serve.busy", num("busy"));
    l.insert("serve.errors", num("errors"));
    Ok(())
}
