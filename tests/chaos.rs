//! Chaos tests for the crash-only daemon (`lpatd --isolate process`).
//!
//! Where `tests/serve.rs` proves the `catch_unwind` isolation holds
//! against *panics*, this suite proves the process-isolation layer holds
//! against the failures `catch_unwind` cannot absorb: `abort(3)`,
//! `SIGKILL` mid-request, and `SIGKILL` parked between any two
//! durability steps of a journaled store write. Every test drives a real
//! `lpatd` subprocess over a real socket and kills real worker
//! processes; after each induced death the daemon must keep serving,
//! exactly one client may see a structured error, and the store must
//! hold zero quarantine debris.
//!
//! CI fans these out via the `chaos-matrix` job, one leg per crash
//! family (`LPAT_CHAOS_MATRIX=worker-abort|journal-kill|watchdog`);
//! locally everything runs.

use std::io::Read as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lpat::serve::{Addr, Client, ErrClass, Op, Request, Response, ShardedStore};
use lpat::vm::module_hash;

const ADD_PROG: &str = "\
define int @main() {
entry:
  %a = add int 40, 2
  ret int %a
}
";

/// A second payload with a different hash, for per-payload breaker
/// isolation checks.
const MUL_PROG: &str = "\
define int @main() {
entry:
  %a = mul int 6, 7
  ret int %a
}
";

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_request(module: &str) -> Request {
    let mut req = Request::new(Op::Run);
    req.module = module.as_bytes().to_vec();
    req
}

fn connect(addr: &Addr) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

/// An `lpatd` subprocess. Fault plans go through `--inject-faults` (not
/// the environment) so that under `--isolate process` the daemon
/// forwards them to workers instead of arming them in itself.
struct Daemon {
    child: Child,
    addr: Addr,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lpatd"));
        cmd.args(["--listen", "tcp:127.0.0.1:0", "--quiet"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn lpatd");
        let mut line = String::new();
        {
            let stdout = child.stdout.as_mut().unwrap();
            let mut one = [0u8; 1];
            while stdout.read(&mut one).unwrap() == 1 {
                if one[0] == b'\n' {
                    break;
                }
                line.push(one[0] as char);
            }
        }
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad startup line: {line:?}"))
            .trim()
            .to_string();
        Daemon {
            child,
            addr: Addr::parse(&addr).unwrap(),
        }
    }

    fn alive(&mut self) -> bool {
        self.child.try_wait().unwrap().is_none()
    }

    /// Wait (bounded) for the daemon to exit on its own; the exit code.
    fn wait_exit(&mut self, patience: Duration) -> Option<i32> {
        let start = Instant::now();
        while start.elapsed() < patience {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Fetch the daemon's stats JSON (answered in-daemon under process
/// isolation, so it works even while every worker is busy or dead).
fn stats_json(addr: &Addr) -> String {
    let mut c = connect(addr);
    match c.request(&Request::new(Op::Stats)).expect("stats") {
        Response::Ok { output, .. } => String::from_utf8(output).unwrap(),
        other => panic!("stats answered {other:?}"),
    }
}

/// Pull one numeric counter out of the stats JSON.
fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The live worker pids the supervisor published (zeroes filtered).
fn worker_pids(json: &str) -> Vec<u32> {
    let at = json.find("\"worker_pids\":[").expect("worker_pids");
    let rest = &json[at + "\"worker_pids\":[".len()..];
    let end = rest.find(']').unwrap();
    rest[..end]
        .split(',')
        .filter_map(|s| s.trim().parse::<u32>().ok())
        .filter(|&p| p != 0)
        .collect()
}

/// Wait until the supervisor has published at least one live worker pid.
fn wait_for_worker_pid(addr: &Addr, patience: Duration) -> u32 {
    let start = Instant::now();
    loop {
        let pids = worker_pids(&stats_json(addr));
        if let Some(&p) = pids.first() {
            return p;
        }
        assert!(
            start.elapsed() < patience,
            "no worker pid appeared within {patience:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

fn sigkill(pid: u32) {
    let ok = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -9 {pid} failed");
}

fn sigterm(pid: u32) {
    let ok = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -TERM {pid} failed");
}

/// No `*.corrupt-N` quarantine debris anywhere under the cache dir —
/// the whole point of journaled writes is that crashes never surface as
/// corrupt-store quarantines.
fn assert_no_corrupt_files(root: &std::path::Path) {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for ent in std::fs::read_dir(&dir).unwrap() {
            let ent = ent.unwrap();
            let path = ent.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = ent.file_name();
            let name = name.to_string_lossy();
            assert!(
                !name.contains(".corrupt-"),
                "quarantine debris after crash: {}",
                path.display()
            );
        }
    }
}

/// Stored run count for `module` (0 when no profile was persisted).
fn stored_runs(cache: &std::path::Path, shards: u32, module: &str) -> u64 {
    let m = lpat::asm::parse_module("chaos", module).unwrap();
    let store = ShardedStore::open(cache, shards).unwrap();
    let hash = module_hash(&m);
    store
        .shard(hash)
        .load_profile(hash)
        .unwrap()
        .value
        .map(|sp| sp.runs)
        .unwrap_or(0)
}

/// Matrix legs: CI runs one family per job via `LPAT_CHAOS_MATRIX`;
/// locally all run.
fn in_matrix(family: &str) -> bool {
    match std::env::var("LPAT_CHAOS_MATRIX") {
        Ok(v) if !v.trim().is_empty() => v.split(',').any(|s| s.trim() == family),
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Worker aborts: one request, not the daemon.
// ---------------------------------------------------------------------------

#[test]
fn worker_abort_costs_one_request_not_the_daemon() {
    if !in_matrix("worker-abort") {
        return;
    }
    // The worker aborts on its SECOND request: request 1 proves the slot
    // works, request 2 takes the abort, request 3 proves the respawned
    // slot works. `catch_unwind` cannot absorb abort(3) — only the
    // process boundary can.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--restart-backoff-ms",
        "10",
        "--inject-faults",
        "serve.worker:abort@2",
    ]);
    let mut c = connect(&d.addr);
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("warmup answered {other:?}"),
    }
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
            assert!(message.contains("worker died"), "{message}");
        }
        other => panic!("aborting request answered {other:?}"),
    }
    // Same connection, next request: a fresh worker serves it.
    match c.request(&run_request(ADD_PROG)).unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("post-crash request answered {other:?}"),
    }
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "worker_crashes"), 1, "{json}");
    assert_eq!(stat(&json, "worker_restarts"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

#[test]
fn sigkill_mid_request_answers_crashed_and_daemon_survives() {
    if !in_matrix("worker-abort") {
        return;
    }
    // Every request stalls 5s inside the worker; the test SIGKILLs the
    // worker mid-stall — the client must get `crashed` long before the
    // stall would have ended, and the daemon must not notice.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--restart-backoff-ms",
        "10",
        "--inject-faults",
        "serve.worker:delay=5000",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        c.request(&run_request(ADD_PROG)).unwrap()
    });
    let pid = wait_for_worker_pid(&d.addr, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(300)); // let it park in the stall
    let t0 = Instant::now();
    sigkill(pid);
    match inflight.join().unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
        }
        other => panic!("killed request answered {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "crash answer took {:?} — the supervisor waited out the stall",
        t0.elapsed()
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "worker_crashes"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

#[test]
fn sigkill_salvages_a_flight_record_into_the_crash_diagnostic() {
    if !in_matrix("worker-abort") {
        return;
    }
    // A worker dying to SIGKILL cannot flush anything at death; its
    // flight recorder must therefore have already spilled the recent
    // trace ring incrementally. The supervisor salvages the
    // checksum-valid prefix into a standalone dump and references it in
    // the `Crashed` diagnostic.
    let flight_dir = tmp("flight-salvage");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--restart-backoff-ms",
        "10",
        "--flight-dir",
        flight_dir.to_str().unwrap(),
        "--inject-faults",
        "serve.worker:delay=5000",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        let mut req = run_request(ADD_PROG);
        req.request_id = 77; // client-chosen: pins the dump's file name
        c.request(&req).unwrap()
    });
    let pid = wait_for_worker_pid(&d.addr, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(300)); // let it park in the stall
    sigkill(pid);
    let message = match inflight.join().unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Crashed, "{message}");
            message
        }
        other => panic!("killed request answered {other:?}"),
    };
    assert!(
        message.contains("flight record:"),
        "crash diagnostic must reference the salvaged flight record: {message}"
    );
    let dump = flight_dir.join("slot0-rid77.flight");
    assert!(
        message.contains(&dump.display().to_string()),
        "diagnostic must name the dump path: {message}"
    );
    let bytes = std::fs::read(&dump).expect("flight dump exists");
    assert!(
        bytes.starts_with(&lpat::core::trace::FLIGHT_MAGIC),
        "flight dump must start with the LPFR magic"
    );
    let events = lpat::core::trace::read_flight(&dump).expect("flight dump parses");
    assert!(
        !events.is_empty(),
        "flight dump must carry the worker's last events"
    );
    // The ring captured the doomed request itself, not just old traffic.
    assert!(
        events
            .iter()
            .any(|e| e.cat == "serve.worker" && e.name == "request.begin"),
        "flight events: {events:?}"
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "flight_salvaged"), 1, "{json}");
    assert!(d.alive(), "daemon died with its worker");
}

// ---------------------------------------------------------------------------
// Journal crash points and the group-commit durability contract: the
// daemon commits each window's profile deltas with one journaled write
// per module, so a kill -9 loses at most one window of counts — never
// the accumulated store.
// ---------------------------------------------------------------------------

/// Seed the store with `runs` runs of `module`, standing in for the
/// profile an earlier daemon life accumulated.
fn seed_runs(cache: &std::path::Path, shards: u32, module: &str, runs: u64) {
    let m = lpat::asm::parse_module("chaos", module).unwrap();
    let hash = module_hash(&m);
    let store = ShardedStore::open(cache, shards).unwrap();
    let counts = lpat::vm::ProfileData::default(); // only `runs` is checked
    store.shard(hash).record_runs(hash, &counts, runs).unwrap();
}

/// Wait until `key` in the daemon's stats reaches `want`.
fn wait_for_stat(addr: &Addr, key: &str, want: u64, patience: Duration) {
    let start = Instant::now();
    loop {
        let json = stats_json(addr);
        if stat(&json, key) == want {
            return;
        }
        assert!(
            start.elapsed() < patience,
            "{key} never reached {want}: {json}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkill_at_every_journal_step_leaves_a_consistent_store() {
    if !in_matrix("journal-kill") {
        return;
    }
    // Steps of a journaled write: 1 intent append, 2 temp write, 3 temp
    // fsync, 4 rename, 5 commit append. `store.journal:delay=...@N`
    // parks the writer immediately BEFORE step N's action. The writer is
    // the daemon's group-commit flusher, so the plan arms in the daemon
    // (thread isolation) and the SIGKILL hits the daemon itself, parked
    // in the first commit after three answered runs:
    //   - killed before the temp file is complete (steps 1-2): that
    //     window's batch is LOST — recovery rolls back;
    //   - killed once the temp file is fully written (steps 3-5): the
    //     batch is DURABLE — recovery replays the rename.
    // Either way the two runs accumulated before this daemon started
    // survive, no file is torn or quarantined, and the run count is
    // exactly what the crash semantics promise.
    //
    // The three runs must all land in that first window, whose timer
    // starts when the daemon binds — after `spawned` below. A host too
    // slow to answer them within one window gets the step retried, and
    // the test fails saying so if it never manages.
    const ATTEMPTS: u32 = 3;
    for step in 1..=5u32 {
        let mut attempt = 1;
        let (mut d, cache) = loop {
            let cache = tmp(&format!("journal-step-{step}"));
            let _ = std::fs::remove_dir_all(&cache);
            seed_runs(&cache, 2, ADD_PROG, 2);
            let spawned = Instant::now();
            let d = Daemon::spawn(&[
                "--workers",
                "1",
                "--shards",
                "2",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--inject-faults",
                &format!("store.journal:delay=5000@{step}"),
            ]);
            let mut c = connect(&d.addr);
            for _ in 0..3 {
                match c.request(&run_request(ADD_PROG)).unwrap() {
                    Response::Ok { exit, .. } => assert_eq!(exit, 42, "step {step}"),
                    other => panic!("step {step}: run answered {other:?}"),
                }
            }
            let took = spawned.elapsed();
            if took < lpat::serve::resident::COMMIT_WINDOW {
                break (d, cache);
            }
            assert!(
                attempt < ATTEMPTS,
                "step {step}: spawning the daemon and answering three runs took \
                 {took:?} on each of {ATTEMPTS} attempts, longer than the first \
                 commit window the test relies on"
            );
            attempt += 1;
        };
        // The flusher's first window closes about a second after start;
        // its commit then parks for five seconds. Kill it mid-park.
        std::thread::sleep(lpat::serve::resident::COMMIT_WINDOW + Duration::from_millis(700));
        assert!(d.alive(), "step {step}: daemon died before the kill");
        sigkill(d.child.id());
        // Reap, so the dead holder's store lock can be broken; reopening
        // the store (as a restarted daemon does) runs journal recovery.
        drop(d);
        let runs = stored_runs(&cache, 2, ADD_PROG);
        assert_no_corrupt_files(&cache);
        let expect = if step <= 2 { 2 } else { 5 };
        assert_eq!(
            runs,
            expect,
            "step {step}: the killed batch should be {}",
            if step <= 2 { "lost" } else { "replayed" }
        );
    }
}

#[test]
fn sigkill_after_a_quiet_window_keeps_every_committed_run() {
    if !in_matrix("journal-kill") {
        return;
    }
    // Process isolation: workers ship their deltas back in report
    // frames and never write a profile; the daemon commits them.
    let cache = tmp("quiet-window");
    let _ = std::fs::remove_dir_all(&cache);
    let args = [
        "--isolate",
        "process",
        "--workers",
        "2",
        "--shards",
        "2",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let d = Daemon::spawn(&args);
    let mut c = connect(&d.addr);
    const RUNS: u64 = 6;
    for _ in 0..RUNS {
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Ok { exit, .. } => assert_eq!(exit, 42),
            other => panic!("run answered {other:?}"),
        }
    }
    // One quiet window later every answered run is committed...
    wait_for_stat(
        &d.addr,
        "profile_runs_committed",
        RUNS,
        lpat::serve::resident::COMMIT_WINDOW * 5,
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "profile_runs_pending"), 0, "{json}");
    assert_eq!(stat(&json, "profile_flush_failures"), 0, "{json}");
    // ...so a kill -9 now loses nothing: exactly the committed runs are
    // stored, and a restarted daemon serves on from them.
    sigkill(d.child.id());
    drop(d);
    let d = Daemon::spawn(&args);
    assert_eq!(stored_runs(&cache, 2, ADD_PROG), RUNS);
    assert_no_corrupt_files(&cache);
    let mut c = connect(&d.addr);
    let mut reopt = run_request(ADD_PROG);
    reopt.op = Op::Reopt;
    match c.request(&reopt).unwrap() {
        Response::Ok { output, .. } => {
            let text = String::from_utf8_lossy(&output);
            assert!(
                text.contains(&format!("({RUNS} runs of profile)")),
                "{text}"
            );
        }
        other => panic!("reopt after restart answered {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Crash-loop quarantine.
// ---------------------------------------------------------------------------

#[test]
fn crash_loop_quarantine_trips_and_survives_daemon_restart() {
    if !in_matrix("worker-abort") {
        return;
    }
    let cache = tmp("quarantine");
    let _ = std::fs::remove_dir_all(&cache);
    let common = [
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "2",
        "--restart-backoff-ms",
        "10",
        "--shards",
        "2",
        "--cache-dir",
    ];
    {
        // Daemon A: every request aborts its worker. Two strikes trip
        // the breaker; the third answers from the denylist without
        // burning a worker.
        let mut args: Vec<&str> = common.to_vec();
        args.push(cache.to_str().unwrap());
        args.extend(["--inject-faults", "serve.worker:abort"]);
        let d = Daemon::spawn(&args);
        let mut c = connect(&d.addr);
        for strike in 0..2 {
            match c.request(&run_request(ADD_PROG)).unwrap() {
                Response::Err { class, .. } => {
                    assert_eq!(class, ErrClass::Crashed, "strike {strike}")
                }
                other => panic!("strike {strike} answered {other:?}"),
            }
        }
        let crashes_before = stat(&stats_json(&d.addr), "worker_crashes");
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Err { class, message } => {
                assert_eq!(class, ErrClass::Quarantined, "{message}");
                assert!(message.contains("denylisted"), "{message}");
            }
            other => panic!("post-trip request answered {other:?}"),
        }
        let json = stats_json(&d.addr);
        assert_eq!(
            stat(&json, "worker_crashes"),
            crashes_before,
            "quarantined request burned a worker: {json}"
        );
        assert_eq!(stat(&json, "quarantined"), 1, "{json}");
        // A different payload is NOT quarantined (it aborts — its own
        // first strike — proving the denylist is per-payload).
        match c.request(&run_request(MUL_PROG)).unwrap() {
            Response::Err { class, .. } => assert_eq!(class, ErrClass::Crashed),
            other => panic!("other payload answered {other:?}"),
        }
    }
    {
        // Daemon B: same store, NO fault plan — the module would run
        // fine now, but the persisted deny record must still refuse it.
        let mut args: Vec<&str> = common.to_vec();
        args.push(cache.to_str().unwrap());
        let d = Daemon::spawn(&args);
        let mut c = connect(&d.addr);
        match c.request(&run_request(ADD_PROG)).unwrap() {
            Response::Err { class, message } => {
                assert_eq!(class, ErrClass::Quarantined, "{message}")
            }
            other => panic!("restarted daemon answered {other:?}"),
        }
        // The payload that never tripped the breaker runs normally.
        match c.request(&run_request(MUL_PROG)).unwrap() {
            Response::Ok { exit, .. } => assert_eq!(exit, 42),
            other => panic!("clean payload answered {other:?}"),
        }
    }
    assert_no_corrupt_files(&cache);
}

// ---------------------------------------------------------------------------
// Watchdog: a wedged worker is hard-killed at deadline + grace.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_hard_kills_a_wedged_worker() {
    if !in_matrix("watchdog") {
        return;
    }
    // The worker stalls 60s — far past any deadline; cooperative checks
    // never run during the stall, so only the supervisor's SIGKILL can
    // reclaim the slot.
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--crash-k",
        "100",
        "--restart-backoff-ms",
        "10",
        "--watchdog-grace-ms",
        "300",
        "--inject-faults",
        "serve.worker:delay=60000",
    ]);
    let mut c = connect(&d.addr);
    let mut req = run_request(ADD_PROG);
    req.deadline_ms = 500;
    let t0 = Instant::now();
    match c.request(&req).unwrap() {
        Response::Err { class, message } => {
            assert_eq!(class, ErrClass::Deadline, "{message}");
            assert!(message.contains("hard-killed"), "{message}");
        }
        other => panic!("wedged request answered {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "watchdog answer took {:?}",
        t0.elapsed()
    );
    let json = stats_json(&d.addr);
    assert_eq!(stat(&json, "watchdog_kills"), 1, "{json}");
    assert!(d.alive(), "daemon died with its wedged worker");
}

// ---------------------------------------------------------------------------
// Graceful drain on SIGTERM.
// ---------------------------------------------------------------------------

#[test]
fn sigterm_drains_the_inflight_request_and_exits_zero() {
    if !in_matrix("watchdog") {
        return;
    }
    // The in-flight request stalls 1.5s in its worker; SIGTERM arrives
    // mid-stall. The daemon must finish that request (the client sees
    // Ok 42, not a reset connection), dump its final metrics, then
    // exit 0.
    let metrics = tmp("sigterm-metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "1",
        "--restart-backoff-ms",
        "10",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--inject-faults",
        "serve.worker:delay=1500@1",
    ]);
    let addr = d.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = connect(&addr);
        c.request(&run_request(ADD_PROG)).unwrap()
    });
    // Let the request reach the worker, then ask for the drain.
    std::thread::sleep(Duration::from_millis(400));
    sigterm(d.child.id());
    match inflight.join().unwrap() {
        Response::Ok { exit, .. } => assert_eq!(exit, 42),
        other => panic!("drained request answered {other:?}"),
    }
    let code = d
        .wait_exit(Duration::from_secs(10))
        .expect("daemon did not exit after SIGTERM");
    assert_eq!(code, 0, "drain must exit cleanly");
    // The graceful drain goes through the same export path as
    // `--max-requests`: the final metrics land on disk, drained request
    // included.
    let dumped = std::fs::read_to_string(&metrics).expect("SIGTERM drain must dump --metrics-out");
    assert!(dumped.contains("\"counters\""), "{dumped}");
    assert!(
        dumped.contains("\"serve.ok\":1"),
        "the drained request must be in the final dump: {dumped}"
    );
}

#[test]
fn sigterm_drain_commits_every_answered_run() {
    if !in_matrix("watchdog") {
        return;
    }
    // Deltas wait in the daemon between group commits; the SIGTERM drain
    // must commit all of them. Process isolation, so every delta also
    // crossed a worker's report frame on its way in.
    let cache = tmp("sigterm-commit");
    let _ = std::fs::remove_dir_all(&cache);
    let mut d = Daemon::spawn(&[
        "--isolate",
        "process",
        "--workers",
        "2",
        "--shards",
        "2",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    let joins: Vec<_> = (0..3)
        .map(|_| {
            let addr = d.addr.clone();
            std::thread::spawn(move || {
                let mut c = connect(&addr);
                let mut ok = 0u64;
                for _ in 0..4 {
                    if let Response::Ok { exit, .. } = c.request(&run_request(ADD_PROG)).unwrap() {
                        assert_eq!(exit, 42);
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let ok: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(ok > 0);
    sigterm(d.child.id());
    let code = d
        .wait_exit(Duration::from_secs(10))
        .expect("daemon did not exit after SIGTERM");
    assert_eq!(code, 0, "drain must exit cleanly");
    assert_no_corrupt_files(&cache);
    assert_eq!(
        stored_runs(&cache, 2, ADD_PROG),
        ok,
        "stored runs must equal the OK responses after a drain"
    );
}
