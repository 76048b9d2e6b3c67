//! # lpat-bench — the experiment harness
//!
//! Shared helpers for the binaries that regenerate the paper's evaluation
//! artifacts:
//!
//! * `table1` — typed load/store percentages per benchmark (Table 1);
//! * `table2` — link-time IPO timings vs. a full compile (Table 2);
//! * `fig5` — executable sizes: bytecode vs. cisc32 vs. risc32 (Figure 5).
//!
//! Run with `cargo run -p lpat-bench --release --bin <name>`.

#![warn(missing_docs)]

use lpat_core::Module;

/// Compile one workload and run the per-module (compile-time) pipeline,
/// producing the module as it would exist at link time.
pub fn prepare(name: &str, source: &str) -> Module {
    let mut m = lpat_minic::compile(name, source).unwrap_or_else(|e| panic!("{name}: {e}"));
    m.verify().unwrap_or_else(|e| panic!("{name}: {e:?}"));
    lpat_transform::function_pipeline().run(&mut m);
    m.verify().unwrap_or_else(|e| panic!("{name}: {e:?}"));
    m
}

/// A simple LZ77 compressor (4 KB window, greedy longest match, byte-wise
/// literals) used for the paper's §4.1.3 aside: general-purpose
/// compression roughly halves bytecode files. Format: a control byte
/// holding 8 flags (1 = match), then per item either a literal byte or a
/// 2-byte `(offset:12, len-3:4)` match reference.
pub fn lz_compress(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 4095;
    const MIN: usize = 3;
    const MAX: usize = 18;
    const HASH_BITS: u32 = 13;
    const NIL: usize = usize::MAX;
    // Hash-chain match finder: every position is indexed by the hash of
    // its next 3 bytes; candidates come from walking the chain for the
    // current hash instead of scanning the whole window. Any match of
    // length >= MIN shares its first 3 bytes with the target, so the
    // chain sees every candidate the former O(n*window) greedy scan saw
    // and the chosen match length — hence the compressed size — is
    // identical.
    #[inline]
    fn hash3(data: &[u8], p: usize) -> usize {
        let v = u32::from(data[p]) | (u32::from(data[p + 1]) << 8) | (u32::from(data[p + 2]) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }
    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; data.len()];
    let insert = |head: &mut [usize], prev: &mut [usize], p: usize| {
        if p + MIN <= data.len() {
            let h = hash3(data, p);
            prev[p] = head[h];
            head[h] = p;
        }
    };
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    let mut flags_at = usize::MAX;
    let mut flag_bit = 8;
    while i < data.len() {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        let start = i.saturating_sub(WINDOW);
        let mut best_len = 0;
        let mut best_off = 0;
        let limit = (data.len() - i).min(MAX);
        if limit >= MIN {
            let mut j = head[hash3(data, i)];
            while j != NIL && j >= start {
                let mut l = 0;
                while l < limit && data[j + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - j;
                    if l == limit {
                        break;
                    }
                }
                j = prev[j];
            }
        }
        if best_len >= MIN {
            out[flags_at] |= 1 << flag_bit;
            let token = ((best_off as u16) << 4) | ((best_len - MIN) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // Positions covered by the match still enter the index so
            // later targets can match into them.
            for p in i..i + best_len {
                insert(&mut head, &mut prev, p);
            }
            i += best_len;
        } else {
            insert(&mut head, &mut prev, i);
            out.push(data[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Decompress [`lz_compress`] output (used by tests to prove losslessness).
pub fn lz_decompress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let off = (token >> 4) as usize;
                let len = (token & 0xF) as usize + 3;
                let from = out.len() - off;
                for k in 0..len {
                    let b = out[from + k];
                    out.push(b);
                }
            } else {
                out.push(data[i]);
                i += 1;
            }
        }
    }
    out
}

/// Format a byte count as fractional KB, Figure-5 style.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// A minimal JSON value, produced by [`parse_json`]. Just enough to
/// validate the benchmark artifacts this crate emits (no external
/// dependencies allowed in this workspace).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for our own artifacts).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = json_value(b, &mut i)?;
    json_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(v)
}

fn json_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn json_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    json_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            json_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                json_ws(b, i);
                let k = match json_value(b, i)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                json_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}", i = *i));
                }
                *i += 1;
                fields.push((k, json_value(b, i)?));
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            json_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(json_value(b, i)?);
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match b.get(*i) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *i += 1;
                        match b.get(*i) {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'u') => {
                                let hex = b.get(*i + 1..*i + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *i += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *i += 1;
                    }
                    Some(_) => {
                        let start = *i;
                        while *i < b.len() && b[*i] != b'"' && b[*i] != b'\\' {
                            *i += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&b[start..*i]).map_err(|_| "invalid UTF-8")?,
                        );
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            *i += 1;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(_) => {
            for (lit, v) in [
                ("null", Json::Null),
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
            ] {
                if b[*i..].starts_with(lit.as_bytes()) {
                    *i += lit.len();
                    return Ok(v);
                }
            }
            Err(format!("unexpected byte at {i}", i = *i))
        }
    }
}

/// Validate a `BENCH_vm.json` document against the `lpat-bench-vm/v5`
/// schema: four engines (`interp` and three rows of the one tiered
/// engine, whose ladder is interpreter ⇄ machine code), each row with
/// its median wall time and interquartile range, each tiered row with
/// the one rung's translation/promotion/OSR/instruction counters and
/// its demotions split by bail reason (`demoted_by`: keys from
/// `lpat_codegen::fast::bail::ALL`, summing to `demoted`), plus the
/// tiered-vs-interp, warm-vs-cold and spec-vs-cold geomeans. Earlier
/// schema tags are rejected outright — a v4 file benchmarks a JIT rung
/// that no longer exists and must be regenerated. Used by `vmperf` to
/// self-check its output and by the CI smoke job to validate the
/// committed artifact.
pub fn validate_vm_bench(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("schema").and_then(Json::str) != Some("lpat-bench-vm/v5") {
        return Err("schema must be \"lpat-bench-vm/v5\"".into());
    }
    for key in ["scale", "reps"] {
        doc.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::arr)
        .ok_or("missing 'workloads' array")?;
    if workloads.is_empty() {
        return Err("'workloads' must be non-empty".into());
    }
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::str)
            .ok_or("workload missing 'name'")?;
        let engines = w
            .get("engines")
            .ok_or_else(|| format!("{name}: missing 'engines'"))?;
        for eng in ["interp", "tiered", "tiered_warm", "tiered_spec"] {
            let e = engines
                .get(eng)
                .ok_or_else(|| format!("{name}: missing engine '{eng}'"))?;
            for field in ["wall_ms", "wall_iqr_ms", "insts", "insts_per_sec"] {
                e.get(field)
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{name}.{eng}: missing numeric '{field}'"))?;
            }
            if eng != "interp" {
                for field in ["translate_ms", "promoted", "osr", "warmed", "native_insts"] {
                    e.get(field)
                        .and_then(Json::num)
                        .ok_or_else(|| format!("{name}.{eng}: missing '{field}'"))?;
                }
                let want = e
                    .get("demoted")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{name}.{eng}: missing 'demoted'"))?;
                let Some(Json::Obj(reasons)) = e.get("demoted_by") else {
                    return Err(format!("{name}.{eng}: missing object 'demoted_by'"));
                };
                let mut sum = 0.0;
                for (reason, n) in reasons {
                    if !lpat_codegen::fast::bail::ALL.contains(&reason.as_str()) {
                        return Err(format!(
                            "{name}.{eng}.demoted_by: unknown reason '{reason}'"
                        ));
                    }
                    sum += n
                        .num()
                        .ok_or_else(|| format!("{name}.{eng}.demoted_by.{reason}: not a number"))?;
                }
                if sum != want {
                    return Err(format!(
                        "{name}.{eng}: 'demoted_by' sums to {sum}, 'demoted' is {want}"
                    ));
                }
            }
            if eng == "tiered_spec" {
                for field in ["guards", "guard_passed", "guard_failed", "deopts"] {
                    e.get(field)
                        .and_then(Json::num)
                        .ok_or_else(|| format!("{name}.{eng}: missing '{field}'"))?;
                }
            }
        }
    }
    for key in [
        "geomean_speedup_tiered_vs_interp",
        "geomean_speedup_warm_vs_cold",
        "geomean_speedup_spec_warm_vs_cold",
    ] {
        doc.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
    }
    Ok(())
}

/// Validate a `BENCH_serve.json` document against the
/// `lpat-bench-serve/v2` schema: a `servebench` load-generation run
/// against `lpatd` with at least 8 concurrent clients, client-side
/// latency percentiles, the server-side log-linear quantiles lifted
/// from the scraped stats (`server_quantiles`), and the server's own
/// `serve.*` counters plus quantile telemetry (the shed/error
/// evidence). Used by `servebench` to self-check its output and by the
/// CI smoke job to validate the committed artifact.
pub fn validate_serve_bench(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("schema").and_then(Json::str) != Some("lpat-bench-serve/v2") {
        return Err("schema must be \"lpat-bench-serve/v2\"".into());
    }
    for key in [
        "clients",
        "requests_per_client",
        "workers",
        "queue_depth",
        "duration_ms",
        "requests",
        "ok",
        "errors",
        "busy",
        "requests_per_sec",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
    ] {
        doc.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
    }
    let clients = doc.get("clients").and_then(Json::num).unwrap_or(0.0);
    if clients < 8.0 {
        return Err(format!(
            "'clients' must be >= 8 (concurrency is the point), got {clients}"
        ));
    }
    if doc.get("errors").and_then(Json::num).unwrap_or(0.0) < 1.0 {
        return Err("'errors' must be >= 1 (the hostile-request mix must register)".into());
    }
    let lat = doc.get("latency_ms").ok_or("missing 'latency_ms' object")?;
    for key in ["p50", "p90", "p99", "max"] {
        lat.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("latency_ms: missing numeric '{key}'"))?;
    }
    // Server-side quantiles lifted out of the scraped stats: pure service
    // time next to the client's wall-clock view; the gap is the queue.
    let sq = doc
        .get("server_quantiles")
        .ok_or("missing 'server_quantiles' object")?;
    for hist in ["latency_us", "queue_wait_us"] {
        let h = sq
            .get(hist)
            .ok_or_else(|| format!("server_quantiles: missing '{hist}' object"))?;
        for key in ["count", "p50", "p90", "p99", "max"] {
            h.get(key)
                .and_then(Json::num)
                .ok_or_else(|| format!("server_quantiles.{hist}: missing numeric '{key}'"))?;
        }
    }
    // The server's own counters, scraped over the wire via the Stats op:
    // this is where the shed evidence lives even when every client-side
    // Busy was retried away.
    let server = doc.get("server").ok_or("missing 'server' object")?;
    if server.get("schema").and_then(Json::str) != Some("lpat-serve-stats/v2") {
        return Err("server.schema must be \"lpat-serve-stats/v2\"".into());
    }
    for key in [
        "requests",
        "ok",
        "errors",
        "busy",
        "shed_queue",
        "busy_tenant",
    ] {
        server
            .get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("server: missing numeric '{key}'"))?;
    }
    server
        .get("quantiles")
        .ok_or("server: missing 'quantiles' object")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"hello".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            (0..255u8).cycle().take(5000).collect(),
            vec![7; 10_000],
        ];
        for c in cases {
            let z = lz_compress(&c);
            assert_eq!(lz_decompress(&z), c);
        }
    }

    #[test]
    fn lz_compresses_bytecode_substantially() {
        let (_, m) = &lpat_workloads::compile_suite(10)[0];
        let bytes = lpat_bytecode::write_module(m);
        let z = lz_compress(&bytes);
        let ratio = z.len() as f64 / bytes.len() as f64;
        assert!(ratio < 0.75, "compression ratio {ratio}");
        assert_eq!(lz_decompress(&z), bytes);
    }

    /// The original O(n*window) greedy scan, kept as the size oracle:
    /// the hash-chain finder must never compress worse than this.
    fn greedy_reference(data: &[u8]) -> Vec<u8> {
        const WINDOW: usize = 4095;
        const MIN: usize = 3;
        const MAX: usize = 18;
        let mut out = Vec::new();
        let mut i = 0;
        let mut flags_at = usize::MAX;
        let mut flag_bit = 8;
        while i < data.len() {
            if flag_bit == 8 {
                flags_at = out.len();
                out.push(0);
                flag_bit = 0;
            }
            let start = i.saturating_sub(WINDOW);
            let mut best_len = 0;
            let mut best_off = 0;
            let limit = (data.len() - i).min(MAX);
            if limit >= MIN {
                let mut j = start;
                while j < i {
                    let mut l = 0;
                    while l < limit && data[j + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - j;
                        if l == limit {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if best_len >= MIN {
                out[flags_at] |= 1 << flag_bit;
                let token = ((best_off as u16) << 4) | ((best_len - MIN) as u16);
                out.extend_from_slice(&token.to_le_bytes());
                i += best_len;
            } else {
                out.push(data[i]);
                i += 1;
            }
            flag_bit += 1;
        }
        out
    }

    #[test]
    fn lz_roundtrips_all_workload_images_no_worse_than_greedy() {
        for (name, m) in &lpat_workloads::compile_suite(10) {
            let bytes = lpat_bytecode::write_module(m);
            let z = lz_compress(&bytes);
            assert_eq!(lz_decompress(&z), bytes, "round-trip failed for {name}");
            let g = greedy_reference(&bytes);
            assert!(
                z.len() <= g.len(),
                "{name}: hash-chain {} bytes > greedy {} bytes",
                z.len(),
                g.len()
            );
        }
    }

    #[test]
    fn json_parser_handles_the_shapes_we_emit() {
        let doc = r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -3e2}}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::num), Some(1.5));
        let b = v.get("b").and_then(Json::arr).unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].str(), Some("x\n\"y\""));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::num),
            Some(-300.0)
        );
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn vm_bench_validator_accepts_good_and_rejects_bad() {
        let good = r#"{
  "schema": "lpat-bench-vm/v5", "scale": 0, "reps": 11,
  "workloads": [
    {"name": "w", "engines": {
      "interp": {"wall_ms": 1, "wall_iqr_ms": 0.1, "insts": 10, "insts_per_sec": 10000},
      "tiered": {"wall_ms": 1, "wall_iqr_ms": 0.1, "insts": 10, "insts_per_sec": 10000,
                 "translate_ms": 0.1, "promoted": 2, "warmed": 0, "osr": 1,
                 "native_insts": 5, "demoted": 3,
                 "demoted_by": {"varargs": 2, "injected_fault": 1}},
      "tiered_warm": {"wall_ms": 1, "wall_iqr_ms": 0.1, "insts": 10, "insts_per_sec": 10000,
                      "translate_ms": 0.1, "promoted": 2, "warmed": 2, "osr": 0,
                      "native_insts": 5, "demoted": 0, "demoted_by": {}},
      "tiered_spec": {"wall_ms": 1, "wall_iqr_ms": 0.1, "insts": 10, "insts_per_sec": 10000,
                      "translate_ms": 0.1, "promoted": 2, "warmed": 2, "osr": 0,
                      "native_insts": 5, "demoted": 0, "demoted_by": {},
                      "guards": 1, "guard_passed": 9, "guard_failed": 1, "deopts": 1}
    }}
  ],
  "geomean_speedup_tiered_vs_interp": 1.8,
  "geomean_speedup_warm_vs_cold": 1.1,
  "geomean_speedup_spec_warm_vs_cold": 1.4
}"#;
        validate_vm_bench(good).unwrap();
        assert!(validate_vm_bench("{}").is_err());
        // Earlier schema tags must be rejected: a v4 file benchmarks the
        // deleted JIT rung.
        for old in ["v1", "v2", "v3", "v4"] {
            let tag = format!("lpat-bench-vm/{old}");
            assert!(validate_vm_bench(&good.replace("lpat-bench-vm/v5", &tag)).is_err());
        }
        assert!(validate_vm_bench(&good.replace("\"tiered\":", "\"other\":")).is_err());
        assert!(validate_vm_bench(&good.replace("\"promoted\": 2,", "")).is_err());
        assert!(validate_vm_bench(&good.replacen("\"wall_iqr_ms\": 0.1,", "", 1)).is_err());
        assert!(validate_vm_bench(&good.replace("\"native_insts\": 5,", "")).is_err());
        assert!(validate_vm_bench(&good.replace("\"guards\": 1,", "")).is_err());
        // Demotion reasons: closed key set, and they add up. Reasons the
        // backend no longer has are unknown.
        assert!(validate_vm_bench(&good.replace("\"varargs\": 2", "\"float\": 2")).is_err());
        assert!(validate_vm_bench(&good.replace("\"varargs\": 2", "\"varargs\": 1")).is_err());
        assert!(validate_vm_bench(&good.replacen("\"demoted_by\": {},", "", 1)).is_err());
        assert!(validate_vm_bench(
            &good.replace("\"geomean_speedup_spec_warm_vs_cold\": 1.4", "\"x\": 1")
        )
        .is_err());
    }

    #[test]
    fn committed_bench_vm_artifact_is_valid() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_vm.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with vmperf)", path.display()));
        validate_vm_bench(&text).unwrap_or_else(|e| panic!("committed BENCH_vm.json: {e}"));
        // The committed rows are medians of at least ten reps.
        let reps = parse_json(&text).unwrap().get("reps").and_then(Json::num);
        assert!(reps >= Some(10.0), "committed BENCH_vm.json: reps {reps:?}");
    }

    #[test]
    fn serve_bench_validator_accepts_good_and_rejects_bad() {
        let good = r#"{
  "schema": "lpat-bench-serve/v2",
  "clients": 8, "requests_per_client": 40, "workers": 2, "queue_depth": 2,
  "duration_ms": 1234.5, "requests": 320, "ok": 290, "errors": 20, "busy": 10,
  "requests_per_sec": 259.2,
  "cache_hits": 250, "cache_misses": 40, "cache_hit_rate": 0.862,
  "latency_ms": {"p50": 1.2, "p90": 4.5, "p99": 20.1, "max": 55.0},
  "server_quantiles": {
    "latency_us": {"count": 290, "p50": 900, "p90": 3800, "p99": 18000, "max": 52000},
    "queue_wait_us": {"count": 321, "p50": 120, "p90": 900, "p99": 4100, "max": 9000}
  },
  "server": {"schema": "lpat-serve-stats/v2",
             "requests": 321, "ok": 290, "errors": 20, "busy": 11,
             "shed_queue": 9, "busy_tenant": 2,
             "quantiles": {"latency_us": {}, "queue_wait_us": {}}}
}"#;
        validate_serve_bench(good).unwrap();
        assert!(validate_serve_bench("{}").is_err());
        // Fewer than 8 clients defeats the point of a concurrency bench.
        assert!(validate_serve_bench(&good.replace("\"clients\": 8", "\"clients\": 4")).is_err());
        // The hostile-request mix must register as errors.
        assert!(validate_serve_bench(&good.replace("\"errors\": 20,", "\"errors\": 0,")).is_err());
        assert!(validate_serve_bench(&good.replace("\"shed_queue\": 9,", "")).is_err());
        assert!(validate_serve_bench(&good.replace("\"p99\": 20.1,", "")).is_err());
        // v2 additions must be present: the lifted server-side quantiles,
        // the stats schema tag, and the embedded telemetry section.
        assert!(validate_serve_bench(&good.replace("\"server_quantiles\"", "\"sq\"")).is_err());
        assert!(validate_serve_bench(&good.replace(
            "\"queue_wait_us\": {\"count\": 321",
            "\"queue_wait_us\": {\"n\": 321"
        ))
        .is_err());
        assert!(
            validate_serve_bench(&good.replace("lpat-serve-stats/v2", "lpat-serve-stats/v1"))
                .is_err()
        );
        assert!(validate_serve_bench(&good.replace("\"quantiles\":", "\"histograms\":")).is_err());
        // Pre-telemetry v1 artifacts are rejected outright.
        assert!(
            validate_serve_bench(&good.replace("lpat-bench-serve/v2", "lpat-bench-serve/v1"))
                .is_err()
        );
    }

    #[test]
    fn committed_bench_serve_artifact_is_valid() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_serve.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with servebench)", path.display()));
        validate_serve_bench(&text).unwrap_or_else(|e| panic!("committed BENCH_serve.json: {e}"));
    }

    #[test]
    fn prepare_produces_ssa_modules() {
        let w = &lpat_workloads::suite(0)[0];
        let m = prepare(w.name, &w.source);
        assert!(!m.display().contains("alloca"));
    }
}
