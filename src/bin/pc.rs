//! `pc` — a small command-line front end to the Probable Cause toolkit.
//!
//! ```text
//! pc characterize --db DB --label NAME EXACT.pgm APPROX.pgm [APPROX.pgm...]
//!     Build (or extend) a fingerprint database from approximate outputs of
//!     a known exact image.
//!
//! pc identify --db DB EXACT.pgm APPROX.pgm
//!     Attribute an approximate output to a fingerprinted device.
//!
//! pc demo
//!     Simulate two devices end to end and show attribution working.
//!
//! pc serve [--addr HOST:PORT] [--db DB] [--index IDX]
//!          [--queue-capacity N] [--threshold T] [--timeout-ms MS]
//!          [--slow-ms MS] [--flight-recorder-len N] [--no-trace]
//!          [--faults SPEC] [--watch-stdin] [--replica-id NAME]
//!     Run the identification server (pc-service). Prints the bound address,
//!     then blocks until a `shutdown` request arrives (or stdin closes, with
//!     --watch-stdin); shutdown drains in-flight requests and persists the
//!     database and routing index to --db/--index atomically. --timeout-ms
//!     bounds each connection's frame reads and response writes; --faults
//!     arms deterministic fault injection (see `pc_faults`) for chaos tests.
//!     --slow-ms (or PC_SLOW_MS) sets the slow-query threshold: breaching
//!     requests log a structured `slow_query` event and dump the flight
//!     recorder (the last --flight-recorder-len request traces) to the
//!     telemetry sink. --no-trace turns per-request tracing off entirely —
//!     zero clock reads on the request path. --replica-id names this
//!     server in `ring-status` output when it serves behind `pc route`.
//!
//! pc route --replica HOST:PORT [--replica HOST:PORT ...] [--addr HOST:PORT]
//!          [--retry-after-ms MS] [--checkpoint-every N]
//!          [--probe-interval-ms MS] [--timeout-ms MS]
//!          [--slow-ms MS] [--flight-recorder-len N] [--no-trace]
//!          [--faults SPEC] [--watch-stdin]
//!     Run the routing tier in front of N replica servers. Reads route by
//!     the query's content key along a deterministic rendezvous ranking
//!     and fail over to the next live replica; writes fan out to every
//!     live replica with a per-replica pending-write journal replayed when
//!     a dead replica rejoins (sequence-tagged, so rejoining replicas skip
//!     entries they already applied). Journals truncate at checkpoints:
//!     client saves, or router-initiated once a live journal reaches
//!     --checkpoint-every pending entries (0 disables). When no replica is
//!     reachable, the router sheds with `busy` + --retry-after-ms instead
//!     of erroring. Replica health is probed every --probe-interval-ms with
//!     capped-exponential backoff toward down replicas.
//!
//! pc ring-status --addr HOST:PORT [--json] [--timeout-ms MS]
//!     One `ring-status` request: the router's failover / shed / replay
//!     counters and per-replica health (state, pending journal depth,
//!     failures). Against a plain server it reports role "replica" and its
//!     identity.
//!
//! pc query [--timeout-ms MS] [--retries N] [--backoff-ms MS]
//!          --addr HOST:PORT ping|stats|metrics|trace-dump|save|shutdown
//! pc query --addr HOST:PORT [--trace] identify|cluster-ingest (--bits P,P,... --size N | EXACT.pgm APPROX.pgm)
//! pc query --addr HOST:PORT characterize --label NAME (--bits ... --size N | EXACT.pgm APPROX.pgm)
//!     One request against a running server or router. Error bits come from a
//!     PGM pair (approx XOR exact) or directly from --bits/--size. `busy`
//!     responses are retried with capped exponential back-off and jitter —
//!     --retries caps the attempts, --backoff-ms sets the base pause, and a
//!     routed `retry_after_ms` hint from a shedding router overrides the
//!     computed pause — bounded by --timeout-ms (which also caps
//!     connect/read/write); on exhaustion the error reports how long the
//!     client waited. Transient transport failures redial the address. `save`
//!     checkpoints the server's database to disk without stopping it.
//!     --trace asks the server for a per-stage latency breakdown (decode,
//!     queue wait, score, other) printed under the response; `metrics`
//!     prints per-op latency quantiles (--json emits the raw wire frame);
//!     `trace-dump` prints the server's flight recorder.
//!
//! pc top --addr HOST:PORT [--interval-ms MS] [--iterations N]
//!     Live serving dashboard: polls `metrics` and renders per-op
//!     qps/p50/p99/max plus queue depth and slow-request count.
//!     --iterations bounds the refresh count (0 = forever).
//!     The qps column shows `--` until a second sample establishes a
//!     delta, and again whenever a counter runs backwards (server
//!     restart) rather than inventing a rate.
//!
//! pc analyze [--root DIR] [--format text|json] [--baseline PATH]
//!            [--update-baseline] [--list]
//!     Run the workspace invariant checker (pc-analyze): determinism,
//!     panic-safety, unsafe-hygiene, and wire-contract lints over the
//!     source tree, governed by analysis-baseline.json. Exits 0 when
//!     clean, 1 on findings, 2 on internal error.
//!
//! pc version
//!     Report the toolkit version, git revision, and build configuration.
//! ```
//!
//! The database is the text format of `probable_cause::persistence`.
//! `--telemetry PATH` (or the `PC_TELEMETRY` environment variable) streams
//! structured JSON-lines events and enables the metric counters.

use probable_cause_repro::core::persistence::{load_db, save_db};
use probable_cause_repro::core::{characterize, ErrorString, FingerprintDb, PcDistance};
use probable_cause_repro::image::read_pgm;
use probable_cause_repro::prelude::*;
use probable_cause_repro::service::protocol::{Request, Response};
use probable_cause_repro::service::server::{self, ServerConfig};
use probable_cause_repro::service::{
    router, ConnectOptions, RetryPolicy, ServiceClient, StoreConfig,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = dispatch(args);
    if let Some(collector) = pc_telemetry::global() {
        let mut fields = pc_telemetry::JsonObject::new();
        fields.set("ok", result.is_ok());
        for (name, value) in collector.counters_snapshot() {
            fields.set(&name, value);
        }
        collector.emit("cli.complete", fields);
        collector.flush();
    }
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pc: {msg}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let args = init_telemetry(args)?;
    match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("identify") => cmd_identify(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("route") => cmd_route(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("ring-status") => cmd_ring_status(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("query") => cmd_query(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("top") => cmd_top(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("demo") => cmd_demo().map(|()| ExitCode::SUCCESS),
        // pc-analyze reports its own errors and encodes them in the exit
        // code (0 clean, 1 findings, 2 internal), so no Err mapping here.
        Some("analyze") => Ok(ExitCode::from(pc_analysis::run_cli(&args[1..]))),
        Some("version" | "--version" | "-V") => cmd_version().map(|()| ExitCode::SUCCESS),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// Consumes a global `--telemetry PATH` flag (falling back to the
/// `PC_TELEMETRY` environment variable) and installs the collector with a
/// JSON-lines event sink at that path; without either, telemetry stays
/// disabled and costs one atomic load per instrumented call.
fn init_telemetry(args: Vec<String>) -> Result<Vec<String>, String> {
    let (flag, rest) = take_optional_flag(&args, "--telemetry")?;
    let sink = flag.or_else(|| std::env::var("PC_TELEMETRY").ok());
    if let Some(path) = sink {
        pc_telemetry::install_with_sink(Path::new(&path))
            .map_err(|e| format!("cannot open telemetry sink {path}: {e}"))?;
    }
    Ok(rest)
}

fn print_usage() {
    println!(
        "pc — Probable Cause: deanonymize approximate-DRAM outputs\n\
         \n\
         usage:\n\
         \x20 pc characterize --db DB --label NAME EXACT.pgm APPROX.pgm [APPROX.pgm...]\n\
         \x20 pc identify    --db DB EXACT.pgm APPROX.pgm\n\
         \x20 pc serve       [--addr HOST:PORT] [--db DB] [--index IDX]\n\
         \x20                [--queue-capacity N] [--threshold T] [--timeout-ms MS]\n\
         \x20                [--slow-ms MS] [--flight-recorder-len N] [--no-trace]\n\
         \x20                [--faults SPEC] [--watch-stdin] [--replica-id NAME]\n\
         \x20 pc route       --replica HOST:PORT [--replica HOST:PORT ...]\n\
         \x20                [--addr HOST:PORT] [--retry-after-ms MS]\n\
         \x20                [--checkpoint-every N] [--probe-interval-ms MS]\n\
         \x20                [--timeout-ms MS]\n\
         \x20                [--slow-ms MS] [--flight-recorder-len N] [--no-trace]\n\
         \x20                [--faults SPEC] [--watch-stdin]\n\
         \x20 pc ring-status --addr HOST:PORT [--json] [--timeout-ms MS]\n\
         \x20 pc query       [--timeout-ms MS] [--retries N] [--backoff-ms MS]\n\
         \x20                --addr HOST:PORT\n\
         \x20                ping|stats|metrics|trace-dump|save|shutdown [--json]\n\
         \x20 pc query       --addr HOST:PORT [--trace] identify|characterize|cluster-ingest\n\
         \x20                [--label NAME] (--bits P,P,... --size N | EXACT.pgm APPROX.pgm)\n\
         \x20 pc top         --addr HOST:PORT [--interval-ms MS] [--iterations N]\n\
         \x20 pc analyze     [--root DIR] [--format text|json] [--baseline PATH]\n\
         \x20                [--update-baseline] [--list]\n\
         \x20 pc demo\n\
         \x20 pc version\n\
         \n\
         options:\n\
         \x20 --telemetry PATH   stream JSON-lines telemetry events to PATH\n\
         \x20                    (or set PC_TELEMETRY=PATH)"
    );
}

fn cmd_version() -> Result<(), String> {
    println!("pc {}", env!("CARGO_PKG_VERSION"));
    println!("git:       {}", pc_telemetry::manifest::git_describe());
    println!(
        "build:     {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "telemetry: {}",
        if pc_telemetry::enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );
    // The workspace compiles its vendored dependency shims unconditionally;
    // no cargo features gate functionality today.
    println!("features:  default");
    Ok(())
}

/// Pulls `--flag value` out of an argument list, returning (value, rest).
fn take_flag(args: &[String], flag: &str) -> Result<(String, Vec<String>), String> {
    match take_optional_flag(args, flag)? {
        (Some(value), rest) => Ok((value, rest)),
        (None, _) => Err(format!("missing required {flag}")),
    }
}

/// Pulls a valueless `--switch` out of an argument list, returning
/// (present, rest).
fn take_switch(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return (false, args.to_vec());
    };
    let mut rest = args.to_vec();
    rest.remove(pos);
    (true, rest)
}

/// Pulls every occurrence of `--flag value`, returning (values, rest).
fn take_repeated_flag(args: &[String], flag: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let mut values = Vec::new();
    let mut rest = args.to_vec();
    while let (Some(value), remaining) = take_optional_flag(&rest, flag)? {
        values.push(value);
        rest = remaining;
    }
    Ok((values, rest))
}

/// Like [`take_flag`] for a flag that may be absent.
fn take_optional_flag(
    args: &[String],
    flag: &str,
) -> Result<(Option<String>, Vec<String>), String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok((None, args.to_vec()));
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .clone();
    let mut rest = args.to_vec();
    rest.drain(pos..=pos + 1);
    Ok((Some(value), rest))
}

fn read_image(path: &str) -> Result<GrayImage, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_pgm(BufReader::new(f)).map_err(|e| format!("cannot read {path}: {e}"))
}

fn errors_between(exact: &GrayImage, approx_path: &str) -> Result<ErrorString, String> {
    let approx = read_image(approx_path)?;
    if (approx.width(), approx.height()) != (exact.width(), exact.height()) {
        return Err(format!(
            "{approx_path}: dimensions {}x{} do not match the exact image",
            approx.width(),
            approx.height()
        ));
    }
    Ok(ErrorString::from_xor(approx.as_bytes(), exact.as_bytes()))
}

fn load_or_new_db(path: &str) -> Result<FingerprintDb<String, PcDistance>, String> {
    if Path::new(path).exists() {
        let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        load_db(BufReader::new(f)).map_err(|e| format!("cannot load {path}: {e}"))
    } else {
        Ok(FingerprintDb::new(PcDistance::new(), 0.25))
    }
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let (db_path, rest) = take_flag(args, "--db")?;
    let (label, files) = take_flag(&rest, "--label")?;
    let (exact_path, approx_paths) = files
        .split_first()
        .ok_or("need an exact image and at least one approximate image")?;
    if approx_paths.is_empty() {
        return Err("need at least one approximate image".into());
    }

    let exact = read_image(exact_path)?;
    let observations: Vec<ErrorString> = approx_paths
        .iter()
        .map(|p| errors_between(&exact, p))
        .collect::<Result<_, _>>()?;
    let fp = characterize(&observations).map_err(|e| e.to_string())?;
    println!(
        "fingerprint {label:?}: {} stable error bits from {} outputs",
        fp.weight(),
        fp.observations()
    );

    let mut db = load_or_new_db(&db_path)?;
    db.insert(label, fp);
    let f = File::create(&db_path).map_err(|e| format!("cannot write {db_path}: {e}"))?;
    save_db(&db, BufWriter::new(f)).map_err(|e| format!("cannot write {db_path}: {e}"))?;
    println!("database {db_path} now holds {} fingerprint(s)", db.len());
    Ok(())
}

fn cmd_identify(args: &[String]) -> Result<(), String> {
    let (db_path, files) = take_flag(args, "--db")?;
    let [exact_path, approx_path] = files.as_slice() else {
        return Err("identify needs exactly: EXACT.pgm APPROX.pgm".into());
    };
    let exact = read_image(exact_path)?;
    let errors = errors_between(&exact, approx_path)?;
    let f = File::open(&db_path).map_err(|e| format!("cannot open {db_path}: {e}"))?;
    let db = load_db(BufReader::new(f)).map_err(|e| format!("cannot load {db_path}: {e}"))?;

    println!("{} error bits in the output", errors.weight());
    match db.identify_best(&errors) {
        Some((label, d)) if d < db.threshold() => {
            println!(
                "MATCH: {label} (distance {d:.4}, threshold {})",
                db.threshold()
            );
        }
        Some((label, d)) => {
            println!(
                "no match (closest: {label} at distance {d:.4}, threshold {})",
                db.threshold()
            );
        }
        None => println!("database is empty"),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_optional_flag(args, "--addr")?;
    let (db_path, rest) = take_optional_flag(&rest, "--db")?;
    let (index_path, rest) = take_optional_flag(&rest, "--index")?;
    let (queue_capacity, rest) = take_optional_flag(&rest, "--queue-capacity")?;
    let (threshold, rest) = take_optional_flag(&rest, "--threshold")?;
    let (timeout_ms, rest) = take_optional_flag(&rest, "--timeout-ms")?;
    let (slow_ms, rest) = take_optional_flag(&rest, "--slow-ms")?;
    let (recorder_len, rest) = take_optional_flag(&rest, "--flight-recorder-len")?;
    let (no_trace, rest) = take_switch(&rest, "--no-trace");
    let (faults, rest) = take_optional_flag(&rest, "--faults")?;
    let (watch_stdin, rest) = take_switch(&rest, "--watch-stdin");
    let (replica_id, rest) = take_optional_flag(&rest, "--replica-id")?;
    if let Some(extra) = rest.first() {
        return Err(format!("serve does not take {extra:?}"));
    }

    if let Some(spec) = faults {
        let plan = probable_cause_repro::faults::FaultPlan::parse(&spec)
            .map_err(|e| format!("bad --faults {spec:?}: {e}"))?;
        probable_cause_repro::faults::install(plan);
        println!("fault injection armed: {spec}");
    }

    let mut store = StoreConfig::default();
    if let Some(t) = threshold {
        store.threshold = t.parse().map_err(|_| format!("bad --threshold {t:?}"))?;
    }
    let mut config = ServerConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        store,
        db_path: db_path.map(Into::into),
        index_path: index_path.map(Into::into),
        replica_id,
        ..ServerConfig::default()
    };
    if let Some(n) = queue_capacity {
        config.queue_capacity = n
            .parse()
            .map_err(|_| format!("bad --queue-capacity {n:?}"))?;
    }
    if let Some(ms) = timeout_ms {
        let ms: u64 = ms.parse().map_err(|_| format!("bad --timeout-ms {ms:?}"))?;
        config.frame_timeout_ms = Some(ms);
        config.write_timeout_ms = Some(ms);
    }
    // --slow-ms wins over the PC_SLOW_MS environment fallback.
    if let Some(ms) = slow_ms.or_else(|| std::env::var("PC_SLOW_MS").ok()) {
        config.slow_ms = Some(ms.parse().map_err(|_| format!("bad --slow-ms {ms:?}"))?);
    }
    if let Some(n) = recorder_len {
        config.flight_recorder_len = n
            .parse()
            .map_err(|_| format!("bad --flight-recorder-len {n:?}"))?;
    }
    config.trace = !no_trace;

    let handle = server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("pc-service listening on {}", handle.local_addr());
    println!(
        "{} fingerprint(s) loaded; send a `shutdown` request to stop",
        handle.store().len()
    );
    std::io::stdout().flush().ok();

    if watch_stdin {
        // Graceful stop when our input closes (e.g. the launching pipe ends).
        let trigger = handle.trigger();
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            trigger.shutdown();
        });
    }
    handle
        .wait()
        .map_err(|e| format!("server teardown failed: {e}"))?;
    println!("pc-service drained and stopped");
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_optional_flag(args, "--addr")?;
    let (replicas, rest) = take_repeated_flag(&rest, "--replica")?;
    let (retry_after, rest) = take_optional_flag(&rest, "--retry-after-ms")?;
    let (checkpoint_every, rest) = take_optional_flag(&rest, "--checkpoint-every")?;
    let (probe_interval, rest) = take_optional_flag(&rest, "--probe-interval-ms")?;
    let (timeout_ms, rest) = take_optional_flag(&rest, "--timeout-ms")?;
    let (slow_ms, rest) = take_optional_flag(&rest, "--slow-ms")?;
    let (recorder_len, rest) = take_optional_flag(&rest, "--flight-recorder-len")?;
    let (no_trace, rest) = take_switch(&rest, "--no-trace");
    let (faults, rest) = take_optional_flag(&rest, "--faults")?;
    let (watch_stdin, rest) = take_switch(&rest, "--watch-stdin");
    if let Some(extra) = rest.first() {
        return Err(format!("route does not take {extra:?}"));
    }
    if replicas.is_empty() {
        return Err("route needs at least one --replica HOST:PORT".into());
    }

    if let Some(spec) = faults {
        let plan = probable_cause_repro::faults::FaultPlan::parse(&spec)
            .map_err(|e| format!("bad --faults {spec:?}: {e}"))?;
        probable_cause_repro::faults::install(plan);
        println!("fault injection armed: {spec}");
    }

    let mut config = router::RouterConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        replicas,
        ..router::RouterConfig::default()
    };
    if let Some(ms) = retry_after {
        config.retry_after_ms = ms
            .parse()
            .map_err(|_| format!("bad --retry-after-ms {ms:?}"))?;
    }
    if let Some(n) = checkpoint_every {
        config.checkpoint_every = n
            .parse()
            .map_err(|_| format!("bad --checkpoint-every {n:?}"))?;
    }
    if let Some(ms) = probe_interval {
        config.probe_interval_ms = ms
            .parse()
            .map_err(|_| format!("bad --probe-interval-ms {ms:?}"))?;
    }
    if let Some(ms) = timeout_ms {
        let ms: u64 = ms.parse().map_err(|_| format!("bad --timeout-ms {ms:?}"))?;
        config.forward_timeout_ms = ms;
        config.write_timeout_ms = Some(ms);
    }
    if let Some(ms) = slow_ms.or_else(|| std::env::var("PC_SLOW_MS").ok()) {
        config.slow_ms = Some(ms.parse().map_err(|_| format!("bad --slow-ms {ms:?}"))?);
    }
    if let Some(n) = recorder_len {
        config.flight_recorder_len = n
            .parse()
            .map_err(|_| format!("bad --flight-recorder-len {n:?}"))?;
    }
    config.trace = !no_trace;

    let replica_count = config.replicas.len();
    let handle = router::start(config).map_err(|e| format!("cannot start router: {e}"))?;
    println!("pc-route listening on {}", handle.local_addr());
    println!("{replica_count} replica(s); send a `shutdown` request to stop");
    std::io::stdout().flush().ok();

    if watch_stdin {
        let trigger = handle.trigger();
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            trigger.shutdown();
        });
    }
    handle
        .wait()
        .map_err(|e| format!("router teardown failed: {e}"))?;
    println!("pc-route drained and stopped");
    Ok(())
}

fn cmd_ring_status(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_flag(args, "--addr")?;
    let (json, rest) = take_switch(&rest, "--json");
    let (timeout_ms, rest) = take_optional_flag(&rest, "--timeout-ms")?;
    if let Some(extra) = rest.first() {
        return Err(format!("ring-status does not take {extra:?}"));
    }
    let opts = timeout_ms
        .map(|ms| {
            ms.parse::<u64>()
                .map(|ms| ConnectOptions::uniform(Duration::from_millis(ms)))
                .map_err(|_| format!("bad --timeout-ms {ms:?}"))
        })
        .transpose()?
        .unwrap_or_default();
    let mut client = ServiceClient::connect_with(&addr, opts)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client
        .call(&Request::RingStatus)
        .map_err(|e| format!("ring-status failed: {e}"))?;
    if json {
        println!(
            "{}",
            probable_cause_repro::service::protocol::encode_response(0, &response).to_pretty()
        );
        return Ok(());
    }
    print_response(response)
}

/// Assembles the error string for a query from `--bits`/`--size` or from an
/// exact/approximate PGM pair.
fn query_errors(rest: &[String]) -> Result<(ErrorString, Vec<String>), String> {
    let (bits, rest) = take_optional_flag(rest, "--bits")?;
    let (size, rest) = take_optional_flag(&rest, "--size")?;
    match (bits, size) {
        (Some(bits), Some(size)) => {
            let positions: Vec<u64> = bits
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse().map_err(|_| format!("bad bit {s:?}")))
                .collect::<Result<_, _>>()?;
            let size: u64 = size.parse().map_err(|_| format!("bad --size {size:?}"))?;
            let errors = ErrorString::from_unsorted(positions, size)
                .map_err(|e| format!("bad --bits: {e}"))?;
            Ok((errors, rest))
        }
        (None, None) => {
            let [exact_path, approx_path, tail @ ..] = rest.as_slice() else {
                return Err("need --bits/--size or EXACT.pgm APPROX.pgm".into());
            };
            let exact = read_image(exact_path)?;
            Ok((errors_between(&exact, approx_path)?, tail.to_vec()))
        }
        _ => Err("--bits and --size must be given together".into()),
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_flag(args, "--addr")?;
    let (timeout_ms, rest) = take_optional_flag(&rest, "--timeout-ms")?;
    let (retries, rest) = take_optional_flag(&rest, "--retries")?;
    let (backoff_ms, rest) = take_optional_flag(&rest, "--backoff-ms")?;
    let (traced, rest) = take_switch(&rest, "--trace");
    let (json, rest) = take_switch(&rest, "--json");
    let (op, rest) = rest.split_first().ok_or(
        "query needs an operation (ping|stats|metrics|trace-dump|save|shutdown|identify|characterize|cluster-ingest)",
    )?;

    let (request, rest) = match op.as_str() {
        "ping" => (Request::Ping, rest.to_vec()),
        "stats" => (Request::Stats, rest.to_vec()),
        "metrics" => (Request::Metrics, rest.to_vec()),
        "trace-dump" => (Request::TraceDump, rest.to_vec()),
        "save" => (Request::Save, rest.to_vec()),
        "shutdown" => (Request::Shutdown, rest.to_vec()),
        "identify" => {
            let (errors, rest) = query_errors(rest)?;
            (Request::Identify { errors }, rest)
        }
        "cluster-ingest" => {
            let (errors, rest) = query_errors(rest)?;
            (Request::ClusterIngest { errors }, rest)
        }
        "characterize" => {
            let (label, rest) = take_flag(rest, "--label")?;
            let (errors, rest) = query_errors(&rest)?;
            (Request::Characterize { label, errors }, rest)
        }
        other => return Err(format!("unknown query operation {other:?}")),
    };
    if let Some(extra) = rest.first() {
        return Err(format!("query does not take {extra:?}"));
    }

    let timeout = timeout_ms
        .map(|ms| {
            ms.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| format!("bad --timeout-ms {ms:?}"))
        })
        .transpose()?;
    let opts = timeout.map(ConnectOptions::uniform).unwrap_or_default();
    let mut policy = RetryPolicy {
        deadline: timeout.or(RetryPolicy::default().deadline),
        ..RetryPolicy::default()
    };
    if let Some(n) = retries {
        policy.max_attempts = n.parse().map_err(|_| format!("bad --retries {n:?}"))?;
    }
    if let Some(ms) = backoff_ms {
        policy.base_backoff_ms = ms.parse().map_err(|_| format!("bad --backoff-ms {ms:?}"))?;
        policy.max_backoff_ms = policy.max_backoff_ms.max(policy.base_backoff_ms);
    }
    // connect_named remembers the address, so transient transport failures
    // (a router or server restarting) redial instead of giving up.
    let mut client = ServiceClient::connect_named(&addr, opts)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client.set_trace(traced);
    let response = client
        .call_with_policy(&request, &policy)
        .map_err(|e| format!("query failed: {e}"))?;
    if json {
        // The raw wire frame, exactly as the server answered — for piping
        // into files and dashboards.
        println!(
            "{}",
            probable_cause_repro::service::protocol::encode_response(0, &response).to_pretty()
        );
        return Ok(());
    }
    print_response(response)
}

fn print_response(response: Response) -> Result<(), String> {
    match response {
        Response::Pong => println!("pong"),
        Response::Match { label, distance } => println!("MATCH: {label} (distance {distance:.4})"),
        Response::NoMatch {
            closest: Some((label, d)),
        } => {
            println!("no match (closest: {label} at distance {d:.4})");
        }
        Response::NoMatch { closest: None } => println!("no match (no candidates)"),
        Response::Characterized {
            label,
            weight,
            observations,
            created,
        } => println!(
            "{} {label:?}: {weight} stable error bits from {observations} observation(s)",
            if created { "created" } else { "refined" }
        ),
        Response::Clustered {
            cluster,
            seeded,
            clusters,
        } => println!(
            "{} cluster {cluster} ({clusters} cluster(s) total)",
            if seeded { "seeded" } else { "joined" }
        ),
        Response::Stats(s) => {
            println!("fingerprints:    {}", s.fingerprints);
            println!("clusters:        {}", s.clusters);
            println!("admitted:        {}", s.admitted);
            println!("rejected:        {}", s.rejected);
            println!("distance evals:  {}", s.distance_evals);
            println!(
                "worker panics:   {}",
                if s.worker_panics == 0 {
                    "none".to_string()
                } else {
                    format!(
                        "{} (absorbed; each failed only its own request)",
                        s.worker_panics
                    )
                }
            );
        }
        Response::Metrics(m) => {
            println!(
                "{:<16} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "op", "count", "p50", "p90", "p99", "max"
            );
            for row in &m.ops {
                println!(
                    "{:<16} {:>10} {:>12} {:>12} {:>12} {:>12}",
                    row.op,
                    row.count,
                    format_ns(row.p50_ns),
                    format_ns(row.p90_ns),
                    format_ns(row.p99_ns),
                    format_ns(row.max_ns),
                );
            }
            if m.ops.is_empty() {
                println!("(no traffic observed — or tracing is disabled)");
            }
            println!();
            println!("queue depth:   {}", m.queue_depth);
            println!("slow requests: {}", m.slow_requests);
        }
        Response::TraceDump { traces } => {
            println!(
                "{:<18} {:<14} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} slow",
                "trace_id", "op", "seq", "decode", "queue", "score", "encode", "write", "total",
            );
            for t in &traces {
                println!(
                    "{:<18} {:<14} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {}",
                    format!("{:016x}", t.trace_id),
                    t.op,
                    t.seq,
                    format_ns(t.decode_ns),
                    format_ns(t.queue_wait_ns),
                    format_ns(t.score_ns),
                    format_ns(t.encode_ns),
                    format_ns(t.write_ns),
                    format_ns(t.total_ns),
                    if t.slow { "SLOW" } else { "" },
                );
            }
            if traces.is_empty() {
                println!("(flight recorder is empty — or tracing is disabled)");
            }
        }
        Response::Saved { fingerprints } => {
            println!("saved {fingerprints} fingerprint(s) to disk");
        }
        Response::RingStatus(s) => {
            println!("role:              {}", s.role);
            println!("id:                {}", s.id);
            println!("failovers:         {}", s.failovers);
            println!("sheds:             {}", s.sheds);
            println!("entries replayed:  {}", s.replayed);
            if !s.nodes.is_empty() {
                println!();
                println!(
                    "{:<24} {:<8} {:>8} {:>9}",
                    "replica", "state", "pending", "failures"
                );
                for n in &s.nodes {
                    println!(
                        "{:<24} {:<8} {:>8} {:>9}",
                        n.addr, n.state, n.pending, n.failures
                    );
                }
            }
        }
        Response::Replayed { applied, skipped } => {
            println!("replayed {applied} journal entries ({skipped} already applied)");
        }
        Response::ShuttingDown => println!("server shutting down"),
        Response::Busy { .. } => return Err("server busy after all retries".into()),
        Response::Error { message } => return Err(format!("server error: {message}")),
        Response::Traced { inner, trace } => {
            print_response(*inner)?;
            println!();
            println!("trace {:016x}:", trace.trace_id);
            let total = trace.total_ns.max(1);
            for (stage, ns) in [
                ("decode", trace.decode_ns),
                ("queue wait", trace.queue_wait_ns),
                ("score", trace.score_ns),
                ("other", trace.other_ns),
            ] {
                println!(
                    "  {stage:<11} {:>10}  {:>5.1}%",
                    format_ns(ns),
                    ns as f64 * 100.0 / total as f64
                );
            }
            println!("  {:<11} {:>10}", "total", format_ns(trace.total_ns));
        }
    }
    Ok(())
}

/// Renders nanoseconds at a human scale (ns/µs/ms/s).
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_flag(args, "--addr")?;
    let (interval_ms, rest) = take_optional_flag(&rest, "--interval-ms")?;
    let (iterations, rest) = take_optional_flag(&rest, "--iterations")?;
    if let Some(extra) = rest.first() {
        return Err(format!("top does not take {extra:?}"));
    }
    let interval_ms: u64 = interval_ms
        .map(|ms| ms.parse().map_err(|_| format!("bad --interval-ms {ms:?}")))
        .transpose()?
        .unwrap_or(1000)
        .max(1);
    let iterations: u64 = iterations
        .map(|n| n.parse().map_err(|_| format!("bad --iterations {n:?}")))
        .transpose()?
        .unwrap_or(0);

    let mut client =
        ServiceClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut prev_counts: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut tick = 0u64;
    loop {
        let m = match client
            .call(&Request::Metrics)
            .map_err(|e| format!("metrics poll failed: {e}"))?
        {
            Response::Metrics(m) => m,
            other => return Err(format!("expected metrics, got {other:?}")),
        };
        // Clear + home, then redraw the whole dashboard.
        print!("\x1b[2J\x1b[H");
        println!("pc top — {addr} (refresh {interval_ms}ms)");
        println!("queue {:>4}   slow {:>6}", m.queue_depth, m.slow_requests);
        println!();
        println!(
            "{:<16} {:>10} {:>8} {:>12} {:>12} {:>12}",
            "op", "count", "qps", "p50", "p99", "max"
        );
        for row in &m.ops {
            // qps over the last interval, from the count delta — no client
            // clock needed. The first sample has no baseline, and a counter
            // that ran backwards means the server restarted; both render
            // `--` rather than inventing a rate.
            let qps = match prev_counts.get(&row.op).copied() {
                Some(prev) if row.count >= prev => {
                    format!(
                        "{:.1}",
                        (row.count - prev) as f64 * 1000.0 / interval_ms as f64
                    )
                }
                _ => "--".to_string(),
            };
            println!(
                "{:<16} {:>10} {:>8} {:>12} {:>12} {:>12}",
                row.op,
                row.count,
                qps,
                format_ns(row.p50_ns),
                format_ns(row.p99_ns),
                format_ns(row.max_ns),
            );
            prev_counts.insert(row.op.clone(), row.count);
        }
        if m.ops.is_empty() {
            println!("(no traffic observed — or tracing is disabled on the server)");
        }
        std::io::stdout().flush().ok();
        tick += 1;
        if iterations != 0 && tick >= iterations {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    println!("simulating two approximate systems and one anonymous post...\n");
    let photo = synth::shapes_scene(256, 192, 11);
    let mut machine_a = ApproxSystem::emulated(SystemConfig {
        total_pages: 512,
        error_rate: 0.01,
        seed: 1,
        placement: PlacementPolicy::ContiguousFixed(16),
    });
    let mut machine_b = ApproxSystem::emulated(SystemConfig {
        total_pages: 512,
        error_rate: 0.01,
        seed: 2,
        placement: PlacementPolicy::ContiguousFixed(16),
    });

    let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
    for (name, machine) in [("machine-A", &mut machine_a), ("machine-B", &mut machine_b)] {
        let obs: Vec<ErrorString> = (0..3)
            .map(|_| {
                let r = run_edge_detect(machine, &photo);
                ErrorString::from_xor(r.approximate.as_bytes(), r.exact.as_bytes())
            })
            .collect();
        let fp = characterize(&obs).map_err(|e| e.to_string())?;
        println!("characterized {name}: {} stable error bits", fp.weight());
        db.insert(name.to_string(), fp);
    }

    let anon = run_edge_detect(&mut machine_b, &photo);
    let errors = ErrorString::from_xor(anon.approximate.as_bytes(), anon.exact.as_bytes());
    let (label, d) = db.identify_best(&errors).expect("db is non-empty");
    println!("\nanonymous post attributed to {label} (distance {d:.4})");
    Ok(())
}
