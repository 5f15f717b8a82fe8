//! The repository benchmark: drives `ShardedSystem` through its public
//! API on one workload and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <wide_durable|socket_paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` traces the middle half of the time, between two
//! untraced quarters, and prints the per-layer metrics, writing every
//! span and counter probe to `.bench_data/trace-<workload>-<seed>.jsonl`.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (epochs) and `metrics`. See `README.md`.

use perfbench::replay;
use perfbench::run::{Env, Instance, Phase};
use perfbench::stats::{self, FailureTally};
use perfbench::trace::{Probe, Tracer};
use perfbench::workload::{self, Workload, DEPTH, PROXIES, SHARDS, WORKERS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Windows a closed-loop run must drain, so that each of its
/// [`stats::TAIL_BLOCKS`] blocks holds at least ten samples beyond
/// [`TAIL`].
const MIN_WINDOWS: u64 = 1_000;

/// The tail percentile `window_p95_ms` reports: the highest that every
/// block of 200 windows (a fifth of [`MIN_WINDOWS`], and about a fifth
/// of a `socket_paced` run) holds ten samples beyond. A p99 rests on
/// the few stalls that reach it and was not steady enough to gate on;
/// it is printed for reference.
const TAIL: f64 = 0.95;

/// Epochs each determinism replica runs after its warm-up fill.
const REPLICA_EPOCHS: u64 = 12;

/// Epochs a durable deployment runs before its store is read and it is
/// crashed and recovered.
const RECOVERY_EPOCHS: u64 = 200;

/// Set-ups timed on their own, beside the two replicas and the measured
/// deployment, so `setup_s` is a median of 21.
const BARE_SETUPS: usize = 18;

/// What a run prints: metric name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `privapprox-node`, which must sit beside this executable.
fn node_beside_exe() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("locating the benchmark executable: {e}"))?;
    let node = exe.with_file_name("privapprox-node");
    if node.is_file() {
        Ok(node)
    } else {
        Err(format!(
            "{} is missing: the process-transport workload needs it beside the benchmark \
             (build the perfbench package's binaries)",
            node.display()
        ))
    }
}

/// Runs a determinism replica: set-up, warm-up, a few epochs, checks.
/// Returns its window fingerprints and set-up time.
fn replica(
    w: &Workload,
    seed: u64,
    env: &mut Env,
    tally: &mut FailureTally,
) -> Result<(Vec<(u64, u64)>, f64), String> {
    let mut inst = Instance::setup(w, seed, env, usize::MAX, tally)?;
    inst.run_epochs(REPLICA_EPOCHS, tally);
    inst.finish(tally);
    Ok((inst.fingerprints().to_vec(), inst.setup.as_secs_f64()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let data_dir = PathBuf::from(".bench_data");
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("creating {}: {e}", data_dir.display()))?;
    let node = if w.process {
        Some(node_beside_exe()?)
    } else {
        None
    };
    let mut env = Env::new(data_dir.clone(), node);
    let mut tally = FailureTally::default();

    // The measured deployment comes first, so its peak memory is not
    // set by deployments built and dropped before it.
    let keep = (DEPTH + REPLICA_EPOCHS as usize) * w.queries;
    let mut main = Instance::setup(w, args.seed, &mut env, keep, &mut tally)?;
    let mut setups = vec![main.setup.as_secs_f64()];
    let mut tracer = Tracer::new(false);
    let (phase, table) = if args.trace {
        (
            None,
            per_layer(args, &mut main, &mut env, &mut tracer, &mut tally)?,
        )
    } else {
        let phase = main.measure(args.seconds, MIN_WINDOWS, &mut tracer, &mut tally);
        main.finish(&mut tally);
        report_phase(w, &phase, &main);
        (Some(phase), Vec::new())
    };
    let mine = main.fingerprints().to_vec();
    drop(main);

    // Determinism: the same seed must give byte-identical windows, and
    // another seed different ones. Each replica, and each bare set-up,
    // is one more set-up sample.
    let (same, setup_a) = replica(w, args.seed, &mut env, &mut tally)?;
    let (other, setup_b) = replica(w, args.seed ^ 0x9E37_79B9, &mut env, &mut tally)?;
    setups.extend([setup_a, setup_b]);
    if same.iter().map(|f| f.1).eq(other.iter().map(|f| f.1)) {
        tally.fail_unattributed(1, "a different seed produced identical windows");
    }
    if mine.len() != same.len() {
        tally.fail_unattributed(
            1,
            format!(
                "{} windows to compare, replica had {}",
                mine.len(),
                same.len()
            ),
        );
    }
    for (a, b) in mine.iter().zip(&same) {
        if a != b {
            tally.fail(
                a.0,
                format!("epoch {}: window differs from the same-seed replica", a.0),
            );
        }
    }
    for _ in 0..BARE_SETUPS {
        let mut bare = Instance::setup(w, args.seed, &mut env, 0, &mut tally)?;
        bare.finish(&mut tally);
        setups.push(bare.setup.as_secs_f64());
    }
    let metrics = match phase {
        Some(phase) => end_to_end(&phase, &setups),
        None => table,
    };

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            tally.fail_unattributed(1, format!("metric {name} is {value}"));
        }
    }
    for reason in tally.reasons() {
        eprintln!("perfbench: check failed: {reason}");
    }
    println!(
        "failed epochs: {} of {} attempted (failed_frac {})",
        tally.failed(),
        tally.attempted(),
        tally.failed_frac()
    );
    print_result(&metrics, &tally);
    Ok(())
}

fn report_phase(w: &Workload, phase: &Phase, main: &Instance) {
    let n = phase.latencies_ms.len();
    let block = n / stats::TAIL_BLOCKS;
    println!(
        "{}: {} epochs, {} windows in {:.2} s, cut into {} blocks of ~{block}; \
         p95 has {} samples beyond it in each block{}",
        w.name,
        phase.epochs,
        phase.windows,
        phase.wall,
        stats::TAIL_BLOCKS,
        stats::beyond(block, TAIL),
        if stats::tail_supported(block, TAIL) {
            ""
        } else {
            " (fewer than 10)"
        },
    );
    if n > 0 {
        let mut lat = phase.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        println!(
            "whole-phase window p99 (not gated): {:.3} ms, {} samples beyond it",
            stats::percentile(&lat, 0.99),
            stats::beyond(n, 0.99)
        );
    }
    let (all, worst) = main.coverage();
    println!("confidence intervals covered {all:.4} of true bucket counts, {worst:.4} in the worst window");
    if !phase.late_ms.is_empty() {
        let mut late = phase.late_ms.clone();
        late.sort_by(f64::total_cmp);
        println!(
            "generator lateness: p50 {:.3} ms, p99 {:.3} ms; most epochs in flight {}",
            stats::percentile(&late, 0.5),
            stats::percentile(&late, 0.99),
            phase.in_flight_max
        );
    }
}

fn end_to_end(phase: &Phase, setups: &[f64]) -> Metrics {
    let mut lat = phase.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let [p50, p95] = if lat.is_empty() {
        [0.0; 2]
    } else {
        [
            stats::percentile(&lat, 0.5),
            stats::block_percentile(&phase.latencies_ms, TAIL, stats::TAIL_BLOCKS),
        ]
    };
    let answers = phase.answers.max(1) as f64;
    vec![
        (
            "answers_per_s".into(),
            phase.answers as f64 / phase.wall,
            "answers/s",
        ),
        ("window_p50_ms".into(), p50, "ms"),
        ("window_p95_ms".into(), p95, "ms"),
        ("cpu_us_per_answer".into(), phase.cpu * 1e6 / answers, "us"),
        ("peak_rss_mb".into(), phase.peak_rss_mb, "MB"),
        ("setup_s".into(), stats::median(setups), "s"),
    ]
}

/// Sum over threads of the CPU ns between two cumulative snapshots.
fn delta(before: &[u64], after: &[u64]) -> f64 {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .sum::<u64>() as f64
}

/// Child CPU ns between two snapshots, for labels starting `prefix`.
fn child_delta(before: &Probe, after: &Probe, prefix: &str) -> f64 {
    after
        .children
        .iter()
        .filter(|(l, _)| l.starts_with(prefix))
        .map(|(l, c)| {
            let b = before
                .children
                .iter()
                .find(|(bl, _)| bl == l)
                .map_or(0, |(_, c)| *c);
            c.saturating_sub(b) as f64
        })
        .fold(0.0, |a, b| a + b)
}

/// The store's footprint and the recovery time of a durable deployment
/// after [`RECOVERY_EPOCHS`] epochs.
#[derive(Default)]
struct Recovery {
    journal_bytes: u64,
    snapshot_count: u64,
    ms: f64,
}

/// Runs a fresh durable deployment for a fixed number of epochs, reads
/// its store footprint, then times `crash()` → first recovered window.
/// The footprint and the muted history that recovery replays grow with
/// every epoch run, so a fixed epoch count keeps a faster runtime from
/// reading worse here.
fn recovery(
    w: &Workload,
    seed: u64,
    env: &mut Env,
    tally: &mut FailureTally,
) -> Result<Recovery, String> {
    let mut inst = Instance::setup(w, seed, env, 0, tally)?;
    inst.run_epochs(RECOVERY_EPOCHS, tally);
    let health = inst.finish(tally);
    let ms = inst.crash_and_recover(seed, env.node.as_deref(), tally)?;
    Ok(Recovery {
        journal_bytes: health.journal_bytes,
        snapshot_count: health.snapshot_count,
        ms,
    })
}

/// The traced run: a traced half between two untraced quarters (the
/// overhead baseline), then replays of each layer and (durable only) a
/// timed crash recovery. Returns the per-layer table.
fn per_layer(
    args: &Args,
    main: &mut Instance,
    env: &mut Env,
    tracer: &mut Tracer,
    tally: &mut FailureTally,
) -> Result<Metrics, String> {
    let w = &args.workload;
    // Untraced, traced, untraced: the untraced quarters lie on both
    // sides of the traced half, so a deployment that slows as it runs
    // charges the slowdown to both alike, not to tracing.
    let quarter = args.seconds / 4.0;
    let before = main.measure(quarter, 0, tracer, tally);
    let h0 = main
        .system
        .as_mut()
        .expect("deployment is live")
        .deploy_health();
    let p0 = main.snapshot();
    tracer.set_enabled(true);
    let traced = main.measure(2.0 * quarter, 0, tracer, tally);
    tracer.set_enabled(false);
    let p1 = main.snapshot();
    let h1 = main
        .system
        .as_mut()
        .expect("deployment is live")
        .deploy_health();
    let after = main.measure(quarter, 0, tracer, tally);
    main.finish(tally);

    let wall_ns = traced.wall * 1e9;
    let answers = traced.answers.max(1) as f64;
    let workers = delta(&p0.workers, &p1.workers);
    let proxies = delta(&p0.proxies, &p1.proxies);
    let shards = delta(&p0.shards, &p1.shards);
    let forwarded = (p1.forwarded - p0.forwarded).max(1) as f64;
    let submits = tracer.durations_ms(if w.queries > 1 {
        "submit_epoch_all"
    } else {
        "submit_epoch"
    });
    let flushes = tracer.durations_ms("flush_epochs");
    let blocked_ms: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name != "epoch")
        .map(|s| s.dur() as f64 / 1e6)
        .sum();
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, p)
        }
    };
    let roots = tracer.root_self_times();
    let self_us = roots.iter().sum::<u64>() as f64 / roots.len().max(1) as f64 / 1e3;
    let mut late = traced.late_ms.clone();
    late.sort_by(f64::total_cmp);

    let query = main.queries[0].clone();
    let key = main
        .system
        .as_ref()
        .expect("deployment is live")
        .config()
        .analyst_key;
    let shell = main
        .sample_window
        .clone()
        .ok_or("no window drained to replay against")?;
    let ([bucketize, randomize, encode, split], share) =
        replay::client_stages(w, args.seed, key, &query);
    let [join, decode_fold, finalize] = replay::shard_stages(w, args.seed, &query, &shell);
    let (append_sync, recovered) = if w.durable {
        let dir = env
            .data_dir
            .join(format!("wal-replay-{}", std::process::id()));
        let append_sync = replay::append_sync_ms(w, &dir);
        (append_sync, recovery(w, args.seed, env, tally)?)
    } else {
        (0.0, Recovery::default())
    };
    let [wire_encode, wire_decode] = if w.process {
        replay::wire_batch(share.len())
    } else {
        [0.0, 0.0]
    };

    let base_rate = (before.answers + after.answers) as f64 / (before.wall + after.wall);
    let traced_rate = traced.answers as f64 / traced.wall;
    let counts = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let table: Metrics = vec![
        (
            "client.busy_frac".into(),
            workers / (WORKERS as f64 * wall_ns),
            "ratio",
        ),
        (
            "client.wait_frac".into(),
            1.0 - workers / (WORKERS as f64 * wall_ns),
            "ratio",
        ),
        ("client.cpu_ns_per_answer".into(), workers / answers, "ns"),
        ("sql.bucketize_ns".into(), bucketize, "ns"),
        ("rr.randomize_ns".into(), randomize, "ns"),
        ("crypto.encode_ns".into(), encode, "ns"),
        ("crypto.split_ns".into(), split, "ns"),
        (
            "broker.records_per_answer".into(),
            counts(p0.records_in, p1.records_in) / answers,
            "records",
        ),
        (
            "broker.bytes_per_answer".into(),
            counts(p0.bytes_in, p1.bytes_in) / answers,
            "bytes",
        ),
        (
            "broker.backpressure_stalls".into(),
            counts(h0.backpressure_stalls, h1.backpressure_stalls),
            "count",
        ),
        (
            "proxy.busy_frac".into(),
            proxies / (PROXIES as f64 * wall_ns),
            "ratio",
        ),
        (
            "proxy.wait_frac".into(),
            1.0 - proxies / (PROXIES as f64 * wall_ns),
            "ratio",
        ),
        ("proxy.cpu_ns_per_share".into(), proxies / forwarded, "ns"),
        (
            "shard.busy_frac".into(),
            shards / (SHARDS as f64 * wall_ns),
            "ratio",
        ),
        (
            "shard.wait_frac".into(),
            1.0 - shards / (SHARDS as f64 * wall_ns),
            "ratio",
        ),
        ("shard.cpu_ns_per_answer".into(), shards / answers, "ns"),
        ("join.ns_per_share".into(), join, "ns"),
        ("aggregator.decode_fold_ns".into(), decode_fold, "ns"),
        ("aggregator.finalize_ms".into(), finalize, "ms"),
        (
            "shard.duplicates".into(),
            counts(h0.duplicates, h1.duplicates),
            "count",
        ),
        (
            "shard.expired_joins".into(),
            counts(h0.expired_joins, h1.expired_joins),
            "count",
        ),
        (
            "shard.late_answers".into(),
            counts(h0.late_answers, h1.late_answers),
            "count",
        ),
        ("deploy.submit_ms_p50".into(), pct(&submits, 0.5), "ms"),
        ("deploy.submit_ms_p99".into(), pct(&submits, 0.99), "ms"),
        ("deploy.flush_ms_p50".into(), pct(&flushes, 0.5), "ms"),
        (
            "deploy.caller_blocked_frac".into(),
            blocked_ms / (traced.wall * 1e3),
            "ratio",
        ),
        (
            "store.journal_bytes".into(),
            recovered.journal_bytes as f64,
            "bytes",
        ),
        (
            "store.snapshot_count".into(),
            recovered.snapshot_count as f64,
            "count",
        ),
        ("store.append_sync_ms".into(), append_sync, "ms"),
        ("persist.recovery_ms".into(), recovered.ms, "ms"),
        (
            "remote.proxy_child_busy_frac".into(),
            child_delta(&p0, &p1, "proxy-") / (PROXIES as f64 * wall_ns),
            "ratio",
        ),
        (
            "remote.shard_child_busy_frac".into(),
            child_delta(&p0, &p1, "shard-") / (SHARDS as f64 * wall_ns),
            "ratio",
        ),
        (
            "remote.child_cpu_ns_per_answer".into(),
            child_delta(&p0, &p1, "") / answers,
            "ns",
        ),
        (
            "cluster.retries".into(),
            counts(h0.retries, h1.retries),
            "count",
        ),
        (
            "cluster.reconnects".into(),
            counts(h0.reconnects, h1.reconnects),
            "count",
        ),
        (
            "cluster.rejections".into(),
            counts(h0.rejections, h1.rejections),
            "count",
        ),
        ("wire.batch_encode_ns".into(), wire_encode, "ns"),
        ("wire.batch_decode_ns".into(), wire_decode, "ns"),
        ("driver.late_p99_ms".into(), pct(&late, 0.99), "ms"),
        (
            "driver.in_flight_max".into(),
            traced.in_flight_max as f64,
            "count",
        ),
        ("driver.self_us_per_epoch".into(), self_us, "us"),
        (
            "trace.overhead_frac".into(),
            1.0 - traced_rate / base_rate,
            "ratio",
        ),
    ];
    println!(
        "{}: untraced {:.0} answers/s over {:.2} s, traced {:.0} answers/s over {:.2} s, \
         pipeline depth {DEPTH}",
        w.name,
        base_rate,
        before.wall + after.wall,
        traced_rate,
        traced.wall
    );
    let path = env
        .data_dir
        .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
    tracer
        .write_jsonl(&path, &table)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans, probes and the per-layer table: {}", path.display());
    Ok(table)
}

fn print_result(metrics: &Metrics, tally: &FailureTally) {
    for (name, value, unit) in metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value already failed the run; JSON has no
            // spelling for it.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed()
    );
}
