//! Repeats the benchmark over several seeds and applies the run-to-run
//! rule `BENCHMARK.json` is held to: for every end-to-end metric, the
//! spread between the first and third quartile as a share of the
//! median must stay within the metric's bound, and with `--sets 2` the
//! second set's median may be worse than the first's by at most the
//! bound.
//!
//! ```text
//! agree --workload <name>[,<name>...] [--runs 10] [--first-seed 1] [--sets 1]
//! ```
//!
//! With several workloads the runs interleave: each seed runs every
//! workload, in an order that rotates from seed to seed, so no workload
//! always follows the same one. Run it from the repository root after
//! building the perfbench package; it runs the `perfbench` executable
//! beside itself and reads the bounds and `run_seconds` from
//! `BENCHMARK.json`.

use perfbench::stats;
use serde::Value;
use std::process::Command;

struct Metric {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn arg(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}

fn load_spec() -> Result<(Vec<Metric>, f64), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
            })
        })
        .collect::<Result<Vec<_>, &str>>()?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("no run_seconds")?;
    Ok((metrics, seconds))
}

/// Runs the benchmark once; returns each metric's value.
fn run_once(
    workload: &str,
    seed: u64,
    seconds: f64,
    metrics: &[Metric],
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench");
    let out = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let result =
        serde_json::from_str(last).map_err(|e| format!("seed {seed}: bad result line: {e:?}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("seed {seed}: output checks failed: {last}"));
    }
    metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("seed {seed}: no {}", m.name))
        })
        .collect()
}

fn main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let workloads: Vec<String> = arg(&argv, "--workload")
        .ok_or("--workload is required")?
        .split(',')
        .map(str::to_string)
        .collect();
    let runs: u64 = arg(&argv, "--runs")
        .map_or(Ok(10), |v| v.parse())
        .map_err(|e| format!("--runs: {e}"))?;
    let first: u64 = arg(&argv, "--first-seed")
        .map_or(Ok(1), |v| v.parse())
        .map_err(|e| format!("--first-seed: {e}"))?;
    let sets: u64 = arg(&argv, "--sets")
        .map_or(Ok(1), |v| v.parse())
        .map_err(|e| format!("--sets: {e}"))?;
    let (metrics, seconds) = load_spec()?;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }

    // values[workload][set][metric][run]
    let mut values = vec![vec![vec![Vec::new(); metrics.len()]; sets as usize]; workloads.len()];
    for set in 0..sets as usize {
        for (i, seed) in (first..first + runs).enumerate() {
            for j in 0..workloads.len() {
                let wi = (i + j) % workloads.len();
                let row = run_once(&workloads[wi], seed, seconds, &metrics)?;
                eprintln!("{} set {} seed {seed}: {row:?}", workloads[wi], set + 1);
                for (slot, v) in values[wi][set].iter_mut().zip(row) {
                    slot.push(v);
                }
            }
        }
    }
    let mut ok = true;
    for (workload, values) in workloads.iter().zip(&values) {
        ok &= report(workload, values, &metrics, runs, seconds);
    }
    if ok {
        Ok(())
    } else {
        Err("runs do not agree within the bounds".into())
    }
}

/// Prints one workload's spreads (and drift, with two sets); true when
/// every metric stays within its bound.
fn report(
    workload: &str,
    values: &[Vec<Vec<f64>>],
    metrics: &[Metric],
    runs: u64,
    seconds: f64,
) -> bool {
    let mut ok = true;
    println!(
        "{workload}: {runs} runs per set, {} set(s), {seconds} s each",
        values.len()
    );
    for (i, m) in metrics.iter().enumerate() {
        for (set, per_metric) in values.iter().enumerate() {
            let v = &per_metric[i];
            let [q1, q2, q3] = stats::quartiles(v);
            let spread = stats::spread(v);
            let verdict = if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                ok = false;
                "TOO WIDE"
            };
            println!(
                "  {:<20} set {} median {:>14.4} q1 {:>14.4} q3 {:>14.4} spread {:.4} (bound {}) {verdict}",
                m.name,
                set + 1,
                q2,
                q1,
                q3,
                spread,
                m.bound
            );
        }
        if values.len() >= 2 {
            let a = stats::agree(&values[0][i], &values[1][i], m.bound, m.higher_is_better);
            ok &= a.ok;
            println!(
                "  {:<20} second set worse by {:+.4} of the first median: {}",
                m.name,
                a.drift,
                if a.ok { "agrees" } else { "DISAGREES" }
            );
        }
    }
    ok
}
