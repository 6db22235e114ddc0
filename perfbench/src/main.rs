//! GCoDE benchmark: the co-search, the co-inference engine and the search
//! daemon, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cosearch|stream|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics
//! (see `README.md` for what each means on each workload). The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

mod common;
mod cosearch;
mod load;
mod serve;
mod stats;
mod stream;
mod trace;

use common::{work_dir, Outcome, RunSpec};
use std::collections::BTreeMap;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["cosearch", "stream", "serve"];

/// Set-up repeats per measured run (`setup_s` is their median).
const SETUPS: usize = 9;
/// Budget of each probe a traced run makes of the other workloads, for
/// the layers its own workload never reaches.
const PROBE_SECONDS: f64 = 3.0;

/// Every per-layer metric a traced run prints, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("eval.lookups", "count/search"),
    ("eval.memo_hit_rate", "share"),
    ("eval.self_s", "s/search"),
    ("tier.analytic.evals", "count/search"),
    ("tier.predictor.evals", "count/search"),
    ("tier.sim.evals", "count/search"),
    ("tier.engine.evals", "count/search"),
    ("tier.analytic.busy_s", "s/search"),
    ("tier.predictor.busy_s", "s/search"),
    ("tier.sim.busy_s", "s/search"),
    ("tier.engine.busy_s", "s/search"),
    ("tier.engine.escalation_rate", "share"),
    ("predictor.train_s", "s"),
    ("optimizer.lower_us_p50", "us"),
    ("optimizer.ops_elided", "count/search"),
    ("pool.deploy_us_p50", "us"),
    ("pool.run_call_us_p50", "us"),
    ("fleet.busy_s", "s/search"),
    ("fleet.requeued", "count"),
    ("fleet.spawns", "count"),
    ("fleet.failures", "count"),
    ("engine.deployed", "count/search"),
    ("engine.errors", "count"),
    ("engine.bytes_per_frame", "B"),
    ("kernel.device_ms_per_frame", "ms"),
    ("kernel.edge_ms_per_frame", "ms"),
    ("codec.encode_us_per_frame", "us"),
    ("codec.decode_us_per_frame", "us"),
    ("codec.wire_bytes_per_frame", "B"),
    ("codec.ratio", "ratio"),
    ("runtime.overhead_ms_per_frame", "ms"),
    ("dispatch.swaps", "count"),
    ("dispatch.swap_us_p50", "us"),
    ("admission.wait_ms_p50", "ms"),
    ("admission.busy_refusals", "count"),
    ("session.compute_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.goodput", "share"),
    ("executor.fleet_busy_s", "s/session"),
    ("client.polls_per_session", "count"),
    ("cache.hits", "count"),
    ("cache.deployed", "count"),
    ("cache.hit_rate", "share"),
    ("gen.lateness_ms_p95", "ms"),
    ("trace.layer_share", "share"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("fail_rate", "share"),
];

/// `(name, value, unit)` of each metric a run prints.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` ({})", WORKLOADS.join("|")));
    }
    let seed = get("seed")?.parse().map_err(|_| "--seed: not a whole number".to_string())?;
    let seconds: f64 =
        get("seconds")?.parse().map_err(|_| "--seconds: not a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` (0|1)")),
    };
    if let Some(extra) =
        opts.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn run_workload(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match name {
        "cosearch" => cosearch::run(spec),
        "stream" => stream::run(spec),
        "serve" => serve::run(spec),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Formats `{"name": {"value": v, "unit": u}, …}` with every digit of `v`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            // JSON has no NaN: an unreportable figure prints as 0 (and the
            // run's `correct` is already false).
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fail_rate(out: &Outcome) -> f64 {
    out.failed as f64 / out.attempted.max(1) as f64
}

/// The untraced run: end-to-end metrics.
fn measure(args: &Args) -> Result<(Outcome, Metrics), String> {
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        setups: SETUPS,
        traced: false,
        full: true,
    };
    let mut out = run_workload(&args.workload, &spec)?;
    let (p50, p90) = (out.p50_ms, out.p90_ms);
    out.check(p50.is_some() && p90.is_some(), || "too few samples to report p50/p90".to_string());
    let metrics = vec![
        ("setup_s", out.setup_s, "s"),
        ("p50_ms", p50.unwrap_or(f64::NAN), "ms"),
        ("p90_ms", p90.unwrap_or(f64::NAN), "ms"),
        ("rate_per_s", out.rate_per_s, "1/s"),
    ];
    Ok((out, metrics))
}

/// The traced run: the workload traced on the whole budget, then short
/// probes of the other workloads for the layers this one never reaches.
fn trace_layers(args: &Args) -> Result<(Outcome, Metrics), String> {
    let spec =
        RunSpec { seed: args.seed, seconds: args.seconds, setups: 1, traced: true, full: false };
    let mut out = run_workload(&args.workload, &spec)?;
    out.layers.insert("fail_rate", fail_rate(&out));
    out.layers.insert("trace.layer_share", trace::layer_share(&out.spans));
    out.layers.insert("trace.spans", out.spans.len() as f64);
    // What tracing adds to one unit operation: the measured cost of a span
    // times the spans recorded per operation. (Timing a traced against an
    // untraced run measures the host's drift between them, not this.)
    let spans_per_op = out.spans.len() as f64 / out.ops.max(1) as f64;
    out.layers.insert("trace.overhead_ms", trace::span_cost_s() * spans_per_op * 1e3);
    let path = work_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&out.spans, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", out.spans.len(), path.display());
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let probe = RunSpec { seconds: PROBE_SECONDS, ..spec };
        let p = run_workload(other, &probe)?;
        out.problems.extend(p.problems.iter().map(|e| format!("{other} probe: {e}")));
        for (k, v) in p.layers {
            out.layers.entry(k).or_insert(v);
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let v = *out
            .layers
            .get(name)
            .ok_or_else(|| format!("no figure for per-layer metric {name}"))?;
        metrics.push((name, v, unit));
    }
    Ok((out, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = if args.trace { trace_layers(&args) } else { measure(&args) };
    let (out, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit, n) in &out.named {
        println!("{:<22} {value:>12.4} {unit:<6} (n={n})", name);
    }
    println!(
        "{:<22} {:>12.4} {:<6} ({} failed of {} attempted)",
        "fail_rate",
        fail_rate(&out),
        "share",
        out.failed,
        out.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>14.6} {unit}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
