//! `perfbench`: the hetrta benchmark binary. `run.py` builds it and the
//! `hetrta` CLI, then calls
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --hetrta <path to the hetrta binary> --scratch <dir> [--tiny]
//! ```
//!
//! It prints one attribution line (`{"meta": ...}`: host, commit, seeds,
//! job counts, graph sizes) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the spans are written to `<scratch>/../trace-<workload>-<seed>.jsonl`.

mod checks;
mod fleet;
mod json;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use trace::Tracer;
use workloads::RunCtx;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["sweep_small", "graph_1m", "serve_mixed"];

fn parse(args: &[String]) -> Result<(String, RunCtx), String> {
    let mut workload = None;
    let mut ctx = RunCtx {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        hetrta: PathBuf::new(),
        scratch: PathBuf::new(),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--tiny" {
            ctx.tiny = true;
            continue;
        }
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = number()?,
            "--seconds" => ctx.seconds = number()? as f64,
            "--trace" => ctx.trace = number()? != 0,
            "--hetrta" => ctx.hetrta = PathBuf::from(value),
            "--scratch" => ctx.scratch = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    if !ctx.hetrta.is_file() {
        return Err(format!("--hetrta {:?} is not a file", ctx.hetrta));
    }
    if ctx.scratch.as_os_str().is_empty() {
        return Err("--scratch is required".into());
    }
    Ok((workload, ctx))
}

/// `perfbench pick-graph <seed> <job> [--tiny]`: prints the `graph_1m`
/// input picked for job `job` of a run seeded `seed`, as
/// `<seed> <nodes> <edges>`.
fn pick_graph(args: &[String]) -> ExitCode {
    let number = |i: usize| args.get(i).and_then(|a| a.parse::<u64>().ok());
    let tiny = args.iter().any(|a| a == "--tiny");
    let (Some(seed), Some(job)) = (number(0), number(1)) else {
        eprintln!("perfbench: pick-graph <seed> <job> [--tiny]");
        return ExitCode::from(2);
    };
    match workloads::graph_1m::pick_seed(seed, job, tiny) {
        Ok((picked, nodes, edges)) => {
            println!("{picked} {nodes} {edges}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pick-graph") {
        return pick_graph(&args[1..]);
    }
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("perfbench: scratch {:?}: {e}", ctx.scratch);
        return ExitCode::from(2);
    }
    let tracer = Tracer::default();
    let report = match workload.as_str() {
        "sweep_small" => workloads::sweep_small::run(&ctx, &tracer),
        "graph_1m" => workloads::graph_1m::run(&ctx, &tracer),
        _ => workloads::serve_mixed::run(&ctx, &tracer),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if ctx.trace {
        let parent = ctx.scratch.parent().unwrap_or(&ctx.scratch);
        let path = parent.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    for error in &report.errors {
        eprintln!("perfbench: {workload}: {error}");
    }

    let mut meta = vec![
        ("workload".to_string(), Json::Str(workload.clone())),
        ("seed".into(), Json::Int(ctx.seed)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("trace".into(), Json::Bool(ctx.trace)),
        ("tiny".into(), Json::Bool(ctx.tiny)),
        ("nproc".into(), Json::Int(sys::nproc() as u64)),
        ("cpu_model".into(), Json::Str(sys::cpu_model())),
        (
            "commit".into(),
            Json::Str(std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
    ];
    meta.extend(report.meta.iter().cloned());
    println!("{}", Json::obj([("meta", Json::Obj(meta))]).render());
    let result = Json::obj([
        ("correct", Json::Bool(report.errors.is_empty())),
        ("attempted", Json::Int(report.attempted.max(1))),
        ("failed", Json::Int(report.failed)),
        ("metrics", report.metrics_json(ctx.trace)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
