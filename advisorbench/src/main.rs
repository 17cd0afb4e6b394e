//! End-to-end benchmark of the AutoCE model advisor.
//!
//! ```text
//! advisorbench --workload <paper_cold|tenant_mix|large_rcs|cluster_loopback>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when a correctness gate fails. See
//! `DESIGN.md` for the workloads and the metric map.

mod common;
mod layers;
mod setup;
mod workloads;

use ce_datagen::DatasetSpec;
use workloads::{Ctx, DatasetWorkload, Outcome};

fn usage() -> ! {
    eprintln!(
        "usage: advisorbench --workload <paper_cold|tenant_mix|large_rcs|cluster_loopback> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    // Shard-server children of the cluster workload are re-executions of
    // this binary and never get past this line.
    ce_cluster::maybe_run_shard_server_from_args();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = arg("--workload");
    let ctx = Ctx {
        seed: arg("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: arg("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match arg("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    };
    let out = match workload.as_str() {
        "paper_cold" => workloads::run_dataset(
            &ctx,
            &DatasetWorkload {
                spec: DatasetSpec::paper(),
                bases: 64,
                rcs: None,
                limit_us: 150_000.0,
                adapts: 8,
                trust_drift: false,
                predicted: &["features"],
            },
        ),
        "large_rcs" => workloads::run_dataset(
            &ctx,
            &DatasetWorkload {
                spec: DatasetSpec::small().single_table(),
                bases: 256,
                rcs: Some(10_000),
                limit_us: 100_000.0,
                adapts: 2,
                trust_drift: true,
                predicted: &["knn"],
            },
        ),
        "tenant_mix" => workloads::run_tenant_mix(&ctx),
        "cluster_loopback" => workloads::run_cluster(&ctx),
        _ => usage(),
    };
    report(&workload, &ctx, &out);
    if !out.correct {
        std::process::exit(1);
    }
}

fn report(workload: &str, ctx: &Ctx, out: &Outcome) {
    println!(
        "workload {workload} seed {} seconds {} trace {} (available parallelism {})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
