//! Per-layer metrics of a traced run: the benchmark's spans plus the
//! counters and histogram sums the program exports, reconciled against
//! the mean request time. Histograms are read for sums and counts only;
//! their power-of-4 buckets are too coarse for quantiles.

use crate::common::{Phase, Spans};
use ce_obs::{MetricsSnapshot, SampleValue};
use ce_serve::{CacheStats, ServiceStats};

/// `(sum, count)` over every sample named `name` whose labels include all
/// of `filter`; a counter or gauge contributes `(value, 0)`.
fn total(snap: &MetricsSnapshot, name: &str, filter: &[(&str, &str)]) -> (f64, f64) {
    let mut acc = (0.0, 0.0);
    for s in snap.samples.iter().filter(|s| s.name == name) {
        let has = |(k, v): &(&str, &str)| s.labels.iter().any(|(a, b)| a == k && b == v);
        if !filter.iter().all(has) {
            continue;
        }
        match &s.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => acc.0 += *v as f64,
            SampleValue::Histogram { sum, count, .. } => {
                acc.0 += *sum as f64;
                acc.1 += *count as f64;
            }
        }
    }
    acc
}

/// A registry reading taken before and after a phase.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn sum(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        total(self.after, name, filter).0 - total(self.before, name, filter).0
    }

    pub fn count(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        total(self.after, name, filter).1 - total(self.before, name, filter).1
    }

    /// Histogram mean over the phase, 0 when nothing was observed.
    pub fn mean(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        let c = self.count(name, filter);
        if c > 0.0 {
            self.sum(name, filter) / c
        } else {
            0.0
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything one traced phase hands to the layer computation.
pub struct Traced<'a> {
    /// The traced measurement phase.
    pub phase: &'a Phase,
    /// The untraced comparison phase of the same run.
    pub untraced: &'a Phase,
    /// The open-loop generator probe run after the traced phase.
    pub gen: &'a Phase,
    /// Reads sent while adaptations ran (empty where adaptation is serial).
    pub under_adapt: &'a Phase,
    /// Benchmark spans (request path, setup and adaptation).
    pub spans: &'a Spans,
    /// Service registry + ledgers over the traced phase.
    pub serve: Delta<'a>,
    /// Backend registry (index, cluster incl. shard side) over the phase.
    pub backend: Delta<'a>,
    /// Service registry over the adaptation calls.
    pub adapt: Delta<'a>,
    /// Service ledgers at the end of the traced phase.
    pub stats: ServiceStats,
    pub cache: CacheStats,
    /// Adaptations scheduled (and asserted) in the run.
    pub adaptations: usize,
    /// The backend votes over the wire (a cluster coordinator).
    pub remote_vote: bool,
    /// Layers predicted to dominate this workload's request time.
    pub predicted: &'static [&'static str],
}

/// A named per-layer value with its unit.
pub type LayerMetric = (&'static str, f64, &'static str);

/// Computes every per-layer metric plus the reconciliation. Returns the
/// metrics and human-readable notes (the reconciliation verdict).
pub fn layer_metrics(t: &Traced) -> (Vec<LayerMetric>, Vec<String>) {
    let calls = t.phase.lat_us.len() as f64;
    let recs = t.phase.recs as f64;
    let req_mean_us = t.phase.mean();
    let sp = t.spans;
    let us = |ns: f64| ns / 1e3;

    // features
    let extract_sum_us = us(sp.sum_ns("features.extract"));
    // Graph workloads extract only while building their pool; their
    // extraction quantiles come from there, off the request path.
    let extract = if sp.count("features.extract") > 0 {
        "features.extract"
    } else {
        "features.extract_pool"
    };
    let extract_p50 = us(sp.quantile_ns(extract, 0.5));
    let extract_p99 = us(sp.quantile_ns(extract, 0.99));
    // cache
    let fp_ns = sp.mean_ns("cache.fingerprint");
    let lookups = (t.cache.hits + t.cache.misses) as f64;
    // batch
    let q_wait_sum_us = us(t.serve.sum("ce_serve_queue_wait_ns", &[]));
    let q_wait_mean_us = us(t.serve.mean("ce_serve_queue_wait_ns", &[]));
    let depth_mean = t.serve.mean("ce_serve_batch_depth", &[]);
    let path = |p: &str| t.serve.sum("ce_serve_path_requests_total", &[("path", p)]);
    let path_total = path("cache_hit") + path("inline") + path("worker");
    // gnn + knn
    let encode_sum_us = us(t.serve.sum("ce_serve_encode_ns", &[]));
    let vote_sum_us = us(t.serve.sum("ce_serve_vote_ns", &[]));
    let query_mean_us = us(sp.mean_ns("serve.query"));
    let overhead_us = if sp.count("serve.query") > 0 {
        query_mean_us - (encode_sum_us + vote_sum_us) / calls.max(1.0)
    } else {
        0.0
    };
    // cluster: on a cluster backend the vote *is* the cluster layer —
    // coordinator fan-out, codec, wire round trips and the shard-side
    // scans — so its whole time is attributed there, not to knn.
    let cluster_us = if t.remote_vote { vote_sum_us } else { 0.0 };
    let wire_bytes = t.backend.sum("ce_cluster_wire_bytes_out_total", &[])
        + t.backend.sum("ce_cluster_wire_bytes_in_total", &[]);
    let frames = t
        .backend
        .sum("ce_shard_requests_total", &[("step", "coord_send_query")])
        + t.backend.sum(
            "ce_shard_requests_total",
            &[("step", "coord_send_query_batch")],
        );
    // adaptation
    let train_ns = t.adapt.sum("ce_gnn_train_phase_ns", &[]);
    let refresh_mean_ms = t.adapt.mean("ce_serve_refresh_ns", &[]) / 1e6;
    let swaps = t.adapt.sum("ce_serve_snapshot_swaps_total", &[]);

    // Reconciliation: per-call time each layer accounts for.
    let per_call = |x: f64| x / calls.max(1.0);
    let layers: [(&str, f64); 6] = [
        ("features", per_call(extract_sum_us)),
        ("cache", per_call(fp_ns / 1e3 * recs)),
        ("batch", per_call(q_wait_sum_us)),
        ("gnn", per_call(encode_sum_us)),
        ("knn", per_call(vote_sum_us - cluster_us)),
        ("cluster", per_call(cluster_us)),
    ];
    let attributed: f64 = layers.iter().map(|l| l.1).sum();
    let unattributed = ratio(req_mean_us - attributed, req_mean_us);
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    let dominant_ok = t.predicted.contains(&dominant);
    let mut notes = vec![format!(
        "trace overhead: traced p50 {:.1} us over {} calls, untraced p50 {:.1} us over {} calls",
        t.phase.p50(),
        t.phase.lat_us.len(),
        t.untraced.p50(),
        t.untraced.lat_us.len()
    )];
    notes.push(format!(
        "reconcile: mean request {req_mean_us:.1} us = {} + unattributed {:.1}%",
        layers
            .iter()
            .map(|(n, v)| format!("{n} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" + "),
        unattributed * 100.0
    ));
    if dominant_ok {
        notes.push(format!(
            "reconcile: dominant layer {dominant}, as predicted"
        ));
    } else {
        notes.push(format!(
            "reconcile: MISMATCH dominant layer is {dominant}, predicted {:?}",
            t.predicted
        ));
    }
    let share = |name: &str| {
        ratio(
            layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1),
            req_mean_us,
        )
    };

    let m = vec![
        ("features.extract_p50_us", extract_p50, "us"),
        ("features.extract_p99_us", extract_p99, "us"),
        ("features.share", share("features"), "ratio"),
        ("cache.fingerprint_ns", fp_ns, "ns"),
        (
            "cache.hit_ratio",
            ratio(t.cache.hits as f64, lookups),
            "ratio",
        ),
        (
            "cache.rejects.first_touch",
            t.cache.rejected_first_touch as f64,
            "count",
        ),
        (
            "cache.rejects.stale_generation",
            t.cache.rejected_stale_generation as f64,
            "count",
        ),
        (
            "cache.rejects.disabled",
            t.cache.rejected_disabled as f64,
            "count",
        ),
        ("cache.share", share("cache"), "ratio"),
        ("batch.queue_wait_mean_us", q_wait_mean_us, "us"),
        ("batch.depth_mean", depth_mean, "count"),
        (
            "batch.path_share.cache_hit",
            ratio(path("cache_hit"), path_total),
            "ratio",
        ),
        (
            "batch.path_share.inline",
            ratio(path("inline"), path_total),
            "ratio",
        ),
        (
            "batch.path_share.worker",
            ratio(path("worker"), path_total),
            "ratio",
        ),
        ("batch.overhead_us", overhead_us, "us"),
        ("batch.share", share("batch"), "ratio"),
        (
            "gnn.encode_us_per_graph",
            ratio(encode_sum_us, t.stats.cache_misses as f64),
            "us",
        ),
        (
            "gnn.train_ms_per_adapt",
            ratio(train_ns / 1e6, t.adaptations as f64),
            "ms",
        ),
        ("gnn.train_s", sp.quantile_ns("gnn.train", 0.5) / 1e9, "s"),
        ("gnn.share", share("gnn"), "ratio"),
        ("knn.vote_us", ratio(vote_sum_us - cluster_us, recs), "us"),
        ("knn.share", share("knn"), "ratio"),
        ("shard.refresh_ms", refresh_mean_ms, "ms"),
        ("reservoir.swaps", swaps, "count"),
        (
            "testbed.label_ms",
            sp.quantile_ns("testbed.label", 0.5) / 1e6,
            "ms",
        ),
        (
            "cluster.rtt_mean_us",
            us(t.backend.mean("ce_cluster_rtt_ns", &[])),
            "us",
        ),
        ("cluster.bytes_per_query", ratio(wire_bytes, recs), "bytes"),
        ("cluster.frames_per_query", ratio(frames, recs), "count"),
        (
            "cluster.bootstrap_s",
            sp.quantile_ns("cluster.bootstrap", 0.5) / 1e9,
            "s",
        ),
        (
            "cluster.retries",
            t.backend.sum("ce_cluster_retries_total", &[]),
            "count",
        ),
        (
            "cluster.failovers",
            t.backend.sum("ce_cluster_failovers_total", &[]),
            "count",
        ),
        ("cluster.share", share("cluster"), "ratio"),
        ("adapt.read_p99_us", t.under_adapt.tail().1, "us"),
        ("gen.late_p99_us", t.gen.late_p99(), "us"),
        (
            "trace.overhead_ratio",
            ratio(t.phase.p50(), t.untraced.p50()),
            "ratio",
        ),
        ("unattributed_share", unattributed, "ratio"),
        (
            "reconcile.dominant_ok",
            f64::from(u8::from(dominant_ok)),
            "count",
        ),
        ("rec_samples", calls, "count"),
    ];
    (m, notes)
}
