//! The four workloads. Each generates its inputs from the seed, stands
//! the advisor up `SETUP_REPS` times (timing each), gates correctness
//! before and after timing, measures, adapts, and reports either the
//! end-to-end metrics (untraced run) or the per-layer ones (traced run).
//! See `DESIGN.md` for why each workload exists and what it isolates.

use crate::common::{
    closed_loop, generate_all, median, open_loop, peak_rss_mb, perturb, poisson_schedule, rng_for,
    sleep_until, slo_search, stratified_specs, Phase, Spans, Zipf,
};
use crate::layers::{layer_metrics, Delta, Traced};
use crate::setup::{self, Cluster};
use autoce::{AdvisorBackend, AutoCe};
use ce_datagen::{DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::{MetricsRegistry, MetricsSnapshot};
use ce_serve::{
    graph_fingerprint, AdvisorService, CacheStats, Query, Recommendation, ServeHandle,
    ServiceStats, ShardedAdvisor,
};
use ce_storage::Dataset;
use ce_testbed::{label_dataset, MetricWeights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The main phase measures for `--seconds`. A traced run adds, before it,
/// an untraced comparison phase of this share of `--seconds`.
const TWIN_SHARE: f64 = 0.3;
/// Rungs of the SLO sweep (traced runs), each `RUNG_SHARE` of
/// `--seconds`, from the highest ladder rate at or below `SWEEP_FROM` of
/// the main phase's call rate. Seven 10% steps from 0.65 reach 1.05–1.15
/// of it: the open loops cross their limits between 0.8 and 1.1 of the
/// main phase's rate, and a sweep that starts above the crossing can only
/// extrapolate.
const SLO_RUNGS: usize = 7;
const RUNG_SHARE: f64 = 0.08;
const SWEEP_FROM: f64 = 0.65;
/// Answers compared bit for bit against the flat reference, before and
/// after timing.
const GATE_SAMPLES: usize = 8;

/// Run parameters from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A workload's result: the JSON fields plus notes printed above it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn count(&mut self, ph: &Phase) {
        self.attempted += ph.attempted;
        self.failed += ph.failed;
    }

    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CORRECTNESS FAILURE: {what}"));
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Metric weighting of call `i`: cycles the paper's 11-point grid.
fn weight(i: usize) -> MetricWeights {
    MetricWeights::new((i % 11) as f64 / 10.0)
}

fn same_bits(want: &(ModelKind, Vec<f64>), got: &Recommendation) -> bool {
    want.0 == got.model
        && want.1.len() == got.scores.len()
        && want
            .1
            .iter()
            .zip(&got.scores)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The flat advisor's answer for a graph.
fn flat_answer(flat: &AutoCe, g: &FeatureGraph, w: MetricWeights) -> (ModelKind, Vec<f64>) {
    let x = flat.embed_graph(g);
    flat.predict_from_embedding(&x, w)
}

/// A flat advisor holding exactly a sharded snapshot's state.
fn flat_of(s: &ShardedAdvisor) -> AutoCe {
    AutoCe::from_parts(
        s.config().clone(),
        s.encoder().clone(),
        (0..s.len()).map(|i| s.entry(i).clone()).collect(),
    )
}

fn registry(trace: bool) -> MetricsRegistry {
    if trace {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    }
}

/// Runs `build` `SETUP_REPS` times, timing each, and keeps the last
/// result; earlier ones go to `discard` (untimed) before the next build.
fn timed_setups<T>(
    trace: bool,
    mut build: impl FnMut(&mut Spans) -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>, Spans) {
    let mut spans = Spans::new(trace);
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(build(&mut spans));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times, spans)
}

/// Drifted datasets for adaptation: 22-table datasets (the corpus has 1–5
/// tables), one per corner of the skew × correlation × domain × join
/// correlation cube, in a fixed order. Distinct corners stay far apart
/// once absorbed, so successive adaptations keep finding drift. The set
/// does not depend on the run seed, so adaptation cost compares from run
/// to run.
fn drift_candidates() -> Vec<Dataset> {
    let pin = |v: f64| SpecRange { lo: v, hi: v };
    let specs: Vec<DatasetSpec> = (0..16)
        .map(|j| {
            let bit = |b: usize, lo: f64, hi: f64| if j >> b & 1 == 0 { lo } else { hi };
            let domain = bit(2, 20.0, 3000.0) as usize;
            DatasetSpec {
                tables: SpecRange { lo: 22, hi: 22 },
                rows: SpecRange { lo: 1000, hi: 1000 },
                columns: SpecRange { lo: 4, hi: 4 },
                domain: SpecRange {
                    lo: domain,
                    hi: domain,
                },
                skew: pin(bit(0, 0.05, 0.95)),
                correlation: pin(bit(1, 0.05, 0.95)),
                join_correlation: pin(bit(3, 0.2, 1.0)),
                cross_correlation: pin(0.45),
                fanout_skew: pin(0.45),
            }
        })
        .collect();
    generate_all("drift", &specs, 0xd1f7, 2)
}

/// The next candidate (from `*next`) that drifts past the snapshot's
/// detector threshold, so the adaptation it feeds is certain to apply.
/// Cheap on small RCSs; callers with a large RCS skip it.
fn next_drifted(snap: &ShardedAdvisor, cands: &[Dataset], next: &mut usize) -> Option<usize> {
    let threshold = snap.drift_detector().threshold();
    while *next < cands.len() {
        let i = *next;
        *next += 1;
        let x = snap.embed_graph(&extract_features(&cands[i], &snap.config().feature));
        if snap.distance_to_embedding(&x) > threshold {
            return Some(i);
        }
    }
    None
}

fn stats_delta(a: ServiceStats, b: ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: b.requests - a.requests,
        batches: b.batches - a.batches,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        adaptations: b.adaptations - a.adaptations,
    }
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        inserts: b.inserts - a.inserts,
        rejected_first_touch: b.rejected_first_touch - a.rejected_first_touch,
        rejected_stale_generation: b.rejected_stale_generation - a.rejected_stale_generation,
        rejected_disabled: b.rejected_disabled - a.rejected_disabled,
        ..b
    }
}

/// Per-thread client state.
struct Client {
    rng: StdRng,
    spans: Spans,
    /// `(call index, answers)` of recorded calls.
    answers: Vec<(usize, Vec<Recommendation>)>,
}

fn client(seed: u64, stream: u64, trace: bool) -> impl Fn(usize) -> Client + Sync {
    move |c| Client {
        rng: rng_for(seed, stream + c as u64),
        spans: Spans::new(trace),
        answers: Vec::new(),
    }
}

fn merge_spans(into: &mut Spans, clients: Vec<Client>) -> Vec<Client> {
    clients
        .into_iter()
        .map(|mut c| {
            into.merge(std::mem::take(&mut c.spans));
            c
        })
        .collect()
}

/// Sweeps the fixed ladder upward from the highest rung at or below
/// `SWEEP_FROM` of `main_rate`, the main phase's call rate.
fn ladder_slo(
    ladder: &[f64],
    main_rate: f64,
    limit_us: f64,
    rung_s: f64,
    seed: u64,
    run: impl Fn(&[f64]) -> Phase,
    out: &mut Outcome,
) -> f64 {
    let start = ladder
        .iter()
        .rposition(|&r| r <= SWEEP_FROM * main_rate)
        .unwrap_or(0);
    let (slo, rungs) = slo_search(ladder, start, SLO_RUNGS, limit_us, |rate| {
        let sched = poisson_schedule(rate, rung_s, &mut rng_for(seed, rate.to_bits()));
        run(&sched)
    });
    for r in &rungs {
        out.count(&r.phase);
        let (q, tail) = r.phase.tail();
        out.notes.push(format!(
            "slo rung {:.0}/s: p50 {:.0} us, p{:.1} {:.0} us over {} calls, achieved {:.0} rec/s",
            r.rate,
            r.phase.p50(),
            q * 100.0,
            tail,
            r.phase.lat_us.len(),
            r.phase.rps()
        ));
    }
    slo
}

/// Generator lateness for a traced run: a short open loop at half the main
/// phase's call rate through the same calls, run after the traced phase
/// has been read. Main phases are closed loops, so this is where the
/// generator's own delay is measured.
fn gen_probe(
    ctx: &Ctx,
    main: &Phase,
    senders: usize,
    call: impl Fn(&mut Client, usize) -> Result<u64, ()> + Sync,
) -> Phase {
    let rate = 0.5 * main.lat_us.len() as f64 / main.wall_s.max(1e-9);
    let sched = poisson_schedule(
        rate,
        RUNG_SHARE * ctx.seconds,
        &mut rng_for(ctx.seed, 0x9e4),
    );
    let t0 = Instant::now() + Duration::from_millis(2);
    open_loop(senders, t0, &sched, client(ctx.seed, 30, false), call).0
}

/// The fixed ladder of offered rates every workload's SLO sweep runs on:
/// 10 calls/s upward in steps of 10%, past 10⁶ calls/s.
fn ladder() -> Vec<f64> {
    (0..125).map(|i| 10.0 * 1.1f64.powi(i)).collect()
}

/// The end-to-end metrics every workload reports. Latency and throughput
/// are medians over `windows` equal time windows of the main phase.
fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    main: &Phase,
    windows: usize,
    adapt_ms: &[f64],
    rss_mb: f64,
) {
    let win = main.windowed(windows);
    out.notes.push(format!(
        "windows (p50/tail us, rec/s): {}",
        win.each
            .iter()
            .map(|(p, t, r)| format!("{p:.0}/{t:.0}/{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "main: {} calls, {} recs in {:.2} s over {} windows; p50 {:.1} us, p{:.1} {:.1} us, {:.1} rec/s; setups {:?} s; adapts {:?} ms",
        main.lat_us.len(),
        main.recs,
        main.wall_s,
        win.windows,
        win.p50,
        win.q * 100.0,
        win.tail,
        win.rps,
        setup_s,
        adapt_ms
    ));
    out.put("setup_s", median(setup_s), "s");
    out.put("rec_p50_us", win.p50, "us");
    out.put("rec_p99_us", win.tail, "us");
    out.put("rec_rps", win.rps, "1/s");
    out.put("adapt_p50_ms", median(adapt_ms), "ms");
    out.put("peak_rss_mb", rss_mb, "MB");
    let attempted = out.attempted.max(1) as f64;
    out.put(
        "success_ratio",
        1.0 - out.failed as f64 / attempted,
        "ratio",
    );
}

// ---------------------------------------------------------------------
// In-process backends: paper_cold, large_rcs, tenant_mix.
// ---------------------------------------------------------------------

/// A stood-up in-process advisor.
struct InProc {
    /// Flat reference holding the same state as the backend.
    flat: AutoCe,
    backend: Arc<ShardedAdvisor>,
    service: AdvisorService<ShardedAdvisor>,
    backend_reg: MetricsRegistry,
    cache_capacity: usize,
}

fn setup_inproc(
    ctx: &Ctx,
    corpus: &[Dataset],
    rcs: Option<usize>,
    cache_capacity: usize,
    service_reg: &MetricsRegistry,
    spans: &mut Spans,
) -> InProc {
    let backend_reg = registry(ctx.trace);
    let trained = setup::label_and_train(corpus, ctx.seed, spans);
    let flat = match rcs {
        Some(n) => setup::grow_rcs(trained, n, ctx.seed),
        None => trained,
    };
    let backend = Arc::new(setup::sharded(&flat, &backend_reg));
    let service = AdvisorService::start_shared(
        backend.clone(),
        setup::serve_config(cache_capacity, service_reg, ctx.seed),
    );
    InProc {
        flat,
        backend,
        service,
        backend_reg,
        cache_capacity,
    }
}

impl InProc {
    /// A second service over the same backend with a disabled registry:
    /// the untraced comparison phase of a traced run.
    fn untraced_twin(&self, seed: u64) -> AdvisorService<ShardedAdvisor> {
        AdvisorService::start_shared(
            self.backend.clone(),
            setup::serve_config(self.cache_capacity, &MetricsRegistry::disabled(), seed),
        )
    }
}

/// Base datasets a dataset workload perturbs per request.
struct Bases {
    sets: Vec<Mutex<Dataset>>,
    order: Vec<usize>,
}

impl Bases {
    fn new(sets: Vec<Dataset>, rng: &mut StdRng) -> Self {
        let mut order: Vec<usize> = (0..sets.len()).collect();
        order.shuffle(rng);
        Bases {
            sets: sets.into_iter().map(Mutex::new).collect(),
            order,
        }
    }

    /// Request `i`'s dataset: its base, perturbed into a new dataset.
    fn take(&self, i: usize, rng: &mut StdRng) -> MutexGuard<'_, Dataset> {
        let mut g = self.sets[self.order[i % self.order.len()]]
            .lock()
            .expect("base dataset lock");
        perturb(&mut g, i, rng);
        g
    }
}

/// One `recommend(&Dataset)` call. Traced, it is split into its two
/// halves — exactly what `recommend` does — with a span on each.
fn recommend_call(
    handle: &ServeHandle<ShardedAdvisor>,
    bases: &Bases,
    st: &mut Client,
    i: usize,
) -> Result<u64, ()> {
    let w = weight(i);
    let ds = bases.take(i, &mut st.rng);
    let res = if st.spans.enabled() {
        let feature = handle.snapshot().feature_config();
        let g = st
            .spans
            .time("features.extract", || extract_features(&ds, &feature));
        drop(ds);
        st.spans
            .time("serve.query", || handle.recommend_graph(g, w))
    } else {
        handle.recommend(&ds, w)
    };
    res.map(|_| 1).map_err(|_| ())
}

/// Compares `GATE_SAMPLES` fresh dataset answers with the flat reference.
fn gate_datasets(
    handle: &ServeHandle<ShardedAdvisor>,
    flat: &AutoCe,
    bases: &Bases,
    offset: usize,
    rng: &mut StdRng,
    out: &mut Outcome,
    label: &str,
) {
    let mut prev_fp = None;
    for k in 0..GATE_SAMPLES {
        let i = offset + k;
        let w = weight(i);
        let ds = bases.take(i, rng);
        let got = handle.recommend(&ds, w);
        out.attempted += 1;
        let g = extract_features(&ds, &flat.config().feature);
        let fp = graph_fingerprint(&g);
        out.check(
            prev_fp != Some(fp),
            format!("{label}: perturbed dataset repeated a fingerprint"),
        );
        prev_fp = Some(fp);
        match got {
            Ok(r) => out.check(
                same_bits(&flat_answer(flat, &g, w), &r),
                format!("{label}: sample {k} differs from the flat reference"),
            ),
            Err(e) => {
                out.failed += 1;
                out.check(false, format!("{label}: sample {k} refused: {e}"));
            }
        }
    }
}

/// A closed-loop dataset workload: `paper_cold` or `large_rcs`.
pub struct DatasetWorkload {
    /// Spec the request datasets are drawn from, and how many bases.
    pub spec: DatasetSpec,
    pub bases: usize,
    /// RCS size to grow to, or the trained corpus as is.
    pub rcs: Option<usize>,
    /// p99 limit of the SLO search.
    pub limit_us: f64,
    /// Adaptations, one after each equal segment of the main phase.
    pub adapts: usize,
    /// Skip the drift pre-check (large RCS: the fit is O(n²)).
    pub trust_drift: bool,
    pub predicted: &'static [&'static str],
}

pub fn run_dataset(ctx: &Ctx, wl: &DatasetWorkload) -> Outcome {
    let mut out = Outcome::new();
    // Inputs, all before timing.
    let corpus = setup::corpus(ctx.seed);
    let mut rng = rng_for(ctx.seed, 0xba5e);
    let specs = stratified_specs(&wl.spec, wl.bases, 0xba5e);
    let bases = Bases::new(generate_all("req", &specs, ctx.seed ^ 0xba5e, 2), &mut rng);
    let drift = drift_candidates();

    let service_reg = registry(ctx.trace);
    let (sys, setup_s, mut spans) = timed_setups(
        ctx.trace,
        |sp| setup_inproc(ctx, &corpus, wl.rcs, 1024, &service_reg, sp),
        drop,
    );
    let handle = sys.service.handle();
    gate_datasets(
        &handle,
        &sys.flat,
        &bases,
        1 << 40,
        &mut rng,
        &mut out,
        "pre-timing gate",
    );

    let main_s = ctx.seconds;
    // `offset` keeps the input indices of successive segments distinct.
    let measure =
        |h: &ServeHandle<ShardedAdvisor>, secs: f64, trace: bool, stream: u64, offset: usize| {
            let deadline = Instant::now() + Duration::from_secs_f64(secs);
            closed_loop(
                2,
                usize::MAX,
                deadline,
                client(ctx.seed, stream, trace),
                |st, i| recommend_call(h, &bases, st, i + offset),
            )
        };

    let mut untraced = Phase::default();
    if ctx.trace {
        let twin = sys.untraced_twin(ctx.seed);
        untraced = measure(&twin.handle(), TWIN_SHARE * ctx.seconds, false, 1, 1 << 32).0;
        twin.shutdown();
    }

    // The main phase: `adapts` equal segments of reads, each followed by
    // one serial adaptation with the readers paused, so the adaptation
    // samples are spread over the run like the read windows, and a brief
    // slowdown of the machine cannot take them all. Adaptation records
    // only its own metric families (training, refresh, swaps), so one
    // registry reading around the whole phase serves both.
    let serve_before = sys.service.metrics_snapshot();
    let backend_before = sys.backend_reg.snapshot();
    let (stats0, cache0) = (sys.service.stats(), sys.service.cache_stats());
    let mut main = Phase::default();
    let mut adapt_ms = Vec::new();
    let mut next = 0;
    for j in 0..wl.adapts {
        let (seg, clients) = measure(
            &handle,
            main_s / wl.adapts as f64,
            ctx.trace,
            100 + 2 * j as u64,
            (2 << 32) + (j << 24),
        );
        merge_spans(&mut spans, clients);
        main.append(seg);
        let d = if wl.trust_drift {
            next += 1;
            Some(next - 1)
        } else {
            next_drifted(&sys.service.snapshot(), &drift, &mut next)
        };
        let Some(d) = d else {
            out.check(false, format!("no drifted dataset left for adaptation {j}"));
            break;
        };
        let t = Instant::now();
        let applied = spans.time("serve.adapt", || {
            sys.service
                .adapt(&drift[d], &setup::testbed(), ctx.seed ^ j as u64)
        });
        adapt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        out.check(applied, format!("scheduled adaptation {j} did not apply"));
    }
    let (stats1, cache1) = (sys.service.stats(), sys.service.cache_stats());
    let serve_after = sys.service.metrics_snapshot();
    let backend_after = sys.backend_reg.snapshot();
    out.count(&main);
    let mut gen = Phase::default();
    if ctx.trace {
        gen = gen_probe(ctx, &main, 2, |st, i| {
            recommend_call(&handle, &bases, st, i + (4 << 32))
        });
        out.count(&gen);
    }

    let mut slo_rps = 0.0;
    if ctx.trace {
        slo_rps = ladder_slo(
            &ladder(),
            main.lat_us.len() as f64 / main.wall_s,
            wl.limit_us,
            RUNG_SHARE * ctx.seconds,
            ctx.seed,
            |sched| {
                let t0 = Instant::now() + Duration::from_millis(2);
                open_loop(2, t0, sched, client(ctx.seed, 3, false), |st, i| {
                    recommend_call(&handle, &bases, st, i + (3 << 32))
                })
                .0
            },
            &mut out,
        );
    }
    gate_datasets(
        &handle,
        &flat_of(&sys.service.snapshot()),
        &bases,
        1 << 41,
        &mut rng,
        &mut out,
        "post-timing gate",
    );
    let rss = peak_rss_mb(None);

    if ctx.trace {
        fingerprint_spans_of_datasets(&mut spans, &bases, &sys.flat);
        let (m, notes) = layer_metrics(&Traced {
            phase: &main,
            untraced: &untraced,
            gen: &gen,
            under_adapt: &Phase::default(),
            spans: &spans,
            serve: Delta {
                before: &serve_before,
                after: &serve_after,
            },
            backend: Delta {
                before: &backend_before,
                after: &backend_after,
            },
            adapt: Delta {
                before: &serve_before,
                after: &serve_after,
            },
            stats: stats_delta(stats0, stats1),
            cache: cache_delta(cache0, cache1),
            adaptations: wl.adapts,
            remote_vote: false,
            predicted: wl.predicted,
        });
        out.notes.extend(notes);
        for (n, v, u) in m {
            out.put(n, v, u);
        }
        out.put("slo_rps", slo_rps, "1/s");
    } else {
        end_to_end(
            &mut out,
            &setup_s,
            &main,
            main.default_windows(),
            &adapt_ms,
            rss,
        );
    }
    out
}

/// `cache.fingerprint` spans over graphs of the workload's base datasets
/// (taken after timing, off the request path).
fn fingerprint_spans_of_datasets(spans: &mut Spans, bases: &Bases, flat: &AutoCe) {
    for m in bases.sets.iter().take(64) {
        let g = extract_features(
            &m.lock().expect("base dataset lock"),
            &flat.config().feature,
        );
        for _ in 0..4 {
            std::hint::black_box(spans.time("cache.fingerprint", || graph_fingerprint(&g)));
        }
    }
}

fn fingerprint_spans_of_graphs(spans: &mut Spans, pool: &[FeatureGraph]) {
    for g in pool.iter().take(256) {
        std::hint::black_box(spans.time("cache.fingerprint", || graph_fingerprint(g)));
    }
}

// ---------------------------------------------------------------------
// Graph-pool workloads: tenant_mix and cluster_loopback.
// ---------------------------------------------------------------------

/// Pre-extracted graphs plus a cyclic plan of calls (graph indices each).
struct GraphPlan {
    pool: Vec<FeatureGraph>,
    calls: Vec<Vec<usize>>,
}

impl GraphPlan {
    fn refs(&self, i: usize) -> Vec<&FeatureGraph> {
        self.calls[i % self.calls.len()]
            .iter()
            .map(|&j| &self.pool[j])
            .collect()
    }
}

/// Generates the pool's datasets and extracts their graphs, with
/// `features.extract_pool` spans: graph workloads never extract while
/// serving, so their extraction cost is measured here, off the request
/// path.
fn extract_pool(specs: &[DatasetSpec], seed: u64, spans: &mut Spans) -> Vec<FeatureGraph> {
    let feature = setup::advisor_config().feature;
    generate_all("pool", specs, seed, 2)
        .iter()
        .map(|ds| spans.time("features.extract_pool", || extract_features(ds, &feature)))
        .collect()
}

/// One `ServeHandle::query` call over call `i`'s graphs; records the
/// answers of every `record_every`-th call.
fn query_call<B: AdvisorBackend + 'static>(
    handle: &ServeHandle<B>,
    plan: &GraphPlan,
    st: &mut Client,
    i: usize,
    record_every: usize,
) -> Result<u64, ()> {
    let refs = plan.refs(i);
    let w = weight(i);
    let recs = st
        .spans
        .time("serve.query", || handle.query(Query::graph_refs(&refs, w)))
        .map_err(|_| ())?;
    let n = recs.len() as u64;
    if i.is_multiple_of(record_every) {
        st.answers.push((i, recs));
    }
    Ok(n)
}

fn gate_graphs<B: AdvisorBackend + 'static>(
    handle: &ServeHandle<B>,
    flat: &AutoCe,
    plan: &GraphPlan,
    out: &mut Outcome,
    label: &str,
) {
    for k in 0..GATE_SAMPLES {
        let g = &plan.pool[(k * 7) % plan.pool.len()];
        let w = weight(k);
        out.attempted += 1;
        match handle.query(Query::graph_refs(&[g], w)) {
            Ok(r) => out.check(
                same_bits(&flat_answer(flat, g, w), &r[0]),
                format!("{label}: sample {k} differs from the flat reference"),
            ),
            Err(e) => {
                out.failed += 1;
                out.check(false, format!("{label}: sample {k} refused: {e}"));
            }
        }
    }
}

/// Recorded answers must equal the flat reference's.
fn check_recorded(clients: &[Client], flat: &AutoCe, plan: &GraphPlan, out: &mut Outcome) {
    for c in clients {
        for (i, recs) in &c.answers {
            for (g, r) in plan.refs(*i).into_iter().zip(recs) {
                out.check(
                    same_bits(&flat_answer(flat, g, weight(*i)), r),
                    format!("recorded answer of call {i} differs from the flat reference"),
                );
            }
        }
    }
}

/// `tenant_mix`: one reader over a Zipf-skewed graph pool eight times the
/// cache, singles plus 8-graph bursts. The main phase has two parts: reads
/// alone (the `rec_*` figures), then reads against one admin thread
/// adapting on a fixed schedule (`adapt_p50_ms`, the post-swap gate, and
/// the read tail under adaptation). The reader is a closed loop; the open
/// loop is the SLO ladder's (see `DESIGN.md` for why).
pub fn run_tenant_mix(ctx: &Ctx) -> Outcome {
    const POOL: usize = 128;
    const CACHE: usize = 16;
    const BURST: usize = 8;
    const BURST_SHARE: f64 = 0.2;
    /// Shares of `--seconds`: reads alone, then reads under adaptation.
    const READ_SHARE: f64 = 0.6;
    const ADAPT_SHARE: f64 = 1.0 - READ_SHARE;
    /// Adaptations in the second part, at evenly spaced times.
    const ADAPTS: usize = 8;
    let mut out = Outcome::new();

    let corpus = setup::corpus(ctx.seed);
    let mut rng = rng_for(ctx.seed, 0x7e4a);
    let mut spec = DatasetSpec::small();
    spec.tables = SpecRange { lo: 10, hi: 16 };
    let mut pool_spans = Spans::new(ctx.trace);
    let pool = extract_pool(
        &stratified_specs(&spec, POOL, 0x7e4a),
        ctx.seed ^ 0x7e4a,
        &mut pool_spans,
    );
    let zipf = Zipf::new(POOL, 1.0);
    let mut rank_to_graph: Vec<usize> = (0..POOL).collect();
    rank_to_graph.shuffle(&mut rng);
    let calls: Vec<Vec<usize>> = (0..8192)
        .map(|_| {
            let n = if rng.gen::<f64>() < BURST_SHARE {
                BURST
            } else {
                1
            };
            (0..n)
                .map(|_| rank_to_graph[zipf.sample(&mut rng)])
                .collect()
        })
        .collect();
    let plan = GraphPlan { pool, calls };
    let drift = drift_candidates();

    let service_reg = registry(ctx.trace);
    let (sys, setup_s, mut spans) = timed_setups(
        ctx.trace,
        |sp| setup_inproc(ctx, &corpus, None, CACHE, &service_reg, sp),
        drop,
    );
    spans.merge(pool_spans);
    let handle = sys.service.handle();
    gate_graphs(&handle, &sys.flat, &plan, &mut out, "pre-timing gate");

    // One closed-loop reader for `secs`.
    let reader = |h: &ServeHandle<ShardedAdvisor>, secs: f64, trace: bool, record: usize| {
        closed_loop(
            1,
            usize::MAX,
            Instant::now() + Duration::from_secs_f64(secs),
            client(ctx.seed, 10, trace),
            |st, i| query_call(h, &plan, st, i, record),
        )
    };

    let mut untraced = Phase::default();
    if ctx.trace {
        let twin = sys.untraced_twin(ctx.seed);
        untraced = reader(&twin.handle(), TWIN_SHARE * ctx.seconds, false, usize::MAX).0;
        twin.shutdown();
    }

    // Reads alone.
    let serve_before = sys.service.metrics_snapshot();
    let (stats0, cache0) = (sys.service.stats(), sys.service.cache_stats());
    let (main, clients) = reader(&handle, READ_SHARE * ctx.seconds, ctx.trace, 16);
    let (stats1, cache1) = (sys.service.stats(), sys.service.cache_stats());
    let serve_after = sys.service.metrics_snapshot();
    let clients = merge_spans(&mut spans, clients);
    out.count(&main);
    check_recorded(&clients, &sys.flat, &plan, &mut out);
    let mut gen = Phase::default();
    if ctx.trace {
        gen = gen_probe(ctx, &main, 1, |st, i| {
            query_call(&handle, &plan, st, i, usize::MAX)
        });
        out.count(&gen);
    }

    // Reads under adaptation: reader + admin, sharing one clock. The admin
    // raises `floor` to each new generation once its swap completes; every
    // answer must carry at least the floor read before its call was sent.
    // Answers are kept for the 32 calls after each swap and every 16th
    // call, so memory does not grow with throughput.
    let adapt_s = ADAPT_SHARE * ctx.seconds;
    let t0 = Instant::now();
    let mut adapt_ms = Vec::new();
    let mut snapshots = vec![sys.service.snapshot()];
    let floor = AtomicU64::new(snapshots[0].generation());
    let (seen, record_next, stale) = (
        AtomicU64::new(floor.load(Ordering::SeqCst)),
        AtomicUsize::new(0),
        AtomicU64::new(0),
    );
    let mut admin_spans = Spans::new(ctx.trace);
    let mut applied_all = true;
    let (under_adapt, clients) = std::thread::scope(|s| {
        let admin = s.spawn(|| {
            let mut next = 0;
            for j in 0..ADAPTS {
                sleep_until(
                    t0 + Duration::from_secs_f64(adapt_s * (j as f64 + 0.5) / ADAPTS as f64),
                );
                let Some(d) = next_drifted(&sys.service.snapshot(), &drift, &mut next) else {
                    applied_all = false;
                    break;
                };
                let t = Instant::now();
                let applied = admin_spans.time("serve.adapt", || {
                    sys.service
                        .adapt(&drift[d], &setup::testbed(), ctx.seed ^ j as u64)
                });
                adapt_ms.push(t.elapsed().as_secs_f64() * 1e3);
                applied_all &= applied;
                let snap = sys.service.snapshot();
                floor.store(snap.generation(), Ordering::SeqCst);
                snapshots.push(snap);
            }
        });
        let r = closed_loop(
            1,
            usize::MAX,
            t0 + Duration::from_secs_f64(adapt_s),
            client(ctx.seed, 12, false),
            |st, i| {
                let f = floor.load(Ordering::SeqCst);
                if seen.swap(f, Ordering::Relaxed) != f {
                    record_next.store(32, Ordering::Relaxed);
                }
                let refs = plan.refs(i);
                let recs = handle
                    .query(Query::graph_refs(&refs, weight(i)))
                    .map_err(|_| ())?;
                if recs.iter().any(|r| r.generation < f) {
                    stale.fetch_add(1, Ordering::Relaxed);
                }
                let n = recs.len() as u64;
                let after = record_next.load(Ordering::Relaxed);
                if after > 0 || i.is_multiple_of(16) {
                    record_next.store(after.saturating_sub(1), Ordering::Relaxed);
                    st.answers.push((i, recs));
                }
                Ok(n)
            },
        );
        admin.join().expect("admin thread panicked");
        r
    });
    let (stats2, adapt_after) = (sys.service.stats(), sys.service.metrics_snapshot());
    spans.merge(admin_spans);
    out.count(&under_adapt);
    out.attempted += ADAPTS as u64;
    out.check(applied_all, "a scheduled adaptation did not apply".into());
    out.check(
        stats_delta(stats1, stats2).adaptations == ADAPTS as u64,
        "snapshot swaps differ from scheduled adaptations".into(),
    );
    let stale = stale.into_inner();
    out.check(
        stale == 0,
        format!("{stale} calls sent after a swap were answered from an older generation"),
    );

    // Post-swap gate: the recorded answers equal a direct predict on the
    // snapshot of the generation they carry.
    let by_gen: std::collections::BTreeMap<u64, &Arc<ShardedAdvisor>> =
        snapshots.iter().map(|s| (s.generation(), s)).collect();
    let mut verified = 0usize;
    for c in &clients {
        for (i, recs) in &c.answers {
            for (g, r) in plan.refs(*i).into_iter().zip(recs) {
                let Some(snap) = by_gen.get(&r.generation) else {
                    out.check(
                        false,
                        format!("call {i} answered from unknown generation {}", r.generation),
                    );
                    continue;
                };
                let x = snap.embed_graph(g);
                let want = snap.predict_excluding(&x, weight(*i), usize::MAX);
                out.check(
                    same_bits(&want, r),
                    format!("call {i} differs from its snapshot's direct predict"),
                );
                verified += 1;
            }
        }
    }
    let (q, tail) = under_adapt.tail();
    out.notes.push(format!(
        "under adaptation: {} calls, p50 {:.0} us, p{:.1} {:.0} us; post-swap gate verified {verified} answers",
        under_adapt.lat_us.len(),
        under_adapt.p50(),
        q * 100.0,
        tail
    ));
    let final_flat = flat_of(&sys.service.snapshot());
    gate_graphs(&handle, &final_flat, &plan, &mut out, "post-timing gate");

    let mut slo_rps = 0.0;
    if ctx.trace {
        slo_rps = ladder_slo(
            &ladder(),
            main.lat_us.len() as f64 / main.wall_s,
            100_000.0,
            RUNG_SHARE * ctx.seconds,
            ctx.seed,
            |sched| {
                let t0 = Instant::now() + Duration::from_millis(2);
                open_loop(1, t0, sched, client(ctx.seed, 11, false), |st, i| {
                    query_call(&handle, &plan, st, i, usize::MAX)
                })
                .0
            },
            &mut out,
        );
    }
    let rss = peak_rss_mb(None);
    if ctx.trace {
        fingerprint_spans_of_graphs(&mut spans, &plan.pool);
        let none = MetricsSnapshot::empty();
        let (m, notes) = layer_metrics(&Traced {
            phase: &main,
            untraced: &untraced,
            gen: &gen,
            under_adapt: &under_adapt,
            spans: &spans,
            serve: Delta {
                before: &serve_before,
                after: &serve_after,
            },
            backend: Delta {
                before: &none,
                after: &none,
            },
            adapt: Delta {
                before: &serve_after,
                after: &adapt_after,
            },
            stats: stats_delta(stats0, stats1),
            cache: cache_delta(cache0, cache1),
            adaptations: ADAPTS,
            remote_vote: false,
            predicted: &["batch", "cache", "gnn"],
        });
        out.notes.extend(notes);
        for (n, v, u) in m {
            out.put(n, v, u);
        }
        out.put("slo_rps", slo_rps, "1/s");
    } else {
        end_to_end(
            &mut out,
            &setup_s,
            &main,
            main.default_windows(),
            &adapt_ms,
            rss,
        );
    }
    out
}

/// `cluster_loopback`: two closed-loop clients, singles plus 16-graph
/// bursts, over a coordinator fronting 2 ranges × 2 replicas of real
/// shard-server processes on loopback.
pub fn run_cluster(ctx: &Ctx) -> Outcome {
    const POOL: usize = 128;
    const BURST: usize = 16;
    const BURST_SHARE: f64 = 0.25;
    /// Authority adaptations after the reads; the median of 7 holds
    /// where a median of 3 swung 0.34 across seeds on a loaded host.
    const ADAPTS: usize = 7;
    let mut out = Outcome::new();

    let corpus = setup::corpus(ctx.seed);
    let mut rng = rng_for(ctx.seed, 0xc1);
    let mut pool_spans = Spans::new(ctx.trace);
    let pool = extract_pool(
        &stratified_specs(&DatasetSpec::small().multi_table(), POOL, 0xc1),
        ctx.seed ^ 0xc1,
        &mut pool_spans,
    );
    let calls: Vec<Vec<usize>> = (0..8192)
        .map(|_| {
            let n = if rng.gen::<f64>() < BURST_SHARE {
                BURST
            } else {
                1
            };
            (0..n).map(|_| rng.gen_range(0..POOL)).collect()
        })
        .collect();
    let plan = GraphPlan { pool, calls };
    let drift = drift_candidates();

    struct Sys {
        flat: AutoCe,
        cluster: Cluster,
        service: AdvisorService<ce_cluster::ClusterCoordinator>,
    }
    let service_reg = registry(ctx.trace);
    let (sys, setup_s, mut spans) = timed_setups(
        ctx.trace,
        |sp| {
            let flat = setup::label_and_train(&corpus, ctx.seed, sp);
            let cluster = Cluster::start(&flat, &registry(ctx.trace), sp);
            // No embedding cache: every request encodes and votes over
            // the wire, so the cluster path is the whole request.
            let service = AdvisorService::start_shared(
                cluster.coord.clone(),
                setup::serve_config(0, &service_reg, ctx.seed),
            );
            Sys {
                flat,
                cluster,
                service,
            }
        },
        |old| {
            old.service.shutdown();
            old.cluster.stop();
        },
    );
    spans.merge(pool_spans);
    let handle = sys.service.handle();
    gate_graphs(&handle, &sys.flat, &plan, &mut out, "pre-timing gate");

    let main_s = ctx.seconds;
    let measure =
        |h: &ServeHandle<ce_cluster::ClusterCoordinator>, secs: f64, trace: bool, stream: u64| {
            closed_loop(
                2,
                usize::MAX,
                Instant::now() + Duration::from_secs_f64(secs),
                client(ctx.seed, stream, trace),
                |st, i| query_call(h, &plan, st, i, 64),
            )
        };
    let mut untraced = Phase::default();
    if ctx.trace {
        let twin = AdvisorService::start_shared(
            sys.cluster.coord.clone(),
            setup::serve_config(0, &MetricsRegistry::disabled(), ctx.seed),
        );
        untraced = measure(&twin.handle(), TWIN_SHARE * ctx.seconds, false, 20).0;
        twin.shutdown();
    }
    let serve_before = sys.service.metrics_snapshot();
    let backend_before = sys.cluster.coord.cluster_metrics();
    let (stats0, cache0) = (sys.service.stats(), sys.service.cache_stats());
    let (main, clients) = measure(&handle, main_s, ctx.trace, 21);
    let (stats1, cache1) = (sys.service.stats(), sys.service.cache_stats());
    let serve_after = sys.service.metrics_snapshot();
    let backend_after = sys.cluster.coord.cluster_metrics();
    let clients = merge_spans(&mut spans, clients);
    out.count(&main);
    check_recorded(&clients, &sys.flat, &plan, &mut out);
    let mut gen = Phase::default();
    if ctx.trace {
        gen = gen_probe(ctx, &main, 2, |st, i| {
            query_call(&handle, &plan, st, i, usize::MAX)
        });
        out.count(&gen);
    }

    let mut slo_rps = 0.0;
    if ctx.trace {
        slo_rps = ladder_slo(
            &ladder(),
            main.lat_us.len() as f64 / main.wall_s,
            100_000.0,
            RUNG_SHARE * ctx.seconds,
            ctx.seed,
            |sched| {
                let t0 = Instant::now() + Duration::from_millis(2);
                open_loop(2, t0, sched, client(ctx.seed, 22, false), |st, i| {
                    query_call(&handle, &plan, st, i, usize::MAX)
                })
                .0
            },
            &mut out,
        );
    }
    gate_graphs(&handle, &sys.flat, &plan, &mut out, "post-timing gate");

    // Cluster adaptation happens at the authority: label the drifted
    // dataset, push it, and stage a new epoch on every replica.
    let adapt_before = sys.cluster.coord.cluster_metrics();
    let mut adapt_ms = Vec::new();
    for (j, ds) in drift.iter().take(ADAPTS).enumerate() {
        let t = Instant::now();
        let epoch0 = sys.cluster.coord.epoch();
        let res = spans.time("serve.adapt", || {
            let label = label_dataset(ds, &setup::testbed(), ctx.seed ^ j as u64);
            let graph = extract_features(ds, &setup::advisor_config().feature);
            sys.cluster
                .coord
                .push_entry(graph, &label)
                .and_then(|_| sys.cluster.coord.refresh_and_snapshot())
        });
        adapt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let ok = matches!(res, Ok(e) if e > epoch0);
        if !ok {
            out.failed += 1;
        }
        out.check(
            ok,
            format!("cluster adaptation {j} did not stage a new epoch"),
        );
    }
    let adapt_after = sys.cluster.coord.cluster_metrics();
    let rss = peak_rss_mb(None) + sys.cluster.children_rss_mb();

    if ctx.trace {
        fingerprint_spans_of_graphs(&mut spans, &plan.pool);
        let (m, notes) = layer_metrics(&Traced {
            phase: &main,
            untraced: &untraced,
            gen: &gen,
            under_adapt: &Phase::default(),
            spans: &spans,
            serve: Delta {
                before: &serve_before,
                after: &serve_after,
            },
            backend: Delta {
                before: &backend_before,
                after: &backend_after,
            },
            adapt: Delta {
                before: &adapt_before,
                after: &adapt_after,
            },
            stats: stats_delta(stats0, stats1),
            cache: cache_delta(cache0, cache1),
            adaptations: ADAPTS,
            remote_vote: true,
            predicted: &["cluster"],
        });
        out.notes.extend(notes);
        for (n, v, u) in m {
            out.put(n, v, u);
        }
        out.put("slo_rps", slo_rps, "1/s");
    } else {
        end_to_end(
            &mut out,
            &setup_s,
            &main,
            main.default_windows(),
            &adapt_ms,
            rss,
        );
    }
    let Sys {
        service, cluster, ..
    } = sys;
    service.shutdown();
    cluster.stop();
    out
}
