//! Harness plumbing shared by every workload: sample statistics, the
//! benchmark's own span recorder, seeded input shaping (stratified dataset
//! specs, in-place dataset perturbation, Zipf and Poisson draws), the
//! closed- and open-loop drivers, the SLO ladder sweep, and peak-RSS
//! readout.

use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_storage::column::ColumnRole;
use ce_storage::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample; the mean of the two middle values when
/// the count is even, so a median over two windows is not just the faster.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail quantile a sample of `n` supports: p99 once at least ten
/// samples lie beyond it (n ≥ 1000), otherwise the highest quantile that
/// keeps ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(20) as f64).max(0.5)
    }
}

/// Per-call latencies in microseconds, plus the counts a phase reports.
#[derive(Default, Clone)]
pub struct Phase {
    /// One entry per completed call, µs.
    pub lat_us: Vec<f64>,
    /// Recommendations completed (a burst call completes several).
    pub recs: u64,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Wall time the phase measured, s.
    pub wall_s: f64,
    /// Generator lateness per send, µs (open loops only).
    pub late_us: Vec<f64>,
    /// Per completed call: completion offset from the phase start (s) and
    /// recommendations it returned, parallel to `lat_us`.
    pub done_s: Vec<f64>,
    pub done_recs: Vec<u64>,
}

/// Medians over equal time windows of a phase.
pub struct Windowed {
    pub windows: usize,
    pub p50: f64,
    /// Tail quantile used per window (p99 once windows hold ≥ 1000 calls).
    pub q: f64,
    pub tail: f64,
    pub rps: f64,
    /// Per window: p50, tail, throughput.
    pub each: Vec<(f64, f64, f64)>,
}

impl Phase {
    fn push(&mut self, lat_us: f64, done_s: f64, recs: u64) {
        self.lat_us.push(lat_us);
        self.done_s.push(done_s);
        self.done_recs.push(recs);
        self.recs += recs;
    }

    pub fn merge(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.late_us.extend(other.late_us);
        self.done_s.extend(other.done_s);
        self.done_recs.extend(other.done_recs);
        self.recs += other.recs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }

    /// Appends a phase measured after this one: its completion times are
    /// shifted by this phase's wall time, so windows span both.
    pub fn append(&mut self, mut other: Phase) {
        for d in other.done_s.iter_mut() {
            *d += self.wall_s;
        }
        self.merge(other);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.lat_us.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// `(quantile used, value)` of the supported tail.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_q(self.lat_us.len());
        (q, quantile(&self.sorted(), q))
    }

    pub fn mean(&self) -> f64 {
        self.lat_us.iter().sum::<f64>() / self.lat_us.len().max(1) as f64
    }

    pub fn rps(&self) -> f64 {
        self.recs as f64 / self.wall_s.max(1e-9)
    }

    /// Splits the phase into `w` equal windows by completion time and
    /// reports the median over windows of each window's p50, tail and
    /// throughput, so one disturbed window cannot move a figure.
    pub fn windowed(&self, w: usize) -> Windowed {
        let w = w.max(1);
        let span = self.wall_s.max(1e-9) / w as f64;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); w];
        let mut recs = vec![0u64; w];
        for ((&l, &d), &r) in self.lat_us.iter().zip(&self.done_s).zip(&self.done_recs) {
            let k = ((d / span) as usize).min(w - 1);
            lat[k].push(l);
            recs[k] += r;
        }
        for l in lat.iter_mut() {
            l.sort_by(f64::total_cmp);
        }
        let q = tail_q(lat.iter().map(Vec::len).min().unwrap_or(0));
        let each: Vec<(f64, f64, f64)> = lat
            .iter()
            .zip(&recs)
            .map(|(l, &r)| (quantile(l, 0.5), quantile(l, q), r as f64 / span))
            .collect();
        let med = |f: fn(&(f64, f64, f64)) -> f64| median(&each.iter().map(f).collect::<Vec<_>>());
        Windowed {
            windows: w,
            p50: med(|e| e.0),
            q,
            tail: med(|e| e.1),
            rps: med(|e| e.2),
            each,
        }
    }

    /// Windows holding at least 1000 calls each (for a true p99), 1 to 8.
    pub fn default_windows(&self) -> usize {
        (self.lat_us.len() / 1000).clamp(1, 8)
    }

    pub fn late_p99(&self) -> f64 {
        let mut v = self.late_us.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.99)
    }
}

/// The benchmark's span recorder: durations (ns) by span name. Disabled
/// in untraced runs, where [`Spans::time`] is a plain call.
#[derive(Default)]
pub struct Spans {
    enabled: bool,
    by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            by_name: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.by_name.entry(name).or_default().push(ns);
        out
    }

    pub fn merge(&mut self, other: Spans) {
        for (k, v) in other.by_name {
            self.by_name.entry(k).or_default().extend(v);
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    pub fn sum_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().map(|&x| x as f64).sum())
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        self.sum_ns(name) / self.count(name).max(1) as f64
    }

    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .by_name
            .get(name)
            .map_or(Vec::new(), |v| v.iter().map(|&x| x as f64).collect());
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }
}

/// Seeded RNG for one named input stream of a run.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `n` specs drawn from `base` with table count, rows, columns and domain
/// size pinned to Latin-hypercube strata of the base ranges, so the inputs
/// cover the whole shape space evenly. The shapes depend on `design` only,
/// never on the run seed: runs differ in their data (values, skew,
/// correlations), not in how much work their inputs take, which keeps
/// extremes such as the p99 request from moving with the seed.
pub fn stratified_specs(base: &DatasetSpec, n: usize, design: u64) -> Vec<DatasetSpec> {
    let rng = &mut StdRng::seed_from_u64(design);
    let strata = |r: SpecRange<usize>, rng: &mut StdRng| -> Vec<usize> {
        let span = (r.hi - r.lo) as f64;
        let mut v: Vec<usize> = (0..n)
            .map(|i| r.lo + ((i as f64 + rng.gen::<f64>()) / n as f64 * span).round() as usize)
            .map(|x| x.min(r.hi))
            .collect();
        v.shuffle(rng);
        v
    };
    let tables = strata(base.tables, rng);
    let rows = strata(base.rows, rng);
    let cols = strata(base.columns, rng);
    let domains = strata(base.domain, rng);
    (0..n)
        .map(|i| DatasetSpec {
            tables: SpecRange {
                lo: tables[i],
                hi: tables[i],
            },
            rows: SpecRange {
                lo: rows[i],
                hi: rows[i],
            },
            columns: SpecRange {
                lo: cols[i],
                hi: cols[i],
            },
            domain: SpecRange {
                lo: domains[i],
                hi: domains[i],
            },
            ..base.clone()
        })
        .collect()
}

/// Generates one dataset per spec, fanned out over `threads` threads;
/// dataset `i` draws from its own seeded stream, so the output does not
/// depend on scheduling.
pub fn generate_all(
    prefix: &str,
    specs: &[DatasetSpec],
    seed: u64,
    threads: usize,
) -> Vec<Dataset> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Dataset>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let mut rng = rng_for(seed, 0x6e_0000 + i as u64);
                let ds = generate_dataset(format!("{prefix}{i}"), &specs[i], &mut rng);
                *slots[i].lock().expect("generator slot") = Some(ds);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("generator slot").expect("generated"))
        .collect()
}

/// Turns `ds` into a new, distinct dataset in place: a few values of every
/// data column are overwritten from other rows of that column (shifted by
/// one or two). The shape, and so the extraction cost, is unchanged, but
/// the statistics move, hence the feature graph and its cache fingerprint.
/// Costs about a microsecond, against milliseconds for a fresh dataset.
pub fn perturb(ds: &mut Dataset, tag: usize, rng: &mut StdRng) {
    for table in ds.tables.iter_mut() {
        for col in table.columns.iter_mut() {
            if col.role != ColumnRole::Data || col.data.len() < 2 {
                continue;
            }
            let n = col.data.len();
            for _ in 0..8 {
                let from = rng.gen_range(0..n);
                let to = rng.gen_range(0..n);
                col.data[to] = col.data[from].wrapping_add(1 + (tag % 2) as i64);
            }
        }
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets (s) at `rate`/s, covering `[0, horizon_s)`.
pub fn poisson_schedule(rate: f64, horizon_s: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() / rate;
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// Closed loop: `clients` threads each take the next input index and call
/// `call` on it until the inputs run out or `deadline` passes. `call`
/// returns how many recommendations it completed (`Err` on a failed call).
pub fn closed_loop<S, F>(
    clients: usize,
    inputs: usize,
    deadline: Instant,
    state: impl Fn(usize) -> S + Sync,
    call: F,
) -> (Phase, Vec<S>)
where
    S: Send,
    F: Fn(&mut S, usize) -> Result<u64, ()> + Sync,
{
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let outs: Vec<(Phase, S)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, state, call) = (&next, &state, &call);
                s.spawn(move || {
                    let mut st = state(c);
                    let mut ph = Phase::default();
                    loop {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs {
                            break;
                        }
                        let t = Instant::now();
                        ph.attempted += 1;
                        match call(&mut st, i) {
                            Ok(n) => {
                                let done = Instant::now();
                                ph.push(
                                    (done - t).as_secs_f64() * 1e6,
                                    (done - t0).as_secs_f64(),
                                    n,
                                );
                            }
                            Err(()) => ph.failed += 1,
                        }
                    }
                    (ph, st)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut phase = Phase::default();
    let mut states = Vec::new();
    for (ph, st) in outs {
        phase.merge(ph);
        states.push(st);
    }
    phase.wall_s = wall;
    (phase, states)
}

/// Open loop: `senders` threads share a schedule of send offsets (s from
/// `t0`). Each takes the next due entry, waits until its intended time,
/// calls `call` on it, and records latency from the *intended* send time,
/// so a stall also charges the requests queued behind it. A failed call
/// counts as attempted and failed, never as a latency sample.
pub fn open_loop<S, F>(
    senders: usize,
    t0: Instant,
    schedule: &[f64],
    state: impl Fn(usize) -> S + Sync,
    call: F,
) -> (Phase, Vec<S>)
where
    S: Send,
    F: Fn(&mut S, usize) -> Result<u64, ()> + Sync,
{
    let next = AtomicUsize::new(0);
    let outs: Vec<(Phase, S)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders)
            .map(|c| {
                let (next, state, call) = (&next, &state, &call);
                s.spawn(move || {
                    let mut st = state(c);
                    let mut ph = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(schedule[i]);
                        sleep_until(due);
                        let sent = Instant::now();
                        ph.late_us.push((sent - due).as_secs_f64() * 1e6);
                        ph.attempted += 1;
                        match call(&mut st, i) {
                            Ok(n) => {
                                let done = Instant::now();
                                ph.push(
                                    (done - due).as_secs_f64() * 1e6,
                                    done.saturating_duration_since(t0).as_secs_f64(),
                                    n,
                                );
                            }
                            Err(()) => ph.failed += 1,
                        }
                    }
                    (ph, st)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut phase = Phase::default();
    let mut states = Vec::new();
    for (ph, st) in outs {
        phase.merge(ph);
        states.push(st);
    }
    phase.wall_s = wall;
    (phase, states)
}

/// Sleeps until shortly before `due`, then spins the rest. The sleep's
/// wake-up overshoot (tens of µs) would otherwise be charged to every
/// open-loop call, since latency runs from the intended send time; the
/// spin is kept short so the generator does not take the cores the
/// advisor needs.
pub fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One rung of an SLO ladder.
pub struct Rung {
    pub rate: f64,
    pub phase: Phase,
}

/// Highest rate a workload sustains under its latency limit. Runs the
/// `rungs` consecutive rates of a fixed ladder from `start` (an index into
/// it), each once, and takes each rung's tail quantile, measured from
/// intended send times: a growing backlog inflates exactly that tail, and
/// a failed call fails its rung. Near capacity one rung's tail swings ten
/// times over between attempts on a shared machine, so a walk that stops
/// at the first failing rung stops at a random one. Instead the log tails
/// are fitted by a nondecreasing function of rate, which pools a swing
/// with its neighbours, and the rate is interpolated, log-linearly in
/// latency, where the fit crosses `limit_us`. `run_rung(rate)` measures
/// one rung.
pub fn slo_search(
    ladder: &[f64],
    start: usize,
    rungs: usize,
    limit_us: f64,
    mut run_rung: impl FnMut(f64) -> Phase,
) -> (f64, Vec<Rung>) {
    let cap = limit_us * 4.0;
    let start = start.min(ladder.len() - rungs);
    let rates = &ladder[start..start + rungs];
    let mut measured = Vec::new();
    let mut log_tail = Vec::new();
    for &rate in rates {
        let phase = run_rung(rate);
        let tail = if phase.failed > 0 || phase.lat_us.is_empty() {
            cap
        } else {
            phase.tail().1.clamp(1.0, cap)
        };
        log_tail.push(tail.ln());
        measured.push(Rung { rate, phase });
    }
    let fit = nondecreasing_fit(&log_tail);
    let limit = limit_us.ln();
    let slo = match fit.iter().position(|&f| f > limit) {
        // Every rung passed: the top rung is a lower bound.
        None => rates[rungs - 1],
        // Every rung failed: scale the lowest rate by how far it missed.
        Some(0) => rates[0] * (limit - fit[0]).exp(),
        Some(i) => {
            let frac = (limit - fit[i - 1]) / (fit[i] - fit[i - 1]);
            rates[i - 1] + frac * (rates[i] - rates[i - 1])
        }
    };
    (slo, measured)
}

/// Least-squares nondecreasing fit of `y` (pool adjacent violators).
fn nondecreasing_fit(y: &[f64]) -> Vec<f64> {
    // Blocks of pooled neighbours: (mean, count).
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in y {
        let (mut mean, mut count) = (v, 1);
        while let Some(&(m, c)) = blocks.last() {
            if m <= mean {
                break;
            }
            blocks.pop();
            mean = (m * c as f64 + mean * count as f64) / (c + count) as f64;
            count += c;
        }
        blocks.push((mean, count));
    }
    blocks
        .iter()
        .flat_map(|&(m, c)| std::iter::repeat_n(m, c))
        .collect()
}

/// Peak resident set (`VmHWM`) of a process, MB; 0 when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
