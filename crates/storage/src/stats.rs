//! Per-column and cross-column statistics.
//!
//! These summaries feed two consumers:
//!
//! * the feature extractor (`ce-features`), which needs exactly the data
//!   features the paper lists in §V-A1 — skewness, kurtosis, standard/mean
//!   deviation, range, domain size, column-to-column correlation and join
//!   correlation;
//! * the histogram-based estimators (`ce-models::postgres`), which need
//!   equi-depth histograms and distinct counts.

use crate::column::{Column, Value};
use crate::dataset::{Dataset, JoinEdge};
use serde::{Deserialize, Serialize};

/// Moment-based summary of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of rows.
    pub count: usize,
    /// Minimum value (0 for empty columns).
    pub min: Value,
    /// Maximum value (0 for empty columns).
    pub max: Value,
    /// Number of distinct values.
    pub ndv: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Mean absolute deviation from the mean.
    pub mean_dev: f64,
    /// Sample skewness (third standardized moment); 0 when degenerate.
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment − 3); 0 when degenerate.
    pub kurtosis: f64,
}

impl ColumnStats {
    /// Computes the summary in two passes over the data, then counts the
    /// distinct values.
    ///
    /// The first pass finds `min`, `max` and the sum; the second
    /// accumulates the central moments in element order, so every float
    /// is reproducible bit for bit. `ndv` is the exact count from
    /// [`distinct_count`]'s rule, reusing the first pass's `min`/`max`: a
    /// dense bitmap over `[min, max]` when that range holds fewer than
    /// `64·n` values (the bitmap is then no larger than a sorted copy of
    /// the column), sort + dedup otherwise.
    pub fn compute(column: &Column) -> Self {
        let n = column.len();
        if n == 0 {
            return ColumnStats {
                count: 0,
                min: 0,
                max: 0,
                ndv: 0,
                mean: 0.0,
                std_dev: 0.0,
                mean_dev: 0.0,
                skewness: 0.0,
                kurtosis: 0.0,
            };
        }
        let data = &column.data;
        let (mut min, mut max) = (data[0], data[0]);
        let mut sum = 0.0f64;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
        }
        let mean = sum / n as f64;
        let (mut m2, mut m3, mut m4, mut adev) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &v in data {
            let d = v as f64 - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
            adev += d.abs();
        }
        m2 /= n as f64;
        m3 /= n as f64;
        m4 /= n as f64;
        adev /= n as f64;
        let std_dev = m2.sqrt();
        let (skewness, kurtosis) = if std_dev > 1e-12 {
            (m3 / (std_dev * std_dev * std_dev), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        let ndv = distinct_in_range(data, min, max);
        ColumnStats {
            count: n,
            min,
            max,
            ndv,
            mean,
            std_dev,
            mean_dev: adev,
            skewness,
            kurtosis,
        }
    }

    /// Value range (`max - min`), as used in the feature matrix. The
    /// difference is taken in `i128`, so it cannot overflow; whenever it
    /// fits an `i64` the result is the same `f64`.
    pub fn range(&self) -> f64 {
        (self.max as i128 - self.min as i128) as f64
    }
}

/// Exact number of distinct values in a column.
///
/// Uses a dense bitmap over `[min, max]` when that range holds fewer than
/// `64·n` values, so the bitmap never outgrows a sorted copy of the column;
/// otherwise sorts a copy and counts runs, which is `O(n log n)` on any
/// input.
pub fn distinct_count(column: &Column) -> usize {
    match min_max(&column.data) {
        Some((min, max)) => distinct_in_range(&column.data, min, max),
        None => 0,
    }
}

/// `(min, max)` of a non-empty slice.
fn min_max(data: &[Value]) -> Option<(Value, Value)> {
    let first = *data.first()?;
    Some(
        data.iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// `span`, the number of values in `[min, max]`, when a bitmap of `span`
/// bits stays under `budget` bits; `None` otherwise.
fn dense_span(min: Value, max: Value, budget: i128) -> Option<usize> {
    let span = max as i128 - min as i128 + 1;
    (span < budget).then_some(span as usize)
}

/// Bitmap of the values of `data` that fall in `[min, min + span)`.
fn bitmap(data: &[Value], min: Value, span: usize) -> Vec<u64> {
    let mut words = vec![0u64; span.div_ceil(64)];
    for &v in data {
        // `v - min` as an unsigned offset: exact for `v >= min`, and values
        // below `min` wrap past `span` and are skipped.
        let off = v.wrapping_sub(min) as u64;
        if off < span as u64 {
            words[(off >> 6) as usize] |= 1 << (off & 63);
        }
    }
    words
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Sorted, deduplicated copy of `data`.
fn sorted_distinct(data: &[Value]) -> Vec<Value> {
    let mut v = data.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Distinct count of `data`, whose extremes are `min` and `max`.
fn distinct_in_range(data: &[Value], min: Value, max: Value) -> usize {
    match dense_span(min, max, 64 * data.len() as i128) {
        Some(span) => popcount(&bitmap(data, min, span)),
        None => sorted_distinct(data).len(),
    }
}

/// Equi-depth histogram over a column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquiDepthHistogram {
    /// Bucket upper bounds (inclusive), ascending. `bounds.len()` buckets.
    pub bounds: Vec<Value>,
    /// Rows per bucket.
    pub counts: Vec<usize>,
    /// Total rows.
    pub total: usize,
    /// Column minimum (lower bound of the first bucket).
    pub min: Value,
}

impl EquiDepthHistogram {
    /// Builds a histogram with at most `buckets` buckets.
    pub fn build(column: &Column, buckets: usize) -> Self {
        let mut sorted = column.data.clone();
        sorted.sort_unstable();
        let total = sorted.len();
        if total == 0 || buckets == 0 {
            return EquiDepthHistogram {
                bounds: Vec::new(),
                counts: Vec::new(),
                total: 0,
                min: 0,
            };
        }
        let min = sorted[0];
        let per = total.div_ceil(buckets);
        // Run-length encode, then pack runs greedily into buckets of target
        // depth `per`. A run at least as large as `per` (a heavy hitter)
        // always gets its own bucket, so point queries on skewed columns stay
        // accurate — the behavior PostgreSQL gets from its MCV list.
        let mut runs: Vec<(Value, usize)> = Vec::new();
        for &v in &sorted {
            match runs.last_mut() {
                Some((rv, c)) if *rv == v => *c += 1,
                _ => runs.push((v, 1)),
            }
        }
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let mut acc = 0usize;
        for (i, &(v, c)) in runs.iter().enumerate() {
            if c >= per && acc > 0 {
                // Close the current bucket before the heavy run.
                bounds.push(runs[i - 1].0);
                counts.push(acc);
                acc = 0;
            }
            acc += c;
            if acc >= per || i + 1 == runs.len() {
                bounds.push(v);
                counts.push(acc);
                acc = 0;
            }
        }
        EquiDepthHistogram {
            bounds,
            counts,
            total,
            min,
        }
    }

    /// Estimated selectivity of `lo <= x <= hi`, assuming uniformity inside
    /// each bucket.
    pub fn selectivity(&self, lo: Value, hi: Value) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        let mut selected = 0.0f64;
        let mut lower = self.min;
        for (i, &ub) in self.bounds.iter().enumerate() {
            let bucket_lo = lower;
            let bucket_hi = ub;
            lower = ub + 1;
            if bucket_hi < lo || bucket_lo > hi {
                continue;
            }
            let width = (bucket_hi - bucket_lo + 1) as f64;
            let olo = lo.max(bucket_lo);
            let ohi = hi.min(bucket_hi);
            let overlap = (ohi - olo + 1) as f64;
            selected += self.counts[i] as f64 * (overlap / width).clamp(0.0, 1.0);
        }
        (selected / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Pearson correlation between two equal-length columns; 0 when degenerate.
pub fn pearson(a: &Column, b: &Column) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_a = a.data[..n].iter().map(|&v| v as f64).sum::<f64>() / nf;
    let mean_b = b.data[..n].iter().map(|&v| v as f64).sum::<f64>() / nf;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let da = a.data[i] as f64 - mean_a;
        let db = b.data[i] as f64 - mean_b;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 1e-12 || vb <= 1e-12 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
}

/// Fraction of positions where two columns hold the same value — the direct
/// inverse of the generator's F2 correlation parameter (§IV-A).
pub fn equality_rate(a: &Column, b: &Column) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let eq = a.data.iter().zip(&b.data).filter(|(x, y)| x == y).count();
    eq as f64 / n as f64
}

/// Join correlation of an edge: the fraction of the PK column's value set
/// covered by the FK column's value set (§V-A1 — "taking the set of the FK
/// column data, then calculating its ratio over the PK column data").
///
/// Exact: both value sets become bitmaps over the PK column's `[min, max]`
/// (FK values outside it cannot be covered) and the coverage is the
/// popcount of their AND. When that range holds `32·(n_pk + n_fk)` values
/// or more, the two bitmaps together would outgrow sorted copies of both
/// columns, and sorted distinct lists are intersected instead.
pub fn join_correlation(ds: &Dataset, edge: &JoinEdge) -> f64 {
    let fk = &ds.tables[edge.fk_table].columns[edge.fk_col].data;
    let pk = &ds.tables[edge.pk_table].columns[edge.pk_col].data;
    let Some((min, max)) = min_max(pk) else {
        return 0.0;
    };
    let (covered, pk_ndv) = match dense_span(min, max, 32 * (pk.len() + fk.len()) as i128) {
        Some(span) => {
            let pk_set = bitmap(pk, min, span);
            let fk_set = bitmap(fk, min, span);
            let covered = pk_set
                .iter()
                .zip(&fk_set)
                .map(|(p, f)| (p & f).count_ones() as usize);
            (covered.sum(), popcount(&pk_set))
        }
        None => {
            let (pk_set, fk_set) = (sorted_distinct(pk), sorted_distinct(fk));
            let covered = fk_set
                .iter()
                .filter(|v| pk_set.binary_search(v).is_ok())
                .count();
            (covered, pk_set.len())
        }
    };
    covered as f64 / pk_ndv as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    #[test]
    fn moments_of_uniform() {
        let c = Column::data("u", (1..=100).collect());
        let s = ColumnStats::compute(&c);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.ndv, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.skewness.abs() < 1e-9, "uniform is symmetric");
        assert!(s.kurtosis < 0.0, "uniform is platykurtic");
        assert_eq!(s.range(), 99.0);
    }

    #[test]
    fn skewed_column_has_positive_skew() {
        let mut data = vec![1; 90];
        data.extend(vec![100; 10]);
        let s = ColumnStats::compute(&Column::data("s", data));
        assert!(s.skewness > 1.0);
    }

    #[test]
    fn degenerate_column() {
        let s = ColumnStats::compute(&Column::data("k", vec![7, 7, 7]));
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.ndv, 1);
        let e = ColumnStats::compute(&Column::data("e", vec![]));
        assert_eq!(e.count, 0);
    }

    #[test]
    fn range_of_i64_extremes_does_not_overflow() {
        let s = ColumnStats::compute(&Column::data("x", vec![i64::MIN, i64::MAX]));
        assert_eq!(s.range(), 2f64.powi(64));
        assert_eq!(s.ndv, 2);
        let t = ColumnStats::compute(&Column::data("y", vec![-5, 7]));
        assert_eq!(t.range(), 12.0);
    }

    #[test]
    fn dense_and_sort_counters_agree_around_threshold() {
        for n in [1usize, 2, 3, 17, 64, 100] {
            for span in [64 * n - 1, 64 * n, 64 * n + 1] {
                // `n` values hitting both ends of `[min, min + span)`, with
                // repeats, so both counters see the same extremes.
                let min = -1_000i64;
                let max = min + span as i64 - 1;
                let mut data: Vec<Value> = (0..n as i64)
                    .map(|i| min + (i * 37 % span as i64))
                    .collect();
                data[0] = max;
                if n > 1 {
                    data[n - 1] = min;
                }
                let budget = 64 * n as i128;
                assert_eq!(
                    dense_span(min, max, budget).is_some(),
                    span < 64 * n,
                    "n={n} span={span}"
                );
                let dense = popcount(&bitmap(&data, min, span));
                let sorted = sorted_distinct(&data).len();
                assert_eq!(dense, sorted, "n={n} span={span}");
                assert_eq!(distinct_in_range(&data, min, max), sorted);
            }
        }
    }

    #[test]
    fn distinct_count_matches_a_set() {
        let cols: Vec<Vec<Value>> = vec![
            vec![],
            vec![4],
            vec![3, 3, 3],
            (1..=500).map(|v| v % 37).collect(),
            vec![i64::MIN, 0, i64::MAX, 0, i64::MIN],
            vec![1, 1 << 40, 5, 1 << 40, -(1 << 50)],
        ];
        for data in cols {
            let expect = data.iter().collect::<std::collections::HashSet<_>>().len();
            let c = Column::data("c", data);
            assert_eq!(distinct_count(&c), expect);
            assert_eq!(ColumnStats::compute(&c).ndv, expect);
        }
    }

    #[test]
    fn histogram_selectivity() {
        let c = Column::data("h", (1..=1000).collect());
        let h = EquiDepthHistogram::build(&c, 10);
        assert_eq!(h.total, 1000);
        let s = h.selectivity(1, 1000);
        assert!((s - 1.0).abs() < 1e-9);
        let half = h.selectivity(1, 500);
        assert!((half - 0.5).abs() < 0.01, "half = {half}");
        assert_eq!(h.selectivity(2000, 3000), 0.0);
        assert_eq!(h.selectivity(10, 5), 0.0);
    }

    #[test]
    fn histogram_heavy_hitter_not_split() {
        let mut data = vec![5; 500];
        data.extend(1..=500);
        let h = EquiDepthHistogram::build(&Column::data("hh", data), 4);
        let s = h.selectivity(5, 5);
        assert!(s > 0.3, "point query on heavy hitter, s = {s}");
    }

    #[test]
    fn pearson_perfect_and_none() {
        let a = Column::data("a", (1..=50).collect());
        let b = Column::data("b", (1..=50).map(|v| v * 2).collect());
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-9);
        let c = Column::data("c", (1..=50).rev().collect());
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-9);
        let k = Column::data("k", vec![3; 50]);
        assert_eq!(pearson(&a, &k), 0.0);
    }

    #[test]
    fn equality_rate_counts_positions() {
        let a = Column::data("a", vec![1, 2, 3, 4]);
        let b = Column::data("b", vec![1, 9, 3, 9]);
        assert!((equality_rate(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn join_correlation_ratio() {
        let main =
            Table::with_columns("m", vec![Column::primary_key("id", vec![1, 2, 3, 4])]).unwrap();
        let fact =
            Table::with_columns("f", vec![Column::foreign_key("m_id", vec![1, 1, 2, 2])]).unwrap();
        let ds = Dataset::new(
            "d",
            vec![main, fact],
            vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        )
        .unwrap();
        // FK covers {1,2} of PK {1,2,3,4} -> 0.5.
        assert!((join_correlation(&ds, &ds.joins[0]) - 0.5).abs() < 1e-12);
    }

    fn join_of(pk: Vec<Value>, fk: Vec<Value>) -> f64 {
        let ds = Dataset {
            name: "d".into(),
            tables: vec![
                Table::with_columns("m", vec![Column::primary_key("id", pk)]).unwrap(),
                Table::with_columns("f", vec![Column::foreign_key("m_id", fk)]).unwrap(),
            ],
            joins: vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        };
        join_correlation(&ds, &ds.joins[0])
    }

    #[test]
    fn join_correlation_edge_shapes() {
        // Empty PK column: nothing to cover.
        assert_eq!(join_of(vec![], vec![1, 2]), 0.0);
        // FK values outside the PK range are never covered.
        assert_eq!(join_of(vec![10, 11, 12, 13], vec![-5, 11, 99, 11]), 0.25);
        // Empty FK column covers nothing.
        assert_eq!(join_of(vec![1, 2], vec![]), 0.0);
        // A PK spread over the whole i64 range takes the sorted path.
        let pk = vec![i64::MIN, -7, 0, i64::MAX];
        assert_eq!(join_of(pk, vec![i64::MAX, 0, 0, 3, i64::MIN + 1]), 0.5);
    }
}
