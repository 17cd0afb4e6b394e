//! Bit-identity of the feature extractor against a reference oracle.
//!
//! `reference` below is the original, hash-set based implementation of
//! `ColumnStats::compute`, `equality_rate`, `join_correlation` and
//! `extract_features`, kept verbatim as a test-only oracle. The production
//! code counts distinct values with dense bitmaps (or sort + dedup) and
//! computes each symmetric equality rate once; both are exact, so every
//! `FeatureGraph` must match the oracle at the `f32::to_bits` level. Any
//! drift would silently move recommendations and cache fingerprints.
//!
//! Two deliberate differences are pinned separately:
//! - `max_columns == 0`: the oracle's column-coverage slot is `0/0 = NaN`;
//!   production defines it as `0.0`. Every other bit must still match.
//! - `ColumnStats::range` now subtracts in `i128`. The oracle calls it, so
//!   columns whose `max - min` overflows `i64` (which made the original
//!   panic in debug builds) are compared under the fixed range.

use ce_datagen::realworld::{imdb_like, stats_like};
use ce_datagen::{generate_dataset, DatasetSpec};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_storage::stats::{distinct_count, equality_rate, join_correlation, ColumnStats};
use ce_storage::{Column, Dataset, JoinEdge, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use ce_features::{FeatureConfig, FeatureGraph, COLUMN_FEATURES};
    use ce_storage::stats::ColumnStats;
    use ce_storage::{Column, Dataset, JoinEdge, Value};
    use std::collections::HashSet;

    pub fn compute(column: &Column) -> ColumnStats {
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
        let ndv = data.iter().copied().collect::<HashSet<_>>().len();
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

    pub fn equality_rate(a: &Column, b: &Column) -> f64 {
        let n = a.len().min(b.len());
        if n == 0 {
            return 0.0;
        }
        let eq = (0..n).filter(|&i| a.data[i] == b.data[i]).count();
        eq as f64 / n as f64
    }

    pub fn join_correlation(ds: &Dataset, edge: &JoinEdge) -> f64 {
        let fk: HashSet<Value> = ds.tables[edge.fk_table].columns[edge.fk_col]
            .data
            .iter()
            .copied()
            .collect();
        let pk: HashSet<Value> = ds.tables[edge.pk_table].columns[edge.pk_col]
            .data
            .iter()
            .copied()
            .collect();
        if pk.is_empty() {
            return 0.0;
        }
        let inter = fk.intersection(&pk).count();
        inter as f64 / pk.len() as f64
    }

    fn squash(v: f64) -> f32 {
        (v / (1.0 + v.abs())) as f32
    }

    fn log_norm(v: f64) -> f32 {
        ((v.max(0.0) + 1.0).ln() / 20.0) as f32
    }

    pub fn extract_features(ds: &Dataset, cfg: &FeatureConfig) -> FeatureGraph {
        let m = cfg.max_columns;
        let per_col = COLUMN_FEATURES + m;
        let mut vertices = Vec::with_capacity(ds.num_tables());
        for table in &ds.tables {
            let data_cols = table.data_column_indices();
            let used = data_cols.len().min(m);
            let mut v = vec![0.0f32; cfg.vertex_dim()];
            for (slot, &c) in data_cols.iter().take(m).enumerate() {
                let col = &table.columns[c];
                let s = compute(col);
                let base = slot * per_col;
                v[base] = squash(s.skewness);
                v[base + 1] = squash(s.kurtosis);
                v[base + 2] = squash(s.std_dev / s.range().max(1.0));
                v[base + 3] = squash(s.mean_dev / s.range().max(1.0));
                v[base + 4] = log_norm(s.range());
                v[base + 5] = log_norm(s.ndv as f64);
                for (other_slot, &oc) in data_cols.iter().take(used).enumerate() {
                    if other_slot == slot {
                        continue;
                    }
                    v[base + COLUMN_FEATURES + other_slot] =
                        equality_rate(col, &table.columns[oc]) as f32;
                }
            }
            let tail = cfg.vertex_dim() - 2;
            v[tail] = log_norm(table.num_rows() as f64);
            v[tail + 1] = used as f32 / m as f32;
            vertices.push(v);
        }

        let n = ds.num_tables();
        let mut edges = vec![vec![0.0f32; n]; n];
        for e in &ds.joins {
            edges[e.pk_table][e.fk_table] = join_correlation(ds, e) as f32;
        }
        FeatureGraph { vertices, edges }
    }
}

type Bits = (Vec<Vec<u32>>, Vec<Vec<u32>>);

fn bits(g: &FeatureGraph) -> Bits {
    let rows = |m: &[Vec<f32>]| -> Vec<Vec<u32>> {
        m.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    (rows(&g.vertices), rows(&g.edges))
}

fn stats_bits(s: &ColumnStats) -> (usize, Value, Value, usize, [u64; 5]) {
    (
        s.count,
        s.min,
        s.max,
        s.ndv,
        [
            s.mean.to_bits(),
            s.std_dev.to_bits(),
            s.mean_dev.to_bits(),
            s.skewness.to_bits(),
            s.kurtosis.to_bits(),
        ],
    )
}

/// Asserts bit identity of every layer — column stats, equality rates,
/// join correlations and the whole graph — for each `max_columns` in
/// `widths` (all must be ≥ 1), and the documented `max_columns == 0`
/// difference.
fn assert_matches_oracle(ds: &Dataset, widths: &[usize]) {
    for table in &ds.tables {
        for a in &table.columns {
            assert_eq!(
                stats_bits(&ColumnStats::compute(a)),
                stats_bits(&reference::compute(a)),
                "stats of `{}`.`{}` in `{}`",
                table.name,
                a.name,
                ds.name
            );
            assert_eq!(distinct_count(a), reference::compute(a).ndv);
            for b in &table.columns {
                assert_eq!(
                    equality_rate(a, b).to_bits(),
                    reference::equality_rate(a, b).to_bits()
                );
            }
        }
    }
    for e in &ds.joins {
        assert_eq!(
            join_correlation(ds, e).to_bits(),
            reference::join_correlation(ds, e).to_bits(),
            "join {e:?} in `{}`",
            ds.name
        );
    }
    for &max_columns in widths {
        let cfg = FeatureConfig { max_columns };
        assert_eq!(
            bits(&extract_features(ds, &cfg)),
            bits(&reference::extract_features(ds, &cfg)),
            "graph of `{}` at max_columns = {max_columns}",
            ds.name
        );
    }
    let cfg = FeatureConfig { max_columns: 0 };
    let (fast, oracle) = (
        extract_features(ds, &cfg),
        reference::extract_features(ds, &cfg),
    );
    assert_eq!(fast.edges, oracle.edges);
    for (f, o) in fast.vertices.iter().zip(&oracle.vertices) {
        assert_eq!((f.len(), o.len()), (2, 2));
        assert_eq!(f[0].to_bits(), o[0].to_bits());
        assert!(o[1].is_nan());
        assert_eq!(f[1], 0.0);
    }
}

const WIDTHS: [usize; 4] = [1, 3, 6, 8];

proptest! {
    #[test]
    fn small_specs_match_oracle(seed in 0u64..u64::MAX, which in 0usize..3) {
        let spec = match which {
            0 => DatasetSpec::small(),
            1 => DatasetSpec::small().single_table(),
            _ => DatasetSpec::small().multi_table(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = generate_dataset("s", &spec, &mut rng);
        assert_matches_oracle(&ds, &WIDTHS);
    }

    #[test]
    fn hostile_shapes_match_oracle(seed in 0u64..u64::MAX) {
        let ds = hostile_dataset(&mut StdRng::seed_from_u64(seed));
        assert_matches_oracle(&ds, &WIDTHS);
    }
}

#[test]
fn paper_specs_match_oracle() {
    let specs = [
        DatasetSpec::paper(),
        DatasetSpec::paper().single_table(),
        DatasetSpec::paper().multi_table(),
    ];
    let mut rng = StdRng::seed_from_u64(0x0_7ac1e);
    for (i, spec) in specs.iter().enumerate() {
        for j in 0..8 {
            let ds = generate_dataset(format!("p{i}_{j}"), spec, &mut rng);
            assert_matches_oracle(&ds, &[FeatureConfig::default().max_columns]);
        }
    }
}

#[test]
fn realworld_simulators_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0_7ea1);
    for scale in [0.02, 0.1] {
        assert_matches_oracle(&imdb_like(scale, &mut rng), &WIDTHS);
        assert_matches_oracle(&stats_like(scale, &mut rng), &WIDTHS);
    }
}

/// Values for one hostile column of `rows` rows.
fn hostile_column(rng: &mut StdRng, rows: usize) -> Vec<Value> {
    match rng.gen_range(0..6u32) {
        // Constant.
        0 => vec![rng.gen_range(-3..=3i64); rows],
        // Small dense domain (the bitmap path).
        1 => {
            let lo = rng.gen_range(-50..=50i64);
            (0..rows).map(|_| lo + rng.gen_range(0..=20i64)).collect()
        }
        // Sparse, wide span (the sort path).
        2 => (0..rows)
            .map(|_| rng.gen_range(-1i64 << 40..=1i64 << 40))
            .collect(),
        // i64 extremes mixed with small values.
        3 => (0..rows)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-2..=2i64),
            })
            .collect(),
        // Span right around the bitmap threshold `64·rows`.
        4 => {
            let span = (64 * rows as i64 + rng.gen_range(-2..=2i64)).max(1);
            (0..rows).map(|_| rng.gen_range(0..span)).collect()
        }
        // Arbitrary bits.
        _ => (0..rows).map(|_| rng.gen::<i64>()).collect(),
    }
}

/// A dataset of random, adversarial shape: zero-row tables, tables with
/// more data columns than any tested `max_columns`, constant, sparse and
/// i64-extreme columns, empty PK columns, FK values outside the PK range,
/// and sometimes no joins at all. Built without validation, so keys need
/// not be unique either.
fn hostile_dataset(rng: &mut StdRng) -> Dataset {
    let num_tables = rng.gen_range(1..=4usize);
    let mut tables = Vec::with_capacity(num_tables);
    for t in 0..num_tables {
        let rows = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => rng.gen_range(1..=3usize),
            _ => rng.gen_range(4..=300usize),
        };
        let pk: Vec<Value> = match rng.gen_range(0..3u32) {
            0 => (1..=rows as i64).collect(),
            1 => {
                let off = rng.gen_range(-1000..=1000i64);
                (0..rows as i64).map(|i| off + 3 * i).collect()
            }
            _ => hostile_column(rng, rows),
        };
        let mut columns = vec![Column::primary_key("id", pk)];
        columns.push(Column::foreign_key("fk", hostile_column(rng, rows)));
        for c in 0..rng.gen_range(0..=10usize) {
            columns.push(Column::data(format!("c{c}"), hostile_column(rng, rows)));
        }
        tables.push(Table {
            name: format!("t{t}"),
            columns,
        });
    }
    // A random forest: each table may reference an earlier one.
    let mut joins = Vec::new();
    for fk_table in 1..num_tables {
        if rng.gen_bool(0.7) {
            joins.push(JoinEdge {
                fk_table,
                fk_col: 1,
                pk_table: rng.gen_range(0..fk_table),
                pk_col: 0,
            });
        }
    }
    Dataset {
        name: "hostile".into(),
        tables,
        joins,
    }
}
