//! Table I — statistics of the datasets.

use crate::harness::Scale;
use crate::report::Report;
use ce_datagen::realworld::{imdb_like, stats_like};
use ce_datagen::{generate_batch, DatasetSpec};
use ce_storage::stats::distinct_count;
use ce_storage::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn describe(ds: &Dataset) -> (usize, usize, usize, usize, usize) {
    let tables = ds.num_tables();
    let min_rows = ds.tables.iter().map(|t| t.num_rows()).min().unwrap_or(0);
    let max_rows = ds.tables.iter().map(|t| t.num_rows()).max().unwrap_or(0);
    let columns: usize = ds
        .tables
        .iter()
        .map(|t| t.data_column_indices().len())
        .sum();
    let domain: usize = ds
        .tables
        .iter()
        .flat_map(|t| {
            t.data_column_indices()
                .into_iter()
                .map(|c| distinct_count(&t.columns[c]))
        })
        .sum();
    (tables, min_rows, max_rows, columns, domain)
}

/// Runs the experiment and writes `results/table1.json`.
pub fn run(scale: Scale) {
    let mut rng = StdRng::seed_from_u64(0x7ab1);
    let imdb = imdb_like(0.02 * scale.0, &mut rng);
    let stats = stats_like(0.02 * scale.0, &mut rng);
    let synth = generate_batch("syn", scale.count(10, 5), &DatasetSpec::small(), &mut rng);

    let mut r = Report::new("table1", "statistics of datasets");
    r.header(&[
        "dataset",
        "#tables",
        "#rows",
        "#columns",
        "total domain size",
    ]);
    let mut rows = Vec::new();
    for (name, ds) in [("IMDB-light", &imdb), ("STATS-light", &stats)] {
        let (t, lo, hi, c, d) = describe(ds);
        r.row(vec![
            name.into(),
            t.to_string(),
            format!("{lo}-{hi}"),
            c.to_string(),
            format!("{:.1e}", d as f64),
        ]);
        rows.push(serde_json::json!({
            "dataset": name, "tables": t, "rows": [lo, hi], "columns": c, "domain": d
        }));
    }
    // Synthetic: aggregate over the batch.
    let t_lo = synth.iter().map(Dataset::num_tables).min().unwrap_or(0);
    let t_hi = synth.iter().map(Dataset::num_tables).max().unwrap_or(0);
    let r_lo = synth
        .iter()
        .flat_map(|d| d.tables.iter().map(|t| t.num_rows()))
        .min()
        .unwrap_or(0);
    let r_hi = synth
        .iter()
        .flat_map(|d| d.tables.iter().map(|t| t.num_rows()))
        .max()
        .unwrap_or(0);
    let c_lo = synth
        .iter()
        .map(|d| {
            d.tables
                .iter()
                .map(|t| t.data_column_indices().len())
                .sum::<usize>()
        })
        .min()
        .unwrap_or(0);
    let c_hi = synth
        .iter()
        .map(|d| {
            d.tables
                .iter()
                .map(|t| t.data_column_indices().len())
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let dom: usize = synth.iter().map(|d| describe(d).4).sum::<usize>() / synth.len().max(1);
    r.row(vec![
        "Synthetic".into(),
        format!("{t_lo}-{t_hi}"),
        format!("{r_lo}-{r_hi}"),
        format!("{c_lo}-{c_hi}"),
        format!("{:.1e}", dom as f64),
    ]);
    rows.push(serde_json::json!({
        "dataset": "Synthetic", "tables": [t_lo, t_hi], "rows": [r_lo, r_hi],
        "columns": [c_lo, c_hi], "domain": dom
    }));
    r.set("rows", serde_json::Value::Array(rows));
    r.finish();
}
