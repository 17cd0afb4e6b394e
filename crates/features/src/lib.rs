//! # ce-features — feature engineering and feature-graph modeling (§V-A)
//!
//! A training sample for AutoCE is a *dataset*, not a tuple. This crate
//! extracts the CE-relevant data features and models them as a **feature
//! graph**: vertices are tables (carrying per-column statistics and
//! column-pair correlations), edges are PK-FK joins weighted by join
//! correlation.
//!
//! Vertex layout follows the paper exactly (§V-A2, Example 3): with `m` the
//! global maximum column count and `k` per-column features, each vertex is a
//! flattened vector of `(k + m)·m + 2` entries — `k` statistics plus `m`
//! correlation slots per column, padded with zeros, plus the table's row and
//! column counts. The per-column features are the paper's list: skewness,
//! kurtosis, standard deviation, mean deviation, range and domain size; the
//! correlation feature is the same-position equality rate (the reverse of
//! the generator's F2 process), and edge weights reverse F3 (FK-over-PK set
//! coverage).
//!
//! ## Exactness and bit identity
//!
//! Every statistic is computed exactly: distinct counts and join coverage
//! are exact set sizes (dense bitmaps over the value range, or sort + dedup
//! when the range is too sparse — see `ce_storage::stats`), and the
//! moments accumulate in element order. [`extract_features`] is therefore a
//! pure function of the dataset and the config down to the `f32` bit
//! pattern. That is a contract: feature bits feed the encoder and the
//! serving cache's fingerprints, so an extractor change that moves a single
//! bit would silently move recommendations. `tests/oracle.rs` pins it
//! against the original hash-set implementation, kept there as a test-only
//! oracle.

pub mod csr;
pub mod graph;
pub mod mixup;

pub use csr::CsrAdjacency;
pub use graph::{extract_features, FeatureConfig, FeatureGraph, COLUMN_FEATURES};
pub use mixup::{mixup_graphs, mixup_labels};
