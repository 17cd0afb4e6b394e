//! Standing the advisor up: the labelled corpus, `AutoCe::train`, and the
//! serving backends each workload runs against. Input generation lives in
//! the workloads; everything here is inside `setup_s`.

use crate::common::{generate_all, rng_for, stratified_specs, Spans};
use autoce::beta::sample_beta;
use autoce::{AutoCe, AutoCeConfig, RcsEntry};
use ce_cluster::{spawn_shard_process, ClusterConfig, ClusterCoordinator, Connector, TcpConnector};
use ce_datagen::DatasetSpec;
use ce_features::{mixup_graphs, mixup_labels};
use ce_models::ModelKind;
use ce_obs::MetricsRegistry;
use ce_serve::{ServeConfig, ShardedAdvisor};
use ce_storage::Dataset;
use ce_testbed::{label_datasets, TestbedConfig};
use ce_workload::WorkloadSpec;
use rand::Rng;
use std::process::Child;
use std::sync::Arc;
use std::time::Duration;

/// Corpus size labelled at every setup. Large enough that the handful of
/// drifted datasets a run absorbs stay under the drift detector's 10% tail
/// (its threshold is the 90th percentile of nearest-neighbour distances).
pub const CORPUS: usize = 48;
/// Shards of the in-process backend.
pub const SHARDS: usize = 4;

/// The 3-model testbed every label in the benchmark comes from.
pub fn testbed() -> TestbedConfig {
    TestbedConfig {
        models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
        train_queries: 80,
        test_queries: 30,
        workload: WorkloadSpec::default(),
    }
}

/// Advisor configuration: the paper's k = 2, incremental learning on.
pub fn advisor_config() -> AutoCeConfig {
    AutoCeConfig {
        k: 2,
        ..AutoCeConfig::default()
    }
}

/// The training corpus (an input, generated outside `setup_s`): small
/// 1–5-table datasets over a fixed stratified shape design.
pub fn corpus(seed: u64) -> Vec<Dataset> {
    let specs = stratified_specs(&DatasetSpec::small(), CORPUS, 0xc0);
    generate_all("corpus", &specs, seed ^ 0xc0, 2)
}

/// Labels the corpus on the testbed and trains the advisor. Spans:
/// `testbed.label`, `gnn.train`.
pub fn label_and_train(corpus: &[Dataset], seed: u64, spans: &mut Spans) -> AutoCe {
    let labels = spans.time("testbed.label", || {
        label_datasets(corpus, &testbed(), seed, 0)
    });
    spans.time("gnn.train", || {
        AutoCe::train(corpus, &labels, advisor_config(), seed)
    })
}

/// Grows the RCS to `target` entries with Mixup-augmented corpus graphs
/// and labels (paper Alg. 2), then embeds every entry with the trained
/// encoder (`refresh_embeddings`, the stacked path).
pub fn grow_rcs(flat: AutoCe, target: usize, seed: u64) -> AutoCe {
    let (config, encoder, mut entries) = flat.into_parts();
    let base = entries.len();
    let mut rng = rng_for(seed, 0x9d0);
    let alpha = config.incremental.as_ref().map_or(0.5, |il| il.mixup_alpha);
    let grown: Vec<RcsEntry> = (base..target)
        .map(|i| {
            let a = &entries[rng.gen_range(0..base)];
            let b = &entries[rng.gen_range(0..base)];
            let lambda = sample_beta(alpha, alpha, &mut rng);
            let label = mixup_labels(&a.dml_label(), &b.dml_label(), lambda);
            let m = a.kinds.len();
            RcsEntry {
                name: format!("mix{i}"),
                graph: mixup_graphs(&a.graph, &b.graph, lambda as f32),
                embedding: Vec::new(),
                kinds: a.kinds.clone(),
                sa: label[..m].to_vec(),
                se: label[m..].to_vec(),
            }
        })
        .collect();
    entries.extend(grown);
    let mut flat = AutoCe::from_parts(config, encoder, entries);
    flat.refresh_embeddings();
    flat
}

/// Service settings shared by the in-process workloads.
pub fn serve_config(cache_capacity: usize, registry: &MetricsRegistry, seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .max_batch(32)
        .cache_capacity(cache_capacity)
        .metrics(registry.clone())
        .seed(seed)
        .build()
        .expect("valid serve config")
}

/// The in-process 4-shard backend over `flat`; refresh and training
/// metrics land in `registry`.
pub fn sharded(flat: &AutoCe, registry: &MetricsRegistry) -> ShardedAdvisor {
    let mut s = ShardedAdvisor::from_advisor(flat, SHARDS);
    s.set_metrics(registry.clone());
    s
}

/// A running cluster: the coordinator and its shard-server processes.
pub struct Cluster {
    pub coord: Arc<ClusterCoordinator>,
    pub children: Vec<Child>,
}

impl Cluster {
    /// Shard ranges and replicas per range.
    pub const RANGES: usize = 2;
    pub const REPLICAS: usize = 2;

    /// Spawns `RANGES × REPLICAS` shard servers (re-executions of this
    /// binary) on loopback and bootstraps them (Load). Span:
    /// `cluster.bootstrap`.
    pub fn start(flat: &AutoCe, registry: &MetricsRegistry, spans: &mut Spans) -> Cluster {
        let exe = std::env::current_exe().expect("own executable path");
        let mut children = Vec::new();
        let mut lanes: Vec<Vec<Box<dyn Connector>>> = Vec::new();
        for _ in 0..Self::RANGES {
            let mut lane: Vec<Box<dyn Connector>> = Vec::new();
            for _ in 0..Self::REPLICAS {
                let (child, addr) = spawn_shard_process(&exe).expect("spawn shard server");
                lane.push(Box::new(TcpConnector::new(addr, Duration::from_secs(2))));
                children.push(child);
            }
            lanes.push(lane);
        }
        let cfg = ClusterConfig::builder()
            .metrics(registry.clone())
            .build()
            .expect("valid cluster config");
        let coord = Arc::new(ClusterCoordinator::new(
            ShardedAdvisor::from_advisor(flat, Self::RANGES),
            lanes,
            cfg,
        ));
        spans
            .time("cluster.bootstrap", || coord.bootstrap())
            .expect("bootstrap over loopback");
        Cluster { coord, children }
    }

    /// Peak RSS of the shard processes, MB (read while they still run).
    pub fn children_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|c| crate::common::peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Clean shutdown frames, then waits for every process to exit.
    pub fn stop(mut self) {
        self.coord.shutdown_cluster();
        for c in &mut self.children {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match c.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = c.kill();
                        let _ = c.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Reached only when `stop` was not (a panic unwinding through a
        // workload): never leave shard processes behind.
        for c in &mut self.children {
            if let Ok(None) = c.try_wait() {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}
