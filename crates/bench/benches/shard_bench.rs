//! Criterion: the sharded streaming execution of the fused
//! distance+betweenness pass at two shard counts (and the sampled pivot
//! pass) — the shard layout fixes the merge tree, and memory stays
//! bounded by the worker count at 10⁶-node scale (measured by
//! `perf_shard`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dk_graph::CsrGraph;
use dk_metrics::{betweenness, sampled, stream};
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_shard(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let g = barabasi_albert(
        &BaParams {
            nodes: 4000,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut rng,
    );
    let csr = CsrGraph::from_graph(&g);
    let name = format!("ba{}", g.node_count());
    let mut group = c.benchmark_group("shard_exec");

    for shards in [stream::DEFAULT_SHARDS, 256] {
        group.bench_with_input(
            BenchmarkId::new(format!("fused_s{shards}"), &name),
            &csr,
            |b, csr| b.iter(|| betweenness::betweenness_and_distances_sharded(csr, shards, 1)),
        );
    }
    group.bench_with_input(BenchmarkId::new("sampled_k64", &name), &csr, |b, csr| {
        b.iter(|| sampled::sampled_traversal_sharded(csr, 64, stream::DEFAULT_SHARDS, 1))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shard
}
criterion_main!(benches);
