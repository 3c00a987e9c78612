//! Interaction-list construction throughput (host-side phase 2):
//! modified (grouped) vs original traversal at the paper's theta.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use g5_bench::plummer;
use g5tree::traverse::Traversal;
use g5tree::tree::Tree;
use std::hint::black_box;

fn bench_traverse(c: &mut Criterion) {
    let snap = plummer(100_000, 2);
    let tree = Tree::build(&snap.pos, &snap.mass);
    let tr = Traversal::new(0.75);

    let mut g = c.benchmark_group("tree_traverse");
    g.sample_size(10);
    for ng in [500usize, 2000, 8000] {
        g.bench_with_input(BenchmarkId::new("modified", ng), &ng, |b, &ng| {
            b.iter(|| black_box(tr.modified_tally(&tree, ng)));
        });
    }
    g.bench_function("original", |b| b.iter(|| black_box(tr.original_tally(&tree))));
    g.finish();
}

/// SoA explicit-stack walk vs the kept recursive reference, serial over
/// all groups with retained buffers — the per-group cost the host
/// overhaul targets.
fn bench_walk_paths(c: &mut Criterion) {
    let snap = plummer(100_000, 2);
    let tree = Tree::build(&snap.pos, &snap.mass);
    let tr = Traversal::new(0.75);
    let groups = tr.find_groups(&tree, 2000);
    let mut out = Vec::new();

    let mut g = c.benchmark_group("walk_paths");
    g.sample_size(20);
    g.bench_function("soa_stack", |b| {
        b.iter(|| {
            let mut terms = 0usize;
            for &gr in &groups {
                tr.modified_list(&tree, gr, &mut out);
                terms += out.len();
            }
            black_box(terms)
        });
    });
    g.bench_function("recursive_reference", |b| {
        b.iter(|| {
            let mut terms = 0usize;
            for &gr in &groups {
                tr.modified_list_reference(&tree, gr, &mut out);
                terms += out.len();
            }
            black_box(terms)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_traverse, bench_walk_paths);
criterion_main!(benches);
