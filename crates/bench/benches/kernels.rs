//! Microbenchmarks of the GF arithmetic kernels and MBR repair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasure::ErasureCode;
use gf256::Gf256;
use msr::ProductMatrixMbr;

fn bench_slice_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256-kernels");
    let src = vec![0xA7u8; 1 << 20];
    let mut dst = vec![0x15u8; 1 << 20];
    g.throughput(Throughput::Bytes(src.len() as u64));
    // Every registered kernel on the general path, plus the handle-level
    // fast paths (one/zero) that never reach a kernel.
    for kernel in gf256::kernels() {
        g.bench_with_input(
            BenchmarkId::new("mul_acc", kernel.name()),
            &0x3Du8,
            |b, &c| b.iter(|| kernel.mul_acc(Gf256::new(c), &src, &mut dst)),
        );
    }
    let kernel = gf256::kernel();
    for (label, coeff) in [("one", 1u8), ("zero", 0)] {
        g.bench_with_input(BenchmarkId::new("mul_acc", label), &coeff, |b, &c| {
            b.iter(|| kernel.mul_acc(Gf256::new(c), &src, &mut dst))
        });
    }
    g.finish();
}

fn bench_mbr_repair(c: &mut Criterion) {
    let mut g = c.benchmark_group("mbr");
    g.sample_size(10);
    let code = ProductMatrixMbr::new(12, 6, 10).expect("valid parameters");
    let b = code.linear().message_units();
    let data: Vec<u8> = (0..b * (1 << 14)).map(|i| (i * 13) as u8).collect();
    let stripe = code.linear().encode(&data).expect("encode");
    let helpers: Vec<usize> = (1..=10).collect();
    let plan = code.repair_plan(0, &helpers).expect("plan");
    let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
    g.throughput(Throughput::Bytes(stripe.block_bytes() as u64));
    g.bench_function("repair 12/6/10 (1-block traffic)", |b| {
        b.iter(|| plan.run(&blocks).expect("repair"))
    });
    g.finish();
}

criterion_group!(benches, bench_slice_kernels, bench_mbr_repair);
criterion_main!(benches);
