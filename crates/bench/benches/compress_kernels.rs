//! Criterion micro-benchmarks for the word-at-a-time compression kernels
//! against the frozen byte-at-a-time reference implementations. The
//! kernel arms reuse caller buffers (the `*_into` entry points) exactly
//! as the seal/decode paths do; the reference arms allocate per call,
//! exactly as the pre-kernel code did. `gate compress` carries the
//! machine-readable version of this comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use odh_compress::linear::Spike;
use odh_compress::{delta, linear, quantize, reference, xor};

fn sensor_walk(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    let mut x = 20.0f64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        x += ((state % 1000) as f64 - 499.5) / 10_000.0;
        v.push(x);
    }
    v
}

fn bench_kernels(c: &mut Criterion) {
    let n = 4096usize;
    let vals = sensor_walk(n);
    let ts: Vec<i64> =
        (0..n as i64).map(|i| 1_000_000 + i * 20_000 + if i % 17 == 0 { 3 } else { 0 }).collect();
    let max_dev = 0.05;

    let mut g = c.benchmark_group("compress_kernels");
    g.sample_size(40);
    g.throughput(Throughput::Bytes((n * 8) as u64));

    // XOR
    g.bench_function("xor_encode/reference", |b| {
        b.iter(|| reference::xor_encode(black_box(&vals)))
    });
    let mut buf = Vec::new();
    g.bench_function("xor_encode/kernel", |b| {
        b.iter(|| {
            buf.clear();
            xor::encode_into(black_box(&vals), &mut buf);
            buf.len()
        })
    });
    let xor_blob = xor::encode(&vals);
    g.bench_function("xor_decode/reference", |b| {
        b.iter(|| {
            let mut pos = 0;
            reference::xor_decode_at(black_box(&xor_blob), &mut pos).unwrap()
        })
    });
    let mut fbuf = Vec::new();
    g.bench_function("xor_decode/kernel", |b| {
        b.iter(|| {
            let mut pos = 0;
            xor::decode_at_into(black_box(&xor_blob), &mut pos, &mut fbuf).unwrap();
            fbuf.len()
        })
    });

    // Quantize
    g.bench_function("quantize_encode/reference", |b| {
        b.iter(|| reference::quantize_encode(black_box(&vals), max_dev).unwrap())
    });
    g.bench_function("quantize_encode/kernel", |b| {
        b.iter(|| {
            buf.clear();
            quantize::encode_into(black_box(&vals), max_dev, &mut buf);
            buf.len()
        })
    });
    let q_blob = quantize::encode(&vals, max_dev).unwrap();
    g.bench_function("quantize_decode/reference", |b| {
        b.iter(|| {
            let mut pos = 0;
            reference::quantize_decode_at(black_box(&q_blob), &mut pos).unwrap()
        })
    });
    g.bench_function("quantize_decode/kernel", |b| {
        b.iter(|| {
            let mut pos = 0;
            quantize::decode_at_into(black_box(&q_blob), &mut pos, &mut fbuf).unwrap();
            fbuf.len()
        })
    });

    // Delta-of-delta timestamps
    g.bench_function("delta_ts_encode/reference", |b| {
        b.iter(|| reference::delta_encode_timestamps(black_box(&ts)))
    });
    g.bench_function("delta_ts_encode/kernel", |b| {
        b.iter(|| {
            buf.clear();
            delta::encode_timestamps_into(black_box(&ts), &mut buf);
            buf.len()
        })
    });
    let d_blob = delta::encode_timestamps(&ts);
    g.bench_function("delta_ts_decode/reference", |b| {
        b.iter(|| {
            let mut pos = 0;
            reference::delta_decode_timestamps_at(black_box(&d_blob), &mut pos).unwrap()
        })
    });
    let mut tbuf = Vec::new();
    g.bench_function("delta_ts_decode/kernel", |b| {
        b.iter(|| {
            let mut pos = 0;
            delta::decode_timestamps_at_into(black_box(&d_blob), &mut pos, &mut tbuf).unwrap();
            tbuf.len()
        })
    });

    // Swinging-door linear
    g.bench_function("linear_encode/reference", |b| {
        b.iter(|| reference::linear_encode(&linear::compress(black_box(&ts), &vals, max_dev)))
    });
    let mut spikes: Vec<Spike> = Vec::new();
    g.bench_function("linear_encode/kernel", |b| {
        b.iter(|| {
            linear::compress_into(black_box(&ts), &vals, max_dev, &mut spikes);
            buf.clear();
            linear::encode_into(&spikes, &mut buf);
            buf.len()
        })
    });
    let l_blob = linear::encode(&linear::compress(&ts, &vals, max_dev));
    g.bench_function("linear_decode/reference", |b| {
        b.iter(|| {
            let mut pos = 0;
            reference::linear_decode_at(black_box(&l_blob), &mut pos).unwrap()
        })
    });
    g.bench_function("linear_decode/kernel", |b| {
        b.iter(|| {
            let mut pos = 0;
            linear::decode_at_into(black_box(&l_blob), &mut pos, &mut spikes).unwrap();
            spikes.len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
