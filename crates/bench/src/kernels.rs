//! Compression-kernel and seal-pipeline benchmark sweep.
//!
//! Two experiments behind `results/BENCH_compress.json`:
//!
//! 1. **Kernel throughput** ([`compress_kernel_bench`]): every codec runs
//!    in two arms over the same payload — `reference` (the frozen
//!    byte-at-a-time implementations in `odh_compress::reference`, which
//!    allocate a fresh output per call) and `kernel` (the word-at-a-time
//!    `*_into` entry points reusing caller-owned buffers). Both arms
//!    produce byte-identical streams (the format-stability proptests
//!    pin that), so the delta is pure kernel speed. The harness also
//!    counts heap allocations per arm: the kernel arms must be
//!    **zero-allocation** at steady state, which is what the CI gate
//!    enforces.
//! 2. **Seal pipeline** ([`seal_queue_bench`]): multi-threaded ingest
//!    into one table with the off-thread seal pipeline on (default
//!    workers) versus off (`seal_workers = 0`, the pre-pipeline inline
//!    behaviour). Timed to the `flush()` barrier so the pipeline arm
//!    pays for every batch it queued.
//!
//! Allocation counting needs a `#[global_allocator]` hook, which only a
//! binary can install — so the sweep takes the counter as a function
//! pointer and the `gate` binary supplies it (`gate compress`).

use odh_compress::linear::Spike;
use odh_compress::{delta, linear, quantize, reference, xor};
use odh_pager::disk::MemDisk;
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_storage::{OdhTable, TableConfig};
use odh_types::{Record, Result, SchemaType, SourceClass, SourceId, Timestamp};
use std::sync::Arc;
use std::time::Instant;

/// One (codec op, arm) measurement.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompressBenchPoint {
    /// Codec operation, e.g. `xor_encode`.
    pub op: String,
    /// `reference` (frozen old implementation) or `kernel` (`*_into`).
    pub arm: String,
    /// Payload bytes processed per iteration (n values × 8).
    pub bytes_per_iter: u64,
    pub iters: u64,
    pub mb_per_sec: f64,
    /// Heap allocations during the timed loop (after warm-up). The
    /// kernel arms must report 0.
    pub allocs: u64,
}

/// One seal-pipeline ingest measurement.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SealQueueBenchPoint {
    /// `inline` (seal_workers = 0) or `pipeline`.
    pub arm: String,
    pub writer_threads: usize,
    pub seal_workers: usize,
    pub rows: u64,
    pub wall_secs: f64,
    pub rows_per_sec: f64,
}

/// Everything `BENCH_compress.json` holds.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompressBenchReport {
    pub kernels: Vec<CompressBenchPoint>,
    pub seal_queue: Vec<SealQueueBenchPoint>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deterministic value walk shaped like slow sensor data: XOR-friendly
/// (neighbouring doubles share leading/trailing zeros) but not constant.
pub fn sensor_walk(n: usize) -> Vec<f64> {
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

/// Regular timestamps with occasional jitter (delta-of-delta payload).
pub fn jittered_ts(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| 1_000_000 + i * 20_000 + if i % 17 == 0 { 3 } else { 0 }).collect()
}

/// Time the reference and kernel arms of one op, interleaved: five
/// (reference block, kernel block) rounds, keeping each arm's fastest
/// block. Interleaving means slow drift in background load hits both
/// arms equally, and best-of discards blocks that lost the CPU —
/// together they make the reported ratio stable on shared single-core
/// hardware. Allocations are counted across all five of an arm's blocks.
fn run_pair(
    bytes_per_iter: u64,
    iters: u64,
    alloc_count: fn() -> u64,
    mut ref_fn: impl FnMut(),
    mut kern_fn: impl FnMut(),
) -> (CompressArm, CompressArm) {
    for _ in 0..8 {
        ref_fn(); // warm-up: grow reused buffers to working-set size
        kern_fn();
    }
    let per_block = (iters / 5).max(1);
    let mut best = [f64::INFINITY; 2];
    let mut allocs = [0u64; 2];
    let mut block = |f: &mut dyn FnMut(), slot: usize| {
        let a0 = alloc_count();
        let t0 = Instant::now();
        for _ in 0..per_block {
            f();
        }
        best[slot] = best[slot].min(t0.elapsed().as_secs_f64());
        allocs[slot] += alloc_count().saturating_sub(a0);
    };
    for _ in 0..5 {
        block(&mut ref_fn, 0);
        block(&mut kern_fn, 1);
    }
    let arm = |slot: usize, best: &[f64; 2], allocs: &[u64; 2]| CompressArm {
        mb_per_sec: (bytes_per_iter * per_block) as f64 / best[slot].max(1e-9) / 1e6,
        allocs: allocs[slot],
    };
    (arm(0, &best, &allocs), arm(1, &best, &allocs))
}

/// One measured arm of [`run_pair`].
struct CompressArm {
    mb_per_sec: f64,
    allocs: u64,
}

/// The kernel sweep: old-vs-new for XOR, quantize, delta timestamps, and
/// the swinging-door linear codec, encode and decode.
pub fn compress_kernel_bench(alloc_count: fn() -> u64) -> Vec<CompressBenchPoint> {
    let n = env_u64("COMPRESS_BENCH_N", 4096) as usize;
    let iters = env_u64("COMPRESS_BENCH_ITERS", 1500);
    let bytes = (n * 8) as u64;
    let vals = sensor_walk(n);
    let ts = jittered_ts(n);
    let max_dev = 0.05;

    let mut out = Vec::new();
    let mut point = |op: &str, (r, k): (CompressArm, CompressArm)| {
        for (arm, m) in [("reference", r), ("kernel", k)] {
            out.push(CompressBenchPoint {
                op: op.to_string(),
                arm: arm.to_string(),
                bytes_per_iter: bytes,
                iters,
                mb_per_sec: m.mb_per_sec,
                allocs: m.allocs,
            });
        }
    };

    let mut buf = Vec::new();
    let mut fbuf = Vec::new();
    let mut tbuf = Vec::new();
    let mut spikes: Vec<Spike> = Vec::new();

    point(
        "xor_encode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                std::hint::black_box(reference::xor_encode(&vals));
            },
            || {
                buf.clear();
                xor::encode_into(&vals, &mut buf);
                std::hint::black_box(buf.len());
            },
        ),
    );
    let xor_blob = xor::encode(&vals);
    point(
        "xor_decode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                let mut pos = 0;
                std::hint::black_box(reference::xor_decode_at(&xor_blob, &mut pos).unwrap());
            },
            || {
                let mut pos = 0;
                xor::decode_at_into(&xor_blob, &mut pos, &mut fbuf).unwrap();
                std::hint::black_box(fbuf.len());
            },
        ),
    );

    point(
        "quantize_encode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                std::hint::black_box(reference::quantize_encode(&vals, max_dev).unwrap());
            },
            || {
                buf.clear();
                assert!(quantize::encode_into(&vals, max_dev, &mut buf));
                std::hint::black_box(buf.len());
            },
        ),
    );
    let q_blob = quantize::encode(&vals, max_dev).unwrap();
    point(
        "quantize_decode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                let mut pos = 0;
                std::hint::black_box(reference::quantize_decode_at(&q_blob, &mut pos).unwrap());
            },
            || {
                let mut pos = 0;
                quantize::decode_at_into(&q_blob, &mut pos, &mut fbuf).unwrap();
                std::hint::black_box(fbuf.len());
            },
        ),
    );

    point(
        "delta_ts_encode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                std::hint::black_box(reference::delta_encode_timestamps(&ts));
            },
            || {
                buf.clear();
                delta::encode_timestamps_into(&ts, &mut buf);
                std::hint::black_box(buf.len());
            },
        ),
    );
    let d_blob = delta::encode_timestamps(&ts);
    point(
        "delta_ts_decode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                let mut pos = 0;
                std::hint::black_box(
                    reference::delta_decode_timestamps_at(&d_blob, &mut pos).unwrap(),
                );
            },
            || {
                let mut pos = 0;
                delta::decode_timestamps_at_into(&d_blob, &mut pos, &mut tbuf).unwrap();
                std::hint::black_box(tbuf.len());
            },
        ),
    );

    point(
        "linear_encode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                let s = linear::compress(&ts, &vals, max_dev);
                std::hint::black_box(reference::linear_encode(&s));
            },
            || {
                linear::compress_into(&ts, &vals, max_dev, &mut spikes);
                buf.clear();
                linear::encode_into(&spikes, &mut buf);
                std::hint::black_box(buf.len());
            },
        ),
    );
    let l_blob = linear::encode(&linear::compress(&ts, &vals, max_dev));
    point(
        "linear_decode",
        run_pair(
            bytes,
            iters,
            alloc_count,
            || {
                let mut pos = 0;
                std::hint::black_box(reference::linear_decode_at(&l_blob, &mut pos).unwrap());
            },
            || {
                let mut pos = 0;
                linear::decode_at_into(&l_blob, &mut pos, &mut spikes).unwrap();
                std::hint::black_box(spikes.len());
            },
        ),
    );

    out
}

/// One timed multi-threaded ingest run; returns wall seconds to the
/// flush barrier (so the pipeline arm pays for its whole queue).
fn ingest_run(seal_workers: usize, writers: usize, rows_per_writer: u64) -> Result<f64> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 2048);
    let schema = SchemaType::new("bench", ["a", "b"]);
    let table = Arc::new(OdhTable::create(
        pool,
        ResourceMeter::unmetered(),
        TableConfig::new(schema).with_batch_size(256).with_seal_workers(seal_workers),
    )?);
    table.start_seal_pipeline();
    // Two sources per writer: different stripe shards, zero cross-writer
    // buffer contention — the arms differ only in where encoding runs.
    for s in 0..(writers as u64 * 2) {
        table.register_source(SourceId(s), SourceClass::irregular_high())?;
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers as u64)
            .map(|w| {
                let table = &table;
                scope.spawn(move || {
                    for i in 0..rows_per_writer {
                        let src = w * 2 + (i & 1);
                        let t = 1_000_000 + i as i64 * 1_000 + w as i64;
                        let x = (i % 997) as f64 / 10.0;
                        table.put(&Record::dense(SourceId(src), Timestamp(t), [x, -x]))?;
                    }
                    Ok::<(), odh_types::OdhError>(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("ingest writer panicked")?;
        }
        Ok::<(), odh_types::OdhError>(())
    })?;
    table.flush()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Pipeline-on vs pipeline-off multi-threaded ingest. Arms alternate
/// within each repetition and the median wall time is kept, so a noisy
/// scheduler phase skews neither side.
pub fn seal_queue_bench() -> Result<Vec<SealQueueBenchPoint>> {
    let writers = env_u64("SEAL_BENCH_WRITERS", 4) as usize;
    let rows_per_writer = env_u64("SEAL_BENCH_ROWS", 120_000);
    let reps = env_u64("SEAL_BENCH_REPS", 3) as usize;
    let pipeline_workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);

    // Warm-up: one throwaway run so allocator growth is paid up front.
    ingest_run(0, writers, rows_per_writer / 4)?;

    let mut inline_secs = Vec::new();
    let mut pipeline_secs = Vec::new();
    for _ in 0..reps {
        inline_secs.push(ingest_run(0, writers, rows_per_writer)?);
        pipeline_secs.push(ingest_run(pipeline_workers, writers, rows_per_writer)?);
    }
    let rows = writers as u64 * rows_per_writer;
    let mk = |arm: &str, seal_workers: usize, secs: &mut [f64]| {
        let wall = crate::median(secs);
        SealQueueBenchPoint {
            arm: arm.to_string(),
            writer_threads: writers,
            seal_workers,
            rows,
            wall_secs: wall,
            rows_per_sec: rows as f64 / wall.max(1e-9),
        }
    };
    Ok(vec![
        mk("inline", 0, &mut inline_secs),
        mk("pipeline", pipeline_workers, &mut pipeline_secs),
    ])
}

/// The whole sweep behind `BENCH_compress.json`: kernels, then the seal
/// pipeline.
pub fn compress_bench(alloc_count: fn() -> u64) -> Result<CompressBenchReport> {
    let kernels = compress_kernel_bench(alloc_count);
    Ok(CompressBenchReport { kernels, seal_queue: seal_queue_bench()? })
}

/// Pretty-print the kernel points as old-vs-new speedup rows.
pub fn print_compress_points(report: &CompressBenchReport) {
    println!(
        "{:>18} {:>14} {:>14} {:>8} {:>12}",
        "op", "ref MB/s", "kernel MB/s", "speedup", "kernel allocs"
    );
    let ops: Vec<&str> = {
        let mut seen = Vec::new();
        for p in &report.kernels {
            if !seen.contains(&p.op.as_str()) {
                seen.push(&p.op);
            }
        }
        seen
    };
    for op in ops {
        let find = |arm: &str| report.kernels.iter().find(|p| p.op == op && p.arm == arm);
        if let (Some(r), Some(k)) = (find("reference"), find("kernel")) {
            println!(
                "{:>18} {:>14.1} {:>14.1} {:>7.2}x {:>12}",
                op,
                r.mb_per_sec,
                k.mb_per_sec,
                k.mb_per_sec / r.mb_per_sec.max(1e-9),
                k.allocs
            );
        }
    }
    println!();
    for p in &report.seal_queue {
        println!(
            "seal {:>9}: {} writers x {} rows -> {:>10.0} rows/s ({} seal workers, {:.2}s)",
            p.arm,
            p.writer_threads,
            p.rows / p.writer_threads.max(1) as u64,
            p.rows_per_sec,
            p.seal_workers,
            p.wall_secs
        );
    }
}
