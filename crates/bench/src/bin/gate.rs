//! `gate <suite> [--record]` — the CI gate over the committed benchmark
//! baselines in `results/BENCH_<suite>.json`; see [`odh_bench::gate`].
//!
//! ```text
//! cargo run --release -p odh-bench --bin gate -- query            # check
//! cargo run --release -p odh-bench --bin gate -- query --record   # re-baseline
//! ```
//!
//! One suite runs per process, so the live-byte counter below measures
//! that suite alone.

use odh_bench::gate::{self, Probes, SUITES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts heap allocations (alloc, realloc, alloc_zeroed) and live bytes
/// (allocated minus freed): the compress and net suites prove their
/// steady-state paths allocate nothing, and the scale suite reads
/// resident bytes per source. It lives in the binary because a global
/// allocator in the library would tax every other bench bin.
///
/// Counting starts on, so every freed block was counted when allocated
/// and the live count never underflows. Suites that read no counter turn
/// it off: on a 2-core host the atomic updates slowed the query and
/// compact shapes by up to 26% (10 order-balanced pairs), against
/// baselines recorded without them.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(true);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(size as u64, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// outside any memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let rest: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--record").collect();
    let Some(&(suite, guards)) = SUITES.iter().find(|(name, _)| rest == [*name]) else {
        eprintln!("usage: gate <suite> [--record]");
        for (name, guards) in SUITES {
            eprintln!("  {name:<9} {guards}");
        }
        std::process::exit(2);
    };
    println!("gate {suite}: {guards}\n");
    COUNTING.store(gate::reads_allocator(suite), Ordering::Relaxed);
    let probes = Probes {
        allocs: || ALLOCS.load(Ordering::Relaxed),
        live_bytes: || LIVE.load(Ordering::Relaxed),
    };
    match gate::run(suite, record, probes) {
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
        Ok(checks) if !record && !gate::report(&checks) => std::process::exit(1),
        Ok(_) => {}
    }
}
