//! Allocation guard for the hot loops: golden capture, checkpoint capture
//! and a replayed experiment must allocate independently of how many
//! dynamic instructions they execute.
//!
//! A `#[global_allocator]` wrapper around [`System`] counts the allocations
//! made by the current thread, and each case runs the same call-free counted
//! loop at 1,000 and at 100,000 iterations.  A per-instruction allocation
//! (say, a `String` key per executed opcode) shows up as a difference of
//! about 100x the loop length between the two counts.

use mbfi_core::{CheckpointConfig, CheckpointStore, Experiment, ExperimentSpec, FaultModel};
use mbfi_core::{GoldenRun, Technique};
use mbfi_ir::{CompiledModule, Module, ModuleBuilder, Type};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation and reallocation of the calling
/// thread.
struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down, when there is nothing left to count into.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// Largest difference allowed between the counts at the two trip counts.
/// Everything the three cases allocate is per run or per checkpoint, and
/// both trip counts store the same number of checkpoints, so after a
/// warm-up run (which absorbs one-time lazy initialisation in `std`) the
/// counts are expected to be equal; the slack only absorbs a collection
/// that happens to grow once more at one size.
const SLACK: u64 = 2;

const SHORT: i64 = 1_000;
const LONG: i64 = 100_000;

/// `acc += i ^ 0x55` over `0..n`, then print `acc & 7`: a call-free loop
/// whose output has the same length at every `n`.  It runs `13n + 12`
/// instructions, so the auto interval (1/128th of the run) stores 128
/// checkpoints at both trip counts.
fn counted_loop(n: i64) -> Module {
    let mut mb = ModuleBuilder::new("counted_loop");
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(main);
        let acc = f.slot(Type::I64);
        f.store(Type::I64, 0i64, acc);
        f.counted_loop(Type::I64, 0i64, n, |f, i| {
            let cur = f.load(Type::I64, acc);
            let mixed = f.xor(Type::I64, i, 0x55i64);
            let next = f.add(Type::I64, cur, mixed);
            f.store(Type::I64, next, acc);
        });
        let total = f.load(Type::I64, acc);
        let low = f.and(Type::I64, total, 7i64);
        f.print_i64(low);
        f.ret_void();
    }
    mb.set_entry(main);
    mb.finish()
}

/// The three measured cases at one trip count.
struct Counts {
    golden: u64,
    capture: u64,
    experiment: u64,
    dynamic_instrs: u64,
    checkpoints: usize,
}

fn measure(n: i64) -> Counts {
    let code = CompiledModule::lower(&counted_loop(n));
    let (golden_allocs, golden) = allocations(|| GoldenRun::capture_compiled(&code));
    let golden = golden.expect("the counted loop completes");
    let config = CheckpointConfig::auto_for(&golden, CheckpointConfig::default().max_bytes);
    let (capture_allocs, store) =
        allocations(|| CheckpointStore::capture_compiled(&code, &golden, config));
    let store = store.expect("capture reproduces the golden run");
    // One flip at the 10th write candidate: the injector is spent within
    // the first loop iterations and the rest of the run is hook-free.
    let spec = ExperimentSpec {
        technique: Technique::InjectOnWrite,
        model: FaultModel::single_bit(),
        first_target: 10,
        win_size_value: 0,
        seed: 7,
        hang_factor: 4,
    };
    let (experiment_allocs, result) =
        allocations(|| Experiment::run_compiled(&code, &golden, &spec, Some(&store)));
    assert_eq!(result.activated, 1, "the injector fires once");
    Counts {
        golden: golden_allocs,
        capture: capture_allocs,
        experiment: experiment_allocs,
        dynamic_instrs: golden.dynamic_instrs,
        checkpoints: store.checkpoints().len(),
    }
}

fn assert_independent(case: &str, short: u64, long: u64) {
    assert!(
        short.abs_diff(long) <= SLACK,
        "{case}: {short} allocations at {SHORT} iterations but {long} at {LONG} \
         (allowed difference {SLACK})"
    );
}

#[test]
fn hot_loops_allocate_independently_of_the_trip_count() {
    measure(SHORT);
    let short = measure(SHORT);
    let long = measure(LONG);
    assert_eq!(short.dynamic_instrs, 13 * SHORT as u64 + 12);
    assert_eq!(long.dynamic_instrs, 13 * LONG as u64 + 12);
    assert_eq!(
        short.checkpoints, long.checkpoints,
        "the auto interval stores the same number of checkpoints at both sizes"
    );
    assert_independent("golden capture", short.golden, long.golden);
    assert_independent("checkpoint capture", short.capture, long.capture);
    assert_independent("replayed experiment", short.experiment, long.experiment);
}
