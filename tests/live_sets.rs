//! Soundness of the checkpoints' live ranges: the memory bytes the golden
//! run reads after a checkpoint before it writes them.
//!
//! Each case forks every checkpoint's snapshot with a deep copy, overwrites
//! every mapped byte outside the checkpoint's live ranges with its
//! complement, and resumes: the run must still end as golden did, with
//! golden's output after golden's instruction count.  Every live range must
//! also be mapped at its checkpoint: a byte the run maps later is defined by
//! the zero-fill that maps it, so it is never live before.

use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::GoldenRun;
use mbfi_ir::{CompiledModule, Constant, Intrinsic, Module, ModuleBuilder, Operand, Type};
use mbfi_vm::{Limits, Memory, NoopHook, RunOutcome, Vm, VmSnapshot};
use mbfi_workloads::{workload_by_name, InputSize};

const SRC: usize = 0;
const MSG: usize = 1;
const MESSAGE: &[u8] = b"printed straight from memory\n";

/// The three read and write paths the live ranges must get right:
///
/// * `src` is read only as the source of a `Memcpy` into `out`;
/// * `msg` is read only by `PrintBytes`;
/// * `helper` reads its stack slot before writing it, twice, so the second
///   call's frame reuses the first's popped bytes; the push's zero-fill is
///   what defines them.  A heap allocation is read before it is written
///   too.
///
/// A zero-length `Memcpy` and `PrintBytes` from address 0 touch nothing.
///
/// A leading loop puts checkpoints before all of it.
fn program() -> Module {
    let mut mb = ModuleBuilder::new("live-paths");
    let src = mb.global_bytes("src", (0..64u8).map(|i| i * 3 + 1).collect());
    let msg = mb.global_bytes("msg", MESSAGE.to_vec());
    let out = mb.global_zeroed("out", 64);
    let helper = mb.declare("helper", &[(Type::I64, "v")], Some(Type::I64));
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(helper);
        let v = f.param(0);
        let slot = f.alloca(Type::I64, 4i64);
        let fresh = f.load(Type::I64, slot);
        let sum = f.add(Type::I64, fresh, v);
        f.store(Type::I64, sum, slot);
        f.ret(sum);
    }
    {
        let mut f = mb.define(main);
        let spin = f.slot(Type::I64);
        f.store(Type::I64, 0i64, spin);
        f.counted_loop(Type::I64, 0i64, 12i64, |f, i| {
            let cur = f.load(Type::I64, spin);
            let next = f.add(Type::I64, cur, i);
            f.store(Type::I64, next, spin);
        });
        f.intrinsic(
            Intrinsic::Memcpy,
            &[out, src, Operand::Const(Constant::i64(64))],
            None,
        );
        let null = Operand::Const(Constant::i64(0));
        f.intrinsic(Intrinsic::Memcpy, &[out, null, null], None);
        f.intrinsic(Intrinsic::PrintBytes, &[null, null], None);
        f.intrinsic(
            Intrinsic::PrintBytes,
            &[msg, Operand::Const(Constant::i64(MESSAGE.len() as i64))],
            None,
        );
        let one = f.call(helper, &[Operand::Const(Constant::i64(1))], Some(Type::I64));
        let two = f.call(helper, &[Operand::Const(Constant::i64(2))], Some(Type::I64));
        let both = f.add(Type::I64, one.unwrap(), two.unwrap());
        f.print_i64(both);
        let heap = f.malloc(32i64);
        let zero = f.load(Type::I64, heap);
        f.print_i64(zero);
        let acc = f.slot(Type::I64);
        f.store(Type::I64, 0i64, acc);
        f.counted_loop(Type::I64, 0i64, 8i64, |f, i| {
            let word = f.load_elem(Type::I64, out, i);
            let cur = f.load(Type::I64, acc);
            let next = f.xor(Type::I64, cur, word);
            f.store(Type::I64, next, acc);
        });
        let total = f.load(Type::I64, acc);
        f.print_i64(total);
        f.ret_void();
    }
    mb.set_entry(main);
    mb.finish()
}

/// Complement the bytes `[from, to)` of `mem`.
fn complement(mem: &mut Memory, from: u64, to: u64) {
    if from < to {
        let bytes: Vec<u8> = mem.read_bytes(from, to - from).unwrap();
        let flipped: Vec<u8> = bytes.iter().map(|b| !b).collect();
        mem.write_bytes(from, &flipped).unwrap();
    }
}

/// A deep copy of `snap` whose every mapped byte outside `live` is
/// complemented.
fn scrambled(snap: &VmSnapshot, live: &[(u64, u64)]) -> VmSnapshot {
    let mut mem = snap.memory().fork_full();
    for (start, end) in snap.memory().mapped() {
        let mut at = start;
        for &(live_start, live_end) in live.iter().filter(|&&(s, e)| e > start && s < end) {
            complement(&mut mem, at, live_start.max(start));
            at = live_end.min(end);
        }
        complement(&mut mem, at, end);
    }
    snap.with_memory(mem)
}

/// Check every checkpoint of `code`'s store at `interval` (the harness's
/// auto interval for `None`); returns the store.
fn assert_live_sets_sound(
    name: &str,
    code: &CompiledModule,
    interval: Option<u64>,
) -> CheckpointStore {
    let golden = GoldenRun::capture_compiled(code).unwrap();
    let config = match interval {
        Some(interval) => CheckpointConfig::with_interval(interval),
        None => CheckpointConfig::auto_for(&golden, CheckpointConfig::default().max_bytes),
    };
    let store = CheckpointStore::capture_compiled(code, &golden, config).unwrap();
    assert!(store.len() > 8, "{name}: {} checkpoints", store.len());
    for cp in store.checkpoints() {
        let snap = cp.snapshot();
        let mapped = snap.memory().mapped();
        for &(start, end) in cp.live() {
            assert!(
                mapped.iter().any(|&(s, e)| s <= start && end <= e),
                "{name}: live range {start:#x}..{end:#x} unmapped at {}",
                cp.dyn_index
            );
        }
        let result = Vm::from_snapshot(code, Limits::default(), &scrambled(snap, cp.live()))
            .run(&mut NoopHook);
        assert!(
            matches!(result.outcome, RunOutcome::Completed { .. }),
            "{name}: {:?} from checkpoint {}",
            result.outcome,
            cp.dyn_index
        );
        assert_eq!(
            result.output, golden.output,
            "{name}: output from {}",
            cp.dyn_index
        );
        assert_eq!(
            result.dynamic_instrs, golden.dynamic_instrs,
            "{name}: instructions from {}",
            cp.dyn_index
        );
    }
    store
}

#[test]
fn golden_resumes_unchanged_with_every_dead_byte_overwritten() {
    let code = CompiledModule::lower(&program());
    let store = assert_live_sets_sound("live-paths", &code, Some(3));
    // The memcpy source and the printed bytes are live before they are
    // read, though no load ever reads them.
    let first = &store.checkpoints()[0];
    let memory = first.snapshot().memory();
    for (global, len) in [(SRC, 64), (MSG, MESSAGE.len() as u64)] {
        let start = memory.global_addr(global).unwrap();
        assert!(
            first
                .live()
                .iter()
                .any(|&(s, e)| s <= start && start + len <= e),
            "global {global} is live at the first checkpoint"
        );
    }
}

#[test]
fn live_sets_of_tiny_workloads_are_sound() {
    for name in ["qsort", "stringsearch", "CRC32"] {
        let workload = workload_by_name(name).unwrap();
        let code = CompiledModule::lower(&workload.build_module(InputSize::Tiny));
        assert_live_sets_sound(name, &code, None);
    }
}
