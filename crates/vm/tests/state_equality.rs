//! The state-equality primitive: `Vm::rejoins` and `Memory::same_on`.
//!
//! Equality is what lets a faulty run stop early, so it must be exact in
//! both directions: any difference on the compared state (a memory byte in
//! the compared ranges, a register, a program counter, an output byte)
//! makes two states unequal, while differences no later instruction can
//! observe (which chunk `Arc` a byte lives in, stale stack bytes above the
//! top, bytes outside the compared ranges) do not.
//!
//! Each VM case forks a run off a golden snapshot, perturbs it with a hook
//! that flips bit 0 of one value at one dynamic instruction, and compares
//! the perturbed run with the golden snapshot at the same boundary, on all
//! of the snapshot's mapped memory.

use mbfi_ir::{CompiledModule, Global, IcmpPred, Module, ModuleBuilder, Operand, Reg, Type};
use mbfi_vm::{
    ExecHook, InstrContext, Limits, Memory, MemoryLayout, NoopHook, Value, Vm, VmSnapshot,
};

/// Dynamic indices of the instructions of [`program`] the cases perturb.
const LOAD_G: u64 = 0;
const STORE_FLIPPED: u64 = 1;
const STORE_BACK: u64 = 2;
const CALLEE_STORE: u64 = 5;
const CALLEE_RET: u64 = 6;
const ADD_UNUSED: u64 = 7;
const PRINT_X: u64 = 8;
const COND_BR: u64 = 10;

/// ```text
/// helper(v):  p = alloca i64; store v -> p; ret          (dyn 4..=6)
/// main:       x = load g                                  (dyn 0)
///             store x -> g; store x -> g                  (dyn 1, 2)
///             call helper(x)                              (dyn 3)
///             y = add x, 1   ; y is never read            (dyn 7)
///             print x                                     (dyn 8)
///             c = icmp eq x, 5; br c, then, else          (dyn 9, 10)
///   then/else: br join                                    (dyn 11)
///   join:      ret                                        (dyn 12)
/// ```
fn program() -> Module {
    let mut mb = ModuleBuilder::new("state-eq");
    let g = mb.global_i64s("g", &[5]);
    let helper = mb.declare("helper", &[(Type::I64, "v")], None);
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(helper);
        let v = f.param(0);
        let p = f.alloca(Type::I64, 1i64);
        f.store(Type::I64, v, p);
        f.ret_void();
    }
    {
        let mut f = mb.define(main);
        let x = f.load(Type::I64, g);
        f.store(Type::I64, x, g);
        f.store(Type::I64, x, g);
        f.call(helper, &[Operand::Reg(x)], None);
        let _unused = f.add(Type::I64, x, 1i64);
        f.print_i64(x);
        let c = f.icmp(IcmpPred::Eq, Type::I64, x, 5i64);
        let then_bb = f.new_block("then");
        let else_bb = f.new_block("else");
        let join = f.new_block("join");
        f.cond_br(c, then_bb, else_bb);
        f.switch_to(then_bb);
        f.br(join);
        f.switch_to(else_bb);
        f.br(join);
        f.switch_to(join);
        f.ret_void();
    }
    mb.set_entry(main);
    mb.finish()
}

/// Flips bit 0 of one value at one dynamic instruction: the `operand`-th
/// register read, or the destination write when `operand` is `None`.
struct FlipAt {
    dyn_index: u64,
    operand: Option<usize>,
}

impl ExecHook for FlipAt {
    fn on_read(&mut self, ctx: &InstrContext, operand: usize, _reg: Reg, value: Value) -> Value {
        if ctx.dyn_index == self.dyn_index && self.operand == Some(operand) {
            value.flip_bit(0)
        } else {
            value
        }
    }

    fn on_write(&mut self, ctx: &InstrContext, _reg: Reg, value: Value) -> Value {
        if ctx.dyn_index == self.dyn_index && self.operand.is_none() {
            value.flip_bit(0)
        } else {
            value
        }
    }
}

/// Whether `vm` rejoins `snap` on every mapped byte of `snap`.
fn same_state(vm: &Vm<'_>, snap: &VmSnapshot) -> bool {
    vm.rejoins(snap, &snap.memory().mapped())
}

/// Whether `a` equals `b` on every mapped byte of `b`.
fn same_memory(a: &Memory, b: &Memory) -> bool {
    a.same_on(b, &b.mapped())
}

/// The golden state at boundary `at`.
fn golden_at(code: &CompiledModule, at: u64) -> VmSnapshot {
    let mut vm = Vm::new(code, Limits::default());
    assert!(
        vm.run_until(&mut NoopHook, at).is_none(),
        "golden ended before {at}"
    );
    vm.snapshot()
}

/// A run forked off `from`, perturbed by `hook`, paused at boundary `to`.
fn perturbed<'c>(code: &'c CompiledModule, from: &VmSnapshot, to: u64, mut hook: FlipAt) -> Vm<'c> {
    let mut vm = Vm::from_snapshot(code, Limits::default(), from);
    assert!(
        vm.run_until(&mut hook, to).is_none(),
        "perturbed run ended before {to}"
    );
    vm
}

#[test]
fn a_fresh_fork_equals_its_snapshot() {
    let code = CompiledModule::lower(&program());
    for at in [0, STORE_BACK, CALLEE_STORE, PRINT_X, COND_BR + 1] {
        let snap = golden_at(&code, at);
        assert!(same_state(
            &Vm::from_snapshot(&code, Limits::default(), &snap),
            &snap
        ));
        // An independent golden run paused at the same boundary shares no
        // written chunk with `snap`, and still compares equal byte for byte.
        let mut rerun = Vm::new(&code, Limits::default());
        assert!(rerun.run_until(&mut NoopHook, at).is_none());
        assert!(same_state(&rerun, &snap), "boundary {at}");
    }
}

#[test]
fn a_different_boundary_is_a_different_state() {
    let code = CompiledModule::lower(&program());
    let vm = Vm::from_snapshot(&code, Limits::default(), &golden_at(&code, ADD_UNUSED));
    assert!(!same_state(&vm, &golden_at(&code, PRINT_X)));
}

#[test]
fn a_chunk_copied_and_written_back_is_equal() {
    let code = CompiledModule::lower(&program());
    // The first store writes x ^ 1 into `g`, copying the chunk it shares
    // with `start`; the second writes x back: the bytes are golden again,
    // the chunk is not the snapshot's.
    let start = golden_at(&code, LOAD_G + 1);
    let hook = FlipAt {
        dyn_index: STORE_FLIPPED,
        operand: Some(0),
    };
    let vm = perturbed(&code, &start, STORE_BACK + 1, hook);
    assert!(vm.cow_stats().cow_chunks_copied >= 1);
    assert!(same_state(&vm, &golden_at(&code, STORE_BACK + 1)));
}

#[test]
fn one_differing_memory_byte_is_unequal() {
    let code = CompiledModule::lower(&program());
    let hook = FlipAt {
        dyn_index: STORE_FLIPPED,
        operand: Some(0),
    };
    let vm = perturbed(
        &code,
        &golden_at(&code, LOAD_G + 1),
        STORE_FLIPPED + 1,
        hook,
    );
    assert!(!same_state(&vm, &golden_at(&code, STORE_FLIPPED + 1)));
}

#[test]
fn stale_stack_bytes_above_the_top_are_ignored() {
    let code = CompiledModule::lower(&program());
    // The callee stores x ^ 1 into its own stack slot; after its return the
    // slot lies above the stack top and no instruction can read it.
    let start = golden_at(&code, CALLEE_STORE);
    let hook = || FlipAt {
        dyn_index: CALLEE_STORE,
        operand: Some(0),
    };
    let inside = perturbed(&code, &start, CALLEE_RET, hook());
    assert!(!same_state(&inside, &golden_at(&code, CALLEE_RET)));
    let vm = perturbed(&code, &start, CALLEE_RET + 1, hook());
    assert!(same_state(&vm, &golden_at(&code, CALLEE_RET + 1)));
}

#[test]
fn one_differing_register_is_unequal() {
    let code = CompiledModule::lower(&program());
    let hook = FlipAt {
        dyn_index: ADD_UNUSED,
        operand: None,
    };
    let vm = perturbed(&code, &golden_at(&code, ADD_UNUSED), ADD_UNUSED + 1, hook);
    assert!(!same_state(&vm, &golden_at(&code, ADD_UNUSED + 1)));
}

#[test]
fn one_differing_output_byte_is_unequal() {
    let code = CompiledModule::lower(&program());
    let hook = FlipAt {
        dyn_index: PRINT_X,
        operand: Some(0),
    };
    let vm = perturbed(&code, &golden_at(&code, PRINT_X), PRINT_X + 1, hook);
    assert!(!same_state(&vm, &golden_at(&code, PRINT_X + 1)));
}

#[test]
fn a_differing_pc_is_unequal() {
    let code = CompiledModule::lower(&program());
    // Flipping the branch's condition operand (not the register) leaves
    // every register, memory byte and output byte golden and sends the run
    // down the other arm: only the program counter differs.
    let hook = FlipAt {
        dyn_index: COND_BR,
        operand: Some(0),
    };
    let vm = perturbed(&code, &golden_at(&code, COND_BR), COND_BR + 1, hook);
    assert!(!same_state(&vm, &golden_at(&code, COND_BR + 1)));
}

fn memory() -> Memory {
    Memory::for_globals(&[Global::zeroed("g", 64)], MemoryLayout::default())
}

#[test]
fn memory_equality_compares_bytes_not_chunk_identity() {
    let base = memory();
    let g = base.global_addr(0).unwrap();
    let mut fork = base.fork_cow();
    assert!(same_memory(&fork, &base));

    fork.store(Type::I32, g + 8, 0xDEAD).unwrap();
    assert_eq!(fork.cow_stats().cow_chunks_copied, 1);
    assert!(!same_memory(&fork, &base), "one differing byte");

    fork.store(Type::I32, g + 8, 0).unwrap();
    assert!(
        same_memory(&fork, &base),
        "written back to the original bytes"
    );
}

#[test]
fn memory_equality_ignores_stale_stack_but_not_the_tops() {
    let mut a = memory();
    let mut b = memory();
    let sa = a.stack_push(32).unwrap();
    let sb = b.stack_push(32).unwrap();
    a.store(Type::I64, sa + 8, 1).unwrap();
    b.store(Type::I64, sb + 8, 2).unwrap();
    assert!(!same_memory(&a, &b));

    let (mark_a, mark_b) = (a.stack_mark(), b.stack_mark());
    a.stack_pop_to(mark_a - 32);
    b.stack_pop_to(mark_b - 32);
    assert!(
        same_memory(&a, &b),
        "stale bytes above the top are not state"
    );
    // A trimmed snapshot image of the same state compares equal too.
    assert!(same_memory(&a.snapshot_image(), &b));

    let mut c = a.fork_cow();
    c.stack_push(16).unwrap();
    assert!(!same_memory(&c, &a), "a different stack top");
    let mut d = a.fork_cow();
    d.heap_alloc(8).unwrap();
    assert!(!same_memory(&d, &a), "a different heap top");
}

#[test]
fn memory_outside_the_compared_ranges_is_not_compared() {
    let base = memory();
    let g = base.global_addr(0).unwrap();
    let mut fork = base.fork_cow();
    fork.store(Type::I64, g + 8, 0xDEAD).unwrap();
    assert!(!fork.same_on(&base, &[(g, g + 16)]));
    assert!(fork.same_on(&base, &[(g, g + 8), (g + 16, g + 64)]));
    assert!(fork.same_on(&base, &[]), "no range compares no byte");
    // A range the images do not map is a difference.
    let top = base.layout().heap_base;
    assert!(!fork.same_on(&base, &[(top, top + 8)]));
}
