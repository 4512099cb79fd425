//! Complete interpreter state capture for checkpointed replay.
//!
//! A [`VmSnapshot`] freezes everything a [`crate::Vm`] needs to continue a
//! run from an exact dynamic-instruction boundary: the frame stack (with all
//! register values and, since the compiled-pipeline refactor, each frame's
//! flat program counter instead of a `(func, block, instr)` triple), the
//! full memory image, the output buffer and the dynamic-instruction counter.
//! Snapshots taken during a fault-free run let a fault-injection campaign
//! skip the fault-free prefix of each experiment: restore the nearest
//! checkpoint at or before the first injection point and execute only the
//! tail.
//!
//! Snapshots are tied to the compiled module they were captured from —
//! restoring a snapshot into a VM for a different module is undefined
//! behaviour at the semantic level (the interpreter will index into the
//! wrong code).  `mbfi-core`'s checkpoint store keeps the pairing implicit
//! by owning both.

use crate::interp::Frame;
use crate::memory::{ChunkSet, Memory};

/// Frozen interpreter state at a dynamic-instruction boundary.
///
/// Created by [`crate::Vm::snapshot`], consumed by [`crate::Vm::from_snapshot`].
/// The snapshot is independent of the VM that produced it: it owns clones of
/// the frame stack, memory image and output buffer, so one snapshot can seed
/// any number of replays (including concurrently — `VmSnapshot` is `Sync`).
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    /// The call stack, innermost frame last.
    pub(crate) frames: Vec<Frame>,
    /// The memory image (globals, heap, stack segments).
    pub(crate) mem: Memory,
    /// Bytes printed so far.
    pub(crate) output: Vec<u8>,
    /// Dynamic instructions executed so far; the instruction with this index
    /// has *not* yet executed.
    pub(crate) dyn_count: u64,
}

impl VmSnapshot {
    /// Dynamic-instruction boundary this snapshot was taken at: the number of
    /// instructions already executed, which is also the `dyn_index` of the
    /// next instruction to run.
    pub fn dyn_count(&self) -> u64 {
        self.dyn_count
    }

    /// Call-stack depth at the snapshot point.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Bytes of output produced before the snapshot point.
    pub fn output_len(&self) -> usize {
        self.output.len()
    }

    /// Approximate heap footprint of this snapshot in bytes: unique memory
    /// chunks (each counted once even when several table slots share it),
    /// chunk-table overhead, register files and the output buffer.  Used by
    /// checkpoint stores to enforce a memory budget.
    pub fn approx_bytes(&self) -> usize {
        let mut seen = ChunkSet::default();
        self.unique_bytes(&mut seen)
    }

    /// Footprint in bytes *not already accounted* in `seen`: chunks shared
    /// with previously measured snapshots are free.  Feeding a checkpoint
    /// store's snapshots through one `ChunkSet` in order yields each one's
    /// marginal cost and, summed, the store's true unique footprint.
    pub fn unique_bytes(&self, seen: &mut ChunkSet) -> usize {
        let regs: usize = self
            .frames
            .iter()
            .map(|f| f.regs.len() * std::mem::size_of::<crate::Value>())
            .sum();
        self.mem.unique_bytes(seen)
            + regs
            + self.frames.len() * std::mem::size_of::<Frame>()
            + self.output.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::Vm;
    use crate::limits::Limits;
    use crate::profile::CountingHook;
    use mbfi_ir::{CompiledModule, ModuleBuilder, Type};

    fn looping_module(n: i64) -> mbfi_ir::Module {
        let mut mb = ModuleBuilder::new("snap");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn snapshot_and_resume_reproduce_the_full_run() {
        let m = looping_module(100);
        let code = CompiledModule::lower(&m);
        let mut hook = crate::hooks::NoopHook;
        let full = Vm::new(&code, Limits::default()).run(&mut hook);

        // Pause mid-run, snapshot, and finish from the snapshot in a new VM.
        let mut vm = Vm::new(&code, Limits::default());
        assert!(vm.run_until(&mut hook, 123).is_none());
        let snap = vm.snapshot();
        assert_eq!(snap.dyn_count(), 123);
        assert!(snap.depth() >= 1);
        assert!(snap.approx_bytes() > 0);

        let tail = Vm::from_snapshot(&code, Limits::default(), &snap).run(&mut hook);
        assert_eq!(tail.outcome, full.outcome);
        assert_eq!(tail.output, full.output);
        assert_eq!(tail.dynamic_instrs, full.dynamic_instrs);
    }

    #[test]
    fn one_snapshot_seeds_many_replays() {
        let m = looping_module(50);
        let code = CompiledModule::lower(&m);
        let mut hook = crate::hooks::NoopHook;
        let full = Vm::new(&code, Limits::default()).run(&mut hook);

        let mut vm = Vm::new(&code, Limits::default());
        assert!(vm.run_until(&mut hook, 40).is_none());
        let snap = vm.snapshot();
        for _ in 0..3 {
            let result = Vm::from_snapshot(&code, Limits::default(), &snap).run(&mut hook);
            assert_eq!(result.output, full.output);
            assert_eq!(result.dynamic_instrs, full.dynamic_instrs);
        }
        // The paused original can also continue to the same result.
        let rest = vm.run(&mut hook);
        assert_eq!(rest.output, full.output);
    }

    #[test]
    fn snapshot_preserves_output_prefix() {
        let mut mb = ModuleBuilder::new("out");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            f.print_i64(1i64);
            f.print_i64(2i64);
            f.print_i64(3i64);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        let code = CompiledModule::lower(&m);
        let mut hook = CountingHook::new();
        let mut vm = Vm::new(&code, Limits::default());
        // Run the first two prints, then snapshot.
        assert!(vm.run_until(&mut hook, 2).is_none());
        let snap = vm.snapshot();
        assert_eq!(snap.output_len(), b"1\n2\n".len());
        let result = Vm::from_snapshot(&code, Limits::default(), &snap).run(&mut hook);
        assert_eq!(result.output, b"1\n2\n3\n");
    }

    #[test]
    fn resumed_vm_keeps_its_own_limits() {
        // A snapshot taken under generous limits replayed under a tight
        // instruction limit must still hit the tight limit (hang detection
        // uses the experiment's limits, not the capture run's).
        let m = looping_module(1000);
        let code = CompiledModule::lower(&m);
        let mut hook = crate::hooks::NoopHook;
        let mut vm = Vm::new(&code, Limits::default());
        assert!(vm.run_until(&mut hook, 100).is_none());
        let snap = vm.snapshot();

        let tight = Limits {
            max_dynamic_instrs: 150,
            ..Limits::default()
        };
        let result = Vm::from_snapshot(&code, tight, &snap).run(&mut hook);
        assert_eq!(
            result.outcome,
            crate::interp::RunOutcome::InstrLimitExceeded
        );
        assert_eq!(result.dynamic_instrs, 150);
    }
}
