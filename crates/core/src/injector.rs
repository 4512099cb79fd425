//! The bit-flip injector: an [`ExecHook`] that corrupts register reads or
//! writes according to a single- or multiple-bit fault model.
//!
//! This is the extension of LLFI described in §III-C of the paper: on top of
//! LLFI's time–location pair (a dynamic instruction and a register), the
//! injector takes the two additional parameters `max-MBF` (how many flips may
//! occur in one run) and `win-size` (how many dynamic instructions apart
//! consecutive flips land).
//!
//! Scheduling rules:
//!
//! * The **first** flip is injected at the `first_target`-th candidate
//!   instruction (candidate ordinals are counted over the technique's
//!   candidate set and are valid because execution is fault-free up to the
//!   first flip).
//! * With `win-size = 0`, all remaining flips are applied to the **same
//!   register at the same dynamic instruction**, choosing distinct bit
//!   positions (§IV-B, Fig. 2).
//! * With `win-size = w > 0`, after a flip at dynamic instruction `d` the
//!   next flip is applied at the first candidate instruction whose dynamic
//!   index is at least `d + w` (§IV-C).  If the program crashes or finishes
//!   first, the remaining flips are simply not activated — which is exactly
//!   the effect the activation analysis of RQ1 measures.

use crate::rng::{Rng, SmallRng};
use crate::technique::Technique;
use mbfi_ir::Reg;
use mbfi_vm::{ExecHook, InstrContext, Value};

/// One applied bit-flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// 1-based ordinal of this flip within the experiment.
    pub ordinal: u32,
    /// Dynamic instruction index at which the flip was applied.
    pub dyn_index: u64,
    /// The register that was corrupted.
    pub reg: Reg,
    /// Bit position that was flipped.
    pub bit: u32,
    /// For inject-on-read, the index of the corrupted register operand.
    pub operand_index: Option<usize>,
    /// Raw value before the flip.
    pub before: u64,
    /// Raw value after the flip.
    pub after: u64,
}

/// A pending injection armed by `on_instr`, to be applied by the matching
/// `on_read` / `on_write` of the same dynamic instruction.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Dynamic index of the armed instruction (guards against corrupting a
    /// different instruction, e.g. callee instructions executing between a
    /// `call` and the write of its return value).
    dyn_index: u64,
    /// For inject-on-read: which register operand to corrupt.
    operand_index: usize,
    /// Number of distinct bits to flip in the targeted value.
    flips: u32,
}

/// Fault-injecting execution hook.
#[derive(Debug, Clone)]
pub struct InjectorHook {
    technique: Technique,
    max_mbf: u32,
    win_size: u64,
    first_target: u64,
    rng: SmallRng,
    candidate_seen: u64,
    next_dyn_threshold: Option<u64>,
    pending: Option<Pending>,
    injections: Vec<InjectionRecord>,
}

impl InjectorHook {
    /// Create an injector.
    ///
    /// * `first_target` — candidate ordinal (0-based) of the first injection,
    ///   drawn uniformly from the golden run's candidate count.
    /// * `win_size` — concrete window size for this experiment (already
    ///   sampled if the configuration uses a random range).
    /// * `seed` — seed for the injector's private RNG (bit and operand
    ///   selection), making experiments reproducible.
    pub fn new(
        technique: Technique,
        max_mbf: u32,
        win_size: u64,
        first_target: u64,
        seed: u64,
    ) -> InjectorHook {
        assert!(max_mbf >= 1, "max-MBF must be at least 1");
        InjectorHook {
            technique,
            max_mbf,
            win_size,
            first_target,
            rng: SmallRng::seed_from_u64(seed),
            candidate_seen: 0,
            next_dyn_threshold: None,
            pending: None,
            injections: Vec::new(),
        }
    }

    /// Fast-forward the candidate counter to resume from a golden-run
    /// checkpoint: `candidates_already_seen` candidates of this injector's
    /// technique executed before the checkpoint, so the next candidate
    /// observed gets that ordinal.  Valid only before any flip is armed or
    /// applied — the checkpointed prefix must be fault-free.
    ///
    /// # Panics
    ///
    /// Panics if the injector has already armed or applied a flip, or if the
    /// offset overshoots the first injection target (the target candidate
    /// would never be observed).
    pub fn resume_candidates(&mut self, candidates_already_seen: u64) {
        assert!(
            self.injections.is_empty() && self.pending.is_none() && self.candidate_seen == 0,
            "resume_candidates called on an injector that already made progress"
        );
        assert!(
            candidates_already_seen <= self.first_target,
            "checkpoint is past the first injection target"
        );
        self.candidate_seen = candidates_already_seen;
    }

    /// Number of bit-flips applied so far ("activated errors" in the paper).
    pub fn activated(&self) -> u32 {
        self.injections.len() as u32
    }

    /// Whether the injector can no longer flip: at least one flip was
    /// applied, none is pending and no window threshold is armed for a
    /// next one.  A spent injector changes no value it sees, so the rest of
    /// the run may execute without it (see [`crate::Experiment`]).  This
    /// also holds after a win-size-0 burst that the register's width cut
    /// short of `max_mbf`.
    pub(crate) fn is_spent(&self) -> bool {
        !self.injections.is_empty() && self.pending.is_none() && self.next_dyn_threshold.is_none()
    }

    /// The applied flips, in order.
    pub fn records(&self) -> &[InjectionRecord] {
        &self.injections
    }

    /// Consume the hook and return the applied flips.
    pub fn into_records(self) -> Vec<InjectionRecord> {
        self.injections
    }

    fn is_candidate(&self, ctx: &InstrContext) -> bool {
        match self.technique {
            Technique::InjectOnRead => ctx.reg_reads > 0,
            Technique::InjectOnWrite => ctx.has_dest,
        }
    }

    fn apply_flips(
        &mut self,
        ctx: &InstrContext,
        reg: Reg,
        value: Value,
        pending: Pending,
    ) -> Value {
        let width = value.ty.bit_width();
        let flips = pending.flips.min(width);
        let mut chosen: Vec<u32> = Vec::with_capacity(flips as usize);
        while (chosen.len() as u32) < flips {
            let bit = self.rng.gen_range(0..width);
            if !chosen.contains(&bit) {
                chosen.push(bit);
            }
        }
        let mut current = value;
        for bit in chosen {
            let after = current.flip_bit(bit);
            self.injections.push(InjectionRecord {
                ordinal: self.injections.len() as u32 + 1,
                dyn_index: ctx.dyn_index,
                reg,
                bit,
                operand_index: if self.technique.is_write() {
                    None
                } else {
                    Some(pending.operand_index)
                },
                before: current.bits,
                after: after.bits,
            });
            current = after;
        }
        if self.win_size > 0 && (self.injections.len() as u32) < self.max_mbf {
            self.next_dyn_threshold = Some(ctx.dyn_index + self.win_size);
        } else {
            self.next_dyn_threshold = None;
        }
        current
    }
}

impl ExecHook for InjectorHook {
    fn on_instr(&mut self, ctx: &InstrContext) {
        if self.activated() >= self.max_mbf || self.pending.is_some() {
            return;
        }
        if !self.is_candidate(ctx) {
            return;
        }
        let ordinal = self.candidate_seen;
        self.candidate_seen += 1;

        let should_inject = if self.injections.is_empty() {
            ordinal == self.first_target
        } else {
            match self.next_dyn_threshold {
                Some(threshold) => ctx.dyn_index >= threshold,
                None => false,
            }
        };
        if !should_inject {
            return;
        }

        // With win-size = 0 all remaining flips are applied at this single
        // instruction; otherwise exactly one flip is applied here.
        let flips = if self.win_size == 0 {
            self.max_mbf - self.activated()
        } else {
            1
        };
        let operand_index = match self.technique {
            Technique::InjectOnRead => self.rng.gen_range(0..ctx.reg_reads),
            Technique::InjectOnWrite => 0,
        };
        self.pending = Some(Pending {
            dyn_index: ctx.dyn_index,
            operand_index,
            flips,
        });
    }

    fn on_read(
        &mut self,
        ctx: &InstrContext,
        operand_index: usize,
        reg: Reg,
        value: Value,
    ) -> Value {
        if self.technique.is_write() {
            return value;
        }
        match self.pending {
            Some(p) if p.dyn_index == ctx.dyn_index && p.operand_index == operand_index => {
                self.pending = None;
                self.apply_flips(ctx, reg, value, p)
            }
            _ => value,
        }
    }

    fn on_write(&mut self, ctx: &InstrContext, reg: Reg, value: Value) -> Value {
        if !self.technique.is_write() {
            return value;
        }
        match self.pending {
            Some(p) if p.dyn_index == ctx.dyn_index => {
                self.pending = None;
                self.apply_flips(ctx, reg, value, p)
            }
            _ => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_ir::{ModuleBuilder, Type};
    use mbfi_vm::{Limits, Vm};

    /// A straight-line program with a known number of candidates.
    fn straight_line_module() -> mbfi_ir::Module {
        let mut mb = ModuleBuilder::new("sl");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I64, 1i64, 2i64); // no reg reads, has dest
            let b = f.add(Type::I64, a, 10i64); // 1 reg read, dest
            let c = f.mul(Type::I64, b, b); // 2 reg reads, dest
            let d = f.add(Type::I64, c, a); // 2 reg reads, dest
            f.print_i64(d); // 1 reg read, no dest
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    fn run_with(module: &mbfi_ir::Module, hook: &mut InjectorHook) -> mbfi_vm::RunResult {
        let code = mbfi_ir::CompiledModule::lower(module);
        Vm::new(&code, Limits::default()).run(hook)
    }

    #[test]
    fn single_flip_on_write_corrupts_output_deterministically() {
        let m = straight_line_module();
        // Target candidate 0 for write = the first `add` destination.
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 1, 0, 0, 7);
        let result = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 1);
        let rec = hook.records()[0];
        assert_eq!(rec.ordinal, 1);
        assert!(rec.operand_index.is_none());
        assert_ne!(rec.before, rec.after);
        // One bit differs between before and after.
        assert_eq!((rec.before ^ rec.after).count_ones(), 1);
        // The corrupted value propagates: output differs from golden.
        let golden = Vm::run_golden(&m, Limits::default());
        assert_ne!(result.output, golden.output);
    }

    #[test]
    fn single_flip_on_read_reports_operand_index() {
        let m = straight_line_module();
        let mut hook = InjectorHook::new(Technique::InjectOnRead, 1, 0, 1, 3);
        let _ = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 1);
        let rec = hook.records()[0];
        assert!(rec.operand_index.is_some());
        assert_eq!((rec.before ^ rec.after).count_ones(), 1);
    }

    #[test]
    fn same_register_multi_bit_flips_distinct_bits_at_one_instruction() {
        let m = straight_line_module();
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 5, 0, 1, 11);
        let _ = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 5);
        let records = hook.records();
        let dyn_indices: std::collections::HashSet<_> =
            records.iter().map(|r| r.dyn_index).collect();
        assert_eq!(dyn_indices.len(), 1, "all flips land in one instruction");
        let bits: std::collections::HashSet<_> = records.iter().map(|r| r.bit).collect();
        assert_eq!(bits.len(), 5, "bits are distinct");
        let regs: std::collections::HashSet<_> = records.iter().map(|r| r.reg).collect();
        assert_eq!(regs.len(), 1, "all flips target one register");
    }

    #[test]
    fn flip_count_is_capped_by_register_width() {
        // Target an i1 register (comparison result): only one bit can flip.
        let mut mb = ModuleBuilder::new("i1");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let slot = f.slot(Type::I64);
            f.store(Type::I64, 3i64, slot);
            let x = f.load(Type::I64, slot);
            let c = f.icmp(mbfi_ir::IcmpPred::Slt, Type::I64, x, 10i64);
            let v = f.select(Type::I64, c, 1i64, 0i64);
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        // Write candidates: alloca(0), load(1), icmp(2), select(3).
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 30, 0, 2, 5);
        let _ = run_with(&m, &mut hook);
        assert_eq!(
            hook.activated(),
            1,
            "an i1 register can absorb only one flip"
        );
    }

    #[test]
    fn windowed_injections_respect_the_dynamic_distance() {
        // A loop gives us plenty of candidates spread over dynamic time.
        let mut mb = ModuleBuilder::new("loop");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 200i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();

        // Depending on where the first flip lands, the program may crash
        // before later flips activate (that is exactly the RQ1 effect), so
        // scan a few seeds and require that at least one experiment activates
        // several flips — and that *every* experiment respects the window.
        let win = 10u64;
        let mut saw_multiple = false;
        for seed in 0..20u64 {
            let mut hook = InjectorHook::new(Technique::InjectOnRead, 4, win, seed % 7, seed);
            let _ = run_with(&m, &mut hook);
            let records = hook.records();
            if records.len() >= 2 {
                saw_multiple = true;
            }
            for pair in records.windows(2) {
                assert!(
                    pair[1].dyn_index >= pair[0].dyn_index + win,
                    "flip at {} too close to previous at {}",
                    pair[1].dyn_index,
                    pair[0].dyn_index
                );
            }
        }
        assert!(saw_multiple, "no experiment activated more than one flip");
    }

    #[test]
    fn flips_stop_after_max_mbf() {
        let mut mb = ModuleBuilder::new("loop");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 500i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        // The number of activated flips never exceeds max-MBF, and some seed
        // activates all of them (experiments that crash early activate fewer).
        let mut saw_full = false;
        for seed in 0..20u64 {
            let mut hook = InjectorHook::new(Technique::InjectOnRead, 3, 1, seed, seed * 7 + 1);
            let _ = run_with(&m, &mut hook);
            assert!(hook.activated() <= 3);
            if hook.activated() == 3 {
                saw_full = true;
            }
        }
        assert!(saw_full, "no experiment activated all three flips");
    }

    #[test]
    fn out_of_range_target_never_activates() {
        let m = straight_line_module();
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 1, 0, 10_000, 1);
        let result = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 0);
        let golden = Vm::run_golden(&m, Limits::default());
        assert_eq!(result.output, golden.output);
    }

    #[test]
    fn call_return_value_corruption_targets_the_call_not_the_callee() {
        let mut mb = ModuleBuilder::new("call");
        let helper = mb.declare("helper", &[(Type::I64, "x")], Some(Type::I64));
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(helper);
            let x = f.param(0);
            let y = f.add(Type::I64, x, 1i64);
            f.ret(y);
        }
        {
            let mut f = mb.define(main);
            let a = f.add(Type::I64, 5i64, 0i64); // write candidate 0
            let r = f
                .call(helper, &[mbfi_ir::Operand::Reg(a)], Some(Type::I64))
                .unwrap(); // write candidate 1 (the call's return value)
            f.print_i64(r);
            f.ret_void();
        }
        mb.set_entry(main);
        let m = mb.finish();
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 1, 0, 1, 21);
        let _ = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 1);
        let rec = hook.records()[0];
        // The corrupted value must be the call's return value (6 before the flip),
        // not a value computed inside the callee at a later dynamic index.
        assert_eq!(rec.before, 6);
    }

    #[test]
    fn a_single_bit_injector_is_spent_after_its_flip() {
        let m = straight_line_module();
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 1, 0, 1, 7);
        assert!(!hook.is_spent(), "nothing applied yet");
        let _ = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 1);
        assert!(hook.is_spent());
    }

    #[test]
    fn a_burst_cut_short_by_the_register_width_is_spent() {
        // The i1 module of `flip_count_is_capped_by_register_width`:
        // win-size 0 with max-MBF 30 applies one flip and can apply no more.
        let mut mb = ModuleBuilder::new("i1");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let c = f.icmp(mbfi_ir::IcmpPred::Slt, Type::I64, 3i64, 10i64);
            let v = f.select(Type::I64, c, 1i64, 0i64);
            f.print_i64(v);
            f.ret_void();
        }
        mb.set_entry(main);
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 30, 0, 0, 5);
        let _ = run_with(&mb.finish(), &mut hook);
        assert_eq!(hook.activated(), 1);
        assert!(hook.is_spent());
    }

    #[test]
    fn a_windowed_injector_is_spent_only_after_max_mbf_flips() {
        let mut mb = ModuleBuilder::new("loop");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 100i64, |f, i| {
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, i);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        let code = mbfi_ir::CompiledModule::lower(&mb.finish());
        // Step one instruction at a time: between instructions no flip is
        // pending, so the injector is spent exactly when all three applied.
        // Runs a flip crashes early activate fewer; some seed applies all.
        let mut saw_full = false;
        for seed in 0..20u64 {
            let mut hook = InjectorHook::new(Technique::InjectOnRead, 3, 5, seed, seed);
            let mut vm = Vm::new(&code, Limits::default());
            let mut stop = 1;
            while vm.run_until(&mut hook, stop).is_none() {
                assert_eq!(
                    hook.is_spent(),
                    hook.activated() == 3,
                    "seed {seed} at {stop}"
                );
                stop += 1;
            }
            saw_full |= hook.is_spent();
        }
        assert!(saw_full, "no experiment activated all three flips");
    }

    #[test]
    fn an_injector_whose_target_is_never_reached_is_never_spent() {
        let m = straight_line_module();
        let mut hook = InjectorHook::new(Technique::InjectOnWrite, 1, 0, 10_000, 1);
        let _ = run_with(&m, &mut hook);
        assert_eq!(hook.activated(), 0);
        assert!(!hook.is_spent());
    }

    #[test]
    fn injector_requires_at_least_one_flip() {
        let result =
            std::panic::catch_unwind(|| InjectorHook::new(Technique::InjectOnRead, 0, 0, 0, 0));
        assert!(result.is_err());
    }
}
