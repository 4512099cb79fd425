//! Checkpointed golden-run replay.
//!
//! Every experiment of a campaign re-executes the workload with a fault
//! injected at a known first location — which means the prefix of the run up
//! to that location is *identical* to the golden run and is pure wasted work.
//! A [`CheckpointStore`] captures [`VmSnapshot`]s every `interval` dynamic
//! instructions during one extra fault-free run; an experiment then restores
//! the nearest checkpoint at or before its first injection point and executes
//! only the tail.
//!
//! ## The candidate-ordinal bookkeeping
//!
//! Injection targets are *candidate ordinals*, not dynamic-instruction
//! indices: the `first_target`-th instruction that reads (inject-on-read) or
//! writes (inject-on-write) a register.  Each checkpoint therefore also
//! records how many candidates of either kind executed before it, so a
//! resumed [`crate::InjectorHook`] can be fast-forwarded with
//! [`crate::InjectorHook::resume_candidates`] and still fire at exactly the
//! same instruction as a full run.
//!
//! ## Determinism contract
//!
//! Replay is byte-transparent: for any experiment spec, the
//! [`crate::ExperimentResult`] of the replay path equals the full-execution
//! result field-for-field (outcome, activation count, dynamic-instruction
//! count, injection records).  This holds because (a) the restored prefix is
//! fault-free, so the injector's RNG has consumed nothing before the first
//! flip, (b) dynamic-instruction indices continue from the checkpoint's
//! counter, and (c) the snapshot carries the output prefix, so SDC
//! classification compares the same bytes.  The same holds for an
//! experiment that stops where its state rejoins a checkpoint's on the
//! checkpoint's live bytes (see below and [`crate::experiment`]): from there
//! the run is the golden run, shifted.  The contract is enforced by the
//! `replay_equivalence` integration suite at several intervals, the
//! harness's auto interval among them.
//!
//! ## Live bytes
//!
//! Each checkpoint also keeps its *live ranges*: the memory bytes the golden
//! run reads after the checkpoint before it writes them.  A run whose
//! frames, output, heap and stack tops equal a checkpoint's, and whose
//! memory equals it on those bytes, reads golden's value at every later
//! read, so its rest is golden's rest from there, in phase or shifted (see
//! [`crate::experiment`]).  The capture run computes them online, with no
//! per-access trace: its hook keeps, per memory byte, the number of
//! checkpoints stored before the byte's last access.  A read that finds an
//! older count makes the byte live at every checkpoint in between, one span
//! per byte and checkpoint interval at most; one pass over the spans in
//! address order then gives each checkpoint its merged ranges.  Every read
//! path counts as a use (loads, `Memcpy` sources, the bytes `PrintBytes`
//! prints) and every write as a definition (stores, `Memcpy` destinations,
//! `Memset`, and the zero-fill of a stack push or a heap allocation).  The
//! store also picks, per function, the key registers a watch for a shifted
//! rejoin compares first.
//!
//! ## Memory budget
//!
//! Snapshots are chunk-table clones sharing 4 KiB copy-on-write chunks (see
//! `mbfi_vm::memory`), so consecutive checkpoints share every chunk the run
//! did not touch in between.  The budget accounting charges each checkpoint
//! its *marginal* unique-chunk footprint — a chunk shared with an earlier
//! checkpoint is free — plus its live ranges, and the store refuses to grow
//! beyond [`CheckpointConfig::max_bytes`], simply not adding checkpoints
//! once the budget is reached ([`CheckpointStore::truncated`] reports this).
//! The live ranges are known only once the run has ended, so the capture
//! snapshots under the chunk charge alone and then keeps the longest prefix
//! whose chunks and ranges fit.
//! Experiments whose first injection lies beyond the last stored checkpoint
//! fall back to the deepest one available — correctness never depends on the
//! budget.  The chunk `Arc`s are also the cross-thread sharing mechanism:
//! sweep workers fork experiment VMs straight off the shared store with zero
//! up-front copy.

use std::sync::Arc;

use crate::golden::GoldenRun;
use crate::technique::Technique;
use mbfi_ir::{CompiledModule, Module};
use mbfi_vm::{
    ExecHook, InstrContext, Limits, MemoryLayout, RunOutcome, Value, Vm, VmSnapshot, Watch,
};

/// Remap a uniformly drawn candidate ordinal into the **last quartile** of a
/// candidate space — the late-injection shape where replay saves the most
/// (used by the benchmark and the equivalence suite; kept here so the two
/// cannot drift).  The result is always a valid ordinal below `candidates`.
pub fn last_quartile_target(candidates: u64, drawn: u64) -> u64 {
    let candidates = candidates.max(1);
    let quartile = (candidates / 4).max(1);
    (candidates - quartile) + drawn % quartile
}

/// Knobs of a checkpoint capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint every `interval` dynamic instructions (K).  Smaller values
    /// shrink the replayed tail but cost more capture time and memory.
    pub interval: u64,
    /// Upper bound on the stored checkpoints' unique-chunk footprint (each
    /// checkpoint charged its marginal bytes over those already stored; see
    /// [`VmSnapshot::unique_bytes`]).  Capture keeps the earliest checkpoints
    /// and stops adding once the budget is exhausted.
    pub max_bytes: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 1024,
            max_bytes: 64 << 20,
        }
    }
}

impl CheckpointConfig {
    /// A config with the given interval and the default memory budget.
    pub fn with_interval(interval: u64) -> CheckpointConfig {
        CheckpointConfig {
            interval,
            ..CheckpointConfig::default()
        }
    }

    /// The auto-tuned config for one golden run: the per-workload interval
    /// from [`GoldenRun::default_checkpoint_interval`] with an explicit
    /// memory budget.
    pub fn auto_for(golden: &GoldenRun, max_bytes: usize) -> CheckpointConfig {
        CheckpointConfig {
            interval: golden.default_checkpoint_interval(),
            max_bytes,
        }
    }
}

/// One stored checkpoint: a VM snapshot plus the profile counters needed to
/// fast-forward an injector to this point, and its live ranges.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    snapshot: VmSnapshot,
    /// Dynamic-instruction boundary of the snapshot.
    pub dyn_index: u64,
    /// Inject-on-read candidates executed before this point.
    pub read_candidates: u64,
    /// Inject-on-write candidates executed before this point.
    pub write_candidates: u64,
    live: Vec<(u64, u64)>,
}

impl Checkpoint {
    /// The frozen VM state.
    pub fn snapshot(&self) -> &VmSnapshot {
        &self.snapshot
    }

    /// The bytes the golden run reads after this checkpoint before it
    /// writes them, as sorted, disjoint, non-adjacent half-open
    /// `[start, end)` address ranges.
    pub fn live(&self) -> &[(u64, u64)] {
        &self.live
    }

    /// Candidates of the given technique executed before this checkpoint.
    pub fn candidates_for(&self, technique: Technique) -> u64 {
        if technique.is_write() {
            self.write_candidates
        } else {
            self.read_candidates
        }
    }
}

/// Capture failed: the fault-free capture run did not reproduce the golden
/// run it was supposed to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCaptureError {
    /// Dynamic instructions of the golden run.
    pub expected_instrs: u64,
    /// Dynamic instructions of the capture run.
    pub actual_instrs: u64,
    /// Whether the capture run's output matched the golden output.
    pub output_matches: bool,
    /// How the capture run ended.
    pub outcome: String,
}

impl std::fmt::Display for ReplayCaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint capture diverged from the golden run: \
             {} dynamic instructions (expected {}), output {}, outcome {}",
            self.actual_instrs,
            self.expected_instrs,
            if self.output_matches {
                "matches"
            } else {
                "differs"
            },
            self.outcome
        )
    }
}

impl std::error::Error for ReplayCaptureError {}

/// An immutable set of golden-run checkpoints for one workload module.
///
/// Capture once per `(module, golden)` pair, then share by reference across
/// worker threads (`CheckpointStore` is `Sync`): replay only reads snapshots.
/// A clone shares the checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    interval: u64,
    /// Limits of the capture run, under which the golden run is known to
    /// complete.
    limits: Limits,
    checkpoints: Arc<Vec<Checkpoint>>,
    stored_bytes: usize,
    truncated: bool,
    /// Per function, its key registers (see [`key_registers`]).
    keys: Vec<[u32; KEY_REGS]>,
    /// Per program counter, the function it lies in.
    func_of: Vec<u32>,
}

impl CheckpointStore {
    /// Re-run the workload fault-free, pausing every
    /// [`CheckpointConfig::interval`] dynamic instructions to snapshot, and
    /// verify the run reproduces `golden` (same instruction count and
    /// output).  A divergence means the module and the golden run do not
    /// belong together and replaying would corrupt every experiment.
    pub fn capture(
        module: &Module,
        golden: &GoldenRun,
        config: CheckpointConfig,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        Self::capture_compiled(&CompiledModule::lower(module), golden, config)
    }

    /// Capture from a pre-lowered module (the snapshots carry compiled-frame
    /// state, so replay through [`crate::Experiment::run_compiled`] must use
    /// the same lowered module).
    pub fn capture_compiled(
        code: &CompiledModule,
        golden: &GoldenRun,
        config: CheckpointConfig,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        Self::capture_compiled_with_limits(code, golden, config, Limits::default())
    }

    /// Capture from a pre-lowered module with explicit execution limits.
    pub fn capture_compiled_with_limits(
        code: &CompiledModule,
        golden: &GoldenRun,
        config: CheckpointConfig,
        limits: Limits,
    ) -> Result<CheckpointStore, ReplayCaptureError> {
        assert!(config.interval >= 1, "checkpoint interval must be >= 1");
        let mut vm = Vm::new(code, limits);
        let mut hook = CaptureHook::new();
        let mut store = CheckpointStore {
            interval: config.interval,
            limits,
            checkpoints: Arc::default(),
            stored_bytes: 0,
            truncated: false,
            keys: Vec::new(),
            func_of: code.meta.iter().map(|meta| meta.func).collect(),
        };
        let mut checkpoints = Vec::new();
        // Each stored checkpoint's marginal chunk charge, for the final cut.
        let mut chunk_bytes = Vec::new();
        let mut next_stop = config.interval;
        // Chunks already charged to the store: a snapshot only pays for
        // chunks no earlier checkpoint holds, so dense checkpointing of a
        // mostly-idle image is nearly free.
        let mut seen = mbfi_vm::ChunkSet::default();
        let result = loop {
            match vm.run_until(&mut hook, next_stop) {
                None => {
                    if !store.truncated {
                        let snapshot = vm.snapshot();
                        // A snapshot over budget ends the capture's
                        // snapshots, so `seen` need not forget its chunks.
                        let bytes = snapshot.unique_bytes(&mut seen);
                        if store.stored_bytes + bytes <= config.max_bytes {
                            store.stored_bytes += bytes;
                            chunk_bytes.push(bytes);
                            hook.taken += 1;
                            checkpoints.push(Checkpoint {
                                dyn_index: snapshot.dyn_count(),
                                read_candidates: hook.read_candidates,
                                write_candidates: hook.write_candidates,
                                snapshot,
                                live: Vec::new(),
                            });
                        } else {
                            // Budget exhausted: keep the prefix already
                            // stored, never thin it out (prefix density is
                            // what bounds the replayed tail for early
                            // injections; late injections fall back to the
                            // deepest stored checkpoint).
                            store.truncated = true;
                        }
                    }
                    next_stop = if store.truncated {
                        // Nothing more to store — run the verification tail
                        // in one go instead of pausing every interval.
                        u64::MAX
                    } else {
                        next_stop + config.interval
                    };
                }
                Some(result) => break result,
            }
        };
        let completed = matches!(result.outcome, RunOutcome::Completed { .. });
        if !completed
            || result.dynamic_instrs != golden.dynamic_instrs
            || result.output != golden.output
        {
            return Err(ReplayCaptureError {
                expected_instrs: golden.dynamic_instrs,
                actual_instrs: result.dynamic_instrs,
                output_matches: result.output == golden.output,
                outcome: format!("{:?}", result.outcome),
            });
        }
        hook.distribute_live(&mut checkpoints);
        // Keep the longest prefix whose chunks and live ranges both fit.
        let mut kept = 0;
        store.stored_bytes = 0;
        for (cp, chunks) in checkpoints.iter().zip(chunk_bytes) {
            let bytes = chunks + std::mem::size_of_val(cp.live());
            if store.stored_bytes + bytes > config.max_bytes {
                store.truncated = true;
                break;
            }
            store.stored_bytes += bytes;
            kept += 1;
        }
        checkpoints.truncate(kept);
        store.keys = key_registers(code, &checkpoints);
        store.checkpoints = Arc::new(checkpoints);
        Ok(store)
    }

    /// The deepest checkpoint usable for an experiment whose first injection
    /// is the `first_target`-th candidate of `technique` — i.e. the last
    /// checkpoint that executed at most `first_target` such candidates, so
    /// the target candidate still lies in the replayed tail.
    pub fn nearest_for(&self, technique: Technique, first_target: u64) -> Option<&Checkpoint> {
        self.nearest_index_for(technique, first_target)
            .map(|i| &self.checkpoints[i])
    }

    /// [`CheckpointStore::nearest_for`] as an index into
    /// [`CheckpointStore::checkpoints`], so a replay can walk the later
    /// checkpoints without a second search.
    pub(crate) fn nearest_index_for(
        &self,
        technique: Technique,
        first_target: u64,
    ) -> Option<usize> {
        // Candidate counts grow monotonically with dyn_index, so binary
        // search for the partition point.
        self.checkpoints
            .partition_point(|c| c.candidates_for(technique) <= first_target)
            .checked_sub(1)
    }

    /// Whether a run under `limits` that rejoins the golden run `delta`
    /// instructions later than golden (earlier, for a negative `delta`)
    /// ends as golden did: the instruction limit admits its
    /// `golden.dynamic_instrs + delta` instructions, and the call-depth and
    /// output limits are no tighter than the capture's.
    pub(crate) fn golden_suffix_fits(
        &self,
        golden: &GoldenRun,
        limits: &Limits,
        delta: i64,
    ) -> bool {
        golden
            .dynamic_instrs
            .checked_add_signed(delta)
            .is_some_and(|end| end <= limits.max_dynamic_instrs)
            && limits.max_call_depth >= self.limits.max_call_depth
            && limits.max_output_bytes >= self.limits.max_output_bytes
    }

    /// Checkpoint interval this store was captured with.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the store holds no checkpoints at all (e.g. the workload is
    /// shorter than one interval, or the budget fit nothing).
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Approximate unique-chunk footprint of the stored snapshots (shared
    /// chunks counted once across the whole store).
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }

    /// Whether the memory budget cut capture short of the full run.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// All stored checkpoints, shallowest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Publish this store's footprint into the telemetry registry
    /// ([`crate::Metric::CheckpointStoreBytes`] / checkpoint count).  The sweep
    /// executor calls this once per registered unit at sweep start, so a
    /// snapshot relates replay savings to what the checkpoints cost to hold.
    pub fn publish_telemetry(&self, telemetry: &crate::telemetry::TelemetryHub) {
        use crate::telemetry::Metric;
        telemetry.add(Metric::CheckpointStoreBytes, self.stored_bytes() as u64);
        telemetry.add(Metric::CheckpointStoreCheckpoints, self.len() as u64);
    }
}

/// The capture run's hook: it counts injection candidates, the way the
/// golden run's [`mbfi_vm::CountingHook`] does without its per-opcode
/// profile, and collects the live spans of the memory bytes (see the module
/// docs).
struct CaptureHook {
    read_candidates: u64,
    write_candidates: u64,
    /// Checkpoints stored so far.
    taken: u32,
    layout: MemoryLayout,
    /// Per segment (globals, heap, stack) and byte offset: the checkpoints
    /// stored before the byte's last access.  A read finding fewer than
    /// `taken` makes the byte live at every checkpoint in between, since
    /// none of them saw another access before this read.
    seen: [Vec<u32>; 3],
    spans: Vec<LiveSpan>,
}

/// Bytes `[start, end)` are live at checkpoints `from..to`.
#[derive(Debug, Clone, Copy)]
struct LiveSpan {
    start: u64,
    end: u64,
    from: u32,
    to: u32,
}

impl CaptureHook {
    fn new() -> CaptureHook {
        CaptureHook {
            read_candidates: 0,
            write_candidates: 0,
            taken: 0,
            // The layout of `Vm::new`, which the capture runs on.
            layout: MemoryLayout::default(),
            seen: Default::default(),
            spans: Vec::new(),
        }
    }

    /// The access states of the `len` bytes at `addr`, grown to cover them.
    #[inline]
    fn seen<'s>(
        seen: &'s mut [Vec<u32>; 3],
        layout: &MemoryLayout,
        addr: u64,
        len: u64,
    ) -> &'s mut [u32] {
        let (segment, base) = if addr >= layout.stack_base {
            (2, layout.stack_base)
        } else if addr >= layout.heap_base {
            (1, layout.heap_base)
        } else {
            (0, layout.globals_base)
        };
        let off = (addr - base) as usize;
        let end = off + len as usize;
        let seen = &mut seen[segment];
        if seen.len() < end {
            Self::grow(seen, end);
        }
        &mut seen[off..end]
    }

    #[cold]
    #[inline(never)]
    fn grow(seen: &mut Vec<u32>, len: usize) {
        seen.resize(len, 0);
    }

    /// Mark the bytes at `addr` that were not accessed since the last
    /// checkpoint live back to their last access.
    #[inline(never)]
    fn mark_live(&mut self, addr: u64, len: u64) {
        let taken = self.taken;
        let seen = Self::seen(&mut self.seen, &self.layout, addr, len);
        for (at, last) in (addr..).zip(seen) {
            let from = std::mem::replace(last, taken);
            if from == taken {
                continue;
            }
            match self.spans.last_mut() {
                Some(span) if span.end == at && (span.from, span.to) == (from, taken) => {
                    span.end += 1;
                }
                _ => self.spans.push(LiveSpan {
                    start: at,
                    end: at + 1,
                    from,
                    to: taken,
                }),
            }
        }
    }

    /// Give each checkpoint its merged live ranges: in address order, each
    /// span either extends a checkpoint's last range or starts a new one.
    /// The lists grow side by side, away from the snapshots, then move in.
    fn distribute_live(self, checkpoints: &mut [Checkpoint]) {
        let spans = sorted_by_start(self.spans);
        let mut live: Vec<Vec<(u64, u64)>> = vec![Vec::new(); checkpoints.len()];
        for span in &spans {
            for ranges in &mut live[span.from as usize..span.to as usize] {
                match ranges.last_mut() {
                    Some(last) if span.start <= last.1 => last.1 = last.1.max(span.end),
                    _ => ranges.push((span.start, span.end)),
                }
            }
        }
        for (cp, ranges) in checkpoints.iter_mut().zip(live) {
            cp.live = ranges;
        }
    }
}

/// `spans` sorted by start address: a least-significant-digit radix sort,
/// one pass per byte of the address that varies among the spans (four in
/// the default layout).  A comparison sort of a capture's spans takes
/// several times as long.
fn sorted_by_start(mut spans: Vec<LiveSpan>) -> Vec<LiveSpan> {
    let Some(first) = spans.first().map(|span| span.start) else {
        return spans;
    };
    let varying = spans
        .iter()
        .fold(0, |bits, span| bits | (span.start ^ first));
    let mut other = spans.clone();
    for shift in (0..64)
        .step_by(8)
        .filter(|shift| (varying >> shift) & 0xFF != 0)
    {
        let digit = |span: &LiveSpan| (span.start >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        for span in &spans {
            next[digit(span)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            at += std::mem::replace(slot, at);
        }
        for span in &spans {
            let slot = &mut next[digit(span)];
            other[*slot] = *span;
            *slot += 1;
        }
        std::mem::swap(&mut spans, &mut other);
    }
    spans
}

impl ExecHook for CaptureHook {
    #[inline]
    fn on_instr(&mut self, ctx: &InstrContext) {
        self.read_candidates += u64::from(ctx.reg_reads > 0);
        self.write_candidates += u64::from(ctx.has_dest);
    }

    #[inline]
    fn on_mem_read(&mut self, addr: u64, len: u64) {
        let taken = self.taken;
        // Most reads find their bytes accessed since the last checkpoint.
        let seen = Self::seen(&mut self.seen, &self.layout, addr, len);
        let fresh = match <&[u32; 8]>::try_from(&*seen) {
            Ok(word) => *word != [taken; 8],
            Err(_) => seen.iter().any(|&last| last != taken),
        };
        if fresh {
            self.mark_live(addr, len);
        }
    }

    #[inline]
    fn on_mem_write(&mut self, addr: u64, len: u64) {
        let taken = self.taken;
        let seen = Self::seen(&mut self.seen, &self.layout, addr, len);
        match <&mut [u32; 8]>::try_from(&mut *seen) {
            Ok(word) => *word = [taken; 8],
            Err(_) => seen.fill(taken),
        }
    }
}

/// Per function, the *key registers* a watch compares first: the
/// registers of the innermost frame that change most often between the
/// function's checkpoints, the loop-carried values that tell one iteration
/// from the next.  `u32::MAX` pads unused slots.
fn key_registers(code: &CompiledModule, checkpoints: &[Checkpoint]) -> Vec<[u32; KEY_REGS]> {
    let mut keys = vec![[u32::MAX; KEY_REGS]; code.funcs.len()];
    for (func, key) in keys.iter_mut().enumerate() {
        let mut in_func = checkpoints
            .iter()
            .map(Checkpoint::snapshot)
            .filter(|snap| {
                snap.pc()
                    .is_some_and(|pc| code.meta[pc].func as usize == func)
            })
            .map(VmSnapshot::regs);
        let Some(first) = in_func.next() else {
            continue;
        };
        let mut changes = vec![0u32; first.len()];
        let mut prev = first;
        for regs in in_func {
            for (n, (a, b)) in changes.iter_mut().zip(prev.iter().zip(regs)) {
                *n += u32::from(a.bits != b.bits);
            }
            prev = regs;
        }
        let mut ranked: Vec<u32> = (0..first.len() as u32)
            .filter(|&r| changes[r as usize] > 0)
            .collect();
        ranked.sort_by_key(|&r| std::cmp::Reverse(changes[r as usize]));
        for (slot, reg) in key.iter_mut().zip(ranked) {
            *slot = reg;
        }
    }
    keys
}

/// Key registers per function.
const KEY_REGS: usize = 4;

/// A [`Watch`] on up to two checkpoints of a store: it fires before an
/// instruction where a run's program counter, call depth and key registers
/// equal one checkpoint's.
pub(crate) struct RejoinWatch<'s> {
    /// The targets' program counters (`usize::MAX` for none): the one
    /// compare most instructions make.
    pcs: [usize; 2],
    targets: [Option<Target<'s>>; 2],
    hit: usize,
}

/// One watched checkpoint.
struct Target<'s> {
    depth: usize,
    keys: &'s [u32; KEY_REGS],
    regs: &'s [Value],
    index: usize,
}

impl<'s> RejoinWatch<'s> {
    /// Watch checkpoints `indices` of `store` (an index past the end
    /// watches nothing).
    pub(crate) fn new(store: &'s CheckpointStore, indices: [usize; 2]) -> RejoinWatch<'s> {
        let snapshots = indices.map(|index| Some(store.checkpoints.get(index)?.snapshot()));
        RejoinWatch {
            pcs: snapshots.map(|snap| snap.and_then(VmSnapshot::pc).unwrap_or(usize::MAX)),
            targets: [0, 1].map(|i| {
                let snap = snapshots[i]?;
                Some(Target {
                    depth: snap.depth(),
                    keys: &store.keys[store.func_of[snap.pc()?] as usize],
                    regs: snap.regs(),
                    index: indices[i],
                })
            }),
            hit: 0,
        }
    }

    /// Index of the checkpoint the last hit matched.
    pub(crate) fn hit(&self) -> usize {
        self.hit
    }

    /// Whether the run at `pc` has target `i`'s depth and key registers.
    #[inline(never)]
    fn matches(&mut self, pc: usize, depth: usize, regs: &[Value]) -> bool {
        for (i, target) in self.targets.iter().enumerate() {
            let Some(target) = target.as_ref().filter(|_| self.pcs[i] == pc) else {
                continue;
            };
            if target.depth == depth
                && target
                    .keys
                    .iter()
                    .take_while(|&&r| r != u32::MAX)
                    .all(|&r| regs[r as usize].bits == target.regs[r as usize].bits)
            {
                self.hit = target.index;
                return true;
            }
        }
        false
    }
}

impl Watch for RejoinWatch<'_> {
    #[inline]
    fn hit(&mut self, pc: usize, depth: usize, regs: &[Value]) -> bool {
        (pc == self.pcs[0] || pc == self.pcs[1]) && self.matches(pc, depth, regs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentSpec};
    use crate::fault_model::{FaultModel, WinSize};
    use mbfi_ir::{ModuleBuilder, Type};

    fn workload(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let slot = f.urem(Type::I64, i, 16i64);
                let sq = f.mul(Type::I64, i, i);
                f.store_elem(Type::I64, data, slot, sq);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.load_elem(Type::I64, data, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
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
    fn capture_covers_the_run_and_counts_candidates_monotonically() {
        let m = workload(64);
        let golden = GoldenRun::capture(&m).unwrap();
        let store =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(50)).unwrap();
        assert!(!store.is_empty());
        assert!(!store.truncated());
        assert_eq!(store.len() as u64, (golden.dynamic_instrs - 1) / 50);
        let mut prev = None;
        for (i, cp) in store.checkpoints().iter().enumerate() {
            assert_eq!(cp.dyn_index, 50 * (i as u64 + 1));
            assert!(cp.read_candidates <= golden.candidates(Technique::InjectOnRead));
            assert!(cp.write_candidates <= golden.candidates(Technique::InjectOnWrite));
            if let Some((r, w)) = prev {
                assert!(cp.read_candidates >= r && cp.write_candidates >= w);
            }
            prev = Some((cp.read_candidates, cp.write_candidates));
        }
    }

    #[test]
    fn nearest_for_picks_the_deepest_usable_checkpoint() {
        let m = workload(64);
        let golden = GoldenRun::capture(&m).unwrap();
        let store =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(30)).unwrap();
        for technique in Technique::ALL {
            // Targets below the first checkpoint's candidate count have no
            // usable checkpoint... unless the first checkpoint saw 0.
            let first = store.checkpoints().first().unwrap();
            if first.candidates_for(technique) > 0 {
                assert!(store
                    .nearest_for(technique, first.candidates_for(technique) - 1)
                    .map(|c| c.dyn_index < first.dyn_index)
                    .unwrap_or(true));
            }
            // Any reachable target returns the deepest checkpoint whose count
            // does not exceed it.
            let candidates = golden.candidates(technique);
            for target in [0, candidates / 2, candidates.saturating_sub(1)] {
                if let Some(cp) = store.nearest_for(technique, target) {
                    assert!(cp.candidates_for(technique) <= target);
                    for other in store.checkpoints() {
                        if other.candidates_for(technique) <= target {
                            assert!(other.dyn_index <= cp.dyn_index);
                        }
                    }
                }
            }
            // A target past the end returns the deepest checkpoint.
            let deepest = store.nearest_for(technique, u64::MAX).unwrap();
            assert_eq!(
                deepest.dyn_index,
                store.checkpoints().last().unwrap().dyn_index
            );
        }
    }

    /// A workload with a large cold region: 32 KiB of heap data written once
    /// up front, then a read-only summing loop.  Checkpoints taken in the
    /// second phase share all the data chunks, which is what the unique-chunk
    /// budget accounting is supposed to exploit.
    fn cold_data_workload() -> Module {
        let mut mb = ModuleBuilder::new("cold");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 4096i64);
            f.counted_loop(Type::I64, 0i64, 4096i64, |f, i| {
                f.store_elem(Type::I64, data, i, i);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 512i64, |f, i| {
                let slot = f.urem(Type::I64, i, 4096i64);
                let v = f.load_elem(Type::I64, data, slot);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
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
    fn budget_truncates_capture_but_keeps_the_prefix() {
        let m = cold_data_workload();
        let golden = GoldenRun::capture(&m).unwrap();
        let full =
            CheckpointStore::capture(&m, &golden, CheckpointConfig::with_interval(100)).unwrap();
        assert!(full.len() > 4);

        // Unique-chunk accounting: the store's footprint is well below the
        // sum of standalone snapshot footprints, because consecutive
        // checkpoints share every chunk the run did not touch in between.
        let standalone: usize = full
            .checkpoints()
            .iter()
            .map(|c| c.snapshot().approx_bytes())
            .sum();
        assert!(full.stored_bytes() * 2 < standalone);

        // A budget of six standalone images holds more than six checkpoints
        // now that later ones are charged only marginal bytes.
        let one = full
            .checkpoints()
            .first()
            .unwrap()
            .snapshot()
            .approx_bytes();
        let sized = CheckpointStore::capture(
            &m,
            &golden,
            CheckpointConfig {
                interval: 100,
                max_bytes: one * 6,
            },
        )
        .unwrap();
        assert!(sized.len() > 6);
        assert!(sized.stored_bytes() <= one * 6);

        // A budget just below the full footprint truncates but keeps the
        // already-stored prefix, identical to the full capture's prefix.
        let tight = CheckpointStore::capture(
            &m,
            &golden,
            CheckpointConfig {
                interval: 100,
                max_bytes: full.stored_bytes() - 1,
            },
        )
        .unwrap();
        assert!(tight.truncated());
        assert!(tight.len() < full.len());
        assert!(!tight.is_empty());
        assert!(tight.stored_bytes() < full.stored_bytes());
        for (a, b) in tight.checkpoints().iter().zip(full.checkpoints()) {
            assert_eq!(a.dyn_index, b.dyn_index);
        }
    }

    #[test]
    fn capture_detects_module_golden_mismatch() {
        let m = workload(64);
        let other = workload(65);
        let golden_other = GoldenRun::capture(&other).unwrap();
        let err =
            CheckpointStore::capture(&m, &golden_other, CheckpointConfig::default()).unwrap_err();
        assert_eq!(err.expected_instrs, golden_other.dynamic_instrs);
        assert_ne!(err.actual_instrs, err.expected_instrs);
        assert!(err.to_string().contains("diverged"));
    }

    #[test]
    fn replayed_experiments_equal_full_experiments() {
        let m = CompiledModule::lower(&workload(128));
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let store =
            CheckpointStore::capture_compiled(&m, &golden, CheckpointConfig::with_interval(64))
                .unwrap();
        for technique in Technique::ALL {
            for i in 0..40 {
                let spec = ExperimentSpec::sample(
                    technique,
                    FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 20 }),
                    &golden,
                    0xC0FFEE,
                    i,
                    10,
                );
                let full = Experiment::run_compiled(&m, &golden, &spec, None);
                let replayed = Experiment::run_compiled(&m, &golden, &spec, Some(&store));
                assert_eq!(
                    full, replayed,
                    "{technique} experiment {i} diverged under replay"
                );
            }
        }
    }
}
