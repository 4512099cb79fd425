//! Segmented memory with trap semantics, backed by copy-on-write chunks.
//!
//! The address space is divided into three disjoint segments — globals, heap
//! and stack — separated by large unmapped gaps.  A corrupted pointer almost
//! always lands in a gap or in the null page and raises a [`Trap::Segfault`],
//! which is what makes address-carrying registers far more likely to end up
//! in the *Detection* outcome category than data-carrying registers (the
//! mechanism behind the inject-on-read vs. inject-on-write asymmetry the
//! paper reports in §IV-A).
//!
//! ## Copy-on-write chunk storage
//!
//! Each segment stores its bytes as fixed-size [`CHUNK_BYTES`] chunks behind
//! `Arc`.  Cloning a `Memory` (what a snapshot does) clones the chunk
//! *tables*, not the bytes, so a snapshot costs O(chunks) pointer bumps.  The
//! first write to a chunk whose `Arc` is shared clones that one chunk
//! (`Arc::make_mut` semantics), so restoring a snapshot is a fork
//! ([`Memory::fork_cow`]) that copies no bytes up front and pays only for
//! the chunks the run dirties.  Aligned scalar loads/stores (≤ 8 bytes, with
//! natural alignment) can never straddle a chunk boundary, so the hot
//! interpreter paths stay single-chunk; bulk operations walk chunks.
//!
//! All-zero growth (heap bumps, stack pushes) maps a single shared zero
//! chunk, so untouched arena pages are free and shared between every VM in
//! the process.  The deep-copy [`Memory::fork_full`] survives only as the
//! oracle the copy-on-write fork is tested against.

use crate::trap::Trap;
use mbfi_ir::{Module, Type};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Size of one memory chunk.  4 KiB mirrors a hardware page: small enough
/// that a typical experiment dirties only a handful, large enough that chunk
/// tables stay short (an 8 MiB heap is 2048 entries).
pub const CHUNK_BYTES: usize = 4096;
const CHUNK_SHIFT: u32 = CHUNK_BYTES.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_BYTES - 1;

type Chunk = [u8; CHUNK_BYTES];

/// The process-wide shared all-zero chunk used for fresh growth.
fn zero_chunk() -> Arc<Chunk> {
    static ZERO: OnceLock<Arc<Chunk>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0u8; CHUNK_BYTES])))
}

/// Copy-on-write cost counters, accumulated per [`Memory`].
///
/// `cow_chunks_copied` counts 4 KiB chunk clones triggered by writes to
/// shared chunks (the true dirty-page cost of an experiment).
/// `restore_bytes_saved` counts bytes a deep-copy fork would have copied
/// that the CoW fork did not; it stays zero on the deep-copy oracle path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Chunks cloned because a write hit a shared chunk.
    pub cow_chunks_copied: u64,
    /// Bytes a deep-copy fork would have copied that CoW forks skipped.
    pub restore_bytes_saved: u64,
}

impl CowStats {
    fn add(&mut self, other: &CowStats) {
        self.cow_chunks_copied += other.cow_chunks_copied;
        self.restore_bytes_saved += other.restore_bytes_saved;
    }
}

/// Set of chunk identities (by allocation address), used to account unique
/// snapshot footprint across a whole checkpoint store: a chunk shared by ten
/// snapshots is charged once.
#[derive(Debug, Default, Clone)]
pub struct ChunkSet(HashSet<usize>);

impl ChunkSet {
    fn insert(&mut self, chunk: &Arc<Chunk>) -> bool {
        self.0.insert(Arc::as_ptr(chunk) as usize)
    }
}

/// Layout constants for the virtual address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Base address of the globals segment.
    pub globals_base: u64,
    /// Base address of the heap segment.
    pub heap_base: u64,
    /// Maximum size of the heap arena in bytes.
    pub heap_size: u64,
    /// Base address of the stack segment.
    pub stack_base: u64,
    /// Maximum size of the stack in bytes.
    pub stack_size: u64,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout {
            globals_base: 0x0001_0000,
            heap_base: 0x0100_0000,
            heap_size: 8 << 20,
            stack_base: 0x7000_0000,
            stack_size: 4 << 20,
        }
    }
}

/// One contiguous mapped region, stored as CHUNK_BYTES chunks behind `Arc`.
///
/// Invariant: `chunks.len() * CHUNK_BYTES >= len`, and every byte in
/// `[len, chunks.len() * CHUNK_BYTES)` of the *heap* segment is zero (the
/// bump allocator never shrinks).  The stack segment may carry stale bytes
/// past `len` after a pop; regrowth re-zeroes them to preserve the
/// "fresh memory reads as zero" semantics of the old `Vec::resize` storage.
#[derive(Clone)]
struct Segment {
    base: u64,
    /// Logical length in bytes; addresses in `[base, base + len)` are mapped.
    len: usize,
    chunks: Vec<Arc<Chunk>>,
    stats: CowStats,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl Segment {
    fn empty(base: u64) -> Segment {
        Segment {
            base,
            len: 0,
            chunks: Vec::new(),
            stats: CowStats::default(),
        }
    }

    fn from_bytes(base: u64, data: &[u8]) -> Segment {
        let mut chunks = Vec::with_capacity(data.len().div_ceil(CHUNK_BYTES));
        for piece in data.chunks(CHUNK_BYTES) {
            if piece.iter().all(|&b| b == 0) {
                chunks.push(zero_chunk());
            } else {
                let mut chunk = [0u8; CHUNK_BYTES];
                chunk[..piece.len()].copy_from_slice(piece);
                chunks.push(Arc::new(chunk));
            }
        }
        Segment {
            base,
            len: data.len(),
            chunks,
            stats: CowStats::default(),
        }
    }

    fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base + self.len as u64
    }

    /// Shared view of an aligned scalar: naturally-aligned ≤ 8-byte accesses
    /// can never straddle a chunk boundary, so this is one index + one slice.
    #[inline]
    fn scalar(&self, off: usize, len: usize) -> &[u8] {
        let co = off & CHUNK_MASK;
        debug_assert!(co + len <= CHUNK_BYTES, "aligned scalar straddles chunk");
        &self.chunks[off >> CHUNK_SHIFT][co..co + len]
    }

    /// Exclusive access to chunk `ci`, cloning it first if it is shared.
    #[inline]
    fn chunk_mut(&mut self, ci: usize) -> &mut Chunk {
        let slot = &mut self.chunks[ci];
        if Arc::strong_count(slot) != 1 {
            *slot = Arc::new(**slot);
            self.stats.cow_chunks_copied += 1;
        }
        Arc::get_mut(&mut self.chunks[ci]).expect("chunk is uniquely owned after CoW clone")
    }

    #[inline]
    fn scalar_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        let co = off & CHUNK_MASK;
        debug_assert!(co + len <= CHUNK_BYTES, "aligned scalar straddles chunk");
        let chunk = self.chunk_mut(off >> CHUNK_SHIFT);
        &mut chunk[co..co + len]
    }

    fn read_into(&self, off: usize, out: &mut [u8]) {
        let mut pos = 0;
        while pos < out.len() {
            let at = off + pos;
            let co = at & CHUNK_MASK;
            let n = (CHUNK_BYTES - co).min(out.len() - pos);
            out[pos..pos + n].copy_from_slice(&self.chunks[at >> CHUNK_SHIFT][co..co + n]);
            pos += n;
        }
    }

    fn write_from(&mut self, off: usize, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let at = off + pos;
            let co = at & CHUNK_MASK;
            let n = (CHUNK_BYTES - co).min(data.len() - pos);
            self.chunk_mut(at >> CHUNK_SHIFT)[co..co + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    fn fill_range(&mut self, off: usize, len: usize, value: u8) {
        let mut pos = 0;
        while pos < len {
            let at = off + pos;
            let co = at & CHUNK_MASK;
            let n = (CHUNK_BYTES - co).min(len - pos);
            // Writing a value the range already holds everywhere would CoW a
            // shared chunk for nothing; the common case is zero-fill over
            // still-zero arena pages.
            if self.chunks[at >> CHUNK_SHIFT][co..co + n]
                .iter()
                .any(|&b| b != value)
            {
                self.chunk_mut(at >> CHUNK_SHIFT)[co..co + n].fill(value);
            }
            pos += n;
        }
    }

    /// Grow the mapped region to `new_len` bytes, reading as zero.  Bytes in
    /// already-allocated chunks are re-zeroed only if stale (stack regrowth
    /// after a pop); fresh coverage maps the shared zero chunk.
    fn grow_zeroed(&mut self, new_len: usize) {
        debug_assert!(new_len >= self.len);
        let covered = self.chunks.len() * CHUNK_BYTES;
        let reused_end = new_len.min(covered);
        if self.len < reused_end {
            let (start, len) = (self.len, reused_end - self.len);
            self.fill_range(start, len, 0);
        }
        while self.chunks.len() * CHUNK_BYTES < new_len {
            self.chunks.push(zero_chunk());
        }
        self.len = new_len;
    }

    /// Shrink the mapped region; chunks are retained for cheap regrowth
    /// (mirroring `Vec::truncate` keeping its capacity).
    fn shrink(&mut self, new_len: usize) {
        debug_assert!(new_len <= self.len);
        self.len = new_len;
    }

    /// Drop chunks past the logical length (high-water reset).  Used when
    /// building snapshot images so a deep-stack excursion during capture does
    /// not permanently inflate every fork of the snapshot.
    fn trim(&mut self) {
        self.chunks.truncate(self.len.div_ceil(CHUNK_BYTES));
    }

    /// Whether the mapped bytes `[0, len)` equal `other`'s.  Chunks the two
    /// tables share (`Arc::ptr_eq`) are equal without a byte compare; bytes
    /// past `len` (stale stack above the top, a trimmed table's missing
    /// tail) are not part of the state and are ignored.
    fn same_bytes(&self, other: &Segment) -> bool {
        if self.base != other.base || self.len != other.len {
            return false;
        }
        let mut off = 0;
        for (mine, theirs) in self.chunks.iter().zip(&other.chunks) {
            if off >= self.len {
                break;
            }
            let n = CHUNK_BYTES.min(self.len - off);
            if !Arc::ptr_eq(mine, theirs) && mine[..n] != theirs[..n] {
                return false;
            }
            off += CHUNK_BYTES;
        }
        true
    }

    /// Bytes of chunk storage not yet seen in `seen` (unique footprint).
    fn unique_bytes(&self, seen: &mut ChunkSet) -> usize {
        let mut bytes = self.chunks.len() * std::mem::size_of::<Arc<Chunk>>();
        for chunk in &self.chunks {
            if seen.insert(chunk) {
                bytes += CHUNK_BYTES;
            }
        }
        bytes
    }
}

/// The VM's memory: globals, a bump-allocated heap, and a stack.
#[derive(Debug, Clone)]
pub struct Memory {
    layout: MemoryLayout,
    globals: Segment,
    heap: Segment,
    /// High-water mark of the heap bump allocator (offset from heap base).
    heap_top: u64,
    stack: Segment,
    /// Current top of stack (offset from stack base); grows upward.
    stack_top: u64,
    /// Resolved address of each module global, by global index.
    global_addrs: Vec<u64>,
}

impl Memory {
    /// Create the memory image for a module: lay out and initialise globals,
    /// map the (empty) heap and stack.
    pub fn for_module(module: &Module, layout: MemoryLayout) -> Memory {
        Memory::for_globals(&module.globals, layout)
    }

    /// Create the memory image from a bare global table (the form carried by
    /// a compiled module, which does not retain the source [`Module`]).
    pub fn for_globals(globals: &[mbfi_ir::Global], layout: MemoryLayout) -> Memory {
        let mut global_addrs = Vec::with_capacity(globals.len());
        let mut globals_data = Vec::new();
        for g in globals {
            // Align the next global.
            let align = g.align.max(1);
            while (layout.globals_base + globals_data.len() as u64) % align != 0 {
                globals_data.push(0);
            }
            global_addrs.push(layout.globals_base + globals_data.len() as u64);
            globals_data.extend_from_slice(&g.init);
            globals_data
                .extend(std::iter::repeat(0).take((g.size as usize).saturating_sub(g.init.len())));
        }

        Memory {
            layout,
            globals: Segment::from_bytes(layout.globals_base, &globals_data),
            heap: Segment::empty(layout.heap_base),
            heap_top: 0,
            stack: Segment::empty(layout.stack_base),
            stack_top: 0,
            global_addrs,
        }
    }

    /// The layout this memory was created with.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Logical bytes mapped by the three segments (globals + heap + stack) —
    /// the size of the address space a program can touch, independent of how
    /// much of it is backed by shared chunks.
    pub fn data_bytes(&self) -> usize {
        self.globals.len + self.heap.len + self.stack.len
    }

    /// Bytes of chunk storage referenced by this memory, counting each chunk
    /// once even if several table slots share it within the image.  Shared
    /// chunks referenced by *other* images are still charged here; see
    /// [`Memory::unique_bytes`] for cross-image dedup.
    pub fn resident_bytes(&self) -> usize {
        let mut seen = ChunkSet::default();
        self.unique_bytes(&mut seen)
    }

    /// Bytes of chunk storage not yet accounted in `seen`.  Feeding every
    /// snapshot of a checkpoint store through one `ChunkSet` yields the
    /// store's true unique footprint.
    pub fn unique_bytes(&self, seen: &mut ChunkSet) -> usize {
        self.globals.unique_bytes(seen)
            + self.heap.unique_bytes(seen)
            + self.stack.unique_bytes(seen)
    }

    /// Copy-on-write cost counters accumulated by this memory (summed over
    /// the three segments) since it was created or forked.
    pub fn cow_stats(&self) -> CowStats {
        let mut s = self.globals.stats;
        s.add(&self.heap.stats);
        s.add(&self.stack.stats);
        s
    }

    /// Zero the copy-on-write cost counters.
    fn reset_cow_stats(&mut self) {
        self.globals.stats = CowStats::default();
        self.heap.stats = CowStats::default();
        self.stack.stats = CowStats::default();
    }

    /// Heap bump-allocator high-water mark (bytes from heap base).
    pub fn heap_top(&self) -> u64 {
        self.heap_top
    }

    /// Current stack top (bytes from stack base).
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// A trimmed, stats-free clone for freezing into a snapshot: chunk tables
    /// are truncated at the logical tops, so chunks above the snapshot's
    /// heap/stack high-water marks are dropped rather than carried forever.
    pub fn snapshot_image(&self) -> Memory {
        let mut image = self.clone();
        image.globals.trim();
        image.heap.trim();
        image.stack.trim();
        image.reset_cow_stats();
        image
    }

    /// A zero-copy fork of `self` sharing every chunk (used to seed a fresh
    /// VM from a snapshot image).  Counts the full image as restore bytes
    /// saved, since a deep clone would have copied all of it.
    pub fn fork_cow(&self) -> Memory {
        let mut fork = self.clone();
        fork.reset_cow_stats();
        let chunks = fork.globals.chunks.len() + fork.heap.chunks.len() + fork.stack.chunks.len();
        fork.globals.stats.restore_bytes_saved = (chunks * CHUNK_BYTES) as u64;
        fork
    }

    /// A deep fork of `self`: every chunk is copied, no sharing.  The
    /// clone-everything oracle the copy-on-write fork is tested against.
    pub fn fork_full(&self) -> Memory {
        let mut fork = self.clone();
        fork.reset_cow_stats();
        for seg in [&mut fork.globals, &mut fork.heap, &mut fork.stack] {
            for slot in &mut seg.chunks {
                *slot = Arc::new(**slot);
            }
        }
        fork
    }

    /// Whether `self` and `other` hold the same program-visible state: the
    /// same heap and stack tops, global addresses and logical segment bytes.
    /// Cost is one pointer compare per shared chunk plus a byte compare of
    /// each chunk the two images do not share.
    pub fn same_contents(&self, other: &Memory) -> bool {
        self.heap_top == other.heap_top
            && self.stack_top == other.stack_top
            && self.global_addrs == other.global_addrs
            && self.globals.same_bytes(&other.globals)
            && self.heap.same_bytes(&other.heap)
            && self.stack.same_bytes(&other.stack)
    }

    /// Resolved address of global `index`.
    pub fn global_addr(&self, index: usize) -> Option<u64> {
        self.global_addrs.get(index).copied()
    }

    /// Allocate `size` bytes on the heap (8-byte aligned), returning the
    /// address, or [`Trap::OutOfMemory`] if the arena is exhausted.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, Trap> {
        let aligned = size.div_ceil(8) * 8;
        if self.heap_top + aligned > self.layout.heap_size {
            return Err(Trap::OutOfMemory);
        }
        let addr = self.layout.heap_base + self.heap_top;
        self.heap_top += aligned;
        self.heap.grow_zeroed(self.heap_top as usize);
        Ok(addr)
    }

    /// Free a heap allocation.  The bump allocator does not reclaim space;
    /// the call only validates that the pointer points into the heap.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), Trap> {
        if addr == 0 {
            return Ok(());
        }
        if addr < self.layout.heap_base || addr >= self.layout.heap_base + self.heap_top {
            return Err(Trap::Segfault { addr });
        }
        Ok(())
    }

    /// Push a stack frame of `size` bytes, returning its base address.
    pub fn stack_push(&mut self, size: u64) -> Result<u64, Trap> {
        let aligned = size.div_ceil(16) * 16;
        if self.stack_top + aligned > self.layout.stack_size {
            return Err(Trap::StackOverflow);
        }
        let addr = self.layout.stack_base + self.stack_top;
        self.stack_top += aligned;
        self.stack.grow_zeroed(self.stack_top as usize);
        Ok(addr)
    }

    /// Pop the stack back to a previously saved mark (from [`Memory::stack_mark`]).
    pub fn stack_pop_to(&mut self, mark: u64) {
        self.stack_top = mark;
        self.stack.shrink(mark as usize);
    }

    /// Current stack mark, to be restored when the active frame returns.
    pub fn stack_mark(&self) -> u64 {
        self.stack_top
    }

    fn segment_for(&self, addr: u64, len: u64) -> Result<&Segment, Trap> {
        if self.globals.contains(addr, len) {
            Ok(&self.globals)
        } else if self.heap.contains(addr, len) {
            Ok(&self.heap)
        } else if self.stack.contains(addr, len) {
            Ok(&self.stack)
        } else {
            Err(Trap::Segfault { addr })
        }
    }

    fn segment_for_mut(&mut self, addr: u64, len: u64) -> Result<&mut Segment, Trap> {
        if self.globals.contains(addr, len) {
            Ok(&mut self.globals)
        } else if self.heap.contains(addr, len) {
            Ok(&mut self.heap)
        } else if self.stack.contains(addr, len) {
            Ok(&mut self.stack)
        } else {
            Err(Trap::Segfault { addr })
        }
    }

    fn check_aligned(addr: u64, ty: Type) -> Result<(), Trap> {
        let required = ty.alignment();
        if addr % required != 0 {
            Err(Trap::Misaligned { addr, required })
        } else {
            Ok(())
        }
    }

    /// Load a typed scalar from `addr`.
    pub fn load(&self, ty: Type, addr: u64) -> Result<u64, Trap> {
        Self::check_aligned(addr, ty)?;
        let len = ty.byte_size();
        let seg = self.segment_for(addr, len)?;
        let bytes = seg.scalar((addr - seg.base) as usize, len as usize);
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf) & ty.bit_mask())
    }

    /// Store a typed scalar to `addr`.
    pub fn store(&mut self, ty: Type, addr: u64, bits: u64) -> Result<(), Trap> {
        Self::check_aligned(addr, ty)?;
        let len = ty.byte_size();
        let seg = self.segment_for_mut(addr, len)?;
        let bytes = (bits & ty.bit_mask()).to_le_bytes();
        let off = (addr - seg.base) as usize;
        seg.scalar_mut(off, len as usize)
            .copy_from_slice(&bytes[..len as usize]);
        Ok(())
    }

    /// Read `len` raw bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<Vec<u8>, Trap> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let seg = self.segment_for(addr, len)?;
        let mut out = vec![0u8; len as usize];
        seg.read_into((addr - seg.base) as usize, &mut out);
        Ok(out)
    }

    /// Write raw bytes starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        if bytes.is_empty() {
            return Ok(());
        }
        let seg = self.segment_for_mut(addr, bytes.len() as u64)?;
        let off = (addr - seg.base) as usize;
        seg.write_from(off, bytes);
        Ok(())
    }

    /// `memcpy(dst, src, len)`.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        let data = self.read_bytes(src, len)?;
        self.write_bytes(dst, &data)
    }

    /// `memset(dst, value, len)`.
    pub fn fill(&mut self, dst: u64, value: u8, len: u64) -> Result<(), Trap> {
        if len == 0 {
            return Ok(());
        }
        let seg = self.segment_for_mut(dst, len)?;
        let off = (dst - seg.base) as usize;
        seg.fill_range(off, len as usize, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_ir::{Global, Module};

    fn empty_memory() -> Memory {
        Memory::for_module(&Module::new("t"), MemoryLayout::default())
    }

    fn memory_with_global(bytes: Vec<u8>) -> Memory {
        let mut m = Module::new("t");
        m.globals.push(Global::with_bytes("g", bytes));
        Memory::for_module(&m, MemoryLayout::default())
    }

    #[test]
    fn globals_are_initialised_and_addressable() {
        let mem = memory_with_global(vec![1, 2, 3, 4]);
        let addr = mem.global_addr(0).unwrap();
        assert_eq!(mem.load(Type::I32, addr).unwrap(), 0x0403_0201);
        assert!(mem.global_addr(1).is_none());
    }

    #[test]
    fn null_and_unmapped_accesses_segfault() {
        let mem = empty_memory();
        assert_eq!(mem.load(Type::I64, 0), Err(Trap::Segfault { addr: 0 }));
        assert_eq!(
            mem.load(Type::I8, 0xdead_beef_0000),
            Err(Trap::Segfault {
                addr: 0xdead_beef_0000
            })
        );
    }

    #[test]
    fn misaligned_access_traps() {
        let mut mem = empty_memory();
        let addr = mem.heap_alloc(16).unwrap();
        assert!(matches!(
            mem.load(Type::I32, addr + 1),
            Err(Trap::Misaligned { required: 4, .. })
        ));
        assert!(matches!(
            mem.store(Type::I64, addr + 4, 1),
            Err(Trap::Misaligned { required: 8, .. })
        ));
    }

    #[test]
    fn heap_alloc_and_rw_round_trip() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(32).unwrap();
        mem.store(Type::I64, a, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.load(Type::I64, a).unwrap(), 0x1122_3344_5566_7788);
        mem.store(Type::I8, a + 8, 0xab).unwrap();
        assert_eq!(mem.load(Type::I8, a + 8).unwrap(), 0xab);
    }

    #[test]
    fn heap_exhaustion_reports_oom() {
        let mut mem = Memory::for_module(
            &Module::new("t"),
            MemoryLayout {
                heap_size: 64,
                ..MemoryLayout::default()
            },
        );
        assert!(mem.heap_alloc(48).is_ok());
        assert_eq!(mem.heap_alloc(48), Err(Trap::OutOfMemory));
    }

    #[test]
    fn heap_free_validates_pointer() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(8).unwrap();
        assert!(mem.heap_free(a).is_ok());
        assert!(mem.heap_free(0).is_ok());
        assert!(matches!(mem.heap_free(0x42), Err(Trap::Segfault { .. })));
    }

    #[test]
    fn stack_push_pop_restores_mark() {
        let mut mem = empty_memory();
        let mark = mem.stack_mark();
        let a = mem.stack_push(100).unwrap();
        mem.store(Type::I32, a, 7).unwrap();
        assert_eq!(mem.load(Type::I32, a).unwrap(), 7);
        mem.stack_pop_to(mark);
        assert!(mem.load(Type::I32, a).is_err());
    }

    #[test]
    fn stack_regrowth_after_pop_reads_as_zero() {
        // The chunk table retains popped chunks for cheap regrowth; the
        // stale bytes in them must not leak into the re-pushed frame.
        let mut mem = empty_memory();
        let mark = mem.stack_mark();
        let a = mem.stack_push(64).unwrap();
        mem.store(Type::I64, a, u64::MAX).unwrap();
        mem.stack_pop_to(mark);
        let b = mem.stack_push(64).unwrap();
        assert_eq!(b, a);
        assert_eq!(mem.load(Type::I64, b).unwrap(), 0);
    }

    #[test]
    fn stack_overflow_traps() {
        let mut mem = Memory::for_module(
            &Module::new("t"),
            MemoryLayout {
                stack_size: 128,
                ..MemoryLayout::default()
            },
        );
        assert!(mem.stack_push(64).is_ok());
        assert_eq!(mem.stack_push(128), Err(Trap::StackOverflow));
    }

    #[test]
    fn copy_and_fill() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(16).unwrap();
        let b = mem.heap_alloc(16).unwrap();
        mem.fill(a, 0x5a, 16).unwrap();
        mem.copy(b, a, 16).unwrap();
        assert_eq!(mem.read_bytes(b, 16).unwrap(), vec![0x5a; 16]);
        assert!(mem.copy(b, 0x3, 4).is_err());
    }

    #[test]
    fn cross_segment_access_is_rejected() {
        let mem = memory_with_global(vec![0; 8]);
        let addr = mem.global_addr(0).unwrap();
        // Reading past the end of the globals segment must not silently
        // succeed even though the next segment exists elsewhere.
        assert!(mem.read_bytes(addr, 4096).is_err());
    }

    #[test]
    fn bulk_ops_straddle_chunk_boundaries() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(3 * CHUNK_BYTES as u64).unwrap();
        let pattern: Vec<u8> = (0..2 * CHUNK_BYTES).map(|i| (i % 251) as u8).collect();
        // Write starting mid-chunk so the slice spans three chunks.
        let start = a + (CHUNK_BYTES / 2) as u64;
        mem.write_bytes(start, &pattern).unwrap();
        assert_eq!(
            mem.read_bytes(start, pattern.len() as u64).unwrap(),
            pattern
        );
        mem.fill(start + 10, 0xee, (CHUNK_BYTES + 20) as u64)
            .unwrap();
        let mut expect = pattern.clone();
        expect[10..10 + CHUNK_BYTES + 20].fill(0xee);
        assert_eq!(mem.read_bytes(start, pattern.len() as u64).unwrap(), expect);
    }

    #[test]
    fn clones_share_chunks_until_first_write() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(4 * CHUNK_BYTES as u64).unwrap();
        mem.fill(a, 0x11, 4 * CHUNK_BYTES as u64).unwrap();
        let mut fork = mem.fork_cow();
        assert_eq!(fork.cow_stats().cow_chunks_copied, 0);

        // One store dirties exactly one chunk; the other three stay shared.
        fork.store(Type::I8, a + CHUNK_BYTES as u64, 0x77).unwrap();
        assert_eq!(fork.cow_stats().cow_chunks_copied, 1);
        // The original is unaffected.
        assert_eq!(mem.load(Type::I8, a + CHUNK_BYTES as u64).unwrap(), 0x11);
        assert_eq!(fork.load(Type::I8, a + CHUNK_BYTES as u64).unwrap(), 0x77);

        // A second store into the same (now unique) chunk copies nothing.
        fork.store(Type::I8, a + CHUNK_BYTES as u64 + 8, 0x78)
            .unwrap();
        assert_eq!(fork.cow_stats().cow_chunks_copied, 1);
    }

    #[test]
    fn full_clone_restore_matches_cow_restore_and_saves_nothing() {
        let mut mem = memory_with_global(vec![9; 100]);
        let a = mem.heap_alloc(2 * CHUNK_BYTES as u64).unwrap();
        mem.write_bytes(a, &[5; 64]).unwrap();
        let image = mem.snapshot_image();
        // Writes to the source after the snapshot reach neither fork.
        mem.store(Type::I64, a, 0xdead).unwrap();
        mem.stack_push(32).unwrap();

        let cow = image.fork_cow();
        let full = image.fork_full();
        assert_eq!(
            cow.read_bytes(a, 2 * CHUNK_BYTES as u64).unwrap(),
            full.read_bytes(a, 2 * CHUNK_BYTES as u64).unwrap()
        );
        assert_eq!(cow.read_bytes(a, 64).unwrap(), vec![5; 64]);
        assert_eq!(cow.stack_top(), 0);
        assert_eq!(full.stack_top(), 0);
        assert_eq!(full.cow_stats().restore_bytes_saved, 0);
        assert!(cow.cow_stats().restore_bytes_saved > 0);
    }

    #[test]
    fn restore_truncates_high_water_chunks() {
        let mut mem = empty_memory();
        // Deep excursion: push 1 MiB of stack, dirty it and pop it again.
        // The chunk table keeps the popped chunks; a snapshot drops them.
        let deep = mem.stack_push(1 << 20).unwrap();
        mem.store(Type::I64, deep, u64::MAX).unwrap();
        mem.stack_pop_to(0);
        let inflated = mem.resident_bytes();
        let mut fork = mem.snapshot_image().fork_cow();
        assert_eq!(fork.stack_top(), 0);
        assert!(fork.resident_bytes() < inflated);
        // Regrowth after the reset still reads as zero.
        let a = fork.stack_push(64).unwrap();
        assert_eq!(fork.load(Type::I64, a).unwrap(), 0);
    }

    #[test]
    fn unique_bytes_dedups_shared_chunks() {
        let mut mem = empty_memory();
        let a = mem.heap_alloc(4 * CHUNK_BYTES as u64).unwrap();
        mem.fill(a, 1, 4 * CHUNK_BYTES as u64).unwrap();
        let image = mem.snapshot_image();
        let fork = image.fork_cow();

        let mut seen = ChunkSet::default();
        let first = image.unique_bytes(&mut seen);
        assert!(first >= 4 * CHUNK_BYTES);
        // The fork shares every chunk: only its table overhead is new.
        let second = fork.unique_bytes(&mut seen);
        assert!(second < CHUNK_BYTES);
    }

    #[test]
    fn zero_growth_is_shared_not_copied() {
        let mut a = empty_memory();
        let mut b = empty_memory();
        a.heap_alloc(1 << 20).unwrap();
        b.heap_alloc(1 << 20).unwrap();
        // Untouched arena pages all map the one process-wide zero chunk.
        let mut seen = ChunkSet::default();
        a.unique_bytes(&mut seen);
        let extra = b.unique_bytes(&mut seen);
        assert!(extra < CHUNK_BYTES);
        // Zero-fill over zero pages must not materialise private chunks.
        a.fill(a.layout().heap_base, 0, 1 << 20).unwrap();
        assert_eq!(a.cow_stats().cow_chunks_copied, 0);
    }
}
