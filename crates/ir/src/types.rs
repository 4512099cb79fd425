//! The IR type system.
//!
//! The type system mirrors the scalar subset of LLVM IR that the fault model
//! of the paper cares about: fixed-width integers (`i1`..`i64`), IEEE-754
//! binary32/binary64 floats, and an opaque pointer type.  Registers carry
//! exactly one scalar value; aggregates live in memory and are accessed via
//! loads, stores and `gep`.

use std::fmt;

/// A scalar IR type.
///
/// Every virtual register and every constant has exactly one `Type`.  The
/// number of bits reported by [`Type::bit_width`] is the number of bit
/// positions the fault injector may flip in a value of that type, mirroring
/// how LLFI derives the flip range from the LLVM value width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// A 1-bit boolean (`i1`), produced by comparisons.
    I1,
    /// An 8-bit integer (`i8`).
    I8,
    /// A 16-bit integer (`i16`).
    I16,
    /// A 32-bit integer (`i32`).
    I32,
    /// A 64-bit integer (`i64`).
    I64,
    /// An IEEE-754 binary32 float (`float`).
    F32,
    /// An IEEE-754 binary64 float (`double`).
    F64,
    /// An opaque pointer (`ptr`); 64 bits wide in the mbfi virtual machine.
    Ptr,
}

impl Type {
    /// All scalar types, in increasing width order for integers.
    pub const ALL: [Type; 8] = [
        Type::I1,
        Type::I8,
        Type::I16,
        Type::I32,
        Type::I64,
        Type::F32,
        Type::F64,
        Type::Ptr,
    ];

    /// Number of value-carrying bits in this type.
    ///
    /// This is the range of bit positions eligible for a bit-flip.
    pub fn bit_width(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::F32 => 32,
            Type::I64 | Type::F64 | Type::Ptr => 64,
        }
    }

    /// Size of the type in bytes when stored to memory.
    ///
    /// `i1` occupies a full byte in memory, like LLVM's `i1` in a `load`/`store`.
    pub fn byte_size(self) -> u64 {
        match self {
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Natural alignment of the type in bytes; loads/stores that violate it
    /// raise a misaligned-access hardware exception in the VM.
    pub fn alignment(self) -> u64 {
        self.byte_size()
    }

    /// Mask covering the value-carrying bits of the type (within a `u64`).
    pub fn bit_mask(self) -> u64 {
        match self.bit_width() {
            64 => u64::MAX,
            w => (1u64 << w) - 1,
        }
    }

    /// Whether this is one of the integer types (including `i1`).
    pub fn is_int(self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64
        )
    }

    /// Whether this is one of the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Whether this is the pointer type.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths_match_llvm_widths() {
        assert_eq!(Type::I1.bit_width(), 1);
        assert_eq!(Type::I8.bit_width(), 8);
        assert_eq!(Type::I16.bit_width(), 16);
        assert_eq!(Type::I32.bit_width(), 32);
        assert_eq!(Type::I64.bit_width(), 64);
        assert_eq!(Type::F32.bit_width(), 32);
        assert_eq!(Type::F64.bit_width(), 64);
        assert_eq!(Type::Ptr.bit_width(), 64);
    }

    #[test]
    fn byte_sizes_and_alignment_are_consistent() {
        for ty in Type::ALL {
            assert_eq!(ty.byte_size(), ty.alignment());
            assert!(ty.byte_size() * 8 >= ty.bit_width() as u64);
        }
    }

    #[test]
    fn masks_cover_exactly_the_width() {
        assert_eq!(Type::I1.bit_mask(), 0x1);
        assert_eq!(Type::I8.bit_mask(), 0xff);
        assert_eq!(Type::I16.bit_mask(), 0xffff);
        assert_eq!(Type::I32.bit_mask(), 0xffff_ffff);
        assert_eq!(Type::I64.bit_mask(), u64::MAX);
        assert_eq!(Type::Ptr.bit_mask(), u64::MAX);
    }

    #[test]
    fn class_predicates_partition_the_types() {
        for ty in Type::ALL {
            let classes = [ty.is_int(), ty.is_float(), ty.is_ptr()];
            assert_eq!(classes.iter().filter(|c| **c).count(), 1, "{ty}");
        }
    }
}
