//! Shared instruction semantics: arithmetic, comparisons, casts and
//! intrinsics.
//!
//! Both interpreters — the compiled-bytecode [`crate::Vm`] and the legacy
//! tree walker [`crate::WalkerVm`] — evaluate instructions through these
//! helpers, so the two execution paths cannot drift semantically.

use crate::hooks::ExecHook;
use crate::limits::Limits;
use crate::memory::Memory;
use crate::trap::Trap;
use crate::value::Value;
use mbfi_ir::{BinOp, CastOp, FcmpPred, IcmpPred, Intrinsic, Type};

/// Evaluate an integer or floating binary operation.
pub fn eval_binary(op: BinOp, ty: Type, a: Value, b: Value) -> Result<Value, Trap> {
    if op.is_float() {
        let (x, y) = (a.as_f64(), b.as_f64());
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            BinOp::FRem => x % y,
            _ => unreachable!(),
        };
        return Ok(Value::from_f64(ty, r));
    }

    let width = ty.bit_width();
    let ua = a.bits & ty.bit_mask();
    let ub = b.bits & ty.bit_mask();
    let sa = a.as_i64();
    let sb = b.as_i64();
    let bits = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::UDiv => {
            if ub == 0 {
                return Err(Trap::DivideByZero);
            }
            ua / ub
        }
        BinOp::SDiv => {
            if sb == 0 {
                return Err(Trap::DivideByZero);
            }
            if sa == i64::MIN && sb == -1 {
                return Err(Trap::DivideByZero);
            }
            (sa / sb) as u64
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(Trap::DivideByZero);
            }
            ua % ub
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(Trap::DivideByZero);
            }
            if sa == i64::MIN && sb == -1 {
                return Err(Trap::DivideByZero);
            }
            (sa % sb) as u64
        }
        BinOp::Shl => ua.wrapping_shl(ub as u32 % width),
        BinOp::LShr => ua.wrapping_shr(ub as u32 % width),
        BinOp::AShr => {
            let shift = ub as u32 % width;
            (sign_extend_to_i64(ua, width) >> shift) as u64
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        _ => unreachable!("float ops handled above"),
    };
    Ok(Value::new(ty, bits))
}

fn sign_extend_to_i64(bits: u64, width: u32) -> i64 {
    mbfi_ir::value::sign_extend(bits, width)
}

/// Evaluate an integer comparison.
pub fn eval_icmp(pred: IcmpPred, ty: Type, a: Value, b: Value) -> bool {
    let ua = a.bits & ty.bit_mask();
    let ub = b.bits & ty.bit_mask();
    let sa = sign_extend_to_i64(ua, ty.bit_width());
    let sb = sign_extend_to_i64(ub, ty.bit_width());
    match pred {
        IcmpPred::Eq => ua == ub,
        IcmpPred::Ne => ua != ub,
        IcmpPred::Ugt => ua > ub,
        IcmpPred::Uge => ua >= ub,
        IcmpPred::Ult => ua < ub,
        IcmpPred::Ule => ua <= ub,
        IcmpPred::Sgt => sa > sb,
        IcmpPred::Sge => sa >= sb,
        IcmpPred::Slt => sa < sb,
        IcmpPred::Sle => sa <= sb,
    }
}

/// Evaluate a floating-point comparison.
pub fn eval_fcmp(pred: FcmpPred, x: f64, y: f64) -> bool {
    let unordered = x.is_nan() || y.is_nan();
    match pred {
        FcmpPred::Oeq => !unordered && x == y,
        FcmpPred::One => !unordered && x != y,
        FcmpPred::Ogt => !unordered && x > y,
        FcmpPred::Oge => !unordered && x >= y,
        FcmpPred::Olt => !unordered && x < y,
        FcmpPred::Ole => !unordered && x <= y,
        FcmpPred::Ord => !unordered,
        FcmpPred::Uno => unordered,
        FcmpPred::Ueq => unordered || x == y,
        FcmpPred::Une => unordered || x != y,
    }
}

/// Evaluate a cast.
pub fn eval_cast(op: CastOp, from_ty: Type, to_ty: Type, v: Value) -> Value {
    match op {
        CastOp::Trunc | CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr | CastOp::ZExt => {
            Value::new(to_ty, v.bits & from_ty.bit_mask())
        }
        CastOp::SExt => {
            let s = sign_extend_to_i64(v.bits & from_ty.bit_mask(), from_ty.bit_width());
            Value::new(to_ty, s as u64)
        }
        CastOp::FpToSi => {
            let f = if from_ty == Type::F32 {
                f32::from_bits(v.bits as u32) as f64
            } else {
                f64::from_bits(v.bits)
            };
            Value::new(to_ty, f as i64 as u64)
        }
        CastOp::FpToUi => {
            let f = if from_ty == Type::F32 {
                f32::from_bits(v.bits as u32) as f64
            } else {
                f64::from_bits(v.bits)
            };
            Value::new(to_ty, f as u64)
        }
        CastOp::SiToFp => {
            let s = sign_extend_to_i64(v.bits & from_ty.bit_mask(), from_ty.bit_width());
            Value::from_f64(to_ty, s as f64)
        }
        CastOp::UiToFp => Value::from_f64(to_ty, (v.bits & from_ty.bit_mask()) as f64),
        CastOp::FpTrunc => Value::f32(f64::from_bits(v.bits) as f32),
        CastOp::FpExt => Value::f64(f32::from_bits(v.bits as u32) as f64),
    }
}

/// Append print output, honouring the output-size limit.
pub(crate) fn append_output(output: &mut Vec<u8>, limits: &Limits, bytes: &[u8]) {
    let remaining = limits.max_output_bytes.saturating_sub(output.len());
    let take = remaining.min(bytes.len());
    output.extend_from_slice(&bytes[..take]);
}

/// Execute an intrinsic call against the VM's memory and output buffer,
/// announcing the memory it reads and defines to `hook`.
pub(crate) fn exec_intrinsic<H: ExecHook + ?Sized>(
    mem: &mut Memory,
    output: &mut Vec<u8>,
    limits: &Limits,
    which: Intrinsic,
    args: &[Value],
    hook: &mut H,
) -> Result<Option<Value>, Trap> {
    let arg = |i: usize| args.get(i).copied().unwrap_or(Value::i64(0));
    match which {
        Intrinsic::PrintI64 => {
            let text = format!("{}\n", arg(0).as_i64());
            append_output(output, limits, text.as_bytes());
            Ok(None)
        }
        Intrinsic::PrintF64 => {
            let v = arg(0).as_f64();
            let text = if v.is_finite() {
                format!("{v:.6}\n")
            } else {
                format!("{v}\n")
            };
            append_output(output, limits, text.as_bytes());
            Ok(None)
        }
        Intrinsic::PrintChar => {
            append_output(output, limits, &[arg(0).as_u64() as u8]);
            Ok(None)
        }
        Intrinsic::PrintBytes => {
            let addr = arg(0).as_u64();
            let len = arg(1).as_u64().min(limits.max_output_bytes as u64);
            let bytes = mem.read_bytes(addr, len)?;
            if len > 0 {
                hook.on_mem_read(addr, len);
            }
            append_output(output, limits, &bytes);
            Ok(None)
        }
        Intrinsic::Abort => Err(Trap::Abort),
        Intrinsic::Malloc => {
            let addr = mem.heap_alloc(arg(0).as_u64())?;
            hook.on_mem_write(addr, mem.layout().heap_base + mem.heap_top() - addr);
            Ok(Some(Value::ptr(addr)))
        }
        Intrinsic::Free => {
            mem.heap_free(arg(0).as_u64())?;
            Ok(None)
        }
        Intrinsic::Memcpy => {
            let (dst, src, len) = (arg(0).as_u64(), arg(1).as_u64(), arg(2).as_u64());
            mem.copy(dst, src, len)?;
            if len > 0 {
                hook.on_mem_read(src, len);
                hook.on_mem_write(dst, len);
            }
            Ok(None)
        }
        Intrinsic::Memset => {
            let (dst, len) = (arg(0).as_u64(), arg(2).as_u64());
            mem.fill(dst, arg(1).as_u64() as u8, len)?;
            if len > 0 {
                hook.on_mem_write(dst, len);
            }
            Ok(None)
        }
        Intrinsic::Sqrt => Ok(Some(Value::f64(arg(0).as_f64().sqrt()))),
        Intrinsic::Sin => Ok(Some(Value::f64(arg(0).as_f64().sin()))),
        Intrinsic::Cos => Ok(Some(Value::f64(arg(0).as_f64().cos()))),
        Intrinsic::Atan => Ok(Some(Value::f64(arg(0).as_f64().atan()))),
        Intrinsic::Pow => Ok(Some(Value::f64(arg(0).as_f64().powf(arg(1).as_f64())))),
        Intrinsic::Exp => Ok(Some(Value::f64(arg(0).as_f64().exp()))),
        Intrinsic::Log => Ok(Some(Value::f64(arg(0).as_f64().ln()))),
        Intrinsic::Fabs => Ok(Some(Value::f64(arg(0).as_f64().abs()))),
        Intrinsic::Floor => Ok(Some(Value::f64(arg(0).as_f64().floor()))),
        Intrinsic::Ceil => Ok(Some(Value::f64(arg(0).as_f64().ceil()))),
        Intrinsic::Cbrt => Ok(Some(Value::f64(arg(0).as_f64().cbrt()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_division_overflow_traps() {
        assert_eq!(
            eval_binary(BinOp::SDiv, Type::I64, Value::i64(i64::MIN), Value::i64(-1)),
            Err(Trap::DivideByZero)
        );
        assert_eq!(
            eval_binary(BinOp::SRem, Type::I64, Value::i64(i64::MIN), Value::i64(-1)),
            Err(Trap::DivideByZero)
        );
    }

    #[test]
    fn cast_semantics() {
        assert_eq!(
            eval_cast(
                CastOp::SExt,
                Type::I8,
                Type::I64,
                Value::new(Type::I8, 0xff)
            )
            .as_i64(),
            -1
        );
        assert_eq!(
            eval_cast(
                CastOp::ZExt,
                Type::I8,
                Type::I64,
                Value::new(Type::I8, 0xff)
            )
            .as_i64(),
            255
        );
        assert_eq!(
            eval_cast(CastOp::FpToSi, Type::F64, Type::I32, Value::f64(-3.7)).as_i64(),
            -3
        );
        assert_eq!(
            eval_cast(CastOp::SiToFp, Type::I32, Type::F64, Value::i32(-2)).as_f64(),
            -2.0
        );
        assert_eq!(
            eval_cast(CastOp::FpExt, Type::F32, Type::F64, Value::f32(1.5)).as_f64(),
            1.5
        );
        assert_eq!(
            eval_cast(CastOp::Trunc, Type::I64, Type::I8, Value::i64(0x1234)).as_u64(),
            0x34
        );
    }

    #[test]
    fn icmp_signed_vs_unsigned() {
        let a = Value::i32(-1);
        let b = Value::i32(1);
        assert!(eval_icmp(IcmpPred::Slt, Type::I32, a, b));
        assert!(!eval_icmp(IcmpPred::Ult, Type::I32, a, b));
        assert!(eval_icmp(IcmpPred::Ugt, Type::I32, a, b));
        assert!(eval_icmp(IcmpPred::Ne, Type::I32, a, b));
    }

    #[test]
    fn fcmp_handles_nan() {
        assert!(!eval_fcmp(FcmpPred::Oeq, f64::NAN, 1.0));
        assert!(eval_fcmp(FcmpPred::Uno, f64::NAN, 1.0));
        assert!(eval_fcmp(FcmpPred::Ord, 1.0, 2.0));
        assert!(eval_fcmp(FcmpPred::Une, f64::NAN, f64::NAN));
        assert!(eval_fcmp(FcmpPred::Ole, 1.0, 1.0));
    }

    #[test]
    fn shifts_wrap_amount_modulo_width() {
        let v = eval_binary(BinOp::Shl, Type::I32, Value::i32(1), Value::i32(33)).unwrap();
        assert_eq!(v.as_u64(), 2);
        let v = eval_binary(BinOp::AShr, Type::I32, Value::i32(-8), Value::i32(2)).unwrap();
        assert_eq!(v.as_i64(), -2);
    }
}
