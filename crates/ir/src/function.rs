//! Functions, basic blocks and register tables.

use crate::instr::Instr;
use crate::types::Type;
use std::fmt;

/// Identifies a basic block inside a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the function's block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifies a function inside a module (index into the function table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into the module's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata for one virtual register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegInfo {
    /// The register's scalar type.
    pub ty: Type,
    /// Optional debug name (used by the printer).
    pub name: Option<String>,
}

/// A basic block: a straight-line sequence of instructions ending in a
/// terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Optional label used by the printer / parser.
    pub label: Option<String>,
    /// Instructions in execution order; the last one must be a terminator.
    pub instrs: Vec<Instr>,
}

impl Block {
    /// Create an empty block with an optional label.
    pub fn new(label: Option<String>) -> Block {
        Block {
            label,
            instrs: Vec::new(),
        }
    }

    /// The terminator instruction, if the block is complete.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }
}

/// A function: parameters, a register table, and basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Parameter registers (indices into `regs`), in order.
    pub params: Vec<crate::value::Reg>,
    /// Return type, or `None` for `void` functions.
    pub ret_ty: Option<Type>,
    /// Register table; every `Reg(i)` used in the body indexes this table.
    pub regs: Vec<RegInfo>,
    /// Basic blocks; block 0 is the entry block.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Number of virtual registers declared by the function.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Total number of static instructions in the function.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Type of a register, panicking on out-of-range indices.
    pub fn reg_ty(&self, reg: crate::value::Reg) -> Type {
        self.regs[reg.index()].ty
    }

    /// Entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::value::Reg;

    #[test]
    fn block_terminator_detection() {
        let mut b = Block::new(Some("entry".into()));
        assert!(b.terminator().is_none());
        b.instrs.push(Instr::Ret { value: None });
        assert!(b.terminator().is_some());
    }

    #[test]
    fn function_counts() {
        let f = Function {
            name: "f".into(),
            params: vec![Reg(0)],
            ret_ty: Some(Type::I32),
            regs: vec![
                RegInfo {
                    ty: Type::I32,
                    name: Some("x".into()),
                },
                RegInfo {
                    ty: Type::I32,
                    name: None,
                },
            ],
            blocks: vec![Block {
                label: None,
                instrs: vec![Instr::Ret {
                    value: Some(crate::value::Operand::Reg(Reg(0))),
                }],
            }],
        };
        assert_eq!(f.reg_count(), 2);
        assert_eq!(f.instr_count(), 1);
        assert_eq!(f.reg_ty(Reg(1)), Type::I32);
        assert_eq!(f.entry(), BlockId(0));
    }
}
