//! Structural verification of IR modules.
//!
//! The verifier catches builder mistakes in the workloads before they reach
//! the interpreter: out-of-range registers and blocks, blocks without
//! terminators, terminators in the middle of a block, calls to missing
//! functions, arity mismatches, entry functions with parameters, and globals
//! whose initialiser is larger than their declared size.

use crate::function::Function;
use crate::instr::Instr;
use crate::module::Module;
use crate::value::{Constant, Operand};
use std::fmt;

/// A verification failure, with enough context to locate the offending item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name, if the error is inside a function.
    pub function: Option<String>,
    /// Block index, if the error is inside a block.
    pub block: Option<usize>,
    /// Instruction index within the block, if applicable.
    pub instr: Option<usize>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function, self.block, self.instr) {
            (Some(func), Some(b), Some(i)) => {
                write!(f, "{func}: bb{b}[{i}]: {}", self.message)
            }
            (Some(func), Some(b), None) => write!(f, "{func}: bb{b}: {}", self.message),
            (Some(func), None, None) => write!(f, "{func}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(
    function: Option<&str>,
    block: Option<usize>,
    instr: Option<usize>,
    message: impl Into<String>,
) -> VerifyError {
    VerifyError {
        function: function.map(|s| s.to_string()),
        block,
        instr,
        message: message.into(),
    }
}

/// Verify a whole module, returning all problems found.
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();

    for (i, g) in module.globals.iter().enumerate() {
        if g.init.len() as u64 > g.size {
            errors.push(err(
                None,
                None,
                None,
                format!(
                    "global @g{i} '{}' initialiser ({} bytes) exceeds size {}",
                    g.name,
                    g.init.len(),
                    g.size
                ),
            ));
        }
        if g.align == 0 || !g.align.is_power_of_two() {
            errors.push(err(
                None,
                None,
                None,
                format!(
                    "global @g{i} '{}' alignment {} is not a power of two",
                    g.name, g.align
                ),
            ));
        }
    }

    match module.entry {
        None => errors.push(err(None, None, None, "module has no entry function")),
        Some(id) => {
            if id.index() >= module.functions.len() {
                errors.push(err(None, None, None, "entry function id out of range"));
            } else if !module.functions[id.index()].params.is_empty() {
                errors.push(err(
                    None,
                    None,
                    None,
                    "entry function must not take parameters",
                ));
            }
        }
    }

    for func in &module.functions {
        verify_function(module, func, &mut errors);
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check_operand(
    module: &Module,
    func: &Function,
    op: &Operand,
    fname: &str,
    b: usize,
    i: usize,
    errors: &mut Vec<VerifyError>,
) {
    match op {
        Operand::Reg(r) => {
            if r.index() >= func.regs.len() {
                errors.push(err(
                    Some(fname),
                    Some(b),
                    Some(i),
                    format!(
                        "register {r} out of range (function has {})",
                        func.regs.len()
                    ),
                ));
            }
        }
        Operand::Const(Constant::Global { index }) => {
            if *index >= module.globals.len() {
                errors.push(err(
                    Some(fname),
                    Some(b),
                    Some(i),
                    format!("global index {index} out of range"),
                ));
            }
        }
        Operand::Const(_) => {}
    }
}

fn verify_function(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let fname = &func.name;

    if func.blocks.is_empty() {
        errors.push(err(Some(fname), None, None, "function has no body"));
        return;
    }

    for reg in &func.params {
        if reg.index() >= func.regs.len() {
            errors.push(err(
                Some(fname),
                None,
                None,
                format!("parameter register {reg} out of range"),
            ));
        }
    }

    for (b, block) in func.blocks.iter().enumerate() {
        if block.instrs.is_empty() {
            errors.push(err(Some(fname), Some(b), None, "empty basic block"));
            continue;
        }
        let last = block.instrs.len() - 1;
        for (i, instr) in block.instrs.iter().enumerate() {
            if i < last && instr.is_terminator() {
                errors.push(err(
                    Some(fname),
                    Some(b),
                    Some(i),
                    "terminator in the middle of a block",
                ));
            }
            if i == last && !instr.is_terminator() {
                errors.push(err(
                    Some(fname),
                    Some(b),
                    Some(i),
                    "block does not end with a terminator",
                ));
            }

            if let Some(dest) = instr.dest() {
                if dest.index() >= func.regs.len() {
                    errors.push(err(
                        Some(fname),
                        Some(b),
                        Some(i),
                        format!("destination register {dest} out of range"),
                    ));
                }
            }
            for op in instr.operands() {
                check_operand(module, func, &op, fname, b, i, errors);
            }
            for target in instr.successors() {
                if target.index() >= func.blocks.len() {
                    errors.push(err(
                        Some(fname),
                        Some(b),
                        Some(i),
                        format!("branch target {target} out of range"),
                    ));
                }
            }

            match instr {
                Instr::Call { callee, args, dest } => {
                    if *callee >= module.functions.len() {
                        errors.push(err(
                            Some(fname),
                            Some(b),
                            Some(i),
                            format!("call to unknown function index {callee}"),
                        ));
                    } else {
                        let target = &module.functions[*callee];
                        if target.params.len() != args.len() {
                            errors.push(err(
                                Some(fname),
                                Some(b),
                                Some(i),
                                format!(
                                    "call to '{}' with {} args, expected {}",
                                    target.name,
                                    args.len(),
                                    target.params.len()
                                ),
                            ));
                        }
                        if dest.is_some() && target.ret_ty.is_none() {
                            errors.push(err(
                                Some(fname),
                                Some(b),
                                Some(i),
                                format!("call captures result of void function '{}'", target.name),
                            ));
                        }
                    }
                }
                Instr::Ret { value } => {
                    match (value, func.ret_ty) {
                        (Some(_), None) => errors.push(err(
                            Some(fname),
                            Some(b),
                            Some(i),
                            "void function returns a value",
                        )),
                        (None, Some(_)) => errors.push(err(
                            Some(fname),
                            Some(b),
                            Some(i),
                            "non-void function returns without a value",
                        )),
                        _ => {}
                    };
                }
                Instr::Phi { incoming, .. } if incoming.is_empty() => {
                    errors.push(err(
                        Some(fname),
                        Some(b),
                        Some(i),
                        "phi with no incoming arms",
                    ));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::function::{Block, BlockId};
    use crate::types::Type;
    use crate::value::Reg;

    fn valid_module() -> Module {
        let mut mb = ModuleBuilder::new("ok");
        let helper = mb.declare("helper", &[(Type::I32, "x")], Some(Type::I32));
        let main = mb.declare("main", &[], Some(Type::I32));
        {
            let mut f = mb.define(helper);
            let p = f.param(0);
            let r = f.mul(Type::I32, p, 3i32);
            f.ret(r);
        }
        {
            let mut f = mb.define(main);
            let v = f
                .call(helper, &[Operand::Const(Constant::i32(5))], Some(Type::I32))
                .unwrap();
            f.ret(v);
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn valid_module_passes() {
        assert!(verify_module(&valid_module()).is_ok());
    }

    #[test]
    fn missing_entry_is_reported() {
        let mut m = valid_module();
        m.entry = None;
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no entry")));
    }

    #[test]
    fn block_without_terminator_is_reported() {
        let mut m = valid_module();
        m.functions[1].blocks[0].instrs.pop();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("does not end with a terminator")));
    }

    #[test]
    fn out_of_range_register_is_reported() {
        let mut m = valid_module();
        m.functions[0].blocks[0].instrs.insert(
            0,
            Instr::Load {
                dest: Reg(999),
                ty: Type::I32,
                addr: Operand::Reg(Reg(888)),
            },
        );
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn call_arity_mismatch_is_reported() {
        let mut m = valid_module();
        if let Instr::Call { args, .. } = &mut m.functions[1].blocks[0].instrs[0] {
            args.clear();
        }
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expected 1")));
    }

    #[test]
    fn bad_branch_target_is_reported() {
        let mut m = valid_module();
        m.functions[1].blocks.push(Block {
            label: None,
            instrs: vec![Instr::Br {
                target: BlockId(77),
            }],
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("branch target")));
    }

    #[test]
    fn entry_with_params_is_reported() {
        let mut mb = ModuleBuilder::new("bad");
        let main = mb.declare("main", &[(Type::I32, "argc")], None);
        {
            let mut f = mb.define(main);
            f.ret_void();
        }
        mb.set_entry(main);
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("must not take parameters")));
    }

    #[test]
    fn oversized_global_init_is_reported() {
        let mut m = valid_module();
        m.globals.push(crate::module::Global {
            name: "bad".into(),
            size: 2,
            init: vec![0; 10],
            align: 8,
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("exceeds size")));
    }

    #[test]
    fn error_display_includes_location() {
        let e = VerifyError {
            function: Some("f".into()),
            block: Some(2),
            instr: Some(3),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "f: bb2[3]: boom");
    }
}
