//! Modules and global data.

use crate::function::{FuncId, Function};

/// A global data object (read/write byte array placed in the globals segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name of the global (unique within a module).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents; shorter than `size` means the rest is zero-filled.
    pub init: Vec<u8>,
    /// Required alignment in bytes (power of two).
    pub align: u64,
}

impl Global {
    /// Create a zero-initialised global of `size` bytes.
    pub fn zeroed(name: impl Into<String>, size: u64) -> Global {
        Global {
            name: name.into(),
            size,
            init: Vec::new(),
            align: 8,
        }
    }

    /// Create a global initialised with the given bytes.
    pub fn with_bytes(name: impl Into<String>, bytes: Vec<u8>) -> Global {
        Global {
            name: name.into(),
            size: bytes.len() as u64,
            init: bytes,
            align: 8,
        }
    }
}

/// A whole program: functions plus global data.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (typically the workload name).
    pub name: String,
    /// Function table; [`FuncId`] indexes into it.
    pub functions: Vec<Function>,
    /// Global data objects.
    pub globals: Vec<Global>,
    /// Index of the entry function (`main`).
    pub entry: Option<FuncId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            entry: None,
        }
    }

    /// The entry function, panicking if none was set.
    pub fn entry_function(&self) -> &Function {
        let id = self.entry.expect("module has no entry function");
        &self.functions[id.index()]
    }

    /// Total number of static instructions across all functions.
    pub fn static_instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instr_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_constructors() {
        let g = Global::zeroed("buf", 64);
        assert_eq!(g.size, 64);
        assert!(g.init.is_empty());
        let g = Global::with_bytes("msg", b"hello".to_vec());
        assert_eq!(g.size, 5);
        assert_eq!(g.init, b"hello");
    }

    #[test]
    fn globals_add_no_static_instructions() {
        let mut m = Module::new("test");
        m.globals.push(Global::zeroed("a", 8));
        m.globals.push(Global::zeroed("b", 8));
        assert_eq!(m.static_instr_count(), 0);
    }
}
