//! Artefact output directory handling shared by all harness binaries.
//!
//! Every binary accepts `--out-dir <path>` (or `--out-dir=<path>`) and writes
//! its artefacts — rendered tables and figures — into that directory
//! instead of the current working directory.  The default stays the
//! CWD, so existing invocations keep their behaviour.

use std::path::{Path, PathBuf};

/// Where a binary writes its artefact files.
#[derive(Debug, Clone)]
pub struct OutDir {
    dir: PathBuf,
}

impl Default for OutDir {
    fn default() -> Self {
        OutDir {
            dir: PathBuf::from("."),
        }
    }
}

impl OutDir {
    /// Parse `--out-dir <path>` / `--out-dir=<path>` from the process
    /// arguments; defaults to the current working directory.
    pub fn from_args() -> OutDir {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> OutDir {
        let mut dir = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--out-dir" {
                dir = args.next();
            } else if let Some(path) = arg.strip_prefix("--out-dir=") {
                dir = Some(path.to_string());
            }
        }
        OutDir {
            dir: PathBuf::from(dir.unwrap_or_else(|| ".".to_string())),
        }
    }

    /// The configured directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Write one artefact file into the directory (creating it if needed),
    /// logging the destination; I/O failures are reported on stderr rather
    /// than aborting a run whose results are already on stdout.
    pub fn write(&self, file_name: &str, contents: &str) {
        let path = self.dir.join(file_name);
        let result =
            std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&path, contents));
        match result {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Collects a binary's rendered tables/figures: everything [`Artefact::emit`]
/// prints to stdout is also accumulated and written as `<bin>.txt` into the
/// `--out-dir` directory by [`Artefact::finish`].
#[derive(Debug)]
pub struct Artefact {
    out: OutDir,
    file_name: String,
    buf: String,
}

impl Artefact {
    /// An artefact named after the binary, with the directory taken from the
    /// process arguments.
    pub fn from_args(bin: &str) -> Artefact {
        Artefact::new(bin, OutDir::from_args())
    }

    /// An artefact with an explicit output directory (testable).
    pub fn new(bin: &str, out: OutDir) -> Artefact {
        Artefact {
            out,
            file_name: format!("{bin}.txt"),
            buf: String::new(),
        }
    }

    /// Print one rendered block to stdout and record it for the file.
    pub fn emit(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        println!("{text}");
        self.buf.push_str(text);
        self.buf.push('\n');
    }

    /// Write the accumulated text to `<out-dir>/<bin>.txt`.
    pub fn finish(self) {
        self.out.write(&self.file_name, &self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_accumulates_emitted_blocks() {
        let dir = std::env::temp_dir().join("mbfi-artefact-test");
        std::fs::remove_dir_all(&dir).ok();
        let out = OutDir::parse_from(vec![format!("--out-dir={}", dir.display())]);
        let mut a = Artefact::new("selftest", out);
        a.emit("first");
        a.emit("second");
        a.finish();
        assert_eq!(
            std::fs::read_to_string(dir.join("selftest.txt")).unwrap(),
            "first\nsecond\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_both_flag_forms_and_defaults_to_cwd() {
        let d = OutDir::parse_from(Vec::new());
        assert_eq!(d.path(), Path::new("."));
        let d = OutDir::parse_from(vec!["--out-dir".to_string(), "/tmp/x".to_string()]);
        assert_eq!(d.path(), Path::new("/tmp/x"));
        let d = OutDir::parse_from(vec!["--check".to_string(), "--out-dir=/tmp/y".to_string()]);
        assert_eq!(d.path(), Path::new("/tmp/y"));
        // A trailing flag without a value falls back to the default.
        let d = OutDir::parse_from(vec!["--out-dir".to_string()]);
        assert_eq!(d.path(), Path::new("."));
    }

    #[test]
    fn write_creates_the_directory_and_file() {
        let dir = std::env::temp_dir().join("mbfi-outdir-test");
        std::fs::remove_dir_all(&dir).ok();
        let out = OutDir::parse_from(vec![format!("--out-dir={}", dir.display())]);
        out.write("artefact.txt", "hello");
        assert_eq!(
            std::fs::read_to_string(dir.join("artefact.txt")).unwrap(),
            "hello"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
