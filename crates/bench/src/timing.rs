//! Plain-`std` benchmark harness (no criterion — the build must work fully
//! offline).
//!
//! Each benchmark target under `benches/` is a `harness = false` binary that
//! uses [`BenchSuite`] to time closures with `std::time::Instant`: every
//! measurement takes `samples` wall-clock samples of `iters` iterations each
//! and reports the **median** nanoseconds per iteration (the median is robust
//! against scheduler noise, which is all a CI smoke benchmark can hope for).
//!
//! Output is twofold:
//!
//! * a human-readable line per benchmark on stdout, and
//! * a machine-readable `BENCH_<suite>.json` file written via the
//!   hand-rolled JSON writer in [`mbfi_core::report::json`], with the full
//!   per-sample data so regressions can be analysed after the fact.
//!
//! Knobs (environment variables, so CI can dial the cost):
//!
//! * `MBFI_BENCH_SAMPLES` — samples per benchmark (default 7)
//! * `MBFI_BENCH_ITERS` — iterations per sample (default 3)
//! * `MBFI_BENCH_OUT` — directory for the `BENCH_*.json` files (default `.`)

use mbfi_core::report::Json;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Nanoseconds per iteration, one value per sample, sorted ascending.
    pub samples_ns: Vec<u64>,
    /// Iterations per sample.
    pub iters: usize,
    /// Optional throughput denominator (e.g. dynamic instructions per
    /// iteration), for "elements per second" style reporting.
    pub throughput_elements: Option<u64>,
}

impl Measurement {
    /// Median nanoseconds per iteration.
    pub fn median_ns(&self) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        self.samples_ns[self.samples_ns.len() / 2]
    }

    /// Fastest sample.
    pub fn min_ns(&self) -> u64 {
        self.samples_ns.first().copied().unwrap_or(0)
    }

    /// Slowest sample.
    pub fn max_ns(&self) -> u64 {
        self.samples_ns.last().copied().unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("name", self.name.clone());
        obj.set("median_ns", self.median_ns());
        obj.set("min_ns", self.min_ns());
        obj.set("max_ns", self.max_ns());
        obj.set("iters_per_sample", self.iters);
        obj.set("samples_ns", self.samples_ns.clone());
        if let Some(elements) = self.throughput_elements {
            obj.set("throughput_elements", elements);
            let median = self.median_ns().max(1);
            obj.set("elements_per_sec", elements as f64 * 1e9 / median as f64);
        }
        obj
    }
}

/// A named collection of benchmarks that ends in one `BENCH_<suite>.json`.
pub struct BenchSuite {
    name: String,
    samples: usize,
    iters: usize,
    out_dir: std::path::PathBuf,
    results: Vec<Measurement>,
}

impl BenchSuite {
    /// Create a suite, reading the sample/iteration/output knobs from the
    /// environment (the constructor the bench binaries use).
    pub fn new(name: impl Into<String>) -> BenchSuite {
        BenchSuite::with_config(
            name,
            env_usize("MBFI_BENCH_SAMPLES", 7),
            env_usize("MBFI_BENCH_ITERS", 3),
            std::env::var("MBFI_BENCH_OUT").unwrap_or_else(|_| ".".to_string()),
        )
    }

    /// Create a suite with explicit knobs (no process-global state).
    pub fn with_config(
        name: impl Into<String>,
        samples: usize,
        iters: usize,
        out_dir: impl Into<std::path::PathBuf>,
    ) -> BenchSuite {
        let samples = samples.max(1);
        let iters = iters.max(1);
        let name = name.into();
        println!("suite {name}: {samples} samples x {iters} iters (median of samples)");
        BenchSuite {
            name,
            samples,
            iters,
            out_dir: out_dir.into(),
            results: Vec::new(),
        }
    }

    /// Time `f`, recording median-of-N nanoseconds per iteration.
    pub fn bench<T>(&mut self, name: impl Into<String>, f: impl FnMut() -> T) {
        self.bench_with_throughput(name, None, f)
    }

    /// Like [`BenchSuite::bench`], with a throughput denominator (elements
    /// processed per iteration) for elements-per-second reporting.
    pub fn bench_with_throughput<T>(
        &mut self,
        name: impl Into<String>,
        throughput_elements: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        let name = name.into();
        // One untimed warm-up iteration.
        std::hint::black_box(f());
        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..self.iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            samples_ns.push((elapsed.as_nanos() / self.iters as u128) as u64);
        }
        samples_ns.sort_unstable();
        let m = Measurement {
            name,
            samples_ns,
            iters: self.iters,
            throughput_elements,
        };
        let throughput = match m.throughput_elements {
            Some(e) => format!(
                "  ({:.1} Melem/s)",
                e as f64 * 1e3 / m.median_ns().max(1) as f64
            ),
            None => String::new(),
        };
        println!(
            "{:<40} median {:>12} ns/iter  (min {}, max {}){throughput}",
            m.name,
            m.median_ns(),
            m.min_ns(),
            m.max_ns()
        );
        self.results.push(m);
    }

    /// Print the summary and write `BENCH_<suite>.json`; returns the path.
    pub fn finish(self) -> std::path::PathBuf {
        let mut obj = Json::object();
        obj.set("suite", self.name.clone());
        obj.set("samples", self.samples);
        obj.set("iters_per_sample", self.iters);
        obj.set(
            "results",
            Json::Arr(self.results.iter().map(Measurement::to_json).collect()),
        );
        let path = self.out_dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::write(&path, obj.render()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
        path
    }
}

/// Median wall-clock nanoseconds over `samples` runs of `f`, with one
/// untimed warm-up run — the same methodology [`BenchSuite`] uses, exposed
/// for ad-hoc comparisons (e.g. the `replay_bench` binary) so the timing
/// method lives in one place.
pub fn median_wall_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Parse an environment knob, warning on stderr and falling back to
/// `default` when the variable is set but malformed (shared by
/// [`BenchSuite`], `HarnessConfig::from_env` and the bench binaries, so
/// every knob has the same warn-on-garbage behaviour).
pub fn env_parsed<T: std::str::FromStr + std::fmt::Display>(key: &str, default: T) -> T {
    var_parsed(|k| std::env::var(k).ok(), key, default)
}

/// [`env_parsed`] over any variable lookup (`None` = unset).
pub fn var_parsed<T: std::str::FromStr + std::fmt::Display>(
    var: impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
) -> T {
    match var(key) {
        None => default,
        Some(v) => match v.trim().parse::<T>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("warning: {key}={v:?} is not a valid value; falling back to {default}");
                default
            }
        },
    }
}

/// [`env_parsed`] for the common `usize` knobs.
pub fn env_usize(key: &str, default: usize) -> usize {
    env_parsed(key, default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_come_from_sorted_samples() {
        let m = Measurement {
            name: "x".into(),
            samples_ns: vec![10, 20, 30, 40, 50],
            iters: 1,
            throughput_elements: None,
        };
        assert_eq!(m.median_ns(), 30);
        assert_eq!(m.min_ns(), 10);
        assert_eq!(m.max_ns(), 50);
    }

    #[test]
    fn suite_measures_and_writes_json() {
        let dir = std::env::temp_dir().join("mbfi-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut suite = BenchSuite::with_config("selftest", 3, 2, &dir);
        let mut acc = 0u64;
        suite.bench("spin", || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        suite.bench_with_throughput("with_tp", Some(1000), || 1u32);
        let path = suite.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"suite\":\"selftest\""));
        assert!(text.contains("\"name\":\"spin\""));
        assert!(text.contains("\"elements_per_sec\""));
        std::fs::remove_file(&path).ok();
    }
}
