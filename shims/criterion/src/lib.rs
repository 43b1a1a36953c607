//! Local shim for `criterion`: just enough API to compile and run the
//! workspace's micro-benchmarks (`Criterion::bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched`, `Bencher::iter_custom`, `criterion_group!`,
//! `criterion_main!`).
//!
//! Each benchmark is timed with a fixed warm-up and a fixed measurement pass;
//! the mean per-iteration time is printed. No statistics, plots or baselines.
//!
//! Two environment variables extend the shim for the perf-trajectory tooling:
//!
//! * `FELA_BENCH_QUICK=1` — smoke mode: one warm-up and three measured
//!   iterations per benchmark, for CI jobs that record the trajectory without
//!   paying for stable numbers.
//! * `FELA_BENCH_DIR=<dir>` — when set, each benchmark group writes its results
//!   to `<dir>/BENCH_<group>.json` (created if missing) in addition to stdout,
//!   so runs leave machine-readable artifacts.

use std::time::{Duration, Instant};

/// Batch sizing hint; the shim ignores the distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Times closures handed to [`Criterion::bench_function`].
pub struct Bencher {
    total: Duration,
    iters: u64,
}

const WARMUP_ITERS: u64 = 3;
const MEASURE_ITERS: u64 = 20;
const QUICK_WARMUP_ITERS: u64 = 1;
const QUICK_MEASURE_ITERS: u64 = 3;

fn quick_mode() -> bool {
    std::env::var("FELA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn iter_plan() -> (u64, u64) {
    if quick_mode() {
        (QUICK_WARMUP_ITERS, QUICK_MEASURE_ITERS)
    } else {
        (WARMUP_ITERS, MEASURE_ITERS)
    }
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let (warmup, measure) = iter_plan();
        for _ in 0..warmup {
            std::hint::black_box(routine());
        }
        let start = Instant::now();
        for _ in 0..measure {
            std::hint::black_box(routine());
        }
        self.total = start.elapsed();
        self.iters = measure;
    }

    /// Times `routine` with a fresh `setup` input per iteration; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let (warmup, measure) = iter_plan();
        for _ in 0..warmup {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        let mut total = Duration::ZERO;
        for _ in 0..measure {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.total = total;
        self.iters = measure;
    }

    /// Lets `routine` time itself: it runs the given number of iterations
    /// and returns their total time, which the shim divides by that number.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        let (warmup, measure) = iter_plan();
        std::hint::black_box(routine(warmup));
        self.total = routine(measure);
        self.iters = measure;
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    group: Option<String>,
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// A `Criterion` that records results under a group name; on drop the group
    /// writes `BENCH_<group>.json` when `FELA_BENCH_DIR` is set.
    pub fn with_group(name: &str) -> Self {
        Criterion {
            group: Some(name.to_owned()),
            results: Vec::new(),
        }
    }

    /// Runs and reports one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            total: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let per_iter = if b.iters > 0 {
            b.total.as_nanos() as f64 / b.iters as f64
        } else {
            0.0
        };
        println!("bench {id:<45} {:>12.0} ns/iter", per_iter);
        self.results.push((id.to_owned(), per_iter));
        self
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let (Some(group), Ok(dir)) = (self.group.as_deref(), std::env::var("FELA_BENCH_DIR"))
        else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        if let Err(e) = write_group_json(&dir, group, &self.results) {
            eprintln!("warning: cannot write BENCH_{group}.json: {e}");
        }
    }
}

/// Minimal JSON escaping for benchmark ids (ASCII control chars, quotes,
/// backslashes — ids are plain identifiers in practice).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_group_json(dir: &str, group: &str, results: &[(String, f64)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"group\": \"{}\",\n", escape_json(group)));
    body.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    body.push_str("  \"benches\": [\n");
    for (i, (id, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{ \"id\": \"{}\", \"ns_per_iter\": {:.1} }}{comma}\n",
            escape_json(id),
            ns
        ));
    }
    body.push_str("  ]\n}\n");
    let path = std::path::Path::new(dir).join(format!("BENCH_{group}.json"));
    std::fs::write(path, body)
}

/// Re-export so `use criterion::black_box` also works.
pub use std::hint::black_box;

/// Groups benchmark functions into one runner function. The group name becomes
/// the `BENCH_<group>.json` artifact name when `FELA_BENCH_DIR` is set.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::with_group(stringify!($group));
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
