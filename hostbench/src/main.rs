//! Host-time benchmark of the Smokestack reproduction.
//!
//! ```text
//! hostbench --workload <tenant-serve|attack-campaign|spec-run> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client on one host thread drives the workload for
//! `--seconds` after set-up and warm-up, checks the operations against
//! an independent oracle, and prints one `name value unit` line per
//! metric followed by a JSON summary as the last line. `--trace 0`
//! reports the end-to-end metrics. `--trace 1` traces part of the
//! operations (one request in eight, every other trial round or program
//! pass), reports the per-layer metrics and writes the spans next to the
//! executable as `spans-<workload>.jsonl`. End-to-end times are on the
//! reference clock (`reference.rs`), and glibc malloc's thresholds are
//! pinned first (`pin_malloc`). The benchmark calls only public APIs of
//! the repository's crates; `README.md` defines every metric.

mod campaign;
mod reference;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smokestack_srng::{build_source, SchemeKind, SeededTrng};
use smokestack_vm::RunOutcome;

use reference::Reference;
use stats::{geomean, median, ratio};
use trace::Tracer;

/// End-to-end metrics (`--trace 0`): name and unit. Times are on the
/// reference clock (`reference.rs`).
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("run_ms_geomean", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("minic.compile_ms", "ms"),
    ("minic.calls", "count"),
    ("smokestack.harden_ms", "ms"),
    ("defenses.deploy_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("vm.lower_ms", "ms"),
    ("vm.code_len", "count"),
    ("vm.spawn_us", "us"),
    ("vm.spawn_ms", "ms"),
    ("vm.spawn.self_us_per_op", "us"),
    ("vm.spawns", "count"),
    ("vm.respawn_us", "us"),
    ("vm.respawn_ms", "ms"),
    ("vm.respawn.self_us_per_op", "us"),
    ("vm.respawns", "count"),
    ("vm.run_us", "us"),
    ("vm.run_ms", "ms"),
    ("vm.run.self_us_per_op", "us"),
    ("vm.insts", "count"),
    ("vm.ns_per_inst", "ns"),
    ("vm.rng_draws", "count"),
    ("vm.rng_share", "ratio"),
    ("vm.bulk_share", "ratio"),
    ("vm.io_share", "ratio"),
    ("srng.draw_ns.pseudo", "ns"),
    ("srng.draw_ns.aes1", "ns"),
    ("srng.draw_ns.aes10", "ns"),
    ("srng.draw_ns.rdrand", "ns"),
    ("srng.aes10_draw_share", "ratio"),
    ("serve.rss_per_tenant_kib", "KiB"),
    ("serve.traffic_us", "us"),
    ("serve.traffic.self_us_per_op", "us"),
    ("serve.fleet.none.latency_p50_us", "us"),
    ("serve.fleet.canary.latency_p50_us", "us"),
    ("serve.fleet.aes10.latency_p50_us", "us"),
    ("serve.fleet.rdrand.latency_p50_us", "us"),
    ("serve.fleet.aes10-prune.latency_p50_us", "us"),
    ("serve.benign.latency_p50_us", "us"),
    ("serve.poisoned.latency_p50_us", "us"),
    ("serve.poisoned.wall_share", "ratio"),
    ("attacks.attempt_us", "us"),
    ("attacks.attempt.self_us_per_op", "us"),
    ("attacks.attempts_per_trial", "count"),
    ("attacks.aborted_ratio", "ratio"),
    ("attacks.out_of_fuel", "count"),
    ("attacks.out_of_fuel.wall_share", "ratio"),
    ("spec.hardened.run_ms_geomean", "ms"),
    ("spec.base.run_ms_geomean", "ms"),
    ("spec.host_overhead", "ratio"),
    ("bench.op.self_us_per_op", "us"),
    ("bench.ops_per_s_mean", "1/s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.error_ratio", "ratio"),
    ("bench.ref_kernel_us", "us"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Set up repeatedly, dropping each result before the next: once when
/// tracing, otherwise at least five times and for at least a second, so
/// `setup_s` is a median of many. Each set-up is followed by a few runs
/// of the reference kernel. Returns the last set-up and the median
/// seconds one took on the reference clock.
pub fn set_up_repeatedly<T>(
    args: &Args,
    tr: &mut Tracer,
    reference: &mut Reference,
    mut set_up: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let more = |secs: &[f64]| match args.trace {
        true => secs.is_empty(),
        false => secs.len() < 5 || secs.iter().sum::<f64>() < 1.0,
    };
    let mut secs = Vec::new();
    let mut ends = Vec::new();
    let mut last = None;
    while more(&secs) {
        drop(last.take());
        tr.set_on(args.trace);
        let t0 = Instant::now();
        last = Some(set_up(tr)?);
        ends.push(Instant::now());
        secs.push((ends[ends.len() - 1] - t0).as_secs_f64());
        for _ in 0..4 {
            reference.sample();
        }
    }
    let mut scaler = reference.scaler();
    let secs: Vec<f64> = secs
        .iter()
        .zip(ends)
        .map(|(s, at)| scaler.to_reference(*s, at))
        .collect();
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// The closed loop's clock: an untimed warm-up (first touches of
/// memory, allocator growth) of a quarter of `--seconds`, at most 3 s,
/// then `--seconds` of measurement, with the reference kernel run
/// between operations throughout.
pub struct Clock {
    start: Instant,
    warmup: Duration,
    end: Duration,
    measuring_since: Option<Instant>,
    reference: Reference,
}

impl Clock {
    /// Start the loop, carrying on the reference clock of the set-up.
    pub fn start(args: &Args, reference: Reference) -> Clock {
        let warmup = Duration::from_secs_f64((args.seconds / 4.0).min(3.0));
        Clock {
            start: Instant::now(),
            warmup,
            end: warmup + Duration::from_secs_f64(args.seconds),
            measuring_since: None,
            reference,
        }
    }

    /// Call between operations: runs the reference kernel when due.
    pub fn pace(&mut self) {
        self.reference.pace();
    }

    /// The run's reference clock, for `Report::reference`.
    pub fn into_reference(self) -> Reference {
        self.reference
    }

    /// Whether the loop should start another operation.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.end
    }

    /// Whether an operation starting now is measured.
    pub fn measuring(&mut self) -> bool {
        if self.measuring_since.is_none() && self.start.elapsed() >= self.warmup {
            self.measuring_since = Some(Instant::now());
        }
        self.measuring_since.is_some()
    }

    /// Seconds since measurement began.
    pub fn measured_s(&self) -> f64 {
        self.measuring_since
            .map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// What a workload hands back: operation counts, named metric values
/// (units come from the tables above) and the run's reference clock.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub reference: Reference,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// Per-operation walls of one run, with each operation's class (cell,
/// program row, ...), when it ended and whether it was traced.
#[derive(Default)]
pub struct Ops {
    pub wall_us: Vec<f64>,
    pub class: Vec<usize>,
    pub traced: Vec<bool>,
    ended: Vec<Instant>,
}

impl Ops {
    pub fn push(&mut self, wall_ns: u64, class: usize, traced: bool) {
        self.wall_us.push(wall_ns as f64 / 1e3);
        self.class.push(class);
        self.traced.push(traced);
        self.ended.push(Instant::now());
    }

    /// Put every wall on the reference clock.
    pub fn to_reference(&mut self, reference: &Reference) {
        let mut scaler = reference.scaler();
        for (w, at) in self.wall_us.iter_mut().zip(&self.ended) {
            *w = scaler.to_reference(*w, *at);
        }
    }

    /// Walls (µs) of the operations whose class satisfies `keep`.
    pub fn walls_where(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.wall_us
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| keep(**c))
            .map(|(w, _)| *w)
            .collect()
    }

    /// Traced over untraced median wall, geometric mean over the
    /// classes that have both.
    pub fn trace_overhead(&self) -> f64 {
        let mut by_class: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for ((w, c), t) in self.wall_us.iter().zip(&self.class).zip(&self.traced) {
            let e = by_class.entry(*c).or_default();
            if *t { &mut e.0 } else { &mut e.1 }.push(*w);
        }
        let ratios: Vec<f64> = by_class
            .values()
            .filter(|(t, u)| !t.is_empty() && !u.is_empty())
            .map(|(t, u)| median(t) / median(u))
            .collect();
        geomean(&ratios)
    }

    /// Operations per second if every operation took its class's median
    /// wall: the count over the sum, across classes, of count × median.
    /// Unlike operations over loop wall, it does not swing with how many
    /// rare multi-second operations (fuel-exhausted trials, allocator
    /// churn in attack attempts) a run happens to contain.
    pub fn median_rate(&self) -> f64 {
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (w, c) in self.wall_us.iter().zip(&self.class) {
            by_class.entry(*c).or_default().push(*w);
        }
        let busy_us: f64 = by_class.values().map(|w| w.len() as f64 * median(w)).sum();
        ratio(self.wall_us.len() as f64, busy_us / 1e6)
    }

    pub fn total_us(&self) -> f64 {
        self.wall_us.iter().sum()
    }
}

/// Record a finished VM run's counts on the tracer.
pub fn count_run(tr: &mut Tracer, out: &RunOutcome) {
    let b = &out.breakdown;
    tr.count("runs", 1.0);
    tr.count("insts", out.insts as f64);
    tr.count("rng_draws", out.rng_invocations as f64);
    tr.count("deci", b.total() as f64);
    tr.count("deci.rng", b.rng as f64);
    tr.count("deci.bulk", b.bulk as f64);
    tr.count("deci.io", b.io as f64);
}

/// Nanoseconds per `next_u64` of each randomness scheme, the median of
/// five timed batches through `srng::build_source`.
fn calibrate_srng(seed: u64) -> [(&'static str, f64); 4] {
    const DRAWS: u32 = 100_000;
    let names = [
        "srng.draw_ns.pseudo",
        "srng.draw_ns.aes1",
        "srng.draw_ns.aes10",
        "srng.draw_ns.rdrand",
    ];
    let mut out = [("", 0.0); 4];
    for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let mut src = build_source(kind, SeededTrng::new(seed));
        let mut batches = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..DRAWS {
                acc ^= src.next_u64();
            }
            std::hint::black_box(acc);
            batches.push(t0.elapsed().as_nanos() as f64 / f64::from(DRAWS));
        }
        out[i] = (names[i], median(&batches));
    }
    out
}

/// Fill the per-layer metrics every workload derives the same way from
/// its spans and counters. `op` names the workload's operation span.
fn layer_metrics(rep: &mut Report, tr: &Tracer, op: &str, seed: u64) {
    let names = tr.by_name();
    let ms = |n: &str| names.get(n).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    let p50_us = |n: &str| {
        names.get(n).map_or(0.0, |s| {
            median(
                &s.durs_ns
                    .iter()
                    .map(|d| *d as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        })
    };
    let count = |n: &str| names.get(n).map_or(0.0, |s| s.durs_ns.len() as f64);
    let ops = count(op);
    let per_op = |n: &str| ratio(names.get(n).map_or(0.0, |s| s.op_self_ns as f64 / 1e3), ops);

    rep.set("minic.compile_ms", ms("minic.compile"));
    rep.set("minic.calls", count("minic.compile"));
    rep.set("smokestack.harden_ms", ms("smokestack.harden"));
    rep.set("defenses.deploy_ms", ms("defenses.deploy"));
    rep.set("ir.verify_ms", ms("ir.verify"));
    rep.set("vm.lower_ms", ms("vm.lower"));
    rep.set("vm.code_len", tr.counter("code_len"));
    rep.set("vm.spawn_us", p50_us("vm.spawn"));
    rep.set("vm.spawn_ms", ms("vm.spawn"));
    rep.set("vm.spawns", count("vm.spawn"));
    rep.set("vm.respawn_us", p50_us("vm.respawn"));
    rep.set("vm.respawn_ms", ms("vm.respawn"));
    rep.set("vm.respawns", count("vm.respawn"));
    rep.set("vm.run_us", p50_us("vm.run"));
    rep.set("vm.run_ms", ms("vm.run"));
    rep.set("serve.traffic_us", p50_us("serve.traffic"));
    rep.set("attacks.attempt_us", p50_us("attacks.attempt"));
    for (metric, span) in [
        ("vm.spawn.self_us_per_op", "vm.spawn"),
        ("vm.respawn.self_us_per_op", "vm.respawn"),
        ("vm.run.self_us_per_op", "vm.run"),
        ("serve.traffic.self_us_per_op", "serve.traffic"),
        ("attacks.attempt.self_us_per_op", "attacks.attempt"),
        ("bench.op.self_us_per_op", op),
    ] {
        rep.set(metric, per_op(span));
    }

    let runs = tr.counter("runs");
    let deci = tr.counter("deci");
    let run_ns = names
        .get("vm.run")
        .map_or(0.0, |s| s.durs_ns.iter().sum::<u64>() as f64);
    rep.set("vm.insts", ratio(tr.counter("insts"), runs));
    rep.set("vm.ns_per_inst", ratio(run_ns, tr.counter("insts")));
    rep.set("vm.rng_draws", ratio(tr.counter("rng_draws"), runs));
    rep.set("vm.rng_share", ratio(tr.counter("deci.rng"), deci));
    rep.set("vm.bulk_share", ratio(tr.counter("deci.bulk"), deci));
    rep.set("vm.io_share", ratio(tr.counter("deci.io"), deci));

    let draws = calibrate_srng(seed);
    for (name, ns) in draws {
        rep.set(name, ns);
    }
    // Predicted share of AES-10 operations' wall spent drawing random
    // numbers: their draw count times the calibrated cost per draw.
    rep.set(
        "srng.aes10_draw_share",
        ratio(
            tr.counter("aes10.draws") * draws[2].1,
            tr.counter("aes10.wall_ns"),
        ),
    );
    rep.set("bench.span_coverage", tr.coverage(op));
    rep.set("bench.ref_kernel_us", rep.reference.kernel_us());
    rep.set(
        "bench.error_ratio",
        ratio(rep.failed as f64, rep.attempted as f64),
    );
}

/// Write the spans next to the executable (inside the build directory).
fn write_spans(tr: &Tracer, workload: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let path = exe.with_file_name(format!("spans-{workload}.jsonl"));
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(&path).map_err(fail)?);
    tr.write_jsonl(&mut out).map_err(fail)?;
    out.flush().map_err(fail)?;
    eprintln!("hostbench: spans written to {}", path.display());
    Ok(())
}

extern "C" {
    /// glibc's allocator tuning call (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin glibc malloc's mmap threshold at the 32 MiB cap of its dynamic
/// adjustment and the trim threshold at twice that, as the adjustment
/// itself sets them. By default both start low and rise when a mapped
/// chunk is freed, so whether a VM segment (4 or 8 MiB) comes from a
/// fresh mapping or from recycled heap that `calloc` must zero depends on
/// the process's history: a run of the same code then took 0.3 or 1.0 ms
/// per `attack-campaign` trial, and `tenant-serve` poisoned requests
/// tripled in cost partway through a run. Pinned, every run measures the
/// state the default reaches once segments have been freed: segments
/// below the cap come from the heap, the 64 MiB default heap segment is
/// mapped.
fn pin_malloc() -> Result<(), String> {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20)] {
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before this process starts any other thread.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) failed"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| pin_malloc().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new();
    let (result, op) = match args.workload.as_str() {
        "tenant-serve" => (serve::run(&args, &mut tr), "op.request"),
        "attack-campaign" => (campaign::run(&args, &mut tr), "op.trial"),
        "spec-run" => (spec::run(&args, &mut tr), "op.program"),
        other => {
            eprintln!("hostbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "hostbench: reference kernel median {:.1} us",
        rep.reference.kernel_us()
    );
    let table = if args.trace {
        tr.set_on(false);
        layer_metrics(&mut rep, &tr, op, args.seed);
        if let Err(e) = write_spans(&tr, &args.workload) {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    let mut json = Vec::new();
    for (name, unit) in table {
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<40} {v:>16.4} {unit}");
        json.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted,
        rep.failed,
        json.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and units this binary prints.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{key} count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
