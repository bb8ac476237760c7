//! `spec-run`: every program of `workloads::all()`, run once unhardened
//! and once hardened under AES-10 per pass, each on a fresh VM.
//!
//! A run measures whole passes: the loop ends at the first pass
//! boundary after `--seconds`, so every row has the same sample count.
//! Each row keeps one TRNG and scheduler seed for the whole run, so one
//! interpreter run per row is the oracle for every bytecode run of it.

use std::sync::Arc;

use smokestack_core::{harden, SmokestackConfig};
use smokestack_ir::verify_module;
use smokestack_srng::SchemeKind;
use smokestack_vm::{ExecBackend, Executor, ScriptedInput};

use crate::reference::Reference;
use crate::stats::{self, geomean_of_medians, median, mix, ratio, Digest};
use crate::trace::Tracer;
use crate::{count_run, set_up_repeatedly, Args, Clock, Ops, Report};

/// The latency tail percentile: a pass is 42 runs, so p90 leaves at
/// least ten samples beyond it from the third pass on.
const TAIL_PCT: f64 = 90.0;

/// One program under one build: unhardened or Smokestack AES-10.
struct Row {
    name: &'static str,
    hardened: bool,
    exec: Executor,
    seed: u64,
}

fn set_up(seed: u64, tr: &mut Tracer) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (pi, w) in smokestack_workloads::all().into_iter().enumerate() {
        let base = tr
            .span("minic.compile", || w.compile())
            .map_err(|e| format!("compile {}: {e}", w.name))?;
        let mut hardened = base.clone();
        tr.span("smokestack.harden", || {
            harden(&mut hardened, &SmokestackConfig::default())
        })
        .map_err(|e| format!("harden {}: {e:?}", w.name))?;
        let run_seed = mix(seed, pi as u64);
        for (module, is_hardened) in [(base, false), (hardened, true)] {
            tr.span("ir.verify", || verify_module(&module))
                .map_err(|e| format!("{}: {e:?}", w.name))?;
            let exec = Executor::for_module(Arc::new(module))
                .scheme(SchemeKind::Aes10)
                .sched_seed(mix(run_seed, 0x5c4e))
                .build();
            let image = tr.span("vm.lower", || exec.compiled());
            tr.count("code_len", image.code_len() as f64);
            rows.push(Row {
                name: w.name,
                hardened: is_hardened,
                exec,
                seed: run_seed,
            });
        }
    }
    Ok(rows)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let mut reference = Reference::default();
    let (rows, setup_s) = set_up_repeatedly(args, tr, &mut reference, |tr| set_up(args.seed, tr))?;

    let mut rep = Report::default();
    let mut ops = Ops::default();
    let mut digests: Vec<Vec<Digest>> = vec![Vec::new(); rows.len()];
    let mut clock = Clock::start(args, reference);
    let mut passes = 0u32;
    // Traced runs alternate passes, so they need at least two.
    while clock.running() || passes < 1 + u32::from(args.trace) {
        let measured = clock.measuring();
        let traced = args.trace && measured && passes % 2 == 1;
        tr.set_on(traced);
        for (ri, row) in rows.iter().enumerate() {
            let (out, wall) = tr.op("op.program", |tr| {
                let mut vm = tr.span("vm.spawn", || row.exec.vm_seeded(row.seed));
                tr.span("vm.run", || vm.run_main_with(&mut ScriptedInput::empty()))
            });
            clock.pace();
            if !measured {
                continue;
            }
            rep.attempted += 1;
            ops.push(wall, ri, traced);
            count_run(tr, &out);
            if row.hardened {
                tr.count("aes10.draws", out.rng_invocations as f64);
                tr.count("aes10.wall_ns", wall as f64);
            }
            digests[ri].push(Digest::of(&out));
        }
        passes += u32::from(measured);
    }
    let loop_s = clock.measured_s();
    rep.reference = clock.into_reference();
    // End-to-end walls go on the reference clock; the traced run's stay
    // in host time, like its spans.
    if !args.trace {
        ops.to_reference(&rep.reference);
    }
    rep.set("peak_rss_mib", stats::peak_rss_mib());
    tr.set_on(false);

    // Oracle, outside the timed loop: the interpreter run of the same
    // build and seeds must match every bytecode run exactly.
    for (row, got) in rows.iter().zip(&digests) {
        let interp = row.exec.clone().with_backend(ExecBackend::Interp);
        let want = Digest::of(
            &interp
                .vm_seeded(row.seed)
                .run_main_with(&mut ScriptedInput::empty()),
        );
        let bad = got
            .iter()
            .filter(|d| **d != want || !d.exit.is_clean())
            .count();
        if bad > 0 {
            eprintln!(
                "hostbench: {} (hardened: {}) diverged in {bad} runs: {want:?}",
                row.name, row.hardened
            );
        }
        rep.failed += bad as u64;
    }

    let (rows, ops) = (&rows, &ops);
    let rows_where = |hardened: bool| {
        (0..rows.len())
            .filter(move |r| rows[*r].hardened == hardened)
            .map(move |r| ops.walls_where(|k| k == r))
    };
    rep.set("ops_per_s", ops.median_rate());
    rep.set("latency_p50_us", median(&ops.wall_us));
    rep.set("latency_tail_us", stats::tail(&ops.wall_us, TAIL_PCT));
    rep.set(
        "run_ms_geomean",
        geomean_of_medians((0..rows.len()).map(|r| ops.walls_where(|k| k == r)), 1e-3),
    );
    rep.set("setup_s", setup_s);

    let hard = geomean_of_medians(rows_where(true), 1e-3);
    let base = geomean_of_medians(rows_where(false), 1e-3);
    rep.set("spec.hardened.run_ms_geomean", hard);
    rep.set("spec.base.run_ms_geomean", base);
    rep.set("spec.host_overhead", ratio(hard, base));
    rep.set("bench.ops_per_s_mean", ops.wall_us.len() as f64 / loop_s);
    rep.set("bench.trace_overhead", ops.trace_overhead());
    Ok(rep)
}
