//! `attack-campaign`: the campaign `matrix` plan's cells and trial
//! seeds, each trial run through `attacks::run_trial` on a per-cell
//! build, one trial of every cell per round. Builds and trial seeds
//! are the pinned plan's own; `--seed` picks the trial index the rounds
//! start from.
//!
//! About one in six `xthread-toctou-race` trials under AES-10 and
//! RDRAND (one trial in fifty overall) ends `Crashed(OutOfFuel)` after
//! ~3 s of dispatch, and those trials take most of the wall time. They stay in the workload and are counted by
//! `attacks.out_of_fuel` and `attacks.out_of_fuel.wall_share`.

use std::sync::Mutex;

use smokestack_attacks::{run_trial, Attack, AttackOutcome, Build};
use smokestack_campaign::{build_seed, trial_seed, CampaignPlan};
use smokestack_core::SmokestackConfig;
use smokestack_defenses::deploy_configured;
use smokestack_ir::verify_module;
use smokestack_minic::compile;
use smokestack_vm::{ExecBackend, FaultKind};

use crate::reference::Reference;
use crate::stats::{self, geomean_of_medians, median, mix, ratio};
use crate::trace::Tracer;
use crate::{set_up_repeatedly, Args, Clock, Ops, Report};

/// The latency tail percentile. The slowest few percent of trials are
/// the fuel-exhausted ones (~3 s) and librelp trials that retry after
/// aborted attempts; how many of each a run draws varies, and any
/// percentile from p90 up moves with it. p85 is the highest that stays
/// below them.
const TAIL_PCT: f64 = 85.0;

/// One trial in this many is replayed on the interpreter backend.
const ORACLE_EVERY: u64 = 32;

struct Cell {
    attack: Box<dyn Attack>,
    build: Build,
}

/// Compile, deploy, verify and lower every cell of the plan, as
/// `Build::new` does but with each step timed.
fn set_up(plan: &CampaignPlan, tr: &mut Tracer) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (ci, spec) in plan.cells.iter().enumerate() {
        let attack = smokestack_attacks::by_name(&spec.attack)
            .ok_or_else(|| format!("unknown attack `{}`", spec.attack))?;
        let mut module = tr
            .span("minic.compile", || compile(attack.source()))
            .map_err(|e| format!("compile {}: {e}", spec.attack))?;
        let seed = build_seed(plan.master_seed, u32::try_from(ci).expect("cell fits u32"));
        let deployment = tr.span("defenses.deploy", || {
            deploy_configured(
                spec.defense,
                &mut module,
                seed,
                0,
                &SmokestackConfig::default(),
            )
        });
        tr.span("ir.verify", || verify_module(&module))
            .map_err(|e| format!("cell {ci}: {e:?}"))?;
        let build = Build::from_deployed(module, spec.defense, deployment, seed);
        let image = tr.span("vm.lower", || build.executor().compiled());
        tr.count("code_len", image.code_len() as f64);
        cells.push(Cell { attack, build });
    }
    Ok(cells)
}

/// An attack whose every attempt is a span, so `run_trial` itself stays
/// the program's code.
struct TracedAttack<'a> {
    inner: &'a dyn Attack,
    tr: Mutex<&'a mut Tracer>,
}

impl Attack for TracedAttack<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn source(&self) -> &str {
        self.inner.source()
    }

    fn attempt(&self, build: &Build, trial_seed: u64) -> AttackOutcome {
        let mut tr = self.tr.lock().expect("single-threaded tracer lock");
        let outcome = tr.span("attacks.attempt", || self.inner.attempt(build, trial_seed));
        tr.count("attempts", 1.0);
        tr.count(
            "aborted",
            f64::from(u8::from(outcome == AttackOutcome::Aborted)),
        );
        outcome
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let plan = CampaignPlan::matrix();
    let first = u32::try_from(mix(args.seed, 0xca4f) % u64::from(plan.cells[0].trials))
        .expect("trial index fits u32");

    let mut reference = Reference::default();
    let (cells, setup_s) = set_up_repeatedly(args, tr, &mut reference, |tr| set_up(&plan, tr))?;
    // Spawn cost of the default geometry the attempts use, which spawn
    // their VMs out of reach of the benchmark's spans.
    for (ci, cell) in cells.iter().enumerate() {
        drop(tr.span("vm.spawn", || cell.build.vm(mix(args.seed, ci as u64))));
    }

    let mut rep = Report::default();
    let mut ops = Ops::default();
    let mut samples = Vec::new();
    let (mut oof, mut oof_us) = (0u64, 0.0);
    let mut clock = Clock::start(args, reference);
    let (mut round, mut measured_rounds) = (0u32, 0u32);
    // Traced runs alternate rounds, so they need at least two.
    let more = |clock: &Clock, rounds: u32| clock.running() || (args.trace && rounds < 2);
    while more(&clock, measured_rounds) {
        let measured = clock.measuring();
        let traced = args.trace && measured && measured_rounds % 2 == 1;
        tr.set_on(traced);
        for (ci, cell) in cells.iter().enumerate() {
            if !more(&clock, measured_rounds) {
                break;
            }
            let ci32 = u32::try_from(ci).expect("cell fits u32");
            let index = (first + round) % plan.cells[ci].trials;
            let seed = trial_seed(plan.master_seed, ci32, index);
            let (run, wall) = tr.op("op.trial", |tr| {
                if tr.is_on() {
                    let traced = TracedAttack {
                        inner: &*cell.attack,
                        tr: Mutex::new(tr),
                    };
                    run_trial(&traced, &cell.build, seed)
                } else {
                    run_trial(&*cell.attack, &cell.build, seed)
                }
            });
            clock.pace();
            if !measured {
                continue;
            }
            rep.attempted += 1;
            ops.push(wall, ci, traced);
            tr.count("trials", 1.0);
            if run.outcome == AttackOutcome::Crashed(FaultKind::OutOfFuel) {
                oof += 1;
                oof_us += wall as f64 / 1e3;
            }
            if mix(args.seed ^ u64::from(ci32), u64::from(index)).is_multiple_of(ORACLE_EVERY) {
                samples.push((ci, seed, run));
            }
        }
        round += 1;
        measured_rounds += u32::from(measured);
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

    // Oracle, outside the timed loop: sampled trials replayed on the
    // interpreter backend must reach the same outcome in as many rounds.
    for (ci, seed, run) in samples {
        let cell = &cells[ci];
        let interp = cell.build.clone().with_backend(ExecBackend::Interp);
        let want = run_trial(&*cell.attack, &interp, seed);
        if want != run {
            eprintln!("hostbench: cell {ci} seed {seed:#x}: {run:?} vs interpreter {want:?}");
            rep.failed += 1;
        }
    }

    rep.set("ops_per_s", ops.median_rate());
    rep.set("latency_p50_us", median(&ops.wall_us));
    rep.set("latency_tail_us", stats::tail(&ops.wall_us, TAIL_PCT));
    rep.set(
        "run_ms_geomean",
        geomean_of_medians((0..cells.len()).map(|c| ops.walls_where(|k| k == c)), 1e-3),
    );
    rep.set("setup_s", setup_s);

    rep.set(
        "attacks.attempts_per_trial",
        ratio(tr.counter("attempts"), tr.counter("trials")),
    );
    rep.set(
        "attacks.aborted_ratio",
        ratio(tr.counter("aborted"), tr.counter("attempts")),
    );
    rep.set("attacks.out_of_fuel", oof as f64);
    rep.set(
        "attacks.out_of_fuel.wall_share",
        ratio(oof_us, ops.total_us()),
    );
    rep.set("bench.ops_per_s_mean", ops.wall_us.len() as f64 / loop_s);
    rep.set("bench.trace_overhead", ops.trace_overhead());
    Ok(rep)
}
