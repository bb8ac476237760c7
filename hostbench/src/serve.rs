//! `tenant-serve`: the `serve` load plan's schedule replayed by one
//! closed-loop client against 1,050 resident tenant VMs.
//!
//! The plan, its builds and its 1M-request schedule are the pinned
//! `load` plan's own; `--seed` picks where in the schedule the replay
//! starts, so runs differ in which requests they serve but not in the
//! builds or the traffic mix.
//!
//! Each request is served the way `serve::engine` serves it: a benign
//! request respawns the tenant's resident VM and runs `main` (the two
//! halves of `Session::run_main_configured`, called separately so the
//! traced run can time each), a poisoned one runs `Attack::attempt`
//! against the cell's build.

use std::sync::Arc;

use smokestack_attacks::{Attack, Build};
use smokestack_core::SmokestackConfig;
use smokestack_defenses::{deploy_configured, DefenseKind};
use smokestack_ir::verify_module;
use smokestack_minic::compile;
use smokestack_serve::{apps, traffic, Request, ServePlan};
use smokestack_srng::SchemeKind;
use smokestack_vm::{ExecBackend, Executor, Exit, MemConfig, ScriptedInput, Vm};

use crate::reference::Reference;
use crate::stats::{self, geomean_of_medians, median, mix, ratio, Digest};
use crate::trace::Tracer;
use crate::{count_run, set_up_repeatedly, Args, Clock, Ops, Report};

/// Fleet metric names, in the order of the load plan's fleets.
const FLEETS: [(&str, &str); 5] = [
    ("none", "serve.fleet.none.latency_p50_us"),
    ("stack-canary", "serve.fleet.canary.latency_p50_us"),
    ("smokestack/AES-10", "serve.fleet.aes10.latency_p50_us"),
    ("smokestack/RDRAND", "serve.fleet.rdrand.latency_p50_us"),
    (
        "smokestack/AES-10+prune",
        "serve.fleet.aes10-prune.latency_p50_us",
    ),
];

/// One benign request in this many is re-run on a fresh interpreter VM.
const ORACLE_EVERY: u64 = 512;

/// The resident-session memory geometry of `serve::engine`.
fn serve_mem() -> MemConfig {
    MemConfig {
        rodata_size: 1 << 20,
        data_size: 1 << 20,
        heap_size: 8 << 20,
        stack_size: 4 << 20,
    }
}

/// One deployed (fleet, app) cell.
struct Cell {
    aes10: bool,
    build: Build,
    serve_exec: Executor,
    attacks: Vec<Box<dyn Attack>>,
    benign: Vec<Vec<u8>>,
}

struct State {
    cells: Vec<Cell>,
    vms: Vec<Vm>,
    /// Resident set just before the tenant VMs were spawned.
    rss_before_kib: u64,
}

/// Compile each app, deploy every cell, lower its image, and spawn one
/// resident VM per tenant.
fn set_up(plan: &ServePlan, tr: &mut Tracer) -> Result<State, String> {
    let mut bases = Vec::new();
    for name in &plan.apps {
        let app = apps::by_name(name).ok_or_else(|| format!("unknown app `{name}`"))?;
        let module = tr
            .span("minic.compile", || compile(app.source))
            .map_err(|e| format!("compile {name}: {e}"))?;
        bases.push((app, module));
    }
    let mut cells = Vec::new();
    for (fi, fleet) in plan.fleets.iter().enumerate() {
        for (ai, (app, base)) in bases.iter().enumerate() {
            let build_seed = traffic::cell_build_seed(plan, fi, ai);
            let mut module = base.clone();
            let cfg = SmokestackConfig {
                prune_safe_slots: fleet.pruned,
                ..SmokestackConfig::default()
            };
            let deployment = tr.span("defenses.deploy", || {
                deploy_configured(fleet.defense, &mut module, build_seed, 0, &cfg)
            });
            tr.span("ir.verify", || verify_module(&module))
                .map_err(|e| format!("cell {}/{}: {e:?}", fleet.label(), app.name))?;
            let module = Arc::new(module);
            let serve_exec = Executor::for_module(Arc::clone(&module))
                .scheme(fleet.defense.scheme())
                .mem(serve_mem())
                .build();
            let image = tr.span("vm.lower", || serve_exec.compiled());
            tr.count("code_len", image.code_len() as f64);
            let attacks = app
                .attack_names()
                .iter()
                .map(|n| smokestack_attacks::by_name(n).ok_or_else(|| format!("attack {n}")))
                .collect::<Result<_, _>>()?;
            cells.push(Cell {
                aes10: fleet.defense == DefenseKind::Smokestack(SchemeKind::Aes10),
                build: Build::from_deployed(module, fleet.defense, deployment, build_seed),
                serve_exec,
                attacks,
                benign: app.benign_chunks(),
            });
        }
    }
    let rss_before_kib = stats::status_kib("VmRSS").unwrap_or(0);
    let vms = (0..plan.tenants)
        .map(|t| {
            let (f, a) = traffic::tenant_cell(plan, t);
            let exec = &cells[f * plan.apps.len() + a].serve_exec;
            tr.span("vm.spawn", || exec.vm())
        })
        .collect();
    Ok(State {
        cells,
        vms,
        rss_before_kib,
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let plan = ServePlan::load();
    let first = mix(args.seed, 0x5e7e) % plan.requests;
    let labels: Vec<String> = plan.fleets.iter().map(|f| f.label()).collect();
    if labels
        .iter()
        .map(String::as_str)
        .ne(FLEETS.iter().map(|f| f.0))
    {
        return Err(format!("unexpected serve fleets {labels:?}"));
    }
    let apps = plan.apps.len();
    let tenants = plan.tenants as usize;

    let mut reference = Reference::default();
    let (state, setup_s) = set_up_repeatedly(args, tr, &mut reference, |tr| set_up(&plan, tr))?;
    let State {
        cells,
        mut vms,
        rss_before_kib,
    } = state;

    let mut rep = Report::default();
    let mut ops = Ops::default();
    let mut samples = Vec::new();
    let mut touched = vec![false; tenants];
    let mut touched_count = 0usize;
    let mut rss_per_tenant_kib = None;
    let rss_growth_kib = || {
        let now = stats::status_kib("VmRSS").unwrap_or(0);
        now.saturating_sub(rss_before_kib) as f64
    };
    let mut clock = Clock::start(args, reference);
    let mut served_count = 0u64;
    while clock.running() {
        let i = (first + served_count) % plan.requests;
        served_count += 1;
        let measured = clock.measuring();
        // One request in eight is traced: every other one would write
        // well over 100 MB of spans per run.
        let traced = args.trace && measured && ops.wall_us.len() % 8 == 7;
        tr.set_on(traced);
        // The closure hands the benign run's outcome out of the timed
        // region; a poisoned request yields `None`.
        let ((req, cell, benign), wall) = tr.op("op.request", |tr| {
            let (req, cell, wake) = tr.span("serve.traffic", || {
                let req = Request::at(&plan, i);
                let (fleet, app) = traffic::tenant_cell(&plan, req.tenant);
                let wake = !req.poisoned && traffic::in_attack_wake(&plan, i, fleet);
                (req, fleet * apps + app, wake)
            });
            std::hint::black_box(wake);
            let c = &cells[cell];
            if req.poisoned {
                let pick = usize::try_from(req.attack_pick % c.attacks.len() as u64)
                    .expect("pick fits usize");
                let attack = &c.attacks[pick];
                std::hint::black_box(
                    tr.span("attacks.attempt", || attack.attempt(&c.build, req.seed)),
                );
                return (req, cell, None);
            }
            let vm = &mut vms[req.tenant as usize];
            let offset = c.build.run_offset(req.seed);
            let mut input = ScriptedInput::new(c.benign.clone());
            tr.span("vm.respawn", || vm.respawn_configured(req.seed, offset));
            let out = tr.span("vm.run", || vm.run_main_with(&mut input));
            (req, cell, Some((offset, out)))
        });
        let tenant = req.tenant as usize;
        if benign.is_some() && !touched[tenant] {
            touched[tenant] = true;
            touched_count += 1;
            if touched_count == tenants {
                rss_per_tenant_kib = Some(rss_growth_kib() / tenants as f64);
            }
        }
        clock.pace();
        if !measured {
            continue;
        }
        rep.attempted += 1;
        let Some((offset, out)) = benign else {
            ops.push(wall, cell * 2 + 1, traced);
            continue;
        };
        ops.push(wall, cell * 2, traced);
        if out.exit != Exit::Return(0) {
            eprintln!("hostbench: request {i} exited {:?}", out.exit);
            rep.failed += 1;
        } else if mix(args.seed, i).is_multiple_of(ORACLE_EVERY) {
            samples.push((i, cell, req.seed, offset, Digest::of(&out)));
        }
        count_run(tr, &out);
        if cells[cell].aes10 {
            tr.count("aes10.draws", out.rng_invocations as f64);
            tr.count("aes10.wall_ns", wall as f64);
        }
    }
    let loop_s = clock.measured_s();
    rep.reference = clock.into_reference();
    // End-to-end walls go on the reference clock; the traced run's stay
    // in host time, like its spans.
    if !args.trace {
        ops.to_reference(&rep.reference);
    }
    rep.set("peak_rss_mib", stats::peak_rss_mib());
    let rss_per_tenant_kib =
        rss_per_tenant_kib.unwrap_or_else(|| ratio(rss_growth_kib(), touched_count as f64));
    tr.set_on(false);

    // Oracle, outside the timed loop: sampled benign requests re-run on
    // a fresh interpreter VM must match the resident bytecode VM.
    for (i, cell, seed, offset, digest) in samples {
        let c = &cells[cell];
        let interp = c.serve_exec.clone().with_backend(ExecBackend::Interp);
        let mut input = ScriptedInput::new(c.benign.clone());
        let want = Digest::of(&interp.vm_configured(seed, offset).run_main_with(&mut input));
        if want != digest {
            eprintln!(
                "hostbench: request {i} diverged from the interpreter: {digest:?} vs {want:?}"
            );
            rep.failed += 1;
        }
    }

    let all = &ops.wall_us;
    rep.set("ops_per_s", ops.median_rate());
    rep.set("latency_p50_us", median(all));
    rep.set("latency_tail_us", stats::tail(all, 99.0));
    rep.set(
        "run_ms_geomean",
        geomean_of_medians(
            (0..cells.len()).map(|c| ops.walls_where(|k| k / 2 == c)),
            1e-3,
        ),
    );
    rep.set("setup_s", setup_s);

    for (fi, (_, metric)) in FLEETS.iter().enumerate() {
        rep.set(metric, median(&ops.walls_where(|k| k / 2 / apps == fi)));
    }
    let poisoned = ops.walls_where(|k| k % 2 == 1);
    rep.set(
        "serve.benign.latency_p50_us",
        median(&ops.walls_where(|k| k % 2 == 0)),
    );
    rep.set("serve.poisoned.latency_p50_us", median(&poisoned));
    rep.set(
        "serve.poisoned.wall_share",
        ratio(poisoned.iter().sum(), ops.total_us()),
    );
    rep.set("serve.rss_per_tenant_kib", rss_per_tenant_kib);
    rep.set("bench.ops_per_s_mean", all.len() as f64 / loop_s);
    rep.set("bench.trace_overhead", ops.trace_overhead());
    Ok(rep)
}
