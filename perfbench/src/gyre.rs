//! `gyre_step`: the mini-POP eddying double gyre, one `MiniPop::step` per
//! operation.
//!
//! Closed loop, one caller, threaded world on the global pool (sized to
//! the host). The in-loop P-CSI + EVP solves are short and warm-started,
//! with the convergence check on every iteration, so allreduces track
//! iterations. The only workload that runs the ocean layer and the
//! threaded communication pool.

use crate::layers::{setup_lanczos, vec_bytes, Combo, Layers, SolveRecord};
use crate::ledger::Ledger;
use crate::report::{mean, median, Fate, Tally};
use crate::{closed_loop, Run, RunSpec};
use pop_comm::{CommWorld, DistVec, StatsSnapshot};
use pop_core::lanczos::estimate_bounds;
use pop_core::setup::PrecondSpec;
use pop_grid::Grid;
use pop_ocean::{MiniPop, MiniPopConfig, SolverChoice};
use pop_stencil::NinePoint;
use std::time::Instant;

const NX: usize = 192;
const NY: usize = 144;
const DEPTH_M: f64 = 500.0;
const SPACING_M: f64 = 2.0e4;
/// Relative size of the seeded initial-temperature perturbation.
const PERTURBATION: f64 = 1e-6;
/// Largest |mean surface height| (m) still counted as round-off drift.
const VOLUME_BOUND_M: f64 = 1e-8;
/// Set-up takes a few tens of ms, so it is repeated often enough for a
/// steady median.
const SETUP_REPS: usize = 15;
/// Solver work vectors counted in the computed working set.
const WORK_VECS: u64 = 6;

fn build(world: &CommWorld, seed: u64, ledger: &mut Ledger) -> MiniPop {
    let root = ledger.open("setup", "", None);
    let (grid, _) = ledger.time("grid.build", "", root, || {
        Grid::idealized_basin(NX, NY, DEPTH_M, SPACING_M)
    });
    let mut cfg = MiniPopConfig::eddying_for(&grid);
    cfg.solver = SolverChoice::PcsiEvp;
    let (mut model, _) = ledger.time("ocean.model_new", "", root, || {
        MiniPop::new(grid, cfg, world)
    });
    model.perturb_temperature(PERTURBATION, seed);
    ledger.close(root);
    model
}

pub fn run(spec: &RunSpec, ledger: &mut Ledger) -> Result<Run, String> {
    let world = CommWorld::threaded();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut model = None;
    for _ in 0..SETUP_REPS {
        drop(model.take());
        let t = Instant::now();
        model = Some(build(&world, spec.seed, ledger));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut model = model.expect("SETUP_REPS >= 1");

    let mut tally = Tally::default();
    let mut oks = Vec::new();
    let mut iters = Vec::new();
    let mut matvecs = Vec::new();
    let mut applies = Vec::new();
    let mut restarts = 0usize;
    let mut comm = StatsSnapshot::default();
    let mut by_trace: [[Vec<f64>; 2]; 1] = Default::default();
    ledger.set_enabled(false);

    let times = closed_loop(spec.seconds, 1, |i| {
        let traced = spec.trace && i % 2 == 1;
        ledger.set_enabled(traced);
        let c0 = world.stats();
        let t0 = Instant::now();
        model.step(&world);
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        ledger.add("ocean.step", "", None, t0, t1);
        let d = world.stats().since(&c0);
        comm.allreduces += d.allreduces;
        comm.halo_updates += d.halo_updates;
        comm.halo_bytes += d.halo_bytes;

        // Output check, outside the timed call.
        let st = model
            .barotropic
            .last_stats
            .as_ref()
            .expect("a step runs one solve");
        let drift = model.mean_eta().abs();
        let fate = if !st.converged {
            Fate::Failed
        } else if model.is_healthy() && drift <= VOLUME_BOUND_M {
            Fate::Ok { latency_s: secs }
        } else {
            eprintln!("gyre_step: step {i} unhealthy or volume drift {drift:e} m");
            Fate::Wrong
        };
        oks.push(matches!(fate, Fate::Ok { .. }));
        tally.add(fate, f64::INFINITY);
        iters.push(st.iterations as f64);
        matvecs.push(st.matvecs as f64);
        applies.push(st.precond_applies as f64);
        restarts += st.restarts;
        by_trace[0][usize::from(traced)].push(secs);
        secs
    })?;
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    let n = times.len() as f64;
    let step_s = mean(&times);
    let ops_per_s = crate::median_rate(&times, &oks, 1);
    let e2e = crate::end_to_end(&setup_times, &times, &tally, ops_per_s, peak_rss_mb)?;

    let layers = if spec.trace {
        ledger.set_enabled(true);
        let op = &model.barotropic.op;
        let mut l = Layers {
            grid_build_s: median(&ledger.durations("grid.build", "")),
            stencil_apply_us: crate::layers::stencil_apply_us(op, &world),
            stencil_apply_bytes: crate::layers::apply_bytes(op),
            stencil_matvecs_per_op: mean(&matvecs),
            precond_applies_per_op: mean(&applies),
            solver_restarts: restarts as f64,
            solver_unconverged: tally.failed as f64,
            comm_allreduces_per_op: comm.allreduces as f64 / n,
            comm_halo_updates_per_op: comm.halo_updates as f64 / n,
            comm_halo_bytes_per_op: comm.halo_bytes as f64 / n,
            comm_pool_threads: world.threads() as f64,
            ocean_iters_per_step: mean(&iters),
            fail_frac: tally.fail_frac(),
            trace_overhead_frac: crate::layers::trace_overhead(&by_trace),
            ..Layers::default()
        };
        // MiniPop::new assembles internally; time the same assembly on
        // the side.
        let cfg = &model.config;
        let assemble: Vec<f64> = (0..3)
            .map(|_| {
                let (_, s) = ledger.time("stencil.assemble", "", None, || {
                    NinePoint::assemble_with_gravity(
                        &model.grid,
                        &model.barotropic.layout,
                        &world,
                        cfg.tau,
                        cfg.gravity,
                    )
                });
                s
            })
            .collect();
        l.stencil_assemble_s = median(&assemble);
        crate::layers::precond_side(op, &world, 3, &mut l);
        let evp = PrecondSpec::Evp.build(op);
        let ((_, steps), secs) = ledger.time("lanczos", "evp", None, || {
            estimate_bounds(op, evp.as_ref(), &world, &setup_lanczos())
        });
        l.lanczos_s = secs;
        l.lanczos_steps = steps as f64;

        // The solve runs inside MiniPop::step, out of reach of a span. Time
        // cold solves through the model's own barotropic mode on the side,
        // then put the model back as it was.
        let side: Vec<SolveRecord> = (0..3)
            .map(|_| side_solve(&mut model, &world, ledger))
            .collect();
        l.fill_solvers(&side);
        let row = &mut l.solver[Combo::PcsiEvp.index()];
        row.iters_per_op = l.ocean_iters_per_step;
        row.ms = row.iters_per_op * row.us_per_iter / 1e3;
        l.ocean_solve_share_est = row.ms / 1e3 / step_s;
        Some(l)
    } else {
        None
    };

    let grid_bytes = (NX * NY * 8) as u64;
    Ok(Run {
        tally,
        e2e,
        layers,
        samples: times.len(),
        working_set_bytes: grid_bytes * (7 + model.config.nlev as u64)
            + vec_bytes(&model.barotropic.eta) * (4 + 4 + WORK_VECS),
    })
}

/// One cold P-CSI + EVP solve on the model's operator, from a zero surface
/// to the current one, through `BarotropicMode::step`; the model state and
/// counters are restored afterwards.
fn side_solve(model: &mut MiniPop, world: &CommWorld, ledger: &mut Ledger) -> SolveRecord {
    let snap = model.snapshot();
    let (total_iterations, solves, last) = (
        model.barotropic.total_iterations,
        model.barotropic.solves,
        model.barotropic.last_stats.clone(),
    );
    let forecast = DistVec::from_global(&model.barotropic.layout, &snap.eta);
    model.barotropic.eta.set_zero();
    let t0 = Instant::now();
    let st = model.barotropic.step(world, &forecast).clone();
    let t1 = Instant::now();
    ledger.add("solver.solve", Combo::PcsiEvp.label(), None, t0, t1);
    model.restore(&snap);
    model.barotropic.total_iterations = total_iterations;
    model.barotropic.solves = solves;
    model.barotropic.last_stats = last;
    SolveRecord {
        combo: Combo::PcsiEvp,
        secs: (t1 - t0).as_secs_f64(),
        iterations: st.iterations,
        matvecs: st.matvecs,
        precond_applies: st.precond_applies,
    }
}
