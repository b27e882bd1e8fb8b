//! `gx01_solve`: cold-start standalone solves on the scaled 0.1° grid.
//!
//! Closed loop, one caller, serial world: the plain single-threaded
//! baseline. Solver, preconditioner and stencil do all the work through
//! the fused single-RHS engine; the ocean model, the service and the
//! batched engine stay idle.

use crate::layers::{manufactured, ocean_norm, vec_bytes, Layers, SolveRecord, COMBOS};
use crate::ledger::Ledger;
use crate::report::{mean, median, Fate, Tally};
use crate::{closed_loop, Run, RunSpec};
use pop_comm::{CommWorld, DistLayout, DistVec, StatsSnapshot};
use pop_core::fingerprint::operator_fingerprint;
use pop_core::lanczos::estimate_bounds;
use pop_core::setup::OperatorState;
use pop_core::solvers::SolverConfig;
use pop_grid::Grid;
use pop_ocean::SolverSetup;
use pop_stencil::NinePoint;
use std::sync::Arc;
use std::time::Instant;

/// The grid is fixed; the seed only draws the manufactured solutions, so
/// iteration counts (and so the work per solve) do not move with it.
const GRID_SEED: u64 = 2015;
const NX: usize = 360;
const NY: usize = 240;
const BX: usize = 36;
const BY: usize = 24;
const TAU: f64 = 345.6;
const TOL: f64 = 1e-13;
/// Bound on ‖x − x*‖/‖x*‖: tolerance times a condition-number margin.
const ERR_BOUND: f64 = 1e-9;
const SETUP_REPS: usize = 5;
/// Solver work vectors counted in the computed working set.
const WORK_VECS: u64 = 6;

struct Stack {
    op: NinePoint,
    setups: Vec<SolverSetup>,
}

/// Grid, decomposition, operator, and one ready solver per combination.
/// The same steps as `SolverSetup::new`, split so each layer gets a span.
fn build(world: &CommWorld, ledger: &mut Ledger) -> Stack {
    let root = ledger.open("setup", "", None);
    let ((grid, layout), _) = ledger.time("grid.build", "", root, || {
        let grid = Grid::gx01_scaled(GRID_SEED, NX, NY);
        let layout = DistLayout::build(&grid, BX, BY);
        (grid, layout)
    });
    let (op, _) = ledger.time("stencil.assemble", "", root, || {
        NinePoint::assemble(&grid, &layout, world, TAU)
    });
    let setups = COMBOS
        .iter()
        .map(|c| {
            let choice = c.choice();
            let spec = choice.precond_spec();
            let (precond, _) = ledger.time("precond.build", spec.label(), root, || spec.build(&op));
            let (bounds, lanczos_steps) = if choice.is_pcsi() {
                let ((b, steps), _) = ledger.time("lanczos", spec.label(), root, || {
                    estimate_bounds(
                        &op,
                        precond.as_ref(),
                        world,
                        &crate::layers::setup_lanczos(),
                    )
                });
                (Some(b), steps)
            } else {
                (None, 0)
            };
            let state = Arc::new(OperatorState {
                fingerprint: operator_fingerprint(&op),
                spec,
                precond,
                bounds,
                lanczos_steps,
            });
            SolverSetup::from_state(choice, state)
        })
        .collect();
    ledger.close(root);
    Stack { op, setups }
}

pub fn run(spec: &RunSpec, ledger: &mut Ledger) -> Result<Run, String> {
    let world = CommWorld::serial();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(build(&world, ledger));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Stack { op, setups } = stack.expect("SETUP_REPS >= 1");

    let layout = Arc::clone(&op.layout);
    let mut x_star = DistVec::zeros(&layout);
    let mut b = DistVec::zeros(&layout);
    let mut x = DistVec::zeros(&layout);
    let mut ax = DistVec::zeros(&layout);
    let cfg = SolverConfig {
        tol: TOL,
        max_iters: 20_000,
        ..SolverConfig::default()
    };

    let mut tally = Tally::default();
    let mut oks = Vec::new();
    let mut records: Vec<SolveRecord> = Vec::new();
    let mut restarts = 0usize;
    let mut comm = StatsSnapshot::default();
    // Per combination: [untraced, traced] solve times, for the overhead.
    let mut by_trace: [[Vec<f64>; 2]; 3] = Default::default();
    ledger.set_enabled(false);

    let times = closed_loop(spec.seconds, COMBOS.len(), |i| {
        let combo = COMBOS[i % COMBOS.len()];
        let traced = spec.trace && (i / COMBOS.len()) % 2 == 1;
        ledger.set_enabled(traced);
        let solve_seed = spec
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64);
        manufactured(&op, &world, solve_seed, &mut x_star, &mut b);
        x.set_zero();

        let c0 = world.stats();
        let t0 = Instant::now();
        let st = setups[combo.index()].solve(&op, &world, &b, &mut x, &cfg);
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        ledger.add("solver.solve", combo.label(), None, t0, t1);
        let d = world.stats().since(&c0);
        comm.allreduces += d.allreduces;
        comm.halo_updates += d.halo_updates;
        comm.halo_bytes += d.halo_bytes;

        // Output check, outside the timed call: an independent residual
        // through the reference kernel, and the error against x*.
        world.halo_update(&mut x);
        op.apply_reference(&world, &x, &mut ax);
        ax.axpy(-1.0, &b);
        let rel_res = ocean_norm(&ax) / ocean_norm(&b);
        x.axpy(-1.0, &x_star);
        let rel_err = ocean_norm(&x) / ocean_norm(&x_star);
        let fate = if !st.converged {
            Fate::Failed
        } else if rel_res <= TOL && rel_err <= ERR_BOUND {
            Fate::Ok { latency_s: secs }
        } else {
            eprintln!(
                "gx01_solve: wrong answer on solve {i} ({}): residual {rel_res:e}, error {rel_err:e}",
                combo.label()
            );
            Fate::Wrong
        };
        oks.push(matches!(fate, Fate::Ok { .. }));
        tally.add(fate, f64::INFINITY);
        restarts += st.restarts;
        records.push(SolveRecord {
            combo,
            secs,
            iterations: st.iterations,
            matvecs: st.matvecs,
            precond_applies: st.precond_applies,
        });
        by_trace[combo.index()][usize::from(traced)].push(secs);
        secs
    })?;
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    let n = times.len() as f64;

    let ops_per_s = crate::median_rate(&times, &oks, COMBOS.len());
    let e2e = crate::end_to_end(&setup_times, &times, &tally, ops_per_s, peak_rss_mb)?;

    let layers = if spec.trace {
        ledger.set_enabled(true);
        let mut l = Layers {
            grid_build_s: median(&ledger.durations("grid.build", "")),
            stencil_assemble_s: median(&ledger.durations("stencil.assemble", "")),
            stencil_apply_us: crate::layers::stencil_apply_us(&op, &world),
            stencil_apply_bytes: crate::layers::apply_bytes(&op),
            stencil_matvecs_per_op: mean(
                &records.iter().map(|r| r.matvecs as f64).collect::<Vec<_>>(),
            ),
            precond_applies_per_op: mean(
                &records
                    .iter()
                    .map(|r| r.precond_applies as f64)
                    .collect::<Vec<_>>(),
            ),
            lanczos_s: mean(&ledger.durations("lanczos", "")),
            lanczos_steps: mean(
                &setups
                    .iter()
                    .filter(|s| s.choice().is_pcsi())
                    .map(|s| s.lanczos_steps as f64)
                    .collect::<Vec<_>>(),
            ),
            solver_restarts: restarts as f64,
            solver_unconverged: tally.failed as f64,
            comm_allreduces_per_op: comm.allreduces as f64 / n,
            comm_halo_updates_per_op: comm.halo_updates as f64 / n,
            comm_halo_bytes_per_op: comm.halo_bytes as f64 / n,
            comm_pool_threads: world.threads() as f64,
            fail_frac: tally.fail_frac(),
            trace_overhead_frac: crate::layers::trace_overhead(&by_trace),
            ..Layers::default()
        };
        for (p, pspec) in crate::layers::PRECONDS.iter().enumerate() {
            l.precond_build_s[p] = median(&ledger.durations("precond.build", pspec.label()));
        }
        for combo in COMBOS {
            l.precond_apply_us[combo.precond()] = crate::layers::precond_apply_us(
                setups[combo.index()].preconditioner(),
                &op,
                &world,
            );
        }
        l.fill_solvers(&records);
        Some(l)
    } else {
        None
    };

    Ok(Run {
        tally,
        e2e,
        layers,
        samples: times.len(),
        working_set_bytes: vec_bytes(&x) * (4 + 4 + WORK_VECS),
    })
}
