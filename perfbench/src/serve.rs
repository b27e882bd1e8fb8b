//! `serve_open`: an open-loop arrival schedule into `pop-serve`.
//!
//! Several scaled 1° operators with Zipf-skewed reuse share a cache that
//! holds fewer entries than the traffic touches, so a minority of
//! requests pay the EVP + Lanczos build on the request path. Tenants ride
//! both priority lanes; interactive ones carry deadlines. A steady base
//! rate below capacity is overlaid with seeded same-operator bursts that
//! briefly exceed it, which is what exercises coalescing. Every rate is a
//! constant here, never derived from a measured service time.
//!
//! Requests are timed from when they were due: (due → submit lag) +
//! `SolveResponse::latency`. `Ticket::wait` blocks and tickets are
//! collected in order, so wall-clock collection would inflate latencies.

use crate::layers::{
    bits_hash, manufactured, setup_lanczos, vec_bytes, Combo, Layers, SolveRecord, SHED_REASONS,
};
use crate::ledger::Ledger;
use crate::report::{mean, median, percentile, Fate, Tally};
use crate::{Run, RunSpec};
use pop_comm::{CommWorld, DistLayout, DistVec, StatsSnapshot};
use pop_core::lanczos::estimate_bounds;
use pop_core::setup::{OperatorState, PrecondSpec};
use pop_core::solvers::{BatchCommSolver, BatchWorkspace, ChronGear, Pcsi, SolverConfig};
use pop_grid::Grid;
use pop_rng::SmallRng;
use pop_serve::{Backend, Priority, ServiceConfig, SolveRequest, SolverService, SolverSpec};
use pop_stencil::NinePoint;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const NX: usize = 96;
const NY: usize = 80;
/// Blocks and tolerance keep one request near 40 ms on a 2-core x86-64
/// host, so a 20 s run holds 600 requests at about half load and p95 is a
/// median over three chunks that each support it.
const BX: usize = 12;
const BY: usize = 10;
/// Operators in the traffic; operator `o` has grid seed `GRID_SEED + o`.
/// Fixed, so the seed moves only traffic. One time step for all keeps
/// their solves alike in cost, so latency percentiles sit inside one
/// population instead of between per-operator clusters.
const N_OPS: usize = 8;
const GRID_SEED: u64 = 2015;
const TAU: f64 = 5000.0;
/// Zipf exponent of operator popularity (operator 0 most popular).
const ZIPF_S: f64 = 1.1;
/// Cache entries. Each operator needs one entry per preconditioner
/// (EVP + bounds for P-CSI, diagonal for ChronGear), so the traffic
/// touches up to 2 × `N_OPS` keys.
const CACHE_CAPACITY: usize = 14;
/// Distinct seeded right-hand sides per operator.
const RHS_PER_OP: usize = 6;
const TOL: f64 = 1e-8;
const WORKERS: usize = 2;
/// Widest coalesced group: one lane group of the batched engine, so a
/// worker's workspace has one size whatever widths it has served.
const MAX_BATCH: usize = 4;
/// Tenants `0..INTERACTIVE_TENANTS` are interactive, the rest batch.
const TENANTS: usize = 6;
const INTERACTIVE_TENANTS: u32 = 4;
const INTERACTIVE_DEADLINE: Duration = Duration::from_secs(1);
/// Share of base-rate requests solved by ChronGear + diagonal; the rest,
/// and every burst, are P-CSI + EVP.
const CHRONGEAR_SHARE: f64 = 0.2;
/// Base arrivals per second of schedule.
const BASE_RATE: f64 = 24.0;
/// Bursts per second of schedule, each `BURST_SIZE` requests on one
/// operator within `BURST_SPREAD_S`.
const BURST_RATE: f64 = 0.75;
const BURST_SIZE: usize = 8;
const BURST_SPREAD_S: f64 = 0.02;
/// A request counts toward goodput only if it finishes this soon after
/// it was due.
const LATENCY_LIMIT_S: f64 = 0.5;
/// Operators whose two cache entries set-up warms, most popular last:
/// as many as the cache holds, so misses come from eviction all through
/// the run rather than from a cold start.
const WARM_OPS: usize = CACHE_CAPACITY / 2;
const SETUP_REPS: usize = 5;
/// Tolerance of the warming requests: the cache key ignores it, and a
/// loose one keeps set-up to the builds it exists to pay for.
const WARM_TOL: f64 = 1e-3;
/// Lead time between the end of set-up and the first due request.
const LEAD: Duration = Duration::from_millis(20);

fn solver_cfg() -> SolverConfig {
    SolverConfig {
        tol: TOL,
        max_iters: 20_000,
        ..SolverConfig::default()
    }
}

fn solver_spec(c: Combo) -> SolverSpec {
    match c {
        Combo::ChronGearDiag => SolverSpec::ChronGear,
        Combo::PcsiEvp | Combo::PcsiMg => SolverSpec::Pcsi,
    }
}

struct Operator {
    op: Arc<NinePoint>,
    rhs: Vec<DistVec>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    at: f64,
    op: usize,
    rhs: usize,
    combo: Combo,
    tenant: u32,
}

/// `n` draws from `weights` with exact largest-remainder counts, in a
/// seeded random order: the mix is the same on every seed, only the order
/// moves.
fn deck(rng: &mut SmallRng, weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in by_remainder.iter().take(n - counts.iter().sum::<usize>()) {
        counts[k] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// The seeded arrival schedule over `seconds`. `BASE_RATE · seconds` base
/// arrivals, one at a uniform offset inside each of as many equal slots,
/// and `BURST_RATE · seconds` bursts, one inside each of as many equal
/// windows. Operator popularity and the solver mix are exact proportions
/// in seeded order, so seeds move arrival times and order, not the load.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e_0b0e_0000_0001);
    let zipf: Vec<f64> = (0..N_OPS)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let n_base = (BASE_RATE * seconds).round() as usize;
    let n_bursts = (BURST_RATE * seconds).round() as usize;
    let base_ops = deck(&mut rng, &zipf, n_base);
    let burst_ops = deck(&mut rng, &zipf, n_bursts);
    let combos = deck(&mut rng, &[1.0 - CHRONGEAR_SHARE, CHRONGEAR_SHARE], n_base);
    let mut out = Vec::with_capacity(n_base + n_bursts * BURST_SIZE);
    let slot = seconds / n_base.max(1) as f64;
    for k in 0..n_base {
        out.push(Arrival {
            at: (k as f64 + rng.gen::<f64>()) * slot,
            op: base_ops[k],
            rhs: rng.gen_range(0..RHS_PER_OP),
            combo: [Combo::PcsiEvp, Combo::ChronGearDiag][combos[k]],
            tenant: rng.gen_range(0..TENANTS) as u32,
        });
    }
    let window = seconds / n_bursts.max(1) as f64;
    for (b, &op) in burst_ops.iter().enumerate() {
        let t0 = b as f64 * window + rng.gen::<f64>() * (window - BURST_SPREAD_S).max(0.0);
        let tenant = rng.gen_range(0..TENANTS) as u32;
        for _ in 0..BURST_SIZE {
            out.push(Arrival {
                at: t0 + rng.gen::<f64>() * BURST_SPREAD_S,
                op,
                rhs: rng.gen_range(0..RHS_PER_OP),
                combo: Combo::PcsiEvp,
                tenant,
            });
        }
    }
    out.sort_by(|a, b| a.at.total_cmp(&b.at));
    out
}

fn request(ops: &[Operator], a: &Arrival) -> SolveRequest {
    let priority = if a.tenant < INTERACTIVE_TENANTS {
        Priority::Interactive
    } else {
        Priority::Batch
    };
    SolveRequest::new(
        a.tenant,
        Arc::clone(&ops[a.op].op),
        solver_spec(a.combo),
        a.combo.choice().precond_spec(),
        ops[a.op].rhs[a.rhs].clone(),
    )
    .with_tol(TOL)
    .with_priority(priority)
}

/// Operators, their right-hand sides, and a started service whose cache
/// holds the `WARM_OPS` most popular operators' states.
fn build(seed: u64, ledger: &mut Ledger) -> (Vec<Operator>, SolverService, Vec<bool>) {
    let world = CommWorld::serial();
    let root = ledger.open("setup", "", None);
    let ops: Vec<Operator> = (0..N_OPS)
        .map(|o| {
            let ((grid, layout), _) = ledger.time("grid.build", "", root, || {
                let grid = Grid::gx1_scaled(GRID_SEED + o as u64, NX, NY);
                let layout = DistLayout::build(&grid, BX, BY);
                (grid, layout)
            });
            let (op, _) = ledger.time("stencil.assemble", "", root, || {
                NinePoint::assemble(&grid, &layout, &world, TAU)
            });
            let rhs = (0..RHS_PER_OP)
                .map(|r| {
                    let mut x_star = DistVec::zeros(&layout);
                    let mut b = DistVec::zeros(&layout);
                    let s =
                        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((o * RHS_PER_OP + r) as u64);
                    manufactured(&op, &world, s, &mut x_star, &mut b);
                    b
                })
                .collect();
            Operator {
                op: Arc::new(op),
                rhs,
            }
        })
        .collect();
    let (svc, _) = ledger.time("serve.start", "", root, || {
        SolverService::start(ServiceConfig {
            queue_capacity: 64,
            tenant_quota: 32,
            max_batch: MAX_BATCH,
            workers: WORKERS,
            interactive_deadline: Some(INTERACTIVE_DEADLINE),
            batch_deadline: None,
            cache_capacity: CACHE_CAPACITY,
            lanczos: setup_lanczos(),
            base: solver_cfg(),
            backend: Backend::Serial,
            ..ServiceConfig::default()
        })
    });
    let mut warm_hits = Vec::new();
    for o in (0..WARM_OPS).rev() {
        for combo in [Combo::ChronGearDiag, Combo::PcsiEvp] {
            let a = Arrival {
                at: 0.0,
                op: o,
                rhs: 0,
                combo,
                tenant: 0,
            };
            let (resp, _) = ledger.time("serve.warm", combo.label(), root, || {
                svc.submit(request(&ops, &a).with_tol(WARM_TOL))
                    .and_then(|t| t.wait())
            });
            warm_hits.push(resp.map(|r| r.cache_hit).unwrap_or(false));
        }
    }
    ledger.close(root);
    (ops, svc, warm_hits)
}

/// Everything a served response must share, bit for bit, with its
/// standalone referee solve.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    /// [`bits_hash`] of the solution.
    hash: u64,
    iterations: usize,
    converged: bool,
    restarts: usize,
    residual_bits: u64,
}

/// What came back for one admitted request.
struct Served {
    done: Instant,
    lag_s: f64,
    latency_s: f64,
    queue_wait_s: f64,
    service_s: f64,
    width: usize,
    answer: Answer,
    matvecs: usize,
    precond_applies: usize,
    comm: StatsSnapshot,
}

enum Outcome {
    Served(Served),
    /// Refused at admission or shed at dispatch, with `Reject::reason`.
    Rejected {
        reason: &'static str,
        lag_s: f64,
        done: Instant,
    },
}

struct InFlight {
    i: usize,
    due: Instant,
    submitted: Instant,
    traced: bool,
    ticket: pop_serve::Ticket,
}

/// The standalone referee: one deterministic operator state per
/// (operator, preconditioner), width-1 solves through the same batched
/// engine the service dispatches into.
struct Referee {
    world: CommWorld,
    ws: BatchWorkspace<CommWorld>,
    states: HashMap<(usize, usize), Arc<OperatorState>>,
    refs: HashMap<(usize, usize, usize), Answer>,
}

impl Referee {
    fn new() -> Referee {
        Referee {
            world: CommWorld::serial(),
            ws: BatchWorkspace::new(),
            states: HashMap::new(),
            refs: HashMap::new(),
        }
    }

    fn reference(&mut self, ops: &[Operator], a: &Arrival) -> Answer {
        let key = (a.op, a.rhs, a.combo.index());
        if let Some(r) = self.refs.get(&key) {
            return *r;
        }
        let op = &ops[a.op].op;
        let spec: PrecondSpec = a.combo.choice().precond_spec();
        let pcsi = solver_spec(a.combo).needs_bounds();
        let world = &self.world;
        let state = self
            .states
            .entry((a.op, a.combo.precond()))
            .or_insert_with(|| {
                OperatorState::build(op, spec, pcsi.then(setup_lanczos).as_ref(), world)
            })
            .clone();
        let b = &ops[a.op].rhs[a.rhs];
        let mut x = DistVec::zeros(&op.layout);
        let cfg = solver_cfg();
        let pre = state.precond.as_ref();
        let stats = if pcsi {
            Pcsi::new(state.bounds.expect("P-CSI state carries bounds")).solve_batch_comm(
                op,
                pre,
                world,
                &[b],
                &mut [&mut x],
                &cfg,
                &mut self.ws,
            )
        } else {
            ChronGear.solve_batch_comm(op, pre, world, &[b], &mut [&mut x], &cfg, &mut self.ws)
        };
        let st = &stats[0];
        let r = Answer {
            hash: bits_hash(&x),
            iterations: st.iterations,
            converged: st.converged,
            restarts: st.restarts,
            residual_bits: st.final_relative_residual.to_bits(),
        };
        self.refs.insert(key, r);
        r
    }
}

pub fn run(spec: &RunSpec, ledger: &mut Ledger) -> Result<Run, String> {
    let sched = schedule(spec.seed, spec.seconds);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build(spec.seed, ledger));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (ops, svc, warm_hits) = built.expect("SETUP_REPS >= 1");

    // Generator on this thread, collector on one more.
    let epoch = Instant::now();
    let start = epoch + LEAD;
    let mut outcomes: Vec<Option<Outcome>> = (0..sched.len()).map(|_| None).collect();
    let mut gen_ledger = Ledger::new(epoch, spec.trace);
    // Traced and untraced requests alternate through the schedule.
    let traced_at = |i: usize| spec.trace && i % 2 == 1;
    let (collected, col_ledger) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<InFlight>();
        let trace = spec.trace;
        let collector = scope.spawn(move || {
            let mut l = Ledger::new(epoch, trace);
            let mut got = Vec::new();
            for f in rx {
                let outcome = match f.ticket.wait() {
                    Ok(resp) => {
                        let lag_s = (f.submitted - f.due).as_secs_f64();
                        let latency_s = lag_s + resp.latency.as_secs_f64();
                        if f.traced {
                            let done = f.submitted + resp.latency;
                            let queued = f.submitted + resp.queue_wait;
                            let root = l.add("serve.request", "", None, f.due, done);
                            l.add("serve.gen_lag", "", root, f.due, f.submitted);
                            l.add("serve.queue_wait", "", root, f.submitted, queued);
                            l.add("serve.service", "", root, queued, done);
                        }
                        Outcome::Served(Served {
                            done: f.submitted + resp.latency,
                            lag_s,
                            latency_s,
                            queue_wait_s: resp.queue_wait.as_secs_f64(),
                            service_s: (resp.latency.saturating_sub(resp.queue_wait)).as_secs_f64(),
                            width: resp.batch_width,
                            answer: Answer {
                                hash: bits_hash(&resp.x),
                                iterations: resp.stats.iterations,
                                converged: resp.stats.converged,
                                restarts: resp.stats.restarts,
                                residual_bits: resp.stats.final_relative_residual.to_bits(),
                            },
                            matvecs: resp.stats.matvecs,
                            precond_applies: resp.stats.precond_applies,
                            comm: resp.stats.comm,
                        })
                    }
                    Err(rej) => Outcome::Rejected {
                        reason: rej.reason(),
                        lag_s: (f.submitted - f.due).as_secs_f64(),
                        done: Instant::now(),
                    },
                };
                got.push((f.i, outcome));
            }
            (got, l)
        });
        for (i, a) in sched.iter().enumerate() {
            let req = request(&ops, a);
            let due = start + Duration::from_secs_f64(a.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let traced = traced_at(i);
            gen_ledger.set_enabled(traced);
            let submitted = Instant::now();
            let res = svc.submit(req);
            gen_ledger.add("serve.submit", "", None, submitted, Instant::now());
            match res {
                Ok(ticket) => tx
                    .send(InFlight {
                        i,
                        due,
                        submitted,
                        traced,
                        ticket,
                    })
                    .expect("collector outlives the generator"),
                Err(rej) => {
                    outcomes[i] = Some(Outcome::Rejected {
                        reason: rej.reason(),
                        lag_s: (submitted - due).as_secs_f64(),
                        done: submitted,
                    })
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for (i, o) in collected {
        outcomes[i] = Some(o);
    }
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    let cache = svc.shutdown();
    ledger.merge(gen_ledger);
    ledger.merge(col_ledger);

    // Output check, after the schedule: every served response against
    // its standalone referee solve, bit for bit.
    let mut referee = Referee::new();
    let mut tally = Tally::default();
    let mut served: Vec<(&Arrival, &Served, bool)> = Vec::new();
    let mut shed = [0.0f64; 5];
    let mut lags = Vec::new();
    let mut last_done = start;
    for (i, (a, o)) in sched.iter().zip(&outcomes).enumerate() {
        match o.as_ref().expect("every request resolves") {
            Outcome::Served(s) => {
                lags.push(s.lag_s);
                last_done = last_done.max(s.done);
                let fate = if s.answer != referee.reference(&ops, a) {
                    eprintln!("serve_open: response differs from its standalone solve: {a:?}");
                    Fate::Wrong
                } else if !s.answer.converged {
                    Fate::Failed
                } else {
                    served.push((a, s, traced_at(i)));
                    Fate::Ok {
                        latency_s: s.latency_s,
                    }
                };
                tally.add(fate, LATENCY_LIMIT_S);
            }
            Outcome::Rejected {
                reason,
                lag_s,
                done,
            } => {
                lags.push(*lag_s);
                last_done = last_done.max(*done);
                let r = SHED_REASONS
                    .iter()
                    .position(|x| x == reason)
                    .expect("known reason");
                shed[r] += 1.0;
                // Refused at admission vs admitted then dropped.
                let fate = if matches!(*reason, "deadline_expired" | "shutting_down") {
                    Fate::Shed
                } else {
                    Fate::Refused
                };
                tally.add(fate, LATENCY_LIMIT_S);
            }
        }
    }

    // Goodput per second of schedule, the schedule lasting until its last
    // request resolved: a backlog that outlives the arrivals stretches it.
    let schedule_s = (last_done - start).as_secs_f64();
    let latencies: Vec<f64> = served.iter().map(|(_, s, _)| s.latency_s).collect();
    let e2e = crate::end_to_end(
        &setup_times,
        &latencies,
        &tally,
        tally.goodput(schedule_s),
        peak_rss_mb,
    )?;

    let layers = if spec.trace {
        let world = CommWorld::serial();
        let op = &ops[0].op;
        let n = served.len() as f64;
        let pick =
            |f: &dyn Fn(&Served) -> f64| served.iter().map(|(_, s, _)| f(s)).collect::<Vec<f64>>();
        let queue_wait = pick(&|s| s.queue_wait_s);
        let service = pick(&|s| s.service_s);
        let warm_misses = warm_hits.iter().filter(|h| !**h).count() as u64;
        let warm_hit_count = warm_hits.len() as u64 - warm_misses;
        let lookups = cache.hits + cache.misses - warm_hits.len() as u64;
        let mut l = Layers {
            grid_build_s: median(&ledger.durations("grid.build", "")),
            stencil_assemble_s: median(&ledger.durations("stencil.assemble", "")),
            stencil_apply_us: crate::layers::stencil_apply_us(op, &world),
            stencil_apply_bytes: crate::layers::apply_bytes(op),
            stencil_matvecs_per_op: mean(&pick(&|s| s.matvecs as f64)),
            precond_applies_per_op: mean(&pick(&|s| s.precond_applies as f64)),
            solver_restarts: served
                .iter()
                .map(|(_, s, _)| s.answer.restarts as f64)
                .sum(),
            solver_unconverged: tally.failed as f64,
            comm_allreduces_per_op: pick(&|s| s.comm.allreduces as f64).iter().sum::<f64>() / n,
            comm_halo_updates_per_op: pick(&|s| s.comm.halo_updates as f64).iter().sum::<f64>() / n,
            comm_halo_bytes_per_op: pick(&|s| s.comm.halo_bytes as f64).iter().sum::<f64>() / n,
            comm_pool_threads: world.threads() as f64,
            serve_queue_wait_ms: [
                percentile(&queue_wait, 0.5)? * 1e3,
                percentile(&queue_wait, 0.95)? * 1e3,
            ],
            serve_service_ms: [
                percentile(&service, 0.5)? * 1e3,
                percentile(&service, 0.95)? * 1e3,
            ],
            serve_batch_width_mean: n / served
                .iter()
                .map(|(_, s, _)| 1.0 / s.width as f64)
                .sum::<f64>(),
            serve_coalesced_frac: served.iter().filter(|(_, s, _)| s.width > 1).count() as f64 / n,
            serve_cache_hit_ratio: (cache.hits - warm_hit_count) as f64 / lookups.max(1) as f64,
            serve_cache_builds: (cache.misses - warm_misses) as f64,
            serve_shed: shed,
            serve_gen_lag_ms_p95: percentile(&lags, 0.95)? * 1e3,
            fail_frac: tally.fail_frac(),
            ..Layers::default()
        };
        crate::layers::precond_side(op, &world, 3, &mut l);
        let evp = PrecondSpec::Evp.build(op);
        let ((_, steps), secs) = ledger.time("lanczos", "evp", None, || {
            estimate_bounds(op, evp.as_ref(), &world, &setup_lanczos())
        });
        l.lanczos_s = secs;
        l.lanczos_steps = steps as f64;
        // Width-1 groups only: a coalesced group's time is shared by its
        // lanes and cannot be split per request from outside.
        let solo: Vec<SolveRecord> = served
            .iter()
            .filter(|(_, s, _)| s.width == 1)
            .map(|(a, s, _)| SolveRecord {
                combo: a.combo,
                secs: s.service_s,
                iterations: s.answer.iterations,
                matvecs: s.matvecs,
                precond_applies: s.precond_applies,
            })
            .collect();
        l.fill_solvers(&solo);
        let by_trace: [[Vec<f64>; 2]; 1] = [[false, true].map(|t| {
            served
                .iter()
                .filter(|(_, _, traced)| *traced == t)
                .map(|(_, s, _)| s.latency_s)
                .collect()
        })];
        l.trace_overhead_frac = crate::layers::trace_overhead(&by_trace);
        Some(l)
    } else {
        None
    };

    let per_vec = vec_bytes(&ops[0].rhs[0]);
    Ok(Run {
        tally,
        e2e,
        layers,
        samples: latencies.len(),
        working_set_bytes: per_vec * (N_OPS * (4 + RHS_PER_OP)) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_sized_by_its_constants() {
        let a = schedule(7, 10.0);
        assert_eq!(a, schedule(7, 10.0));
        assert_ne!(a, schedule(8, 10.0));
        let bursts = (BURST_RATE * 10.0).round() as usize;
        assert_eq!(a.len(), (BASE_RATE * 10.0) as usize + bursts * BURST_SIZE);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .iter()
            .all(|x| x.at >= 0.0 && x.at < 10.0 && x.op < N_OPS && x.rhs < RHS_PER_OP));
        // Zipf skew: operator 0 is the most requested.
        let count = |s: &[Arrival], o| s.iter().filter(|x| x.op == o).count();
        assert!((1..N_OPS).all(|o| count(&a, 0) >= count(&a, o)));
        // Another seed reorders the traffic but keeps its mix.
        let b = schedule(8, 10.0);
        assert!((0..N_OPS).all(|o| count(&a, o) == count(&b, o)));
        let chrongear =
            |s: &[Arrival]| s.iter().filter(|x| x.combo == Combo::ChronGearDiag).count();
        assert_eq!(chrongear(&a), chrongear(&b));
        assert_eq!(
            chrongear(&a),
            (CHRONGEAR_SHARE * BASE_RATE * 10.0).round() as usize
        );
    }

    #[test]
    fn deck_has_exact_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = deck(&mut rng, &[3.0, 1.0], 9);
        assert_eq!(d.len(), 9);
        assert_eq!(d.iter().filter(|&&k| k == 0).count(), 7);
    }
}
