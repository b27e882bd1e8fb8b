//! What every workload reports: the end-to-end record, the per-layer
//! record, and the side measurements and output checks they share.

use crate::report::{mean, Metric};
use pop_comm::{CommWorld, DistVec};
use pop_core::lanczos::LanczosConfig;
use pop_core::precond::Preconditioner;
use pop_core::setup::PrecondSpec;
use pop_ocean::SolverChoice;
use pop_stencil::NinePoint;

/// The solver/preconditioner combinations the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combo {
    PcsiEvp,
    ChronGearDiag,
    PcsiMg,
}

pub const COMBOS: [Combo; 3] = [Combo::PcsiEvp, Combo::ChronGearDiag, Combo::PcsiMg];

impl Combo {
    pub fn label(self) -> &'static str {
        match self {
            Combo::PcsiEvp => "pcsi_evp",
            Combo::ChronGearDiag => "chrongear_diag",
            Combo::PcsiMg => "pcsi_mg",
        }
    }

    pub fn choice(self) -> SolverChoice {
        match self {
            Combo::PcsiEvp => SolverChoice::PcsiEvp,
            Combo::ChronGearDiag => SolverChoice::ChronGearDiag,
            Combo::PcsiMg => SolverChoice::PcsiMg,
        }
    }

    pub fn index(self) -> usize {
        COMBOS.iter().position(|&c| c == self).expect("listed")
    }

    /// Index into [`PRECONDS`].
    pub fn precond(self) -> usize {
        match self {
            Combo::ChronGearDiag => 0,
            Combo::PcsiEvp => 1,
            Combo::PcsiMg => 2,
        }
    }
}

pub const PRECONDS: [PrecondSpec; 3] = [PrecondSpec::Diagonal, PrecondSpec::Evp, PrecondSpec::Mg];

/// Shed reasons, as `pop_serve::Reject::reason` labels them.
pub const SHED_REASONS: [&str; 5] = [
    "queue_full",
    "tenant_quota",
    "deadline_unmeetable",
    "deadline_expired",
    "shutting_down",
];

/// The end-to-end metrics, measured with tracing off.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    pub op_p95_ms: f64,
    pub ok_frac: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("ops_per_s", self.ops_per_s, "1/s"),
            Metric::new("op_p50_ms", self.op_p50_ms, "ms"),
            Metric::new("op_p95_ms", self.op_p95_ms, "ms"),
            Metric::new("ok_frac", self.ok_frac, "frac"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// The per-layer metrics of the traced run. Every workload reports every
/// field; a layer the workload does not run reports 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub grid_build_s: f64,
    pub stencil_assemble_s: f64,
    pub stencil_apply_us: f64,
    pub stencil_apply_bytes: f64,
    pub stencil_matvecs_per_op: f64,
    /// Indexed like [`PRECONDS`].
    pub precond_build_s: [f64; 3],
    pub precond_apply_us: [f64; 3],
    pub precond_applies_per_op: f64,
    pub lanczos_s: f64,
    pub lanczos_steps: f64,
    /// Indexed like [`COMBOS`].
    pub solver: [SolverLayer; 3],
    pub solver_restarts: f64,
    pub solver_unconverged: f64,
    pub comm_allreduces_per_op: f64,
    pub comm_halo_updates_per_op: f64,
    pub comm_halo_bytes_per_op: f64,
    pub comm_pool_threads: f64,
    pub ocean_iters_per_step: f64,
    pub ocean_solve_share_est: f64,
    pub serve_queue_wait_ms: [f64; 2],
    pub serve_service_ms: [f64; 2],
    pub serve_batch_width_mean: f64,
    pub serve_coalesced_frac: f64,
    pub serve_cache_hit_ratio: f64,
    pub serve_cache_builds: f64,
    /// Indexed like [`SHED_REASONS`].
    pub serve_shed: [f64; 5],
    pub serve_gen_lag_ms_p95: f64,
    pub fail_frac: f64,
    pub trace_overhead_frac: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SolverLayer {
    pub iters_per_op: f64,
    pub us_per_iter: f64,
    pub ms: f64,
    pub unattributed_frac: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("grid.build_s", self.grid_build_s, "s"),
            Metric::new("stencil.assemble_s", self.stencil_assemble_s, "s"),
            Metric::new("stencil.apply_us", self.stencil_apply_us, "us"),
            Metric::new("stencil.apply_bytes", self.stencil_apply_bytes, "bytes"),
            Metric::new(
                "stencil.matvecs_per_op",
                self.stencil_matvecs_per_op,
                "count",
            ),
        ];
        for (p, spec) in PRECONDS.iter().enumerate() {
            m.push(Metric::new(
                format!("precond.build_s.{}", spec.label()),
                self.precond_build_s[p],
                "s",
            ));
            m.push(Metric::new(
                format!("precond.apply_us.{}", spec.label()),
                self.precond_apply_us[p],
                "us",
            ));
        }
        m.push(Metric::new(
            "precond.applies_per_op",
            self.precond_applies_per_op,
            "count",
        ));
        m.push(Metric::new("lanczos.s", self.lanczos_s, "s"));
        m.push(Metric::new("lanczos.steps", self.lanczos_steps, "count"));
        for (c, combo) in COMBOS.iter().enumerate() {
            let s = &self.solver[c];
            let l = combo.label();
            m.push(Metric::new(
                format!("solver.iters_per_op.{l}"),
                s.iters_per_op,
                "count",
            ));
            m.push(Metric::new(
                format!("solver.us_per_iter.{l}"),
                s.us_per_iter,
                "us",
            ));
            m.push(Metric::new(format!("solver.ms.{l}"), s.ms, "ms"));
            m.push(Metric::new(
                format!("solver.unattributed_frac.{l}"),
                s.unattributed_frac,
                "frac",
            ));
        }
        m.extend([
            Metric::new("solver.restarts", self.solver_restarts, "count"),
            Metric::new("solver.unconverged", self.solver_unconverged, "count"),
            Metric::new(
                "comm.allreduces_per_op",
                self.comm_allreduces_per_op,
                "count",
            ),
            Metric::new(
                "comm.halo_updates_per_op",
                self.comm_halo_updates_per_op,
                "count",
            ),
            Metric::new(
                "comm.halo_bytes_per_op",
                self.comm_halo_bytes_per_op,
                "bytes",
            ),
            Metric::new("comm.pool_threads", self.comm_pool_threads, "count"),
            Metric::new("ocean.iters_per_step", self.ocean_iters_per_step, "count"),
            Metric::new("ocean.solve_share_est", self.ocean_solve_share_est, "frac"),
            Metric::new("serve.queue_wait_ms.p50", self.serve_queue_wait_ms[0], "ms"),
            Metric::new("serve.queue_wait_ms.p95", self.serve_queue_wait_ms[1], "ms"),
            Metric::new("serve.service_ms.p50", self.serve_service_ms[0], "ms"),
            Metric::new("serve.service_ms.p95", self.serve_service_ms[1], "ms"),
            Metric::new(
                "serve.batch_width_mean",
                self.serve_batch_width_mean,
                "count",
            ),
            Metric::new("serve.coalesced_frac", self.serve_coalesced_frac, "frac"),
            Metric::new("serve.cache_hit_ratio", self.serve_cache_hit_ratio, "frac"),
            Metric::new("serve.cache_builds", self.serve_cache_builds, "count"),
        ]);
        for (r, reason) in SHED_REASONS.iter().enumerate() {
            m.push(Metric::new(
                format!("serve.shed.{reason}"),
                self.serve_shed[r],
                "count",
            ));
        }
        m.extend([
            Metric::new("serve.gen_lag_ms.p95", self.serve_gen_lag_ms_p95, "ms"),
            Metric::new("fail_frac", self.fail_frac, "frac"),
            Metric::new("trace.overhead_frac", self.trace_overhead_frac, "frac"),
        ]);
        m
    }

    /// Fill the solver rows from per-solve records. Each solve's time is
    /// attributed as matvecs × `stencil_apply_us` + preconditioner applies
    /// × `precond_apply_us`; what is left is reported as unattributed (it
    /// can be negative when the fused in-solver kernels beat the
    /// standalone ones).
    pub fn fill_solvers(&mut self, solves: &[SolveRecord]) {
        for (c, combo) in COMBOS.iter().enumerate() {
            let rows: Vec<&SolveRecord> = solves.iter().filter(|s| s.combo == *combo).collect();
            if rows.is_empty() {
                continue;
            }
            let secs = mean(&rows.iter().map(|s| s.secs).collect::<Vec<_>>());
            let iters = mean(&rows.iter().map(|s| s.iterations as f64).collect::<Vec<_>>());
            let unattributed: Vec<f64> = rows
                .iter()
                .map(|s| {
                    let attributed = (s.matvecs as f64 * self.stencil_apply_us
                        + s.precond_applies as f64 * self.precond_apply_us[combo.precond()])
                        * 1e-6;
                    1.0 - attributed / s.secs
                })
                .collect();
            self.solver[c] = SolverLayer {
                iters_per_op: iters,
                us_per_iter: secs * 1e6 / iters,
                ms: secs * 1e3,
                unattributed_frac: mean(&unattributed),
            };
        }
    }
}

/// One timed solve, as the ledger attributes it.
#[derive(Debug, Clone, Copy)]
pub struct SolveRecord {
    pub combo: Combo,
    pub secs: f64,
    pub iterations: usize,
    pub matvecs: usize,
    pub precond_applies: usize,
}

/// `SolverSetup::new`'s Lanczos settings, which `MiniPop` and
/// `ServiceConfig::default` also use.
pub fn setup_lanczos() -> LanczosConfig {
    LanczosConfig {
        tol: 0.01,
        max_steps: 300,
        ..Default::default()
    }
}

/// Mean traced ÷ untraced operation time, minus 1, over the groups that
/// ran both traced and untraced. Traced and untraced cycles alternate, so
/// both sample the same stretch of the run.
pub fn trace_overhead(groups: &[[Vec<f64>; 2]]) -> f64 {
    let ratios: Vec<f64> = groups
        .iter()
        .filter(|h| !h[0].is_empty() && !h[1].is_empty())
        .map(|h| mean(&h[1]) / mean(&h[0]))
        .collect();
    mean(&ratios) - 1.0
}

/// Seeded uniform noise in [-1, 1) at global point `(i, j)`.
pub fn noise(seed: u64, i: usize, j: usize) -> f64 {
    let mut z = seed
        ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (j as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A manufactured problem: seeded `x*` and `b = A·x*`.
pub fn manufactured(
    op: &NinePoint,
    world: &CommWorld,
    seed: u64,
    x_star: &mut DistVec,
    b: &mut DistVec,
) {
    x_star.fill_with(|i, j| noise(seed, i, j));
    world.halo_update(x_star);
    op.apply(world, x_star, b);
}

/// ‖v‖₂ over ocean points, summed here rather than by the library.
pub fn ocean_norm(v: &DistVec) -> f64 {
    let mut s = 0.0;
    for (b, blk) in v.blocks.iter().enumerate() {
        let mask = &v.layout.masks[b];
        for j in 0..blk.ny {
            for (i, x) in blk.interior_row(j).iter().enumerate() {
                if mask[j * blk.nx + i] != 0 {
                    s += x * x;
                }
            }
        }
    }
    s.sqrt()
}

/// FNV-1a over the bits of every interior value, block by block.
pub fn bits_hash(v: &DistVec) -> u64 {
    let mut h = pop_core::Fnv1a::new();
    for blk in &v.blocks {
        for j in 0..blk.ny {
            for x in blk.interior_row(j) {
                h.eat_f64(*x);
            }
        }
    }
    h.finish()
}

/// Bytes of one distributed vector's padded storage.
pub fn vec_bytes(v: &DistVec) -> u64 {
    v.blocks.iter().map(|b| b.raw().len() as u64 * 8).sum()
}

/// Bytes one `y = A·x` streams, computed: four coefficient arrays, `x`
/// and `y`, once each over every interior point of every active block.
/// Cache misses are not counted.
pub fn apply_bytes(op: &NinePoint) -> f64 {
    let points: usize = op.layout.decomp.blocks.iter().map(|b| b.nx * b.ny).sum();
    (points * 6 * 8) as f64
}

/// Median µs per call of `f`, by the repository's own timing harness.
pub fn time_us(f: impl FnMut()) -> f64 {
    pop_bench::timing::measure("side", 7, 10.0, f).median_ns / 1e3
}

/// Median µs of one `y = A·x` on `world`.
pub fn stencil_apply_us(op: &NinePoint, world: &CommWorld) -> f64 {
    let mut x = DistVec::zeros(&op.layout);
    x.fill_with(|i, j| noise(1, i, j));
    world.halo_update(&mut x);
    let mut y = DistVec::zeros(&op.layout);
    time_us(|| op.apply(world, std::hint::black_box(&x), &mut y))
}

/// Median µs of one `z = M⁻¹·r` on `world`.
pub fn precond_apply_us(pre: &dyn Preconditioner, op: &NinePoint, world: &CommWorld) -> f64 {
    let mut r = DistVec::zeros(&op.layout);
    r.fill_with(|i, j| noise(2, i, j));
    let mut z = DistVec::zeros(&op.layout);
    time_us(|| pre.apply(world, std::hint::black_box(&r), &mut z))
}

/// Build every preconditioner in [`PRECONDS`] on `op` (median of `reps`
/// builds each) and time one apply of each.
pub fn precond_side(op: &NinePoint, world: &CommWorld, reps: usize, layers: &mut Layers) {
    for (p, spec) in PRECONDS.iter().enumerate() {
        let mut times = Vec::with_capacity(reps);
        let mut built = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let pre = spec.build(op);
            times.push(t.elapsed().as_secs_f64());
            built = Some(pre);
        }
        layers.precond_build_s[p] = crate::report::median(&times);
        let pre = built.expect("reps >= 1");
        layers.precond_apply_us[p] = precond_apply_us(pre.as_ref(), op, world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_has_a_valid_unique_name() {
        let m = Layers::default().metrics();
        for (i, x) in m.iter().enumerate() {
            assert!(crate::report::valid_name(&x.name), "{}", x.name);
            assert!(m[..i].iter().all(|o| o.name != x.name), "{} twice", x.name);
        }
    }

    #[test]
    fn attribution_reports_the_remainder() {
        let mut l = Layers {
            stencil_apply_us: 100.0,
            precond_apply_us: [0.0, 200.0, 0.0],
            ..Layers::default()
        };
        l.fill_solvers(&[SolveRecord {
            combo: Combo::PcsiEvp,
            secs: 0.004,
            iterations: 9,
            matvecs: 10,
            precond_applies: 10,
        }]);
        let s = l.solver[Combo::PcsiEvp.index()];
        // 10 × 100 µs + 10 × 200 µs = 3 ms of a 4 ms solve.
        assert!((s.unattributed_frac - 0.25).abs() < 1e-12);
        assert!((s.ms - 4.0).abs() < 1e-12);
        assert_eq!(l.solver[Combo::PcsiMg.index()].ms, 0.0);
    }

    #[test]
    fn noise_is_seeded_and_bounded() {
        assert_eq!(noise(3, 4, 5), noise(3, 4, 5));
        assert_ne!(noise(3, 4, 5), noise(4, 4, 5));
        for i in 0..1000 {
            let v = noise(9, i, i * 3);
            assert!((-1.0..1.0).contains(&v));
        }
    }
}
