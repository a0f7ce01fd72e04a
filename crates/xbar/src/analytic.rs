//! Fast first-order analytic IR-drop estimator.
//!
//! The full MNA solve is exact but costs milliseconds per operating point.
//! Timing tables only need a *conservative* voltage estimate at worst-case
//! operating points, so this module computes the IR drop along the selected
//! wordline and bitlines by superposition of nominal sneak currents:
//!
//! * each fully-selected cell injects `I_f = Vd / R_lrs` into the grounded
//!   wordline and draws the same from its bitline;
//! * each half-selected cell conducts `V_bias / (R_cell · κ)` where `κ` is
//!   the selector non-linearity at half bias.
//!
//! Line sag is ignored when evaluating the half-select currents, which
//! *overestimates* them and therefore underestimates the target voltage —
//! the resulting latency is an upper bound on the true requirement, exactly
//! the safety direction a write-timing table needs. The fully-selected
//! current is resolved self-consistently by fixed-point iteration.
//!
//! # Cost
//!
//! One operating point with `k` distinct target columns costs
//! `O(FIXED_POINT_ITERS · k²)`, independent of the mat size. The sneak terms
//! depend only on the target column, never on the iteration, so they are
//! evaluated once per column before the fixed point. Their line moments
//! `Σ min(c, b)` over the far-end LRS run are closed-form arithmetic series
//! from the run's lowest index, minus the targets inside the run.
//!
//! The closed form is bit-identical to summing the moments cell by cell:
//! both are sums of integers below 2^53, which `f64` represents exactly at
//! every partial sum, and the drop expression keeps the same association
//! (`full + lrs + hrs`, each term multiplied by its current as before).

use crate::params::CrossbarParams;

/// Number of fixed-point iterations resolving `I_f = Vd / R_lrs`.
const FIXED_POINT_ITERS: usize = 24;

/// Operating point for an analytic voltage estimate.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Wordline being RESET (0 = nearest the bitline drivers).
    pub target_wl: usize,
    /// Columns of the fully-selected cells.
    pub target_bls: Vec<usize>,
    /// Number of LRS cells on the selected wordline (worst-case placed at
    /// the far end of the line).
    pub wl_ones: usize,
    /// Number of LRS cells on each selected bitline (worst-case placed at
    /// the far end of the line).
    pub bl_ones: usize,
}

/// Estimates the voltage drop across each fully-selected cell.
///
/// Returns one `(column, volts)` pair per target bitline, in ascending
/// column order. The estimate is conservative: it never exceeds the exact
/// MNA voltage (up to solver tolerance).
///
/// # Panics
///
/// Panics if any coordinate or population is out of range for the mat.
///
/// # Examples
///
/// ```
/// use ladder_xbar::{analytic, CrossbarParams};
///
/// let params = CrossbarParams::default();
/// let op = analytic::OperatingPoint {
///     target_wl: 511,
///     target_bls: vec![63, 127, 191, 255, 319, 383, 447, 511],
///     wl_ones: 512,
///     bl_ones: 512,
/// };
/// let vd = analytic::estimate_vd(&params, &op);
/// assert_eq!(vd.len(), 8);
/// assert!(vd.iter().all(|&(_, v)| v > 0.0 && v < 3.0));
/// ```
#[expect(
    clippy::expect_used,
    reason = "invariant: the assert above guarantees bls is nonempty"
)]
pub fn estimate_vd(params: &CrossbarParams, op: &OperatingPoint) -> Vec<(usize, f64)> {
    let (rows, cols) = (params.rows, params.cols);
    assert!(op.target_wl < rows, "target wordline out of range");
    assert!(
        op.wl_ones <= cols && op.bl_ones <= rows,
        "LRS population exceeds line length"
    );
    let mut bls = op.target_bls.clone();
    bls.sort_unstable();
    bls.dedup();
    assert!(!bls.is_empty(), "at least one target bitline required");
    assert!(
        *bls.last().expect("nonempty") < cols,
        "target bitline out of range"
    );

    let kappa = params.selector_multiplier(params.bias_voltage);
    // Half-selected sneak currents at nominal bias, per cell. Cells on the
    // selected wordline carry the calibrated gain (see
    // `CrossbarParams::wl_sneak_gain`).
    let i_half_lrs = params.bias_voltage / (params.r_lrs * kappa);
    let i_half_hrs = params.bias_voltage / (params.r_hrs * kappa);
    let i_wl_lrs = i_half_lrs * params.wl_sneak_gain;
    let i_wl_hrs = i_half_hrs * params.wl_sneak_gain;
    let r_w = params.r_wire;

    // Worst-case far-end placement of the wordline LRS population
    // (excluding the target columns themselves, which are fully selected).
    let wl_lrs_count = op.wl_ones.min(cols - bls.len());
    let wl_lrs = FarRun::new(cols, wl_lrs_count, &bls);
    let wl_hrs_count = cols - bls.len() - wl_lrs_count;
    // Far-end placement of the bitline LRS population (excluding target row).
    let w = op.target_wl;
    let bl_lrs_count = op.bl_ones.min(rows - 1);
    let bl_lrs = FarRun::new(rows, bl_lrs_count, std::slice::from_ref(&w));
    let bl_hrs_count = rows - 1 - bl_lrs_count;

    // Aggregate wordline sneak: total current and, per target column, the
    // LRS and HRS sneak currents times their line moments. They depend only
    // on the column, so they are computed once, outside the fixed point.
    let wl_sneak_total = i_wl_lrs * wl_lrs_count as f64 + i_wl_hrs * wl_hrs_count as f64;
    // HRS cells contribute uniformly; approximate their positions as spread
    // over the whole line (they are everywhere the LRS cells are not).
    let wl_sneak_terms: Vec<(f64, f64)> = bls
        .iter()
        .map(|&b| {
            (
                i_wl_lrs * wl_lrs.moment(b) as f64,
                wl_hrs_count as f64 * (b as f64) * 0.5 * i_wl_hrs,
            )
        })
        .collect();

    // Bitline sneak per selected bitline.
    let bl_sneak_total = i_half_lrs * bl_lrs_count as f64 + i_half_hrs * bl_hrs_count as f64;
    let bl_lrs_moment = bl_lrs.moment(w) as f64;
    let bl_hrs_moment: f64 = bl_hrs_count as f64 * (w as f64) * 0.5;
    let bl_drop_static = params.r_output * bl_sneak_total
        + r_w * (i_half_lrs * bl_lrs_moment + i_half_hrs * bl_hrs_moment);

    // Fixed point on the fully-selected currents (cells under active RESET
    // present the transition resistance, not the initial LRS value).
    let mut i_f = vec![params.write_voltage / params.r_reset_transition; bls.len()];
    let mut vd = vec![params.write_voltage; bls.len()];
    for _ in 0..FIXED_POINT_ITERS {
        let i_f_total: f64 = i_f.iter().sum();
        for (k, (&b, &(lrs_term, hrs_term))) in bls.iter().zip(&wl_sneak_terms).enumerate() {
            // Wordline drop at column b: driver drop plus wire drop from all
            // currents sharing segments 0..b with the target.
            let full_moment: f64 = bls
                .iter()
                .zip(&i_f)
                .map(|(&bk, &ik)| ik * bk.min(b) as f64)
                .sum();
            let drop_wl = params.r_input * (i_f_total + wl_sneak_total)
                + r_w * (full_moment + lrs_term + hrs_term);
            // Bitline drop at row w for this bitline's own current.
            let drop_bl = params.r_output * i_f[k] + r_w * i_f[k] * w as f64 + bl_drop_static;
            let new_vd = (params.write_voltage - drop_wl - drop_bl).max(0.05);
            vd[k] = new_vd;
            i_f[k] = new_vd / params.r_reset_transition;
        }
    }
    bls.into_iter().zip(vd).collect()
}

/// A worst-case LRS population on one line: the `count` highest indices in
/// `0..len` that are not excluded, i.e. `lo..len` minus the excluded
/// indices that fall inside it.
struct FarRun<'a> {
    /// Lowest index of the run (`len` when the run is empty).
    lo: usize,
    len: usize,
    /// The excluded indices inside `lo..len`.
    inside: &'a [usize],
}

impl<'a> FarRun<'a> {
    /// Places `count` cells at the far end of a `len`-cell line, skipping
    /// `excluded` (ascending, deduplicated, all `< len`). Requires
    /// `count + excluded.len() <= len`.
    fn new(len: usize, count: usize, excluded: &'a [usize]) -> Self {
        let mut lo = len - count;
        let mut first_inside = excluded.len();
        // Every excluded index inside the run pushes its start down by one.
        while first_inside > 0 && excluded[first_inside - 1] >= lo {
            first_inside -= 1;
            lo -= 1;
        }
        Self {
            lo,
            len,
            inside: &excluded[first_inside..],
        }
    }

    /// `Σ min(i, b)` over the run's indices `i`, in closed form.
    fn moment(&self, b: usize) -> u64 {
        let inside: u64 = self.inside.iter().map(|&x| x.min(b) as u64).sum();
        sum_min(self.lo, self.len, b) - inside
    }
}

/// `Σ min(i, b)` for `i` in `lo..hi`: an arithmetic series up to `b`, then
/// a constant `b` per index.
fn sum_min(lo: usize, hi: usize, b: usize) -> u64 {
    // Σ i for i in 0..n.
    let below = |n: u64| n * n.saturating_sub(1) / 2;
    let m = b.clamp(lo, hi) as u64;
    below(m) - below(lo as u64) + (hi as u64 - m) * b as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::{solve_reset, ResetOp, SolverKind};
    use crate::pattern::PatternSpec;

    fn point(
        n: usize,
        w: usize,
        bls: Vec<usize>,
        wl_ones: usize,
        bl_ones: usize,
    ) -> OperatingPoint {
        let _ = n;
        OperatingPoint {
            target_wl: w,
            target_bls: bls,
            wl_ones,
            bl_ones,
        }
    }

    /// The scan formulation [`estimate_vd`] replaced, kept as its oracle:
    /// it materializes the far-end LRS populations and re-sums the
    /// wordline moment over them in every fixed-point iteration.
    fn estimate_vd_by_scan(params: &CrossbarParams, op: &OperatingPoint) -> Vec<(usize, f64)> {
        let (rows, cols) = (params.rows, params.cols);
        let mut bls = op.target_bls.clone();
        bls.sort_unstable();
        bls.dedup();

        let kappa = params.selector_multiplier(params.bias_voltage);
        let i_half_lrs = params.bias_voltage / (params.r_lrs * kappa);
        let i_half_hrs = params.bias_voltage / (params.r_hrs * kappa);
        let i_wl_lrs = i_half_lrs * params.wl_sneak_gain;
        let i_wl_hrs = i_half_hrs * params.wl_sneak_gain;
        let r_w = params.r_wire;

        let wl_lrs_cols: Vec<usize> = (0..cols)
            .rev()
            .filter(|c| !bls.contains(c))
            .take(op.wl_ones.min(cols.saturating_sub(bls.len())))
            .collect();
        let wl_hrs_count = cols - bls.len() - wl_lrs_cols.len();
        let bl_lrs_rows: Vec<usize> = (0..rows)
            .rev()
            .filter(|&r| r != op.target_wl)
            .take(op.bl_ones.min(rows - 1))
            .collect();
        let bl_hrs_count = rows - 1 - bl_lrs_rows.len();

        let wl_sneak_total = i_wl_lrs * wl_lrs_cols.len() as f64 + i_wl_hrs * wl_hrs_count as f64;
        let wl_lrs_moment =
            |b: usize| -> f64 { wl_lrs_cols.iter().map(|&c| c.min(b) as f64).sum::<f64>() };
        let wl_hrs_moment = |b: usize| -> f64 { wl_hrs_count as f64 * (b as f64) * 0.5 };

        let bl_sneak_total =
            i_half_lrs * bl_lrs_rows.len() as f64 + i_half_hrs * bl_hrs_count as f64;
        let w = op.target_wl;
        let bl_lrs_moment: f64 = bl_lrs_rows.iter().map(|&r| r.min(w) as f64).sum();
        let bl_hrs_moment: f64 = bl_hrs_count as f64 * (w as f64) * 0.5;
        let bl_drop_static = params.r_output * bl_sneak_total
            + r_w * (i_half_lrs * bl_lrs_moment + i_half_hrs * bl_hrs_moment);

        let mut i_f = vec![params.write_voltage / params.r_reset_transition; bls.len()];
        let mut vd = vec![params.write_voltage; bls.len()];
        for _ in 0..FIXED_POINT_ITERS {
            let i_f_total: f64 = i_f.iter().sum();
            for (k, &b) in bls.iter().enumerate() {
                let full_moment: f64 = bls
                    .iter()
                    .zip(&i_f)
                    .map(|(&bk, &ik)| ik * bk.min(b) as f64)
                    .sum();
                let drop_wl = params.r_input * (i_f_total + wl_sneak_total)
                    + r_w
                        * (full_moment + i_wl_lrs * wl_lrs_moment(b) + wl_hrs_moment(b) * i_wl_hrs);
                let drop_bl = params.r_output * i_f[k] + r_w * i_f[k] * w as f64 + bl_drop_static;
                let new_vd = (params.write_voltage - drop_wl - drop_bl).max(0.05);
                vd[k] = new_vd;
                i_f[k] = new_vd / params.r_reset_transition;
            }
        }
        bls.into_iter().zip(vd).collect()
    }

    /// Asserts the closed form and the oracle agree bit for bit.
    fn assert_matches_oracle(params: &CrossbarParams, op: &OperatingPoint) {
        let fast = estimate_vd(params, op);
        let scan = estimate_vd_by_scan(params, op);
        assert_eq!(fast.len(), scan.len(), "{op:?}");
        for (&(cf, vf), &(cs, vs)) in fast.iter().zip(&scan) {
            assert_eq!(cf, cs, "{op:?}");
            assert_eq!(
                vf.to_bits(),
                vs.to_bits(),
                "column {cf}: closed form {vf:e} V vs scan {vs:e} V at {}x{} {op:?}",
                params.rows,
                params.cols
            );
        }
    }

    #[test]
    fn closed_form_matches_scan_on_random_points() {
        // SplitMix64: a fixed, dependency-free sequence.
        let mut state = 0x2021_u64;
        let mut next = |bound: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for case in 0..2000 {
            // Mostly small mats, every tenth case a large one.
            let max_dim = if case % 10 == 0 { 512 } else { 64 };
            let (rows, cols) = (1 + next(max_dim), 1 + next(max_dim));
            let params = CrossbarParams::with_size(rows, cols);
            let targets = 1 + next(cols.min(10));
            let op = OperatingPoint {
                target_wl: next(rows),
                target_bls: (0..targets).map(|_| next(cols)).collect(),
                wl_ones: next(cols + 1),
                bl_ones: next(rows + 1),
            };
            assert_matches_oracle(&params, &op);
        }
    }

    #[test]
    fn closed_form_matches_scan_on_edge_cases() {
        for (rows, cols) in [(1, 1), (1, 9), (8, 8), (48, 48), (512, 512)] {
            let params = CrossbarParams::with_size(rows, cols);
            let k = cols.min(8);
            let far: Vec<usize> = (cols - k..cols).collect();
            let mut target_sets = vec![far.clone(), vec![0], vec![cols - 1]];
            // Unsorted with duplicates, spread over the line.
            target_sets.push(vec![cols / 2, cols - 1, 0, cols / 2, cols / 3]);
            // Interleaved with the far-end run rather than at its edge.
            target_sets.push(
                (0..k)
                    .map(|i| cols - 1 - 2 * i.min((cols - 1) / 2))
                    .collect(),
            );
            for target_bls in target_sets {
                let distinct = {
                    let mut t = target_bls.clone();
                    t.sort_unstable();
                    t.dedup();
                    t.len()
                };
                let wl_counts = [
                    0,
                    1,
                    (cols - distinct).saturating_sub(1),
                    cols - distinct,
                    cols,
                ];
                let bl_counts = [0, 1, rows - 1, rows];
                // Near end, inside the far-end LRS run, far end.
                let wls = [0, rows - (rows / 4).max(1), rows - 1];
                for &wl_ones in &wl_counts {
                    for &bl_ones in &bl_counts {
                        for &target_wl in &wls {
                            let op = OperatingPoint {
                                target_wl,
                                target_bls: target_bls.clone(),
                                wl_ones: wl_ones.min(cols),
                                bl_ones,
                            };
                            assert_matches_oracle(&params, &op);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sum_min_matches_the_series() {
        for (lo, hi) in [(0, 0), (0, 1), (3, 3), (0, 9), (4, 17)] {
            for b in 0..20 {
                let direct: u64 = (lo..hi).map(|i: usize| i.min(b) as u64).sum();
                assert_eq!(sum_min(lo, hi, b), direct, "lo={lo} hi={hi} b={b}");
            }
        }
    }

    #[test]
    fn estimate_is_monotone_in_content() {
        let params = CrossbarParams::default();
        let mut prev = f64::INFINITY;
        for ones in [0usize, 64, 128, 256, 512] {
            let op = point(512, 511, vec![511], ones, 512);
            let vd = estimate_vd(&params, &op)[0].1;
            assert!(vd <= prev + 1e-12, "vd must fall as content grows");
            prev = vd;
        }
    }

    #[test]
    fn estimate_is_monotone_in_location() {
        let params = CrossbarParams::default();
        let near = estimate_vd(&params, &point(512, 0, vec![0], 256, 256))[0].1;
        let far = estimate_vd(&params, &point(512, 511, vec![511], 256, 256))[0].1;
        assert!(far < near);
    }

    #[test]
    fn estimate_is_conservative_vs_mna() {
        // On a mat small enough for exact solves, the analytic voltage must
        // never exceed the MNA voltage by more than solver noise.
        let n = 48;
        let params = CrossbarParams::with_size(n, n);
        for (w, b, ones) in [
            (n - 1, n - 1, n),
            (n - 1, n - 1, 0),
            (0, 0, n),
            (n / 2, n / 2, n / 2),
        ] {
            let ones = ones.min(n);
            let grid = PatternSpec::WorstCaseWl { wl_ones: ones }.materialize(n, n, w, &[b]);
            let exact = solve_reset(
                &params,
                &grid,
                &ResetOp::new(w, vec![b]),
                SolverKind::LineRelaxation,
            )
            .expect("mna solve")
            .min_target_vd();
            let approx = estimate_vd(&params, &point(n, w, vec![b], ones, n))[0].1;
            assert!(
                approx <= exact + 0.02,
                "analytic {approx:.4} V must not exceed MNA {exact:.4} V (w={w}, b={b}, ones={ones})"
            );
            // And it should not be wildly pessimistic either.
            assert!(
                approx > exact - 0.45,
                "analytic {approx:.4} V too far below MNA {exact:.4} V"
            );
        }
    }

    #[test]
    fn eight_cell_reset_orders_by_distance() {
        let params = CrossbarParams::default();
        let bls: Vec<usize> = (0..8).map(|i| i * 64 + 63).collect();
        let op = point(512, 255, bls, 384, 384);
        let vd = estimate_vd(&params, &op);
        for w in vd.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "farther columns cannot be faster");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_wordline_panics() {
        let params = CrossbarParams::with_size(8, 8);
        let op = point(8, 8, vec![0], 0, 0);
        let _ = estimate_vd(&params, &op);
    }
}
