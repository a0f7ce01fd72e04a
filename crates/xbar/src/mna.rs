//! Modified nodal analysis (MNA) of the crossbar during a RESET operation.
//!
//! The crossbar is modelled as a resistive network with two node layers:
//! *top* nodes on the wordlines and *bottom* nodes on the bitlines, one pair
//! per cell. Wordline drivers connect at column 0 through `r_input`; bitline
//! drivers connect at row 0 through `r_output`. During a RESET the selected
//! wordline is grounded, the selected bitlines are driven at the write
//! voltage, and all other lines are held at the bias voltage (V/2 scheme).
//!
//! The selector non-linearity makes cell conductance voltage-dependent; the
//! solver wraps one of two interchangeable linear solvers (line relaxation
//! in production, dense LU as the test reference) in a fixed-point loop
//! that re-evaluates conductances until node voltages settle.

use crate::params::CrossbarParams;
use crate::pattern::BitGrid;
use crate::solve::{dense, tridiag};
use std::error::Error;
use std::fmt;

/// Convergence tolerance (volts) for the nonlinear fixed-point loop.
const OUTER_TOL_V: f64 = 1e-4;
/// Maximum nonlinear iterations before giving up.
const OUTER_MAX_ITER: usize = 25;
/// Convergence tolerance (volts) for the inner line-relaxation sweeps.
const LINE_TOL_V: f64 = 1e-7;
/// Maximum line-relaxation sweeps per linear solve.
const LINE_MAX_SWEEPS: usize = 4000;

/// One RESET operation: which wordline is grounded and which bitlines are
/// driven at the write voltage.
///
/// # Examples
///
/// ```
/// use ladder_xbar::ResetOp;
/// let op = ResetOp::new(3, vec![0, 8, 16]);
/// assert_eq!(op.target_wl, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetOp {
    /// Index of the wordline being written (0 = nearest the bitline driver).
    pub target_wl: usize,
    /// Columns of the fully-selected cells (0 = nearest the wordline driver).
    pub target_bls: Vec<usize>,
}

impl ResetOp {
    /// Creates a RESET op; duplicate bitlines are removed.
    pub fn new(target_wl: usize, mut target_bls: Vec<usize>) -> Self {
        target_bls.sort_unstable();
        target_bls.dedup();
        Self {
            target_wl,
            target_bls,
        }
    }
}

/// Linear solver used inside the nonlinear loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Dense LU with partial pivoting — `O(n³)`, for small mats and tests.
    DenseLu,
    /// Block Gauss–Seidel with exact tridiagonal line solves (fastest).
    LineRelaxation,
}

/// Error raised when the MNA solve, or a timing table built from crossbar
/// voltages, cannot be completed.
#[derive(Debug, Clone, PartialEq)]
pub enum MnaError {
    /// A target coordinate was outside the mat.
    TargetOutOfBounds {
        /// Offending wordline or bitline index.
        index: usize,
        /// Matching bound that was exceeded.
        bound: usize,
    },
    /// Pattern dimensions disagree with the parameters.
    DimensionMismatch,
    /// The linear or nonlinear iteration failed to converge.
    NoConvergence {
        /// Last observed change in node voltage (volts).
        residual: f64,
    },
    /// The dense factorization hit a singular pivot.
    Singular,
    /// A timing-table latency does not fit the table's `u32` picosecond
    /// entries (above about 4.29 ms).
    LatencyOverflow {
        /// The latency the law produced, in picoseconds.
        ps: u64,
    },
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::TargetOutOfBounds { index, bound } => {
                write!(f, "target index {index} outside crossbar bound {bound}")
            }
            MnaError::DimensionMismatch => write!(f, "pattern does not match crossbar dimensions"),
            MnaError::NoConvergence { residual } => {
                write!(f, "solver did not converge (residual {residual:.3e} V)")
            }
            MnaError::Singular => write!(f, "singular conductance matrix"),
            MnaError::LatencyOverflow { ps } => {
                write!(f, "latency {ps} ps overflows a u32 timing-table entry")
            }
        }
    }
}

impl Error for MnaError {}

/// Voltages of every node after the nonlinear solve.
#[derive(Debug, Clone)]
pub struct Solution {
    rows: usize,
    cols: usize,
    /// Wordline-layer node voltages, row-major.
    pub v_top: Vec<f64>,
    /// Bitline-layer node voltages, row-major.
    pub v_bottom: Vec<f64>,
    /// Nonlinear iterations performed.
    pub nonlinear_iterations: usize,
    /// Voltage drop across each fully-selected cell, in RESET op order
    /// (bitline column, drop in volts).
    pub target_vd: Vec<(usize, f64)>,
}

impl Solution {
    /// Voltage of the wordline-layer node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn top(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "node out of bounds");
        self.v_top[row * self.cols + col]
    }

    /// Voltage of the bitline-layer node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn bottom(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "node out of bounds");
        self.v_bottom[row * self.cols + col]
    }

    /// Smallest voltage drop among the fully-selected cells — the drop that
    /// dictates the RESET latency of the whole operation.
    pub fn min_target_vd(&self) -> f64 {
        self.target_vd
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Line voltage sources applied during the RESET.
struct Drive {
    v_wl: Vec<f64>,
    v_bl: Vec<f64>,
}

fn drive_for(params: &CrossbarParams, op: &ResetOp) -> Drive {
    let mut v_wl = vec![params.bias_voltage; params.rows];
    let mut v_bl = vec![params.bias_voltage; params.cols];
    v_wl[op.target_wl] = 0.0;
    for &b in &op.target_bls {
        v_bl[b] = params.write_voltage;
    }
    Drive { v_wl, v_bl }
}

/// Solves the crossbar network for one RESET operation.
///
/// `grid` gives the resistive state of every cell. Returns the node voltages
/// and the voltage drop across each fully-selected cell.
///
/// # Errors
///
/// Returns [`MnaError::DimensionMismatch`] if `grid` does not match
/// `params`, [`MnaError::TargetOutOfBounds`] for bad target coordinates and
/// [`MnaError::NoConvergence`]/[`MnaError::Singular`] on numerical failure.
///
/// # Examples
///
/// ```
/// use ladder_xbar::{solve_reset, CrossbarParams, PatternSpec, ResetOp, SolverKind};
///
/// let params = CrossbarParams::with_size(16, 16);
/// let grid = PatternSpec::AllHrs.materialize(16, 16, 0, &[0]);
/// let op = ResetOp::new(0, vec![0]);
/// let sol = solve_reset(&params, &grid, &op, SolverKind::LineRelaxation)?;
/// assert!(sol.min_target_vd() > 2.0); // near cell, no sneak: small IR drop
/// # Ok::<(), ladder_xbar::MnaError>(())
/// ```
pub fn solve_reset(
    params: &CrossbarParams,
    grid: &BitGrid,
    op: &ResetOp,
    solver: SolverKind,
) -> Result<Solution, MnaError> {
    let (rows, cols) = (params.rows, params.cols);
    if grid.rows() != rows || grid.cols() != cols {
        return Err(MnaError::DimensionMismatch);
    }
    if op.target_wl >= rows {
        return Err(MnaError::TargetOutOfBounds {
            index: op.target_wl,
            bound: rows,
        });
    }
    for &b in &op.target_bls {
        if b >= cols {
            return Err(MnaError::TargetOutOfBounds {
                index: b,
                bound: cols,
            });
        }
    }
    let drive = drive_for(params, op);

    // Initial guess: ideal line voltages without IR drop.
    let mut v_top = vec![0.0; rows * cols];
    let mut v_bottom = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            v_top[r * cols + c] = drive.v_wl[r];
            v_bottom[r * cols + c] = drive.v_bl[c];
        }
    }

    let mut gc = vec![0.0; rows * cols];
    let mut iterations = 0;
    let mut last_delta = f64::INFINITY;
    for it in 0..OUTER_MAX_ITER {
        iterations = it + 1;
        // Evaluate cell conductances at the current voltages; cells under
        // active RESET present the transition resistance.
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let v = (v_bottom[idx] - v_top[idx]).abs();
                gc[idx] = if r == op.target_wl && op.target_bls.contains(&c) {
                    1.0 / params.r_reset_transition
                } else {
                    1.0 / params.effective_resistance(grid.get(r, c), v)
                };
            }
        }
        let (new_top, new_bottom) = match solver {
            SolverKind::LineRelaxation => {
                solve_linear_relax(params, &drive, &gc, &v_top, &v_bottom)?
            }
            SolverKind::DenseLu => solve_linear_dense(params, &drive, &gc)?,
        };
        last_delta = max_abs_delta(&v_top, &new_top).max(max_abs_delta(&v_bottom, &new_bottom));
        v_top = new_top;
        v_bottom = new_bottom;
        if last_delta < OUTER_TOL_V {
            break;
        }
    }
    if last_delta >= OUTER_TOL_V {
        return Err(MnaError::NoConvergence {
            residual: last_delta,
        });
    }

    let target_vd = op
        .target_bls
        .iter()
        .map(|&b| {
            let idx = op.target_wl * cols + b;
            (b, v_bottom[idx] - v_top[idx])
        })
        .collect();
    Ok(Solution {
        rows,
        cols,
        v_top,
        v_bottom,
        nonlinear_iterations: iterations,
        target_vd,
    })
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Block Gauss–Seidel: exact tridiagonal solves per wordline, then per
/// bitline, sweeping until node voltages settle.
#[expect(
    clippy::needless_range_loop,
    reason = "index math mirrors the grid layout"
)]
fn solve_linear_relax(
    params: &CrossbarParams,
    drive: &Drive,
    gc: &[f64],
    v_top0: &[f64],
    v_bottom0: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), MnaError> {
    let (rows, cols) = (params.rows, params.cols);
    let gw = 1.0 / params.r_wire;
    let gin = 1.0 / params.r_input;
    let gout = 1.0 / params.r_output;
    let mut v_top = v_top0.to_vec();
    let mut v_bottom = v_bottom0.to_vec();
    let n_line = rows.max(cols);
    let mut lower = vec![0.0; n_line];
    let mut diag = vec![0.0; n_line];
    let mut upper = vec![0.0; n_line];
    let mut rhs = vec![0.0; n_line];
    let mut scratch = vec![0.0; n_line];
    let mut x = vec![0.0; n_line];

    for _sweep in 0..LINE_MAX_SWEEPS {
        let mut delta: f64 = 0.0;
        // Wordline solves: unknowns are top nodes of one row.
        for r in 0..rows {
            for c in 0..cols {
                let g_cell = gc[r * cols + c];
                let mut d = g_cell;
                let mut rh = g_cell * v_bottom[r * cols + c];
                if c == 0 {
                    d += gin;
                    rh += gin * drive.v_wl[r];
                    lower[c] = 0.0;
                } else {
                    d += gw;
                    lower[c] = -gw;
                }
                if c + 1 < cols {
                    d += gw;
                    upper[c] = -gw;
                } else {
                    upper[c] = 0.0;
                }
                diag[c] = d;
                rhs[c] = rh;
            }
            tridiag::solve_into(
                &lower[..cols],
                &diag[..cols],
                &upper[..cols],
                &mut rhs[..cols],
                &mut scratch[..cols],
                &mut x[..cols],
            );
            for c in 0..cols {
                let idx = r * cols + c;
                delta = delta.max((v_top[idx] - x[c]).abs());
                v_top[idx] = x[c];
            }
        }
        // Bitline solves: unknowns are bottom nodes of one column.
        for c in 0..cols {
            for r in 0..rows {
                let g_cell = gc[r * cols + c];
                let mut d = g_cell;
                let mut rh = g_cell * v_top[r * cols + c];
                if r == 0 {
                    d += gout;
                    rh += gout * drive.v_bl[c];
                    lower[r] = 0.0;
                } else {
                    d += gw;
                    lower[r] = -gw;
                }
                if r + 1 < rows {
                    d += gw;
                    upper[r] = -gw;
                } else {
                    upper[r] = 0.0;
                }
                diag[r] = d;
                rhs[r] = rh;
            }
            tridiag::solve_into(
                &lower[..rows],
                &diag[..rows],
                &upper[..rows],
                &mut rhs[..rows],
                &mut scratch[..rows],
                &mut x[..rows],
            );
            for r in 0..rows {
                let idx = r * cols + c;
                delta = delta.max((v_bottom[idx] - x[r]).abs());
                v_bottom[idx] = x[r];
            }
        }
        if delta < LINE_TOL_V {
            return Ok((v_top, v_bottom));
        }
    }
    Err(MnaError::NoConvergence {
        residual: LINE_TOL_V,
    })
}

/// Stamps the network into a dense matrix and right-hand side and solves
/// it by LU. Node numbering: top nodes first (`r·cols + c`), then bottom
/// nodes offset by `rows·cols`.
fn solve_linear_dense(
    params: &CrossbarParams,
    drive: &Drive,
    gc: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), MnaError> {
    let (rows, cols) = (params.rows, params.cols);
    let off = rows * cols;
    let n = 2 * off;
    let gw = 1.0 / params.r_wire;
    let gin = 1.0 / params.r_input;
    let gout = 1.0 / params.r_output;
    let mut a = vec![0.0; n * n];
    let mut rhs = vec![0.0; n];
    let mut add = |r: usize, c: usize, v: f64| a[r * n + c] += v;
    for r in 0..rows {
        for c in 0..cols {
            let t = r * cols + c;
            let bot = off + t;
            // Cell between the two layers.
            let g = gc[t];
            add(t, t, g);
            add(bot, bot, g);
            add(t, bot, -g);
            add(bot, t, -g);
            // Wordline wire / driver.
            if c == 0 {
                add(t, t, gin);
                rhs[t] += gin * drive.v_wl[r];
            } else {
                let left = r * cols + (c - 1);
                add(t, t, gw);
                add(left, left, gw);
                add(t, left, -gw);
                add(left, t, -gw);
            }
            // Bitline wire / driver.
            if r == 0 {
                add(bot, bot, gout);
                rhs[bot] += gout * drive.v_bl[c];
            } else {
                let up = off + (r - 1) * cols + c;
                add(bot, bot, gw);
                add(up, up, gw);
                add(bot, up, -gw);
                add(up, bot, -gw);
            }
        }
    }
    let mut x = dense::lu_solve(a, rhs).map_err(|_| MnaError::Singular)?;
    let v_bottom = x.split_off(off);
    Ok((x, v_bottom))
}

/// Largest Kirchhoff current-law violation (amps) over all nodes, for a
/// given solution and the conductances implied by its node voltages.
///
/// Used by tests to check solver self-consistency.
///
/// # Panics
///
/// Panics if the solution dimensions disagree with `params`/`grid`.
pub fn kirchhoff_residual(
    params: &CrossbarParams,
    grid: &BitGrid,
    op: &ResetOp,
    sol: &Solution,
) -> f64 {
    let (rows, cols) = (params.rows, params.cols);
    assert!(
        sol.v_top.len() == rows * cols,
        "solution dimension mismatch"
    );
    let drive = drive_for(params, op);
    let gw = 1.0 / params.r_wire;
    let gin = 1.0 / params.r_input;
    let gout = 1.0 / params.r_output;
    let mut worst: f64 = 0.0;
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            let vt = sol.v_top[idx];
            let vb = sol.v_bottom[idx];
            let v_cell = (vb - vt).abs();
            let g = if r == op.target_wl && op.target_bls.contains(&c) {
                1.0 / params.r_reset_transition
            } else {
                1.0 / params.effective_resistance(grid.get(r, c), v_cell)
            };
            // Top node balance.
            let mut i_top = g * (vb - vt);
            i_top += if c == 0 {
                gin * (drive.v_wl[r] - vt)
            } else {
                gw * (sol.v_top[idx - 1] - vt)
            };
            if c + 1 < cols {
                i_top += gw * (sol.v_top[idx + 1] - vt);
            }
            worst = worst.max(i_top.abs());
            // Bottom node balance.
            let mut i_bot = g * (vt - vb);
            i_bot += if r == 0 {
                gout * (drive.v_bl[c] - vb)
            } else {
                gw * (sol.v_bottom[idx - cols] - vb)
            };
            if r + 1 < rows {
                i_bot += gw * (sol.v_bottom[idx + cols] - vb);
            }
            worst = worst.max(i_bot.abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSpec;

    fn small_params(n: usize) -> CrossbarParams {
        CrossbarParams::with_size(n, n)
    }

    #[test]
    fn solvers_agree_on_small_crossbar() {
        let n = 8;
        let params = small_params(n);
        let grid = PatternSpec::WorstCaseWl { wl_ones: 5 }.materialize(n, n, 3, &[2, 6]);
        let op = ResetOp::new(3, vec![2, 6]);
        let a = solve_reset(&params, &grid, &op, SolverKind::DenseLu).expect("dense");
        let b = solve_reset(&params, &grid, &op, SolverKind::LineRelaxation).expect("relax");
        for (&(ca, va), &(cb, vb)) in a.target_vd.iter().zip(&b.target_vd) {
            assert_eq!(ca, cb);
            assert!((va - vb).abs() < 1e-3, "dense {va} vs relax {vb}");
        }
    }

    #[test]
    fn target_vd_below_write_voltage_and_positive() {
        let n = 16;
        let params = small_params(n);
        let grid = PatternSpec::AllLrs.materialize(n, n, n - 1, &[n - 1]);
        let op = ResetOp::new(n - 1, vec![n - 1]);
        let sol = solve_reset(&params, &grid, &op, SolverKind::LineRelaxation).expect("solve");
        let vd = sol.min_target_vd();
        assert!(vd > 0.0 && vd < params.write_voltage);
    }

    #[test]
    fn more_lrs_content_lowers_target_voltage() {
        let n = 32;
        let params = small_params(n);
        let op = ResetOp::new(n - 1, vec![n - 1]);
        let mut prev = f64::INFINITY;
        for ones in [0usize, 8, 16, 24, 31] {
            let grid =
                PatternSpec::WorstCaseWl { wl_ones: ones }.materialize(n, n, n - 1, &[n - 1]);
            let sol = solve_reset(&params, &grid, &op, SolverKind::LineRelaxation).expect("solve");
            let vd = sol.min_target_vd();
            assert!(
                vd <= prev + 1e-9,
                "voltage must not rise with more LRS cells ({ones} ones: {vd} vs {prev})"
            );
            prev = vd;
        }
    }

    #[test]
    fn farther_cells_see_lower_voltage() {
        let n = 32;
        let params = small_params(n);
        let near_grid = PatternSpec::AllHrs.materialize(n, n, 0, &[0]);
        let near = solve_reset(
            &params,
            &near_grid,
            &ResetOp::new(0, vec![0]),
            SolverKind::LineRelaxation,
        )
        .expect("near");
        let far_grid = PatternSpec::AllHrs.materialize(n, n, n - 1, &[n - 1]);
        let far = solve_reset(
            &params,
            &far_grid,
            &ResetOp::new(n - 1, vec![n - 1]),
            SolverKind::LineRelaxation,
        )
        .expect("far");
        assert!(far.min_target_vd() < near.min_target_vd());
    }

    #[test]
    fn kirchhoff_residual_is_small() {
        let n = 12;
        let params = small_params(n);
        let grid = PatternSpec::WorstCaseBl { bl_ones: 7 }.materialize(n, n, 5, &[1, 9]);
        let op = ResetOp::new(5, vec![1, 9]);
        let sol = solve_reset(&params, &grid, &op, SolverKind::DenseLu).expect("solve");
        // Residual currents should be tiny relative to the ~0.3 mA cell
        // currents flowing in the network.
        assert!(kirchhoff_residual(&params, &grid, &op, &sol) < 1e-6);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let params = small_params(8);
        let grid = BitGrid::new(4, 4);
        let op = ResetOp::new(0, vec![0]);
        assert!(matches!(
            solve_reset(&params, &grid, &op, SolverKind::DenseLu),
            Err(MnaError::DimensionMismatch)
        ));
    }

    #[test]
    fn out_of_bounds_target_is_reported() {
        let params = small_params(4);
        let grid = BitGrid::new(4, 4);
        let op = ResetOp::new(9, vec![0]);
        assert!(matches!(
            solve_reset(&params, &grid, &op, SolverKind::DenseLu),
            Err(MnaError::TargetOutOfBounds { index: 9, bound: 4 })
        ));
    }

    #[test]
    fn reset_op_dedups_bitlines() {
        let op = ResetOp::new(0, vec![3, 1, 3, 1]);
        assert_eq!(op.target_bls, vec![1, 3]);
    }

    #[test]
    fn multi_bit_reset_reports_all_targets() {
        let n = 16;
        let params = small_params(n);
        let bls: Vec<usize> = (0..8).map(|i| i * 2).collect();
        let grid = PatternSpec::AllHrs.materialize(n, n, 2, &bls);
        let op = ResetOp::new(2, bls.clone());
        let sol = solve_reset(&params, &grid, &op, SolverKind::LineRelaxation).expect("solve");
        assert_eq!(sol.target_vd.len(), 8);
        // Farther bitline columns see (weakly) lower voltage.
        for w in sol.target_vd.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6);
        }
    }
}
