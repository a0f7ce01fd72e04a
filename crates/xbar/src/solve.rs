//! Linear-algebra kernels used by the crossbar MNA solver.
//!
//! Three independent solvers are provided so results can be cross-validated:
//!
//! * [`dense`] — LU factorization with partial pivoting, `O(n³)`; used for
//!   small arrays and as the reference in tests.
//! * [`tridiag`] — Thomas algorithm for the per-line subproblems of the
//!   block Gauss–Seidel ("line relaxation") solver.
//! * [`csr`] — compressed-sparse-row matrices with Jacobi-preconditioned
//!   conjugate gradient, usable on medium and large networks.

/// Dense direct solver.
pub mod dense {
    /// Solves `a · x = b` in place via LU with partial pivoting.
    ///
    /// `a` is a row-major `n × n` matrix; both `a` and `b` are consumed and
    /// overwritten. Returns the solution vector.
    ///
    /// # Errors
    ///
    /// Returns `Err(col)` if a zero (or numerically negligible) pivot is
    /// encountered at column `col`, i.e. the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != b.len() * b.len()`.
    pub fn lu_solve(mut a: Vec<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, usize> {
        let n = b.len();
        assert_eq!(a.len(), n * n, "matrix/vector dimension mismatch");
        for k in 0..n {
            // Partial pivoting.
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for r in (k + 1)..n {
                let v = a[r * n + k].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max < 1e-300 {
                return Err(k);
            }
            if piv != k {
                for c in 0..n {
                    a.swap(k * n + c, piv * n + c);
                }
                b.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for r in (k + 1)..n {
                let f = a[r * n + k] / pivot;
                if f == 0.0 {
                    continue;
                }
                a[r * n + k] = 0.0;
                for c in (k + 1)..n {
                    a[r * n + c] -= f * a[k * n + c];
                }
                b[r] -= f * b[k];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = b[k];
            for c in (k + 1)..n {
                s -= a[k * n + c] * x[c];
            }
            x[k] = s / a[k * n + k];
        }
        Ok(x)
    }
}

/// Thomas-algorithm tridiagonal solver.
pub mod tridiag {
    /// Solves a tridiagonal system in `O(n)`.
    ///
    /// `lower[i]` couples unknown `i` to `i-1` (with `lower[0]` unused),
    /// `diag[i]` is the main diagonal and `upper[i]` couples `i` to `i+1`
    /// (with `upper[n-1]` unused). `rhs` is overwritten with intermediate
    /// values; scratch buffers are provided by the caller so hot loops do
    /// not allocate.
    ///
    /// # Panics
    ///
    /// Panics if the slices have mismatched lengths, or (debug builds only)
    /// if a pivot underflows, which cannot happen for the diagonally
    /// dominant systems produced by resistive networks.
    pub fn solve_into(
        lower: &[f64],
        diag: &[f64],
        upper: &[f64],
        rhs: &mut [f64],
        scratch: &mut [f64],
        x: &mut [f64],
    ) {
        let n = diag.len();
        assert!(
            lower.len() == n && upper.len() == n && rhs.len() == n && x.len() == n,
            "tridiagonal system slice length mismatch"
        );
        assert_eq!(scratch.len(), n, "scratch length mismatch");
        // Forward elimination: scratch holds the modified upper diagonal.
        let mut beta = diag[0];
        debug_assert!(beta.abs() > 1e-300, "zero pivot in tridiagonal solve");
        scratch[0] = upper[0] / beta;
        rhs[0] /= beta;
        for i in 1..n {
            beta = diag[i] - lower[i] * scratch[i - 1];
            debug_assert!(beta.abs() > 1e-300, "zero pivot in tridiagonal solve");
            scratch[i] = upper[i] / beta;
            rhs[i] = (rhs[i] - lower[i] * rhs[i - 1]) / beta;
        }
        // Back substitution.
        x[n - 1] = rhs[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = rhs[i] - scratch[i] * x[i + 1];
        }
    }
}

/// Sparse matrices and the conjugate-gradient solver.
pub mod csr {
    /// Compressed-sparse-row symmetric matrix.
    ///
    /// Built through [`CsrBuilder`]; the conjugate-gradient solver assumes
    /// the matrix is symmetric positive definite, which holds for the
    /// conductance matrix of a resistive network that is grounded through
    /// at least one driver.
    #[derive(Debug, Clone)]
    pub struct Csr {
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    }

    impl Csr {
        /// Dimension of the (square) matrix.
        pub fn n(&self) -> usize {
            self.n
        }

        /// Computes `y = A·x`.
        ///
        /// # Panics
        ///
        /// Panics if `x` or `y` have length different from `n`.
        #[expect(clippy::needless_range_loop, reason = "row index drives the CSR walk")]
        pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
            assert!(x.len() == self.n && y.len() == self.n, "dimension mismatch");
            for r in 0..self.n {
                let mut s = 0.0;
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    s += self.values[k] * x[self.col_idx[k]];
                }
                y[r] = s;
            }
        }

        /// Returns the main diagonal (used for Jacobi preconditioning).
        #[expect(clippy::needless_range_loop, reason = "row index drives the CSR walk")]
        pub fn diagonal(&self) -> Vec<f64> {
            let mut d = vec![0.0; self.n];
            for r in 0..self.n {
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    if self.col_idx[k] == r {
                        d[r] = self.values[k];
                    }
                }
            }
            d
        }

        /// Infinity norm of the residual `A·x − b`.
        pub fn residual_inf(&self, x: &[f64], b: &[f64]) -> f64 {
            let mut y = vec![0.0; self.n];
            self.mul_vec(x, &mut y);
            y.iter()
                .zip(b)
                .map(|(yi, bi)| (yi - bi).abs())
                .fold(0.0, f64::max)
        }
    }

    /// Incremental builder accumulating duplicate entries.
    #[derive(Debug)]
    pub struct CsrBuilder {
        n: usize,
        entries: Vec<Vec<(usize, f64)>>,
    }

    impl CsrBuilder {
        /// Creates a builder for an `n × n` matrix.
        pub fn new(n: usize) -> Self {
            Self {
                n,
                entries: vec![Vec::new(); n],
            }
        }

        /// Adds `v` to entry `(r, c)`.
        ///
        /// # Panics
        ///
        /// Panics if `r` or `c` is out of bounds.
        pub fn add(&mut self, r: usize, c: usize, v: f64) {
            assert!(r < self.n && c < self.n, "entry ({r},{c}) out of bounds");
            self.entries[r].push((c, v));
        }

        /// Finalizes into a [`Csr`], merging duplicates.
        pub fn build(mut self) -> Csr {
            let mut row_ptr = Vec::with_capacity(self.n + 1);
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            row_ptr.push(0);
            for row in &mut self.entries {
                row.sort_unstable_by_key(|&(c, _)| c);
                let mut last: Option<usize> = None;
                for &(c, v) in row.iter() {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: last == Some(c) implies values got an entry on a previous iteration"
                    )]
                    if last == Some(c) {
                        *values.last_mut().expect("entry exists") += v;
                    } else {
                        col_idx.push(c);
                        values.push(v);
                        last = Some(c);
                    }
                }
                row_ptr.push(col_idx.len());
            }
            Csr {
                n: self.n,
                row_ptr,
                col_idx,
                values,
            }
        }
    }

    /// Outcome of a conjugate-gradient run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CgStats {
        /// Iterations performed.
        pub iterations: usize,
        /// Final preconditioned-residual norm relative to the initial one.
        pub relative_residual: f64,
        /// Whether the tolerance was reached before the iteration cap.
        pub converged: bool,
    }

    /// Jacobi-preconditioned conjugate gradient for SPD systems.
    ///
    /// Solves `A·x = b` starting from the provided `x` (warm starts are
    /// supported), stopping when the 2-norm of the residual has shrunk by
    /// `rel_tol` or after `max_iter` iterations.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn cg_solve(a: &Csr, b: &[f64], x: &mut [f64], rel_tol: f64, max_iter: usize) -> CgStats {
        let n = a.n();
        assert!(b.len() == n && x.len() == n, "dimension mismatch");
        let inv_diag: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut r = vec![0.0; n];
        a.mul_vec(x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let r0: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if r0 == 0.0 {
            return CgStats {
                iterations: 0,
                relative_residual: 0.0,
                converged: true,
            };
        }
        let mut ap = vec![0.0; n];
        for it in 0..max_iter {
            a.mul_vec(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap <= 0.0 {
                // Loss of positive definiteness in floating point; bail out.
                return CgStats {
                    iterations: it,
                    relative_residual: f64::NAN,
                    converged: false,
                };
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if rn / r0 < rel_tol {
                return CgStats {
                    iterations: it + 1,
                    relative_residual: rn / r0,
                    converged: true,
                };
            }
            for i in 0..n {
                z[i] = r[i] * inv_diag[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        CgStats {
            iterations: max_iter,
            relative_residual: rn / r0,
            converged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, -4.0];
        let x = dense::lu_solve(a, b).expect("solvable");
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 4.0).abs() < 1e-12);
    }

    #[test]
    fn dense_solves_with_pivoting() {
        // Requires a row swap: zero leading pivot.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let b = vec![2.0, 5.0];
        let x = dense::lu_solve(a, b).expect("solvable");
        assert!((x[0] - 5.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_detects_singular() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(dense::lu_solve(a, vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn tridiag_matches_dense() {
        let n = 7;
        let lower = vec![-1.0; n];
        let diag = vec![4.0; n];
        let upper = vec![-1.5; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        // Dense reference.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = diag[i];
            if i > 0 {
                a[i * n + i - 1] = lower[i];
            }
            if i + 1 < n {
                a[i * n + i + 1] = upper[i];
            }
        }
        let x_ref = dense::lu_solve(a, rhs.clone()).expect("solvable");
        let mut rhs_mut = rhs;
        let mut scratch = vec![0.0; n];
        let mut x = vec![0.0; n];
        tridiag::solve_into(&lower, &diag, &upper, &mut rhs_mut, &mut scratch, &mut x);
        for (xa, xb) in x.iter().zip(&x_ref) {
            assert!((xa - xb).abs() < 1e-10);
        }
    }

    #[test]
    fn cg_solves_spd_system() {
        // Small SPD matrix: discrete Laplacian + identity.
        let n = 20;
        let mut b = csr::CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 3.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        let a = b.build();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x = vec![0.0; n];
        let stats = csr::cg_solve(&a, &rhs, &mut x, 1e-12, 200);
        assert!(stats.converged);
        assert!(a.residual_inf(&x, &rhs) < 1e-9);
    }

    #[test]
    fn csr_builder_merges_duplicates() {
        let mut b = csr::CsrBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.0);
        b.add(0, 1, -1.0);
        b.add(1, 1, 5.0);
        let a = b.build();
        let mut y = vec![0.0; 2];
        a.mul_vec(&[1.0, 1.0], &mut y);
        assert!((y[0] - 2.0).abs() < 1e-12);
        assert!((y[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cg_warm_start_converges_immediately_at_solution() {
        let mut b = csr::CsrBuilder::new(3);
        for i in 0..3 {
            b.add(i, i, 2.0);
        }
        let a = b.build();
        let rhs = vec![2.0, 4.0, 6.0];
        let mut x = vec![1.0, 2.0, 3.0];
        let stats = csr::cg_solve(&a, &rhs, &mut x, 1e-12, 10);
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }
}
