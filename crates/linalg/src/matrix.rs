//! Dense column-major matrix type.
//!
//! Column-major storage is the natural layout for one-sided Jacobi methods:
//! every primitive of the algorithm (column inner products, plane rotations,
//! column-block pairing) touches whole columns, which are contiguous here.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major, `f64` matrix.
///
/// Element `(i, j)` lives at `data[i + j * rows]`. Columns are contiguous.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from column-major data. Panics if the length mismatches.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row-major data (convenience for literals in tests).
    pub fn from_rows(rows: usize, cols: usize, row_major: &[f64]) -> Self {
        assert_eq!(row_major.len(), rows * cols);
        Self::from_fn(rows, cols, |i, j| row_major[i * cols + j])
    }

    /// Builds a diagonal matrix from the given entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Storage footprint in bytes (the quantity checked against SM capacity).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Contiguous column slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable contiguous column slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct mutable column slices (for plane rotations).
    ///
    /// Panics if `a == b`.
    pub fn col_pair_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "col_pair_mut requires distinct columns");
        let r = self.rows;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.data.split_at_mut(hi * r);
        let lo_col = &mut left[lo * r..(lo + 1) * r];
        let hi_col = &mut right[..r];
        if a < b {
            (lo_col, hi_col)
        } else {
            (hi_col, lo_col)
        }
    }

    /// Underlying column-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying column-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its column-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Copies columns `[start, start + width)` into a new matrix.
    pub fn col_block(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols);
        let data = self.data[start * self.rows..(start + width) * self.rows].to_vec();
        Matrix {
            rows: self.rows,
            cols: width,
            data,
        }
    }

    /// Copies the column blocks `bi = (start_i, width_i)` and
    /// `bj = (start_j, width_j)` into one `rows x (width_i + width_j)` pair
    /// block `A_ij = [A_i, A_j]` (the blocks may differ in width).
    pub fn paired_col_blocks(&self, bi: (usize, usize), bj: (usize, usize)) -> Matrix {
        let r = self.rows;
        let mut data = Vec::with_capacity(r * (bi.1 + bj.1));
        for (start, width) in [bi, bj] {
            data.extend_from_slice(&self.data[start * r..(start + width) * r]);
        }
        Matrix {
            rows: r,
            cols: bi.1 + bj.1,
            data,
        }
    }

    /// Writes a pair block from [`Matrix::paired_col_blocks`] back into
    /// column blocks `bi` and `bj`.
    pub fn store_paired_col_blocks(
        &mut self,
        bi: (usize, usize),
        bj: (usize, usize),
        block: &Matrix,
    ) {
        assert_eq!(block.rows, self.rows);
        assert_eq!(block.cols, bi.1 + bj.1);
        let r = self.rows;
        let (head, tail) = block.data.split_at(bi.1 * r);
        self.data[bi.0 * r..(bi.0 + bi.1) * r].copy_from_slice(head);
        self.data[bj.0 * r..(bj.0 + bj.1) * r].copy_from_slice(tail);
    }

    /// Copies the rectangular sub-matrix with top-left `(row, col)`.
    pub fn sub_matrix(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols);
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in col..col + ncols {
            data.extend_from_slice(&self.col(j)[row..row + nrows]);
        }
        Matrix::from_col_major(nrows, ncols, data)
    }

    /// Writes `block` into the rectangle with top-left `(row, col)`.
    pub fn set_sub_matrix(&mut self, row: usize, col: usize, block: &Matrix) {
        assert!(row + block.rows <= self.rows && col + block.cols <= self.cols);
        for j in 0..block.cols {
            self.col_mut(col + j)[row..row + block.rows].copy_from_slice(block.col(j));
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Element-wise `self - other` as a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Off-diagonal Frobenius norm (convergence measure for two-sided Jacobi).
    pub fn off_diag_norm(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.cols {
            for i in 0..self.rows {
                if i != j {
                    s += self[(i, j)] * self[(i, j)];
                }
            }
        }
        s.sqrt()
    }

    /// Main-diagonal entries.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Swaps two columns in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let r = self.rows;
        let (ca, cb) = self.col_pair_mut(a, b);
        for i in 0..r {
            std::mem::swap(&mut ca[i], &mut cb[i]);
        }
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Splits `n` columns into consecutive `(start, width)` blocks of width `w`;
/// the last block is narrower when `w` does not divide `n`.
pub fn partition_cols(n: usize, w: usize) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = 0;
    while start < n {
        let width = w.min(n - start);
        parts.push((start, width));
        start += width;
    }
    parts
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {:?}",
            self.shape()
        );
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {:?}",
            self.shape()
        );
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::identity(4);
        assert_eq!(m.diag(), vec![1.0; 4]);
        assert_eq!(m.off_diag_norm(), 0.0);
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.col(1), &[2.0, 5.0]);
        assert_eq!(m.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn col_pair_mut_both_orders() {
        let mut m = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        {
            let (a, b) = m.col_pair_mut(0, 2);
            assert_eq!(a, &[1.0, 4.0]);
            assert_eq!(b, &[3.0, 6.0]);
        }
        {
            let (a, b) = m.col_pair_mut(2, 0);
            assert_eq!(a, &[3.0, 6.0]);
            assert_eq!(b, &[1.0, 4.0]);
        }
    }

    #[test]
    #[should_panic]
    fn col_pair_mut_same_col_panics() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.col_pair_mut(1, 1);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(4, 7, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(3, 2)], m[(2, 3)]);
    }

    #[test]
    fn paired_col_blocks_roundtrip() {
        let m = Matrix::from_fn(4, 8, |i, j| (i + j * 4) as f64);
        let blk = m.paired_col_blocks((0, 2), (6, 2));
        assert_eq!(blk.shape(), (4, 4));
        assert_eq!(blk.col(0), m.col(0));
        assert_eq!(blk.col(3), m.col(7));
        // Ragged: a 3-wide block paired with the 1-wide tail.
        let parts = partition_cols(7, 3);
        assert_eq!(parts, vec![(0, 3), (3, 3), (6, 1)]);
        let blk = m.paired_col_blocks(parts[0], parts[2]);
        assert_eq!(blk.shape(), (4, 4));
        assert_eq!(blk.col(2), m.col(2));
        assert_eq!(blk.col(3), m.col(6));
        let mut m2 = Matrix::zeros(4, 8);
        m2.store_paired_col_blocks(parts[0], parts[2], &blk);
        for j in [0, 1, 2, 6] {
            assert_eq!(m2.col(j), m.col(j));
        }
        assert!(m2.col(3).iter().chain(m2.col(7)).all(|&x| x == 0.0));
    }

    #[test]
    fn partition_cols_ragged() {
        assert_eq!(partition_cols(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(partition_cols(4, 2), vec![(0, 2), (2, 2)]);
        assert!(partition_cols(0, 3).is_empty());
    }

    #[test]
    fn sub_matrix_and_set() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let s = m.sub_matrix(1, 2, 2, 3);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(5, 5);
        z.set_sub_matrix(1, 2, &s);
        assert_eq!(z[(2, 4)], m[(2, 4)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(2, 2, &[3., 0., 0., 4.]);
        assert_eq!(m.fro_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        let n = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        assert!((n.off_diag_norm() - (4.0f64 + 9.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn swap_cols_works() {
        let mut m = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        m.swap_cols(0, 1);
        assert_eq!(m.col(0), &[2.0, 4.0]);
        m.swap_cols(1, 1);
        assert_eq!(m.col(1), &[1.0, 3.0]);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let m = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn bytes_counts_f64() {
        assert_eq!(Matrix::zeros(4, 4).bytes(), 16 * 8);
    }
}
