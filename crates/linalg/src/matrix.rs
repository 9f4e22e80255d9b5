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
/// The default is the empty `0 x 0` matrix.
#[derive(Clone, Default, PartialEq)]
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

    /// Every column as its own mutable slice, in order.
    pub fn cols_mut(&mut self) -> Vec<&mut [f64]> {
        if self.rows == 0 {
            return (0..self.cols).map(|_| <&mut [f64]>::default()).collect();
        }
        self.data.chunks_mut(self.rows).collect()
    }

    /// Two distinct mutable column slices (for plane rotations).
    ///
    /// Panics if `a == b`.
    #[inline]
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

    /// A copy of the columns `src` holds, wherever they live (for example
    /// a pair block's columns borrowed in place from its task).
    pub fn from_columns(src: &dyn Columns) -> Matrix {
        let mut m = Matrix::default();
        m.assign_rows(src, 0..src.shape().0);
        m
    }

    /// Makes `self` a copy of rows `rows` of the columns `src` holds,
    /// reusing its allocation: a buffer that stages one block after another
    /// stops allocating once it has held the largest.
    pub fn assign_rows(&mut self, src: &dyn Columns, rows: std::ops::Range<usize>) {
        let cols = src.shape().1;
        self.data.clear();
        self.data.reserve(rows.len() * cols);
        for j in 0..cols {
            self.data.extend_from_slice(&src.col(j)[rows.clone()]);
        }
        self.rows = rows.len();
        self.cols = cols;
    }

    /// Reorders the columns in place: column `k` becomes the old column
    /// `order[k]`. `order` must be a permutation of `0..cols`.
    pub fn permute_cols(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.cols, "one source per column");
        let r = self.rows;
        let mut done = vec![false; self.cols];
        let mut held = Vec::new();
        for start in 0..self.cols {
            if done[start] || order[start] == start {
                continue;
            }
            // Follow the cycle through `start`, holding its first column.
            held.clear();
            held.extend_from_slice(self.col(start));
            let mut k = start;
            while order[k] != start {
                self.data
                    .copy_within(order[k] * r..(order[k] + 1) * r, k * r);
                done[k] = true;
                k = order[k];
            }
            self.col_mut(k).copy_from_slice(&held);
            done[k] = true;
        }
    }

    /// Keeps the first `cols` columns, dropping the rest in place.
    pub fn truncate_cols(&mut self, cols: usize) {
        if cols < self.cols {
            self.data.truncate(cols * self.rows);
            self.cols = cols;
        }
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

/// Read access to a block of equal-length columns, wherever they live: a
/// whole [`Matrix`], or a pair block's columns borrowed in place from its
/// task (the `Vec<&mut [f64]>` that [`pair_cols_mut`] returns per pair).
pub trait Columns {
    /// `(rows, cols)`: the column length and the number of columns.
    fn shape(&self) -> (usize, usize);
    /// Column `j`, `shape().0` long.
    fn col(&self, j: usize) -> &[f64];
}

impl Columns for Matrix {
    #[inline]
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }

    #[inline]
    fn col(&self, j: usize) -> &[f64] {
        Matrix::col(self, j)
    }
}

/// Borrowed columns; a block with no columns has no rows.
impl Columns for Vec<&mut [f64]> {
    #[inline]
    fn shape(&self) -> (usize, usize) {
        (self.first().map_or(0, |c| c.len()), self.len())
    }

    #[inline]
    fn col(&self, j: usize) -> &[f64] {
        self[j]
    }
}

/// The columns of pair blocks spread over several matrices, as mutable
/// slices: for each `(matrix, bi, bj)` of `pairs`, the columns of block
/// `bi` then of block `bj` (`(start, width)` column blocks) of
/// `mats[matrix]`, that is the pair block `A_ij = [A_i, A_j]` where it
/// lives, so that kernels read and write it in place. Only the requested
/// columns are visited. Panics if two pairs share a column or a pair names
/// a `None` matrix.
pub fn pair_cols_mut<'a>(
    mats: impl IntoIterator<Item = Option<&'a mut Matrix>>,
    pairs: impl IntoIterator<Item = (usize, (usize, usize), (usize, usize))>,
) -> Vec<Vec<&'a mut [f64]>> {
    let pairs: Vec<_> = pairs.into_iter().collect();
    // Every requested block as (matrix, start, width, pair), in column order.
    let mut wanted: Vec<(usize, usize, usize, usize)> = pairs
        .iter()
        .enumerate()
        .flat_map(|(k, &(m, bi, bj))| [(m, bi.0, bi.1, k), (m, bj.0, bj.1, k)])
        .collect();
    wanted.sort_unstable();
    let mut out: Vec<Vec<&'a mut [f64]>> = pairs
        .iter()
        .map(|&(_, bi, bj)| Vec::with_capacity(bi.1 + bj.1))
        .collect();
    let mut wanted = wanted.into_iter().peekable();
    for (m, mat) in mats.into_iter().enumerate() {
        let Some(mat) = mat else { continue };
        let rows = mat.rows;
        let mut rest = mat.data.as_mut_slice();
        let mut next_col = 0;
        while let Some((_, start, width, k)) = wanted.next_if(|w| w.0 == m) {
            let skip = start.checked_sub(next_col).expect("pairs share no column");
            rest = std::mem::take(&mut rest).split_at_mut(skip * rows).1;
            for _ in 0..width {
                let (col, tail) = std::mem::take(&mut rest).split_at_mut(rows);
                out[k].push(col);
                rest = tail;
            }
            next_col = start + width;
        }
    }
    assert!(
        wanted.next().is_none(),
        "a pair names a matrix with no columns"
    );
    // Blocks were cut in column order; put each pair's `bi` first.
    for (&(_, bi, bj), cols) in pairs.iter().zip(&mut out) {
        if bj.0 < bi.0 {
            cols.rotate_left(bj.1);
        }
    }
    out
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
    fn pair_cols_are_the_pair_blocks_in_place() {
        let mut a = Matrix::from_fn(3, 7, |i, j| (i + j * 3) as f64);
        let mut b = Matrix::from_fn(2, 4, |i, j| -((i + j * 2) as f64));
        let pairs = [
            (0, (0, 3), (6, 1)),
            (2, (2, 2), (0, 1)),
            (0, (3, 2), (5, 1)),
        ];
        let mut cols = pair_cols_mut([Some(&mut a), None, Some(&mut b)], pairs);
        assert_eq!(cols.iter().map(Vec::len).collect::<Vec<_>>(), [4, 3, 3]);
        let want_a: Vec<f64> = (0..9).chain(18..21).map(|x| x as f64).collect();
        assert_eq!(cols[0].concat(), want_a);
        assert_eq!(cols[1].concat(), [-4.0, -5.0, -6.0, -7.0, 0.0, -1.0]);
        assert_eq!(Columns::shape(&cols[1]), (2, 3));
        assert_eq!(Matrix::from_columns(&cols[1]).as_slice(), cols[1].concat());
        cols[2][1][0] = 100.0; // column 4 of `a`, row 0
        drop(cols);
        assert_eq!(a[(0, 4)], 100.0);
    }

    #[test]
    fn assigned_columns_reuse_the_buffer() {
        let mut m = Matrix::from_fn(4, 8, |i, j| (i + j * 4) as f64);
        let mut buf = Matrix::from_columns(&m);
        assert_eq!(buf, m);
        let cap = buf.data.capacity();
        // A narrower, shorter view: the rows 1..3 of columns 2 and 6.
        let view: Vec<&mut [f64]> = m
            .cols_mut()
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| j == 2 || j == 6)
            .map(|(_, c)| &mut c[1..3])
            .collect();
        buf.assign_rows(&view, 0..2);
        assert_eq!(buf.shape(), (2, 2));
        assert_eq!(buf.as_slice(), [9.0, 10.0, 25.0, 26.0]);
        buf.assign_rows(&view, 1..2);
        assert_eq!(buf.as_slice(), [10.0, 26.0]);
        assert_eq!(buf.data.capacity(), cap);
        assert_eq!(Columns::shape(&Vec::<&mut [f64]>::new()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "no columns")]
    fn pair_cols_refuse_a_missing_matrix() {
        let mut a = Matrix::zeros(2, 4);
        pair_cols_mut([Some(&mut a), None], [(1, (0, 1), (2, 1))]);
    }

    #[test]
    #[should_panic(expected = "pairs share no column")]
    fn pair_cols_refuse_a_shared_column() {
        let mut a = Matrix::zeros(2, 4);
        pair_cols_mut([Some(&mut a)], [(0, (0, 2), (2, 1)), (0, (2, 2), (0, 0))]);
    }

    #[test]
    fn permute_and_truncate_cols_in_place() {
        let m = Matrix::from_fn(3, 6, |i, j| (i + 10 * j) as f64);
        // Two cycles (0 -> 3 -> 1, 2 -> 5) and a fixed point (4).
        let order = [3, 0, 5, 1, 4, 2];
        let mut p = m.clone();
        p.permute_cols(&order);
        for (k, &j) in order.iter().enumerate() {
            assert_eq!(p.col(k), m.col(j));
        }
        p.truncate_cols(2);
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.col(1), m.col(0));
        p.truncate_cols(4);
        assert_eq!(p.shape(), (3, 2));
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
