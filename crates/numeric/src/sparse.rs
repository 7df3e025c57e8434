//! Sparse matrix support: coordinate (triplet) assembly and compressed
//! sparse row storage.
//!
//! MNA stamping naturally produces duplicate coordinate entries (every
//! element stamps its own contribution); [`Triplets`] accumulates them
//! and [`Triplets::to_csr`] merges duplicates. The CSR form feeds
//! matrix–vector products (PRIMA), the fill-reducing orderings
//! ([`crate::approximate_minimum_degree`], [`crate::BtfForm`]) and the
//! sparse LU ([`crate::SparseLu`]).

use crate::{Matrix, NumericError, Result, Scalar};

/// Coordinate-format sparse matrix builder with duplicate accumulation.
#[derive(Clone, Debug)]
pub struct Triplets<T = f64> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of raw (pre-merge) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate on conversion.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the position is out of range.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        debug_assert!(row < self.nrows && col < self.ncols, "triplet out of range");
        if !value.is_zero() {
            self.entries.push((row, col, value));
        }
    }

    /// Raw entries view.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Converts to CSR, merging duplicate coordinates by summation.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut counts = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut data: Vec<T> = Vec::with_capacity(sorted.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if prev == Some((r, c)) {
                // Sorted order guarantees duplicates are adjacent, so a
                // prior entry always exists here.
                if let Some(last) = data.last_mut() {
                    *last += v;
                }
            } else {
                indices.push(c);
                data.push(v);
                counts[r + 1] += 1;
                prev = Some((r, c));
            }
        }
        let mut indptr = counts;
        for r in 0..self.nrows {
            indptr[r + 1] += indptr[r];
        }
        let runs = RowRuns::new((0..self.nrows).map(|r| &indices[indptr[r]..indptr[r + 1]]));
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
            runs,
        }
    }

    /// Converts to a dense matrix (small systems and tests).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for &(r, c, v) in &self.entries {
            m[(r, c)] += v;
        }
        m
    }
}

/// Maximal runs of consecutive column indices per row, in slot order.
///
/// A row storing columns `3 4 5 9 10` holds the runs `(3, 3)` and
/// `(9, 2)`, each `(first column, length)`; a run's slots follow those
/// of the run before it. A kernel that walks a row as `(value, x[col])`
/// pairs can then zip a contiguous slice of values with a contiguous
/// window of `x` per run, instead of loading a column index and
/// gathering once per entry. The pairs, and their order, are the same
/// either way, so the arithmetic — and every rounding — is too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RowRuns {
    /// Row `i`'s runs are `runs[ptr[i]..ptr[i + 1]]`.
    ptr: Vec<usize>,
    runs: Vec<(usize, usize)>,
}

impl RowRuns {
    /// Splits every row's column list into its maximal runs.
    pub(crate) fn new<'a>(rows: impl IntoIterator<Item = &'a [usize]>) -> Self {
        let mut ptr = vec![0];
        let mut runs = Vec::new();
        for cols in rows {
            let mut cols = cols.iter().copied();
            if let Some(first) = cols.next() {
                let mut run = (first, 1);
                for c in cols {
                    if c == run.0 + run.1 {
                        run.1 += 1;
                    } else {
                        runs.push(run);
                        run = (c, 1);
                    }
                }
                runs.push(run);
            }
            ptr.push(runs.len());
        }
        Self { ptr, runs }
    }

    /// Total number of runs over all rows.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.runs.len()
    }

    /// Row `i`'s runs as `(values, x window)` slice pairs of equal
    /// length, in slot order: `vals` holds the row's values from its
    /// first run on, and a run starting at column `c` reads
    /// `x[base + c ..]`. Slot ranges and windows are in bounds whenever
    /// `vals` and `x` match the pattern the runs were built from.
    #[inline]
    pub(crate) fn zip_row<'a, T>(
        &'a self,
        i: usize,
        vals: &'a [T],
        x: &'a [T],
        base: usize,
    ) -> impl Iterator<Item = (&'a [T], &'a [T])> + 'a {
        self.runs[self.ptr[i]..self.ptr[i + 1]]
            .iter()
            .scan(0usize, move |slot, &(c, len)| {
                let s = *slot;
                *slot += len;
                Some((&vals[s..s + len], &x[base + c..base + c + len]))
            })
    }
}

/// Compressed sparse row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
    /// Column runs of every row, derived from `indptr` / `indices` at
    /// construction; [`CsrMatrix::matvec`] walks them.
    runs: RowRuns,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row-by-row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, aligned with [`CsrMatrix::indices`].
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.data[lo..hi].iter().copied())
    }

    /// Value at `(i, j)`, zero if not stored.
    ///
    /// `to_csr` emits each row's columns in ascending order, so lookup
    /// is a binary search within the row, not a linear scan.
    pub fn get(&self, i: usize, j: usize) -> T {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        match self.indices[lo..hi].binary_search(&j) {
            Ok(k) => self.data[lo + k],
            Err(_) => T::zero(),
        }
    }

    /// Whether `(i, j)` is *structurally* present (stored, even if the
    /// stored value happens to be zero).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi].binary_search(&j).is_ok()
    }

    /// Fraction of stored entries: `nnz / (nrows · ncols)`; 0 for an
    /// empty shape. Drives the Auto backend-selection heuristic.
    pub fn density(&self) -> f64 {
        let cells = self.nrows * self.ncols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.ncols {
            return Err(NumericError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
            });
        }
        let mut y = vec![T::zero(); self.nrows];
        for i in 0..self.nrows {
            let vals = &self.data[self.indptr[i]..self.indptr[i + 1]];
            let mut acc = T::zero();
            for (vs, xs) in self.runs.zip_row(i, vals, x, 0) {
                for (&v, &xv) in vs.iter().zip(xs) {
                    acc += v * xv;
                }
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Converts to dense storage.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                m[(i, c)] = v;
            }
        }
        m
    }

    /// Undirected adjacency lists of the structural pattern of a square
    /// matrix (`i ~ j` when either `(i,j)` or `(j,i)` is stored),
    /// excluding self-loops. Input to the AMD ordering.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let n = self.nrows.max(self.ncols);
        let mut adj = vec![Vec::new(); n];
        for i in 0..self.nrows {
            for (j, _) in self.row_iter(i) {
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        t.push(1, 1, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 1), -1.0);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn zero_pushes_are_skipped() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn csr_matches_dense() {
        let mut t = Triplets::new(3, 3);
        for (r, c, v) in [(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0), (0, 1, 1.0)] {
            t.push(r, c, v);
        }
        let csr = t.to_csr();
        let dense = t.to_dense();
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, -1.0);
        let csr = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        let y = csr.matvec(&x).unwrap();
        let yd = t.to_dense().matvec(&x).unwrap();
        assert_eq!(y, yd);
    }

    #[test]
    fn empty_rows_have_valid_pointers() {
        let mut t = Triplets::new(4, 4);
        t.push(3, 3, 1.0);
        let csr = t.to_csr();
        assert_eq!(csr.indptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(csr.matvec(&[1.0; 4]).unwrap(), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn adjacency_is_symmetric_without_self_loops() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 1, 5.0);
        t.push(2, 0, 1.0);
        let adj = t.to_csr().adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0]);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn matvec_dimension_error() {
        let t = Triplets::<f64>::new(2, 3);
        let csr = t.to_csr();
        assert!(csr.matvec(&[0.0; 2]).is_err());
        assert!(csr.matvec(&[0.0; 4]).is_err());
    }

    #[test]
    fn get_binary_search_agrees_with_scan_on_wide_rows() {
        // A row with many entries: every stored and absent column must
        // resolve exactly as a linear scan would.
        let mut t = Triplets::new(2, 101);
        for c in (0..101).step_by(3) {
            t.push(0, c, c as f64 + 0.5);
        }
        let csr = t.to_csr();
        for c in 0..101 {
            let expect = if c % 3 == 0 { c as f64 + 0.5 } else { 0.0 };
            assert_eq!(csr.get(0, c), expect, "col {c}");
            assert_eq!(csr.contains(0, c), c % 3 == 0);
        }
        // Row 1 is empty: everything absent.
        assert_eq!(csr.get(1, 50), 0.0);
        assert!(!csr.contains(1, 50));
    }

    #[test]
    fn contains_sees_structural_zeros() {
        // Cancelling duplicates leave a stored zero: `get` reports 0,
        // `contains` reports presence.
        let mut t = Triplets::new(1, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(0, 0), 0.0);
        assert!(csr.contains(0, 0));
        assert!(!csr.contains(0, 1));
    }

    #[test]
    fn density_counts_stored_fraction() {
        let mut t = Triplets::new(4, 5);
        t.push(0, 0, 1.0);
        t.push(3, 4, 2.0);
        assert!((t.to_csr().density() - 2.0 / 20.0).abs() < 1e-15);
        assert_eq!(Triplets::<f64>::new(0, 0).to_csr().density(), 0.0);
    }

    #[test]
    fn row_runs_split_at_every_gap() {
        let rows: [&[usize]; 4] = [&[3, 4, 5, 9, 10], &[], &[7], &[0, 2, 3, 5]];
        let runs = RowRuns::new(rows);
        assert_eq!(runs.count(), 6);
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x: Vec<f64> = (0..12).map(|c| 10.0 * c as f64).collect();
        let pairs: Vec<(Vec<f64>, Vec<f64>)> =
            runs.zip_row(0, &vals, &x, 0).map(|(v, w)| (v.to_vec(), w.to_vec())).collect();
        assert_eq!(
            pairs,
            vec![
                (vec![1.0, 2.0, 3.0], vec![30.0, 40.0, 50.0]),
                (vec![4.0, 5.0], vec![90.0, 100.0]),
            ]
        );
        assert_eq!(runs.zip_row(1, &vals, &x, 0).count(), 0);
        // `base` shifts the window: column 7 of row 2 reads x[9].
        let (v, w) = runs.zip_row(2, &vals, &x, 2).next().unwrap();
        assert_eq!((v, w), (&[1.0][..], &[90.0][..]));
        assert_eq!(runs.zip_row(3, &vals, &x, 0).count(), 3);
    }

    /// The matvec as it read before rows were walked by column runs:
    /// one index load and one gather per stored entry.
    fn matvec_indexed<T: Scalar>(a: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
        (0..a.nrows())
            .map(|i| {
                let mut acc = T::zero();
                for (c, v) in a.row_iter(i) {
                    acc += v * x[c];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn run_matvec_is_bit_identical_to_indexed_matvec() {
        // Rows: empty, isolated entries, one long run, runs with
        // one-column gaps, and duplicates that `to_csr` merges.
        let (n, m) = (7, 300);
        let mut t = Triplets::new(n, m);
        let val = |r: usize, c: usize| {
            ((r * 31 + c * 17) as f64 * 0.61).sin() * 1e3f64.powf((c % 5) as f64 - 2.0)
        };
        for c in (0..m).step_by(13) {
            t.push(1, c, val(1, c));
        }
        for c in 0..m {
            t.push(2, c, val(2, c));
        }
        for c in (0..m).filter(|c| c % 9 != 4) {
            t.push(3, c, val(3, c));
        }
        for c in 40..120 {
            t.push(4, c, val(4, c));
            t.push(4, c, val(c, 4));
        }
        t.push(5, m - 1, 2.5);
        for c in (0..m).rev().step_by(2) {
            t.push(6, c, val(6, c));
            t.push(6, c + 1 - c % 2, -0.5);
        }
        let a = t.to_csr();
        assert_eq!(a.row_iter(0).count(), 0);
        assert!(a.runs.count() < a.nnz() / 3, "fixture lost its long runs");
        let x: Vec<f64> = (0..m).map(|c| ((c * 7) as f64 * 0.29).cos() + 0.01 * c as f64).collect();
        let runs = a.matvec(&x).unwrap();
        let indexed = matvec_indexed(&a, &x);
        assert_eq!(
            runs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            indexed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut tc = Triplets::new(n, m);
        for &(r, c, v) in t.entries() {
            tc.push(r, c, Complex64::new(v, -0.75 * v + 1e-3 * c as f64));
        }
        let ac = tc.to_csr();
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 1.0 - v)).collect();
        let bits = |ys: Vec<Complex64>| {
            ys.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(ac.matvec(&xc).unwrap()), bits(matvec_indexed(&ac, &xc)));
    }
}
