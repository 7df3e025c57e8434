//! Assembly of the dense partial-inductance matrix.
//!
//! "The PEEC model includes mutual inductances between every pair of
//! conductors, [so] the resulting circuit matrix is very dense" — this
//! module builds exactly that matrix; the `ind101-sparsify` crate then
//! implements the paper's Section 4 techniques on top of it.

use crate::gmd::rect_gmd;
use crate::gmd_cache::GmdCache;
use crate::mutual_inductance::filament_mutual_unchecked;
use crate::self_inductance::{bar_self_inductance_unchecked, self_gmd};
use ind101_geom::{Segment, Technology, M_PER_NM};
use ind101_numeric::partition::{for_each_row_chunk, triangle_row_blocks};
use ind101_numeric::{Matrix, ParallelConfig};

/// The dense, symmetric partial-inductance matrix of a set of segments,
/// together with the segment list it was extracted from.
///
/// Index `k` of the matrix corresponds to `segments()[k]`, with branch
/// current defined in the +axis direction of each segment; with that
/// convention all mutual terms between same-axis segments are positive.
#[derive(Clone, Debug)]
pub struct PartialInductance {
    matrix: Matrix<f64>,
    segments: Vec<Segment>,
}

impl PartialInductance {
    /// Extracts the full partial-inductance matrix for `segments`,
    /// using the default [`ParallelConfig`] (all hardware threads, GMD
    /// memoization on).
    ///
    /// Perpendicular pairs have exactly zero mutual inductance (no
    /// magnetic coupling between orthogonal current filaments); all
    /// parallel pairs — including collinear segments of the same wire —
    /// are computed with the GMD-corrected filament formula.
    pub fn extract(tech: &Technology, segments: &[Segment]) -> Self {
        Self::extract_with(tech, segments, &ParallelConfig::default())
    }

    /// Extracts with explicit parallelism/caching configuration.
    ///
    /// Assembly is chunked into contiguous row blocks of the upper
    /// triangle balanced by triangle area ([`triangle_row_blocks`]),
    /// each block filled by one scoped thread writing a disjoint slice
    /// of the matrix buffer; a serial mirror pass then reflects the
    /// upper triangle into the lower. Per-entry arithmetic is identical
    /// to [`PartialInductance::extract_serial`], so the result is
    /// **bit-identical** to serial extraction at any thread count.
    pub fn extract_with(tech: &Technology, segments: &[Segment], cfg: &ParallelConfig) -> Self {
        let cache = GmdCache::new(cfg.cache_capacity);
        Self::extract_with_cache(tech, segments, cfg, &cache)
    }

    /// Extracts using a caller-provided GMD cache, so repeated
    /// extractions over layouts with shared cross-section geometry
    /// (e.g. a sparsification sweep) reuse kernel evaluations.
    pub fn extract_with_cache(
        tech: &Technology,
        segments: &[Segment],
        cfg: &ParallelConfig,
        cache: &GmdCache,
    ) -> Self {
        let n = segments.len();
        let mut m = Matrix::zeros(n, n);
        let ranges = triangle_row_blocks(n, cfg.blocks_for(n));
        for_each_row_chunk(m.as_mut_slice(), n, &ranges, |rows, chunk| {
            for i in rows.clone() {
                let base = (i - rows.start) * n;
                let row = &mut chunk[base..base + n];
                fill_upper_row(tech, segments, Some(cache), i, row);
            }
        });
        // Deterministic serial mirror: upper triangle into the lower.
        m.mirror_upper();
        Self {
            matrix: m,
            segments: segments.to_vec(),
        }
    }

    /// Reference single-threaded, uncached extraction: the plain double
    /// loop over the upper triangle. Kept as the ground truth the
    /// differential tests compare the parallel engine against.
    pub fn extract_serial(tech: &Technology, segments: &[Segment]) -> Self {
        let n = segments.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let row_start = i * n;
            let row = &mut m.as_mut_slice()[row_start..row_start + n];
            fill_upper_row(tech, segments, None, i, row);
        }
        m.mirror_upper();
        Self {
            matrix: m,
            segments: segments.to_vec(),
        }
    }

    /// Number of partial elements (segments).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The dense symmetric matrix (henries).
    pub fn matrix(&self) -> &Matrix<f64> {
        &self.matrix
    }

    /// The extracted segments, aligned with matrix indices.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Self inductance of element `k`, henries.
    pub fn self_l(&self, k: usize) -> f64 {
        self.matrix[(k, k)]
    }

    /// Mutual inductance between elements `i` and `j`, henries.
    pub fn mutual(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }

    /// Number of nonzero mutual terms in the strict upper triangle —
    /// the "# mutuals" column of the paper's Table 1.
    pub fn mutual_count(&self) -> usize {
        let n = self.len();
        let mut c = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.matrix[(i, j)] != 0.0 {
                    c += 1;
                }
            }
        }
        c
    }

    /// Replaces the matrix with a sparsified version of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the replacement has a different dimension.
    pub fn set_matrix(&mut self, m: Matrix<f64>) {
        assert_eq!(m.nrows(), self.len(), "sparsified matrix must match");
        assert_eq!(m.ncols(), self.len(), "sparsified matrix must match");
        self.matrix = m;
    }
}

/// Fills row `i`'s diagonal and strict-upper entries (`j > i`) of the
/// partial-inductance matrix into `row` (a full `n`-wide row slice).
///
/// This is the single per-entry kernel shared by the serial reference
/// and every parallel block, which is what makes serial and parallel
/// assembly bit-identical: the GMD is either computed directly
/// (`cache: None`) or served through the memoization cache, and a
/// cached value is always exactly the direct [`rect_gmd`] result (the
/// cache stores the exact arguments per entry and recomputes on any
/// quantization collision — see [`crate::gmd_cache`]).
fn fill_upper_row(
    tech: &Technology,
    segments: &[Segment],
    cache: Option<&GmdCache>,
    i: usize,
    row: &mut [f64],
) {
    let n = segments.len();
    let si = &segments[i];
    let li = tech.layer(si.layer);
    let ti = li.thickness_nm as f64 * M_PER_NM;
    row[i] = bar_self_inductance_unchecked(si.length_m(), si.width_m(), ti);
    for j in (i + 1)..n {
        let sj = &segments[j];
        if !si.is_parallel(sj) {
            continue;
        }
        let lj = tech.layer(sj.layer);
        let tj = lj.thickness_nm as f64 * M_PER_NM;
        let dx = si.lateral_separation_nm(sj) as f64 * M_PER_NM;
        let dz = (li.z_center_nm() - lj.z_center_nm()).abs() as f64 * M_PER_NM;
        let d = if dx == 0.0 && dz == 0.0 {
            // Collinear segments of the same wire: use the
            // average self-GMD of the two cross-sections.
            0.5 * (self_gmd(si.width_m(), ti) + self_gmd(sj.width_m(), tj))
        } else {
            match cache {
                Some(c) => c.gmd(dx, dz, si.width_m(), ti, sj.width_m(), tj),
                None => rect_gmd(dx, dz, si.width_m(), ti, sj.width_m(), tj),
            }
        };
        let offset = si.axial_offset_nm(sj) as f64 * M_PER_NM;
        row[j] = filament_mutual_unchecked(si.length_m(), sj.length_m(), offset, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_geom::{um, Axis, LayerId, NetId, Point};

    fn tech() -> Technology {
        Technology::example_copper_6lm()
    }

    fn seg(dir: Axis, x_um: i64, y_um: i64, len_um: i64, w_um: i64) -> Segment {
        Segment::new(
            NetId(0),
            LayerId(5),
            dir,
            Point::new(um(x_um), um(y_um)),
            um(len_um),
            um(w_um),
        )
    }

    #[test]
    fn matrix_is_symmetric_with_positive_diagonal() {
        let segs = vec![
            seg(Axis::X, 0, 0, 100, 1),
            seg(Axis::X, 0, 5, 100, 1),
            seg(Axis::Y, 0, 0, 100, 1),
        ];
        let p = PartialInductance::extract(&tech(), &segs);
        assert_eq!(p.matrix().symmetry_defect(), 0.0);
        for k in 0..3 {
            assert!(p.self_l(k) > 0.0);
        }
    }

    #[test]
    fn perpendicular_pairs_do_not_couple() {
        let segs = vec![seg(Axis::X, 0, 0, 100, 1), seg(Axis::Y, 50, -50, 100, 1)];
        let p = PartialInductance::extract(&tech(), &segs);
        assert_eq!(p.mutual(0, 1), 0.0);
        assert_eq!(p.mutual_count(), 0);
    }

    #[test]
    fn close_parallel_pairs_couple_strongly() {
        let segs = vec![
            seg(Axis::X, 0, 0, 400, 1),
            seg(Axis::X, 0, 2, 400, 1),
            seg(Axis::X, 0, 100, 400, 1),
        ];
        let p = PartialInductance::extract(&tech(), &segs);
        assert!(p.mutual(0, 1) > p.mutual(0, 2));
        assert!(p.mutual(0, 2) > 0.0);
        // Coupling coefficient below 1.
        assert!(p.mutual(0, 1) < (p.self_l(0) * p.self_l(1)).sqrt());
        assert_eq!(p.mutual_count(), 3);
    }

    #[test]
    fn full_matrix_is_positive_definite() {
        // A small bus: the full partial-inductance matrix must be PD —
        // this is the invariant truncation destroys (Section 4).
        let segs: Vec<Segment> = (0..6).map(|k| seg(Axis::X, 0, 3 * k, 200, 1)).collect();
        let p = PartialInductance::extract(&tech(), &segs);
        assert!(p.matrix().is_positive_definite());
    }

    #[test]
    fn collinear_same_wire_segments_couple() {
        let segs = vec![seg(Axis::X, 0, 0, 100, 1), seg(Axis::X, 100, 0, 100, 1)];
        let p = PartialInductance::extract(&tech(), &segs);
        assert!(p.mutual(0, 1) > 0.0);
        assert!(p.matrix().is_positive_definite());
    }

    #[test]
    fn different_layer_parallel_pairs_couple() {
        let a = seg(Axis::X, 0, 0, 200, 1);
        let b = Segment::new(
            NetId(1),
            LayerId(3),
            Axis::X,
            Point::new(0, 0),
            um(200),
            um(1),
        );
        let p = PartialInductance::extract(&tech(), &[a, b]);
        assert!(p.mutual(0, 1) > 0.0);
    }
}
