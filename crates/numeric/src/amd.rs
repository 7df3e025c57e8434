//! Approximate-minimum-degree (AMD) fill-reducing ordering.
//!
//! The sparse LU stores its factors sparsely, so the ordering objective
//! is minimizing *fill-in* (not bandwidth) — and greedy minimum degree
//! on the quotient (elimination) graph is the classic answer.
//!
//! The implementation follows the AMD family: eliminated pivots become
//! **elements** whose boundaries stand in for the clique their
//! elimination would create, adjacent elements are absorbed into the new
//! one, and degrees are the cheap upper bound
//! `|A_v| + Σ_e (|L_e| − 1)` rather than the exact external degree
//! (the "approximate" in AMD). Supervariable detection is omitted, and
//! that is not free: on the Large Table 1 MNA matrices (≈3.5k unknowns
//! around a dense ≈1.1k-row inductance clique) this ordering takes
//! 0.15–0.4 s on a 2-vCPU Xeon, the largest share of a sparse symbolic
//! analysis — the symbolic row merge takes 0.03–0.05 s. The clique rows
//! are exactly the indistinguishable vertices supervariables would merge.
//!
//! # Pivot deferral for structurally zero diagonals
//!
//! MNA matrices carry voltage-source rows whose diagonal is
//! *structurally* zero (the row is pure ±1 incidence). A static-pivot
//! factorization in an order that eliminates such a row before any of
//! its neighbours hits a hard zero pivot. The `defer` mask marks those
//! rows; a deferred row only becomes eligible once at least one of its
//! neighbours has been eliminated — at which point Gaussian elimination
//! has deposited sign-definite fill (`−Σ (±1)²/pivot`) on its diagonal.

use crate::ordering::Permutation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes an approximate-minimum-degree ordering of the symmetric
/// sparsity pattern given as adjacency lists (no self-loops, deduped —
/// the format produced by [`crate::CsrMatrix::adjacency`]).
///
/// `defer` marks vertices whose elimination must wait until at least one
/// neighbour has been eliminated (structurally zero diagonals under
/// static pivoting). Pass an empty slice for no deferral.
///
/// Returns a [`Permutation`] with `old_of(new)` = the vertex eliminated
/// at step `new`. The ordering is deterministic: ties break on vertex
/// index.
pub fn approximate_minimum_degree(adj: &[Vec<usize>], defer: &[bool]) -> Permutation {
    let n = adj.len();
    if n == 0 {
        return Permutation::identity(0);
    }
    let deferred = |v: usize| defer.get(v).copied().unwrap_or(false);

    // Quotient-graph state. `a[v]`: still-adjacent variables; `e[v]`:
    // adjacent elements (named by their pivot); `boundary[p]`: the
    // variables on element p's boundary; `absorbed[p]`: element p was
    // merged into a later element.
    let mut a: Vec<Vec<usize>> = adj.to_vec();
    let mut e: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut boundary: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut absorbed = vec![false; n];
    let mut eliminated = vec![false; n];
    let mut deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    // Lazy-deletion heap: entries are (degree, vertex, version); stale
    // versions are dropped on pop.
    let mut version = vec![0u32; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> = (0..n)
        .map(|v| Reverse((deg[v], v, 0u32)))
        .collect();

    // Membership stamps for set operations without hashing.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;

    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(Reverse((d, p, ver))) = heap.pop() {
        if eliminated[p] || ver != version[p] || d != deg[p] {
            continue;
        }
        // A deferred vertex with no adjacent element has not had a
        // neighbour eliminated yet; skip it. Eliminating any neighbour
        // bumps its version and re-pushes it, so nothing is lost — and
        // vertices never touched at all are swept up after the loop.
        if deferred(p) && e[p].is_empty() {
            continue;
        }

        // --- Eliminate p: form the new element's boundary L_p. -------
        stamp += 1;
        let mut lp: Vec<usize> = Vec::new();
        for &v in &a[p] {
            if !eliminated[v] && mark[v] != stamp {
                mark[v] = stamp;
                lp.push(v);
            }
        }
        for &el in &e[p] {
            for &v in &boundary[el] {
                if !eliminated[v] && v != p && mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
        }
        // Absorb the elements p touched; p replaces them.
        for &el in &e[p] {
            absorbed[el] = true;
            boundary[el].clear();
        }
        eliminated[p] = true;
        order.push(p);

        // --- Update every boundary variable. -------------------------
        // All of L_p carries `mark == stamp`, which lets the retains
        // below drop boundary-internal edges in one pass. Element p's
        // boundary must be in place first: it feeds the approximate
        // degree of each member.
        boundary[p] = lp;
        for i in 0..boundary[p].len() {
            let v = boundary[p][i];
            a[v].retain(|&u| u != p && !eliminated[u] && mark[u] != stamp);
            e[v].retain(|&el| !absorbed[el]);
            e[v].push(p);
            let mut d = a[v].len();
            for &el in &e[v] {
                d += boundary[el].len().saturating_sub(1);
            }
            deg[v] = d;
            version[v] = version[v].wrapping_add(1);
            heap.push(Reverse((d, v, version[v])));
        }
    }

    // Degenerate leftovers (e.g. a deferred vertex with no neighbours at
    // all): append in index order so the result is a valid permutation.
    for v in 0..n {
        if !eliminated[v] {
            order.push(v);
        }
    }
    let len = order.len();
    Permutation::from_forward(order).unwrap_or_else(|_| Permutation::identity(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_adj(w: usize, h: usize) -> Vec<Vec<usize>> {
        let idx = |x: usize, y: usize| y * w + x;
        let mut adj = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    adj[idx(x, y)].push(idx(x + 1, y));
                    adj[idx(x + 1, y)].push(idx(x, y));
                }
                if y + 1 < h {
                    adj[idx(x, y)].push(idx(x, y + 1));
                    adj[idx(x, y + 1)].push(idx(x, y));
                }
            }
        }
        adj
    }

    /// Dense-fill count of a symmetric elimination in a given order.
    fn fill_count(adj: &[Vec<usize>], perm: &Permutation) -> usize {
        let n = adj.len();
        let mut m = vec![vec![false; n]; n];
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                m[i][j] = true;
                m[j][i] = true;
            }
        }
        let mut fill = 0usize;
        for step in 0..n {
            let p = perm.old_of(step);
            let nbrs: Vec<usize> = (0..n)
                .filter(|&v| m[p][v] && v != p && perm.new_of(v) > step)
                .collect();
            for (ii, &u) in nbrs.iter().enumerate() {
                for &v in &nbrs[ii + 1..] {
                    if !m[u][v] {
                        m[u][v] = true;
                        m[v][u] = true;
                        fill += 1;
                    }
                }
            }
        }
        fill
    }

    #[test]
    fn amd_is_a_valid_permutation() {
        let adj = grid_adj(7, 5);
        let p = approximate_minimum_degree(&adj, &[]);
        assert_eq!(p.len(), 35);
        let mut seen = vec![false; 35];
        for new in 0..35 {
            assert!(!seen[p.old_of(new)]);
            seen[p.old_of(new)] = true;
        }
    }

    #[test]
    fn amd_beats_natural_order_on_grid_fill() {
        let adj = grid_adj(10, 10);
        let amd = approximate_minimum_degree(&adj, &[]);
        let natural = Permutation::identity(100);
        let f_amd = fill_count(&adj, &amd);
        let f_nat = fill_count(&adj, &natural);
        assert!(
            f_amd < f_nat,
            "AMD fill {f_amd} should beat natural {f_nat}"
        );
    }

    #[test]
    fn path_graph_orders_with_no_fill() {
        // Minimum degree on a path eliminates from the ends inward:
        // exactly zero fill.
        let n = 20;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        let p = approximate_minimum_degree(&adj, &[]);
        assert_eq!(fill_count(&adj, &p), 0);
    }

    #[test]
    fn deferred_vertices_wait_for_a_neighbour() {
        // Star: center 0 adjacent to 1..=4; defer the center. It must
        // not be eliminated first.
        let mut adj = vec![vec![1, 2, 3, 4]];
        for _ in 0..4 {
            adj.push(vec![0]);
        }
        let defer = vec![true, false, false, false, false];
        let p = approximate_minimum_degree(&adj, &defer);
        assert_ne!(p.old_of(0), 0, "deferred center eliminated first");
    }

    #[test]
    fn fully_deferred_graph_still_permutes() {
        let adj = vec![vec![1], vec![0], vec![]];
        let defer = vec![true, true, true];
        let p = approximate_minimum_degree(&adj, &defer);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let adj = grid_adj(6, 6);
        let a = approximate_minimum_degree(&adj, &[]);
        let b = approximate_minimum_degree(&adj, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let p = approximate_minimum_degree(&[], &[]);
        assert_eq!(p.len(), 0);
    }
}
