//! Sparse direct LU with a reusable symbolic factorization.
//!
//! Two numeric paths share one public interface:
//!
//! * **KLU-class path** ([`SymbolicLu::analyze`], the default) — the
//!   matrix is first permuted to block upper triangular form by
//!   [`crate::BtfForm`] (maximum transversal + Tarjan SCC), so only the
//!   irreducible diagonal blocks are factored and the off-diagonal
//!   coupling enters a block back-substitution untouched. Each diagonal
//!   block gets its own AMD fill-reducing ordering, a row-merge symbolic
//!   elimination, and a relaxed supernode partition
//!   ([`crate::supernode`]); the numeric phase factors blocks
//!   independently — in parallel across threads with bit-identical
//!   results — and routes supernodal panel updates through the
//!   cache-blocked GEMM micro-kernel in [`crate::gemm`].
//! * **Reference path** ([`SymbolicLu::analyze_reference`]) — the
//!   original scalar up-looking Doolittle factorization over a single
//!   global AMD ordering (with structurally-zero diagonals deferred).
//!   It is retained verbatim as the differential oracle the KLU path is
//!   pinned against.
//!
//! The phases are the two classic ones: `analyze*` does one-time
//! structural work; [`SparseLu::factor_with`] / [`SparseLu::refactor`]
//! re-run **only** the numeric phase (transient stepping, Newton
//! iterations), sharing the pattern via [`std::sync::Arc`].
//!
//! Pivoting is static in both paths. On the KLU path the BTF transversal
//! is used *structurally*: a pattern with no zero-free diagonal is
//! rejected up front as [`NumericError::StructurallySingular`], and the
//! SCC condensation fixes the block partition. The static pivot pairing
//! inside each block, however, deliberately ignores the matching —
//! augmenting paths flip diagonally dominant rows onto ±1 incidence
//! entries, which unpivoted elimination cannot survive — and instead
//! keeps every row on its own diagonal with structurally absent
//! diagonals (voltage-source rows) deferred to the end of the block,
//! exactly like the reference path. A numerically zero
//! (or non-finite) pivot surfaces as [`NumericError::Singular`] with the
//! pivot mapped back to the *original* row index, so circuit-level
//! diagnostics can name the offending unknown.

use crate::amd::approximate_minimum_degree;
use crate::btf::BtfForm;
use crate::budget::{BudgetError, SolveBudget, SolveGuard};
use crate::ordering::Permutation;
use crate::partition::{collect_row_blocks, uniform_row_blocks, ParallelConfig};
use crate::scalar::Scalar;
use crate::sparse::{CsrMatrix, RowRuns};
use crate::supernode::{factor_supernodal, BlockFactorError, SupernodePartition};
use crate::{NumericError, Result};
use std::sync::Arc;

/// Sentinel for an unset index in the symbolic merges.
const NONE: usize = usize::MAX;

/// Structural fingerprint of a CSR pattern: (nnz, FNV-1a over the row
/// pointers and column indices). Used to decide whether a cached
/// symbolic factorization applies to a new matrix.
fn pattern_key<T: Scalar>(a: &CsrMatrix<T>) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &p in a.indptr() {
        eat(p);
    }
    for &c in a.indices() {
        eat(c);
    }
    (a.nnz(), h)
}

/// Structural statistics of a symbolic factorization — the quantities
/// that predict numeric-phase cost and are reported by the
/// `grid_scaling` bench rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseLuStats {
    /// Stored entries in `L` plus `U` (unit diagonal of `L` excluded),
    /// off-diagonal coupling blocks included.
    pub factor_nnz: usize,
    /// Irreducible diagonal blocks of the BTF (1 on the reference path).
    pub num_blocks: usize,
    /// Dimension of the largest diagonal block — the quantity that
    /// actually bounds factorization cost.
    pub max_block_dim: usize,
    /// Supernodes across all blocks (every column is its own supernode
    /// on the reference path).
    pub num_supernodes: usize,
    /// Columns in the widest supernode.
    pub max_supernode_width: usize,
}

/// Reference (PR 5) symbolic data: one global symmetric ordering plus
/// the exact fill pattern, all in the permuted index space.
#[derive(Clone, Debug)]
struct RefSym {
    perm: Permutation,
    /// Per permuted row `i`: columns `j < i` of `L(i, ·)`, ascending.
    l_cols: Vec<Vec<usize>>,
    /// Per permuted row `i`: columns `j ≥ i` of `U(i, ·)`, ascending —
    /// the diagonal is always first (and always structurally present).
    u_cols: Vec<Vec<usize>>,
}

/// One BTF diagonal block's symbolic data, in block-local indices.
#[derive(Clone, Debug)]
struct BlockSym {
    /// First final index of the block (the block spans
    /// `lo .. lo + u_cols.len()`).
    lo: usize,
    /// Per local row: `L` columns `< i`, ascending.
    l_cols: Vec<Vec<usize>>,
    /// Per local row: `U` columns `≥ i`, ascending, diagonal first.
    u_cols: Vec<Vec<usize>>,
    /// Column runs of `l_cols`, walked by the forward solve.
    l_runs: RowRuns,
    /// Column runs of `u_cols` past the diagonal slot, walked by the
    /// backward solve.
    u_runs: RowRuns,
    /// Relaxed supernode partition of the block's columns.
    sn: SupernodePartition,
}

/// KLU-class symbolic data: composed permutations (BTF ∘ per-block
/// AMD), per-block patterns, and the off-block-diagonal coupling.
#[derive(Clone, Debug)]
struct KluSym {
    /// Final row permutation (`forward[new] = old` original row).
    rperm: Permutation,
    /// Final column permutation.
    cperm: Permutation,
    /// Block id of each final index.
    block_of: Vec<usize>,
    blocks: Vec<BlockSym>,
    /// Per final row: structural columns beyond the row's block
    /// (ascending final indices). These entries are never factored —
    /// they feed the block back-substitution.
    offdiag_cols: Vec<Vec<usize>>,
    /// Column runs of `offdiag_cols`.
    offdiag_runs: RowRuns,
    stats: SparseLuStats,
}

/// Which symbolic/numeric path a [`SymbolicLu`] encodes.
#[derive(Clone, Debug)]
enum SymRepr {
    Reference(RefSym),
    Klu(KluSym),
}

/// The reusable structural half of a sparse LU factorization.
#[derive(Clone, Debug)]
pub struct SymbolicLu {
    n: usize,
    key: (usize, u64),
    repr: SymRepr,
}

/// Row-merge symbolic elimination over structural rows (sorted
/// ascending): returns the exact `(l_cols, u_cols)` fill pattern of a
/// static-pivot LU in the given order. `u_cols` rows lead with the
/// diagonal, which is inserted if structurally absent.
///
/// Row `i`'s pattern is the smallest column set containing the row's
/// own entries and the diagonal that, for every member `j < i`, also
/// contains `U_j`. Merging every `U_j` in full costs O(n³) on a dense
/// block, so rows are merged with **symmetric pruning** (Eisenstat &
/// Liu, 1992) transposed to rows: row `j`'s prune point `s_j` is the
/// first `k > j` with `k ∈ U_j` and `j ∈ L_k`. Row `s_j` absorbed all of
/// `U_j`, so any later row `i > s_j` that holds `j` also holds `s_j`
/// and gets `U_j ∩ (s_j, n)` through `U_{s_j}`; it merges only the
/// prefix of `U_j` up to `s_j`. The closure — hence the pattern — is
/// unchanged. On structurally symmetric patterns `s_j` is the etree
/// parent, so a row pulls one column per `L` entry except from its etree
/// children, whose rows it merges in full: O(|L| + |U|) merge work plus
/// one sort per row.
fn symbolic_merge(rows_p: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = rows_p.len();
    let mut l_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Per row `j`: prune point `s_j` (`NONE` until found) and the end
    // of the `u_cols[j]` prefix that rows past `s_j` still merge.
    let mut prune_at = vec![NONE; n];
    let mut prune_end = vec![0usize; n];
    // `mark[c] == i` ⇔ column `c` is already in row `i`'s pattern.
    let mut mark = vec![NONE; n];
    let mut cols: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        cols.clear();
        for &c in rows_p[i].iter().chain(std::iter::once(&i)) {
            if mark[c] != i {
                mark[c] = i;
                cols.push(c);
                if c < i {
                    stack.push(c);
                }
            }
        }
        // Closure: every member below the diagonal is an L entry whose
        // (pruned) U row merges in. Membership, not visiting order,
        // determines the result.
        while let Some(j) = stack.pop() {
            let end = if prune_at[j] < i {
                prune_end[j]
            } else {
                u_cols[j].len()
            };
            for &c in &u_cols[j][1..end] {
                if mark[c] != i {
                    mark[c] = i;
                    cols.push(c);
                    if c < i {
                        stack.push(c);
                    }
                }
            }
        }
        cols.sort_unstable();
        let split = cols.partition_point(|&c| c < i);
        let lc = cols[..split].to_vec();
        let uc = cols[split..].to_vec();
        debug_assert_eq!(uc.first().copied(), Some(i), "diagonal must lead U row");
        // Row `i` is the prune point of every L entry `j` that has not
        // found one yet and holds `i` in its U row.
        for &j in &lc {
            if prune_at[j] == NONE {
                if let Ok(pos) = u_cols[j].binary_search(&i) {
                    prune_at[j] = i;
                    prune_end[j] = pos + 1;
                }
            }
        }
        l_cols.push(lc);
        u_cols.push(uc);
    }
    (l_cols, u_cols)
}

/// The unpruned row merge: every `L` entry merges its full `U` row into
/// a sorted linked list. Kept as the oracle for [`symbolic_merge`].
#[cfg(test)]
fn symbolic_merge_naive(rows_p: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = rows_p.len();
    let mut l_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Sorted singly-linked merge list over column indices; rebuilt
    // per row, so no reset pass is needed.
    let mut next = vec![NONE; n + 1];
    for i in 0..n {
        // Seed the list with the row's own pattern plus the diagonal.
        let mut head = NONE;
        let mut tail = NONE;
        let mut push_tail = |next: &mut Vec<usize>, c: usize| {
            if tail == NONE {
                head = c;
            } else {
                next[tail] = c;
            }
            next[c] = NONE;
            tail = c;
        };
        let mut saw_diag = false;
        for &c in &rows_p[i] {
            if c == i {
                saw_diag = true;
            }
            if !saw_diag && c > i {
                push_tail(&mut next, i);
                saw_diag = true;
            }
            push_tail(&mut next, c);
        }
        if !saw_diag {
            push_tail(&mut next, i);
        }

        // Traverse: every list column below the diagonal is an L
        // entry whose row of U merges in behind it.
        let mut lc = Vec::new();
        let mut j = head;
        while j != NONE && j < i {
            lc.push(j);
            let mut prev = j;
            let mut cursor = next[j];
            for &c in &u_cols[j][1..] {
                while cursor != NONE && cursor < c {
                    prev = cursor;
                    cursor = next[cursor];
                }
                if cursor == c {
                    prev = c;
                    cursor = next[c];
                    continue;
                }
                next[prev] = c;
                next[c] = cursor;
                prev = c;
            }
            j = next[j];
        }
        let mut uc = Vec::new();
        while j != NONE {
            uc.push(j);
            j = next[j];
        }
        debug_assert_eq!(uc.first().copied(), Some(i), "diagonal must lead U row");
        l_cols.push(lc);
        u_cols.push(uc);
    }
    (l_cols, u_cols)
}

/// Chooses the static pivot pairing for one BTF diagonal block.
///
/// Returns `(row_orig, col_orig, defer)`: block-local index `l` pairs
/// original row `row_orig[l]` with original column `col_orig[l]`, and
/// `defer[l]` marks pairs that AMD pushes to the end of the block's
/// elimination order. Whenever the block's row and column sets cover
/// the same original indices — always the case for the structurally
/// symmetric MNA patterns this crate factors — the pairing is the
/// symmetric one `(v, v)` with structurally absent diagonals deferred:
/// conductance rows pivot on their diagonally dominant entry and
/// voltage-source incidence rows pivot last, on the diagonal fill
/// their node rows eliminate into them. These are exactly the
/// reference-path semantics, applied per block. Blocks whose row and
/// column sets differ (possible for genuinely unsymmetric patterns)
/// keep the transversal pairing `(brows[l], bcols[l])`, which is
/// always structurally zero-free.
/// Postorder of a block's elimination tree. `u_cols` rows are sorted
/// and lead with the diagonal, so `u_cols[i][1]` — the first
/// off-diagonal `U` column — is the etree parent of `i`; rows whose `U`
/// pattern is just the diagonal are roots. Children and roots are
/// visited in ascending order, keeping the traversal deterministic.
///
/// Reordering a block by its postorder leaves the fill unchanged (the
/// relative order of every vertex and its ancestors is preserved) but
/// makes parent/child column chains *consecutive*, which is what
/// [`SupernodePartition::detect`] needs to find mergeable runs: a
/// fill-reducing ordering alone scatters them.
fn etree_postorder(u_cols: &[Vec<usize>]) -> Vec<usize> {
    let nb = u_cols.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut roots: Vec<usize> = Vec::new();
    for (i, u) in u_cols.iter().enumerate() {
        match u.get(1) {
            Some(&p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let mut post = Vec::with_capacity(nb);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &r in &roots {
        stack.push((r, 0));
        while let Some(top) = stack.last_mut() {
            let (v, ci) = *top;
            if ci < children[v].len() {
                top.1 += 1;
                stack.push((children[v][ci], 0));
            } else {
                post.push(v);
                stack.pop();
            }
        }
    }
    post
}

fn pair_block<T: Scalar>(
    a: &CsrMatrix<T>,
    brows: &[usize],
    bcols: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<bool>) {
    let mut sr: Vec<usize> = brows.to_vec();
    sr.sort_unstable();
    let mut sc: Vec<usize> = bcols.to_vec();
    sc.sort_unstable();
    if sr == sc {
        let defer: Vec<bool> = sr.iter().map(|&v| !a.contains(v, v)).collect();
        (sr.clone(), sr, defer)
    } else {
        let nb = brows.len();
        (brows.to_vec(), bcols.to_vec(), vec![false; nb])
    }
}

impl SymbolicLu {
    /// Analyzes `a` on the KLU-class path: BTF (maximum transversal +
    /// SCC blocks), a fill-reducing AMD ordering *per diagonal block*,
    /// row-merge symbolic elimination, and relaxed supernode detection.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input;
    /// [`NumericError::StructurallySingular`] when the pattern has no
    /// zero-free diagonal under any permutation (the matrix is singular
    /// for every value assignment).
    pub fn analyze<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        let btf = BtfForm::analyze(a)?;
        let nblocks = btf.num_blocks();
        let mut block_of = vec![0usize; n];
        for k in 0..nblocks {
            for i in btf.block_range(k) {
                block_of[i] = k;
            }
        }
        // Per-block static pivot pairing. The maximum transversal is
        // kept purely as a *structural* device — it proves the pattern
        // non-singular and fixes the block partition — but its matching
        // is a poor static pivot choice: augmenting paths happily flip
        // diagonally dominant conductance rows onto ±1 incidence
        // entries, and without numerical pivoting the resulting growth
        // destroys the factorization. Inside each block [`pair_block`]
        // therefore restores the reference-path pairing and deferral
        // whenever the block is row/column-symmetric.
        // One *global* fill-reducing ordering, applied to each
        // row/column-symmetric block as the induced order of its
        // vertices. Eliminating a subgraph in an order induced from the
        // full graph can only lose fill paths, so every such block's
        // fill is bounded by the reference path's fill on the same
        // vertices — whereas an independent per-block AMD is at the
        // mercy of tie-breaking (40% worse on a 100×100 mesh).
        let gamd = {
            let gadj = a.adjacency();
            let gdefer: Vec<bool> = (0..n).map(|i| !a.contains(i, i)).collect();
            approximate_minimum_degree(&gadj, &gdefer)
        };
        let mut rfor = vec![0usize; n];
        let mut cfor = vec![0usize; n];
        // Final column index of each original column, used to map the
        // off-block-diagonal entries once every block is ordered.
        let mut col_final = vec![0usize; n];
        // Scratch: original column id → block-local index. Block
        // column sets are disjoint, so no reset pass is needed.
        let mut col_local = vec![0usize; n];
        // Off-block-diagonal columns (original ids) per final row.
        let mut off_orig: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut blocks = Vec::with_capacity(nblocks);
        let mut num_supernodes = 0usize;
        let mut max_supernode_width = 0usize;
        for k in 0..nblocks {
            let r = btf.block_range(k);
            let (lo, nb) = (r.start, r.end - r.start);
            let brows: Vec<usize> = r.clone().map(|i| btf.row_perm().old_of(i)).collect();
            let bcols: Vec<usize> = r.clone().map(|i| btf.col_perm().old_of(i)).collect();
            let (row_orig, col_orig, defer) = pair_block(a, &brows, &bcols);
            for (l, &c) in col_orig.iter().enumerate() {
                col_local[c] = l;
            }
            // Block-local structural rows plus their off-diagonal tails.
            let mut loc: Vec<Vec<usize>> = vec![Vec::new(); nb];
            let mut off: Vec<Vec<usize>> = vec![Vec::new(); nb];
            for ((&v, row), tail) in row_orig.iter().zip(&mut loc).zip(&mut off) {
                for (c, _) in a.row_iter(v) {
                    let jb = btf.col_perm().new_of(c);
                    if jb < r.end {
                        debug_assert!(jb >= r.start, "entry below the BTF block diagonal");
                        row.push(col_local[c]);
                    } else {
                        tail.push(c);
                    }
                }
            }
            let pre = if row_orig == col_orig {
                // Induced global ordering: sort the block's vertices by
                // their position in `gamd`. Deferral is inherited — the
                // global ordering already pushes diagonal-free rows to
                // the end, and an induced order preserves relative
                // positions.
                let mut fwd: Vec<usize> = (0..nb).collect();
                fwd.sort_by_key(|&l| gamd.new_of(col_orig[l]));
                Permutation::from_forward(fwd)?
            } else {
                // Genuinely unsymmetric block: order the transversal
                // pairs by AMD on the symmetrized block-local adjacency.
                let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
                for (li, row) in loc.iter().enumerate() {
                    for &lj in row {
                        if lj != li {
                            adj[li].push(lj);
                            adj[lj].push(li);
                        }
                    }
                }
                for row in &mut adj {
                    row.sort_unstable();
                    row.dedup();
                }
                approximate_minimum_degree(&adj, &defer)
            };
            let permuted_rows = |p: &Permutation| -> Vec<Vec<usize>> {
                (0..nb)
                    .map(|li| {
                        let mut row: Vec<usize> =
                            loc[p.old_of(li)].iter().map(|&c| p.new_of(c)).collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            };
            // First merge feeds the elimination tree; the block is then
            // re-eliminated in postorder so supernode runs are
            // consecutive (fill is invariant, see `etree_postorder`).
            let (_, u_pre) = symbolic_merge(&permuted_rows(&pre));
            let post = etree_postorder(&u_pre);
            let amd = Permutation::from_forward(post.iter().map(|&p| pre.old_of(p)).collect())?;
            let rows_p = permuted_rows(&amd);
            let (l_cols, u_cols) = symbolic_merge(&rows_p);
            let sn = SupernodePartition::detect(&l_cols, &u_cols);
            num_supernodes += sn.count();
            max_supernode_width = max_supernode_width.max(sn.max_width());
            for li in 0..nb {
                let fi = lo + li;
                let ol = amd.old_of(li);
                rfor[fi] = row_orig[ol];
                cfor[fi] = col_orig[ol];
                col_final[col_orig[ol]] = fi;
                off_orig[fi] = std::mem::take(&mut off[ol]);
            }
            blocks.push(BlockSym {
                lo,
                l_runs: RowRuns::new(l_cols.iter().map(Vec::as_slice)),
                u_runs: RowRuns::new(u_cols.iter().map(|u| u.get(1..).unwrap_or_default())),
                l_cols,
                u_cols,
                sn,
            });
        }

        let mut offdiag_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (fi, od) in off_orig.iter().enumerate() {
            if od.is_empty() {
                continue;
            }
            let mut cols: Vec<usize> = od.iter().map(|&c| col_final[c]).collect();
            cols.sort_unstable();
            offdiag_cols[fi] = cols;
        }

        let factor_nnz = blocks
            .iter()
            .map(|b| {
                b.l_cols.iter().map(Vec::len).sum::<usize>()
                    + b.u_cols.iter().map(Vec::len).sum::<usize>()
            })
            .sum::<usize>()
            + offdiag_cols.iter().map(Vec::len).sum::<usize>();
        let stats = SparseLuStats {
            factor_nnz,
            num_blocks: nblocks,
            max_block_dim: btf.max_block_dim(),
            num_supernodes,
            max_supernode_width,
        };
        Ok(Self {
            n,
            key: pattern_key(a),
            repr: SymRepr::Klu(KluSym {
                rperm: Permutation::from_forward(rfor)?,
                cperm: Permutation::from_forward(cfor)?,
                block_of,
                blocks,
                offdiag_runs: RowRuns::new(offdiag_cols.iter().map(Vec::as_slice)),
                offdiag_cols,
                stats,
            }),
        })
    }

    /// Analyzes `a` on the scalar reference path: one global AMD
    /// ordering on the symmetrized pattern, deferring rows whose
    /// diagonal is structurally absent (voltage-source incidence rows
    /// in MNA systems) so the static pivot order never meets a
    /// structural zero. Retained as the differential oracle for the
    /// KLU path.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input.
    pub fn analyze_reference<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        let adj = a.adjacency();
        let defer: Vec<bool> = (0..n).map(|i| !a.contains(i, i)).collect();
        let perm = approximate_minimum_degree(&adj, &defer);
        Self::analyze_with_ordering(a, perm)
    }

    /// Analyzes `a` under a caller-supplied symmetric permutation
    /// (`P·A·Pᵀ` is factored, reference numeric path).
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input,
    /// [`NumericError::DimensionMismatch`] if the permutation length
    /// differs from the matrix dimension.
    pub fn analyze_with_ordering<T: Scalar>(a: &CsrMatrix<T>, perm: Permutation) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        if perm.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        // Permuted structural rows, sorted ascending.
        let rows_p: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut r: Vec<usize> = a
                    .row_iter(perm.old_of(i))
                    .map(|(c, _)| perm.new_of(c))
                    .collect();
                r.sort_unstable();
                r
            })
            .collect();
        let (l_cols, u_cols) = symbolic_merge(&rows_p);
        Ok(Self {
            n,
            key: pattern_key(a),
            repr: SymRepr::Reference(RefSym {
                perm,
                l_cols,
                u_cols,
            }),
        })
    }

    /// Dimension of the analyzed system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation in use (`forward[new] = old`). On the
    /// reference path rows and columns share this permutation; on the
    /// KLU path the column permutation differs (off-diagonal matching).
    pub fn perm(&self) -> &Permutation {
        match &self.repr {
            SymRepr::Reference(r) => &r.perm,
            SymRepr::Klu(k) => &k.rperm,
        }
    }

    /// Stored entries in `L` plus `U` (unit diagonal of `L` excluded,
    /// off-diagonal coupling included): the memory and per-refactor
    /// work the pattern implies.
    pub fn factor_nnz(&self) -> usize {
        match &self.repr {
            SymRepr::Reference(r) => {
                r.l_cols.iter().map(Vec::len).sum::<usize>()
                    + r.u_cols.iter().map(Vec::len).sum::<usize>()
            }
            SymRepr::Klu(k) => k.stats.factor_nnz,
        }
    }

    /// Fill-in / block / supernode statistics of this pattern. The
    /// reference path reports the degenerate single-block view (every
    /// column its own supernode).
    pub fn stats(&self) -> SparseLuStats {
        match &self.repr {
            SymRepr::Reference(_) => SparseLuStats {
                factor_nnz: self.factor_nnz(),
                num_blocks: 1,
                max_block_dim: self.n,
                num_supernodes: self.n,
                max_supernode_width: usize::from(self.n > 0),
            },
            SymRepr::Klu(k) => k.stats,
        }
    }

    /// Whether this symbolic factorization applies to `a` (identical
    /// structural pattern). Matching is by dimension + nnz + a pattern
    /// hash, so it is O(nnz) with no allocation.
    pub fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        a.nrows() == self.n && a.ncols() == self.n && pattern_key(a) == self.key
    }
}

/// Maps a budget violation inside the numeric phase onto the numeric
/// error taxonomy (cancellation keeps its own variant).
fn budget_to_numeric(e: BudgetError) -> NumericError {
    match e {
        BudgetError::Cancelled => NumericError::Cancelled,
        other => NumericError::BudgetExceeded {
            what: other.to_string(),
        },
    }
}

/// Reference numeric phase: scalar up-looking row Doolittle over the
/// global ordering.
fn reference_numeric<T: Scalar>(
    sym: &RefSym,
    a: &CsrMatrix<T>,
    l_vals: &mut [Vec<T>],
    u_vals: &mut [Vec<T>],
) -> Result<()> {
    let n = sym.perm.len();
    let mut x = vec![T::zero(); n];
    for i in 0..n {
        // Scatter permuted row i. Every entry lies inside the
        // symbolic pattern by construction (the pattern contains the
        // matrix pattern, and `matches` pinned the pattern).
        for (c, v) in a.row_iter(sym.perm.old_of(i)) {
            x[sym.perm.new_of(c)] = v;
        }
        // Eliminate along the precomputed L pattern (ascending).
        for (slot, &j) in sym.l_cols[i].iter().enumerate() {
            // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
            let lij = x[j] / u_vals[j][0];
            x[j] = T::zero();
            l_vals[i][slot] = lij;
            if lij.is_zero() {
                continue;
            }
            for (uslot, &c) in sym.u_cols[j].iter().enumerate().skip(1) {
                x[c] -= lij * u_vals[j][uslot];
            }
        }
        // Gather the U row; the diagonal is the static pivot.
        for (slot, &c) in sym.u_cols[i].iter().enumerate() {
            u_vals[i][slot] = x[c];
            x[c] = T::zero();
        }
        // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
        let piv = u_vals[i][0];
        if !(piv.abs_val() > 0.0) || !piv.abs_val().is_finite() {
            return Err(NumericError::Singular {
                pivot: sym.perm.old_of(i),
            });
        }
    }
    Ok(())
}

/// KLU numeric phase: scatter into block-local rows, factor diagonal
/// blocks independently (parallel across threads, supernodal kernel),
/// and stash off-diagonal values for the block back-substitution.
fn klu_numeric<T: Scalar>(
    klu: &KluSym,
    a: &CsrMatrix<T>,
    l_vals: &mut [Vec<T>],
    u_vals: &mut [Vec<T>],
    offdiag_vals: &mut [Vec<T>],
    budget: &SolveBudget,
    cfg: &ParallelConfig,
) -> Result<()> {
    let n = klu.rperm.len();
    let nblocks = klu.blocks.len();
    if nblocks == 0 {
        return Ok(());
    }
    // Scatter the matrix rows into block-local (col, value) lists plus
    // the off-diagonal slots. Every off-diagonal entry is structural in
    // `offdiag_cols` and every slot is rewritten on each refactor, so
    // no zeroing pass is needed.
    let mut rows: Vec<Vec<Vec<(usize, T)>>> = klu
        .blocks
        .iter()
        .map(|b| vec![Vec::new(); b.u_cols.len()])
        .collect();
    for fi in 0..n {
        let kb = klu.block_of[fi];
        let b = &klu.blocks[kb];
        let hi = b.lo + b.u_cols.len();
        for (c, v) in a.row_iter(klu.rperm.old_of(fi)) {
            let fj = klu.cperm.new_of(c);
            if fj < hi {
                debug_assert!(fj >= b.lo, "entry below the block diagonal");
                rows[kb][fi - b.lo].push((fj - b.lo, v));
            } else if let Ok(slot) = klu.offdiag_cols[fi].binary_search(&fj) {
                offdiag_vals[fi][slot] = v;
            } else {
                debug_assert!(false, "off-diagonal entry missing from the pattern");
            }
        }
    }
    // Factor the diagonal blocks. The partition is a pure function of
    // (block count, thread count), every block is factored serially by
    // exactly one thread, and results are consumed in block order, so
    // values — and the *first* failing block — are bit-identical across
    // thread counts.
    let guard = SolveGuard::new(budget.clone());
    let ranges = uniform_row_blocks(nblocks, cfg.blocks_for(nblocks));
    type BlockOut<T> = (usize, std::result::Result<(Vec<Vec<T>>, Vec<Vec<T>>), BlockFactorError>);
    let results: Vec<BlockOut<T>> = collect_row_blocks(&ranges, |r| {
        r.map(|kb| {
            let b = &klu.blocks[kb];
            let mut lv: Vec<Vec<T>> = b.l_cols.iter().map(|c| vec![T::zero(); c.len()]).collect();
            let mut uv: Vec<Vec<T>> = b.u_cols.iter().map(|c| vec![T::zero(); c.len()]).collect();
            let res = factor_supernodal(&b.sn, &b.l_cols, &b.u_cols, &rows[kb], &mut lv, &mut uv, &guard);
            (kb, res.map(|()| (lv, uv)))
        })
        .collect()
    });
    for (kb, res) in results {
        let b = &klu.blocks[kb];
        match res {
            Ok((lv, uv)) => {
                for (li, v) in lv.into_iter().enumerate() {
                    l_vals[b.lo + li] = v;
                }
                for (li, v) in uv.into_iter().enumerate() {
                    u_vals[b.lo + li] = v;
                }
            }
            Err(BlockFactorError::Singular(local)) => {
                return Err(NumericError::Singular {
                    pivot: klu.rperm.old_of(b.lo + local),
                })
            }
            Err(BlockFactorError::Budget(e)) => return Err(budget_to_numeric(e)),
        }
    }
    Ok(())
}

/// A numerically factored sparse system sharing a [`SymbolicLu`]
/// pattern. On the reference path `P·A·Pᵀ = L·U`; on the KLU path
/// `Pr·A·Pcᵀ` is block upper triangular with `L·U` factors per diagonal
/// block.
#[derive(Clone, Debug)]
pub struct SparseLu<T: Scalar> {
    sym: Arc<SymbolicLu>,
    /// Values aligned with the symbolic `l_cols` / `u_cols` (block-local
    /// column indices on the KLU path, rows indexed by final index).
    l_vals: Vec<Vec<T>>,
    u_vals: Vec<Vec<T>>,
    /// KLU path only: values aligned with `offdiag_cols` per final row.
    offdiag_vals: Vec<Vec<T>>,
}

impl<T: Scalar> SparseLu<T> {
    /// Analyzes (KLU path) and factors `a` in one call.
    ///
    /// # Errors
    ///
    /// Structural errors from [`SymbolicLu::analyze`], or
    /// [`NumericError::Singular`] (pivot in original coordinates).
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self> {
        let sym = Arc::new(SymbolicLu::analyze(a)?);
        Self::factor_with(sym, a)
    }

    /// Analyzes and factors `a` on the scalar reference path — the
    /// differential oracle for [`SparseLu::factor`].
    ///
    /// # Errors
    ///
    /// Structural errors from [`SymbolicLu::analyze_reference`], or
    /// [`NumericError::Singular`].
    pub fn factor_reference(a: &CsrMatrix<T>) -> Result<Self> {
        let sym = Arc::new(SymbolicLu::analyze_reference(a)?);
        Self::factor_with(sym, a)
    }

    /// Numeric factorization reusing an existing symbolic pattern
    /// (either path), unlimited budget, default parallelism.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `a`'s pattern differs from
    /// the one `sym` was analyzed on; [`NumericError::Singular`] on a
    /// zero/non-finite pivot.
    pub fn factor_with(sym: Arc<SymbolicLu>, a: &CsrMatrix<T>) -> Result<Self> {
        Self::factor_with_budget(sym, a, &SolveBudget::unlimited(), &ParallelConfig::default())
    }

    /// Numeric factorization under a [`SolveBudget`] (polled between
    /// supernode panels on the KLU path) and an explicit thread
    /// configuration. Values are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factor_with`], plus [`NumericError::Cancelled`] /
    /// [`NumericError::BudgetExceeded`] when the budget trips.
    pub fn factor_with_budget(
        sym: Arc<SymbolicLu>,
        a: &CsrMatrix<T>,
        budget: &SolveBudget,
        cfg: &ParallelConfig,
    ) -> Result<Self> {
        let mut lu = match &sym.repr {
            SymRepr::Reference(r) => Self {
                l_vals: r.l_cols.iter().map(|c| vec![T::zero(); c.len()]).collect(),
                u_vals: r.u_cols.iter().map(|c| vec![T::zero(); c.len()]).collect(),
                offdiag_vals: Vec::new(),
                sym: Arc::clone(&sym),
            },
            SymRepr::Klu(k) => {
                let mut l_vals: Vec<Vec<T>> = vec![Vec::new(); sym.n];
                let mut u_vals: Vec<Vec<T>> = vec![Vec::new(); sym.n];
                for b in &k.blocks {
                    for (li, c) in b.l_cols.iter().enumerate() {
                        l_vals[b.lo + li] = vec![T::zero(); c.len()];
                    }
                    for (li, c) in b.u_cols.iter().enumerate() {
                        u_vals[b.lo + li] = vec![T::zero(); c.len()];
                    }
                }
                Self {
                    l_vals,
                    u_vals,
                    offdiag_vals: k
                        .offdiag_cols
                        .iter()
                        .map(|c| vec![T::zero(); c.len()])
                        .collect(),
                    sym: Arc::clone(&sym),
                }
            }
        };
        lu.refactor_budgeted(a, budget, cfg)?;
        Ok(lu)
    }

    /// Re-runs only the numeric phase on a matrix with the same pattern
    /// (new time step, new Newton linearization…).
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_with`].
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<()> {
        self.refactor_budgeted(a, &SolveBudget::unlimited(), &ParallelConfig::default())
    }

    /// [`SparseLu::refactor`] under a [`SolveBudget`] and an explicit
    /// thread configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_with_budget`].
    pub fn refactor_budgeted(
        &mut self,
        a: &CsrMatrix<T>,
        budget: &SolveBudget,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        if !self.sym.matches(a) {
            return Err(NumericError::DimensionMismatch {
                expected: self.sym.key.0,
                found: a.nnz(),
            });
        }
        let sym = Arc::clone(&self.sym);
        match &sym.repr {
            SymRepr::Reference(r) => reference_numeric(r, a, &mut self.l_vals, &mut self.u_vals),
            SymRepr::Klu(k) => klu_numeric(
                k,
                a,
                &mut self.l_vals,
                &mut self.u_vals,
                &mut self.offdiag_vals,
                budget,
                cfg,
            ),
        }
    }

    /// The shared symbolic factorization.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.sym
    }

    /// Fill-in / block / supernode statistics of the underlying pattern.
    pub fn stats(&self) -> SparseLuStats {
        self.sym.stats()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] on a wrong-length `b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        if b.len() != self.sym.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.sym.n,
                found: b.len(),
            });
        }
        match &self.sym.repr {
            SymRepr::Reference(r) => Ok(self.solve_reference(r, b)),
            SymRepr::Klu(k) => Ok(self.solve_klu(k, b)),
        }
    }

    /// Reference triangular solves over the global ordering.
    fn solve_reference(&self, sym: &RefSym, b: &[T]) -> Vec<T> {
        let n = sym.perm.len();
        let mut x = sym.perm.apply(b);
        // Forward: L·y = P·b (unit diagonal).
        for i in 0..n {
            let mut acc = x[i];
            for (slot, &j) in sym.l_cols[i].iter().enumerate() {
                acc -= self.l_vals[i][slot] * x[j];
            }
            x[i] = acc;
        }
        // Backward: U·z = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (slot, &c) in sym.u_cols[i].iter().enumerate().skip(1) {
                acc -= self.u_vals[i][slot] * x[c];
            }
            // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
            x[i] = acc / self.u_vals[i][0];
        }
        sym.perm.apply_inverse(&x)
    }

    /// Block back-substitution: blocks in reverse order, each one a
    /// pair of triangular solves after subtracting the already-solved
    /// off-diagonal coupling.
    ///
    /// Every row is walked by its column runs: per run, a slice of the
    /// row's values zips with a contiguous window of `x`. The terms
    /// `acc -= v·x` are the ones the per-entry column indices name, in
    /// the same slot order, so the result is bit-identical to an
    /// index-by-index walk (`solve_klu_indexed`, the test oracle).
    fn solve_klu(&self, klu: &KluSym, b: &[T]) -> Vec<T> {
        let mut x = klu.rperm.apply(b);
        for blk in klu.blocks.iter().rev() {
            let lo = blk.lo;
            let nb = blk.u_cols.len();
            // Off-diagonal coupling into later (already final) blocks.
            for fi in lo..lo + nb {
                let mut acc = x[fi];
                for (vs, xs) in klu.offdiag_runs.zip_row(fi, &self.offdiag_vals[fi], &x, 0) {
                    for (&v, &xv) in vs.iter().zip(xs) {
                        acc -= v * xv;
                    }
                }
                x[fi] = acc;
            }
            // Forward: L·y = rhs (unit diagonal), block-local columns.
            for li in 0..nb {
                let fi = lo + li;
                let mut acc = x[fi];
                for (vs, xs) in blk.l_runs.zip_row(li, &self.l_vals[fi], &x, lo) {
                    for (&v, &xv) in vs.iter().zip(xs) {
                        acc -= v * xv;
                    }
                }
                x[fi] = acc;
            }
            // Backward: U·z = y. The runs start past the diagonal slot.
            for li in (0..nb).rev() {
                let fi = lo + li;
                let (diag, upper) = self.u_vals[fi].split_at(1);
                let mut acc = x[fi];
                for (vs, xs) in blk.u_runs.zip_row(li, upper, &x, lo) {
                    for (&v, &xv) in vs.iter().zip(xs) {
                        acc -= v * xv;
                    }
                }
                // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
                x[fi] = acc / diag[0];
            }
        }
        klu.cperm.apply_inverse(&x)
    }

    /// The per-entry walk [`SparseLu::solve_klu`] replaced: one column
    /// index load and one gather per stored entry. Kept as the oracle
    /// the run-based solve is pinned against bit for bit.
    #[cfg(test)]
    fn solve_klu_indexed(&self, klu: &KluSym, b: &[T]) -> Vec<T> {
        let mut x = klu.rperm.apply(b);
        for blk in klu.blocks.iter().rev() {
            let lo = blk.lo;
            let nb = blk.u_cols.len();
            for li in 0..nb {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &fj) in klu.offdiag_cols[fi].iter().enumerate() {
                    acc -= self.offdiag_vals[fi][slot] * x[fj];
                }
                x[fi] = acc;
            }
            for li in 0..nb {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &lj) in blk.l_cols[li].iter().enumerate() {
                    acc -= self.l_vals[fi][slot] * x[lo + lj];
                }
                x[fi] = acc;
            }
            for li in (0..nb).rev() {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &cj) in blk.u_cols[li].iter().enumerate().skip(1) {
                    acc -= self.u_vals[fi][slot] * x[lo + cj];
                }
                x[fi] = acc / self.u_vals[fi][0];
            }
        }
        klu.cperm.apply_inverse(&x)
    }

    /// Solves with `rounds` of iterative refinement against the
    /// original matrix (one CSR matvec plus one re-solve per round) —
    /// the standard antidote to the digits static pivoting can lose.
    ///
    /// # Errors
    ///
    /// Dimension mismatches between `a`, `b` and the factors.
    pub fn solve_refined(&self, a: &CsrMatrix<T>, b: &[T], rounds: usize) -> Result<Vec<T>> {
        let mut x = self.solve(b)?;
        for _ in 0..rounds {
            let ax = a.matvec(&x)?;
            let r: Vec<T> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
            let dx = self.solve(&r)?;
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += *di;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::{CancelToken, Complex64};

    fn grid_laplacian(w: usize, h: usize) -> Triplets {
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        let mut t = Triplets::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = idx(x, y);
                t.push(i, i, 4.01);
                let mut nb = |j: usize| {
                    t.push(i, j, -1.0);
                };
                if x > 0 {
                    nb(idx(x - 1, y));
                }
                if x + 1 < w {
                    nb(idx(x + 1, y));
                }
                if y > 0 {
                    nb(idx(x, y - 1));
                }
                if y + 1 < h {
                    nb(idx(x, y + 1));
                }
            }
        }
        t
    }

    fn max_residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
        let r = t.to_dense().matvec(x).unwrap();
        r.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn grid_system_solves_exactly() {
        let t = grid_laplacian(12, 9);
        let n = t.nrows();
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t, &x, &b) < 1e-10);
    }

    #[test]
    fn matches_dense_lu_solution() {
        let t = grid_laplacian(6, 6);
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..36).map(|i| 1.0 + i as f64).collect();
        let sparse = lu.solve(&b).unwrap();
        let dense = t.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn klu_matches_reference_oracle() {
        let t = grid_laplacian(9, 7);
        let csr = t.to_csr();
        let klu = SparseLu::factor(&csr).unwrap();
        let oracle = SparseLu::factor_reference(&csr).unwrap();
        let b: Vec<f64> = (0..t.nrows()).map(|i| (i as f64 * 0.11).cos()).collect();
        let xk = klu.solve(&b).unwrap();
        let xr = oracle.solve(&b).unwrap();
        for (k, r) in xk.iter().zip(&xr) {
            assert!((k - r).abs() < 1e-10, "{k} vs {r}");
        }
    }

    #[test]
    fn refactor_reuses_pattern_for_new_values() {
        let t1 = grid_laplacian(8, 8);
        // Same pattern, different values (as a new transient step size
        // produces).
        let mut t2 = Triplets::new(t1.nrows(), t1.ncols());
        for &(i, j, v) in t1.entries() {
            t2.push(i, j, if i == j { v * 2.5 } else { v * 0.5 });
        }
        let c1 = t1.to_csr();
        let c2 = t2.to_csr();
        let mut lu = SparseLu::factor(&c1).unwrap();
        let sym = lu.symbolic().clone();
        assert!(sym.matches(&c2));
        lu.refactor(&c2).unwrap();
        let b = vec![1.0; t1.nrows()];
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t2, &x, &b) < 1e-10);
        // And factor_with on the shared pattern gives the same answer.
        let lu2 = SparseLu::factor_with(sym, &c2).unwrap();
        assert_eq!(lu2.solve(&b).unwrap(), x);
    }

    #[test]
    fn pattern_mismatch_is_rejected() {
        let a = grid_laplacian(5, 5).to_csr();
        let b = grid_laplacian(5, 4).to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        assert!(!sym.matches(&b));
        assert!(SparseLu::factor_with(sym, &b).is_err());
    }

    #[test]
    fn zero_structural_diagonal_rows_are_deferred() {
        // An MNA-shaped system: a resistive node block bordered by a
        // voltage-source incidence row with *no* diagonal. The KLU path
        // handles it via off-diagonal matching, the reference path via
        // AMD deferral — both must solve it.
        let n = 80;
        let mut t = Triplets::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 3.0);
            if i + 1 < n - 1 {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        // Row n-1: vsrc row pinning node 0 (incidence ±1 only).
        t.push(n - 1, 0, 1.0);
        t.push(0, n - 1, 1.0);
        let csr = t.to_csr();
        assert!(!csr.contains(n - 1, n - 1));
        let mut b = vec![0.0; n];
        b[n - 1] = 2.0; // pin v0 = 2
        for lu in [
            SparseLu::factor(&csr).unwrap(),
            SparseLu::factor_reference(&csr).unwrap(),
        ] {
            let x = lu.solve(&b).unwrap();
            assert!((x[0] - 2.0).abs() < 1e-10, "v0 = {}", x[0]);
            assert!(max_residual(&t, &x, &b) < 1e-9);
        }
    }

    #[test]
    fn singular_pivot_maps_to_original_index() {
        let n = 60;
        let dead = 23usize;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            if i == dead {
                continue;
            }
            t.push(i, i, 2.0);
            if i + 1 < n && i + 1 != dead {
                t.push(i, i + 1, -0.5);
                t.push(i + 1, i, -0.5);
            }
        }
        t.push(dead, dead, 0.0);
        // A structurally-present but numerically zero diagonal entry is
        // dropped by Triplets::push? No: push skips exact zeros, so use
        // a cancelling duplicate to store a structural zero.
        t.push(dead, dead, 1.0);
        t.push(dead, dead, -1.0);
        match SparseLu::factor(&t.to_csr()) {
            Err(NumericError::Singular { pivot }) => assert_eq!(pivot, dead),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_singular_is_rejected_at_analysis() {
        // An empty row: no matching can cover it.
        let n = 10;
        let mut t = Triplets::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 1.0);
        }
        match SymbolicLu::analyze(&t.to_csr()) {
            Err(NumericError::StructurallySingular { dim, .. }) => assert_eq!(dim, n),
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
    }

    #[test]
    fn complex_system_via_scalar_trait() {
        // 1-D "AC ladder": complex admittances.
        let n = 64;
        let mut t: Triplets<Complex64> = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, Complex64::new(2.0, 0.7));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(-1.0, -0.3));
                t.push(i + 1, i, Complex64::new(-1.0, -0.3));
            }
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0, (i % 5) as f64 * 0.2))
            .collect();
        let x = lu.solve(&b).unwrap();
        let ax = csr.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-10);
        }
    }

    #[test]
    fn refinement_tightens_ill_scaled_solves() {
        let n = 50;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, if i % 2 == 0 { 1e7 } else { 1e-6 });
            if i + 1 < n {
                t.push(i, i + 1, 1e-7);
                t.push(i + 1, i, 1e-7);
            }
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let refined = lu.solve_refined(&csr, &b, 2).unwrap();
        assert!(max_residual(&t, &refined, &b) < 1e-9);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let lu = SparseLu::factor(&grid_laplacian(4, 4).to_csr()).unwrap();
        assert!(lu.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn factor_nnz_reports_fill() {
        let a = grid_laplacian(10, 10).to_csr();
        let sym = SymbolicLu::analyze(&a).unwrap();
        // Factors hold at least the matrix pattern, at most dense.
        assert!(sym.factor_nnz() >= a.nnz());
        assert!(sym.factor_nnz() < 100 * 100);
        assert_eq!(sym.dim(), 100);
        assert_eq!(sym.perm().len(), 100);
    }

    #[test]
    fn stats_reflect_block_and_supernode_structure() {
        // Connected grid: one irreducible block, real supernodes.
        let a = grid_laplacian(10, 10).to_csr();
        let sym = SymbolicLu::analyze(&a).unwrap();
        let s = sym.stats();
        assert_eq!(s.num_blocks, 1);
        assert_eq!(s.max_block_dim, 100);
        assert!(s.num_supernodes >= 1 && s.num_supernodes < 100);
        assert!(s.max_supernode_width > 1);
        assert_eq!(s.factor_nnz, sym.factor_nnz());
        // Triangular pattern: all-singleton blocks.
        let n = 12;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            for j in 0..i {
                if (i + j) % 3 == 0 {
                    t.push(i, j, -1.0);
                }
            }
        }
        let sym = SymbolicLu::analyze(&t.to_csr()).unwrap();
        let s = sym.stats();
        assert_eq!(s.num_blocks, n);
        assert_eq!(s.max_block_dim, 1);
        // Reference path reports the degenerate view.
        let sref = SymbolicLu::analyze_reference(&t.to_csr()).unwrap().stats();
        assert_eq!(sref.num_blocks, 1);
        assert_eq!(sref.max_block_dim, n);
    }

    #[test]
    fn reducible_system_solves_through_block_back_substitution() {
        // Block upper triangular by construction (scrambled), so the
        // off-diagonal path is actually exercised.
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + (i % 4) as f64);
            // Coupling strictly "forward" in groups of 5.
            let g = i / 5;
            if (g + 1) * 5 < n {
                t.push(i, (g + 1) * 5 + i % 5, -0.7);
            }
            // In-group ring coupling.
            let j = g * 5 + (i + 1) % 5;
            t.push(i, j, -0.4);
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        assert!(lu.stats().num_blocks > 1, "stats: {:?}", lu.stats());
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t, &x, &b) < 1e-10);
    }

    #[test]
    fn pre_cancelled_budget_is_typed() {
        let a = grid_laplacian(8, 8).to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        match SparseLu::factor_with_budget(sym, &a, &budget, &ParallelConfig::serial()) {
            Err(NumericError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn thread_count_does_not_change_values() {
        // Many independent blocks so the parallel path has real work to
        // schedule.
        let n = 120;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + (i % 7) as f64 * 0.3);
            let g = i / 6;
            let j = g * 6 + (i + 1) % 6;
            t.push(i, j, -0.5);
            if (g + 1) * 6 < n {
                t.push(i, (g + 1) * 6 + i % 6, 0.25);
            }
        }
        let csr = t.to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&csr).unwrap());
        assert!(sym.stats().num_blocks >= n / 6);
        let unl = SolveBudget::unlimited();
        let lu1 =
            SparseLu::factor_with_budget(Arc::clone(&sym), &csr, &unl, &ParallelConfig::serial())
                .unwrap();
        let lu4 = SparseLu::factor_with_budget(
            Arc::clone(&sym),
            &csr,
            &unl,
            &ParallelConfig::with_threads(4),
        )
        .unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        // Bit-identical, not merely close.
        assert_eq!(lu1.solve(&b).unwrap(), lu4.solve(&b).unwrap());
    }

    /// Deterministic xorshift64* stream for pattern generation.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// Structural rows of `P·A·Pᵀ` for a pattern given as entry pairs,
    /// sorted and deduplicated.
    fn permuted_pattern(n: usize, entries: &[(usize, usize)], p: &Permutation) -> Vec<Vec<usize>> {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in entries {
            rows[p.new_of(i)].push(p.new_of(j));
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        rows
    }

    /// AMD order of a pattern with structurally absent diagonals
    /// deferred, exactly as the analysis orders it.
    fn amd_order(n: usize, entries: &[(usize, usize)]) -> Permutation {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut diag = vec![false; n];
        for &(i, j) in entries {
            if i == j {
                diag[i] = true;
            } else {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        let defer: Vec<bool> = diag.iter().map(|&d| !d).collect();
        approximate_minimum_degree(&adj, &defer)
    }

    /// Random order that keeps diagonal-free rows last, the way the
    /// static pivot order defers them.
    fn shuffled_order(n: usize, entries: &[(usize, usize)], rng: &mut Xorshift) -> Permutation {
        let mut diag = vec![false; n];
        for &(i, j) in entries {
            if i == j {
                diag[i] = true;
            }
        }
        let mut fwd: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            fwd.swap(k, rng.below(k + 1));
        }
        fwd.sort_by_key(|&v| !diag[v]);
        Permutation::from_forward(fwd).unwrap()
    }

    fn assert_merges_agree(label: &str, rows: &[Vec<usize>]) {
        let pruned = symbolic_merge(rows);
        let naive = symbolic_merge_naive(rows);
        assert!(pruned == naive, "{label}: pruned row merge differs from the naive one");
    }

    #[test]
    fn pruned_merge_matches_naive_on_random_patterns() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        for case in 0..300 {
            let n = 1 + rng.below(60);
            let density = 2 + rng.below(25);
            let symmetric = case % 2 == 0;
            let mut entries = Vec::new();
            for i in 0..n {
                // Roughly one row in six has no structural diagonal.
                if !rng.chance(16) {
                    entries.push((i, i));
                }
                for j in 0..n {
                    if j != i && (!symmetric || j < i) && rng.chance(density) {
                        entries.push((i, j));
                        if symmetric {
                            entries.push((j, i));
                        }
                    }
                }
            }
            let orders = [
                Permutation::identity(n),
                amd_order(n, &entries),
                shuffled_order(n, &entries, &mut rng),
            ];
            for (k, p) in orders.iter().enumerate() {
                let rows = permuted_pattern(n, &entries, p);
                assert_merges_agree(&format!("case {case} (n={n}, order {k})"), &rows);
            }
        }
    }

    #[test]
    fn pruned_merge_matches_naive_on_deferred_diagonals() {
        // Grid conductance rows plus voltage-source incidence rows with
        // no diagonal, eliminated last: the deferred pivots only receive
        // their diagonal as fill.
        let (w, h) = (9usize, 7usize);
        let nodes = w * h;
        let sources = [0usize, w - 1, nodes / 2, nodes - 1];
        let n = nodes + sources.len();
        let mut entries = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                entries.push((v, v));
                if x + 1 < w {
                    entries.extend([(v, v + 1), (v + 1, v)]);
                }
                if y + 1 < h {
                    entries.extend([(v, v + w), (v + w, v)]);
                }
            }
        }
        for (k, &node) in sources.iter().enumerate() {
            entries.extend([(nodes + k, node), (node, nodes + k)]);
        }
        let mut rng = Xorshift(17);
        for (k, p) in [
            Permutation::identity(n),
            amd_order(n, &entries),
            shuffled_order(n, &entries, &mut rng),
        ]
        .iter()
        .enumerate()
        {
            let rows = permuted_pattern(n, &entries, p);
            let (_, u) = symbolic_merge(&rows);
            assert!(u.iter().enumerate().all(|(i, r)| r[0] == i));
            assert_merges_agree(&format!("grid + sources, order {k}"), &rows);
        }
    }

    #[test]
    fn pruned_merge_matches_naive_on_peec_shaped_pattern() {
        // PEEC (RLC) shape: an RC grid, a dense clique of mutually
        // coupled inductor-branch rows each tied to its two end nodes,
        // and diagonal-free voltage-source rows.
        let (w, h) = (12usize, 6usize);
        let nodes = w * h;
        let branches: Vec<(usize, usize)> = (0..w - 1)
            .map(|x| (x, x + 1))
            .chain((0..w - 1).map(|x| (2 * w + x, 2 * w + x + 1)))
            .chain((0..h - 1).map(|y| (y * w + w / 2, (y + 1) * w + w / 2)))
            .collect();
        let nb = branches.len();
        let sources = [0usize, 2 * w];
        let n = nodes + nb + sources.len();
        let mut entries = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                entries.push((v, v));
                if x + 1 < w && y % 2 == 1 {
                    entries.extend([(v, v + 1), (v + 1, v)]);
                }
                if y + 1 < h && x % 3 == 0 {
                    entries.extend([(v, v + w), (v + w, v)]);
                }
            }
        }
        for (k, &(a, b)) in branches.iter().enumerate() {
            let r = nodes + k;
            entries.extend([(r, a), (a, r), (r, b), (b, r)]);
            for k2 in 0..nb {
                entries.push((r, nodes + k2));
            }
        }
        for (k, &node) in sources.iter().enumerate() {
            let r = nodes + nb + k;
            entries.extend([(r, node), (node, r)]);
        }
        let mut rng = Xorshift(0xdead_beef);
        let mut orders = vec![Permutation::identity(n), amd_order(n, &entries)];
        for _ in 0..4 {
            orders.push(shuffled_order(n, &entries, &mut rng));
        }
        for (k, p) in orders.iter().enumerate() {
            let rows = permuted_pattern(n, &entries, p);
            assert_merges_agree(&format!("PEEC-shaped, order {k}"), &rows);
        }
    }

    /// Raw bits of a value, so comparisons see every rounding (and the
    /// sign of zero) rather than float equality.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    /// What the run-vs-index comparisons exercised: BTF blocks, stored
    /// off-diagonal coupling entries, and, over `L`, `U` past the
    /// diagonal and the coupling, column runs, stored entries and
    /// entries that form a run on their own.
    #[derive(Default)]
    struct RunCoverage {
        blocks: usize,
        offdiag: usize,
        runs: usize,
        entries: usize,
        single_entry_runs: usize,
    }

    impl RunCoverage {
        fn add(&mut self, klu: &KluSym) {
            self.blocks += klu.blocks.len();
            self.offdiag += klu.offdiag_cols.iter().map(Vec::len).sum::<usize>();
            let mut tally = |runs: &RowRuns, rows: &mut dyn Iterator<Item = &[usize]>| {
                self.runs += runs.count();
                for row in rows {
                    self.entries += row.len();
                    let lone = (0..row.len())
                        .filter(|&k| {
                            (k == 0 || row[k - 1] + 1 != row[k])
                                && (k + 1 == row.len() || row[k] + 1 != row[k + 1])
                        })
                        .count();
                    self.single_entry_runs += lone;
                }
            };
            tally(&klu.offdiag_runs, &mut klu.offdiag_cols.iter().map(Vec::as_slice));
            for b in &klu.blocks {
                tally(&b.l_runs, &mut b.l_cols.iter().map(Vec::as_slice));
                tally(&b.u_runs, &mut b.u_cols.iter().map(|u| &u[1..]));
            }
        }
    }

    /// Factors `entries` (as `T` through `cast`) on the KLU path and
    /// checks the run-based solve against the per-entry oracle bit for
    /// bit, on a few right-hand sides.
    fn assert_run_solve_is_bit_identical<T: Bits>(
        label: &str,
        n: usize,
        entries: &[(usize, usize, f64)],
        cast: impl Fn(f64, usize) -> T,
        cov: &mut RunCoverage,
    ) {
        let mut t = Triplets::new(n, n);
        for (k, &(i, j, v)) in entries.iter().enumerate() {
            t.push(i, j, cast(v, k));
        }
        let lu = SparseLu::factor(&t.to_csr()).unwrap_or_else(|e| panic!("{label}: {e}"));
        let SymRepr::Klu(klu) = &lu.sym.repr else {
            panic!("{label}: not the KLU path");
        };
        cov.add(klu);
        for rhs in 0..3 {
            let b: Vec<T> = (0..n)
                .map(|i| cast(((i * 7 + rhs * 13) as f64 * 0.37).sin() + 0.1, i + rhs))
                .collect();
            let runs = lu.solve_klu(klu, &b);
            let indexed = lu.solve_klu_indexed(klu, &b);
            for (i, (r, x)) in runs.iter().zip(&indexed).enumerate() {
                assert_eq!(r.bits(), x.bits(), "{label}, rhs {rhs}: x[{i}] {r:?} vs {x:?}");
            }
        }
    }

    /// Random diagonally dominant patterns of four shapes: scattered
    /// entries; banded rows broken by one-column gaps (long runs with
    /// holes, plus rows left with a single entry); block upper
    /// triangular coupling of several irreducible blocks (off-diagonal
    /// runs); and MNA-style voltage-source rows without a structural
    /// diagonal (deferred pivots).
    fn run_test_pattern(rng: &mut Xorshift, case: usize) -> (usize, Vec<(usize, usize, f64)>) {
        let n = 2 + rng.below(70);
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        let off = |rng: &mut Xorshift| (rng.below(2001) as f64 - 1000.0) * 1e-3;
        match case % 4 {
            0 => {
                let density = 2 + rng.below(30);
                for i in 0..n {
                    for j in 0..n {
                        if j != i && rng.chance(density) {
                            entries.push((i, j, off(rng)));
                        }
                    }
                }
            }
            1 => {
                let w = 1 + rng.below(n);
                let gap = 2 + rng.below(9);
                for i in 0..n {
                    if rng.chance(10) {
                        continue; // a single-entry row: diagonal only
                    }
                    for j in i.saturating_sub(w)..(i + w + 1).min(n) {
                        if j != i && j % gap != i % gap {
                            entries.push((i, j, off(rng)));
                            entries.push((j, i, off(rng)));
                        }
                    }
                }
            }
            2 => {
                // Irreducible blocks (a cycle each) coupled only upward.
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + 1 + rng.below(12)).min(n);
                    for i in lo..hi {
                        if hi - lo > 1 {
                            entries.push((i, if i + 1 < hi { i + 1 } else { lo }, off(rng)));
                        }
                        for j in hi..n {
                            if rng.chance(25) {
                                entries.push((i, j, off(rng)));
                            }
                        }
                    }
                    lo = hi;
                }
            }
            _ => {
                // Node rows on a random conductance graph, then voltage
                // sources tying distinct nodes to ground.
                let nodes = 1 + n / 2;
                for i in 0..nodes {
                    for j in 0..i {
                        if rng.chance(20) {
                            let g = off(rng);
                            entries.push((i, j, g));
                            entries.push((j, i, g));
                        }
                    }
                }
                for k in nodes..n {
                    let v = k - nodes;
                    entries.push((k, v, 1.0));
                    entries.push((v, k, 1.0));
                }
            }
        }
        // Diagonal dominance on the rows that carry a diagonal.
        let mut row_sum = vec![0.0f64; n];
        for &(i, _, v) in &entries {
            row_sum[i] += v.abs();
        }
        let diag_rows = if case % 4 == 3 { 1 + n / 2 } else { n };
        for (i, s) in row_sum.iter().enumerate().take(diag_rows) {
            entries.push((i, i, s + 1.0 + (i % 5) as f64 * 0.1));
        }
        (n, entries)
    }

    #[test]
    fn run_solve_is_bit_identical_to_indexed_solve() {
        let mut rng = Xorshift(0x0123_4567_89ab_cdef);
        let mut cov = RunCoverage::default();
        for case in 0..240 {
            let (n, entries) = run_test_pattern(&mut rng, case);
            let label = format!("case {case} (shape {}, n={n})", case % 4);
            assert_run_solve_is_bit_identical(&label, n, &entries, |v, _| v, &mut cov);
            assert_run_solve_is_bit_identical(
                &format!("{label}, complex"),
                n,
                &entries,
                |v, k| Complex64::new(v, v * (0.3 + 0.01 * (k % 11) as f64)),
                &mut cov,
            );
        }
        // The patterns reached every run shape the walk distinguishes.
        assert!(cov.blocks > 2 * 240 * 2, "too few multi-block factors");
        assert!(cov.offdiag > 0, "no off-diagonal coupling");
        assert!(cov.single_entry_runs > 0, "no single-entry runs");
        assert!(
            cov.entries > 3 * cov.runs,
            "runs too short: {} entries in {} runs",
            cov.entries,
            cov.runs
        );
    }

    /// A dense block of consecutive columns is the long-run extreme:
    /// every row of `L` and `U` is one run.
    #[test]
    fn dense_block_solve_is_one_run_per_row_and_bit_identical() {
        let n: usize = 48;
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let v = if i == j { n as f64 } else { 1.0 / (1.0 + i.abs_diff(j) as f64) };
                entries.push((i, j, v));
            }
        }
        let mut cov = RunCoverage::default();
        assert_run_solve_is_bit_identical("dense", n, &entries, |v, _| v, &mut cov);
        // One run per nonempty row: n − 1 in L, n − 1 in U past the
        // diagonal.
        assert_eq!(cov.runs, 2 * (n - 1));
        assert_eq!(cov.entries, n * (n - 1));
    }
}


#[cfg(test)]
mod pivot_stability {
    use super::*;
    use crate::sparse::Triplets;

    /// Growth bound under which the factorization counts as stable for
    /// this 5x5 repro (entries are O(1e2); the transversal pairing
    /// produced |U| of O(1e9) here before per-block re-pairing).
    const GROWTH_LIMIT: f64 = 1.0e5;

    /// Regression: an MNA-shaped system (near-cancelling conductances,
    /// a gmin-sized diagonal residue, voltage-source incidence rows)
    /// on which static pivoting along the raw transversal matching
    /// suffers catastrophic element growth. The per-block symmetric
    /// re-pairing must keep the factors bounded and the refined solve
    /// near the dense-pivoted answer.
    #[test]
    fn mna_repro_stays_stable_without_numerical_pivoting() {
        let n = 5;
        let mut t = Triplets::new(n, n);
        let ent: &[(usize, usize, f64)] = &[
            (0, 0, 61.57665452859786),
            (0, 2, -61.57665452759786),
            (1, 1, 40.6600171384553),
            (1, 2, -40.660017137455306),
            (1, 3, 1.0),
            (2, 0, -61.57665452759786),
            (2, 1, -40.660017137455306),
            (2, 2, 102.23667166605317),
            (2, 3, -1.0),
            (2, 4, 1.0),
            (3, 1, 1.0),
            (3, 2, -1.0),
            (4, 2, 1.0),
            (4, 4, -0.43097013163932363),
        ];
        for &(i, j, v) in ent {
            t.push(i, j, v);
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let growth = lu
            .u_vals
            .iter()
            .flatten()
            .fold(0.0f64, |m, v| m.max(v.abs_val()));
        assert!(
            growth < GROWTH_LIMIT,
            "element growth {growth:e} exceeds {GROWTH_LIMIT:e}"
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let x = lu.solve_refined(&csr, &b, 2).unwrap();
        let ax = csr.matvec(&x).unwrap();
        let res = ax
            .iter()
            .zip(&b)
            .map(|(a, c)| (a - c).abs())
            .fold(0.0f64, f64::max);
        assert!(res < 1e-8, "refined residual {res:e} too large");
    }
}
