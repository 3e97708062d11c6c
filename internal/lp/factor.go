package lp

import "math"

// This file holds the linear-algebra substrate of the revised simplex solver
// (revised.go): a basis factorization that exploits the structure of
// cutting-plane masters, and a product-form eta file for cheap basis updates
// between refactorizations.
//
// The basis B of a master LP is overwhelmingly made of logical columns
// (slacks of occupation and cut rows), each a signed unit vector ±e_r. Only
// the structural basic columns — edge rates with nonzero level, the
// throughput variable — need real elimination. The factorization therefore
// permutes B into
//
//	B = [ S  F ]     S: signed identity over the singleton-covered rows,
//	    [ 0  G ]     G: the sparse "core" over the remaining rows/columns,
//
// and keeps a sparse LU of G only (k×k with k = #structural basics, typically
// far smaller than the row count m). The core itself is sparse — an edge
// column touches its two occupation rows plus the tight cuts containing the
// edge — so factorization and the FTRAN/BTRAN triangular solves run in time
// near the factor nonzero count, not the dense k³/k².

// Tolerances of the factorization machinery.
const (
	// luTiny is the pivot magnitude below which the LU of the core declares
	// the basis numerically singular.
	luTiny = 1e-11
	// etaDropTol drops eta entries too small to matter; keeping them would
	// only grow the eta file and spread roundoff.
	etaDropTol = 1e-12
	// etaLimit is the default update-count refactorization trigger: after
	// this many eta updates the factorization is rebuilt from the current
	// basis, both to bound the FTRAN/BTRAN cost of the eta chain and to
	// reset accumulated roundoff. It is the production value; the package's
	// tests override it per handle (Revised.refactorInterval).
	etaLimit = 64
	// pivotGrowthTol is the relative-instability refactorization trigger: a
	// transformed pivot element smaller than this fraction of the largest
	// entry of the transformed column signals that the eta chain has gone
	// numerically stale, so the solver refactorizes and recomputes before
	// committing the pivot.
	pivotGrowthTol = 1e-8
)

// sparseLU is a sparse LU factorization of the core: P·G·Q = L·U with row
// permutation P chosen by partial pivoting and column order Q fixed up front
// (columns sorted by nonzero count, cheapest first). It is computed
// left-looking in the style of Gilbert–Peierls: each column of G is solved
// against the L columns already produced — a sparse triangular solve whose
// nonzero pattern comes from a depth-first reachability pass over the L
// structure — and then pivoted on its largest remaining entry, so the work
// per column is proportional to the entries it actually touches. All slabs
// are reused across refactorizations.
type sparseLU struct {
	k int
	// L is unit lower triangular, stored by pivot-order column; row indices
	// are core-row slots (rows that become pivots of later steps), the unit
	// diagonal is implicit.
	lp []int32
	li []int32
	lx []float64
	// U is upper triangular, stored by pivot-order column; row indices are
	// pivot steps of earlier columns, the diagonal lives in ud.
	up []int32
	ui []int32
	ux []float64
	ud []float64

	rowOf   []int32 // core-row slot → pivot step (−1 until pivoted)
	stepRow []int32 // pivot step → core-row slot
	colOf   []int32 // pivot step → core-col slot (the elimination order)

	w     []float64 // dense accumulator over core-row slots
	mark  []int32   // per-column DFS visitation epochs
	stack []int32   // DFS node stack
	estk  []int32   // DFS edge cursors
	patt  []int32   // column pattern in finish (post-) order
	pvec  []float64 // solve-time permutation scratch
	cnt   []int32   // counting-sort buckets for the column ordering
}

// init sizes the per-step slabs and resets the factor for k columns.
func (f *sparseLU) init(k int) {
	f.k = k
	if cap(f.rowOf) < k {
		f.rowOf = make([]int32, k)
		f.stepRow = make([]int32, k)
		f.colOf = make([]int32, k)
		f.w = make([]float64, k)
		f.mark = make([]int32, k)
		f.stack = make([]int32, k)
		f.estk = make([]int32, k)
		f.pvec = make([]float64, k)
		f.ud = make([]float64, k)
	}
	f.rowOf = f.rowOf[:k]
	f.stepRow = f.stepRow[:k]
	f.colOf = f.colOf[:k]
	f.w = f.w[:k]
	f.mark = f.mark[:k]
	f.stack = f.stack[:k]
	f.estk = f.estk[:k]
	f.pvec = f.pvec[:k]
	f.ud = f.ud[:k]
	for i := 0; i < k; i++ {
		f.rowOf[i] = -1
		f.mark[i] = -1
		f.w[i] = 0
	}
	f.lp = append(f.lp[:0], 0)
	f.li = f.li[:0]
	f.lx = f.lx[:0]
	f.up = append(f.up[:0], 0)
	f.ui = f.ui[:0]
	f.ux = f.ux[:0]
}

// orderCols fills colOf with the core-col slots sorted by ascending nonzero
// count (stable, so ties keep slot order): eliminating the sparsest columns
// first keeps fill-in low on the near-triangular cores the masters produce.
func (f *sparseLU) orderCols(cp []int32, k int) {
	if cap(f.cnt) < k+2 {
		f.cnt = make([]int32, k+2)
	}
	cnt := f.cnt[:k+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for c := 0; c < k; c++ {
		cnt[cp[c+1]-cp[c]+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for c := 0; c < k; c++ {
		n := cp[c+1] - cp[c]
		f.colOf[cnt[n]] = int32(c)
		cnt[n]++
	}
}

// factor computes the factorization of the k×k core given in compressed
// sparse column form (cp offsets, ri core-row slots, vx values). It reports
// false when no pivot above luTiny exists for some column (the core is
// numerically singular).
func (f *sparseLU) factor(cp, ri []int32, vx []float64, k int) bool {
	f.init(k)
	f.orderCols(cp, k)
	for s := 0; s < k; s++ {
		c := f.colOf[s]
		epoch := int32(s)

		// Reachability pass: the pattern of L⁻¹·G[:,c] is everything
		// reachable from the column's nonzeros through the L structure
		// (row slot → its pivot step's L column). patt collects the
		// nodes in DFS finish order.
		f.patt = f.patt[:0]
		for e := cp[c]; e < cp[c+1]; e++ {
			root := ri[e]
			if f.mark[root] == epoch {
				continue
			}
			sp := 0
			f.mark[root] = epoch
			f.stack[0] = root
			if t := f.rowOf[root]; t >= 0 {
				f.estk[0] = f.lp[t]
			} else {
				f.estk[0] = -1
			}
			for sp >= 0 {
				node := f.stack[sp]
				t := f.rowOf[node]
				if t >= 0 && f.estk[sp] < f.lp[t+1] {
					child := f.li[f.estk[sp]]
					f.estk[sp]++
					if f.mark[child] != epoch {
						f.mark[child] = epoch
						sp++
						f.stack[sp] = child
						if ct := f.rowOf[child]; ct >= 0 {
							f.estk[sp] = f.lp[ct]
						} else {
							f.estk[sp] = -1
						}
					}
					continue
				}
				f.patt = append(f.patt, node)
				sp--
			}
		}

		// Numeric pass in reverse finish order (a topological order of the
		// dependencies): scatter the column, then apply each pivoted node's
		// L column to the rows below it.
		for e := cp[c]; e < cp[c+1]; e++ {
			f.w[ri[e]] += vx[e]
		}
		for i := len(f.patt) - 1; i >= 0; i-- {
			r := f.patt[i]
			t := f.rowOf[r]
			if t < 0 {
				continue
			}
			xr := f.w[r]
			if xr == 0 {
				continue
			}
			for e := f.lp[t]; e < f.lp[t+1]; e++ {
				f.w[f.li[e]] -= xr * f.lx[e]
			}
		}

		// Partial pivoting: the largest remaining entry on an unpivoted row
		// becomes U's diagonal; everything above it (already-pivoted rows)
		// goes to U, everything below is scaled into L.
		pivRow := int32(-1)
		pivAbs := luTiny
		for _, r := range f.patt {
			if f.rowOf[r] >= 0 {
				continue
			}
			v := f.w[r]
			if v < 0 {
				v = -v
			}
			if v > pivAbs {
				pivAbs = v
				pivRow = r
			}
		}
		if pivRow < 0 {
			return false
		}
		d := f.w[pivRow]
		f.ud[s] = d
		for _, r := range f.patt {
			v := f.w[r]
			f.w[r] = 0
			if t := f.rowOf[r]; t >= 0 {
				if v != 0 {
					f.ui = append(f.ui, t)
					f.ux = append(f.ux, v)
				}
			} else if r != pivRow && v != 0 {
				f.li = append(f.li, r)
				f.lx = append(f.lx, v/d)
			}
		}
		f.up = append(f.up, int32(len(f.ui)))
		f.lp = append(f.lp, int32(len(f.li)))
		f.rowOf[pivRow] = int32(s)
		f.stepRow[s] = pivRow
	}
	return true
}

// nnz reports the factor nonzero count (L below-diagonal + U including the
// diagonal); exported to the solver's FactorStats.
func (f *sparseLU) nnz() int { return len(f.li) + len(f.ui) + f.k }

// solve solves G·x = b in place: b enters indexed by core-row slot and
// leaves indexed by core-col slot. The L and U sweeps run in the row-slot
// space along the pivot order, then the column permutation is undone.
func (f *sparseLU) solve(b []float64) {
	k := f.k
	for s := 0; s < k; s++ {
		xr := b[f.stepRow[s]]
		if xr == 0 {
			continue
		}
		for e := f.lp[s]; e < f.lp[s+1]; e++ {
			b[f.li[e]] -= xr * f.lx[e]
		}
	}
	for s := k - 1; s >= 0; s-- {
		rp := f.stepRow[s]
		x := b[rp] / f.ud[s]
		b[rp] = x
		if x == 0 {
			continue
		}
		for e := f.up[s]; e < f.up[s+1]; e++ {
			b[f.stepRow[f.ui[e]]] -= x * f.ux[e]
		}
	}
	p := f.pvec[:k]
	for s := 0; s < k; s++ {
		p[f.colOf[s]] = b[f.stepRow[s]]
	}
	copy(b[:k], p)
}

// solveT solves Gᵀ·y = c in place: c enters indexed by core-col slot and
// leaves indexed by core-row slot (Uᵀ forward, then the unit-diagonal Lᵀ
// backward, both in pivot order).
func (f *sparseLU) solveT(b []float64) {
	k := f.k
	v := f.pvec[:k]
	for s := 0; s < k; s++ {
		v[s] = b[f.colOf[s]]
	}
	for s := 0; s < k; s++ {
		sum := v[s]
		for e := f.up[s]; e < f.up[s+1]; e++ {
			sum -= f.ux[e] * v[f.ui[e]]
		}
		v[s] = sum / f.ud[s]
	}
	for s := k - 1; s >= 0; s-- {
		sum := 0.0
		for e := f.lp[s]; e < f.lp[s+1]; e++ {
			sum += f.lx[e] * v[f.rowOf[f.li[e]]]
		}
		v[s] -= sum
	}
	for s := 0; s < k; s++ {
		b[f.stepRow[s]] = v[s]
	}
}

// etaFile is the product-form update file: after pivoting column q into basis
// position r with transformed column w = B⁻¹·a_q, the new basis satisfies
// B' = B·E with E = I + (w − e_r)·e_rᵀ. The file stores the sparse
// off-diagonal entries of each w together with the pivot position and
// diagonal, and applies E⁻¹ during FTRAN (in update order) and E⁻ᵀ during
// BTRAN (in reverse order). All storage is flat slab arenas reset — capacity
// kept — at every refactorization, so steady-state pivoting does not
// allocate.
type etaFile struct {
	pos   []int32   // pivot position of each eta
	diag  []float64 // w[pos] of each eta
	start []int32   // slab offsets: eta e owns idx/val[start[e]:start[e+1]]
	idx   []int32   // off-pivot positions, concatenated
	val   []float64 // off-pivot values, concatenated
}

func (f *etaFile) count() int { return len(f.pos) }

// reset empties the file, keeping the slab capacity.
func (f *etaFile) reset() {
	f.pos = f.pos[:0]
	f.diag = f.diag[:0]
	f.start = f.start[:0]
	f.idx = f.idx[:0]
	f.val = f.val[:0]
}

// push appends the eta for a pivot at position r with transformed column w.
func (f *etaFile) push(w []float64, r int) {
	if len(f.start) == 0 {
		f.start = append(f.start, 0)
	}
	for i, v := range w {
		if i == r || math.Abs(v) <= etaDropTol {
			continue
		}
		f.idx = append(f.idx, int32(i))
		f.val = append(f.val, v)
	}
	f.pos = append(f.pos, int32(r))
	f.diag = append(f.diag, w[r])
	f.start = append(f.start, int32(len(f.idx)))
}

// applyForward applies E₁⁻¹ … E_t⁻¹ to u in place (the FTRAN tail):
// u_r ← u_r/w_r, then u_i ← u_i − w_i·u_r for the off-pivot entries.
func (f *etaFile) applyForward(u []float64) {
	for e := 0; e < len(f.pos); e++ {
		r := f.pos[e]
		t := u[r] / f.diag[e]
		if t != 0 {
			lo, hi := f.start[e], f.start[e+1]
			for s := lo; s < hi; s++ {
				u[f.idx[s]] -= f.val[s] * t
			}
		}
		u[r] = t
	}
}

// applyBackward applies E_t⁻ᵀ … E₁⁻ᵀ to v in place (the BTRAN head):
// v_r ← (v_r − Σ w_i·v_i)/w_r, other entries unchanged.
func (f *etaFile) applyBackward(v []float64) {
	for e := len(f.pos) - 1; e >= 0; e-- {
		r := f.pos[e]
		s := v[r]
		lo, hi := f.start[e], f.start[e+1]
		for t := lo; t < hi; t++ {
			s -= f.val[t] * v[f.idx[t]]
		}
		v[r] = s / f.diag[e]
	}
}

// factorState is the factorized snapshot of the basis: the singleton/core
// split and the sparse LU of the core. It is valid for the basis as of the
// last refactorization; later pivots are represented by the eta file.
type factorState struct {
	valid bool
	k     int // core dimension (number of structural basic columns)
	slu   sparseLU

	// CSC scratch holding the core matrix handed to the factorization
	// (columns in coreCol order, row indices as core-row slots).
	ccp []int32
	cri []int32
	cvx []float64

	corePos []int32 // positions holding structural basic columns, ascending
	coreCol []int32 // column ids of the core columns at snapshot time
	coreRow []int32 // rows not covered by a singleton basic, ascending
	rowCore []int32 // row → core-row index, or -1 for singleton-covered rows

	singRow []int32   // position → covered row for singleton positions, -1 for core positions
	singInv []float64 // position → 1/sign of the singleton column (0 for core positions)
}

// ensure sizes the per-row/per-position slabs for m rows.
func (fs *factorState) ensure(m int) {
	if cap(fs.rowCore) < m {
		// Headroom for the same reason as grow.
		fs.rowCore = make([]int32, m, m+m/2)
		fs.singRow = make([]int32, m, m+m/2)
		fs.singInv = make([]float64, m, m+m/2)
	}
	fs.rowCore = fs.rowCore[:m]
	fs.singRow = fs.singRow[:m]
	fs.singInv = fs.singInv[:m]
}
