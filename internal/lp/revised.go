package lp

import (
	"context"
	"math"
)

// Revised is a resolvable revised-simplex solver handle for the cutting-plane
// pattern: solve a problem once, then repeatedly append constraint rows and
// re-solve warm. Constraints may be added through the handle (AddConstraint,
// AddSparseConstraint) or directly on the underlying Problem — both are
// picked up at the next Solve, and the Problem always holds the complete row
// set, so a cold dense Solve of the same Problem is an exact differential
// oracle for the warm path. Where the dense tableau rewrites every row and
// column on each pivot (O(m·(n+m)) per pivot), Revised keeps the constraint
// matrix in sparse column form and maintains only a factorization
// of the basis: a dense LU of the small structural core (see factor.go) plus
// a product-form eta file of recent pivots. Each pivot then costs two
// factorization solves (FTRAN/BTRAN, O(k²) dense work for a core of k
// structural basics) plus one sweep over the sparse columns for pricing —
// on the cutting-plane masters of package steady, where most basic columns
// are slacks, this is the difference between sweeps capped near n=96 and
// sweeps that complete at n=1024.
//
// The factorization is refactorized from scratch on two triggers: an
// update-count trigger (etaLimit pivots since the last refactorization) and
// a growth trigger (a transformed pivot element too small relative to its
// column, the classic symptom of a stale eta chain). Refactorization also
// recomputes the basic values x_B = B⁻¹b directly from the problem data,
// so roundoff cannot accumulate across pivots; every Optimal verdict is
// additionally certified against the original columns (‖b − B·x_B‖ bounded)
// before it is returned.
//
// Appended rows are stored sparsely and priced into the warm basis as LE rows
// with a basic slack (GE rows negated, EQ rows split into a signed pair):
// rows that do not cut off the old optimum cost zero pivots, and rows that do
// — cutting planes — leave the old basis dual feasible, so the re-solve skips
// phase 1 and runs dual simplex from the previous optimal basis, on
// deterministically perturbed costs (see perturb) so that a dual-degenerate
// master — a cut master prices most unused links to a reduced cost of zero —
// takes steps of positive length instead of stalling; the perturbation is
// dropped before the primal polish, so the optimum and the duals returned are
// those of the problem as given. A warm attempt that still fails (budget,
// numerical trouble) costs one cold revised solve and the next solve tries
// warm again; a cold revised solve that fails numerically falls back to the
// dense tableau (SolveContext) — the dense solver remains both the
// differential oracle and the fallback of last resort. All scratch vectors
// and the eta file are arena-backed and reused across solves, so steady-state
// warm pivoting does not allocate.
type Revised struct {
	p    *Problem
	opts *Options
	tol  float64

	// Normalized matrix state. Structural columns are stored sparsely;
	// logical columns (slack/surplus/artificial) are implicit signed unit
	// vectors described by logRow/logSign/logArt. Cold solves rebuild this
	// state from the Problem (flipping negative-RHS rows exactly as
	// newTableau does); warm solves extend it row by row without flipping.
	m       int // rows
	nStruct int // structural columns (decision variables)
	cols    []revCol
	rhs     []float64
	rowSign []float64 // ±1: the row as stored is rowSign times the constraint as given
	rowCons []int32   // matrix row -> index of the problem constraint it came from
	logRow  []int32
	logSign []float64
	logArt  []bool
	artIDs  []int // column ids of artificial columns
	numArt  int

	basis  []int   // position -> basic column id
	posOf  []int32 // column id -> position, -1 when nonbasic
	banned []bool
	xB     []float64 // basic values per position
	cB     []float64 // basic costs per position under the current phase

	fs     factorState
	etas   etaFile
	phase1 bool // current costing (phase 1 prices artificials at -1)

	// Arena-backed scratch, grown on demand and reused across solves.
	colScratch []float64 // dense entering column (rows)
	wScratch   []float64 // FTRAN result (positions)
	accScratch []float64 // FTRAN singleton accumulator (rows)
	yScratch   []float64 // BTRAN result (rows)
	rhoScratch []float64 // BTRAN unit-row result (rows)
	btScratch  []float64 // BTRAN eta workspace (positions)
	unitPos    []float64 // unit position vector for btranUnit
	coreRHS    []float64 // core solve workspace (k)
	resScratch []float64 // certification residual (rows)
	d          []float64 // reduced costs per column
	alpha      []float64 // dual pivot row per column
	shift      []float64 // dual-phase cost perturbation per column (see perturb)
	shifted    bool      // colCost subtracts shift: true only inside dualIterate

	built    bool // factorized state matches the problem and may warm-start
	status   Status
	synced   int       // prefix of p.constraints reflected in the matrix
	dual     []float64 // duals of the last Optimal solve, nil until known (see Duals)
	objSnap  []float64
	lastWarm bool

	stats  SolveStats
	fstats FactorStats
}

// revCol is one sparse structural column, entries in ascending row order.
type revCol struct {
	rows []int32
	vals []float64
}

func (c *revCol) add(row int, v float64) {
	c.rows = append(c.rows, int32(row))
	c.vals = append(c.vals, v)
}

// SolveStats counts the solves of a Revised handle and their simplex pivots,
// split by how each solve started.
type SolveStats struct {
	// WarmSolves and WarmPivots count the Solve calls (and their simplex
	// pivots) that re-optimized from the previous optimal basis.
	WarmSolves, WarmPivots int
	// ColdSolves and ColdPivots count the Solve calls that solved from the
	// slack basis: the first solve and any fallback re-solve.
	ColdSolves, ColdPivots int
}

// FactorStats counts the factorization work done by a Revised handle.
type FactorStats struct {
	// Refactors is the number of basis refactorizations (from both the
	// update-count and the growth trigger, plus one per solve and one per
	// warm row-append batch).
	Refactors int
	// MaxEtaChain is the longest eta chain observed between
	// refactorizations; it is bounded by etaLimit.
	MaxEtaChain int
	// DenseFallbacks counts the solves that fell back to the dense tableau
	// after the revised path failed numerically.
	DenseFallbacks int
}

// statusNumerical is the internal verdict of an iteration that hit numerical
// trouble the factorization could not recover from (singular refactorized
// basis, unstable pivot after a fresh refactorization). It never escapes the
// handle: SolveContext converts it into a cold re-solve or a dense fallback.
const statusNumerical Status = -1

// NewRevised returns a revised-simplex handle over the problem. The problem
// may already contain constraints; nothing is solved until Solve is called.
// The dense Solve remains an exact differential oracle: both report objectives
// within standard simplex tolerances of each other on any feasible bounded
// problem.
func NewRevised(p *Problem, opts *Options) *Revised {
	tol := 1e-9
	if opts != nil && opts.Tolerance > 0 {
		tol = opts.Tolerance
	}
	return &Revised{p: p, opts: opts, tol: tol, synced: -1}
}

// Stats returns the cumulative warm/cold solve and pivot counters.
func (rv *Revised) Stats() SolveStats { return rv.stats }

// FactorStats returns the cumulative factorization counters.
func (rv *Revised) FactorStats() FactorStats { return rv.fstats }

// LastWarm reports whether the most recent Solve reused the previous basis.
func (rv *Revised) LastWarm() bool { return rv.lastWarm }

// AddConstraint appends a dense constraint row (see Problem.AddConstraint).
func (rv *Revised) AddConstraint(coeffs []float64, rel Relation, rhs float64) {
	rv.p.AddConstraint(coeffs, rel, rhs)
}

// AddSparseConstraint appends a sparse constraint row (see
// Problem.AddSparseConstraint).
func (rv *Revised) AddSparseConstraint(terms []Term, rel Relation, rhs float64) {
	rv.p.AddSparseConstraint(terms, rel, rhs)
}

// Solve re-optimizes the problem over all constraints added so far; see
// SolveContext.
func (rv *Revised) Solve() (*Solution, error) {
	return rv.SolveContext(context.Background())
}

// SolveContext solves with cooperative cancellation: the first call (and any
// call after a non-Optimal solve) solves cold from the slack basis; later
// calls append the new rows and re-optimize warm with dual simplex from the
// previous optimal basis. A warm attempt that does not reach optimality falls
// back to one cold solve: the returned Solution then reflects the cold result
// and its Iterations include the pivots of both attempts. A changed objective
// does not force a cold re-solve on its own — every pivot is repriced from
// the basis factorization, so the previous basis stays warm under primal
// simplex. A canceled solve leaves the handle consistent but cold: the
// mid-pivot factorization is discarded and never seeds a warm start, and a
// canceled warm attempt returns the wrapped ErrCanceled directly instead of
// spending a cold solve on a deadline that has already expired.
func (rv *Revised) SolveContext(ctx context.Context) (*Solution, error) {
	if rv.p == nil || rv.p.numVars == 0 {
		return nil, ErrBadProblem
	}
	rv.dual = nil
	var warmSpent int
	if rv.built && rv.status == Optimal {
		sol := rv.warmSolve(ctx)
		rv.stats.WarmSolves++
		rv.stats.WarmPivots += sol.Iterations
		if sol.Status == Optimal {
			rv.lastWarm = true
			return sol, nil
		}
		if sol.Status == Canceled {
			rv.invalidate()
			return nil, canceledErr(ctx)
		}
		// The warm attempt stalled or hit numerical trouble: discard the
		// factorized state and re-solve cold.
		warmSpent = sol.Iterations
		rv.invalidate()
	}
	sol, err := rv.coldSolve(ctx)
	if err != nil {
		rv.invalidate()
		return nil, err
	}
	if sol == nil {
		// The revised path failed numerically: fall back to the dense
		// tableau, the oracle of last resort.
		rv.fstats.DenseFallbacks++
		rv.invalidate()
		sol, err = SolveContext(ctx, rv.p, rv.opts)
		if err != nil {
			return nil, err
		}
		rv.status = sol.Status
	}
	rv.stats.ColdSolves++
	rv.stats.ColdPivots += sol.Iterations
	rv.lastWarm = false
	rv.dual = sol.Dual
	sol.Iterations += warmSpent
	return sol, nil
}

// invalidate drops the factorized state so the next solve runs cold. Slab
// capacity is kept.
func (rv *Revised) invalidate() {
	rv.built = false
	rv.fs.valid = false
}

func (rv *Revised) numCols() int { return rv.nStruct + len(rv.logRow) }

// etaTrigger is the update-count refactorization trigger: the eta-file
// length at which the factorization is rebuilt (Options.RefactorInterval,
// or etaLimit by default). FactorStats.MaxEtaChain is bounded by it.
func (rv *Revised) etaTrigger() int {
	if rv.opts != nil && rv.opts.RefactorInterval > 0 {
		return rv.opts.RefactorInterval
	}
	return etaLimit
}

func (rv *Revised) maxIterations() int {
	if rv.opts != nil && rv.opts.MaxIterations > 0 {
		return rv.opts.MaxIterations
	}
	return 50 * (rv.m + rv.numCols())
}

// ---- matrix construction ----

// addLogical creates a new logical column (±e_row) and returns its id.
func (rv *Revised) addLogical(row int, sign float64, art bool) int {
	id := rv.nStruct + len(rv.logRow)
	rv.logRow = append(rv.logRow, int32(row))
	rv.logSign = append(rv.logSign, sign)
	rv.logArt = append(rv.logArt, art)
	if art {
		rv.artIDs = append(rv.artIDs, id)
	}
	return id
}

// build constructs the normalized matrix and the initial logical basis from
// the problem, exactly mirroring newTableau: rows with negative right-hand
// sides are flipped, LE rows get a basic slack, GE rows a surplus plus a
// basic artificial, EQ rows a basic artificial.
func (rv *Revised) build() {
	n := rv.p.numVars
	rv.nStruct = n
	if cap(rv.cols) < n {
		rv.cols = make([]revCol, n)
	}
	rv.cols = rv.cols[:n]
	for j := range rv.cols {
		rv.cols[j].rows = rv.cols[j].rows[:0]
		rv.cols[j].vals = rv.cols[j].vals[:0]
	}
	m := len(rv.p.constraints)
	rv.m = m
	rv.rhs = append(rv.rhs[:0], make([]float64, m)...)
	rv.rowSign = append(rv.rowSign[:0], make([]float64, m)...)
	rv.rowCons = append(rv.rowCons[:0], make([]int32, m)...)
	rv.logRow = rv.logRow[:0]
	rv.logSign = rv.logSign[:0]
	rv.logArt = rv.logArt[:0]
	rv.artIDs = rv.artIDs[:0]
	rv.basis = append(rv.basis[:0], make([]int, m)...)

	for i, c := range rv.p.constraints {
		rel, b, sign := c.rel, c.rhs, 1.0
		if b < 0 {
			sign, b = -1, -b
			rel = flip(rel)
		}
		rv.rowSign[i] = sign
		rv.rowCons[i] = int32(i)
		rv.rhs[i] = b
		for j, v := range c.coeffs {
			if v != 0 {
				rv.cols[j].add(i, sign*v)
			}
		}
		switch rel {
		case LE:
			rv.basis[i] = rv.addLogical(i, 1, false)
		case GE:
			rv.addLogical(i, -1, false)
			rv.basis[i] = rv.addLogical(i, 1, true)
		case EQ:
			rv.basis[i] = rv.addLogical(i, 1, true)
		}
	}
	rv.numArt = len(rv.artIDs)
	rv.synced = m
	rv.finishBasis()
}

// appendRow extends the matrix with one LE row of problem constraint cons
// (negated when negate is set), its slack basic in the new position. The
// basic value is recomputed by the refactorization that must follow an append
// batch.
func (rv *Revised) appendRow(cons int, coeffs []float64, b float64, negate bool) {
	i := rv.m
	rv.m++
	sign := 1.0
	if negate {
		sign = -1
	}
	rv.rhs = append(rv.rhs, sign*b)
	rv.rowSign = append(rv.rowSign, sign)
	rv.rowCons = append(rv.rowCons, int32(cons))
	for j, v := range coeffs {
		if v != 0 {
			rv.cols[j].add(i, sign*v)
		}
	}
	slack := rv.addLogical(i, 1, false)
	rv.basis = append(rv.basis, slack)
	rv.posOf = append(rv.posOf, int32(i))
	rv.banned = append(rv.banned, false)
	rv.xB = append(rv.xB, 0)
	rv.cB = append(rv.cB, 0)
}

// finishBasis rebuilds posOf/banned/xB/cB after a cold build.
func (rv *Revised) finishBasis() {
	nc := rv.numCols()
	rv.posOf = append(rv.posOf[:0], make([]int32, nc)...)
	for j := range rv.posOf {
		rv.posOf[j] = -1
	}
	rv.banned = append(rv.banned[:0], make([]bool, nc)...)
	for i, col := range rv.basis {
		rv.posOf[col] = int32(i)
	}
	rv.xB = append(rv.xB[:0], rv.rhs...)
	rv.cB = append(rv.cB[:0], make([]float64, rv.m)...)
	rv.resetCosts()
}

// colCost returns the objective coefficient of a column under the current
// phase: the real objective for structural columns in phase 2, −1 for
// artificials in phase 1, zero otherwise — less the column's perturbation
// while a dual phase is running (see perturb), so that pricing, an entering
// column's basic cost and refactorization repricing all see the same costs.
func (rv *Revised) colCost(j int) float64 {
	var c float64
	switch {
	case j < rv.nStruct:
		if !rv.phase1 {
			c = rv.p.objective[j]
		}
	case rv.phase1 && rv.logArt[j-rv.nStruct]:
		c = -1
	}
	if rv.shifted {
		c -= rv.shift[j]
	}
	return c
}

// resetCosts recomputes the basic-cost vector under the current phase.
func (rv *Revised) resetCosts() {
	for i, col := range rv.basis {
		rv.cB[i] = rv.colCost(col)
	}
}

func (rv *Revised) objValue() float64 {
	var s float64
	for i, c := range rv.cB[:rv.m] {
		if c != 0 {
			s += c * rv.xB[i]
		}
	}
	return s
}

// ---- factorization plumbing ----

// grow returns s resized to n entries, contents unspecified. It allocates
// with headroom: a handle whose matrix gains a row per solve would otherwise
// reallocate every scratch vector on every solve.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n+n/2)
	}
	return s[:n]
}

// ensureScratch sizes the arena-backed scratch for the current matrix.
func (rv *Revised) ensureScratch() {
	m, nc := rv.m, rv.numCols()
	rv.colScratch = grow(rv.colScratch, m)
	rv.wScratch = grow(rv.wScratch, m)
	rv.accScratch = grow(rv.accScratch, m)
	rv.yScratch = grow(rv.yScratch, m)
	rv.rhoScratch = grow(rv.rhoScratch, m)
	rv.btScratch = grow(rv.btScratch, m)
	rv.unitPos = grow(rv.unitPos, m)
	rv.resScratch = grow(rv.resScratch, m)
	rv.d = grow(rv.d, nc)
	rv.alpha = grow(rv.alpha, nc)
	rv.shift = grow(rv.shift, nc)
}

// refactor rebuilds the singleton/core split and the dense core LU from the
// current basis, clears the eta file and recomputes x_B = B⁻¹b from the
// problem data. It reports false when the basis is numerically singular.
func (rv *Revised) refactor() bool {
	rv.ensureScratch()
	fs := &rv.fs
	m := rv.m
	fs.ensure(m)
	for r := 0; r < m; r++ {
		fs.rowCore[r] = -2 // uncovered
	}
	fs.corePos = fs.corePos[:0]
	fs.coreCol = fs.coreCol[:0]
	nCore := 0
	for pos, col := range rv.basis {
		if col >= rv.nStruct {
			l := col - rv.nStruct
			r := rv.logRow[l]
			if fs.rowCore[r] != -2 {
				return false // two singletons cover the same row: singular
			}
			fs.rowCore[r] = -1 // covered
			fs.singRow[pos] = r
			fs.singInv[pos] = rv.logSign[l] // sign ∈ {+1,−1}, its own inverse
		} else {
			fs.corePos = append(fs.corePos, int32(pos))
			fs.coreCol = append(fs.coreCol, int32(col))
			fs.singRow[pos] = -1
			fs.singInv[pos] = 0
			nCore++
		}
	}
	fs.coreRow = fs.coreRow[:0]
	for r := 0; r < m; r++ {
		if fs.rowCore[r] == -2 {
			fs.rowCore[r] = int32(len(fs.coreRow))
			fs.coreRow = append(fs.coreRow, int32(r))
		}
	}
	k := nCore
	if k != len(fs.coreRow) {
		return false
	}
	fs.k = k
	fs.ccp = append(fs.ccp[:0], 0)
	fs.cri = fs.cri[:0]
	fs.cvx = fs.cvx[:0]
	for _, colID := range fs.coreCol {
		col := &rv.cols[colID]
		for e, r := range col.rows {
			if t := fs.rowCore[r]; t >= 0 {
				fs.cri = append(fs.cri, t)
				fs.cvx = append(fs.cvx, col.vals[e])
			}
		}
		fs.ccp = append(fs.ccp, int32(len(fs.cri)))
	}
	if !fs.slu.factor(fs.ccp, fs.cri, fs.cvx, k) {
		return false
	}
	rv.etas.reset()
	fs.valid = true
	rv.fstats.Refactors++
	rv.coreRHS = grow(rv.coreRHS, k)

	// Recompute x_B = B⁻¹b from scratch: kills accumulated roundoff and
	// prices freshly appended rows into the basis in one step.
	copy(rv.colScratch, rv.rhs)
	rv.ftran(rv.colScratch, rv.xB[:m])
	for i, v := range rv.xB[:m] {
		if v < 0 && v > -rv.tol {
			rv.xB[i] = 0
		}
	}
	rv.resetCosts()
	return true
}

// colAt reads core column t of the factorization snapshot. The snapshot's
// column ids are pinned at refactorization time (fs.coreCol): pivots since
// then are represented by the eta file, not by the factorized B₀, so FTRAN
// and BTRAN must keep solving against the old basis columns. The column
// contents themselves are stable — appends always refactorize immediately,
// and pivots never mutate stored columns.
func (rv *Revised) colAt(t int) *revCol { return &rv.cols[rv.fs.coreCol[t]] }

// ftran solves B·w = a (a indexed by rows, w by basis positions), through the
// factorized snapshot and then the eta file. a is clobbered.
func (rv *Revised) ftran(a, w []float64) {
	fs := &rv.fs
	k := fs.k
	z := rv.coreRHS[:k]
	for t, r := range fs.coreRow {
		z[t] = a[r]
	}
	fs.slu.solve(z)
	// Subtract the core columns' contributions at singleton-covered rows.
	for t := range fs.corePos {
		zt := z[t]
		if zt == 0 {
			continue
		}
		col := rv.colAt(t)
		for e, r := range col.rows {
			if fs.rowCore[r] < 0 {
				a[r] -= zt * col.vals[e]
			}
		}
	}
	for i := range w {
		w[i] = 0
	}
	for t, pos := range fs.corePos {
		w[pos] = z[t]
	}
	for pos := 0; pos < rv.m; pos++ {
		if r := fs.singRow[pos]; r >= 0 {
			w[pos] = a[r] * fs.singInv[pos]
		}
	}
	rv.etas.applyForward(w)
}

// btran solves yᵀ·B = cᵀ (c indexed by basis positions, y by rows): the eta
// file transposed in reverse order, then the factorized snapshot.
func (rv *Revised) btran(c, y []float64) {
	fs := &rv.fs
	v := rv.btScratch[:rv.m]
	copy(v, c)
	rv.etas.applyBackward(v)
	for r := range y {
		y[r] = 0
	}
	for pos := 0; pos < rv.m; pos++ {
		if r := fs.singRow[pos]; r >= 0 {
			y[r] = v[pos] * fs.singInv[pos]
		}
	}
	k := fs.k
	z := rv.coreRHS[:k]
	for t, pos := range fs.corePos {
		s := v[pos]
		col := rv.colAt(t)
		for e, r := range col.rows {
			if fs.rowCore[r] < 0 {
				s -= y[r] * col.vals[e]
			}
		}
		z[t] = s
	}
	fs.slu.solveT(z)
	for t, r := range fs.coreRow {
		y[r] = z[t]
	}
}

// btranUnit solves ρᵀ·B = e_posᵀ: row pos of the basis inverse.
func (rv *Revised) btranUnit(pos int, rho []float64) {
	u := rv.unitPos[:rv.m]
	for i := range u {
		u[i] = 0
	}
	u[pos] = 1
	rv.btran(u, rho)
}

// colDense scatters column j into the dense row-indexed scratch a.
func (rv *Revised) colDense(j int, a []float64) {
	for i := range a {
		a[i] = 0
	}
	if j < rv.nStruct {
		col := &rv.cols[j]
		for e, r := range col.rows {
			a[r] = col.vals[e]
		}
		return
	}
	l := j - rv.nStruct
	a[rv.logRow[l]] = rv.logSign[l]
}

// priceAll computes the reduced cost of every column against the dual vector
// y; basic columns price to exactly zero.
func (rv *Revised) priceAll(y []float64) {
	d := rv.d[:rv.numCols()]
	for j := 0; j < rv.nStruct; j++ {
		if rv.posOf[j] >= 0 {
			d[j] = 0
			continue
		}
		s := rv.colCost(j)
		col := &rv.cols[j]
		for e, r := range col.rows {
			s -= y[r] * col.vals[e]
		}
		d[j] = s
	}
	for l := range rv.logRow {
		j := rv.nStruct + l
		if rv.posOf[j] >= 0 {
			d[j] = 0
			continue
		}
		d[j] = rv.colCost(j) - y[rv.logRow[l]]*rv.logSign[l]
	}
}

// relTol mirrors tableau.relTol: comparison tolerance relative to |ref|.
func (rv *Revised) relTol(ref float64) float64 {
	if ref < 0 {
		ref = -ref
	}
	if math.IsInf(ref, 1) {
		return rv.tol
	}
	return rv.tol * (1 + ref)
}

// ---- pivoting ----

// pivot makes column enter basic in position leave, with w = B⁻¹·a_enter the
// transformed entering column. The update is x_B ← x_B − θ·w with
// θ = x_B[leave]/w[leave], plus one eta appended to the file.
func (rv *Revised) pivot(leave, enter int, w []float64) {
	theta := rv.xB[leave] / w[leave]
	xB := rv.xB[:rv.m]
	if theta != 0 {
		for i, wi := range w {
			if wi != 0 {
				xB[i] -= theta * wi
			}
		}
	}
	xB[leave] = theta
	for i, v := range xB {
		if v < 0 && v > -rv.tol {
			xB[i] = 0
		}
	}
	old := rv.basis[leave]
	rv.posOf[old] = -1
	rv.basis[leave] = enter
	rv.posOf[enter] = int32(leave)
	rv.cB[leave] = rv.colCost(enter)
	rv.etas.push(w, leave)
	if c := rv.etas.count(); c > rv.fstats.MaxEtaChain {
		rv.fstats.MaxEtaChain = c
	}
}

// stable reports whether the transformed pivot element is large enough
// relative to its column to commit; a failure signals a stale eta chain.
func stable(w []float64, leave int) bool {
	maxAbs := 0.0
	for _, v := range w {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	return math.Abs(w[leave]) > pivotGrowthTol*(1+maxAbs)
}

// chooseEntering mirrors tableau.chooseEntering: most positive reduced cost
// (Dantzig) or lowest-index positive (Bland), skipping banned columns.
func (rv *Revised) chooseEntering(bland bool) int {
	d := rv.d[:rv.numCols()]
	best := -1
	bestVal := rv.tol
	for j, dj := range d {
		if rv.banned[j] {
			continue
		}
		if dj > bestVal {
			if bland {
				return j
			}
			best = j
			bestVal = dj
		}
	}
	return best
}

// chooseLeaving mirrors tableau.chooseLeaving: minimum-ratio test over the
// transformed column with relative-tolerance ties broken by the smallest
// basic-column id.
func (rv *Revised) chooseLeaving(w []float64) int {
	best := -1
	bestRatio := 0.0
	for i := 0; i < rv.m; i++ {
		coef := w[i]
		if coef <= rv.tol {
			continue
		}
		ratio := rv.xB[i] / coef
		if best < 0 {
			best, bestRatio = i, ratio
			continue
		}
		eps := rv.relTol(bestRatio)
		switch {
		case ratio < bestRatio-eps:
			best, bestRatio = i, ratio
		case ratio <= bestRatio+eps && rv.basis[i] < rv.basis[best]:
			best = i
			if ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	return best
}

// iterate runs primal revised-simplex pivots until optimality, unboundedness,
// the iteration limit or numerical failure, with the same Dantzig→Bland
// anti-cycling policy as tableau.iterate.
func (rv *Revised) iterate(ctx context.Context, maxIter int, counter *int, detectUnbounded bool) Status {
	stallLimit := 4 * (rv.m + 16)
	lastObjective := rv.objValue()
	stalled := 0
	useBland := false
	for {
		if *counter%cancelCheckInterval == 0 && pollCtx(ctx) {
			return Canceled
		}
		if !useBland {
			if obj := rv.objValue(); obj > lastObjective+rv.tol {
				lastObjective = obj
				stalled = 0
			} else {
				stalled++
				if stalled > stallLimit {
					useBland = true
				}
			}
		}
		y := rv.yScratch[:rv.m]
		rv.btran(rv.cB[:rv.m], y)
		rv.priceAll(y)
		enter := rv.chooseEntering(useBland)
		if enter < 0 {
			return Optimal
		}
		if *counter >= maxIter {
			return IterationLimit
		}
		w := rv.wScratch[:rv.m]
		rv.colDense(enter, rv.colScratch[:rv.m])
		rv.ftran(rv.colScratch[:rv.m], w)
		leave := rv.chooseLeaving(w)
		if leave < 0 {
			if detectUnbounded {
				return Unbounded
			}
			// Phase 1 is bounded above by zero; a missing ratio is a
			// numerical artifact. Treat as optimal, like the tableau.
			return Optimal
		}
		if !stable(w, leave) {
			// Growth trigger: refactorize and recompute the column through
			// the fresh factorization before committing.
			if rv.etas.count() == 0 || !rv.refactor() {
				return statusNumerical
			}
			rv.colDense(enter, rv.colScratch[:rv.m])
			rv.ftran(rv.colScratch[:rv.m], w)
			leave = rv.chooseLeaving(w)
			if leave < 0 {
				if detectUnbounded {
					return Unbounded
				}
				return Optimal
			}
			if !stable(w, leave) {
				return statusNumerical
			}
		}
		rv.pivot(leave, enter, w)
		*counter++
		if rv.etas.count() >= rv.etaTrigger() && !rv.refactor() {
			return statusNumerical
		}
	}
}

// dualShift is δ of the dual phase's cost perturbation (see perturb). It is a
// constant, not an option: on the benchmark's cutting-plane masters the solve
// cost is flat for δ anywhere from 1e-8 to 1e-3, and of the values that also
// hold on the hardest masters tried (1e-6 and up) this is the smallest
// (docs/ARCHITECTURE.md, "Degeneracy").
const dualShift = 1e-6

// perturb starts a dual phase: with the true reduced costs in rv.d, it lowers
// the cost of every nonbasic, non-banned column j by its own
// δ_j ∈ [dualShift, 2·dualShift), a fixed integer hash of the column id. A cut
// master prices most unused links to a reduced cost of exactly zero, so the
// unperturbed dual ratio test ties at zero and the dual simplex takes
// zero-length steps until its budget runs out; with every reduced cost
// strictly negative and no two alike, every step has positive length and the
// dual objective falls strictly. Basic columns keep their cost, so c_B and the
// basis are untouched; the shift lives in colCost until unperturb.
func (rv *Revised) perturb() {
	d := rv.d[:rv.numCols()]
	for j := range d {
		if rv.banned[j] || rv.posOf[j] >= 0 {
			rv.shift[j] = 0
			continue
		}
		// Fibonacci hashing: the top 52 bits of j·2⁶⁴/φ as a fraction in [0,1).
		frac := float64(uint64(j+1)*0x9E3779B97F4A7C15>>12) / (1 << 52)
		rv.shift[j] = dualShift * (1 + frac)
		d[j] -= rv.shift[j]
	}
	rv.shifted = true
}

// unperturb ends the dual phase: costs are the problem's own again, so the
// primal polish, certify and Duals that follow see the true LP.
func (rv *Revised) unperturb() {
	rv.shifted = false
	rv.resetCosts()
}

// dualIterate restores primal feasibility with dual simplex pivots from a
// dual-feasible basis — the re-optimization engine of the warm re-solve, where
// a violated appended row shows as a negative basic slack: leaving row by most
// negative basic value (Bland fallback on stall), entering column by the
// smallest dual ratio with largest-magnitude-pivot tie-breaking. Reduced
// costs are maintained incrementally from the pivot row and recomputed from
// the factorization at every refactorization. The whole phase runs on
// perturbed costs (perturb); whatever its verdict, the perturbation is gone
// when it returns, and the caller's primal polish removes any dual
// infeasibility the true costs have at the basis it ends on.
func (rv *Revised) dualIterate(ctx context.Context, maxIter int, counter *int) Status {
	stallLimit := 4 * (rv.m + 16)
	stalled := 0
	useBland := false

	price := func() {
		y := rv.yScratch[:rv.m]
		rv.btran(rv.cB[:rv.m], y)
		rv.priceAll(y)
	}
	price()
	rv.perturb()
	defer rv.unperturb()
	nc := rv.numCols()
	for {
		if *counter%cancelCheckInterval == 0 && pollCtx(ctx) {
			return Canceled
		}
		leave := -1
		if useBland {
			for i := 0; i < rv.m; i++ {
				if rv.xB[i] < -rv.tol && (leave < 0 || rv.basis[i] < rv.basis[leave]) {
					leave = i
				}
			}
		} else {
			worst := -rv.tol
			for i := 0; i < rv.m; i++ {
				if rv.xB[i] < worst {
					worst = rv.xB[i]
					leave = i
				}
			}
		}
		if leave < 0 {
			return Optimal
		}
		if *counter >= maxIter {
			return IterationLimit
		}
		rho := rv.rhoScratch[:rv.m]
		rv.btranUnit(leave, rho)
		// Pivot row: α_j = ρ·a_j over the nonbasic, non-banned columns.
		alpha := rv.alpha[:nc]
		d := rv.d[:nc]
		enter := -1
		bestRatio := 0.0
		for j := 0; j < nc; j++ {
			if rv.banned[j] || rv.posOf[j] >= 0 {
				alpha[j] = 0
				continue
			}
			var a float64
			if j < rv.nStruct {
				col := &rv.cols[j]
				for e, r := range col.rows {
					a += rho[r] * col.vals[e]
				}
			} else {
				l := j - rv.nStruct
				a = rho[rv.logRow[l]] * rv.logSign[l]
			}
			alpha[j] = a
			if a >= -rv.tol {
				continue
			}
			ratio := d[j] / a
			eps := rv.relTol(bestRatio)
			switch {
			case enter < 0 || ratio < bestRatio-eps:
				enter, bestRatio = j, ratio
			case !useBland && ratio <= bestRatio+eps && a < alpha[enter]:
				enter = j
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}
		w := rv.wScratch[:rv.m]
		rv.colDense(enter, rv.colScratch[:rv.m])
		rv.ftran(rv.colScratch[:rv.m], w)
		// w[leave] and α_enter are the same number computed through two
		// different solves; disagreement (or a sign flip) means the eta
		// chain has gone stale — refactorize and retry the iteration.
		if w[leave] >= -rv.tol || math.Abs(w[leave]-alpha[enter]) > 1e-7*(1+math.Abs(alpha[enter])) {
			if rv.etas.count() == 0 || !rv.refactor() {
				return statusNumerical
			}
			price()
			continue
		}
		rate := d[enter] / alpha[enter]
		// The dual objective moves by step length × x_B[leave] < 0; unlike the
		// primal infeasibility it is monotone, so a pivot that does not lower
		// it is a stalled one.
		progress := rate*rv.xB[leave] < 0
		old := rv.basis[leave]
		rv.pivot(leave, enter, w)
		*counter++
		// Reduced-cost update from the pivot row: d_j ← d_j − rate·α_j; the
		// leaving column re-enters the nonbasic set with α = 1.
		if rate != 0 {
			for j := 0; j < nc; j++ {
				if a := alpha[j]; a != 0 {
					d[j] -= rate * a
				}
			}
		}
		d[old] = -rate
		d[enter] = 0
		if rv.etas.count() >= rv.etaTrigger() {
			if !rv.refactor() {
				return statusNumerical
			}
			price()
		}
		if progress {
			stalled = 0
		} else if stalled++; stalled > stallLimit {
			useBland = true
		}
	}
}

// ---- solve drivers ----

// banArtificials bans artificial columns from entering (phase 2) and pivots
// still-basic artificials out where a non-banned column with a usable
// transformed coefficient exists; redundant rows keep their artificial basic
// at level zero, exactly like tableau.forbidArtificials.
func (rv *Revised) banArtificials() bool {
	for _, j := range rv.artIDs {
		rv.banned[j] = true
	}
	nc := rv.numCols()
	for pos := 0; pos < rv.m; pos++ {
		col := rv.basis[pos]
		if col < rv.nStruct || !rv.logArt[col-rv.nStruct] {
			continue
		}
		rho := rv.rhoScratch[:rv.m]
		rv.btranUnit(pos, rho)
		for j := 0; j < nc; j++ {
			if rv.banned[j] || rv.posOf[j] >= 0 {
				continue
			}
			var a float64
			if j < rv.nStruct {
				c := &rv.cols[j]
				for e, r := range c.rows {
					a += rho[r] * c.vals[e]
				}
			} else {
				l := j - rv.nStruct
				a = rho[rv.logRow[l]] * rv.logSign[l]
			}
			if math.Abs(a) <= rv.tol {
				continue
			}
			w := rv.wScratch[:rv.m]
			rv.colDense(j, rv.colScratch[:rv.m])
			rv.ftran(rv.colScratch[:rv.m], w)
			if math.Abs(w[pos]) <= rv.tol || !stable(w, pos) {
				continue
			}
			rv.pivot(pos, j, w)
			if rv.etas.count() >= rv.etaTrigger() && !rv.refactor() {
				return false
			}
			break
		}
	}
	return true
}

// certify verifies the Optimal verdict against the original column data:
// the residual ‖b − B·x_B‖∞ must stay within tolerance of the row scale.
// A stale eta chain gets one refactorization (which recomputes x_B) before
// the verdict is rejected.
func (rv *Revised) certify() bool {
	for attempt := 0; ; attempt++ {
		res := rv.resScratch[:rv.m]
		copy(res, rv.rhs)
		scale := 1.0
		for _, b := range rv.rhs {
			if b > scale {
				scale = b
			} else if -b > scale {
				scale = -b
			}
		}
		for pos := 0; pos < rv.m; pos++ {
			v := rv.xB[pos]
			if v == 0 {
				continue
			}
			col := rv.basis[pos]
			if col < rv.nStruct {
				c := &rv.cols[col]
				for e, r := range c.rows {
					res[r] -= v * c.vals[e]
				}
			} else {
				l := col - rv.nStruct
				res[rv.logRow[l]] -= v * rv.logSign[l]
			}
		}
		worst := 0.0
		for _, r := range res {
			if r < 0 {
				r = -r
			}
			if r > worst {
				worst = r
			}
		}
		if worst <= 1e-7*scale {
			return true
		}
		if attempt > 0 || rv.etas.count() == 0 || !rv.refactor() {
			return false
		}
	}
}

// extract writes the structural variable values into x.
func (rv *Revised) extract(x []float64) {
	for j := range x {
		x[j] = 0
	}
	for pos, col := range rv.basis {
		if col < rv.nStruct {
			v := rv.xB[pos]
			if v < 0 && v > -rv.tol {
				v = 0
			}
			x[col] = v
		}
	}
}

// duals returns the simplex multipliers of the optimal basis with respect to
// the constraints as given: every stored row is a signed copy of one
// constraint (cold builds flip negative right-hand sides, warm appends negate
// GE rows and split EQ rows into a signed pair), so a constraint's dual is the
// signed sum over its rows.
func (rv *Revised) duals() []float64 {
	y := rv.yScratch[:rv.m]
	rv.btran(rv.cB[:rv.m], y)
	out := make([]float64, rv.synced)
	for i := 0; i < rv.m; i++ {
		out[rv.rowCons[i]] += y[i] * rv.rowSign[i]
	}
	return out
}

// Duals returns the dual values of the most recent Optimal solve, one per
// constraint in the order they were added, under Solution.Dual's sign
// convention; nil when that solve did not end Optimal. A cold solve has them
// already (Solution.Dual); after a warm re-solve they are computed here, on
// first request, from the basis the solve left behind — one BTRAN through
// scratch the solver does not carry across solves, so asking changes nothing
// about the next warm start and not asking costs nothing. The slice is shared
// with the handle and with Solution.Dual: read it, do not write it. Entries
// carry round-off of either sign: a dual that is 0 in exact arithmetic may
// come back as ±1e-15, even against the sign convention.
func (rv *Revised) Duals() []float64 {
	if rv.dual == nil && rv.built && rv.status == Optimal {
		rv.dual = rv.duals()
	}
	return rv.dual
}

// coldSolve runs the two-phase revised simplex from the slack/artificial
// basis. It returns (nil, nil) on numerical failure, signalling SolveContext
// to fall back to the dense tableau.
func (rv *Revised) coldSolve(ctx context.Context) (*Solution, error) {
	if len(rv.p.constraints) == 0 {
		// No rows: decided without a basis, by the dense solver's rule.
		sol, err := SolveContext(ctx, rv.p, rv.opts)
		rv.invalidate()
		if err == nil {
			rv.status = sol.Status
		}
		return sol, err
	}
	rv.phase1 = false
	rv.build()
	rv.phase1 = rv.numArt > 0
	rv.resetCosts()
	if !rv.refactor() {
		return nil, nil
	}
	maxIter := rv.maxIterations()
	sol := &Solution{X: make([]float64, rv.p.numVars)}
	counter := 0
	if rv.numArt > 0 {
		sol.Phase = 1
		st := rv.iterate(ctx, maxIter, &counter, false)
		sol.Iterations = counter
		switch {
		case st == Canceled:
			return nil, canceledErr(ctx)
		case st == statusNumerical:
			return nil, nil
		case st == IterationLimit:
			sol.Status = IterationLimit
			rv.status = IterationLimit
			return sol, nil
		}
		if rv.objValue() < -1e-7 {
			sol.Status = Infeasible
			rv.status = Infeasible
			return sol, nil
		}
		if !rv.banArtificials() {
			return nil, nil
		}
	}
	sol.Phase = 2
	rv.phase1 = false
	rv.resetCosts()
	st := rv.iterate(ctx, maxIter, &counter, true)
	sol.Iterations = counter
	switch {
	case st == Canceled:
		return nil, canceledErr(ctx)
	case st == statusNumerical:
		return nil, nil
	}
	sol.Status = st
	rv.status = st
	if st == Unbounded {
		return sol, nil
	}
	if st == Optimal && !rv.certify() {
		return nil, nil
	}
	rv.extract(sol.X)
	sol.Objective = dot(rv.p.objective, sol.X)
	sol.Feasible = true
	if st == Optimal {
		sol.Dual = rv.duals()
		rv.built = true
		rv.objSnap = append(rv.objSnap[:0], rv.p.objective...)
	}
	return sol, nil
}

// objectiveUnchanged reports whether the objective still matches the
// snapshot of the last optimal solve.
func (rv *Revised) objectiveUnchanged() bool {
	if len(rv.objSnap) != len(rv.p.objective) {
		return false
	}
	for i, v := range rv.p.objective {
		if rv.objSnap[i] != v {
			return false
		}
	}
	return true
}

// warmSolve extends the matrix with the not-yet-synced rows, refactorizes
// (the appended slacks join the basis as singletons, and the refactorization
// prices the new rows into x_B), then re-optimizes: dual simplex to restore
// primal feasibility, primal simplex to polish. A changed objective alone
// skips the dual phase — the previous basis is still primal feasible, and
// the revised form reprices it for free.
func (rv *Revised) warmSolve(ctx context.Context) *Solution {
	sol := &Solution{X: make([]float64, rv.p.numVars), Phase: 2}
	objChanged := !rv.objectiveUnchanged()
	appended := 0
	for k, c := range rv.p.constraints[rv.synced:] {
		cons := rv.synced + k
		switch c.rel {
		case LE:
			rv.appendRow(cons, c.coeffs, c.rhs, false)
			appended++
		case GE:
			rv.appendRow(cons, c.coeffs, c.rhs, true)
			appended++
		case EQ:
			rv.appendRow(cons, c.coeffs, c.rhs, false)
			rv.appendRow(cons, c.coeffs, c.rhs, true)
			appended += 2
		}
	}
	rv.synced = len(rv.p.constraints)
	rv.phase1 = false
	if !rv.refactor() {
		sol.Status = IterationLimit // treated as a warm failure by SolveContext
		rv.status = IterationLimit
		return sol
	}
	maxIter := rv.maxIterations()
	if budget := 2*rv.m + 32*appended + 128; budget < maxIter && !objChanged {
		// A healthy warm re-solve needs a handful of pivots per appended
		// row; a stalling one should bail to the cold fallback early.
		maxIter = budget
	}
	counter := 0
	st := Optimal
	if appended > 0 {
		st = rv.dualIterate(ctx, maxIter, &counter)
	}
	if st == Optimal {
		st = rv.iterate(ctx, maxIter, &counter, true)
	}
	sol.Iterations = counter
	if st == statusNumerical {
		st = IterationLimit
	}
	sol.Status = st
	rv.status = st
	if st == Optimal {
		if !rv.certify() {
			sol.Status = IterationLimit
			rv.status = IterationLimit
			return sol
		}
		rv.extract(sol.X)
		sol.Objective = dot(rv.p.objective, sol.X)
		sol.Feasible = true
		rv.objSnap = append(rv.objSnap[:0], rv.p.objective...)
	}
	return sol
}
