package lp

// Kernel selects the simplex engine backing a solve.
type Kernel int

// Kernels.
const (
	// KernelAuto routes by problem size: the sparse revised-simplex
	// kernel once the implied dense tableau would exceed
	// sparseAutoCells cells, the dense tableau otherwise. Small
	// problems stay on the dense kernel, whose per-pivot constant is
	// lower and whose behaviour the rest of the stack was tuned on.
	KernelAuto Kernel = iota
	// KernelDense forces the dense-tableau two-phase simplex.
	KernelDense
	// KernelSparse forces the sparse revised simplex (CSC storage,
	// eta-file basis updates, presolve). Numerical breakdown inside
	// the sparse kernel still falls back to the dense kernel, so the
	// answer contract is identical.
	KernelSparse
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelSparse:
		return "sparse"
	}
	return "unknown"
}

// sparseAutoCells is the dense-tableau cell count (rows × columns,
// logicals included) above which KernelAuto routes to the sparse
// kernel. Below it a dense pivot is a handful of cache lines and the
// revised method's FTRAN/BTRAN overhead is not worth paying.
const sparseAutoCells = 1 << 15

func resolveKernel(k Kernel, p *Problem) Kernel {
	return kernelFor(k, len(p.Rows), p.NumVars)
}

// kernelFor is resolveKernel for a problem of rows × vars.
func kernelFor(k Kernel, rows, vars int) Kernel {
	if k != KernelAuto {
		return k
	}
	m := int64(rows)
	cells := (m + 1) * (int64(vars) + 2*m + 1)
	if cells >= sparseAutoCells {
		return KernelSparse
	}
	return KernelDense
}

// layoutInfo describes the dense-tableau column layout implied by a
// row set: structural columns first, then per row in row order a slack
// (LE), surplus+artificial (GE), or artificial (EQ) — the invariant
// Workspace.build establishes. Both kernels derive it so a sparse
// solve can capture (and load) bases in the dense layout, keeping
// warm-start handles interchangeable across kernels.
type layoutInfo struct {
	n     int    // total columns
	sig   uint64 // layoutSig over the rows' normalized senses
	owner []int  // column -> owning row (-1 for structural columns)
	slack []int  // per row: the slack/surplus/artificial column used for dual reads
}

// sigSeed starts a layout signature.
const sigSeed uint64 = 14695981039346656037

// layoutSig folds one row's normalized sense into a layout signature
// (FNV-1a). The normalized senses in row order fix the column layout,
// so two row sets share a layout exactly when their signatures agree
// (barring a 64-bit hash collision). Bases carry the signature of the
// layout they were captured under, and a warm start checks it.
func layoutSig(sig uint64, s Sense) uint64 {
	return (sig ^ uint64(s+1)) * 1099511628211
}

// prefixLayout computes the layout of p's rows after the first nStruc
// structural columns (fewer than p.NumVars for a basis captured before
// columns were appended). It must mirror the column assignment in
// Workspace.build exactly; TestPrefixLayoutMatchesBuild pins the two
// together.
func prefixLayout(p *Problem, nStruc int) layoutInfo {
	rows := p.Rows
	n := nStruc
	for _, r := range rows {
		if normSense(r.Sense, effRHS(p, r)) == GE {
			n += 2
		} else {
			n++
		}
	}
	li := layoutInfo{
		n:     n,
		sig:   sigSeed,
		owner: make([]int, n),
		slack: make([]int, len(rows)),
	}
	for j := 0; j < nStruc; j++ {
		li.owner[j] = -1
	}
	col := nStruc
	for i, r := range rows {
		s := normSense(r.Sense, effRHS(p, r))
		li.sig = layoutSig(li.sig, s)
		switch s {
		case LE:
			li.slack[i] = col
			li.owner[col] = i
			col++
		case GE:
			li.slack[i] = col
			li.owner[col] = i
			col++
			li.owner[col] = i // artificial
			col++
		case EQ:
			li.slack[i] = col
			li.owner[col] = i // artificial
			col++
		}
	}
	return li
}
