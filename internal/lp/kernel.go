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
	n     int   // total columns
	nArt  int   // artificial columns
	owner []int // column -> owning row (-1 for structural columns)
	slack []int // per row: the slack/surplus/artificial column used for dual reads
}

// prefixLayout computes the layout of rows[:len(rows)] with nStruc
// structural columns. It must mirror the column assignment in
// Workspace.build exactly; TestPrefixLayoutMatchesBuild pins the two
// together.
func prefixLayout(rows []Constraint, nStruc int) layoutInfo {
	n := nStruc
	for _, r := range rows {
		if normSense(r) == GE {
			n += 2
		} else {
			n++
		}
	}
	li := layoutInfo{
		n:     n,
		owner: make([]int, n),
		slack: make([]int, len(rows)),
	}
	for j := 0; j < nStruc; j++ {
		li.owner[j] = -1
	}
	col := nStruc
	for i, r := range rows {
		switch normSense(r) {
		case LE:
			li.slack[i] = col
			li.owner[col] = i
			col++
		case GE:
			li.slack[i] = col
			li.owner[col] = i
			col++
			li.owner[col] = i // artificial
			li.nArt++
			col++
		case EQ:
			li.slack[i] = col
			li.owner[col] = i // artificial
			li.nArt++
			col++
		}
	}
	return li
}
