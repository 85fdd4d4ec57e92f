package lp

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

// prefixLayout computes the tableau column layout of p's rows after the
// first nStruc structural columns (fewer than p.NumVars for a basis
// captured before columns were appended): the total column count n and
// the layout signature. Columns are structural first, then per row in
// row order a slack (LE), surplus+artificial (GE), or artificial (EQ).
// It must mirror the column assignment in Workspace.build exactly;
// TestPrefixLayoutMatchesBuild pins the two together.
func prefixLayout(p *Problem, nStruc int) (n int, sig uint64) {
	n, sig = nStruc, sigSeed
	for _, r := range p.Rows {
		s := normSense(r.Sense, effRHS(p, r))
		sig = layoutSig(sig, s)
		if s == GE {
			n += 2
		} else {
			n++
		}
	}
	return n, sig
}
