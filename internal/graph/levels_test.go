package graph

// coarseLevels returns the coarse hypergraphs the production bisector
// builds below h for (hiCap, seed), coarsest last, from a fresh scratch.
func coarseLevels(h *Hypergraph, hiCap int64, seed uint64) []*Hypergraph {
	s := new(scratch)
	return s.levels[:s.coarsen(h, hiCap, seed)]
}
