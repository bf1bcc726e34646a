package core

import (
	"context"

	"graphmatch/internal/graph"
)

// Candidate filtering for the exact decision procedures — the paper's
// closing future-work item ("we plan to improve our algorithms by
// leveraging indexing and filtering of [27, 30]").
//
// For the *decision* problems every pattern node must be mapped, which
// licenses sound degree/reachability filters that are unavailable for the
// optimisation problems (where nodes may simply be dropped):
//
//   - a pattern node with children needs an image with at least one
//     outgoing path; one with parents needs an incoming path;
//   - under 1-1 semantics the image must reach at least outdeg(v)
//     distinct nodes (each child takes a distinct image inside fwd(u)),
//     and be reachable from at least indeg(v) distinct nodes.
//
// The filters only ever remove candidates that cannot participate in any
// total (injective) p-hom mapping, so Decide/Decide11 results are
// unchanged; the search space shrinks, often drastically on hub-heavy
// patterns. TestFilterPreservesDecision pins the equivalence.

// filterStats reports how much the pre-filter removed.
type filterStats struct {
	before, after int
}

// filterCandidates prunes cands in place and reports the shrinkage.
func (in *Instance) filterCandidates(cands [][]graph.NodeID, injective bool) filterStats {
	// Fan-out and fan-in are computed lazily — the counts are only
	// needed for candidates that survive the cheap checks. When a
	// shared reachability index is already installed (a serving
	// request, or any instance that has run an approximation
	// algorithm), each count is an O(1) Index lookup of a precomputed
	// per-component aggregate; the filter deliberately does NOT
	// force an index build, because the decision procedures otherwise
	// never need one and a filtered decide on a cold instance should
	// not pay for it — the fallback probes the Reach index per
	// surviving candidate instead.
	reach := in.Reach()
	_, idx := in.cachedIndexes()
	type fan struct {
		out, in int
		done    bool
	}
	fans := make([]fan, in.G2.NumNodes())
	fanOf := func(u graph.NodeID) (int, int) {
		f := &fans[u]
		if !f.done {
			if idx != nil {
				f.out = idx.FanOut(u)
				f.in = idx.FanIn(u)
			} else {
				f.out = reach.ReachableSet(u).Count()
				cin := 0
				for w := 0; w < in.G2.NumNodes(); w++ {
					if reach.Reachable(graph.NodeID(w), u) {
						cin++
					}
				}
				f.in = cin
			}
			f.done = true
		}
		return f.out, f.in
	}

	st := filterStats{}
	for v := range cands {
		vv := graph.NodeID(v)
		outdeg := len(in.G1.Post(vv))
		indeg := len(in.G1.Prev(vv))
		st.before += len(cands[v])
		keep := cands[v][:0]
		for _, u := range cands[v] {
			fout, fin := 0, 0
			if outdeg > 0 || indeg > 0 {
				fout, fin = fanOf(u)
			}
			if outdeg > 0 && fout == 0 {
				continue
			}
			if indeg > 0 && fin == 0 {
				continue
			}
			if injective {
				if fout < outdeg {
					continue
				}
				if fin < indeg {
					continue
				}
			}
			keep = append(keep, u)
		}
		cands[v] = keep
		st.after += len(keep)
	}
	return st
}

// DecideFiltered is Decide with the candidate pre-filter enabled. The
// result always equals Decide's; only the search cost changes.
func (in *Instance) DecideFiltered() (Mapping, bool) {
	m, ok, _ := in.decideWith(context.Background(), false, true)
	return m, ok
}

// Decide11Filtered is Decide11 with the candidate pre-filter enabled.
func (in *Instance) Decide11Filtered() (Mapping, bool) {
	m, ok, _ := in.decideWith(context.Background(), true, true)
	return m, ok
}
