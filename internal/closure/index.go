package closure

import (
	"sync"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// This file defines the reachability index the matchers consume. The
// trim of greedyMatch (Fig. 4 line 4) and the decision pre-filter both
// consult the adjacency matrix H2 of G2+; CompIndex answers those
// queries straight from the SCC-condensed Reach (component rows over k
// components plus the per-node component id, the Appendix B
// representation): an O(1) two-array probe per candidate, O(k²) bits
// in total. On a data graph whose condensation is small — the shape
// real web/social graphs take, one giant strongly connected core plus a
// fringe — no O(n₂²) node-level matrix is ever materialised, which is
// what lets phomd register ≥100k-node graphs.

// Index answers the reachability queries the matching algorithms
// consume: point lookups, fan counts for the decision pre-filter, and
// the candidate-set trim split of greedyMatch. Implementations are
// immutable once built and safe for concurrent readers.
type Index interface {
	// NumNodes reports the number of data-graph nodes covered.
	NumNodes() int
	// Reachable reports whether a nonempty path u ⇝ v exists.
	Reachable(u, v graph.NodeID) bool
	// FanOut reports |{w : u ⇝ w}|, the number of nodes reachable from
	// u by a nonempty path.
	FanOut(u graph.NodeID) int
	// FanIn reports |{w : w ⇝ u}|.
	FanIn(u graph.NodeID) int
	// Split partitions cand against the trim constraints at pivot u:
	// kept receives the candidates w satisfying every requested
	// condition (needBwd: w ⇝ u; needFwd: u ⇝ w), moved the rest. kept
	// and moved are fully overwritten (they may carry stale bits from a
	// free list) and must be distinct from cand. At least one of
	// needBwd/needFwd must be set. The returns report non-emptiness of
	// kept and moved so callers avoid a separate scan.
	Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool)
}

// CompIndex is the candidate-sparse Index: it answers every query
// directly from the SCC-condensed Reach index, never materialising
// node-level rows. A reachability probe is two array loads and one bit
// test (comp[w] into the component row of comp[u]); the trim iterates
// the candidate set's members instead of And-ing full-width rows, which
// is the right shape once the ξ-filter has left each pattern node with
// few candidates. Memory beyond the Reach index itself is O(k) — the
// lazily built per-component fan counts — so a catalog entry costs
// O(n₂ + k²) bits instead of O(n₂²).
type CompIndex struct {
	r *Reach

	// Fan counts aggregate component sizes over the component-level
	// closure; they are only needed by the decision pre-filter, so the
	// O(closure-bits) aggregation pass is deferred to first use.
	fanOnce sync.Once
	fanOut  []int32 // fanOut[c] = Σ size(d) over d ∈ compReach[c]
	fanIn   []int32 // fanIn[d] = Σ size(c) over c with d ∈ compReach[c]
}

// NewCompIndex wraps a Reach index as an Index. Construction is O(1):
// every structure it consults already lives in the Reach, so a patched
// closure is re-indexed by wrapping it again.
func NewCompIndex(r *Reach) *CompIndex { return &CompIndex{r: r} }

// NumNodes reports the number of nodes the index covers.
func (ci *CompIndex) NumNodes() int { return ci.r.n }

// Reachable reports whether a nonempty path u ⇝ v exists.
func (ci *CompIndex) Reachable(u, v graph.NodeID) bool { return ci.r.Reachable(u, v) }

// Split partitions cand by probing the component rows once per
// candidate: O(|cand|) probes plus the clear of the two output sets.
func (ci *CompIndex) Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool) {
	kept.Clear()
	moved.Clear()
	r := ci.r
	cu := r.comp[u]
	fwdRow := r.compReach[cu] // components reachable from u
	for w := cand.Next(0); w >= 0; w = cand.Next(w + 1) {
		cw := r.comp[w]
		ok := true
		if needBwd && !r.compReach[cw].Contains(cu) {
			ok = false
		}
		if ok && needFwd && !fwdRow.Contains(cw) {
			ok = false
		}
		if ok {
			kept.Add(w)
			anyKept = true
		} else {
			moved.Add(w)
			anyMoved = true
		}
	}
	return anyKept, anyMoved
}

// FanOut reports the number of nodes reachable from u by aggregating
// member counts over u's component row.
func (ci *CompIndex) FanOut(u graph.NodeID) int {
	ci.buildFans()
	return int(ci.fanOut[ci.r.comp[u]])
}

// FanIn reports the number of nodes that reach u.
func (ci *CompIndex) FanIn(u graph.NodeID) int {
	ci.buildFans()
	return int(ci.fanIn[ci.r.comp[u]])
}

// buildFans aggregates component sizes over the component-level
// closure in one pass over its set bits. Deferred to first use because
// only the decision pre-filter consumes fan counts; the approximation
// hot path never pays for it.
func (ci *CompIndex) buildFans() {
	ci.fanOnce.Do(func() {
		r := ci.r
		k := len(r.compReach)
		size := make([]int32, k)
		for _, c := range r.comp {
			size[c]++
		}
		fanOut := make([]int32, k)
		fanIn := make([]int32, k)
		for c := 0; c < k; c++ {
			row := r.compReach[c]
			var total int32
			for d := row.Next(0); d >= 0; d = row.Next(d + 1) {
				total += size[d]
				fanIn[d] += size[c]
			}
			fanOut[c] = total
		}
		ci.fanOut, ci.fanIn = fanOut, fanIn
	})
}

// Bytes approximates the heap held beyond the Reach index: the two fan
// arrays (reported whether or not they are built yet, so cache
// accounting does not shift after a decide request).
func (ci *CompIndex) Bytes() int { return 2 * 4 * len(ci.r.compReach) }
