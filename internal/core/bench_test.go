package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Benchmarks for the serving hot path: per-request matcher setup and
// the greedyMatch recursion, under the catalog-cached regime (the
// data graph's closure and its index are built once and shared, as
// internal/catalog does for every registered graph), so setup touches
// only the O(n1) pattern adjacency bitsets.

func benchGraph(n, avgDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%16))
	}
	for i := 0; i < n*avgDeg; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func benchPattern(g *graph.Graph, size int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.NodeID]bool{}
	var keep []graph.NodeID
	for len(keep) < size {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

// benchFixture returns the shared (catalog-resident) state: data graph,
// pattern, closure, index, and matrix.
func benchFixture() (g1, g2 *graph.Graph, mat simmatrix.Matrix, reach *closure.Reach, idx closure.Index) {
	g2 = benchGraph(400, 4, 1)
	g1 = benchPattern(g2, 10, 100)
	reach = closure.Compute(g2)
	idx = closure.NewCompIndex(reach)
	mat = simmatrix.NewLabelEquality(g1, g2)
	return
}

// BenchmarkMatcherSetup is per-request matcher construction with the
// catalog-shared closure and index installed — the serving fast path.
func BenchmarkMatcherSetup(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		_ = in.newMatcher(false)
	}
}

// BenchmarkCompMaxCardServing is one full serving-shaped request:
// instance construction, matcher setup, and the compMaxCard run, all
// against shared catalog state.
func BenchmarkCompMaxCardServing(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		_ = in.CompMaxCard()
	}
}

// BenchmarkCompMaxSimServing is the similarity variant of the above
// (weight buckets, memoized weight rows, weight-greedy picks).
func BenchmarkCompMaxSimServing(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		_ = in.CompMaxSim()
	}
}

// BenchmarkGreedyMatchSteadyState measures the recursion alone on a
// warmed matcher: the free lists are primed by the first call, after
// which every round should run allocation-free (pinned exactly by
// TestGreedyMatchAllocationFree).
func BenchmarkGreedyMatchSteadyState(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	in := NewInstance(g1, g2, mat, 0.9)
	in.SetReach(reach)
	in.SetIndex(idx)
	mx := in.newMatcher(false)
	h := mx.initialList()
	s, c := mx.greedyMatch(h)
	mx.putPairs(s)
	mx.putPairs(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, c := mx.greedyMatch(h)
		mx.putPairs(s)
		mx.putPairs(c)
	}
}
