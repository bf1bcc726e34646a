package closure

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// indexShapes returns every Reach shape a CompIndex serves, over one
// random graph: the SCC-condensed closure, the per-node BFS closure,
// path-limit closures, and — when the incremental update applies — a
// closure patched by ApplyEdges with at least one appended node, whose
// component rows carry the grown capacity.
func indexShapes(rng *rand.Rand) map[string]*Reach {
	n := 1 + rng.Intn(30)
	g := deltaRandGraph(rng, n, rng.Intn(3*n))
	r := Compute(g)
	shapes := map[string]*Reach{
		"scc":      r,
		"bfs":      ComputeBFS(g),
		"bounded1": ComputeBounded(g, 1),
		"bounded3": ComputeBounded(g, 3),
	}
	for try := 0; try < 8; try++ {
		added, dels, adds := randomPatch(rng, g)
		if added == 0 {
			added = 1 // adds stay in range: their endpoints are < n+added
		}
		if nr, _, ok := r.ApplyEdges(g, added, dels, adds, 1<<30); ok {
			shapes["patched"] = nr
			break
		}
	}
	return shapes
}

// checkCompIndexQueries compares the CompIndex point queries against
// point probes of the Reach it wraps: Reachable pair by pair and
// FanOut/FanIn as counts of those probes.
func checkCompIndexQueries(r *Reach, _ *rand.Rand) error {
	ci := NewCompIndex(r)
	n := r.NumNodes()
	if ci.NumNodes() != n {
		return fmt.Errorf("NumNodes = %d, want %d", ci.NumNodes(), n)
	}
	for u := 0; u < n; u++ {
		uu := graph.NodeID(u)
		out, in := 0, 0
		for v := 0; v < n; v++ {
			vv := graph.NodeID(v)
			want := r.Reachable(uu, vv)
			if ci.Reachable(uu, vv) != want {
				return fmt.Errorf("Reachable(%d,%d) = %v, want %v", u, v, !want, want)
			}
			if want {
				out++
			}
			if r.Reachable(vv, uu) {
				in++
			}
		}
		if got := ci.FanOut(uu); got != out {
			return fmt.Errorf("FanOut(%d) = %d, want %d", u, got, out)
		}
		if got := ci.FanIn(uu); got != in {
			return fmt.Errorf("FanIn(%d) = %d, want %d", u, got, in)
		}
	}
	return nil
}

// checkCompIndexSplit compares CompIndex.Split against Reach point
// probes at every pivot under each of the three constraint
// combinations, with kept and moved pre-filled so stale bits must be
// overwritten.
func checkCompIndexSplit(r *Reach, rng *rand.Rand) error {
	ci := NewCompIndex(r)
	n := r.NumNodes()
	cand, kept, moved := bitset.New(n), bitset.New(n), bitset.New(n)
	for u := 0; u < n; u++ {
		uu := graph.NodeID(u)
		cand.Clear()
		for w := 0; w < n; w++ {
			if rng.Intn(3) != 0 {
				cand.Add(w)
			}
		}
		for _, need := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			needBwd, needFwd := need[0], need[1]
			kept.Fill()
			moved.Fill()
			anyKept, anyMoved := ci.Split(cand, uu, needBwd, needFwd, kept, moved)
			wantKept, wantMoved := false, false
			for w := 0; w < n; w++ {
				ww := graph.NodeID(w)
				ok := (!needBwd || r.Reachable(ww, uu)) && (!needFwd || r.Reachable(uu, ww))
				inKept, inMoved := cand.Contains(w) && ok, cand.Contains(w) && !ok
				if kept.Contains(w) != inKept || moved.Contains(w) != inMoved {
					return fmt.Errorf("Split(u=%d, bwd=%v, fwd=%v) misplaced node %d", u, needBwd, needFwd, w)
				}
				wantKept = wantKept || inKept
				wantMoved = wantMoved || inMoved
			}
			if anyKept != wantKept || anyMoved != wantMoved {
				return fmt.Errorf("Split(u=%d, bwd=%v, fwd=%v) flags (%v,%v), want (%v,%v)",
					u, needBwd, needFwd, anyKept, anyMoved, wantKept, wantMoved)
			}
		}
	}
	return nil
}

// quickCheckShapes runs check over random graphs and every Reach shape
// the catalog installs, and fails unless enough of the graphs produced
// an ApplyEdges closure to check.
func quickCheckShapes(t *testing.T, check func(*Reach, *rand.Rand) error) {
	t.Helper()
	patched := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, r := range indexShapes(rng) {
			if err := check(r, rng); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if name == "patched" {
				patched++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if patched < 20 {
		t.Fatalf("only %d of 60 graphs produced an ApplyEdges closure to check", patched)
	}
}

// TestCompIndexQueriesMatchReach is the point-query half of the index
// quickcheck: each CompIndex Reachable, FanOut and FanIn answer equals
// the Reach point probes it stands for.
func TestCompIndexQueriesMatchReach(t *testing.T) {
	quickCheckShapes(t, checkCompIndexQueries)
}

// TestCompIndexSplitMatchesReach is the Split half of the index
// quickcheck: every candidate lands in kept or moved exactly as the
// Reach point probes say, and the returned flags match.
func TestCompIndexSplitMatchesReach(t *testing.T) {
	quickCheckShapes(t, checkCompIndexSplit)
}

func TestCompIndexBytesSmall(t *testing.T) {
	// The point of the component index: its owned memory is O(k), not
	// O(n²) — on a graph with one big SCC it must undercut a node-level
	// n×n bit matrix by orders of magnitude.
	n := 512
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("x")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n)) // one giant cycle
	}
	g.Finish()
	comp := NewCompIndex(Compute(g))
	if matrix := n * n / 8; comp.Bytes() >= matrix/100 {
		t.Fatalf("CompIndex.Bytes %d not far below the %d-byte node-level matrix", comp.Bytes(), matrix)
	}
	if comp.Bytes() <= 0 {
		t.Fatalf("CompIndex.Bytes = %d, want > 0", comp.Bytes())
	}
}
