package core

import (
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

func TestFilterPreservesDecision(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 7, 10)
		_, plain := in.Decide()
		_, filtered := in.DecideFiltered()
		if plain != filtered {
			return false
		}
		_, plain11 := in.Decide11()
		_, filtered11 := in.Decide11Filtered()
		return plain11 == filtered11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterWitnessesValid(t *testing.T) {
	gp, g, mate := figure1()
	in := NewInstance(gp, g, mate, 0.6)
	m, ok := in.DecideFiltered()
	if !ok {
		t.Fatal("Fig. 1 should remain p-hom under filtering")
	}
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	m11, ok := in.Decide11Filtered()
	if !ok {
		t.Fatal("Fig. 1 should remain 1-1 p-hom under filtering")
	}
	if err := in.CheckMapping(m11, true); err != nil {
		t.Fatal(err)
	}
}

func TestFilterPrunesDeadEnds(t *testing.T) {
	// Pattern hub with 3 children; data has a decoy hub whose label
	// matches but which reaches only one node. The injective filter must
	// remove the decoy candidate.
	g1 := graph.FromEdgeList([]string{"hub", "a", "b", "c"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}})
	g2 := graph.FromEdgeList(
		[]string{"hub", "a", "b", "c", "hub", "a"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}},
	)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	cands := [][]graph.NodeID{
		{0, 4}, // pattern hub: real hub and decoy hub
		{1, 5}, // a
		{2},    // b
		{3},    // c
	}
	st := in.filterCandidates(cands, true)
	if st.before != 6 {
		t.Fatalf("before = %d, want 6", st.before)
	}
	// The decoy hub (node 4, fan-out 1 < outdeg 3) must be gone.
	for _, u := range cands[0] {
		if u == 4 {
			t.Fatal("decoy hub survived the injective filter")
		}
	}
	if st.after >= st.before {
		t.Fatalf("filter removed nothing: %+v", st)
	}
}

func TestFilterKeepsLeafCandidates(t *testing.T) {
	// Isolated pattern nodes (no edges) must keep all candidates: the
	// filter has no degree evidence against them.
	g1 := graph.FromEdgeList([]string{"x"}, nil)
	g2 := graph.FromEdgeList([]string{"x", "x"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	cands := [][]graph.NodeID{{0, 1}}
	in.filterCandidates(cands, true)
	if len(cands[0]) != 2 {
		t.Fatalf("filter dropped leaf candidates: %v", cands[0])
	}
}

func TestFilterRowsAndFallbackAgree(t *testing.T) {
	// The filter reads fan counts from the instance's reachability index
	// when one is built and probes Reach per candidate when it is not;
	// both paths must prune identically and preserve the decision, for
	// the p-hom and the 1-1 decision procedures alike.
	for seed := int64(0); seed < 25; seed++ {
		for _, injective := range []bool{false, true} {
			cold := randomInstance(seed, 5, 9)
			warm := randomInstance(seed, 5, 9)
			warm.Index() // force the indexed fast path
			decide := (*Instance).DecideFiltered
			if injective {
				decide = (*Instance).Decide11Filtered
			}
			mc, okc := decide(cold)
			mw, okw := decide(warm)
			if okc != okw {
				t.Fatalf("seed %d injective=%v: cold=%v warm=%v", seed, injective, okc, okw)
			}
			mappingsEqual(t, "filtered witness", seed, mw, mc)
			if okw {
				if err := warm.CheckMapping(mw, injective); err != nil {
					t.Fatalf("seed %d injective=%v: %v", seed, injective, err)
				}
			}
		}
	}
}
