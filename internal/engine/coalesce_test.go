package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
)

// coalesceBase builds a content-carrying chain of n nodes for the
// coalescer tests.
func coalesceBase(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeFull(graph.Node{Label: fmt.Sprintf("n%d", i), Weight: 1, Content: fmt.Sprintf("page %d", i)})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	g.Finish()
	return g
}

// TestCoalesceStormBatches fires a burst of concurrent patches inside
// one coalescing window and checks they commit as one catalog
// mutation with every edge present.
func TestCoalesceStormBatches(t *testing.T) {
	e := New(Options{Workers: 2, PatchCoalesceCount: 64, PatchCoalesceWindow: 50 * time.Millisecond})
	defer e.Close()
	if err := e.Register("g", coalesceBase(32)); err != nil {
		t.Fatal(err)
	}

	const storm = 12
	var wg sync.WaitGroup
	errs := make([]error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct forward chords: disjoint, order-independent.
			_, errs[i] = e.ApplyPatch("g", &graph.Patch{
				AddEdges: [][2]graph.NodeID{{graph.NodeID(i), graph.NodeID(i + 2)}},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
	}
	g := e.mustGet(t, "g")
	for i := 0; i < storm; i++ {
		if !g.HasEdge(graph.NodeID(i), graph.NodeID(i+2)) {
			t.Fatalf("edge %d→%d missing after storm", i, i+2)
		}
	}
	s := e.Stats()
	if s.PatchBatches == 0 || s.PatchesCoalesced < 2 {
		t.Fatalf("storm inside one window did not batch: %+v", s)
	}
	// The closure kept up: the chain plus chords still reaches the end.
	v, err := e.cat.View("g")
	if err != nil {
		t.Fatal(err)
	}
	r := v.Reach(context.Background(), 0)
	if !r.Reachable(0, 31) {
		t.Fatal("closure lost the chain after batched patches")
	}
}

// TestCoalesceBadPatchIsolated checks the fallback contract: when a
// batch contains an invalid patch, it alone fails — its neighbours in
// the batch commit, exactly as they would uncoalesced.
func TestCoalesceBadPatchIsolated(t *testing.T) {
	e := New(Options{Workers: 2, PatchCoalesceCount: 64, PatchCoalesceWindow: 50 * time.Millisecond})
	defer e.Close()
	if err := e.Register("g", coalesceBase(8)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, goodErr = e.ApplyPatch("g", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 5}}})
	}()
	go func() {
		defer wg.Done()
		// Deletes an edge that never existed: invalid alone and in any
		// composition.
		_, badErr = e.ApplyPatch("g", &graph.Patch{DelEdges: [][2]graph.NodeID{{5, 0}}})
	}()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("good patch failed alongside a bad one: %v", goodErr)
	}
	if !errors.Is(badErr, catalog.ErrBadPatch) {
		t.Fatalf("bad patch error = %v, want ErrBadPatch", badErr)
	}
	if !e.mustGet(t, "g").HasEdge(0, 5) {
		t.Fatal("good patch's edge missing")
	}
}

// TestCoalesceCancellingPatches checks that a batch composing to a
// no-op commits nothing: both waiters observe the unchanged graph.
func TestCoalesceCancellingPatches(t *testing.T) {
	e := New(Options{Workers: 2, PatchCoalesceCount: 64, PatchCoalesceWindow: 200 * time.Millisecond})
	defer e.Close()
	if err := e.Register("g", coalesceBase(4)); err != nil {
		t.Fatal(err)
	}
	before := e.mustGet(t, "g")

	var wg sync.WaitGroup
	var g1, g2 *graph.Graph
	var err1, err2 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		g1, err1 = e.ApplyPatch("g", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 2}}})
	}()
	time.Sleep(10 * time.Millisecond) // order the two inside one window
	wg.Add(1)
	go func() {
		defer wg.Done()
		g2, err2 = e.ApplyPatch("g", &graph.Patch{DelEdges: [][2]graph.NodeID{{0, 2}}})
	}()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if g1 != before || g2 != before {
		t.Fatal("cancelling batch should leave the registered graph object untouched")
	}
	if e.mustGet(t, "g").HasEdge(0, 2) {
		t.Fatal("cancelled edge materialised")
	}
}

// TestCoalesceSequentialOrdering checks that a caller's own sequence
// stays ordered: each ApplyPatch acknowledgement means committed, so a
// patch deleting what the previous one added must succeed.
func TestCoalesceSequentialOrdering(t *testing.T) {
	e := New(Options{Workers: 2, PatchCoalesceCount: 8})
	defer e.Close()
	if err := e.Register("g", coalesceBase(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.ApplyPatch("g", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 2}}}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if _, err := e.ApplyPatch("g", &graph.Patch{DelEdges: [][2]graph.NodeID{{0, 2}}}); err != nil {
			t.Fatalf("del %d: %v", i, err)
		}
	}
	if e.mustGet(t, "g").HasEdge(0, 2) {
		t.Fatal("final state wrong after add/del sequence")
	}
}

// TestCoalesceFollower runs a follower with patch batching against a
// storming primary and checks convergence: the follower's catalog
// matches the primary's graph edge-for-edge once drained, and a
// snapshot taken on the follower is consistent.
func TestCoalesceFollower(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	defer p.shutdown()
	if err := p.eng.Register("web", coalesceBase(24)); err != nil {
		t.Fatal(err)
	}

	f, err := Open(Options{
		Workers:             2,
		StorePath:           t.TempDir(),
		FollowURL:           p.url(),
		FollowMinBackoff:    2 * time.Millisecond,
		FollowMaxBackoff:    25 * time.Millisecond,
		FollowStallTimeout:  250 * time.Millisecond,
		PatchCoalesceCount:  16,
		PatchCoalesceWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	defer f.Close()
	waitSynced(t, f, p, 5*time.Second)

	// Storm the primary.
	for i := 0; i < 40; i++ {
		patch := &graph.Patch{AddEdges: [][2]graph.NodeID{{graph.NodeID(i % 20), graph.NodeID((i + 3) % 20)}}}
		if i%4 == 3 {
			patch = &graph.Patch{DelEdges: [][2]graph.NodeID{{graph.NodeID((i - 3) % 20), graph.NodeID(i % 20)}}}
		}
		if _, err := p.eng.ApplyPatch("web", patch); err != nil {
			t.Fatalf("primary patch %d: %v", i, err)
		}
	}
	waitSynced(t, f, p, 5*time.Second)
	// WAL-synced; now wait out the follower's asynchronous batch
	// commits before comparing catalogs.
	f.coalescer.drain()
	if serr := f.coalescer.stickyErr(); serr != nil {
		t.Fatalf("follower batch apply failed: %v", serr)
	}

	pg := p.eng.mustGet(t, "web")
	fg := f.mustGet(t, "web")
	if pg.NumNodes() != fg.NumNodes() || pg.NumEdges() != fg.NumEdges() {
		t.Fatalf("size diverged: primary %d/%d, follower %d/%d",
			pg.NumNodes(), pg.NumEdges(), fg.NumNodes(), fg.NumEdges())
	}
	same := true
	pg.Edges(func(from, to graph.NodeID) bool {
		if !fg.HasEdge(from, to) {
			same = false
		}
		return same
	})
	if !same {
		t.Fatal("follower edges diverged from primary")
	}

	// A follower snapshot drains first, so state and seq agree.
	if _, err := f.Snapshot(); err != nil {
		t.Fatalf("follower snapshot: %v", err)
	}
	rs, _ := f.ReplStats()
	if rs.Diverged {
		t.Fatal("follower diverged under a clean storm")
	}
}
