package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// absentEdge returns a node pair (u, v), u ≠ v, with no edge u→v.
func absentEdge(g *graph.Graph) [2]graph.NodeID {
	for u := 0; u < g.NumNodes(); u++ {
		linked := map[graph.NodeID]bool{}
		for _, w := range g.Post(graph.NodeID(u)) {
			linked[w] = true
		}
		for v := 0; v < g.NumNodes(); v++ {
			if v != u && !linked[graph.NodeID(v)] {
				return [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
			}
		}
	}
	panic("complete graph")
}

// TestViewStorm runs label and content matches, searches and a PATCH
// add/delete-edge loop against one graph at once. Every request resolves
// one catalog View, so a commit landing mid-request is invisible to it:
// the only failures allowed are the typed ones a client can act on.
func TestViewStorm(t *testing.T) {
	e := New(Options{Workers: 2})
	t.Cleanup(e.Close)
	site := webgen.Generate(webgen.Config{Category: webgen.Organization, Pages: 300, Versions: 1, Seed: 3}).Versions[0]
	if err := e.Register("site", site); err != nil {
		t.Fatal(err)
	}
	pattern := webgen.TopKSkeleton(site, 6)
	edge := absentEdge(site)

	var mu sync.Mutex
	var ops int
	var untyped []error
	check := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		ops++
		if err != nil && !errors.Is(err, catalog.ErrNotFound) && !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrOverloaded) {
			untyped = append(untyped, err)
		}
	}
	ctx := context.Background()
	readers := []func(){
		func() {
			check(e.Match(ctx, Request{Pattern: pattern, GraphName: "site", Algo: MaxCard, Xi: 0.5}).Err)
		},
		func() {
			check(e.Match(ctx, Request{Pattern: pattern, GraphName: "site", Algo: MaxSim, Xi: 0.5, Sim: SimContent}).Err)
		},
		func() {
			check(e.Search(ctx, SearchRequest{Pattern: pattern, Algo: MaxCard11, Xi: 0.4, Sim: SimContent, NoPrefilter: true}).Err)
		},
	}
	// The writer toggles one edge until every reader has finished its
	// reads, so each read overlaps a stream of commits.
	stop := make(chan struct{})
	writer := make(chan error, 1)
	commits := 0
	go func() {
		add := &graph.Patch{AddEdges: [][2]graph.NodeID{edge}}
		del := &graph.Patch{DelEdges: [][2]graph.NodeID{edge}}
		for {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			for _, p := range []*graph.Patch{add, del} {
				if _, err := e.ApplyPatch("site", p); err != nil {
					writer <- err
					return
				}
				commits++
			}
		}
	}()
	const reads = 60
	var wg sync.WaitGroup
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				read()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-writer; err != nil {
		t.Fatalf("patch after %d commits: %v", commits, err)
	}
	if len(untyped) > 0 {
		t.Fatalf("%d of %d reads failed with an untyped error beside %d commits; first: %v", len(untyped), ops, commits, untyped[0])
	}
	t.Logf("%d reads beside %d commits, none failed untyped", ops, commits)
}

// TestSearchAdmittedAsOneUnit pins search admission: on an idle engine
// whose pending bound is smaller than the fan-out, a search is admitted
// whole and none of its candidates is shed; on a full engine it is shed
// whole, before any of its work is queued.
func TestSearchAdmittedAsOneUnit(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, MaxPending: 5})
	t.Cleanup(e.Close)
	const graphs = 20
	for i := 0; i < graphs; i++ {
		if err := e.Register(fmt.Sprintf("g%02d", i), randomGraph(30, 2, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	pattern := patternFrom(randomGraph(30, 2, 0), 4, 1)
	search := SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 0.5, NoPrefilter: true}
	ctx := context.Background()
	res := e.Search(ctx, search)
	if res.Err != nil {
		t.Fatalf("search on an idle engine: %v (shed %d)", res.Err, e.Stats().Shed)
	}
	if res.Stats.Matched != graphs {
		t.Fatalf("matched %d candidates, want %d", res.Stats.Matched, graphs)
	}
	if s := e.Stats(); s.Shed != 0 {
		t.Fatalf("an admitted search shed %d of its own tasks", s.Shed)
	}

	gate := holdWorkers(e)
	t.Cleanup(gate.release)
	fillers := make(chan Result, 5)
	for i := 0; i < 5; i++ {
		req := Request{Pattern: pattern, GraphName: "g00", Algo: MaxCard, Xi: 0.5 + float64(i)*1e-9}
		go func() { fillers <- e.Match(ctx, req) }()
	}
	waitUntil(t, "the engine is full", func() bool { return e.Stats().Pending == 5 })
	batches := e.Stats().Batches
	res = e.Search(ctx, search)
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("search on a full engine: err = %v, want ErrOverloaded", res.Err)
	}
	if s := e.Stats(); s.Shed != 1 || s.Batches != batches {
		t.Fatalf("full-engine search: shed %d, batches %d → %d; want it shed whole before stage 2", s.Shed, batches, s.Batches)
	}
	gate.release()
	for i := 0; i < 5; i++ {
		if r := <-fillers; r.Err != nil {
			t.Fatalf("filler match: %v", r.Err)
		}
	}
}
