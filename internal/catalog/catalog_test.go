package catalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
)

func chain(n int) *graph.Graph {
	labels := make([]string, n)
	edges := make([][2]int, 0, n-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("n%d", i)
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	return graph.FromEdgeList(labels, edges)
}

// reach resolves name's current View and its closure, as a serving
// request does.
func reach(tb testing.TB, c *Catalog, name string, pathLimit int) *closure.Reach {
	tb.Helper()
	v, err := c.View(name)
	if err != nil {
		tb.Fatal(err)
	}
	return v.Reach(context.Background(), pathLimit)
}

// current returns name's currently committed graph, nil when none is.
func current(c *Catalog, name string) *graph.Graph {
	v, _ := c.View(name)
	return v.Graph
}

func TestRegisterAndGet(t *testing.T) {
	c := New(4)
	g := chain(5)
	if err := c.Register("web", g); err != nil {
		t.Fatal(err)
	}
	v, err := c.View("web")
	if err != nil {
		t.Fatal(err)
	}
	if v.Graph != g {
		t.Fatalf("View returned a different graph")
	}
	if err := c.Register("web", chain(3)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register: err = %v, want ErrDuplicate", err)
	}
	if _, err := c.View("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: err = %v, want ErrNotFound", err)
	}
	if names := c.Names(); len(names) != 1 || names[0] != "web" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegisterPrecomputesClosure(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(6)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.ResidentClosures != 1 {
		t.Fatalf("after register: %+v, want 1 miss and 1 resident closure", s)
	}
	r := reach(t, c, "g", 0)
	if !r.Reachable(0, 5) || r.Reachable(5, 0) {
		t.Fatalf("closure semantics wrong on a 6-chain")
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("post-register Reach should hit, stats %+v", s)
	}
}

func TestReachSharedPointer(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(8)); err != nil {
		t.Fatal(err)
	}
	r1 := reach(t, c, "g", 0)
	r2 := reach(t, c, "g", 0)
	if r1 != r2 {
		t.Fatalf("repeated Reach returned distinct indexes — closure not shared")
	}
	// A bounded index is a different cache slot with different semantics.
	b := reach(t, c, "g", 1)
	if b == r1 {
		t.Fatalf("bounded and unbounded indexes share a slot")
	}
	if b.Reachable(0, 2) {
		t.Fatalf("1-bounded index reports a 2-hop path")
	}
	if !r1.Reachable(0, 2) {
		t.Fatalf("unbounded index misses a 2-hop path")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Register(name, chain(4)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.ResidentClosures != 2 {
		t.Fatalf("resident = %d, want 2", s.ResidentClosures)
	}
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// "a" was evicted; touching it is a miss that rebuilds and evicts "b".
	reach(t, c, "a", 0)
	s = c.Stats()
	if s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("after rebuild: %+v, want 4 misses and 2 evictions", s)
	}
	// "c" is still resident: a hit.
	hits := s.Hits
	reach(t, c, "c", 0)
	if s = c.Stats(); s.Hits != hits+1 {
		t.Fatalf("touching resident closure was not a hit: %+v", s)
	}
}

func TestRemove(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(4)); err != nil {
		t.Fatal(err)
	}
	reach(t, c, "g", 2)
	if err := c.RemoveCtx(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Graphs != 0 || s.ResidentClosures != 0 {
		t.Fatalf("after remove: %+v", s)
	}
	if _, err := c.View("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View after remove: %v, want ErrNotFound", err)
	}
	if err := c.RemoveCtx(context.Background(), "g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v, want ErrNotFound", err)
	}
}

// TestConcurrentReachSingleFlight hammers one key from many goroutines:
// every caller must get the same index and the build must run once.
func TestConcurrentReachSingleFlight(t *testing.T) {
	c := New(4)
	c.mu.Lock()
	g := chain(64)
	g.Finish()
	c.graphs["g"] = &graphEntry{name: "g", g: g} // bypass Register's eager build
	c.mu.Unlock()

	const workers = 32
	results := make([]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.View("g")
			if err != nil {
				results[i] = err
				return
			}
			results[i] = v.Reach(context.Background(), 0)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got %v, worker 0 got %v", i, results[i], results[0])
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", s.Misses)
	}
	if s.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, workers-1)
	}
}

// TestContentSetsCachedAndConsistent checks that the data-side shingle
// sets are computed once per graph and returned with the graph they
// index.
func TestContentSetsCachedAndConsistent(t *testing.T) {
	c := New(4)
	g := chain(5)
	if err := c.Register("g", g); err != nil {
		t.Fatal(err)
	}
	cg, sets, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if cg != g {
		t.Fatalf("ContentSets returned a different graph")
	}
	if len(sets) != g.NumNodes() {
		t.Fatalf("sets = %d, want %d", len(sets), g.NumNodes())
	}
	_, sets2, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if &sets[0] != &sets2[0] {
		t.Fatalf("ContentSets recomputed instead of returning the cached slice")
	}
	if _, _, err := c.ContentSets("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing graph: %v, want ErrNotFound", err)
	}
	// A View returns a consistent (graph, closure) pair.
	v, err := c.View("g")
	if err != nil {
		t.Fatal(err)
	}
	if r := v.Reach(context.Background(), 0); v.Graph != g || r.NumNodes() != g.NumNodes() {
		t.Fatalf("View pair inconsistent")
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatalf("empty hit rate = %v", s.HitRate())
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestGetWithIndexSharedAndConsistent(t *testing.T) {
	c := New(4)
	g := chain(12)
	if err := c.Register("web", g); err != nil {
		t.Fatal(err)
	}
	g1, r1, idx1, err := c.GetWithIndexCtx(context.Background(), "web", 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, r2, idx2, err := c.GetWithIndexCtx(context.Background(), "web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || r1 != r2 || idx1 != idx2 {
		t.Fatal("GetWithIndex must return the shared (graph, reach, index) triple")
	}
	// The index must agree with the reach it derives from.
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if idx1.Reachable(graph.NodeID(u), graph.NodeID(v)) != r1.Reachable(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("index disagrees with reach at (%d,%d)", u, v)
			}
		}
	}
	// A different path limit is a different cache slot with its own index.
	_, rb, idxB, err := c.GetWithIndexCtx(context.Background(), "web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if idxB == idx1 || rb == r1 {
		t.Fatal("bounded index must not share the unbounded slot")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// A budget big enough for roughly one chain(60) closure: resolving a
	// second graph must evict the first, but never the entry just
	// resolved.
	c := New(16, WithMaxBytes(int64(closureFootprint(60))+64))
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(60)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no byte-budget evictions after two registrations: %+v", st)
	}
	if st.MaxBytes <= 0 {
		t.Fatalf("MaxBytes = %d, want > 0", st.MaxBytes)
	}
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("ResidentBytes %d exceeds budget %d", st.ResidentBytes, st.MaxBytes)
	}
	// The most recent graph must still resolve from cache (a hit).
	before := c.Stats().Hits
	reach(t, c, "b", 0)
	if c.Stats().Hits != before+1 {
		t.Fatal("byte eviction removed the most recently resolved entry")
	}
}

func TestByteBudgetKeepsOversizedEntryServing(t *testing.T) {
	// One graph alone blows the budget: its requests must still be
	// served (the entry survives as the sole resident) rather than
	// thrashing.
	c := New(16, WithMaxBytes(8))
	if err := c.Register("big", chain(40)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetWithIndexCtx(context.Background(), "big", 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentClosures != 1 {
		t.Fatalf("ResidentClosures = %d, want the oversized entry to stay resident", st.ResidentClosures)
	}
}

// closureFootprint reports the resident bytes of one chain(n) closure
// and its index as the catalog accounts them.
func closureFootprint(n int) int {
	r := closure.Compute(chain(n))
	return r.Bytes() + closure.NewCompIndex(r).Bytes()
}

func TestConcurrentIndexSingleFlight(t *testing.T) {
	c := New(4)
	if err := c.Register("web", chain(60)); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	got := make([]closure.Index, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, idx, err := c.GetWithIndexCtx(context.Background(), "web", 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = idx
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent GetWithIndex built more than one index")
		}
	}
	if st := c.Stats(); st.ResidentClosures != 1 || st.Misses != 1 {
		t.Fatalf("resident %d, misses %d: want one slot built once", st.ResidentClosures, st.Misses)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := New(2)
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(20)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if want := int64(2 * closureFootprint(20)); st.ResidentBytes != want {
		t.Fatalf("ResidentBytes = %d, want %d (two closures with their indexes)", st.ResidentBytes, want)
	}
	// The index is built with its closure: resolving it adds nothing.
	if _, _, _, err := c.GetWithIndexCtx(context.Background(), "a", 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ResidentBytes; got != st.ResidentBytes {
		t.Fatalf("resolving the index moved ResidentBytes %d → %d", st.ResidentBytes, got)
	}
	// Filling the LRU with fresh slots evicts the old ones and returns
	// their bytes; removing everything zeroes the account.
	reach(t, c, "a", 3)
	reach(t, c, "b", 3)
	if err := c.RemoveCtx(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveCtx(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	end := c.Stats()
	if end.ResidentBytes != 0 || end.ResidentClosures != 0 {
		t.Fatalf("after removing all graphs: %+v, want empty accounting", end)
	}
}

func TestResidentIndexAccountingZeroByteIndex(t *testing.T) {
	// A 0-node graph's closure and index occupy zero bytes but are still
	// resident; the slot count must balance across build and removal
	// even then.
	c := New(2)
	empty := graph.New(0)
	if err := c.Register("empty", empty); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetWithIndexCtx(context.Background(), "empty", 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentClosures != 1 || st.ResidentBytes != 0 {
		t.Fatalf("resident %d (%d bytes), want one zero-byte slot", st.ResidentClosures, st.ResidentBytes)
	}
	if err := c.RemoveCtx(context.Background(), "empty"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentClosures != 0 || st.ResidentBytes != 0 {
		t.Fatalf("after remove: %+v, want zeroed accounting", st)
	}
}

func TestByteBudgetEvictsPastKeptEntry(t *testing.T) {
	// keep can sit at the LRU back when a concurrent hit promoted
	// another entry between keep's insertion and its build landing; the
	// evictor must skip keep and still reclaim the entries in front of
	// it, not give up. White-box: the interleaving is driven directly
	// because it needs a hit mid-build.
	c := New(16) // no byte budget yet: both entries must come resident
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(30)); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	keep := c.closures[closureKey{name: "b", pathLimit: 0}]
	if keep == nil {
		t.Fatalf("entry b missing")
	}
	c.lru.MoveToBack(keep.elem) // the concurrent-hit-promoted-a shape
	c.maxBytes = 1              // now force the budget under both entries
	c.evictBytesLocked(keep)
	c.mu.Unlock()
	st := c.Stats()
	if st.ResidentClosures != 1 {
		t.Fatalf("ResidentClosures = %d, want only the kept entry resident", st.ResidentClosures)
	}
	c.mu.Lock()
	_, aAlive := c.closures[closureKey{name: "a", pathLimit: 0}]
	_, bAlive := c.closures[closureKey{name: "b", pathLimit: 0}]
	c.mu.Unlock()
	if aAlive || !bAlive {
		t.Fatalf("evictor kept a=%v b=%v, want the non-kept entry evicted", aAlive, bAlive)
	}
}

// TestNamesSorted is the determinism regression for the graph listing:
// names come back sorted no matter the registration order, so /v1/graphs
// and the search subsystem see a stable enumeration.
func TestNamesSorted(t *testing.T) {
	c := New(8)
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		if err := c.Register(name, chain(3)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	for i := 0; i < 5; i++ { // map iteration would betray itself across calls
		got := c.Names()
		if len(got) != len(want) {
			t.Fatalf("Names = %v", got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Names = %v, want %v", got, want)
			}
		}
	}
}

// TestMutationHook pins the hook contract: replay on install, one
// event per Register/Remove, in order.
func TestMutationHook(t *testing.T) {
	type event struct {
		name    string
		removed bool
	}
	c := New(4)
	if err := c.Register("pre", chain(3)); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		events []event
	)
	c.SetMutationHook(func(name string, g *graph.Graph, m Mutation) {
		if g == nil {
			t.Errorf("hook for %q got nil graph", name)
		}
		mu.Lock()
		events = append(events, event{name, m.Removed})
		mu.Unlock()
	})
	if err := c.Register("a", chain(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveCtx(context.Background(), "pre"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveCtx(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
	want := []event{{"pre", false}, {"a", false}, {"pre", true}}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// TestDescribe checks the detail view: graph size plus resident
// closure/index accounting, and ErrNotFound for unknown names.
func TestDescribe(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(6)); err != nil {
		t.Fatal(err)
	}
	v, err := c.View("g")
	if err != nil {
		t.Fatal(err)
	}
	info := v.Describe()
	if info.Name != "g" || info.Nodes != 6 || info.Edges != 5 {
		t.Fatalf("info = %+v", info)
	}
	if info.ResidentClosures != 1 || info.ClosureBytes != int64(closureFootprint(6)) {
		t.Fatalf("closure accounting: %+v, want one slot of %d bytes", info, closureFootprint(6))
	}
	if _, err := c.View("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("describe missing: %v", err)
	}
}

// TestApplyPatch checks the live-mutation path: copy-on-write swap,
// closure invalidation + eager rebuild, and the mutation hook firing
// with the patched graph.
func TestApplyPatch(t *testing.T) {
	c := New(4)
	if err := c.Register("web", chain(3)); err != nil {
		t.Fatal(err)
	}
	old := current(c, "web")
	oldReach := reach(t, c, "web", 0)

	var hooked *graph.Graph
	var hookedMut Mutation
	c.SetMutationHook(func(name string, g *graph.Graph, m Mutation) {
		if name == "web" && !m.Removed {
			hooked = g
			hookedMut = m
		}
	})

	ng, err := c.ApplyCtx(context.Background(), "web", &graph.Patch{
		AddNodes: []graph.Node{{Label: "n3", Weight: 1}},
		AddEdges: [][2]graph.NodeID{{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng == old {
		t.Fatal("Apply mutated in place instead of copy-on-write")
	}
	if old.NumNodes() != 3 {
		t.Fatal("old graph mutated")
	}
	got := current(c, "web")
	if got != ng || got.NumNodes() != 4 {
		t.Fatalf("registry holds %v, want patched graph", got)
	}
	if hooked != ng {
		t.Fatal("mutation hook did not observe the patched graph")
	}
	if hookedMut.Patch == nil || hookedMut.Prev != old {
		t.Fatalf("mutation hook delta = %+v, want patch and previous graph", hookedMut)
	}
	// The cached closure was replaced for the new graph (patched
	// incrementally or rebuilt — either way a fresh value).
	newReach := reach(t, c, "web", 0)
	if newReach == oldReach {
		t.Fatal("stale closure survived the patch")
	}
	if !newReach.Reachable(0, 3) {
		t.Fatal("rebuilt closure misses the patched path 0→3")
	}

	// Bad patches leave everything untouched.
	if _, err := c.ApplyCtx(context.Background(), "web", &graph.Patch{DelEdges: [][2]graph.NodeID{{3, 0}}}); err == nil {
		t.Fatal("deleting an absent edge should fail")
	}
	if current(c, "web") != ng {
		t.Fatal("failed patch replaced the graph")
	}
	if _, err := c.ApplyCtx(context.Background(), "missing", &graph.Patch{AddNodes: []graph.Node{{Label: "x"}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("apply to missing graph: %v", err)
	}
	if _, err := c.ApplyCtx(context.Background(), "web", &graph.Patch{}); err == nil {
		t.Fatal("empty patch should fail")
	}
}

// vetoPersister fails every log call.
type vetoPersister struct{ err error }

func (v vetoPersister) LogRegister(context.Context, string, *graph.Graph) error { return v.err }
func (v vetoPersister) LogRemove(context.Context, string) error                 { return v.err }
func (v vetoPersister) LogPatch(context.Context, string, *graph.Patch) error    { return v.err }

// TestPersisterVeto checks write-ahead semantics: a persister error
// aborts the mutation before anything commits.
func TestPersisterVeto(t *testing.T) {
	c := New(4)
	if err := c.Register("keep", chain(3)); err != nil {
		t.Fatal(err)
	}
	bang := errors.New("disk full")
	c.SetPersister(vetoPersister{err: bang})

	if err := c.Register("new", chain(2)); !errors.Is(err, bang) {
		t.Fatalf("register under veto: %v", err)
	}
	if _, err := c.View("new"); !errors.Is(err, ErrNotFound) {
		t.Fatal("vetoed register still committed")
	}
	if err := c.RemoveCtx(context.Background(), "keep"); !errors.Is(err, bang) {
		t.Fatalf("remove under veto: %v", err)
	}
	if _, err := c.View("keep"); err != nil {
		t.Fatal("vetoed remove still committed")
	}
	if _, err := c.ApplyCtx(context.Background(), "keep", &graph.Patch{AddNodes: []graph.Node{{Label: "x"}}}); !errors.Is(err, bang) {
		t.Fatalf("apply under veto: %v", err)
	}
	if current(c, "keep").NumNodes() != 3 {
		t.Fatal("vetoed apply still committed")
	}

	c.SetPersister(nil)
	if err := c.Register("new", chain(2)); err != nil {
		t.Fatal(err)
	}
}

func TestExport(t *testing.T) {
	c := New(4)
	for _, n := range []string{"a", "b"} {
		if err := c.Register(n, chain(3)); err != nil {
			t.Fatal(err)
		}
	}
	prepared := false
	state := c.Export(func() { prepared = true })
	if !prepared {
		t.Fatal("prepare did not run")
	}
	if len(state) != 2 {
		t.Fatalf("exported %d graphs, want 2", len(state))
	}
	if state["a"] != current(c, "a") {
		t.Fatal("export should share the registered graph objects")
	}
}

// applyRandomPatch builds and applies a random valid patch to the named
// graph in every given catalog, failing the test on any error or if the
// catalogs diverge on the patched graph.
func applyRandomPatch(t *testing.T, rng *rand.Rand, name string, cats ...*Catalog) {
	t.Helper()
	g := current(cats[0], name)
	var p *graph.Patch
	for p == nil || p.Empty() {
		p = &graph.Patch{}
		for i := 0; i < rng.Intn(3); i++ {
			p.AddNodes = append(p.AddNodes, graph.Node{Label: fmt.Sprintf("p%d", rng.Intn(100)), Weight: 1})
		}
		total := g.NumNodes() + len(p.AddNodes)
		var existing [][2]graph.NodeID
		g.Edges(func(from, to graph.NodeID) bool {
			existing = append(existing, [2]graph.NodeID{from, to})
			return true
		})
		seen := map[[2]graph.NodeID]bool{}
		for i := 0; i < rng.Intn(4) && len(existing) > 0; i++ {
			e := existing[rng.Intn(len(existing))]
			if !seen[e] {
				seen[e] = true
				p.DelEdges = append(p.DelEdges, e)
			}
		}
		for i := 0; i < rng.Intn(5); i++ {
			e := [2]graph.NodeID{graph.NodeID(rng.Intn(total)), graph.NodeID(rng.Intn(total))}
			if !seen[e] {
				p.AddEdges = append(p.AddEdges, e)
			}
		}
	}
	for _, c := range cats {
		if _, err := c.ApplyCtx(context.Background(), name, p); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
}

// TestApplyIncrementalEquivalence is the closure-maintenance
// quickcheck: a catalog patching its cached closures incrementally must
// expose exactly the same reachability and index answers as one that
// rebuilds from scratch (WithDeltaBudget(-1)), across arbitrary patch
// sequences.
func TestApplyIncrementalEquivalence(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	// The catalog builds one index, the candidate-sparse CompIndex.
	t.Run("sparse", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			n := 4 + rng.Intn(12)
			g := graph.New(n)
			for i := 0; i < n; i++ {
				g.AddNode(fmt.Sprintf("n%d", i))
			}
			for i := 0; i < rng.Intn(3*n); i++ {
				g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
			g.Finish()

			inc := New(0)
			reb := New(0, WithDeltaBudget(-1))
			for _, c := range []*Catalog{inc, reb} {
				if err := c.Register("g", g); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := c.GetWithIndexCtx(context.Background(), "g", 0); err != nil {
					t.Fatal(err)
				}
			}

			for step := 0; step < 6; step++ {
				applyRandomPatch(t, rng, "g", inc, reb)
				_, ri, ii, err := inc.GetWithIndexCtx(context.Background(), "g", 0)
				if err != nil {
					t.Fatal(err)
				}
				_, rr, ir, err := reb.GetWithIndexCtx(context.Background(), "g", 0)
				if err != nil {
					t.Fatal(err)
				}
				if ri.NumNodes() != rr.NumNodes() {
					t.Fatalf("trial %d step %d: node counts diverge: %d vs %d", trial, step, ri.NumNodes(), rr.NumNodes())
				}
				for u := 0; u < ri.NumNodes(); u++ {
					uu := graph.NodeID(u)
					if ii.FanOut(uu) != ir.FanOut(uu) || ii.FanIn(uu) != ir.FanIn(uu) {
						t.Fatalf("trial %d step %d: fan counts diverge at %d", trial, step, u)
					}
					for v := 0; v < ri.NumNodes(); v++ {
						vv := graph.NodeID(v)
						if ri.Reachable(uu, vv) != rr.Reachable(uu, vv) {
							t.Fatalf("trial %d step %d: reachability diverges at (%d,%d): inc=%v reb=%v",
								trial, step, u, v, ri.Reachable(uu, vv), rr.Reachable(uu, vv))
						}
						if ii.Reachable(uu, vv) != ir.Reachable(uu, vv) {
							t.Fatalf("trial %d step %d: index diverges at (%d,%d)", trial, step, u, v)
						}
					}
				}
			}
			if inc.Stats().PatchesIncremental == 0 {
				t.Fatalf("trial %d: incremental catalog never took the delta path", trial)
			}
			if reb.Stats().PatchesIncremental != 0 {
				t.Fatalf("trial %d: rebuild catalog took the delta path", trial)
			}
		}
	})
}

// TestViewSurvivesCommit pins the View consistency rule: a View taken
// before a patch keeps deriving closure, index and content sets from its
// own graph after the patch commits, and never disturbs the cache slots
// that now belong to the new commit.
func TestViewSurvivesCommit(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(4)); err != nil {
		t.Fatal(err)
	}
	old, err := c.View("g")
	if err != nil {
		t.Fatal(err)
	}
	// 3→0 closes a cycle: the SCC condensation reshapes, so the cached
	// closure is rebuilt rather than patched.
	if _, err := c.ApplyCtx(context.Background(), "g", &graph.Patch{
		AddNodes: []graph.Node{{Label: "n4"}},
		AddEdges: [][2]graph.NodeID{{3, 0}, {3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	ctx := context.Background()
	r, idx := old.Index(ctx, 0)
	if r.NumNodes() != 4 || idx.NumNodes() != 4 || r.Reachable(3, 0) {
		t.Fatalf("superseded view resolved the new graph's closure: %d nodes, 3⇝0 = %v", r.NumNodes(), r.Reachable(3, 0))
	}
	if sets := old.ContentSets(); len(sets) != 4 {
		t.Fatalf("superseded view content sets = %d, want 4", len(sets))
	}
	if info := old.Describe(); info.Nodes != 4 || info.ResidentClosures != 0 {
		t.Fatalf("superseded view describe = %+v, want 4 nodes and nothing resident", info)
	}
	after := c.Stats()
	if after.ResidentClosures != before.ResidentClosures || after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("superseded view touched the cache: %+v → %+v", before, after)
	}
	cur := reach(t, c, "g", 0)
	if cur == r || cur.NumNodes() != 5 || !cur.Reachable(3, 0) {
		t.Fatal("current view does not resolve the patched graph's cached closure")
	}
}
