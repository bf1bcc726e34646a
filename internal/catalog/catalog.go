// Package catalog is the serving layer's registry of data graphs. A
// production deployment matches many patterns against a fixed fleet of
// data graphs, so the dominant preprocessing cost — the transitive
// closure of G2 (the matrix H2 of Fig. 3, which every p-hom algorithm
// consults) — must be computed once per graph and shared across all
// concurrent requests, not once per core.Instance as the library
// defaults to.
//
// The Catalog keeps every registered graph resident but bounds the
// resident reachability indexes with an LRU policy — by count
// (MaxClosures) and optionally by total bytes (WithMaxBytes) — because
// a closure can be quadratically larger than its graph. Closure builds
// are single-flight: concurrent requests for the same (graph, path
// limit) pair wait for one build instead of racing to duplicate it.
// Hit/miss/eviction counters expose cache effectiveness to /v1/stats
// and the benchmarks.
//
// Each cached closure also carries the matcher-facing reachability
// index (closure.CompIndex), built with it: component probes whose
// footprint is O(n + k²) in the number of SCC-condensation components k
// rather than O(n²) — the representation that lets the catalog register
// ≥100k-node data graphs at all.
package catalog

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/trace"
)

// Errors distinguished by the HTTP layer.
var (
	// ErrNotFound reports an unknown graph name.
	ErrNotFound = errors.New("catalog: graph not found")
	// ErrDuplicate reports a Register against a name already taken.
	ErrDuplicate = errors.New("catalog: graph already registered")
	// ErrBadPatch reports an Apply whose patch failed validation (empty,
	// out-of-range node, absent edge) — the client's fault, nothing
	// committed.
	ErrBadPatch = errors.New("catalog: invalid patch")
)

// DefaultMaxClosures bounds resident closures when no explicit capacity
// is given.
const DefaultMaxClosures = 64

// Option customises a Catalog beyond the resident-closure count bound.
type Option func(*Catalog)

// WithMaxBytes bounds the total resident bytes of cached reachability
// indexes (closures plus their matcher indexes). When an insertion or a
// build pushes the resident total past the budget, least-recently-used
// entries are evicted until it fits again — except the entry just
// touched, so a single closure larger than the budget still serves its
// requests (it just evicts everything else and is dropped on the next
// miss). Non-positive means unbounded (the default).
func WithMaxBytes(n int64) Option {
	return func(c *Catalog) { c.maxBytes = n }
}

// WithDeltaBudget tunes incremental closure maintenance on Apply: the
// cached closure is patched in place while the update's work estimate
// stays under the budget, and rebuilt from scratch beyond it. Zero (the
// default) derives the budget from the graph size — roughly half the
// estimated rebuild cost; negative disables incremental maintenance
// entirely, forcing the invalidate+rebuild path (the rebuild baseline
// cmd/benchpatch measures against).
func WithDeltaBudget(n int) Option {
	return func(c *Catalog) { c.deltaBudget = n }
}

// Stats is a point-in-time snapshot of catalog effectiveness.
type Stats struct {
	// Graphs is the number of registered data graphs.
	Graphs int `json:"graphs"`
	// ResidentClosures counts reachability indexes currently cached
	// (including ones still being built).
	ResidentClosures int `json:"resident_closures"`
	// ResidentBytes approximates the heap held by resident reachability
	// closures and their indexes — the quantity the LRU bounds protect.
	ResidentBytes int64 `json:"resident_bytes"`
	// MaxClosures is the LRU capacity by entry count.
	MaxClosures int `json:"max_closures"`
	// MaxBytes is the LRU capacity by resident bytes; 0 = unbounded.
	MaxBytes int64 `json:"max_bytes"`
	// Hits counts closure resolutions served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts closure resolutions that had to build one.
	Misses uint64 `json:"misses"`
	// Evictions counts closures dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// BuildTime is the cumulative wall time spent building closures,
	// from scratch or by delta maintenance.
	BuildTime time.Duration `json:"build_ns"`
	// PatchesIncremental counts Apply commits whose cached closure was
	// patched in place; PatchesRebuild counts the ones that fell back to
	// invalidate+rebuild (no cached closure, SCC reshape, or delta cone
	// over budget).
	PatchesIncremental uint64 `json:"patches_incremental"`
	PatchesRebuild     uint64 `json:"patches_rebuild"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// closureKey identifies one cached index: the same graph under
// different path-limit bounds yields different (incomparable) indexes.
type closureKey struct {
	name      string
	pathLimit int
}

// entry is one cache slot. ready is closed once reach and idx are
// final, so lookups can wait for an in-flight build without holding the
// catalog lock. Builds cannot fail (closure.ComputeBounded is total), so
// the slot carries no error. The matcher-facing index wraps reach in
// O(1), so it is built with the closure and rides in the same slot: the
// LRU bounds account for both in bytes, and eviction drops both. bytes
// is maintained under the catalog lock for the ResidentBytes stat.
type entry struct {
	key   closureKey
	elem  *list.Element
	ready chan struct{}
	reach *closure.Reach
	idx   *closure.CompIndex
	bytes int64
}

// newEntry returns an empty, unpublished slot for key.
func newEntry(key closureKey) *entry {
	return &entry{key: key, ready: make(chan struct{})}
}

// finish installs the built closure and its index and releases waiters.
func (e *entry) finish(r *closure.Reach) {
	e.reach, e.idx = r, closure.NewCompIndex(r)
	close(e.ready)
}

// size approximates the heap the slot holds: closure plus index.
func (e *entry) size() int64 { return int64(e.reach.Bytes() + e.idx.Bytes()) }

// graphEntry is one committed version of a registered data graph: every
// Register, Apply and Replace installs a fresh entry, so the pointer
// identifies the commit. It carries the lazily computed, shared content
// shingle sets (the data-side half of content similarity, which would
// otherwise be recomputed per request).
type graphEntry struct {
	name        string
	g           *graph.Graph
	contentOnce sync.Once
	contentSets []shingle.Set
}

// Mutation describes one committed registry change for MutationHook
// observers.
type Mutation struct {
	// Removed marks a Remove; g is the graph that was registered.
	Removed bool
	// Patch and Prev are set on Apply and carry the changed-content
	// delta: g was produced by applying Patch to Prev. Observers that
	// maintain per-node derived state (the search index's shingle
	// postings and degree signatures) use them to update only what
	// changed instead of re-deriving the whole graph. Both are nil on
	// Register, Replace and hook-installation replay.
	Patch *graph.Patch
	Prev  *graph.Graph
}

// MutationHook observes registry mutations: it is invoked once per
// successful Register, Remove and Apply (g is the patched replacement
// graph on Apply — a new pointer, which is how observers distinguish an
// in-place update from a replayed Register). Hooks run synchronously
// under the catalog lock so observers see mutations in their true
// order; they must return quickly and must not call back into the
// catalog.
type MutationHook func(name string, g *graph.Graph, m Mutation)

// Persister is the catalog's write-ahead durability callback. Each
// method is invoked under the catalog lock, after validation but
// before the in-memory mutation commits: an error vetoes the mutation
// (nothing changes, the caller gets the error), and a nil return means
// the op is durable — the store fsyncs before returning — so every
// acknowledged mutation survives a crash. LogPatch receives the patch,
// not the patched graph: the log stays proportional to the edit, and
// replaying patches against replayed graphs is deterministic.
//
// The persister and the MutationHook split the observer duties: the
// persister runs first (write-ahead, fallible), the hook after commit
// (coherence, infallible). Replay installs neither until boot is done,
// so replayed mutations are not re-logged.
// The context carries the request's trace span (if any) so the
// persister can attribute the durability cost — the WAL append and
// fsync — to the request that caused it and stamp the traceparent
// into the logged op.
type Persister interface {
	LogRegister(ctx context.Context, name string, g *graph.Graph) error
	LogRemove(ctx context.Context, name string) error
	LogPatch(ctx context.Context, name string, p *graph.Patch) error
}

// Catalog is a concurrency-safe registry of named data graphs with a
// bounded, shared closure cache. The zero value is not usable; create
// catalogs with New.
type Catalog struct {
	mu       sync.Mutex
	graphs   map[string]*graphEntry
	closures map[closureKey]*entry
	lru      *list.List // front = most recently used; values are *entry
	capacity int
	maxBytes int64 // 0 = unbounded

	onMutate MutationHook
	persist  Persister
	patchObs PatchObserver

	deltaBudget int

	hits, misses, evictions uint64
	patchesIncremental      uint64
	patchesRebuild          uint64
	buildTime               time.Duration
	residentBytes           int64
}

// New returns an empty catalog bounding resident closures at
// maxClosures (DefaultMaxClosures when non-positive), customised by
// opts.
func New(maxClosures int, opts ...Option) *Catalog {
	if maxClosures <= 0 {
		maxClosures = DefaultMaxClosures
	}
	c := &Catalog{
		graphs:   make(map[string]*graphEntry),
		closures: make(map[closureKey]*entry),
		lru:      list.New(),
		capacity: maxClosures,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Register adds a data graph under name and eagerly builds its
// unbounded closure so the first match request is already a cache hit.
// The catalog takes ownership: the graph must not be mutated afterwards
// (it is normalised here so concurrent readers never race on lazy
// adjacency sorting). Registering an existing name fails with
// ErrDuplicate.
func (c *Catalog) Register(name string, g *graph.Graph) error {
	return c.RegisterCtx(context.Background(), name, g)
}

// RegisterCtx is Register with a request context for trace
// attribution: the commit is recorded as a catalog.commit span and the
// persister receives ctx for WAL-append spans.
func (c *Catalog) RegisterCtx(ctx context.Context, name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("catalog: empty graph name")
	}
	if g == nil {
		return fmt.Errorf("catalog: nil graph %q", name)
	}
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "register")
	sp.SetStr("graph", name)
	defer sp.End()
	g.Finish()
	c.mu.Lock()
	if _, dup := c.graphs[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if c.persist != nil {
		if err := c.persist.LogRegister(ctx, name, g); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.graphs[name] = &graphEntry{name: name, g: g}
	if c.onMutate != nil {
		c.onMutate(name, g, Mutation{})
	}
	c.mu.Unlock()
	c.warm(name)
	return nil
}

// SetPersister installs p as the catalog's write-ahead durability
// callback (one at most; nil removes it). Unlike SetMutationHook there
// is no replay: the persister is installed after boot-time recovery
// precisely so the recovered state is not re-logged.
func (c *Catalog) SetPersister(p Persister) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.persist = p
}

// SetMutationHook installs fn as the catalog's mutation observer (one
// hook at most; a later call replaces the previous hook, nil removes
// it). Installation replays every currently registered graph through fn
// in sorted-name order, so a late-attaching observer — the search
// index — starts coherent with the registry and never misses a graph:
// the replay and all future mutations are serialised under the same
// lock. See MutationHook for the constraints fn must obey.
func (c *Catalog) SetMutationHook(fn MutationHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMutate = fn
	if fn == nil {
		return
	}
	names := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, c.graphs[n].g, Mutation{})
	}
}

// SetPatchObserver installs obs as the catalog's per-patch telemetry
// sink (one at most; zero-value fields are skipped). Observations fire
// after each Apply commit, outside the catalog lock.
func (c *Catalog) SetPatchObserver(obs PatchObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.patchObs = obs
}

// PatchObserver receives per-Apply maintenance telemetry for the
// metrics layer: the end-to-end patch latency in seconds and — on
// incremental commits — the delta cone size in components.
type PatchObserver struct {
	Latency  func(seconds float64)
	ConeSize func(comps float64)
}

// RemoveCtx drops a graph and every cached closure derived from it; ctx
// carries the request's trace span for the catalog.commit span and the
// persister.
func (c *Catalog) RemoveCtx(ctx context.Context, name string) error {
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "remove")
	sp.SetStr("graph", name)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	ge, ok := c.graphs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.persist != nil {
		if err := c.persist.LogRemove(ctx, name); err != nil {
			return err
		}
	}
	delete(c.graphs, name)
	if c.onMutate != nil {
		c.onMutate(name, ge.g, Mutation{Removed: true})
	}
	c.dropClosuresLocked(name)
	return nil
}

// ApplyCtx patches a registered graph in place: the live-mutation path
// behind PATCH /v1/graphs/{name}. Registered graphs are shared
// immutable objects (concurrent matchers and cached closures read
// them), so the patch is applied copy-on-write — the patched clone is
// swapped into the registry and the mutation hook fires with the new
// graph and the patch delta so the search index updates only what
// changed — all under one lock hold, so observers never see a
// half-applied edit.
//
// The cached full closure is maintained incrementally whenever it can
// be: the delta update runs outside the lock against the captured
// closure, and the commit swaps the patched closure (rewrapped in its
// O(1) index) in alongside the graph. When the update cannot be
// incremental — no cached closure, the patch reshapes the SCC
// condensation, or the delta cone blows the cost budget — the closure
// is invalidated and rebuilt eagerly, like Register's. In-flight
// requests keep the View they resolved, and with it the old graph.
//
// ctx carries the request's trace span: the whole commit is recorded as
// a catalog.commit span (with the incremental-vs-rebuild outcome and
// delta cone size as attributes) and the persister receives ctx for
// WAL-append spans.
func (c *Catalog) ApplyCtx(ctx context.Context, name string, p *graph.Patch) (*graph.Graph, error) {
	if p == nil || p.Empty() {
		return nil, fmt.Errorf("%w: empty patch for %q", ErrBadPatch, name)
	}
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "patch")
	sp.SetStr("graph", name)
	defer sp.End()
	start := time.Now()
	// Clone + patch outside the lock: the clone is O(nodes + edges) and
	// the catalog mutex gates every match request's graph resolution —
	// holding it across a 100k-node copy would stall the serving hot
	// path behind each mutation. The commit below re-checks that the
	// entry is still the one the clone derived from and retries against
	// the newer graph otherwise (same optimistic pattern the search
	// index uses for its summaries).
	var ng *graph.Graph
	var incremental bool
	var coneSize int
	for {
		c.mu.Lock()
		ge, ok := c.graphs[name]
		var oldReach *closure.Reach
		if ok {
			if e, cached := c.closures[closureKey{name: name, pathLimit: 0}]; cached {
				select {
				case <-e.ready: // only a finished build can be patched
					oldReach = e.reach
				default:
				}
			}
		}
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		var err error
		if ng, err = ge.g.ApplyPatch(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPatch, err)
		}

		// Incremental closure maintenance, still outside the lock: the
		// delta is computed copy-on-write against the captured closure,
		// so concurrent readers of the old entry are undisturbed and a
		// lost commit race just discards the work.
		var newReach *closure.Reach
		var deltaTime time.Duration
		incremental, coneSize = false, 0
		if oldReach != nil && c.deltaBudget >= 0 {
			deltaStart := time.Now()
			if nr, d, ok2 := oldReach.ApplyEdges(ge.g, len(p.AddNodes), p.DelEdges, p.AddEdges, c.deltaBudget); ok2 {
				newReach = nr
				incremental = true
				coneSize = d.ConeSize()
			}
			deltaTime = time.Since(deltaStart)
		}

		c.mu.Lock()
		if c.graphs[name] != ge {
			c.mu.Unlock()
			continue // lost a race with another mutation of this name
		}
		if c.persist != nil {
			if err := c.persist.LogPatch(ctx, name, p); err != nil {
				c.mu.Unlock()
				return nil, err
			}
		}
		c.graphs[name] = &graphEntry{name: name, g: ng}
		if c.onMutate != nil {
			c.onMutate(name, ng, Mutation{Patch: p, Prev: ge.g})
		}
		c.buildTime += deltaTime
		if incremental {
			c.patchesIncremental++
			c.installClosureLocked(name, newReach)
		} else {
			c.patchesRebuild++
			c.dropClosuresLocked(name)
		}
		c.mu.Unlock()
		break
	}
	if !incremental {
		c.warm(name)
	}
	c.mu.Lock()
	obs := c.patchObs
	c.mu.Unlock()
	if obs.Latency != nil {
		obs.Latency(time.Since(start).Seconds())
	}
	if obs.ConeSize != nil && incremental {
		obs.ConeSize(float64(coneSize))
	}
	sp.SetBool("incremental", incremental)
	if incremental {
		sp.SetInt("cone_comps", int64(coneSize))
	}
	return ng, nil
}

// installClosureLocked replaces every cached closure of name with one
// freshly patched full-closure entry (already built, ready closed),
// keeping the LRU accounting exact. Bounded-path-limit entries are
// simply dropped — they are rebuilt lazily on next use. Callers hold
// c.mu.
func (c *Catalog) installClosureLocked(name string, r *closure.Reach) {
	c.dropClosuresLocked(name)
	e := newEntry(closureKey{name: name, pathLimit: 0})
	e.finish(r)
	e.elem = c.lru.PushFront(e)
	c.closures[e.key] = e
	e.bytes = e.size()
	c.residentBytes += e.bytes
	c.evictLocked()
	c.evictBytesLocked(e)
}

// Replace swaps the entire registry for state in one lock hold: every
// current graph is removed (the mutation hook fires so the search
// index drops it), every graph in state is registered (the hook fires
// again), and no observer ever sees a mixture of old and new. It is
// the follower's bootstrap path — the primary shipped a full catalog
// at an exact seq — so, unlike Register/Remove, it never consults the
// persister: the caller owns durability and has already landed the
// store on a snapshot of exactly this state. Like Register, closures
// of the new graphs are warmed eagerly after the swap.
func (c *Catalog) Replace(state map[string]*graph.Graph) error {
	names := make([]string, 0, len(state))
	for name, g := range state {
		if name == "" {
			return fmt.Errorf("catalog: empty graph name")
		}
		if g == nil {
			return fmt.Errorf("catalog: nil graph %q", name)
		}
		g.Finish()
		names = append(names, name)
	}
	sort.Strings(names)
	c.mu.Lock()
	old := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		old = append(old, n)
	}
	sort.Strings(old)
	for _, n := range old {
		ge := c.graphs[n]
		delete(c.graphs, n)
		if c.onMutate != nil {
			c.onMutate(n, ge.g, Mutation{Removed: true})
		}
		c.dropClosuresLocked(n)
	}
	for _, n := range names {
		c.graphs[n] = &graphEntry{name: n, g: state[n]}
		if c.onMutate != nil {
			c.onMutate(n, state[n], Mutation{})
		}
	}
	c.mu.Unlock()
	for _, n := range names {
		c.warm(n)
	}
	return nil
}

// dropClosuresLocked evicts every cached closure derived from name.
// Callers hold c.mu.
func (c *Catalog) dropClosuresLocked(name string) {
	for k, e := range c.closures {
		if k.name == name {
			c.dropEntryLocked(e)
		}
	}
}

// Export returns a point-in-time copy of the registry (name → graph;
// the graphs are the shared immutable objects, not clones). When
// prepare is non-nil it runs under the same lock hold, before the
// copy: the snapshot path passes the store's WAL rotation here, so the
// exported state corresponds exactly to the rotation's sequence number
// — no mutation (and therefore no WAL append, since the persister also
// runs under this lock) can interleave.
func (c *Catalog) Export(prepare func()) map[string]*graph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prepare != nil {
		prepare()
	}
	out := make(map[string]*graph.Graph, len(c.graphs))
	for n, ge := range c.graphs {
		out[n] = ge.g
	}
	return out
}

// dropEntryLocked removes a cache slot and retires its contribution to
// the resident memory stats. Callers hold c.mu.
func (c *Catalog) dropEntryLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.closures, e.key)
	c.residentBytes -= e.bytes
	e.bytes = 0
}

// View is one committed version of a registered graph — the unit every
// reader resolves. The p-hom algorithms read G2 through three derived
// inputs (its closure H2, the matcher index, and the similarity matrix
// mat(), Fig. 3 lines 1–4) and all three must come from the same G2, so
// a View derives them only from its own commit: a patch that commits
// after the View was taken never changes what the View returns. Views
// are cheap values; take one per request and read everything through
// it.
type View struct {
	// Graph is the committed graph (shared and read-only).
	Graph *graph.Graph

	c *Catalog
	e *graphEntry
}

// View resolves the current commit of the named graph.
func (c *Catalog) View(name string) (View, error) {
	c.mu.Lock()
	ge, ok := c.graphs[name]
	c.mu.Unlock()
	if !ok {
		return View{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return View{Graph: ge.g, c: c, e: ge}, nil
}

// warm builds the current commit's full closure eagerly, after
// Register, Replace and a rebuilding Apply, so the first match request
// is already a cache hit. The mutation is committed (and durable, with a
// persister) by then: a concurrent Remove makes the warm-up moot, not
// the mutation failed, so there is nothing to report.
func (c *Catalog) warm(name string) {
	if v, err := c.View(name); err == nil {
		v.Reach(context.Background(), 0)
	}
}

// GetWithIndexCtx resolves the named graph's View and its reachability
// index in one call.
func (c *Catalog) GetWithIndexCtx(ctx context.Context, name string, pathLimit int) (_ *graph.Graph, r *closure.Reach, idx closure.Index, err error) {
	v, err := c.View(name)
	if err == nil {
		r, idx = v.Index(ctx, pathLimit)
	}
	return v.Graph, r, idx, err
}

// ContentSets resolves the named graph's View and its content shingle
// sets in one call.
func (c *Catalog) ContentSets(name string) (*graph.Graph, []shingle.Set, error) {
	v, err := c.View(name)
	if err != nil {
		return nil, nil, err
	}
	return v.Graph, v.ContentSets(), nil
}

// ContentSets returns the shingle sets of the graph's node contents,
// computed once per commit (with the default shingle window) and shared.
func (v View) ContentSets() []shingle.Set {
	v.e.contentOnce.Do(func() {
		v.e.contentSets = simmatrix.ContentSets(v.Graph, 0)
	})
	return v.e.contentSets
}

// Reach returns the graph's reachability closure under the given path
// limit (0 = the full transitive closure), recording a catalog.resolve
// span under ctx's trace. While the View is the current commit the
// closure comes from the shared cache, built single-flight on first
// use; once a commit has superseded it, the closure is built for the
// View's own graph and not cached.
func (v View) Reach(ctx context.Context, pathLimit int) *closure.Reach {
	sp := v.resolveSpan(ctx)
	defer sp.End()
	return v.entry(sp, pathLimit).reach
}

// Index is Reach plus the matcher-facing reachability index (the
// representation the compMaxCard / compMaxSim trim consumes). The index
// is built with its cached closure and shared by every request, so
// per-request matcher setup materialises nothing.
func (v View) Index(ctx context.Context, pathLimit int) (*closure.Reach, closure.Index) {
	sp := v.resolveSpan(ctx)
	defer sp.End()
	e := v.entry(sp, pathLimit)
	return e.reach, e.idx
}

func (v View) resolveSpan(ctx context.Context) trace.Span {
	sp := trace.SpanFromContext(ctx).Child("catalog.resolve")
	sp.SetStr("graph", v.e.name)
	return sp
}

// GraphInfo is a point-in-time description of one registered graph and
// the reachability state the catalog holds for it, as served by the
// GET /v1/graphs/{name} detail endpoint.
type GraphInfo struct {
	// Name is the registered name.
	Name string `json:"name"`
	// Nodes and Edges describe the graph itself.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ResidentClosures counts cached closure entries derived from this
	// graph (one per requested path limit).
	ResidentClosures int `json:"resident_closures"`
	// ClosureBytes sums the resident bytes of those entries, each
	// closure with its matcher index.
	ClosureBytes int64 `json:"closure_bytes"`
}

// Describe reports the View's graph: its size plus how much
// reachability state is currently resident for it. A superseded View
// has none resident: its closures left the cache with the commit that
// replaced it.
func (v View) Describe() GraphInfo {
	c, name := v.c, v.e.name
	info := GraphInfo{
		Name:  name,
		Nodes: v.Graph.NumNodes(),
		Edges: v.Graph.NumEdges(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.graphs[name] != v.e {
		return info
	}
	for k, e := range c.closures {
		if k.name != name {
			continue
		}
		info.ResidentClosures++
		info.ClosureBytes += e.bytes
	}
	return info
}

// Names lists the registered graphs in sorted order.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered graphs.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.graphs)
}

// entry resolves the closure slot of the View's graph under pathLimit,
// waiting on or performing the single-flight closure build, and records
// whether the closure was already cached (possibly still building under
// another request) on sp. A build performed here is recorded as a
// catalog.closure_build child of sp when sp is active. A superseded
// View gets a private slot that is never published: the cache slots of
// its name belong to the commit that replaced it.
func (v View) entry(sp trace.Span, pathLimit int) *entry {
	c := v.c
	key := closureKey{name: v.e.name, pathLimit: max(pathLimit, 0)}
	c.mu.Lock()
	current := c.graphs[key.name] == v.e
	if e, ok := c.closures[key]; ok && current {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		sp.SetBool("closure_cache_hit", true)
		<-e.ready
		return e
	}
	c.misses++
	e := newEntry(key)
	if current {
		e.elem = c.lru.PushFront(e)
		c.closures[key] = e
		c.evictLocked()
	}
	c.mu.Unlock()
	sp.SetBool("closure_cache_hit", false)

	bsp := sp.Child("catalog.closure_build")
	start := time.Now()
	e.finish(closure.ComputeBounded(v.Graph, key.pathLimit))
	built := time.Since(start)
	bsp.SetInt("path_limit", int64(key.pathLimit))
	bsp.End()

	c.mu.Lock()
	c.buildTime += built
	if c.closures[key] == e { // published and not evicted while building
		e.bytes = e.size()
		c.residentBytes += e.bytes
		c.evictBytesLocked(e)
	}
	c.mu.Unlock()
	return e
}

// evictLocked enforces the count LRU bound. In-flight builds may be
// evicted — their waiters keep a direct pointer to the entry and are
// unaffected; the closure simply is not retained once they are done.
func (c *Catalog) evictLocked() {
	for c.lru.Len() > c.capacity {
		c.dropEntryLocked(c.lru.Back().Value.(*entry))
		c.evictions++
	}
}

// evictBytesLocked enforces the byte LRU bound after an accounting
// update. keep — the entry whose build just landed — is never the
// victim: evicting the closure a request is actively consuming would
// thrash (rebuild, re-evict, repeat) whenever one graph alone exceeds
// the budget, so a single oversized entry instead empties the rest of
// the cache and is dropped on the next miss. keep is merely skipped,
// not a stop condition — it can sit at the LRU back when a concurrent
// hit promoted another entry mid-build, and the budget must still win
// against the entries in front of it. Callers hold c.mu.
func (c *Catalog) evictBytesLocked(keep *entry) {
	if c.maxBytes <= 0 {
		return
	}
	for c.residentBytes > c.maxBytes {
		el := c.lru.Back()
		if el != nil && el.Value.(*entry) == keep {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		c.dropEntryLocked(el.Value.(*entry))
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Graphs:             len(c.graphs),
		ResidentClosures:   c.lru.Len(),
		ResidentBytes:      c.residentBytes,
		MaxClosures:        c.capacity,
		MaxBytes:           c.maxBytes,
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.evictions,
		BuildTime:          c.buildTime,
		PatchesIncremental: c.patchesIncremental,
		PatchesRebuild:     c.patchesRebuild,
	}
}
