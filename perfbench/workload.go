package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

// Open-loop arrival rates, about half of each workload's closed-loop
// capacity on a 2-CPU host at the seed commit. They are part of the
// benchmark's definition: change them only together with the baseline.
const (
	matchLabelRate    = 100.0 // /v1/match per second
	searchContentRate = 6.0   // /v1/search per second
	patchWriteRate    = 200.0 // PATCH per second (writer connection)
	patchReadRate     = 4.0   // label /v1/match per second (reader connection)
	// patchContentEvery is how many patches the writer connection sends
	// between two content reads of its own (about 4 per second).
	patchContentEvery = 50
)

// xi is the node-similarity threshold of every request.
const xi = 0.75

// op is one HTTP operation of a workload's generated sequence.
type op struct {
	id     int
	write  bool
	method string
	path   string
	body   []byte
	query  int          // reads: index into the workload's query table
	patch  *graph.Patch // writes: the patch the body encodes
	sim    string       // reads: similarity kind
	search bool         // reads: a /v1/search rather than a /v1/match
}

// namedGraph is one data graph the workload registers.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// query is one distinct read request of a workload.
type query struct {
	pattern *graph.Graph
	graph   string // match target; empty for a search
	algo    string
	sim     string
	body    []byte
}

// workload is the generated input of one benchmark workload. Everything
// phomd sees is derived from the seed: the registered graphs and the
// bodies of every request.
type workload struct {
	name     string
	graphs   []namedGraph
	regs     [][]byte // POST /v1/graphs bodies
	queries  []query
	readRate float64
	rounds   int // --trace 0: fresh servers set up and measured per run
	setups   int // --trace 0: set-ups per run, the rounds' included; a multiple of rounds
	// serverArgs are the phomd flags the workload adds to its defaults.
	serverArgs []string
	// patch-mixed only: the writer's generator, its seed and rate.
	writes    *patchGen
	writeSeed int64
	writeRate float64
}

// readOp returns the i-th read of the workload's query table, in
// rotation.
func (w *workload) readOp(i int) op {
	q := i % len(w.queries)
	qq := w.queries[q]
	o := op{id: i, method: "POST", path: "/v1/match", body: qq.body, query: q, sim: qq.sim}
	if qq.graph == "" {
		o.path, o.search = "/v1/search", true
	}
	return o
}

// readerOp returns the i-th read of the reader connection: every query
// in rotation, or on patch-mixed (whose table alternates label and
// content queries) the label ones.
func (w *workload) readerOp(i int) op {
	if w.writes != nil {
		return w.readOp(2 * i)
	}
	return w.readOp(i)
}

// class names a read's kind for comparisons between the server and
// the replay: a search, or a match by similarity kind.
func (o op) class() string {
	if o.search {
		return "search"
	}
	return "match/" + o.sim
}

// seedFor derives an independent sub-seed for one generated object.
func seedFor(seed int64, tag, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return int64(x >> 1)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func registerBodies(gs []namedGraph) [][]byte {
	out := make([][]byte, len(gs))
	for i, ng := range gs {
		out[i] = mustJSON(httpapi.RegisterRequest{Name: ng.name, Graph: ng.g})
	}
	return out
}

func matchQuery(p *graph.Graph, target, algo, sim string) query {
	x := xi
	return query{pattern: p, graph: target, algo: algo, sim: sim, body: mustJSON(httpapi.MatchRequest{
		Pattern: p, Graph: target, Algo: algo, Xi: &x, Sim: sim,
	})}
}

// genMatchLabel builds match-label: four 5000-node power-law graphs and
// 64 carved 20-node patterns, each asked under all four approximation
// algorithms with label equality.
func genMatchLabel(seed int64) *workload {
	w := &workload{name: "match-label", readRate: matchLabelRate, rounds: 8, setups: 16}
	for i := 0; i < 4; i++ {
		g := syngen.GenerateLarge(syngen.LargeConfig{
			Nodes: 5000, AvgDeg: 4, Labels: 200, Seed: seedFor(seed, 1, i),
		})
		w.graphs = append(w.graphs, namedGraph{name: fmt.Sprintf("g%d", i), g: g})
	}
	patterns := make([]*graph.Graph, 64)
	for j := range patterns {
		patterns[j] = syngen.CarvePattern(w.graphs[j%4].g, 20, seedFor(seed, 2, j))
		patterns[j].Finish()
	}
	for _, algo := range []string{"maxcard", "maxcard11", "maxsim", "maxsim11"} {
		for j, p := range patterns {
			w.queries = append(w.queries, matchQuery(p, w.graphs[j%4].name, algo, "label"))
		}
	}
	w.regs = registerBodies(w.graphs)
	return w
}

// searchK and searchMinResemblance are the search-content request
// parameters (as benchsearch -short).
const (
	searchK              = 5
	searchMinResemblance = 0.1
)

// genSearchContent builds search-content: 10 webgen sites × 11
// archived versions of 120 pages, and 30 top-k skeleton patterns
// (sizes 8, 12 and 16 of each site's oldest version) ranked over the
// whole catalog by content similarity.
func genSearchContent(seed int64) *workload {
	// Three rounds, so that each open loop (about 37 searches at
	// --seconds 25) sends the whole 30-pattern pool.
	//
	// Admission control is off (-max-pending 0): under the default
	// bound phomd admits a search's candidate fan-out task by task and
	// refuses every search of this workload 429, and a benchmark
	// workload must be one on which no operation fails. The default is
	// recorded as a known defect in baseline.json.
	w := &workload{name: "search-content", readRate: searchContentRate, rounds: 3, setups: 9,
		serverArgs: []string{"-max-pending", "0"}}
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var oldest []*graph.Graph
	for s := 0; s < 10; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: cats[s%len(cats)], Pages: 120, Versions: 11, Seed: seedFor(seed, 3, s),
		})
		for v, g := range arch.Versions {
			w.graphs = append(w.graphs, namedGraph{name: fmt.Sprintf("site%02d/v%02d", s, v), g: g})
		}
		oldest = append(oldest, arch.Versions[0])
	}
	x, k, minRes := xi, searchK, searchMinResemblance
	for _, size := range []int{8, 12, 16} {
		for _, g := range oldest {
			p := webgen.TopKSkeleton(g, size)
			w.queries = append(w.queries, query{pattern: p, algo: "maxsim", sim: "content", body: mustJSON(httpapi.SearchRequest{
				Pattern: p, Algo: "maxsim", Xi: &x, Sim: "content", K: k, MinResemblance: &minRes,
			})})
		}
	}
	w.regs = registerBodies(w.graphs)
	return w
}

// patchGraph is the name of patch-mixed's one graph.
const patchGraph = "news"

// genPatchMixed builds patch-mixed: one 2000-page webgen newspaper,
// a seeded stream of small patches for the writer, and label and
// content maxsim reads over eight carved patterns. The reader
// connection sends the label reads beside the writes; the content
// reads ride on the writer connection between patches. A content read
// that a patch overtakes fails 500 "graph replaced mid-request" (a
// known defect, recorded in baseline.json), and a benchmark workload
// must be one on which no operation fails.
func genPatchMixed(seed int64) *workload {
	arch := webgen.Generate(webgen.Config{
		Category: webgen.Newspaper, Pages: 2000, Versions: 1, Seed: seedFor(seed, 4, 0),
	})
	g := arch.Versions[0]
	w := &workload{
		name: "patch-mixed", readRate: patchReadRate,
		writeRate: patchWriteRate * (1 + 1.0/patchContentEvery),
		// Fewer, longer rounds: each open loop must send more patches
		// than phomd's default -snapshot-every (1000), so every
		// measured window includes a snapshot.
		rounds:    3,
		setups:    18,
		graphs:    []namedGraph{{name: patchGraph, g: g}},
		writeSeed: seedFor(seed, 5, 0),
	}
	w.writes = newPatchGen(g, w.writeSeed)
	for j := 0; j < 8; j++ {
		p := syngen.CarvePattern(g, 10, seedFor(seed, 6, j))
		p.Finish()
		w.queries = append(w.queries,
			matchQuery(p, patchGraph, "maxsim", "label"),
			matchQuery(p, patchGraph, "maxsim", "content"))
	}
	w.regs = registerBodies(w.graphs)
	return w
}

func generate(name string, seed int64) (*workload, error) {
	switch name {
	case "match-label":
		return genMatchLabel(seed), nil
	case "search-content":
		return genSearchContent(seed), nil
	case "patch-mixed":
		return genPatchMixed(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want match-label, search-content or patch-mixed)", name)
}

// patchGen produces patch-mixed's writer stream: edge adds, deletes of
// earlier adds, content rewrites and occasional node appends. It keeps
// the graph every acknowledged patch led to, so each next patch is
// valid and the final state is known exactly.
type patchGen struct {
	rng   *rand.Rand
	g     *graph.Graph // state after every committed patch
	added [][2]int32   // edges added by earlier patches, still present
	vocab []string     // words of the original page contents
	n     int          // patches generated
	acked int          // patches acknowledged
	// touched lists the nodes acknowledged patches rewrote or appended,
	// oldest first.
	touched []graph.NodeID
}

func newPatchGen(g *graph.Graph, seed int64) *patchGen {
	seen := map[string]bool{}
	var vocab []string
	for v := 0; v < g.NumNodes(); v++ {
		for _, t := range strings.Fields(g.Content(graph.NodeID(v))) {
			if !seen[t] {
				seen[t] = true
				vocab = append(vocab, t)
			}
		}
	}
	return &patchGen{rng: rand.New(rand.NewSource(seed)), g: g, vocab: vocab}
}

// next returns the next write; commit or drop must follow before the
// next call.
func (pg *patchGen) next() op {
	n := pg.g.NumNodes()
	var req httpapi.PatchRequest
	switch r := pg.rng.Intn(100); {
	case r < 25 && len(pg.added) > 0:
		i := pg.rng.Intn(len(pg.added))
		req.DelEdges = [][2]int32{pg.added[i]}
	case r < 50:
		v := pg.rng.Intn(n)
		req.SetContent = []httpapi.ContentPatch{{Node: int32(v), Content: pg.rewrite(graph.NodeID(v))}}
	case r < 55:
		parent := pg.rng.Intn(n)
		req.AddNodes = []httpapi.PatchNode{{Label: fmt.Sprintf("/appended/page-%d", pg.n), Content: pg.words(24)}}
		req.AddEdges = [][2]int32{{int32(parent), int32(n)}}
	default:
		for {
			a, b := pg.rng.Intn(n), pg.rng.Intn(n)
			if a != b && !pg.g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
				req.AddEdges = [][2]int32{{int32(a), int32(b)}}
				break
			}
		}
	}
	pg.n++
	p := toPatch(req)
	return op{id: pg.n - 1, write: true, method: "PATCH", path: "/v1/graphs/" + patchGraph, body: mustJSON(req), patch: p}
}

// commit records o as acknowledged.
func (pg *patchGen) commit(o op) error {
	ng, err := pg.g.ApplyPatch(o.patch)
	if err != nil {
		return err
	}
	pg.g = ng
	pg.acked++
	for _, e := range o.patch.DelEdges {
		for i, a := range pg.added {
			if a == [2]int32{int32(e[0]), int32(e[1])} {
				pg.added = append(pg.added[:i], pg.added[i+1:]...)
				break
			}
		}
	}
	if len(o.patch.AddNodes) == 0 {
		for _, e := range o.patch.AddEdges {
			pg.added = append(pg.added, [2]int32{int32(e[0]), int32(e[1])})
		}
	} else {
		pg.touched = append(pg.touched, graph.NodeID(ng.NumNodes()-1))
	}
	for _, cu := range o.patch.SetContent {
		pg.touched = append(pg.touched, cu.Node)
	}
	return nil
}

// rewrite returns new content for v: its words with about a fifth
// replaced from the vocabulary, so the page stays similar to its old
// self.
func (pg *patchGen) rewrite(v graph.NodeID) string {
	ws := strings.Fields(pg.g.Content(v))
	if len(ws) == 0 {
		return pg.words(24)
	}
	for i := range ws {
		if pg.rng.Intn(5) == 0 {
			ws[i] = pg.vocab[pg.rng.Intn(len(pg.vocab))]
		}
	}
	return strings.Join(ws, " ")
}

func (pg *patchGen) words(n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = pg.vocab[pg.rng.Intn(len(pg.vocab))]
	}
	return strings.Join(ws, " ")
}

// toPatch converts a wire patch to the graph-level one (the inverse of
// the encoding phomd decodes).
func toPatch(pr httpapi.PatchRequest) *graph.Patch {
	p := &graph.Patch{}
	for _, n := range pr.AddNodes {
		p.AddNodes = append(p.AddNodes, graph.Node{Label: n.Label, Weight: n.Weight, Content: n.Content})
	}
	for _, cu := range pr.SetContent {
		p.SetContent = append(p.SetContent, graph.ContentUpdate{Node: graph.NodeID(cu.Node), Content: cu.Content})
	}
	for _, e := range pr.DelEdges {
		p.DelEdges = append(p.DelEdges, [2]graph.NodeID{graph.NodeID(e[0]), graph.NodeID(e[1])})
	}
	for _, e := range pr.AddEdges {
		p.AddEdges = append(p.AddEdges, [2]graph.NodeID{graph.NodeID(e[0]), graph.NodeID(e[1])})
	}
	return p
}
