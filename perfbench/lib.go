package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/search"
	"graphmatch/internal/shingle"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/store"
)

// layers drives the program's layers in-process through their public
// functions, one call at a time, optionally wrapping each call in a
// span. It computes the correctness references and runs the layer
// replay.
type layers struct {
	cat    *catalog.Catalog
	idx    *search.Index
	st     *store.Store // nil unless patches are logged
	tr     *tracer      // nil: no spans
	stream string

	// engineTime accumulates the time of the calls a phomd worker makes
	// for a match (resolve, content sets, matrix build, matcher), the
	// span a server-reported elapsed_us covers.
	engineTime time.Duration

	// Useful-work counters of the similarity build, kept when count is
	// set: pairs scored (n1·n2), pairs at or above ξ, dense matrix
	// bytes (computed as 8·n1·n2), and time spent shingling patterns.
	count       bool
	builds      int
	pairsScored int64
	pairsKept   int64
	matrixBytes float64
	shingleTime time.Duration
	fsyncs      []float64 // ms per store append
}

// newLayers builds a private catalog with its search index over gs.
func newLayers(gs []namedGraph, maxClosures int) (*layers, error) {
	cat := catalog.New(maxClosures)
	l := &layers{cat: cat, idx: search.NewIndex(cat)}
	for _, ng := range gs {
		if err := cat.Register(ng.name, ng.g); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// span runs fn, inside a span when tracing, and returns its duration.
func (l *layers) span(parent int, name string, opID int, fn func()) time.Duration {
	start := time.Now()
	if l.tr == nil {
		fn()
		return time.Since(start)
	}
	id := l.tr.start(parent, name, opID, l.stream)
	fn()
	l.tr.finish(id)
	return time.Since(start)
}

// root opens an operation's root span; the returned func closes it.
func (l *layers) root(opID int) (int, func()) {
	if l.tr == nil {
		return 0, func() {}
	}
	id := l.tr.start(0, "bench.op", opID, l.stream)
	return id, func() { l.tr.finish(id) }
}

// warmIndex makes one stage-1 call, which summarises every registered
// graph.
func (l *layers) warmIndex(p *graph.Graph) {
	l.idx.Candidates(search.Summarize(p), search.Policy{MinResemblance: searchMinResemblance})
}

// matchResult is one in-process match.
type matchResult struct {
	mapping  core.Mapping
	qualCard float64
	qualSim  float64
	in       *core.Instance
}

// match runs one match the way a phomd worker does: resolve the graph
// and its reachability index, build the similarity matrix, run the
// matcher.
func (l *layers) match(parent, opID int, p *graph.Graph, name, algo, sim string) (matchResult, error) {
	ctx := context.Background()
	var (
		g2    *graph.Graph
		reach *closure.Reach
		idx   closure.Index
		err   error
		res   matchResult
	)
	l.engineTime += l.span(parent, "catalog.resolve", opID, func() {
		g2, reach, idx, err = l.cat.GetWithIndexCtx(ctx, name, 0)
	})
	if err != nil {
		return res, err
	}
	var mat simmatrix.Matrix
	if sim == "content" {
		var (
			cg   *graph.Graph
			sets []shingle.Set
		)
		l.engineTime += l.span(parent, "catalog.content_sets", opID, func() {
			cg, sets, err = l.cat.ContentSets(name)
		})
		if err != nil {
			return res, err
		}
		if cg != g2 {
			return res, fmt.Errorf("graph %q replaced mid-operation", name)
		}
		l.engineTime += l.span(parent, "sim.build", opID, func() {
			mat = simmatrix.FromContentSets(p, sets, 0)
		})
		if l.count {
			start := time.Now()
			_ = simmatrix.ContentSets(p, 0)
			l.shingleTime += time.Since(start)
		}
	} else {
		l.engineTime += l.span(parent, "sim.build", opID, func() {
			mat = simmatrix.NewLabelEquality(p, g2)
		})
	}
	if l.count {
		n1, n2 := p.NumNodes(), g2.NumNodes()
		l.builds++
		l.pairsScored += int64(n1) * int64(n2)
		l.matrixBytes += 8 * float64(n1) * float64(n2)
		for _, cs := range simmatrix.Candidates(p, g2, mat, xi) {
			l.pairsKept += int64(len(cs))
		}
	}
	l.engineTime += l.span(parent, "core.match", opID, func() {
		in := core.NewInstance(p, g2, mat, xi)
		in.SetReach(reach)
		if idx != nil {
			in.SetIndex(idx)
		}
		res.in = in
		switch algo {
		case "maxcard":
			res.mapping, err = in.CompMaxCardCtx(ctx)
		case "maxcard11":
			res.mapping, err = in.CompMaxCard11Ctx(ctx)
		case "maxsim":
			res.mapping, err = in.CompMaxSimCtx(ctx)
		case "maxsim11":
			res.mapping, err = in.CompMaxSim11Ctx(ctx)
		default:
			err = fmt.Errorf("unknown algorithm %q", algo)
		}
		if err == nil {
			res.qualCard, res.qualSim = in.QualCard(res.mapping), in.QualSim(res.mapping)
		}
	})
	return res, err
}

// searchHit is one ranked in-process search result.
type searchHit struct {
	name string
	res  matchResult
}

// search ranks the catalog against p as /v1/search does with the
// search-content parameters: stage 1 selects candidates, each is
// matched with content maxsim, and the qualities fold into a top-k.
// brute skips stage-1 pruning and matches every graph.
func (l *layers) search(parent, opID int, p *graph.Graph, brute bool) ([]searchHit, error) {
	pol := search.Policy{MinResemblance: searchMinResemblance, Brute: brute}
	var cands []search.Candidate
	l.span(parent, "search.stage1", opID, func() {
		cands, _ = l.idx.Candidates(search.Summarize(p), pol)
	})
	results := make([]searchHit, 0, len(cands))
	for _, c := range cands {
		r, err := l.match(parent, opID, p, c.Name, "maxsim", "content")
		if err != nil {
			return nil, err
		}
		results = append(results, searchHit{name: c.Name, res: r})
	}
	var hits []searchHit
	l.span(parent, "search.fold", opID, func() {
		top := search.NewTopK(searchK)
		for _, r := range results {
			top.Push(search.Hit{Name: r.name, Score: r.res.qualSim, Tie: r.res.qualCard, Payload: r.res})
		}
		for _, h := range top.Ranked() {
			hits = append(hits, searchHit{name: h.Name, res: h.Payload.(matchResult)})
		}
	})
	return hits, nil
}

// patch applies one patch to the catalog and, with a store, logs it.
func (l *layers) patch(parent, opID int, p *graph.Patch) (*graph.Graph, error) {
	var (
		g   *graph.Graph
		err error
	)
	l.span(parent, "catalog.apply", opID, func() {
		g, err = l.cat.ApplyCtx(context.Background(), patchGraph, p)
	})
	if err != nil || l.st == nil {
		return g, err
	}
	var tm store.AppendTiming
	l.span(parent, "store.append", opID, func() {
		_, tm, err = l.st.AppendTimed(store.Op{Kind: store.OpPatch, Name: patchGraph, Patch: p})
	})
	l.fsyncs = append(l.fsyncs, ms(tm.Fsync))
	return g, err
}

// decodeStrict decodes a request body the way phomd does.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// encode writes a response body the way phomd does.
func encode(v any) error { return json.NewEncoder(io.Discard).Encode(v) }

// replayOp drives one generated operation through the layers: decode
// the exact request body, run the layer calls, encode the response.
func (l *layers) replayOp(opID int, o op) error {
	root, done := l.root(opID)
	defer done()
	var err error
	switch {
	case o.write:
		var req httpapi.PatchRequest
		l.span(root, "httpapi.decode", opID, func() { err = decodeStrict(o.body, &req) })
		if err != nil {
			return err
		}
		var g *graph.Graph
		if g, err = l.patch(root, opID, toPatch(req)); err != nil {
			return err
		}
		l.span(root, "httpapi.encode", opID, func() {
			err = encode(httpapi.PatchResponse{Name: patchGraph, Nodes: g.NumNodes(), Edges: g.NumEdges()})
		})
	case o.search:
		var req httpapi.SearchRequest
		l.span(root, "httpapi.decode", opID, func() { err = decodeStrict(o.body, &req) })
		if err != nil {
			return err
		}
		req.Pattern.Finish()
		var hits []searchHit
		if hits, err = l.search(root, opID, req.Pattern, false); err != nil {
			return err
		}
		l.span(root, "httpapi.encode", opID, func() {
			out := httpapi.SearchResponse{Algo: req.Algo, K: req.K, PatternNodes: req.Pattern.NumNodes()}
			for i, h := range hits {
				out.Hits = append(out.Hits, httpapi.SearchHitResponse{
					Rank: i + 1, Graph: h.name, Score: h.res.qualSim, Matched: len(h.res.mapping),
					QualCard: h.res.qualCard, QualSim: h.res.qualSim,
				})
			}
			err = encode(out)
		})
	default:
		var req httpapi.MatchRequest
		l.span(root, "httpapi.decode", opID, func() { err = decodeStrict(o.body, &req) })
		if err != nil {
			return err
		}
		req.Pattern.Finish()
		var res matchResult
		if res, err = l.match(root, opID, req.Pattern, req.Graph, req.Algo, req.Sim); err != nil {
			return err
		}
		l.span(root, "httpapi.encode", opID, func() {
			err = encode(matchResponse(req, res))
		})
	}
	return err
}

// matchResponse builds the wire response phomd sends for res.
func matchResponse(req httpapi.MatchRequest, res matchResult) httpapi.MatchResponse {
	out := httpapi.MatchResponse{
		Algo: req.Algo, Graph: req.Graph, Matched: len(res.mapping),
		PatternNodes: req.Pattern.NumNodes(), QualCard: res.qualCard, QualSim: res.qualSim,
		Holds: len(res.mapping) == req.Pattern.NumNodes(),
	}
	for _, v := range res.mapping.Domain() {
		out.Mapping = append(out.Mapping, [2]int32{int32(v), int32(res.mapping[v])})
	}
	return out
}
