package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
)

// Fuzz the POST /v1/graphs decode path end to end: arbitrary bodies —
// malformed JSON, edges referencing nodes outside [0, n), negative
// ids, unknown fields, truncated documents — must come back as clean
// HTTP statuses, never as a handler panic or a 5xx. The graph decoder
// (graph.UnmarshalJSON) validates edge endpoints; this pins that the
// transport surfaces those failures as 400s.

var (
	fuzzOnce sync.Once
	fuzzEng  *engine.Engine
	fuzzMux  http.Handler
)

// fuzzHandler shares one engine across all fuzz iterations: the target
// is the decoder, and spinning a worker pool per input would drown the
// fuzzer in goroutine churn.
func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		fuzzEng = engine.New(engine.Options{Workers: 1})
		fuzzMux = New(fuzzEng)
	})
	return fuzzMux
}

func FuzzRegisterGraph(f *testing.F) {
	f.Add([]byte(`{"name":"g","graph":{"nodes":[{"label":"a"},{"label":"b"}],"edges":[[0,1]]}}`))
	f.Add([]byte(`{"name":"bad","graph":{"nodes":[{"label":"a"}],"edges":[[0,5]]}}`))
	f.Add([]byte(`{"name":"neg","graph":{"nodes":[{"label":"a"}],"edges":[[-1,0]]}}`))
	f.Add([]byte(`{"name":"loop","graph":{"nodes":[{"label":"a"}],"edges":[[0,0],[0,0]]}}`))
	f.Add([]byte(`{"name":"","graph":{"nodes":[],"edges":[]}}`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"graph":{"nodes":[{"label":"a","weight":1e308}],"edges":[]}}`))
	f.Add([]byte(`{"name":"u","graph":{"nodes":[{"label":"a"}],"edges":[[0`))
	f.Add([]byte(`{"name":"dup","extra":true,"graph":{"nodes":[],"edges":[]}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusCreated:
			// Unregister successful inputs so a long fuzz run stays O(1)
			// in memory (the catalog keeps graphs resident until removed)
			// — which also drags Remove through the fuzzer's corpus.
			var ack RegisterResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("undecodable 201 body %q: %v", rec.Body.Bytes(), err)
			}
			if err := fuzzEng.Remove(ack.Name); err != nil {
				t.Fatalf("removing registered graph %q: %v", ack.Name, err)
			}
		case http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}

var (
	patchOnce sync.Once
	patchEng  *engine.Engine
	patchMux  http.Handler
)

// patchBase is the pristine target graph every successful fuzz
// mutation is reset from: a content-carrying 4-chain with one chord.
func patchBase() *graph.Graph {
	g := graph.New(4)
	for _, l := range []string{"a", "b", "c", "d"} {
		g.AddNodeFull(graph.Node{Label: l, Weight: 1, Content: "page " + l})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 2)
	g.Finish()
	return g
}

// patchHandler shares one engine with the patch coalescer enabled, so
// the fuzzer also drags the batching layer (single-patch fast path)
// behind PATCH. A separate engine from FuzzRegisterGraph's: that one's
// catalog must stay empty between iterations.
func patchHandler(t *testing.T) http.Handler {
	patchOnce.Do(func() {
		patchEng = engine.New(engine.Options{Workers: 1, PatchCoalesceCount: 8})
		patchMux = New(patchEng)
	})
	if patchEng.Catalog().Len() == 0 {
		if err := patchEng.Register("t", patchBase()); err != nil {
			t.Fatalf("registering fuzz target: %v", err)
		}
	}
	return patchMux
}

// FuzzApplyPatch fuzzes the PATCH /v1/graphs/{name} decode-and-apply
// path end to end: arbitrary bodies — malformed JSON, edges and
// set_content targets outside the graph, negative ids, empty patches,
// deletes of absent edges — must come back as clean 400s, and anything
// accepted must leave the catalog agreeing with the acknowledged
// node/edge counts. Never a panic or a 5xx.
func FuzzApplyPatch(f *testing.F) {
	f.Add([]byte(`{"add_edges":[[0,3]]}`))
	f.Add([]byte(`{"del_edges":[[0,2]]}`))
	f.Add([]byte(`{"del_edges":[[2,0]]}`))
	f.Add([]byte(`{"add_nodes":[{"label":"e","weight":1,"content":"page e"}],"add_edges":[[3,4]]}`))
	f.Add([]byte(`{"set_content":[{"node":1,"content":"rewritten"}]}`))
	f.Add([]byte(`{"set_content":[{"node":99,"content":"x"}]}`))
	f.Add([]byte(`{"add_edges":[[0,99]]}`))
	f.Add([]byte(`{"add_edges":[[-1,0]]}`))
	f.Add([]byte(`{"del_edges":[[0,1]],"add_edges":[[0,1]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"unknown_field":true,"add_edges":[[0,1]]}`))
	f.Add([]byte(`{"add_edges":[[0`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := patchHandler(t)
		req := httptest.NewRequest(http.MethodPatch, "/v1/graphs/t", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var ack PatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("undecodable 200 body %q: %v", rec.Body.Bytes(), err)
			}
			gv, err := patchEng.Catalog().View("t")
			if err != nil {
				t.Fatalf("patched graph vanished: %v", err)
			}
			g := gv.Graph
			if g.NumNodes() != ack.Nodes || g.NumEdges() != ack.Edges {
				t.Fatalf("ack says %d/%d, catalog has %d/%d",
					ack.Nodes, ack.Edges, g.NumNodes(), g.NumEdges())
			}
			// Reset to the pristine base so a long run stays O(1) in
			// memory (add_nodes would otherwise grow the target without
			// bound) — which also drags Remove through the corpus.
			if err := patchEng.Remove("t"); err != nil {
				t.Fatalf("resetting fuzz target: %v", err)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
