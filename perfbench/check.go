package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/store"
	"graphmatch/internal/syngen"
)

// gates collects correctness-gate failures. Failed operations are
// counted elsewhere; a gate failure is a wrong answer.
type gates struct {
	failures []string
	checked  int
}

func (g *gates) fail(format string, args ...any) {
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gates) ok() bool { return len(g.failures) == 0 }

func toMapping(pairs [][2]int32) core.Mapping {
	m := make(core.Mapping, len(pairs))
	for _, p := range pairs {
		m[graph.NodeID(p[0])] = graph.NodeID(p[1])
	}
	return m
}

func sameMapping(a, b core.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for v, u := range a {
		if w, ok := b[v]; !ok || w != u {
			return false
		}
	}
	return true
}

// checkMatch compares one served match with the in-process reference:
// the mapping must pass Verify and equal the reference, with equal
// qual_card and qual_sim.
func checkMatch(g *gates, what string, body []byte, ref matchResult, injective bool) {
	var resp httpapi.MatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		g.fail("%s: undecodable response: %v", what, err)
		return
	}
	g.checked++
	m := toMapping(resp.Mapping)
	if err := ref.in.CheckMapping(m, injective); err != nil {
		g.fail("%s: served mapping fails Verify: %v", what, err)
	}
	if !sameMapping(m, ref.mapping) {
		g.fail("%s: served mapping %v differs from the library's %v", what, m, ref.mapping)
	}
	if resp.QualCard != ref.qualCard || resp.QualSim != ref.qualSim {
		g.fail("%s: served qual_card/qual_sim %v/%v, library %v/%v",
			what, resp.QualCard, resp.QualSim, ref.qualCard, ref.qualSim)
	}
}

// matchRefs computes the library reference of every match-label query.
func matchRefs(w *workload, l *layers) ([]matchResult, error) {
	refs := make([]matchResult, len(w.queries))
	for i, q := range w.queries {
		var req httpapi.MatchRequest
		if err := decodeStrict(q.body, &req); err != nil {
			return nil, err
		}
		req.Pattern.Finish()
		r, err := l.match(0, 0, req.Pattern, req.Graph, req.Algo, req.Sim)
		if err != nil {
			return nil, err
		}
		refs[i] = r
	}
	return refs, nil
}

// checkMatchLabel checks every successful match-label response.
func checkMatchLabel(g *gates, w *workload, refs []matchResult, ss []*sample) {
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		q := w.queries[s.op.query]
		checkMatch(g, fmt.Sprintf("match %s %s pattern #%d", q.graph, q.algo, s.op.query%64),
			s.body, refs[s.op.query], strings.HasSuffix(q.algo, "11"))
	}
}

// checkSearchContent checks that every successful search ranked the
// same graphs, in the same order, as an in-process brute-force scan.
// References are computed only for queries that were answered, and
// kept in refs (by query) for later calls.
func checkSearchContent(g *gates, w *workload, l *layers, refs map[int][]string, ss []*sample) error {
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		var resp httpapi.SearchResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			g.fail("search #%d: undecodable response: %v", s.op.query, err)
			continue
		}
		want, ok := refs[s.op.query]
		if !ok {
			var req httpapi.SearchRequest
			if err := decodeStrict(w.queries[s.op.query].body, &req); err != nil {
				return err
			}
			req.Pattern.Finish()
			hits, err := l.search(0, 0, req.Pattern, true)
			if err != nil {
				return err
			}
			for _, h := range hits {
				want = append(want, h.name)
			}
			refs[s.op.query] = want
		}
		g.checked++
		got := make([]string, len(resp.Hits))
		for i, h := range resp.Hits {
			got[i] = h.Graph
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			g.fail("search #%d: served top-%d %v, brute force %v", s.op.query, searchK, got, want)
		}
	}
	return nil
}

// probeSet is patch-mixed's check of a served graph against the
// benchmark's replay of the acknowledged patches: the node and edge
// counts, and label and content matches of probe patterns, which must
// equal the library's on the replayed graph.
type probeSet struct {
	want    *graph.Graph
	queries []query
	refs    []matchResult
}

func newProbeSet(final *graph.Graph, touched []graph.NodeID, seed int64) (*probeSet, error) {
	ps := &probeSet{want: final}
	var patterns []*graph.Graph
	for j := 0; j < 4; j++ {
		patterns = append(patterns, syngen.CarvePattern(final, 10, seedFor(seed, 7, j)))
	}
	// One more probe on the ten most recently patched nodes.
	var recent []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for i := len(touched) - 1; i >= 0 && len(recent) < 10; i-- {
		if !seen[touched[i]] {
			seen[touched[i]] = true
			recent = append(recent, touched[i])
		}
	}
	if len(recent) > 0 {
		p, _ := final.InducedSubgraph(recent)
		patterns = append(patterns, p)
	}
	for _, p := range patterns {
		p.Finish()
		ps.queries = append(ps.queries,
			matchQuery(p, patchGraph, "maxsim", "label"),
			matchQuery(p, patchGraph, "maxsim", "content"))
	}
	l, err := newLayers([]namedGraph{{name: patchGraph, g: final}}, 0)
	if err != nil {
		return nil, err
	}
	for _, q := range ps.queries {
		r, err := l.match(0, 0, q.pattern, q.graph, q.algo, q.sim)
		if err != nil {
			return nil, err
		}
		ps.refs = append(ps.refs, r)
	}
	return ps, nil
}

// check runs the probe set against a live server.
func (ps *probeSet) check(g *gates, c *http.Client, base, when string) {
	st, body, err := do(c, http.MethodGet, base+"/v1/graphs/"+patchGraph, nil)
	var info httpapi.GraphDetailResponse
	if err == nil && st == http.StatusOK {
		err = json.Unmarshal(body, &info)
	}
	switch {
	case err != nil || st != http.StatusOK:
		g.fail("%s: describe %s: HTTP %d %v", when, patchGraph, st, err)
	case info.Nodes != ps.want.NumNodes() || info.Edges != ps.want.NumEdges():
		g.fail("%s: served graph has %d nodes/%d edges, replay %d/%d",
			when, info.Nodes, info.Edges, ps.want.NumNodes(), ps.want.NumEdges())
	}
	for i, q := range ps.queries {
		st, body, err := do(c, http.MethodPost, base+"/v1/match", q.body)
		if err != nil || st != http.StatusOK {
			g.fail("%s: probe %d (%s): HTTP %d %v %s", when, i, q.sim, st, err, body)
			continue
		}
		checkMatch(g, fmt.Sprintf("%s: probe %d (%s)", when, i, q.sim), body, ps.refs[i], false)
	}
}

// checkStore folds the store directory offline and compares the
// durable graph with the replay, exactly.
func checkStore(g *gates, dir string, want *graph.Graph) {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		g.fail("store: %v", err)
		return
	}
	defer st.Close()
	state, _, err := st.FoldState()
	if err != nil {
		g.fail("store fold: %v", err)
		return
	}
	g.checked++
	if got, ok := state[patchGraph]; !ok || !graph.Equal(got, want) {
		g.fail("store: durable %q differs from the replay of acknowledged patches", patchGraph)
	}
}
