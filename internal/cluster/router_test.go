package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/trace"
	"graphmatch/internal/webgen"
)

// testShard is one real phomd shard: an in-memory engine behind the
// full httpapi handler (observe shell, tracing, the lot).
type testShard struct {
	eng *engine.Engine
	srv *httptest.Server
}

func newShard(t *testing.T) *testShard {
	t.Helper()
	e := engine.New(engine.Options{Workers: 2})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(httpapi.New(e))
	t.Cleanup(srv.Close)
	return &testShard{eng: e, srv: srv}
}

// newTestRouter builds a router over the given shards and serves it.
// The probe interval is long: tests that need fresh health call
// rt.health.probeAll() explicitly, everything else exercises the
// optimistic-unprobed path.
func newTestRouter(t *testing.T, cfg Config, opts RouterOptions) (*Router, *httptest.Server) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Hour
	}
	rt, err := NewRouter(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// webCatalog generates a deterministic mixed-category catalog plus the
// patterns the quickcheck replays.
func webCatalog(sites, pages int) (names []string, graphs []*graph.Graph, patterns []*graph.Graph) {
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	for s := 0; s < sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: cats[s%len(cats)],
			Pages:    pages,
			Versions: 1,
			Seed:     int64(101 + s),
		})
		g := arch.Versions[0]
		names = append(names, fmt.Sprintf("site%02d", s))
		graphs = append(graphs, g)
		patterns = append(patterns, webgen.TopKSkeleton(g, 6))
	}
	return names, graphs, patterns
}

// clusterOf builds n real shards and a router fronting them.
func clusterOf(t *testing.T, n int, opts RouterOptions) ([]*testShard, *Router, *httptest.Server) {
	t.Helper()
	shards := make([]*testShard, n)
	cfg := Config{Version: 1}
	for i := range shards {
		shards[i] = newShard(t)
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Name:      fmt.Sprintf("s%d", i),
			Endpoints: []string{shards[i].srv.URL},
		})
	}
	rt, srv := newTestRouter(t, cfg, opts)
	return shards, rt, srv
}

// TestClusterEquivalence is the sharded-vs-single-node quickcheck: the
// same webgen catalog registered through a 3-shard router and into one
// node must answer bit-identical /v1/search top-k (hits compared as
// raw JSON), identical /v1/match and batch results, and the same graph
// listing. This is the empirical side of the DESIGN §11 exactness
// argument.
func TestClusterEquivalence(t *testing.T) {
	names, graphs, patterns := webCatalog(9, 12)
	single := newShard(t)
	shards, _, router := clusterOf(t, 3, RouterOptions{})

	perShard := make(map[string]int)
	for i, name := range names {
		if code, body := postJSON(t, router.URL+"/v1/graphs",
			httpapi.RegisterRequest{Name: name, Graph: graphs[i]}); code != http.StatusCreated {
			t.Fatalf("register %s via router: %d %s", name, code, body)
		}
		if code, body := postJSON(t, single.srv.URL+"/v1/graphs",
			httpapi.RegisterRequest{Name: name, Graph: graphs[i]}); code != http.StatusCreated {
			t.Fatalf("register %s on single: %d %s", name, code, body)
		}
	}
	for i, s := range shards {
		perShard[fmt.Sprintf("s%d", i)] = s.eng.Catalog().Len()
	}
	total := 0
	for _, n := range perShard {
		total += n
	}
	if total != len(names) {
		t.Fatalf("shards hold %d graphs total (%v), want %d", total, perShard, len(names))
	}

	// Listing: the union must equal the single node's list.
	_, routerList := getJSON(t, router.URL+"/v1/graphs")
	_, singleList := getJSON(t, single.srv.URL+"/v1/graphs")
	var rl, sl struct {
		Graphs []string `json:"graphs"`
	}
	if err := json.Unmarshal(routerList, &rl); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(singleList, &sl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rl.Graphs, sl.Graphs) {
		t.Fatalf("graph listings diverge:\nrouter: %v\nsingle: %v", rl.Graphs, sl.Graphs)
	}

	for pi, pattern := range patterns {
		for _, algo := range []string{"maxsim", "maxcard"} {
			req := httpapi.SearchRequest{Pattern: pattern, Algo: algo, K: 5, Sim: "content"}
			rCode, rBody := postJSON(t, router.URL+"/v1/search", req)
			sCode, sBody := postJSON(t, single.srv.URL+"/v1/search", req)
			if rCode != http.StatusOK || sCode != http.StatusOK {
				t.Fatalf("pattern %d %s: router %d (%s), single %d (%s)", pi, algo, rCode, rBody, sCode, sBody)
			}
			var rr SearchResponse
			var sr httpapi.SearchResponse
			if err := json.Unmarshal(rBody, &rr); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(sBody, &sr); err != nil {
				t.Fatal(err)
			}
			if rr.Incomplete || rr.ShardsServed != 3 {
				t.Fatalf("pattern %d %s: router response not complete: %+v", pi, algo, rr)
			}
			rHits, _ := json.Marshal(rr.Hits)
			sHits, _ := json.Marshal(sr.Hits)
			if !bytes.Equal(rHits, sHits) {
				t.Fatalf("pattern %d %s: top-k diverges\nrouter: %s\nsingle: %s", pi, algo, rHits, sHits)
			}
			if rr.Algo != sr.Algo || rr.K != sr.K || rr.PatternNodes != sr.PatternNodes {
				t.Fatalf("pattern %d %s: envelope diverges: %+v vs %+v", pi, algo, rr.SearchResponse, sr)
			}
			// Work accounting sums exactly: the shards partition the catalog.
			if rr.Stats.Graphs != sr.Stats.Graphs || rr.Stats.Candidates != sr.Stats.Candidates ||
				rr.Stats.Matched != sr.Stats.Matched || rr.Stats.Pruned != sr.Stats.Pruned {
				t.Fatalf("pattern %d %s: stats diverge: %+v vs %+v", pi, algo, rr.Stats, sr.Stats)
			}
		}
	}

	// Single-graph match through the router (balanced read) must equal
	// the single node, modulo timing.
	for i, name := range names {
		req := httpapi.MatchRequest{Pattern: patterns[i%len(patterns)], Graph: name, Algo: "maxsim", Sim: "content"}
		rCode, rBody := postJSON(t, router.URL+"/v1/match", req)
		sCode, sBody := postJSON(t, single.srv.URL+"/v1/match", req)
		if rCode != http.StatusOK || sCode != http.StatusOK {
			t.Fatalf("match %s: router %d (%s), single %d", name, rCode, rBody, sCode)
		}
		var rm, sm httpapi.MatchResponse
		if err := json.Unmarshal(rBody, &rm); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(sBody, &sm); err != nil {
			t.Fatal(err)
		}
		rm.ElapsedUS, sm.ElapsedUS = 0, 0
		rm.Coalesced, sm.Coalesced = false, false
		if !reflect.DeepEqual(rm, sm) {
			t.Fatalf("match %s diverges:\nrouter: %+v\nsingle: %+v", name, rm, sm)
		}
	}

	// Batch: split by shard, reassembled positionally.
	var batch httpapi.BatchRequest
	for i, name := range names {
		batch.Requests = append(batch.Requests,
			httpapi.MatchRequest{Pattern: patterns[i%len(patterns)], Graph: name, Algo: "maxcard", Sim: "content"})
	}
	rCode, rBody := postJSON(t, router.URL+"/v1/match/batch", batch)
	sCode, sBody := postJSON(t, single.srv.URL+"/v1/match/batch", batch)
	if rCode != http.StatusOK || sCode != http.StatusOK {
		t.Fatalf("batch: router %d (%s), single %d", rCode, rBody, sCode)
	}
	var rb struct {
		Results []httpapi.MatchResponse `json:"results"`
	}
	var sb httpapi.BatchResponse
	if err := json.Unmarshal(rBody, &rb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sBody, &sb); err != nil {
		t.Fatal(err)
	}
	if len(rb.Results) != len(sb.Results) {
		t.Fatalf("batch lengths diverge: %d vs %d", len(rb.Results), len(sb.Results))
	}
	for i := range rb.Results {
		a, b := rb.Results[i], sb.Results[i]
		a.ElapsedUS, b.ElapsedUS = 0, 0
		a.Coalesced, b.Coalesced = false, false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("batch item %d (%s) diverges:\nrouter: %+v\nsingle: %+v", i, names[i], a, b)
		}
	}

	// Mutations route by ownership: a delete lands on the owning shard.
	victim := names[0]
	if code, body := func() (int, []byte) {
		req, _ := http.NewRequest(http.MethodDelete, router.URL+"/v1/graphs/"+victim, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}(); code != http.StatusOK {
		t.Fatalf("delete via router: %d %s", code, body)
	}
	left := 0
	for _, s := range shards {
		left += s.eng.Catalog().Len()
	}
	if left != len(names)-1 {
		t.Fatalf("after delete, shards hold %d graphs, want %d", left, len(names)-1)
	}
}

// TestClusterPartialFailure: one shard down → the default policy fails
// closed with a typed error body naming the failed shard; ?partial=1
// serves the surviving shards' results flagged incomplete.
func TestClusterPartialFailure(t *testing.T) {
	names, graphs, patterns := webCatalog(6, 10)
	shards, _, router := clusterOf(t, 3, RouterOptions{})
	for i, name := range names {
		if code, body := postJSON(t, router.URL+"/v1/graphs",
			httpapi.RegisterRequest{Name: name, Graph: graphs[i]}); code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, code, body)
		}
	}
	shards[1].srv.Close() // s1 goes dark

	req := httpapi.SearchRequest{Pattern: patterns[0], Algo: "maxsim", K: 5, Sim: "content"}
	code, body := postJSON(t, router.URL+"/v1/search", req)
	if code != http.StatusBadGateway {
		t.Fatalf("search with a dead shard: %d (%s), want 502", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body not typed JSON: %v (%s)", err, body)
	}
	if er.Error == "" || len(er.FailedShards) != 1 || er.FailedShards[0] != "s1" {
		t.Fatalf("typed error body %+v, want failed_shards=[s1]", er)
	}

	code, body = postJSON(t, router.URL+"/v1/search?partial=1", req)
	if code != http.StatusOK {
		t.Fatalf("partial search: %d (%s), want 200", code, body)
	}
	var pr SearchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Incomplete || pr.ShardsServed != 2 || len(pr.ShardsFailed) != 1 || pr.ShardsFailed[0] != "s1" {
		t.Fatalf("partial response %+v, want incomplete with s1 failed", pr)
	}
	// The served hits are exactly what the two live shards hold.
	for _, h := range pr.Hits {
		if shards[0].eng.Catalog().Len() == 0 {
			break
		}
		if _, err := shards[1].eng.Catalog().View(h.Graph); err == nil {
			t.Fatalf("partial result contains %s from the dead shard", h.Graph)
		}
	}

	// Listing follows the same policy.
	if code, _ := getJSON(t, router.URL+"/v1/graphs"); code != http.StatusBadGateway {
		t.Fatalf("listing with dead shard: %d, want 502", code)
	}
	code, body = getJSON(t, router.URL+"/v1/graphs?partial=1")
	if code != http.StatusOK || !strings.Contains(string(body), `"incomplete":true`) {
		t.Fatalf("partial listing: %d %s", code, body)
	}

	// /v1/cluster reports the shard unreachable.
	code, body = getJSON(t, router.URL+"/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", code)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Reachable {
		t.Fatalf("cluster reports reachable with s1 down: %+v", cr)
	}
	// And after the forced probe round, /readyz degrades.
	code, body = getJSON(t, router.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "s1") {
		t.Fatalf("/readyz with s1 down: %d %s, want 503 naming s1", code, body)
	}
}

// countingServer wraps a handler and counts non-probe requests.
func countingServer(t *testing.T, status int, readyzOK bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if readyzOK {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		n.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"injected failure"}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

// TestClusterReadRetryOnce: a read that lands on a 500ing replica is
// retried once against the next replica and succeeds; mutations are
// never retried even when more replicas exist.
func TestClusterReadRetryOnce(t *testing.T) {
	good := newShard(t)
	bad, badCount := countingServer(t, http.StatusInternalServerError, true)

	// Reads: replica set [good, bad], both probing ready, so rotation
	// alternates and roughly half the reads hit the bad replica first.
	cfg := Config{Shards: []ShardConfig{{Name: "s0", Endpoints: []string{good.srv.URL, bad.URL}}}}
	rt, router := newTestRouter(t, cfg, RouterOptions{})

	_, data := webgenPair()
	if code, body := postJSON(t, router.URL+"/v1/graphs",
		httpapi.RegisterRequest{Name: "g", Graph: data}); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	const reads = 8
	for i := 0; i < reads; i++ {
		code, body := getJSON(t, router.URL+"/v1/graphs/g")
		if code != http.StatusOK {
			t.Fatalf("read %d failed through retry: %d %s", i, code, body)
		}
	}
	if badCount.Load() == 0 {
		t.Fatal("rotation never touched the bad replica; retry path untested")
	}
	if rt.mRetries.With("s0").Value() == 0 {
		t.Fatal("phomd_router_retries_total never incremented")
	}

	// Mutations: primary is a failing server and a healthy replica
	// exists — the router must pass the failure through untried.
	bad2, bad2Count := countingServer(t, http.StatusInternalServerError, true)
	cfg2 := Config{Shards: []ShardConfig{{Name: "m0", Endpoints: []string{bad2.URL, good.srv.URL}}}}
	_, router2 := newTestRouter(t, cfg2, RouterOptions{})
	code, _ := postJSON(t, router2.URL+"/v1/graphs", httpapi.RegisterRequest{Name: "h", Graph: data})
	if code != http.StatusInternalServerError {
		t.Fatalf("mutation against failing primary: %d, want the 500 passed through", code)
	}
	if got := bad2Count.Load(); got != 1 {
		t.Fatalf("failing primary hit %d times by one mutation, want exactly 1 (no retry)", got)
	}
	if _, err := good.eng.Catalog().View("h"); err == nil {
		t.Fatal("mutation was retried onto the replica")
	}
}

// TestClusterMisdirectedFollow: a shard whose configured primary is
// actually a follower answers 421 + Location; the router follows it
// exactly once and the mutation lands on the real primary.
func TestClusterMisdirectedFollow(t *testing.T) {
	real := newShard(t)
	var stubHits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		stubHits.Add(1)
		w.Header().Set("Location", real.srv.URL+r.URL.RequestURI())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		fmt.Fprintf(w, `{"error":"read-only follower"}`)
	}))
	t.Cleanup(stub.Close)

	cfg := Config{Shards: []ShardConfig{{Name: "s0", Endpoints: []string{stub.URL}}}}
	rt, router := newTestRouter(t, cfg, RouterOptions{})

	_, data := webgenPair()
	code, body := postJSON(t, router.URL+"/v1/graphs", httpapi.RegisterRequest{Name: "g", Graph: data})
	if code != http.StatusCreated {
		t.Fatalf("register through 421 redirect: %d %s", code, body)
	}
	if _, err := real.eng.Catalog().View("g"); err != nil {
		t.Fatalf("mutation did not land on the real primary: %v", err)
	}
	if got := stubHits.Load(); got != 1 {
		t.Fatalf("stub primary hit %d times, want 1", got)
	}
	if rt.mRedirects.Value() != 1 {
		t.Fatalf("phomd_router_redirects_total = %d, want 1", rt.mRedirects.Value())
	}
}

// TestClusterTraceFanout: one routed search produces a router trace
// whose span tree shows one router.shard hop per shard, and each
// shard's own flight recorder holds a remote trace under the same
// trace id — the cross-shard /debug/traces/{id} story.
func TestClusterTraceFanout(t *testing.T) {
	names, graphs, patterns := webCatalog(3, 10)
	shards, _, router := clusterOf(t, 3, RouterOptions{})
	for i, name := range names {
		if code, _ := postJSON(t, router.URL+"/v1/graphs",
			httpapi.RegisterRequest{Name: name, Graph: graphs[i]}); code != http.StatusCreated {
			t.Fatalf("register %s failed", name)
		}
	}

	data, _ := json.Marshal(httpapi.SearchRequest{Pattern: patterns[0], Algo: "maxsim", K: 3, Sim: "content"})
	resp, err := http.Post(router.URL+"/v1/search", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	tid, _, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("router response carries no traceparent: %q", tp)
	}

	code, body := getJSON(t, router.URL+"/debug/traces/"+tid.String())
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/%s on router: %d %s", tid, code, body)
	}
	var td httpapi.TraceDetailResponse
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, sp := range td.Spans {
		if sp.Name == "router.shard" {
			hops++
		}
	}
	if hops < 3 {
		t.Fatalf("router trace has %d router.shard spans, want one per shard (3): %s", hops, body)
	}

	// Every shard filed its server-side tree under the same trace id,
	// re-parented as remote.
	for i, s := range shards {
		deadline := time.Now().Add(2 * time.Second)
		for {
			std, found := s.eng.Tracer().Get(tid.String())
			if found {
				if !std.Remote {
					t.Fatalf("shard %d trace not re-parented (Remote=false)", i)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never recorded trace %s", i, tid)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// webgenPair returns a small (pattern, data) graph pair for tests that
// just need any registrable graph.
func webgenPair() (*graph.Graph, *graph.Graph) {
	g := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 10, Versions: 1, Seed: 7}).Versions[0]
	return webgen.TopKSkeleton(g, 5), g
}
