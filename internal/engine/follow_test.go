package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"graphmatch/internal/graph"
	"graphmatch/internal/repl"
	"graphmatch/internal/store"
	"graphmatch/internal/webgen"
)

// End-to-end replication tests: a real primary engine behind a real
// TCP listener, a follower engine tailing it, and the repl package's
// fault transport sabotaging the wire. The tests live in this package
// (not httpapi, which would be an import cycle from engine tests) and
// mount repl.NewHandler directly — the same handler httpapi mounts.

// fastRepl are stream options tuned for tests: tight poll and
// checkpoint intervals so convergence is measured in milliseconds.
var fastRepl = repl.HandlerOptions{Poll: 2 * time.Millisecond, CheckpointEvery: 20 * time.Millisecond}

// testPrimary is a primary engine serving its replication stream on a
// real listener, restartable at the same address.
type testPrimary struct {
	t    *testing.T
	dir  string
	addr string
	eng  *Engine
	srv  *http.Server
	ln   net.Listener
}

// startPrimary boots a primary over dir and serves its stream. addr ""
// picks a fresh port; passing a previous primary's addr rebinds it (a
// restart, from the follower's point of view).
func startPrimary(t *testing.T, dir, addr string) *testPrimary {
	t.Helper()
	eng, err := Open(Options{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replicate/since/{seq}", repl.NewHandler(eng.ReplSource(), fastRepl))
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := retryListen(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &testPrimary{t: t, dir: dir, addr: ln.Addr().String(), eng: eng, srv: srv, ln: ln}
}

// retryListen rebinds an address that may still be releasing after a
// hard server teardown.
func retryListen(addr string, timeout time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(timeout)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			return ln, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *testPrimary) url() string { return "http://" + p.addr }

// kill is the primary's kill -9: listener and connections torn down,
// store fds and flock dropped without Close. Every acknowledged op is
// already fsynced; the leaked workers idle until the binary exits.
func (p *testPrimary) kill() {
	p.srv.Close()
	p.ln.Close()
	p.eng.store.Abandon()
}

// restart brings the primary back on the same address from its store.
func (p *testPrimary) restart() *testPrimary {
	return startPrimary(p.t, p.dir, p.addr)
}

func (p *testPrimary) shutdown() {
	p.srv.Close()
	p.ln.Close()
	p.eng.Close()
}

// openFollower boots a follower engine over dir tailing primary, with
// test-tight backoff and stall settings.
func openFollower(t *testing.T, dir, primary string, client *http.Client) *Engine {
	t.Helper()
	e, err := Open(Options{
		Workers:            2,
		StorePath:          dir,
		FollowURL:          primary,
		FollowClient:       client,
		FollowMinBackoff:   2 * time.Millisecond,
		FollowMaxBackoff:   25 * time.Millisecond,
		FollowStallTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	return e
}

// killFollower is the follower's kill -9 equivalent: the loop stops
// issuing appends, then the store fds drop without Close. (A real
// SIGKILL interrupts the loop mid-append at worst — and an interrupted
// append is exactly the torn tail the store's replay truncates.)
func killFollower(e *Engine) {
	e.follower.Stop()
	e.store.Abandon()
}

// waitSynced blocks until the follower has durably applied everything
// the primary's store holds, without being diverged.
func waitSynced(t *testing.T, f *Engine, p *testPrimary, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rs, ok := f.ReplStats()
		if !ok {
			t.Fatal("waitSynced on a non-follower")
		}
		ps, ok := p.eng.StoreStats()
		if !ok {
			t.Fatal("primary has no store")
		}
		if rs.SyncedOnce && !rs.Diverged && rs.LastApplied == ps.LastSeq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: follower %+v, primary seq %d", rs, ps.LastSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// seedPrimary registers sites generated per category and returns the
// match/search patterns probeEngines will replay.
func seedPrimary(t *testing.T, p *testPrimary, sites, pages int) []*graph.Graph {
	t.Helper()
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var patterns []*graph.Graph
	for s := 0; s < sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: cats[s%len(cats)],
			Pages:    pages,
			Versions: 1,
			Seed:     int64(31 + s),
		})
		if err := p.eng.Register(fmt.Sprintf("site%d", s), arch.Versions[0]); err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, webgen.TopKSkeleton(arch.Versions[0], 6))
	}
	return patterns
}

// TestFollowerServesAndRejectsWrites is the basic replication
// contract: a follower converges to the primary's exact catalog,
// serves bit-identical match and search results, keeps converging as
// the primary mutates, and rejects every local mutation with
// ErrReadOnly.
func TestFollowerServesAndRejectsWrites(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	defer p.shutdown()
	patterns := seedPrimary(t, p, 2, 30)

	f := openFollower(t, t.TempDir(), p.url(), nil)
	defer f.Close()
	waitSynced(t, f, p, 5*time.Second)

	if !f.IsFollower() || f.PrimaryURL() != p.url() {
		t.Fatalf("follower identity: IsFollower=%v PrimaryURL=%q", f.IsFollower(), f.PrimaryURL())
	}
	if p.eng.IsFollower() || p.eng.PrimaryURL() != "" {
		t.Fatalf("primary identity: IsFollower=%v PrimaryURL=%q", p.eng.IsFollower(), p.eng.PrimaryURL())
	}
	if f.ReplSource() != nil {
		t.Fatal("follower must not offer a replication source (chaining unsupported)")
	}
	probeEngines(t, "initial sync", f, p.eng, patterns)

	// Live mutations flow through.
	rng := rand.New(rand.NewSource(7))
	gv, err := p.eng.Catalog().View("site0")
	if err != nil {
		t.Fatal(err)
	}
	g := gv.Graph
	if _, err := p.eng.ApplyPatch("site0", randomPatch(rng, g)); err != nil {
		t.Fatal(err)
	}
	extra := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 20, Versions: 1, Seed: 99}).Versions[0]
	if err := p.eng.Register("extra", extra); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, f, p, 5*time.Second)
	probeEngines(t, "after mutations", f, p.eng, patterns)

	// Local mutations are refused.
	if err := f.Register("local", extra.Clone()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Register on follower = %v, want ErrReadOnly", err)
	}
	if _, err := f.ApplyPatch("site0", &graph.Patch{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ApplyPatch on follower = %v, want ErrReadOnly", err)
	}
	if err := f.Remove("site0"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Remove on follower = %v, want ErrReadOnly", err)
	}
	// None of the refused mutations may have leaked into the catalog.
	probeEngines(t, "after refused writes", f, p.eng, patterns)
}

// TestFollowerRestartResumesFromLocalTail kills a synced follower,
// mutates the primary while it is down, and reopens it from the same
// store: it must resume from its durable tail — no bootstrap resync —
// and converge on just the missed ops.
func TestFollowerRestartResumesFromLocalTail(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	defer p.shutdown()
	patterns := seedPrimary(t, p, 2, 30)

	dir := t.TempDir()
	f := openFollower(t, dir, p.url(), nil)
	waitSynced(t, f, p, 5*time.Second)
	killFollower(f)

	// Primary moves on while the follower is down.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		gv, err := p.eng.Catalog().View("site1")
		if err != nil {
			t.Fatal(err)
		}
		g := gv.Graph
		if _, err := p.eng.ApplyPatch("site1", randomPatch(rng, g)); err != nil {
			t.Fatal(err)
		}
	}

	f2 := openFollower(t, dir, p.url(), nil)
	defer f2.Close()
	waitSynced(t, f2, p, 5*time.Second)
	rs, _ := f2.ReplStats()
	if rs.Resyncs != 0 {
		t.Fatalf("restart resumed via %d resyncs, want 0 (local tail should carry it)", rs.Resyncs)
	}
	probeEngines(t, "after restart", f2, p.eng, patterns)
}

// TestFollowerResync covers the two bootstrap paths: a fresh follower
// behind the primary's snapshot horizon, and a follower whose local
// tail holds a phantom op the primary never committed (divergence).
func TestFollowerResync(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	defer p.shutdown()
	patterns := seedPrimary(t, p, 2, 30)

	t.Run("behind the snapshot horizon", func(t *testing.T) {
		// Compact the primary so seq 0 predates its oldest WAL record:
		// a fresh follower cannot tail from 0 and must bootstrap.
		if _, err := p.eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		f := openFollower(t, t.TempDir(), p.url(), nil)
		defer f.Close()
		waitSynced(t, f, p, 5*time.Second)
		probeEngines(t, "bootstrap", f, p.eng, patterns)
	})

	t.Run("phantom local tail", func(t *testing.T) {
		dir := t.TempDir()
		f := openFollower(t, dir, p.url(), nil)
		waitSynced(t, f, p, 5*time.Second)
		killFollower(f)

		// Forge an op the primary never committed: the follower's tail
		// is now ahead of the primary's log, the position the stream
		// answers 409 to, and only a full resync can repair.
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		phantom := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 10, Versions: 1, Seed: 1234}).Versions[0]
		if err := st.AppendAt(store.Op{Seq: st.Stats().LastSeq + 1, Kind: store.OpRegister, Name: "phantom", Graph: phantom}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		f2 := openFollower(t, dir, p.url(), nil)
		defer f2.Close()
		waitSynced(t, f2, p, 5*time.Second)
		rs, _ := f2.ReplStats()
		if rs.Resyncs == 0 {
			t.Fatal("diverged follower converged without a resync")
		}
		if rs.Diverged {
			t.Fatal("follower still flagged diverged after resync")
		}
		// The phantom graph must be gone: probeEngines starts from a
		// catalog-name comparison.
		probeEngines(t, "after resync", f2, p.eng, patterns)
	})
}

// TestFollowerFaultQuickCheck is the convergence property under
// hostile conditions: while the primary absorbs a mutation storm, the
// follower tails it through a rotating schedule of injected wire
// faults — connections refused, streams cut mid-record, payload bytes
// flipped, silent stalls — and both processes suffer a kill -9 and
// restart mid-storm. When the dust settles the follower must serve
// bit-identical match and search results. Runs under -short: the
// graphs are small and the whole exercise is a few seconds.
func TestFollowerFaultQuickCheck(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	patterns := seedPrimary(t, p, 3, 25)

	// Rotating sabotage: connection n gets plan[n % len(plan)]. The
	// first connection is healthy so the follower syncs once; every
	// reconnect after that walks the fault rotation.
	plan := []repl.Fault{
		{},                // healthy
		{CutAfter: 700},   // torn mid-record
		{CorruptAt: 450},  // CRC failure
		{Refuse: true},    // connection refused
		{StallAfter: 300}, // hung-but-open link
		{CutAfter: 64},    // torn inside the very first frame
	}
	ft := &repl.FaultTransport{Plan: func(conn int) repl.Fault { return plan[conn%len(plan)] }}
	client := &http.Client{Transport: ft}

	fdir := t.TempDir()
	f := openFollower(t, fdir, p.url(), client)

	// storm applies n random mutations to the current primary engine.
	// No mirroring to a reference: the primary itself is the reference,
	// and an op it refused (mid-kill) is absent from its WAL and hence
	// from the follower too — both sides converge on the log.
	rng := rand.New(rand.NewSource(42))
	names := []string{"site0", "site1", "site2"}
	storm := func(eng *Engine, n int) {
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.65:
				name := names[rng.Intn(len(names))]
				gv, err := eng.Catalog().View(name)
				if err != nil {
					continue
				}
				g := gv.Graph
				_, _ = eng.ApplyPatch(name, randomPatch(rng, g))
			case r < 0.8:
				name := fmt.Sprintf("burst%d", rng.Intn(1000))
				g := webgen.Generate(webgen.Config{Category: webgen.Newspaper, Pages: 15, Versions: 1, Seed: int64(i)}).Versions[0]
				if err := eng.Register(name, g); err == nil {
					names = append(names, name)
				}
			case len(names) > 3:
				j := 3 + rng.Intn(len(names)-3) // keep the seed sites
				_ = eng.Remove(names[j])
				names = append(names[:j], names[j+1:]...)
			}
			time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
		}
	}

	storm(p.eng, 10)

	// kill -9 the primary mid-storm; the follower rides its backoff
	// until the restart comes up on the same address.
	p.kill()
	p = p.restart()
	defer p.shutdown()
	storm(p.eng, 10)

	// kill -9 the follower mid-storm; reopen from its local tail with
	// the same hostile transport.
	killFollower(f)
	storm(p.eng, 5)
	f = openFollower(t, fdir, p.url(), client)
	defer f.Close()
	storm(p.eng, 10)

	waitSynced(t, f, p, 15*time.Second)
	probeEngines(t, "post-storm", f, p.eng, patterns)

	rs, _ := f.ReplStats()
	if ft.Connections() < 3 {
		t.Fatalf("fault transport saw only %d connections; the rotation never bit", ft.Connections())
	}
	t.Logf("converged at seq %d: %d connections, %d reconnects, %d resyncs, %d applied",
		rs.LastApplied, ft.Connections(), rs.Reconnects, rs.Resyncs, rs.Applied)
}

// TestReplayProgressReported checks the Options.ReplayProgress wiring:
// boot replay reports monotonic (done, total) pairs ending at
// done == total, with total growing once the fold reveals how many
// graphs survive to register.
func TestReplayProgressReported(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 3; s++ {
		g := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 20, Versions: 1, Seed: int64(s)}).Versions[0]
		if err := e.Register(fmt.Sprintf("g%d", s), g); err != nil {
			t.Fatal(err)
		}
	}
	gv, _ := e.Catalog().View("g0")
	g := gv.Graph
	if _, err := e.ApplyPatch("g0", randomPatch(rng, g)); err != nil {
		t.Fatal(err)
	}
	e.Close()

	type pair struct{ done, total int }
	var calls []pair
	e2, err := Open(Options{
		Workers:   2,
		StorePath: dir,
		ReplayProgress: func(done, total int) {
			calls = append(calls, pair{done, total})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	if len(calls) == 0 {
		t.Fatal("ReplayProgress never called")
	}
	prev := pair{-1, 0}
	for i, c := range calls {
		if c.done < prev.done {
			t.Fatalf("call %d: done went backwards: %+v after %+v", i, c, prev)
		}
		if c.done > c.total {
			t.Fatalf("call %d: done %d exceeds total %d", i, c.done, c.total)
		}
		prev = c
	}
	last := calls[len(calls)-1]
	// 4 WAL ops replayed + 3 surviving graphs registered.
	if last.done != last.total || last.total != 7 {
		t.Fatalf("final progress %+v, want done == total == 7", last)
	}
}
