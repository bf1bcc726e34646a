// Command perfbench is the phomd serving benchmark. It starts the real
// phomd binary as a child process (shipped defaults plus -store on a
// fresh directory), drives it over loopback HTTP from this one process
// on two connections, checks every answer against the in-process
// library, and prints one JSON result line.
//
//	perfbench -phomd BIN -work DIR --workload match-label --seed 1 --seconds 20 --trace 0
//
// Workloads: match-label (label matching on four 5000-node graphs),
// search-content (content-similarity search over 110 site mirrors) and
// patch-mixed (a stream of small patches against one 2000-page graph,
// with label reads beside it and content reads between the patches). Each runs a closed loop on
// two connections (capacity) and an open loop at a fixed arrival rate
// (latency, timed from each request's due time).
//
// With --trace 0 the run prints every end-to-end metric, and the result
// carries the ones steady enough to gate: the server's CPU time to set
// up, its CPU time per operation and its peak memory. With --trace 1
// the replay's operation sequence is first sent one at a time (light
// load), the open loop is run untraced and then with the benchmark's
// spans on, /metrics is scraped around the traced phase, and the same
// generated operation sequence is replayed in-process through the
// layers' public functions; the result carries per-layer metrics.
// perfbench/baseline.json records the metric map and the seed figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"graphmatch/internal/httpapi"
	"graphmatch/internal/store"
)

// connections is the number of HTTP connections the load generator
// opens (the patch-mixed writer and reader each hold one).
const connections = 2

// windows is how many equal windows each --trace 0 round's closed loop
// is split into for the capacity figures. The open loop takes openShare
// of each round, the closed loop the rest.
const (
	windows   = 4
	openShare = 0.75
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runner struct {
	w        *workload
	seed     int64
	secs     float64
	bin      string
	work     string
	clients  []*http.Client
	srv      *server
	storeDir string

	gates      gates
	lines      []string // human-readable report
	all        []*sample
	ref        *layers
	refs       []matchResult
	searchRefs map[int][]string // search-content: brute-force top-k by query

	readSeq    int    // next read of the reader connection
	contentSeq int    // patch-mixed: next content read of the writer connection
	restart    string // patch-mixed: the restart line of the report
	uncertain  int    // writes whose outcome is unknown (transport errors)
}

func main() {
	wl := flag.String("workload", "", "match-label | search-content | patch-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	bin := flag.String("phomd", "", "phomd binary")
	work := flag.String("work", "", "scratch directory for stores, reports and spans")
	flag.Parse()
	if *bin == "" || *work == "" {
		fatalf("-phomd and -work are required")
	}
	w, err := generate(*wl, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	r := &runner{w: w, seed: *seed, secs: *secs, bin: *bin, work: *work, clients: newClients(connections)}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	var res result
	if *traceOn == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if r.srv != nil {
		r.srv.kill()
	}
	closeClients(r.clients)
	if err != nil {
		fatalf("%s: %v", *wl, err)
	}
	for _, f := range r.gates.failures {
		r.linef("GATE FAILED: %s", f)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func (r *runner) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setup starts a server on a fresh store, registers the workload's
// graphs over HTTP and warms it; the returned duration runs from
// process start to warm (wall time).
func (r *runner) setup(k int) (time.Duration, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("store-%d", k))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := startServer(r.bin, dir, r.w.serverArgs)
	if err != nil {
		return 0, err
	}
	r.srv, r.storeDir = srv, dir
	c := r.clients[0]
	if err := srv.waitReady(c); err != nil {
		return 0, err
	}
	for _, body := range r.w.regs {
		st, resp, err := do(c, http.MethodPost, srv.base+"/v1/graphs", body)
		if err != nil || st != http.StatusCreated {
			return 0, fmt.Errorf("register: HTTP %d %v %s", st, err, resp)
		}
	}
	// Warm: one read per target graph and similarity kind (a search
	// warms the stage-1 summaries of the whole catalog).
	warm := map[string]bool{}
	for i, q := range r.w.queries {
		key := q.graph + "/" + q.sim
		if warm[key] {
			continue
		}
		warm[key] = true
		o := r.w.readOp(i)
		st, resp, err := do(c, o.method, srv.base+o.path, o.body)
		if err != nil || st != http.StatusOK {
			return 0, fmt.Errorf("warm-up %s: HTTP %d %v %s", o.path, st, err, resp)
		}
	}
	return time.Since(start), nil
}

func (r *runner) readStream(clients []*http.Client, tr *tracer) *stream {
	return &stream{name: "reads", clients: clients, base: r.srv.base, tr: tr, next: func() op {
		o := r.w.readerOp(r.readSeq)
		r.readSeq++
		return o
	}}
}

// writeStream is patch-mixed's writer connection: patches, and after
// every patchContentEvery of them one content read. One connection:
// next and settle run on its goroutine, in order, so each content read
// is sent after the patch before it was answered.
func (r *runner) writeStream(c *http.Client, tr *tracer) *stream {
	n := 0
	next := func() op {
		n++
		if n%(patchContentEvery+1) == 0 {
			o := r.w.readOp(2*r.contentSeq + 1)
			r.contentSeq++
			return o
		}
		return r.w.writes.next()
	}
	return &stream{name: "writes", clients: []*http.Client{c}, base: r.srv.base, tr: tr, next: next, settle: r.settle}
}

// settle records an acknowledged write in the workload's patch
// generator, whose graph is the replay the durability gate compares.
func (r *runner) settle(o op, ok bool) {
	if !ok || !o.write {
		return
	}
	if err := r.w.writes.commit(o); err != nil {
		r.gates.fail("acknowledged patch %d does not apply to the replay: %v", o.id, err)
	}
}

// record adds a phase's samples to the run's and counts writes whose
// outcome is unknown.
func (r *runner) record(ss []*sample) {
	for _, s := range ss {
		if s.op.write && s.err != nil {
			r.uncertain++
		}
	}
	r.all = append(r.all, ss...)
}

// lightPhase sends the layer replay's operation sequence to the server
// one operation at a time on one connection for d: the light load at
// which the server-reported times compare with the replay's.
func (r *runner) lightPhase(d time.Duration) []*sample {
	seq := &mixed{w: r.w, pg: r.w.writes}
	out := closedLoop(&stream{name: "light", clients: r.clients[:1], base: r.srv.base, next: seq.next, settle: r.settle}, d)
	r.record(out)
	return out
}

// phase runs one closed or open loop over the workload's streams.
// Reads-only workloads share both connections; patch-mixed gives the
// writer (with its content reads) and the label reader one each.
func (r *runner) phase(open bool, d time.Duration, tr *tracer) ([]*sample, time.Time, time.Duration) {
	var streams []*stream
	var rates []float64
	if r.w.writes != nil {
		streams = []*stream{r.writeStream(r.clients[0], tr), r.readStream(r.clients[1:], tr)}
		rates = []float64{r.w.writeRate, r.w.readRate}
	} else {
		streams = []*stream{r.readStream(r.clients, tr)}
		rates = []float64{r.w.readRate}
	}
	start := time.Now()
	var (
		mu  sync.Mutex
		out []*sample
		wg  sync.WaitGroup
	)
	for i, st := range streams {
		wg.Add(1)
		go func(st *stream, rate float64) {
			defer wg.Done()
			var ss []*sample
			if open {
				ss = openLoop(st, rate, d)
			} else {
				ss = closedLoop(st, d)
			}
			mu.Lock()
			out = append(out, ss...)
			mu.Unlock()
		}(st, rates[i])
	}
	wg.Wait()
	wall := time.Since(start)
	r.record(out)
	return out, start, wall
}

// prepare computes the correctness references that do not depend on
// what the server answers.
func (r *runner) prepare() error {
	switch r.w.name {
	case "match-label":
		l, err := newLayers(r.w.graphs, 0)
		if err != nil {
			return err
		}
		r.refs, err = matchRefs(r.w, l)
		return err
	case "search-content":
		var err error
		r.ref, err = newLayers(r.w.graphs, len(r.w.graphs)+8)
		r.searchRefs = map[int][]string{}
		return err
	}
	return nil
}

// checkReads runs the per-response gates over samples.
func (r *runner) checkReads(ss []*sample) error {
	switch r.w.name {
	case "match-label":
		checkMatchLabel(&r.gates, r.w, r.refs, ss)
	case "search-content":
		return checkSearchContent(&r.gates, r.w, r.ref, r.searchRefs, ss)
	}
	return nil
}

// checkDurable is patch-mixed's final gate: after writes stop the
// served graph equals the replay of the acknowledged patches, and
// still does after kill -9 and a restart on the same store; the store
// then folds offline to exactly the replayed graph.
func (r *runner) checkDurable() error {
	if r.w.writes == nil {
		return nil
	}
	if r.uncertain > 0 {
		r.gates.fail("%d writes have an unknown outcome (transport errors)", r.uncertain)
		return nil
	}
	pg := r.w.writes
	ps, err := newProbeSet(pg.g, pg.touched, r.seed)
	if err != nil {
		return err
	}
	ps.check(&r.gates, r.clients[0], r.srv.base, "after writes stopped")
	r.srv.kill()
	closeClients(r.clients)
	start := time.Now()
	srv, err := startServer(r.bin, r.storeDir, r.w.serverArgs)
	if err != nil {
		return err
	}
	r.srv = srv
	if err := srv.waitReady(r.clients[0]); err != nil {
		return err
	}
	r.restart = fmt.Sprintf("%-22s %10.3f s     (kill -9, then restart and replay of %d acknowledged patches)",
		"restart_s", time.Since(start).Seconds(), pg.acked)
	ps.check(&r.gates, r.clients[0], srv.base, "after kill -9 and restart")
	srv.stop()
	r.srv = nil
	checkStore(&r.gates, r.storeDir, pg.g)
	return nil
}

// endToEnd is the --trace 0 run: rounds of set-up, open loop and
// closed loop, each on a freshly started server, so every round starts
// from the same state. Every reported figure is a median over the
// rounds, or over the closed loops' windows: host noise on a shared
// machine moves single rounds, not the median.
func (r *runner) endToEnd() (result, error) {
	if err := r.prepare(); err != nil {
		return result{}, err
	}
	rounds := r.w.rounds
	d := time.Duration(r.secs * float64(time.Second) / float64(rounds))
	openD := time.Duration(float64(d) * openShare)
	cpuBefore, err := cpuJiffies()
	if err != nil {
		return result{}, err
	}
	var (
		setupCPU, setupWall, rss []float64
		readRates, writeRates    []float64
		closedReads, closedWrite phaseStats
		openReads, openWrites    []phaseStats
		cpuPerOK, cpuPerAttempt  []float64
		calibs                   []float64 // reference computation CPU ms
		snapRounds               int
	)
	for k := 0; k < rounds; k++ {
		// Every round's open loop sends the same reads from the start of
		// the pool, which it covers, so rounds repeat one measurement.
		r.readSeq, r.contentSeq, r.uncertain = 0, 0, 0
		if r.w.writes != nil {
			r.w.writes = newPatchGen(r.w.graphs[0].g, r.w.writeSeed)
		}
		// Each round sets up r.w.setups/rounds times and measures the
		// last server: one set-up is short, so its median needs more
		// samples than there are rounds. The server's CPU time from
		// process start to warm is the set-up figure the result carries:
		// unlike wall time it leaves out the time the host gave to other
		// guests.
		var (
			t        time.Duration
			cpuSetup float64
		)
		for j := 0; j < r.w.setups/rounds; j++ {
			if r.srv != nil {
				r.srv.stop()
				_ = os.RemoveAll(r.storeDir)
			}
			if t, err = r.setup(k); err != nil {
				return result{}, err
			}
			if cpuSetup, err = r.srv.cpuMS(); err != nil {
				return result{}, err
			}
			setupCPU, setupWall = append(setupCPU, cpuSetup/1000), append(setupWall, t.Seconds())
		}
		snaps0, err := scrapeMetrics(r.clients[0], r.srv.base)
		if err != nil {
			return result{}, err
		}
		// The reference computation runs right before and right after
		// the open loop, while the server is idle.
		c, err := calibrate()
		if err != nil {
			return result{}, err
		}
		calibs = append(calibs, c)
		// The open loop runs first, so it always starts from the
		// freshly warmed state; the closed loop's work varies with
		// throughput.
		cpu0, err := r.srv.cpuMS()
		if err != nil {
			return result{}, err
		}
		opn, _, ow := r.phase(true, openD, nil)
		cpu1, err := r.srv.cpuMS()
		if err != nil {
			return result{}, err
		}
		snaps1, err := scrapeMetrics(r.clients[0], r.srv.base)
		if err != nil {
			return result{}, err
		}
		snaps := delta(snaps0, snaps1, "phomd_store_snapshots_total")
		if snaps > 0 {
			snapRounds++
		}
		// CPU per successful operation, so that operations failing
		// faster cannot read as a saving; per attempted operation only
		// when none succeeded.
		okOps := 0
		for _, s := range opn {
			if s.ok() {
				okOps++
			}
		}
		cpuPerAttempt = append(cpuPerAttempt, (cpu1-cpu0)/float64(len(opn)))
		if okOps > 0 {
			cpuPerOK = append(cpuPerOK, (cpu1-cpu0)/float64(okOps))
		}
		// Peak memory is read after the open loop, whose work is fixed by
		// its rate; after the closed loop it would track throughput.
		m, err := r.srv.peakRSSMB()
		if err != nil {
			return result{}, err
		}
		rss = append(rss, m)
		if c, err = calibrate(); err != nil {
			return result{}, err
		}
		calibs = append(calibs, c)
		cs, cstart, cw := r.phase(false, d-openD, nil)
		cr, cwr := summarize(cs, false, cw), summarize(cs, true, cw)
		readRates = append(readRates, windowRates(cs, false, cstart, cw)...)
		writeRates = append(writeRates, windowRates(cs, true, cstart, cw)...)
		closedReads.add(cr)
		closedWrite.add(cwr)
		ro, wo := summarize(opn, false, ow), summarize(opn, true, ow)
		openReads, openWrites = append(openReads, ro), append(openWrites, wo)
		r.linef("round %d: setup %.3f s CPU %.3f s wall, closed %.1f reads/s %.1f writes/s, open p50/p99 reads %.2f/%.2f ms writes %.2f/%.2f ms, CPU %.3f ms/attempt, %.0f snapshots in the open loop, peak RSS %.0f MB",
			k, cpuSetup/1000, t.Seconds(), cr.opsPerSec(), cwr.opsPerSec(), q0(ro.lats, 0.5), q0(ro.lats, 0.99), q0(wo.lats, 0.5), q0(wo.lats, 0.99),
			cpuPerAttempt[len(cpuPerAttempt)-1], snaps, m)
		if err := r.checkReads(append(cs, opn...)); err != nil {
			return result{}, err
		}
	}
	cpuAfter, err := cpuJiffies()
	if err != nil {
		return result{}, err
	}
	// The last round's server carries the durability gate.
	if err := r.checkDurable(); err != nil {
		return result{}, err
	}
	reads, writes := roundLatency(openReads), roundLatency(openWrites)
	attempted, failed := r.counts()
	cpuPerOp, cpuBasis := median(cpuPerOK), "successful"
	if len(cpuPerOK) < rounds {
		// Some round had no successful operation: use one basis for all.
		cpuPerOp, cpuBasis = median(cpuPerAttempt), "attempted (some round had no successful one)"
	}
	// speed scales CPU times to a host at reference speed (calib.go).
	speed := calibRefMS / median(calibs)

	r.linef("workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  (%d rounds)", r.w.name, r.seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rounds)
	r.linef("%-22s %10.3f s     (median of %d set-ups: server CPU time from process start to registered over HTTP and warm, at reference speed)",
		"setup_s", median(setupCPU)*speed, len(setupCPU))
	r.linef("%-22s %10.3f s     (the same CPU time as measured, quartiles %.3f-%.3f)",
		"setup_cpu_s", median(setupCPU), quantile(setupCPU, 0.25), quantile(setupCPU, 0.75))
	r.linef("%-22s %10.3f s     (the same set-ups in wall time)", "setup_wall_s", median(setupWall))
	r.rateLine("read_ops_s", median(readRates), closedReads, rounds)
	r.rateLine("write_ops_s", median(writeRates), closedWrite, rounds)
	r.latLines("read", reads)
	r.latLines("write", writes)
	r.linef("%-22s %10.4f      (%d of %d operations failed or refused: %d refused 429, %d 5xx)",
		"failed_frac", frac(float64(failed), float64(attempted)), failed, attempted,
		closedReads.refused+closedWrite.refused+reads.all.refused+writes.all.refused,
		closedReads.errors5x+closedWrite.errors5x+reads.all.errors5x+writes.all.errors5x)
	r.linef("%-22s %s", "failed_by_class", r.failedByClass())
	r.linef("%-22s %10.3f ms    (server CPU time over the open loop's %s operations, host steal excluded; median over rounds, at reference speed)",
		"cpu_ms_per_op", cpuPerOp*speed, cpuBasis)
	r.linef("%-22s %10.3f ms    (the same CPU time as measured)", "cpu_ms_per_op_raw", cpuPerOp)
	r.linef("%-22s %10.3f ms    (the measured CPU time over every attempted operation)", "cpu_ms_per_attempt", median(cpuPerAttempt))
	r.linef("%-22s %10.3f       (reference computation: %.1f ms CPU at reference speed over the median of %d runs beside the open loops, quartiles %.1f-%.1f ms)",
		"host_speed", speed, calibRefMS, len(calibs), quantile(calibs, 0.25), quantile(calibs, 0.75))
	r.linef("%-22s %10.1f MB    (server VmHWM after the open loop, median over rounds)", "peak_rss_mb", median(rss))
	if r.w.writes != nil {
		r.linef("%-22s %10d       (of %d rounds whose open loop included a store snapshot)", "snapshot_rounds", snapRounds, rounds)
	}
	r.linef("%-22s %10.3f ms    (open loop: p99 of how late an idle connection sent a due operation)",
		"bench.late_p99_ms", q0(append(reads.all.late, writes.all.late...), 0.99))
	r.linef("%-22s %10.3f       (share of CPU time the host gave to other guests during the rounds)",
		"host_steal_frac", stealFrac(cpuBefore, cpuAfter))
	if r.restart != "" {
		r.linef("%s", r.restart)
	}
	r.linef("correctness: %d answers checked, %d gate failures", r.gates.checked, len(r.gates.failures))

	// The result carries the figures that repeat best across runs on a
	// shared 2-vCPU host: the server's CPU time to set up, its CPU time
	// per operation of the open loop's fixed traffic mix, and its peak
	// memory. CPU time leaves out the time the host gave to other
	// guests, and the scaling to reference speed the slowing their
	// load causes to the CPU it does get. Closed-loop capacity, open-loop latency and wall-clock set-up time
	// also take the stolen time (capacity moved by a quarter between
	// quiet and busy hours here), so they are printed above but not
	// gated.
	res := result{
		Correct: r.gates.ok(), Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setupCPU) * speed, "s"},
			"cpu_ms_per_op": {cpuPerOp * speed, "ms"},
			"peak_rss_mb":   {median(rss), "MB"},
		},
	}
	r.dropUndefined(res.Metrics)
	return res, nil
}

// dropUndefined removes metrics that have no samples (NaN), such as
// latencies when every operation was refused, and notes them.
func (r *runner) dropUndefined(ms map[string]metric) {
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(ms, k)
			r.linef("note: %s omitted from the result: no successful samples", k)
		}
	}
}

// failedByClass lists, per operation class, how many operations
// failed or were refused out of how many were attempted.
func (r *runner) failedByClass() string {
	type count struct{ failed, attempted int }
	byClass := map[string]*count{}
	var names []string
	for _, s := range r.all {
		name := "write"
		if !s.op.write {
			name = s.op.class()
		}
		c := byClass[name]
		if c == nil {
			c = &count{}
			byClass[name] = c
			names = append(names, name)
		}
		c.attempted++
		if !s.ok() {
			c.failed++
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		c := byClass[n]
		parts[i] = fmt.Sprintf("%s %d/%d (%.1f%%)", n, c.failed, c.attempted, 100*frac(float64(c.failed), float64(c.attempted)))
	}
	return strings.Join(parts, ", ")
}

func (r *runner) counts() (attempted, failed int) {
	for _, s := range r.all {
		attempted++
		if !s.ok() {
			failed++
		}
	}
	return
}

func (r *runner) rateLine(name string, rate float64, ps phaseStats, rounds int) {
	if ps.attempted == 0 {
		return
	}
	r.linef("%-22s %10.2f 1/s   (closed loop, %d connections, median of %d windows; %d of %d succeeded)",
		name, rate, connections, rounds*windows, len(ps.lats), ps.attempted)
}

func (r *runner) latLines(class string, rl roundLat) {
	ps := rl.all
	if ps.attempted == 0 {
		return
	}
	if len(ps.lats) == 0 {
		r.linef("%-22s %10s       (no successful samples: %d of %d refused or failed)",
			class+"_p50_ms", "n/a", ps.failed, ps.attempted)
		r.linef("%-22s %10s", class+"_tail_ms", "n/a")
		return
	}
	r.linef("%-22s %10.3f ms    (open loop, from due time; median over rounds, %d samples)", class+"_p50_ms", rl.p50, len(ps.lats))
	if rl.pct > 0 {
		r.linef("%-22s %10.3f ms    (p%g of all rounds)", class+"_tail_ms", rl.tail, rl.pct)
	}
}

// roundLat is one class's open-loop latency: the median over rounds of
// each round's p50, and the tail of all rounds' samples pooled.
type roundLat struct {
	p50, tail, pct float64
	all            phaseStats
}

func roundLatency(rounds []phaseStats) roundLat {
	var rl roundLat
	var p50s []float64
	for _, ps := range rounds {
		rl.all.add(ps)
		if len(ps.lats) > 0 {
			p50s = append(p50s, quantile(ps.lats, 0.5))
		}
	}
	rl.p50 = median(p50s)
	rl.pct, rl.tail, _ = tail(rl.all.lats)
	return rl
}

// serverElapsedMS is the server-reported time of a successful read.
func serverElapsedMS(s *sample) (float64, bool) {
	if !s.ok() || s.op.write {
		return 0, false
	}
	if s.op.search {
		var resp httpapi.SearchResponse
		if json.Unmarshal(s.body, &resp) != nil {
			return 0, false
		}
		return float64(resp.Stats.Stage1US+resp.Stats.Stage2US) / 1000, true
	}
	var resp httpapi.MatchResponse
	if json.Unmarshal(s.body, &resp) != nil {
		return 0, false
	}
	return float64(resp.ElapsedUS) / 1000, true
}

// traced is the --trace 1 run.
func (r *runner) traced() (result, error) {
	if err := r.prepare(); err != nil {
		return result{}, err
	}
	if _, err := r.setup(0); err != nil {
		return result{}, err
	}
	d := time.Duration(r.secs * float64(time.Second))
	c := r.clients[0]

	light := r.lightPhase(d / 10)
	// Both open loops start the read sequence at the same place, so the
	// tracing overhead compares the same requests.
	r.readSeq, r.contentSeq = 0, 0
	untraced, _, _ := r.phase(true, d*3/10, nil)
	r.readSeq, r.contentSeq = 0, 0
	tr := newTracer()
	before, err := scrapeMetrics(c, r.srv.base)
	if err != nil {
		return result{}, err
	}
	traced, _, tracedWall := r.phase(true, d*3/10, tr)
	after, err := scrapeMetrics(c, r.srv.base)
	if err != nil {
		return result{}, err
	}
	if err := r.checkReads(append(append(light, untraced...), traced...)); err != nil {
		return result{}, err
	}
	if err := r.checkDurable(); err != nil {
		return result{}, err
	}
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}

	rep, err := r.replay(tr, d*3/10)
	if err != nil {
		return result{}, err
	}
	m := r.layerMetrics(light, untraced, traced, tracedWall, before, after, tr, rep)
	if err := tr.write(filepath.Join(r.work, "spans.jsonl")); err != nil {
		return result{}, err
	}
	attempted, failed := r.counts()
	r.linef("workload %s  seed %d  traced run: %d spans written to spans.jsonl", r.w.name, r.seed, len(tr.spans))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.linef("%-28s %14.4f %s", k, m[k].Value, m[k].Unit)
	}
	r.linef("note: sim.matrix_mb is computed as 8·n1·n2 bytes per built matrix, not measured")
	r.linef("correctness: %d answers checked, %d gate failures", r.gates.checked, len(r.gates.failures))
	r.dropUndefined(m)
	return result{Correct: r.gates.ok(), Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// mixed is the operation sequence the layer replay and the light-load
// phase share: on patch-mixed, 25 writes then one read (the open loop's
// 200:8 ratio of writes to reads); elsewhere, reads only.
type mixed struct {
	w           *workload
	pg          *patchGen // nil: reads only
	step, reads int
}

func (m *mixed) next() op {
	m.step++
	if m.pg != nil && m.step%26 != 0 {
		return m.pg.next()
	}
	o := m.w.readOp(m.reads)
	m.reads++
	return o
}

// replayReport is what the in-process layer replay measured.
type replayReport struct {
	l            *layers
	summaryBuild time.Duration
	readEngineMS map[string][]float64 // per read class: time of the worker-side calls
	reads        int
}

// replay drives the workload's generated operation sequence through the
// layers in-process, one operation at a time, for about budget.
func (r *runner) replay(tr *tracer, budget time.Duration) (*replayReport, error) {
	graphs := r.w.graphs
	var pg *patchGen
	if r.w.writes != nil {
		// The writer sequence restarts from the generated graph.
		pg = newPatchGen(graphs[0].g, r.w.writeSeed)
	}
	l, err := newLayers(graphs, 0)
	if err != nil {
		return nil, err
	}
	l.tr, l.stream, l.count = tr, "replay", true
	if pg != nil {
		dir := filepath.Join(r.work, "replay-store")
		_ = os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if _, err := st.Append(store.Op{Kind: store.OpRegister, Name: patchGraph, Graph: graphs[0].g}); err != nil {
			return nil, err
		}
		l.st = st
	}
	rep := &replayReport{l: l, readEngineMS: map[string][]float64{}}
	// The first stage-1 call summarises every registered graph.
	start := time.Now()
	l.warmIndex(r.w.queries[0].pattern)
	rep.summaryBuild = time.Since(start)

	deadline := time.Now().Add(budget)
	seq := &mixed{w: r.w, pg: pg}
	for step := 0; step == 0 || time.Now().Before(deadline); step++ {
		o := seq.next()
		l.engineTime = 0
		if err := l.replayOp(step, o); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", step, err)
		}
		if o.write {
			if err := pg.commit(o); err != nil {
				return nil, err
			}
		} else {
			rep.readEngineMS[o.class()] = append(rep.readEngineMS[o.class()], ms(l.engineTime))
			rep.reads++
		}
	}
	return rep, nil
}
