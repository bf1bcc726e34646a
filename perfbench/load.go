package main

import (
	"net/http"
	"sync"
	"time"
)

// sample is the outcome of one operation sent to the server.
type sample struct {
	op     op
	status int
	err    error
	due    time.Time // open loop: when the operation was due; zero in a closed loop
	sent   time.Time
	end    time.Time
	late   time.Duration // open loop: send − due for operations sent by an idle connection
	idle   bool
	body   []byte // reads only
}

func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// latency is measured from the due time in an open loop (so a stall
// also counts against the operations queued behind it) and from the
// send time in a closed loop.
func (s *sample) latency() time.Duration {
	if !s.due.IsZero() {
		return s.end.Sub(s.due)
	}
	return s.end.Sub(s.sent)
}

// stream is one ordered source of operations served by a set of
// connections.
type stream struct {
	name    string
	clients []*http.Client
	base    string
	mu      sync.Mutex
	next    func() op           // called under mu, in ticket order
	settle  func(o op, ok bool) // optional; called after each response
	tr      *tracer             // nil: untraced
}

func (st *stream) send(c *http.Client, s *sample) {
	s.sent = time.Now()
	status, body, err := do(c, s.op.method, st.base+s.op.path, s.op.body)
	s.end = time.Now()
	s.status, s.err = status, err
	if !s.op.write {
		s.body = body
	}
	if st.settle != nil {
		st.settle(s.op, s.ok())
	}
	if st.tr != nil {
		root := st.tr.add(0, "bench.op", s.op.id, st.name, s.sent, s.end)
		if !s.due.IsZero() {
			st.tr.add(root, "bench.wait", s.op.id, st.name, s.due, s.sent)
		}
		st.tr.add(root, "http.roundtrip", s.op.id, st.name, s.sent, s.end)
	}
}

// closedLoop keeps every connection of st busy for d and returns the
// samples.
func closedLoop(st *stream, d time.Duration) []*sample {
	deadline := time.Now().Add(d)
	var (
		mu  sync.Mutex
		out []*sample
		wg  sync.WaitGroup
	)
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var mine []*sample
			for time.Now().Before(deadline) {
				st.mu.Lock()
				s := &sample{op: st.next()}
				st.mu.Unlock()
				st.send(c, s)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// openLoop issues operations at a fixed arrival rate for d over st's
// connections. Operation k is due at start + k/rate; a connection takes
// the next due operation as soon as it is free, so when the server
// falls behind, operations wait and their latency grows.
func openLoop(st *stream, rate float64, d time.Duration) []*sample {
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(d)
	interval := time.Duration(float64(time.Second) / rate)
	var (
		mu     sync.Mutex
		out    []*sample
		wg     sync.WaitGroup
		ticket int
	)
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var mine []*sample
			for {
				st.mu.Lock()
				due := start.Add(time.Duration(ticket) * interval)
				if !due.Before(end) {
					st.mu.Unlock()
					break
				}
				ticket++
				s := &sample{op: st.next(), due: due}
				st.mu.Unlock()
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					s.idle = true
					s.late = time.Since(due)
				}
				st.send(c, s)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// phaseStats summarises one class of samples (reads or writes) of a
// phase.
type phaseStats struct {
	attempted, failed int
	refused, errors5x int
	lats              []float64 // ms, successful operations only
	late              []float64 // ms, open loop only
	wall              time.Duration
}

func summarize(ss []*sample, write bool, wall time.Duration) phaseStats {
	ps := phaseStats{wall: wall}
	for _, s := range ss {
		if s.op.write != write {
			continue
		}
		ps.attempted++
		if s.idle {
			ps.late = append(ps.late, ms(s.late))
		}
		if !s.ok() {
			ps.failed++
			switch {
			case s.status == http.StatusTooManyRequests:
				ps.refused++
			case s.status >= 500:
				ps.errors5x++
			}
			continue
		}
		ps.lats = append(ps.lats, ms(s.latency()))
	}
	return ps
}

// add pools o's counts and latencies into ps.
func (ps *phaseStats) add(o phaseStats) {
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.refused += o.refused
	ps.errors5x += o.errors5x
	ps.lats = append(ps.lats, o.lats...)
	ps.late = append(ps.late, o.late...)
	ps.wall += o.wall
}

// windowRates splits a closed loop that started at start and lasted
// wall into equal windows and returns each window's rate of successful
// operations of one class. Their median is steadier on a shared host
// than one rate over the whole loop: a burst of host contention moves
// a few windows, not the median.
func windowRates(ss []*sample, write bool, start time.Time, wall time.Duration) []float64 {
	w := wall / windows
	rates := make([]float64, windows)
	for _, s := range ss {
		if s.op.write != write || !s.ok() {
			continue
		}
		rates[min(int(s.end.Sub(start)/w), windows-1)]++
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}

// opsPerSec is the rate of successful operations.
func (ps phaseStats) opsPerSec() float64 {
	return float64(len(ps.lats)) / ps.wall.Seconds()
}
