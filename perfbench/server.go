package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphmatch/internal/metrics"
)

// server is one phomd child process started from the built binary with
// its shipped defaults plus -store and the workload's flags.
type server struct {
	cmd      *exec.Cmd
	addr     string
	base     string
	storeDir string
	exited   chan struct{}

	mu  sync.Mutex
	log []string // last stderr lines, for diagnostics
}

var listenRE = regexp.MustCompile(`phomd listening on (\S+) \(booting\)`)

// startServer launches phomd on an ephemeral loopback port over
// storeDir, with extra flags after its defaults, and returns once the
// listener address is known.
func startServer(bin, storeDir string, extra []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-store", storeDir}, extra...)...)
	// Kill the server if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, storeDir: storeDir, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			s.mu.Lock()
			s.log = append(s.log, line)
			if len(s.log) > 50 {
				s.log = s.log[len(s.log)-50:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.exited:
		return nil, fmt.Errorf("phomd exited before listening:\n%s", s.tail())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("phomd did not report its address within 30s:\n%s", s.tail())
	}
	s.base = "http://" + s.addr
	return s, nil
}

// tail returns the last stderr lines of the server.
func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}

// waitReady polls /readyz until the server answers 200.
func (s *server) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("phomd exited while booting:\n%s", s.tail())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("phomd not ready within 60s")
}

// peakRSSMB reads the server's peak resident set size (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuMS returns the server's CPU time so far in milliseconds: the sum
// over its threads of the time on CPU that /proc/<pid>/task/*/schedstat
// reports, which leaves out time the host gave to other guests.
func (s *server) cpuMS() (float64, error) {
	return procCPUMS(s.cmd.Process.Pid)
}

// procCPUMS returns the CPU time so far of process pid in milliseconds,
// summed over its threads as cpuMS describes.
func procCPUMS(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e6, nil
}

// cpuJiffies reads the host-wide cpu line of /proc/stat: time spent in
// each CPU state since boot, in clock ticks.
func cpuJiffies() ([]float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	out := make([]float64, len(f)-1)
	for i, v := range f[1:] {
		if out[i], err = strconv.ParseFloat(v, 64); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stealFrac is the share of CPU time between two cpuJiffies readings
// that the hypervisor gave to other guests (the steal column).
func stealFrac(before, after []float64) float64 {
	var total float64
	for i := range after {
		total += after[i] - before[i]
	}
	return frac(after[7]-before[7], total)
}

// stop shuts the server down gracefully (SIGTERM) and waits for it,
// falling back to SIGKILL after 15 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// newClients returns n HTTP clients that each hold at most one
// keep-alive connection, so the load generator never opens more than
// n connections to the server.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return out
}

// closeClients drops the clients' idle connections.
func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// do sends one request and returns the status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape is one parsed /metrics exposition.
type scrape map[string]*metrics.Family

// scrapeMetrics fetches and parses /metrics.
func scrapeMetrics(c *http.Client, base string) (scrape, error) {
	st, b, err := do(c, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", st)
	}
	return metrics.Parse(bytes.NewReader(b))
}

// value returns the sum of the samples named name (a counter, gauge,
// or a histogram's _sum/_count series), 0 when absent.
func (s scrape) value(family, name string) float64 {
	f, ok := s[family]
	if !ok {
		return 0
	}
	var v float64
	for _, smp := range f.Samples {
		if smp.Name == name {
			v += smp.Value
		}
	}
	return v
}

// counter is the value of a counter or gauge family.
func (s scrape) counter(family string) float64 { return s.value(family, family) }

// delta is the change of a counter between two scrapes.
func delta(before, after scrape, family string) float64 {
	return after.counter(family) - before.counter(family)
}

// histDelta is the change of one histogram between two scrapes: its
// count, its sum, and its per-bucket counts.
type histDelta struct {
	count, sum float64
	buckets    []metrics.Sample
}

func histogramDelta(before, after scrape, family string) histDelta {
	d := histDelta{
		count: after.value(family, family+"_count") - before.value(family, family+"_count"),
		sum:   after.value(family, family+"_sum") - before.value(family, family+"_sum"),
	}
	prev, cur := buckets(before, family), buckets(after, family)
	for le, v := range cur {
		d.buckets = append(d.buckets, metrics.Sample{
			Name: family + "_bucket", Labels: map[string]string{"le": le}, Value: v - prev[le],
		})
	}
	return d
}

// buckets sums a histogram's bucket counts per upper bound across its
// series.
func buckets(s scrape, family string) map[string]float64 {
	out := map[string]float64{}
	if f, ok := s[family]; ok {
		for _, smp := range f.Samples {
			if smp.Name == family+"_bucket" {
				out[smp.Labels["le"]] += smp.Value
			}
		}
	}
	return out
}

// quantile estimates a quantile of the delta histogram; 0 when empty.
func (d histDelta) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	return metrics.HistogramQuantile(q, d.buckets)
}

// mean is the delta histogram's mean observation; 0 when empty.
func (d histDelta) mean() float64 { return frac(d.sum, d.count) }
