package main

import (
	"os"
	"runtime"
	"slices"
	"sync"
)

// On a shared host the CPU a process gets runs slower while other
// guests load the machine, even with stolen time left out: the
// server's CPU time per operation moved by a fifth between runs of the
// same code minutes apart. The benchmark therefore times a fixed
// reference computation, which shares no code with phomd, beside every
// measured window, and scales the server's CPU times by calibRefMS over
// the run's median reference time. Gated CPU figures are thus in
// milliseconds of a host running at reference speed, as batch systems
// normalise CPU time by a benchmark score; the raw figures are printed
// beside them.

// calibRefMS is the CPU time of one calibrate call on a quiet 2-vCPU
// Xeon VM (the host the baseline was measured on).
const calibRefMS = 140.0

// calibrate runs the reference computation once on each of GOMAXPROCS
// goroutines and returns the CPU time this process spent, in ms. Call
// it only while the load generator is otherwise idle.
func calibrate() (float64, error) {
	before, err := procCPUMS(os.Getpid())
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	sums := make([]uint64, runtime.GOMAXPROCS(0))
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = refKernel(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	after, err := procCPUMS(os.Getpid())
	if err != nil {
		return 0, err
	}
	return after - before, nil
}

// refKernel is the reference computation: map updates (hashing and
// allocation), dependent random reads over a 16 MB table (cache and
// memory latency) and a sort, a mix like a server's. The result only
// keeps the compiler from dropping the work.
func refKernel(seed uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]uint32)
	for i := 0; i < 1<<15; i++ {
		m[next()&0x3FFFF]++
	}
	const tableBits = 22
	t := make([]uint32, 1<<tableBits)
	for i := range t {
		t[i] = uint32(next())
	}
	var sum uint64
	j := uint32(0)
	for i := 0; i < 1<<18; i++ {
		j = t[j&(1<<tableBits-1)] ^ uint32(i)
		sum += uint64(j)
	}
	s := make([]uint64, 1<<14)
	for i := range s {
		s[i] = next()
	}
	slices.Sort(s)
	return sum + uint64(len(m)) + s[0]
}
