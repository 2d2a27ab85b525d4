package main

import (
	"crypto/sha256"
	"slices"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by a third within
// minutes, more than any bound a change is held to. So every time the
// benchmark reports is scaled to a reference host speed: a fixed kernel
// of the benchmark's own code, which no change to the program can speed
// up or slow down, runs before and after the timed work, and a time d
// measured while the kernel took k (the mean of the two) is reported as
// d * refKernel / k. The kernel runs on as many goroutines as the
// campaign pool has workers, so that it loads the host as a pass does.
const (
	// refKernel is the kernel's median time on the reference host, a
	// shared 2-vCPU VM (Intel Xeon @ 2.0 GHz).
	refKernel = 50 * time.Millisecond
	// calEvery is how long a kernel time is used before it is measured
	// again.
	calEvery = time.Second
)

// Kernel size: each goroutine fills, sorts and indexes kernelN words,
// then hashes, kernelRounds times.
const (
	kernelN      = 1 << 16
	kernelRounds = 5
	kernelHashes = 3000
)

// hostClock measures the kernel and scales times by it.
type hostClock struct {
	kernels []time.Duration
	at      time.Time // when the last kernel time was measured
	scratch [workers]kernelScratch
}

// interval is a measured time and the index of the last kernel time
// measured before it.
type interval struct {
	d   time.Duration
	cal int
}

// kernelScratch is one goroutine's kernel memory, allocated once, so that
// the kernel does not allocate and its time does not depend on the heap
// the program left behind.
type kernelScratch struct {
	xs  []uint64
	idx map[uint64]int
	sum [32]byte
}

// calibrate measures the kernel time.
func (c *hostClock) calibrate() {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range c.scratch {
		s := &c.scratch[w]
		if s.xs == nil {
			s.xs = make([]uint64, kernelN)
			s.idx = make(map[uint64]int, kernelN/8)
		}
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s.run(seed)
		}(uint64(w)*2 + 1)
	}
	wg.Wait()
	c.at = time.Now()
	c.kernels = append(c.kernels, c.at.Sub(start))
}

func (s *kernelScratch) run(x uint64) {
	for r := 0; r < kernelRounds; r++ {
		for i := range s.xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.xs[i] = x
		}
		slices.Sort(s.xs)
		clear(s.idx)
		for i := 0; i < kernelN/8; i++ {
			s.idx[s.xs[i*7%kernelN]] = i
		}
		for i := 0; i < kernelHashes; i++ {
			s.sum = sha256.Sum256(s.sum[:])
		}
	}
}

// tick measures the kernel time again if the last one is older than
// calEvery. Call it before starting a time that interval will record.
func (c *hostClock) tick() {
	if len(c.kernels) == 0 || time.Since(c.at) >= calEvery {
		c.calibrate()
	}
}

// interval records d, measured since the last tick.
func (c *hostClock) interval(d time.Duration) interval {
	return interval{d, len(c.kernels) - 1}
}

// scale returns the intervals at the reference host speed. Each is
// scaled by the mean of the kernel times measured last before it and
// first after it, so calibrate must have run after the last interval.
func (c *hostClock) scale(ivs []interval) []time.Duration {
	out := make([]time.Duration, len(ivs))
	for i, iv := range ivs {
		k := (c.kernels[iv.cal] + c.kernels[iv.cal+1]) / 2
		out[i] = time.Duration(float64(iv.d) * float64(refKernel) / float64(k))
	}
	return out
}

func durations(ivs []interval) []time.Duration {
	ds := make([]time.Duration, len(ivs))
	for i, iv := range ivs {
		ds[i] = iv.d
	}
	return ds
}
