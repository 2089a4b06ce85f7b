package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// slices is how many equal parts a timed window is cut into: throughput
// and CPU per op are the medians over the slices, so a burst of
// interference from outside the process moves one slice, not the figure.
const slices = 10

// window is the outcome of one timed closed-loop window.
type window struct {
	// lat holds the latency of every successful op, in nanoseconds.
	lat       []int64
	attempted int64
	failed    int64
	// sliceOps, sliceDur and sliceCPU are the successful ops, wall time
	// and process CPU time of each slice.
	sliceOps []int64
	sliceDur []time.Duration
	sliceCPU []time.Duration
	// mem0 and mem1 are runtime statistics read just outside the window.
	mem0, mem1 runtime.MemStats
}

// ops is the number of successful ops in the window.
func (w *window) ops() int64 { return int64(len(w.lat)) }

// sliceRates is the successful ops per second of each slice.
func (w *window) sliceRates() []float64 {
	rates := make([]float64, len(w.sliceOps))
	for k := range rates {
		rates[k] = float64(w.sliceOps[k]) / w.sliceDur[k].Seconds()
	}
	return rates
}

// throughput is the median over the slices of successful ops per second.
func (w *window) throughput() float64 { return median(w.sliceRates()) }

// cpuMsPerOp is the median over the slices of process CPU time per
// successful op, in milliseconds.
func (w *window) cpuMsPerOp() float64 {
	per := make([]float64, len(w.sliceOps))
	for k := range per {
		per[k] = float64(w.sliceCPU[k]) / 1e6 / float64(max(w.sliceOps[k], 1))
	}
	return median(per)
}

// meanMs is the mean latency of the successful ops in milliseconds.
func (w *window) meanMs() float64 {
	var sum int64
	for _, v := range w.lat {
		sum += v
	}
	return float64(sum) / float64(len(w.lat)) / 1e6
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// errLog keeps the first few op errors for standard error; the rest are
// only counted.
type errLog struct {
	mu   sync.Mutex
	seen int
}

func (l *errLog) report(i int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if l.seen <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
	}
}

// measure runs a closed loop of clients for d: each client takes the next
// op index from next, runs op and waits for it before taking another. Ops
// started before the deadline run to completion and count; the last
// slice ends when the last of them does. A positive limit instead stops
// the loop once op index limit is reached, and the window is not sliced.
func measure(clients int, next *atomic.Int64, d time.Duration, limit int64, op func(worker int, i int64) error) window {
	var w window
	lats := make([][]int64, clients)
	var failed, done atomic.Int64
	var log errLog
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := make([]int64, 0, 1<<14)
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					break
				}
				t0 := time.Now()
				err := op(c, i)
				dt := time.Since(t0)
				if err != nil {
					failed.Add(1)
					log.report(i, err)
					continue
				}
				own = append(own, int64(dt))
				done.Add(1)
			}
			lats[c] = own
		}(c)
	}
	if limit == 0 {
		// Cut the window at the slice boundaries while the clients run.
		prevOps, prevCPU, prevT := int64(0), cpuTime(), time.Duration(0)
		cut := func(t time.Duration) {
			ops, cpu := done.Load(), cpuTime()
			w.sliceOps = append(w.sliceOps, ops-prevOps)
			w.sliceDur = append(w.sliceDur, t-prevT)
			w.sliceCPU = append(w.sliceCPU, cpu-prevCPU)
			prevOps, prevCPU, prevT = ops, cpu, t
		}
		for k := 1; k < slices; k++ {
			at := time.Duration(k) * d / slices
			time.Sleep(time.Until(start.Add(at)))
			cut(at)
		}
		wg.Wait()
		cut(time.Since(start))
	} else {
		wg.Wait()
		// The clients that stopped at the limit drew indices past it.
		next.Store(limit)
	}
	runtime.ReadMemStats(&w.mem1)
	for _, l := range lats {
		w.lat = append(w.lat, l...)
	}
	w.failed = failed.Load()
	w.attempted = w.ops() + w.failed
	return w
}

// quantile returns the exact q-quantile of the samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It sorts samples in place.
func quantile(samples []int64, q float64) int64 {
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// medianSetUp runs build reps times, timing each, releases every instance
// but the last, and returns the last instance with the median time in
// seconds.
func medianSetUp[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			release(last)
		}
		// Every repetition starts from a collected heap.
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up repetition %d: %w", r, err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	say("setup: %d repetitions %.4v s, median %.4v s", reps, times, median(times))
	return last, median(times), nil
}

// timerOverhead estimates the cost of one time.Now/time.Since pair, the
// bias a sampled span carries on top of the work it times.
func timerOverhead() time.Duration {
	const n = 1 << 16
	ds := make([]int64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = int64(time.Since(t0))
	}
	return time.Duration(quantile(ds, 0.5))
}
