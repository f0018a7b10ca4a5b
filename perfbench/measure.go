package main

import (
	"hash/maphash"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"time"

	"parabit/internal/wallclock"
)

// sample is one operation as the benchmark saw it from outside the
// program: which kind it was, how long the host waited for it, the
// modelled latency the program reported, and a digest of the returned
// bytes that the oracle checks after the timed window. It holds no
// pointers, so the garbage collector never scans the window's records.
type sample struct {
	kind   int
	failed bool
	at     time.Duration // completion, on the run clock
	wall   time.Duration
	sim    time.Duration
	digest uint64
}

// digestSeed is fixed for the process, so digests taken in the timed
// window and by the oracle afterwards compare.
var digestSeed = maphash.MakeSeed()

func digest(b []byte) uint64 {
	if b == nil {
		return 0
	}
	return maphash.Bytes(digestSeed, b)
}

// runStart is the origin of the run clock. All host time goes through
// internal/wallclock, the program's only wall-clock gateway.
var runStart = wallclock.Start()

// now reads the run clock: host time since the process started.
func now() time.Duration { return runStart.Elapsed() }

// timeIt returns how long f took on the host.
func timeIt(f func()) time.Duration {
	start := now()
	f()
	return now() - start
}

// window decides when the timed interval ends: once the requested host
// seconds have passed and at least quota operations have completed. The
// quota prefix is the deterministic span: on a single-submitter workload
// the program sees the same commands in the same order up to it on every
// run with the same seed, whatever the host speed.
type window struct {
	start   time.Duration
	seconds time.Duration
	quota   int
	pauses  []span // intervals the clock was stopped, on the run clock
	// pausedAlloc is the host bytes allocated while the clock was stopped.
	pausedAlloc uint64
}

func newWindow(seconds float64, quota int) *window {
	return &window{start: now(), seconds: time.Duration(seconds * float64(time.Second)), quota: quota}
}

func (w *window) done(ops int) bool {
	return ops >= w.quota && w.elapsed() >= w.seconds
}

// elapsed is the window's host time so far, pauses excluded.
func (w *window) elapsed() time.Duration { return w.running(w.start, now()) }

// running is the host time between from and to while the window's
// clock ran.
func (w *window) running(from, to time.Duration) time.Duration {
	d := to - from
	for _, p := range w.pauses {
		if lo, hi := max(p.start, from), min(p.end, to); hi > lo {
			d -= hi - lo
		}
	}
	return d
}

// pause runs f with the window's clock stopped.
func (w *window) pause(f func()) {
	start := now()
	m := markMem()
	f()
	w.pausedAlloc += m.allocSince()
	w.pauses = append(w.pauses, span{start: start, end: now()})
}

// subWindows is how many consecutive slices of equal operation count the
// host figures are taken over. Each reports its rate and latency
// percentiles; the metric is their median, which a transient stall of
// the shared host moves far less than a whole-window figure.
const subWindows = 20

// hostFigures returns the median over sub-windows of completed
// operations per host second and of the p50 and p99 host latency.
// samples must be in completion order.
func (w *window) hostFigures(samples []sample) (opsPerS, p50, p99 float64) {
	k := subWindows
	if n := len(samples) / 1000; n < k {
		k = max(n, 1) // p99 keeps at least ten samples beyond it
	}
	var rates, p50s, p99s []float64
	from := w.start
	for i := 0; i < k; i++ {
		chunk := samples[i*len(samples)/k : (i+1)*len(samples)/k]
		to := chunk[len(chunk)-1].at
		ok := successes(chunk)
		walls := durations(ok, func(s sample) time.Duration { return s.wall })
		rates = append(rates, float64(len(ok))/w.running(from, to).Seconds())
		p50s = append(p50s, us(quantile(walls, 0.50)))
		p99s = append(p99s, us(quantile(walls, 0.99)))
		from = to
	}
	return median(rates), median(p50s), median(p99s)
}

// memMark brackets the timed window for alloc_bytes_per_op.
type memMark struct{ totalAlloc uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc}
}

func (m memMark) allocSince() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.totalAlloc
}

// heapMB is the live host heap after a full collection, in MB (1e6 bytes).
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile is the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	r := int(math.Ceil(q*float64(len(ds)))) - 1
	if r < 0 {
		r = 0
	}
	return ds[r]
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// tailMean is the mean of the slowest frac of ds (at least one sample),
// sorting ds in place: a tail figure that, unlike a percentile, moves
// with every sample beyond it.
func tailMean(ds []time.Duration, frac float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(frac * float64(len(ds)))
	if k < 1 {
		k = 1
	}
	return meanDuration(ds[len(ds)-k:])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// counters is a flat snapshot of the program's public counters, keyed
// "<source>.<field>". Deltas of two snapshots taken around the
// deterministic span must repeat exactly for a fixed seed.
type counters map[string]int64

// addStruct flattens the integer fields of a stats struct (nested
// structs and arrays included) into c under prefix. Float fields are
// ratios of the integers and are skipped; name is called for array
// element labels.
func (c counters) addStruct(prefix string, v any, name func(i int) string) {
	c.flatten(prefix, reflect.ValueOf(v), name)
}

func (c counters) flatten(prefix string, v reflect.Value, name func(i int) string) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				c.flatten(prefix+"."+t.Field(i).Name, v.Field(i), name)
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			label := strconv.Itoa(i)
			if name != nil {
				label = name(i)
			}
			c.flatten(prefix+"."+label, v.Index(i), name)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c[prefix] += v.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c[prefix] += int64(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			c[prefix]++
		}
	}
}

// minus returns c - base over c's keys.
func (c counters) minus(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// reclaimEvery is how many operations run between trims of the
// controller's internal reallocation pool. The pool is a bump allocator
// that frees pages only on an explicit Reclaim; without the trim a
// device serving Reallocated traffic fails with "no internal pages"
// after a few thousand operations.
const reclaimEvery = 512

// reclaimer is a program handle with the manual internal-pool trim:
// *parabit.Device and *cluster.Cluster.
type reclaimer interface{ Reclaim() }

// maybeReclaim is the benchmark's single Reclaim call site. It trims
// whenever the completed-operation count moves from before to after
// across a multiple of reclaimEvery, so the trims fall at the same points
// of every run with the same seed.
func maybeReclaim(r reclaimer, before, after int64) {
	if before/reclaimEvery != after/reclaimEvery {
		r.Reclaim()
	}
}
