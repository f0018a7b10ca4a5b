package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"parabit"
	"parabit/internal/cluster"
	"parabit/internal/flash"
	"parabit/internal/plan"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
	"parabit/internal/workload"
)

// cluster-bitmap: the §5.3.2 bitmap index served live by
// cluster.BitmapService on 4 shards x 2 replicas, columns placed by chunk,
// 256 B-page shards. Two closed-loop clients (one per vCPU of the
// reference host) run with no QoS caps. Per-operation overhead dominates:
// planning, allocation, routing, the NVMe wire round trip and the
// per-shard scheduler locks. Bitmap generation and load happen in setup.
// ECC and persistence do no work here.

const (
	cbShards   = 4
	cbReplicas = 2
	cbUsers    = 2_000_000
	cbDays     = 6
	cbSkew     = 1.2
	cbClients  = 2
	cbScript   = 1 << 15
	cbPayloads = 256
	cbWarmup   = 128 // per client
	// cbQuota is a floor on window length in operations; the concurrent
	// clients make no deterministic span.
	cbQuota = 2000
)

const (
	cbLocal = iota // chunk-local cross-day AND
	cbCrossChunk
	cbWrite
)

// A cross-chunk OR scatters when its two chunks have no replica on a
// common shard, and routes shard-locally otherwise.
var cbKinds = []string{"query-and", "query-or-cross-chunk", "write-column"}

type cbOp struct {
	kind    int
	scheme  ssd.Scheme
	tree    *qnode // leaves are column keys
	expr    *plan.Expr
	key     uint64
	payload int
}

// cbClient owns the chunks of one parity: it is the only writer and the
// only reader of them, so its shadow of their content is exact even with
// both clients running.
type cbClient struct {
	id       int
	script   []cbOp
	samples  []sample
	routes   []uint8 // index into cbRoutes, per sample
	firstErr error
	next     int
}

// cbRoutes are the routes a query can take; index 0 marks a write.
var cbRoutes = []cluster.Route{"", cluster.RouteLocal, cluster.RouteWire, cluster.RouteScatter}

// routeCode stores a route in one byte, keeping the per-operation
// records free of pointers the garbage collector would scan.
func routeCode(r cluster.Route) uint8 {
	for i, c := range cbRoutes {
		if c == r {
			return uint8(i)
		}
	}
	panic("perfbench: unknown cluster route " + string(r))
}

type clusterBitmap struct {
	c        *cluster.Cluster
	sink     *telemetry.Sink
	page     int
	initial  map[uint64][]byte // column key -> loaded page
	payloads [][]byte
	clients  []*cbClient
	ops      atomic.Int64
}

func setupClusterBitmap(cfg config) (bench, map[string]float64, error) {
	spec := workload.CustomBitmap(cbUsers, cbDays, cbSkew)
	c, err := cluster.New(cluster.Config{
		Shards:      cbShards,
		Replicas:    cbReplicas,
		PlacementOf: cluster.PlacementByChunk,
		Device:      ssd.SmallConfig(),
	})
	if err != nil {
		return nil, nil, err
	}
	cb := &clusterBitmap{c: c, page: c.PageSize()}
	// A metrics-only sink: the route counters are part of the counter
	// snapshot. Tracing stays off until a traced window.
	cb.sink = telemetry.New()
	c.SetTelemetry(cb.sink)
	svc, err := cluster.NewBitmapService(c, spec)
	if err != nil {
		return nil, nil, err
	}
	var data *workload.BitmapData
	gen := timeIt(func() { data, err = workload.GenerateBitmap(spec, cfg.seed) })
	if err != nil {
		return nil, nil, err
	}
	if err := svc.Load("loader", data); err != nil {
		return nil, nil, err
	}
	// The oracle's copy of every loaded page, chunked and zero-padded the
	// way BitmapService.Load stores them.
	cb.initial = make(map[uint64][]byte, cbDays*svc.Chunks())
	for day, col := range data.Columns {
		raw := col.Bytes()
		for chunk := 0; chunk < svc.Chunks(); chunk++ {
			p := make([]byte, cb.page)
			if lo := chunk * cb.page; lo < len(raw) {
				copy(p, raw[lo:])
			}
			cb.initial[cluster.ColumnKey(chunk, day)] = p
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	cb.payloads = randomPages(rng, cbPayloads, cb.page)
	for id := 0; id < cbClients; id++ {
		cl := &cbClient{id: id}
		cl.script = cbGenScript(rand.New(rand.NewSource(rng.Int63())), spec, svc.Chunks(), id)
		cb.clients = append(cb.clients, cl)
	}
	cb.runClients(nil, func(cl *cbClient) bool { return cl.next >= cbWarmup })
	return cb, map[string]float64{"workload.generate_s": gen.Seconds()}, nil
}

// cbGenScript draws one client's cyclic script over the chunks it owns.
func cbGenScript(rng *rand.Rand, spec workload.BitmapSpec, chunks, id int) []cbOp {
	var owned []int
	for ch := id; ch < chunks; ch += cbClients {
		owned = append(owned, ch)
	}
	hot := rand.NewZipf(rng, cbSkew, 1, uint64(len(owned)-1))
	chunk := func() int { return owned[hot.Uint64()] }
	day := spec.DaySampler(rng)
	days := func(k int) []int {
		seen := map[int]bool{}
		var out []int
		for len(out) < k {
			if d := day(); !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
		return out
	}
	script := make([]cbOp, cbScript)
	// Per 9 operations: 6 chunk-local ANDs, 2 cross-chunk ORs and one
	// column rewrite. Queries split 3:1 between the two shapes, as in
	// parabit-bench -cluster's stream; the rewrite share is this
	// benchmark's choice.
	kinds := newDeck(rng, 6, 2, 1)
	width := uniformDeck(rng, 3)
	queries := 0
	for i := range script {
		o := &script[i]
		switch o.kind = kinds.draw(); o.kind {
		case cbLocal:
			ch := chunk()
			ds := days(2 + width.draw())
			leaves := make([]*qnode, len(ds))
			for j, d := range ds {
				leaves[j] = qleaf(cluster.ColumnKey(ch, d))
			}
			o.tree = qop(parabit.And, leaves...)
		case cbCrossChunk:
			a, b := chunk(), chunk()
			for b == a {
				b = owned[rng.Intn(len(owned))]
			}
			ds := days(2)
			o.tree = qop(parabit.Or, qleaf(cluster.ColumnKey(a, ds[0])), qleaf(cluster.ColumnKey(b, ds[1])))
		default:
			o.key = cluster.ColumnKey(chunk(), day())
			o.payload = rng.Intn(cbPayloads)
			continue
		}
		o.expr = o.tree.expr()
		o.scheme = ssd.SchemeLocFree
		if queries%5 == 4 {
			o.scheme = ssd.SchemeFlashCosmos
		}
		queries++
	}
	return script
}

func (cb *clusterBitmap) exec(cl *cbClient, spans *spanLog) {
	i := cl.next
	o := &cl.script[i%cbScript]
	start := now()
	var s sample
	var route cluster.Route
	var err error
	if o.kind == cbWrite {
		// A write's modelled latency runs from the cluster clock at
		// submission (the latest shard's) to the last replica's ack, the
		// convention BitmapService uses for reads; a replica on a shard
		// whose clock lags can finish "before" it, which counts as 0.
		before := cb.c.Now()
		var done sim.Time
		if done, err = cb.c.WriteColumn("bench", o.key, cb.payloads[o.payload]); done > before {
			s.sim = done.Sub(before).Std()
		}
	} else {
		var res cluster.QueryResult
		res, err = cb.c.Query("bench", o.expr, o.scheme)
		s.sim, s.digest, route = res.Elapsed.Std(), digest(res.Data), res.Route
	}
	end := now()
	s.kind, s.failed, s.at, s.wall = o.kind, err != nil, end, end-start
	cl.samples = append(cl.samples, s)
	cl.routes = append(cl.routes, routeCode(route))
	if err != nil && cl.firstErr == nil {
		cl.firstErr = err
	}
	cl.next++
	if spans != nil {
		spans.add(cl.id, cbKinds[o.kind], uint64(cl.id)<<32|uint64(i), start, end)
	}
	n := cb.ops.Add(1)
	maybeReclaim(cb.c, n-1, n)
}

// runClients runs every client concurrently until stop says so.
func (cb *clusterBitmap) runClients(spans *spanLog, stop func(cl *cbClient) bool) {
	var wg sync.WaitGroup
	for _, cl := range cb.clients {
		wg.Add(1)
		go func(cl *cbClient) {
			defer wg.Done()
			for !stop(cl) {
				cb.exec(cl, spans)
			}
		}(cl)
	}
	wg.Wait()
}

func (cb *clusterBitmap) kinds() []string { return cbKinds }
func (cb *clusterBitmap) quota() int      { return cbQuota }

func (cb *clusterBitmap) all() ([]sample, error) {
	var out []sample
	var first error
	for _, cl := range cb.clients {
		out = append(out, cl.samples...)
		if first == nil {
			first = cl.firstErr
		}
	}
	return out, first
}

func (cb *clusterBitmap) window(w *window, spans *spanLog) windowStats {
	base := cb.counters()
	simStart := cb.c.Now()
	firsts := make([]int, len(cb.clients))
	for i, cl := range cb.clients {
		firsts[i] = len(cl.samples)
	}
	var done atomic.Bool
	var inWindow atomic.Int64
	cb.runClients(spans, func(cl *cbClient) bool {
		if done.Load() {
			return true
		}
		if w.done(int(inWindow.Add(1) - 1)) {
			done.Store(true)
			return true
		}
		return false
	})
	var ws windowStats
	ws.elapsed = w.elapsed()
	ws.simMakespan = cb.c.Now().Sub(simStart).Std()
	ws.counters = cb.counters().minus(base)
	// The live heap with both clients stopped, less the benchmark's own
	// per-operation records, which grow with the host's speed: what is
	// left is the cluster's steady state (its shards collect garbage).
	var records uintptr
	for _, cl := range cb.clients {
		records += uintptr(cap(cl.samples))*unsafe.Sizeof(sample{}) + uintptr(cap(cl.routes))
	}
	ws.heapMB = heapMB() - float64(records)/1e6
	routes := map[cluster.Route]int64{}
	routeWalls := map[cluster.Route][]time.Duration{}
	for i, cl := range cb.clients {
		ws.samples = append(ws.samples, cl.samples[firsts[i]:]...)
		for j, code := range cl.routes[firsts[i]:] {
			r := cbRoutes[code]
			routes[r]++
			routeWalls[r] = append(routeWalls[r], cl.samples[firsts[i]+j].wall)
		}
	}
	sort.Slice(ws.samples, func(i, j int) bool { return ws.samples[i].at < ws.samples[j].at })
	ws.simOps = len(ws.samples)
	for _, s := range ws.samples {
		if s.kind != cbWrite {
			ws.sim = append(ws.sim, s)
		}
	}
	// Self-check: the program's route counters agree with the routes the
	// query results reported.
	for _, r := range []cluster.Route{cluster.RouteLocal, cluster.RouteWire, cluster.RouteScatter} {
		if got := ws.counters["cluster.route."+string(r)]; got != routes[r] {
			ws.counters["cluster.route_mismatch."+string(r)] = got - routes[r]
		}
	}
	ws.gauges = cb.gauges()
	for r, ds := range routeWalls {
		if r != "" {
			ws.gauges["cluster.query_ns."+string(r)] = float64(meanDuration(ds))
		}
	}
	return ws
}

// counters sums every shard's public counters, read between batches
// through the shard scheduler, plus the cluster's route counters.
func (cb *clusterBitmap) counters() counters {
	c := counters{}
	cb.c.EachShard(func(sh *cluster.Shard) {
		sh.Scheduler().Exclusive(func(dev *ssd.Device, _ sim.Time) {
			c.addStruct("ssd", dev.Stats(), nil)
			c.addStruct("query", dev.QueryStats(), nil)
			c.addStruct("ftl", dev.FTL().Stats(), nil)
			c.addStruct("flash", dev.Array().Stats(), nil)
		})
		c.addStruct("sched", sh.Scheduler().Stats(), func(i int) string { return sched.Kind(i).String() })
		c["cluster.shard_reads"] += sh.Reads()
	})
	for _, r := range []cluster.Route{cluster.RouteLocal, cluster.RouteWire, cluster.RouteScatter} {
		c["cluster.route."+string(r)] = cb.sink.Counter("cluster.route." + string(r)).Value()
	}
	return c
}

// gauges are ratios over the shards: write amplification, plane
// overlap, and the hottest shard's reads against the mean.
func (cb *clusterBitmap) gauges() map[string]float64 {
	var host, extra int64
	var overlap float64
	var reads []int64
	cb.c.EachShard(func(sh *cluster.Shard) {
		sh.Scheduler().Exclusive(func(dev *ssd.Device, _ sim.Time) {
			st := dev.FTL().Stats()
			host += st.HostPagesWritten
			extra += st.ExtraPagesWritten
		})
		overlap += sh.Scheduler().Stats().Utilization() / cbShards
		reads = append(reads, sh.Reads())
	})
	var sum, max int64
	for _, r := range reads {
		sum += r
		if r > max {
			max = r
		}
	}
	return map[string]float64{
		"ftl.write_amplification": float64(host+extra) / float64(host),
		"sched.plane_overlap":     overlap,
		"cluster.read_skew":       float64(max) / (float64(sum) / float64(len(reads))),
	}
}

func (cb *clusterBitmap) verify() (int, []mismatch) {
	var bad []mismatch
	checked := 0
	for _, cl := range cb.clients {
		pages := map[uint64][]byte{}
		page := func(key uint64) []byte {
			if p, ok := pages[key]; ok {
				return p
			}
			return cb.initial[key]
		}
		for i, s := range cl.samples {
			o := &cl.script[i%cbScript]
			checked++
			if o.kind == cbWrite {
				if !s.failed {
					pages[o.key] = cb.payloads[o.payload]
				}
				continue
			}
			if !s.failed && digest(o.tree.eval(page)) != s.digest {
				bad = append(bad, mismatch{i, fmt.Sprintf("client %d %s", cl.id, cbKinds[o.kind]), "result differs from the reference"})
			}
		}
	}
	return checked, bad
}

func (cb *clusterBitmap) enableTrace() {
	cb.sink = telemetry.New()
	cb.sink.EnableTrace()
	cb.c.SetTelemetry(cb.sink)
}

func (cb *clusterBitmap) finish(*spanLog) (map[string]float64, error) { return nil, nil }

func (cb *clusterBitmap) writeProgramTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cb.sink.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (cb *clusterBitmap) layerInputs() layerInputs {
	in := layerInputs{geometry: flash.Small()}
	for _, p := range cb.payloads {
		in.pages = append(in.pages, p)
	}
	for _, o := range cb.clients[0].script[:512] {
		if o.tree != nil {
			in.exprs = append(in.exprs, o.tree)
		}
	}
	return in
}

func (cb *clusterBitmap) close() {}
