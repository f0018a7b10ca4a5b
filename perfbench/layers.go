package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parabit/internal/bitvec"
	"parabit/internal/ecc"
	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// layerInputs are a workload's generated inputs, replayed through each
// layer's public functions in the traced run.
type layerInputs struct {
	geometry flash.Geometry
	pages    [][]byte // geometry.PageSize bytes each
	exprs    []*qnode
}

// schedGroups are the command groups the scheduler lanes report: every
// workload issues both, so every lane is measured on every workload.
// The per-kind breakdown is printed beside the result line.
var schedGroups = []string{"compute", "write"}

// groupOf puts a workload's operation kind in its scheduler group.
func groupOf(kind string) string {
	if strings.HasPrefix(kind, "write") {
		return "write"
	}
	return "compute"
}

type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run prints, in order.
// A count the workload's traffic does not produce reads 0; every time is
// measured on every workload (see tracedRun).
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"parabit.op_ns", "ns"},
		{"ecc.encode_ns", "ns"}, {"ecc.decode_ns", "ns"}, {"ecc.alloc_bytes", "B"},
		{"flash.sense_ns", "ns"}, {"flash.sense_alloc_bytes", "B"}, {"flash.program_ns", "ns"},
		{"flash.read_ns", "ns"}, {"flash.mws_chain_ns", "ns"},
		{"bitvec.and_ns", "ns"},
	}
	for _, g := range schedGroups {
		ms = append(ms, layerMetric{"sched.wall_ns." + g, "ns"}, layerMetric{"sched.sim_tail_us." + g, "us"})
	}
	ms = append(ms, layerMetric{"sched.batches", "count"}, layerMetric{"sched.batch_mean", "count"},
		layerMetric{"sched.plane_overlap", "ratio"})
	return append(ms,
		layerMetric{"plan.compile_ns", "ns"}, layerMetric{"plan.combine_ns", "ns"},
		layerMetric{"plan.fused_chains", "count"}, layerMetric{"plan.cache_hit_ratio", "ratio"},
		layerMetric{"plan.cache_hits", "count"}, layerMetric{"plan.queries", "count"},
		layerMetric{"plan.cache_invalidations", "count"},
		layerMetric{"ssd.fallback_ratio", "ratio"}, layerMetric{"ssd.fallbacks", "count"},
		layerMetric{"ssd.bitwise_ops", "count"}, layerMetric{"ssd.reallocations", "count"},
		layerMetric{"ssd.sros", "count"}, layerMetric{"ssd.mws_senses", "count"},
		layerMetric{"ftl.write_ns", "ns"}, layerMetric{"ftl.gc_runs", "count"},
		layerMetric{"ftl.gc_pages_moved", "count"}, layerMetric{"ftl.write_amplification", "ratio"},
		layerMetric{"nvme.encode_ns", "ns"}, layerMetric{"nvme.parse_ns", "ns"},
		layerMetric{"cluster.query_ns.local", "ns"}, layerMetric{"cluster.query_ns.wire", "ns"},
		layerMetric{"cluster.query_ns.scatter", "ns"}, layerMetric{"cluster.route_local", "count"},
		layerMetric{"cluster.route_wire", "count"}, layerMetric{"cluster.route_scatter", "count"},
		layerMetric{"cluster.read_skew", "ratio"},
		layerMetric{"persist.op_ns", "ns"}, layerMetric{"persist.snapshot_ms", "ms"},
		layerMetric{"persist.snapshots", "count"}, layerMetric{"persist.journal_bytes_per_user_byte", "ratio"},
		layerMetric{"persist.recovery_s", "s"},
		layerMetric{"workload.generate_s", "s"},
		layerMetric{"trace.overhead_frac", "ratio"},
	)
}()

// tracedRun splits the window in two halves on one setup: an untraced
// half, then a half with the program's telemetry sink recording spans and
// the benchmark recording one span per public call. Per-layer metrics
// come from the traced half and from replaying the workload's inputs
// through each layer's public functions. A traced run must print every
// per-layer metric, so a layer family the workload's own traffic does not
// reach (cluster routing, persistence, bitmap generation) is measured by
// a fixed replay instead of printed as a constant zero; the report names
// those lanes.
func tracedRun(cfg config, b bench, rep *report, setupLayers map[string]float64) error {
	half := cfg.seconds / 2
	plain, _ := timedWindow(half, b, nil)
	b.enableTrace()
	spans := newSpanLog()
	traced, _ := timedWindow(half, b, spans)
	spanPath := filepath.Join(cfg.dir, cfg.workload+"-spans.json")
	simPath := filepath.Join(cfg.dir, cfg.workload+"-sim-trace.json")
	if err := b.writeProgramTrace(simPath); err != nil {
		return err
	}

	layers := map[string]float64{}
	for k, v := range setupLayers {
		layers[k] = v
	}
	for k, v := range traced.gauges {
		layers[k] = v
	}
	runLayers(layers, b.kinds(), traced, rep)
	rate := func(ws windowStats) float64 { return float64(len(ws.samples)) / ws.elapsed.Seconds() }
	layers["trace.overhead_frac"] = 1 - rate(traced)/rate(plain)
	fin, err := b.finish(spans)
	if err != nil {
		return err
	}
	for k, v := range fin {
		layers[k] = v
	}

	runtime.GC()
	r := &replayer{spans: spans}
	in := b.layerInputs()
	replayLayers(r, layers, in)
	var standIns []string
	if _, ok := layers["cluster.read_skew"]; !ok {
		replayCluster(r, layers, in)
		standIns = append(standIns, "cluster.*")
	}
	if _, ok := layers["persist.op_ns"]; !ok {
		replayPersist(r, layers, in, cfg.dir)
		standIns = append(standIns, "persist.*")
	}
	if _, ok := layers["workload.generate_s"]; !ok {
		replayWorkload(r, layers, in)
		standIns = append(standIns, "workload.generate_s")
	}
	if r.err != nil {
		return r.err
	}
	if len(standIns) > 0 {
		rep.printf("not reached by this workload's traffic, so taken from a fixed replay on its inputs and saying nothing about it: %s", strings.Join(standIns, ", "))
	}

	if err := spans.write(spanPath); err != nil {
		return err
	}
	rep.printf("traced run: untraced half %d ops in %.3fs, traced half %d ops in %.3fs", len(plain.samples), plain.elapsed.Seconds(), len(traced.samples), traced.elapsed.Seconds())
	rep.printf("host spans (benchmark calls, wall clock): %s", spanPath)
	rep.printf("program telemetry (modelled time lanes): %s", simPath)
	for _, m := range layerMetrics {
		rep.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return nil
}

// runLayers derives the per-layer figures the traced window itself
// measured: host time per call by kind, modelled latency by kind, and
// the program's counter deltas.
func runLayers(l map[string]float64, kinds []string, ws windowStats, rep *report) {
	var all []time.Duration
	walls := map[string][]time.Duration{}
	sims := map[string][]time.Duration{}
	for _, s := range successes(ws.samples) {
		all = append(all, s.wall)
		for _, k := range []string{kinds[s.kind], groupOf(kinds[s.kind])} {
			walls[k] = append(walls[k], s.wall)
			sims[k] = append(sims[k], s.sim)
		}
	}
	l["parabit.op_ns"] = float64(meanDuration(all))
	for _, g := range schedGroups {
		l["sched.wall_ns."+g] = float64(meanDuration(walls[g]))
		l["sched.sim_tail_us."+g] = us(tailMean(sims[g], 0.01))
	}
	rep.printf("traced half by kind: kind, calls, host mean us, modelled mean us, modelled tail (slowest 1%%) us")
	for _, k := range kinds {
		rep.printf("  %-20s %8d %12.2f %12.2f %12.2f", k, len(walls[k]), us(meanDuration(walls[k])), us(meanDuration(sims[k])), us(tailMean(sims[k], 0.01)))
	}
	c := ws.counters
	get := func(keys ...string) float64 {
		for _, k := range keys {
			if v, ok := c[k]; ok {
				return float64(v)
			}
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var completed float64
	for k, v := range c {
		if strings.HasPrefix(k, "sched.Queues.") && strings.HasSuffix(k, ".Completed") {
			completed += float64(v)
		}
	}
	l["sched.batches"] = get("sched.Batches")
	l["sched.batch_mean"] = ratio(completed, l["sched.batches"])
	l["plan.fused_chains"] = get("query.FusedChains")
	l["plan.queries"] = get("query.Queries")
	l["plan.cache_hits"] = get("query.CacheHits", "query.Cache.Hits")
	l["plan.cache_hit_ratio"] = ratio(l["plan.cache_hits"], l["plan.queries"])
	l["plan.cache_invalidations"] = get("query.CacheInvalidations", "query.Cache.Invalidations")
	l["ssd.fallbacks"] = get("stats.Fallbacks", "ssd.Fallbacks")
	l["ssd.bitwise_ops"] = get("stats.BitwiseOps", "ssd.BitwiseOps")
	l["ssd.fallback_ratio"] = ratio(l["ssd.fallbacks"], l["ssd.bitwise_ops"])
	l["ssd.reallocations"] = get("stats.Reallocations", "ssd.Reallocations")
	l["ssd.sros"] = get("stats.SROs", "flash.SROs")
	l["ssd.mws_senses"] = get("stats.MWSSenses", "flash.MWSSenses")
	l["ftl.gc_runs"] = get("stats.GCRuns", "ftl.GCRuns")
	l["ftl.gc_pages_moved"] = get("stats.GCPagesMoved", "ftl.GCPagesMoved")
	for _, r := range []string{"local", "wire", "scatter"} {
		l["cluster.route_"+r] = get("cluster.route." + r)
	}
	l["persist.snapshots"] = get("persist.Snapshots")
}

// replayer times calls into one layer, one span each, and keeps the
// first error a call returned: a failed call's timing is not a figure.
type replayer struct {
	spans *spanLog
	id    uint64
	err   error
}

// mean runs f over n inputs, one span per call, and returns host ns per
// call and host bytes allocated per call.
func (r *replayer) mean(name string, n int, f func(i int) error) (ns, allocs float64) {
	m := markMem()
	var sum time.Duration
	for i := 0; i < n; i++ {
		var err error
		sum += r.call(name, func() { err = f(i) })
		if err != nil {
			r.fail(name, err)
		}
	}
	return float64(sum) / float64(n), float64(m.allocSince()) / float64(n)
}

// replayLane is the span lane of replayed layer calls.
const replayLane = 1000

// call times f as one span named name.
func (r *replayer) call(name string, f func()) time.Duration {
	start := now()
	f()
	end := now()
	r.id++
	r.spans.add(replayLane, name, r.id, start, end)
	return end - start
}

func (r *replayer) fail(name string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s replay: %w", name, err)
	}
}

// replayReps is how many calls each layer replay makes.
const replayReps = 512

// replayLayers drives the workload's inputs through each layer's public
// functions directly, below the layers above it.
func replayLayers(r *replayer, l map[string]float64, in layerInputs) {
	pick := func(i int) []byte { return in.pages[i%len(in.pages)] }

	// ecc, per 8 KB page assembled from the workload's pages.
	const eccPage = 8 << 10
	eccPages := make([][]byte, 64)
	for i, j := 0, 0; i < len(eccPages); i++ {
		p := make([]byte, 0, eccPage)
		for ; len(p) < eccPage; j++ {
			p = append(p, pick(j)...)
		}
		eccPages[i] = p[:eccPage]
	}
	codec, err := ecc.NewCodec(eccPage, 512)
	if err != nil {
		r.fail("ecc.codec", err)
		return
	}
	parity := make([][]byte, len(eccPages))
	var encAlloc, decAlloc float64
	l["ecc.encode_ns"], encAlloc = r.mean("ecc.encode", replayReps, func(i int) (err error) {
		parity[i%64], err = codec.Encode(eccPages[i%64])
		return err
	})
	l["ecc.decode_ns"], decAlloc = r.mean("ecc.decode", replayReps, func(i int) error {
		_, err := codec.Decode(eccPages[i%64], parity[i%64])
		return err
	})
	l["ecc.alloc_bytes"] = encAlloc + decAlloc

	replayFlash(l, r, in.geometry, pick)

	// bitvec and plan.Combine on page pairs.
	vecs := make([]*bitvec.Vector, 64)
	for i := range vecs {
		vecs[i] = bitvec.FromBytes(pick(i))
	}
	l["bitvec.and_ns"], _ = r.mean("bitvec.and", replayReps, func(i int) error {
		bitvec.And(vecs[i%64], vecs[(i+1)%64])
		return nil
	})
	l["plan.combine_ns"], _ = r.mean("plan.combine", replayReps, func(i int) error {
		_, err := plan.Combine(latch.OpAnd, [][]byte{pick(i), pick(i + 1)})
		return err
	})

	// plan compile and the NVMe wire encoding of the workload's queries.
	exprs := make([]*plan.Expr, len(in.exprs))
	for i, q := range in.exprs {
		exprs[i] = q.expr()
	}
	l["plan.compile_ns"], _ = r.mean("plan.compile", replayReps, func(i int) error {
		n, err := plan.Normalize(exprs[i%len(exprs)])
		if err == nil {
			_, err = plan.Compile(n)
		}
		return err
	})
	var formulas []nvme.Formula
	for _, e := range exprs {
		if n, err := plan.Normalize(e); err == nil {
			if f, ok := plan.ToFormula(n, in.geometry.PageSize); ok {
				formulas = append(formulas, f)
			}
		}
	}
	if len(formulas) > 0 {
		cmds := make([][]nvme.Command, len(formulas))
		l["nvme.encode_ns"], _ = r.mean("nvme.encode", replayReps, func(i int) (err error) {
			cmds[i%len(formulas)], err = nvme.EncodeFormula(formulas[i%len(formulas)], in.geometry.PageSize)
			return err
		})
		l["nvme.parse_ns"], _ = r.mean("nvme.parse", replayReps, func(i int) error {
			_, err := nvme.ParseBatches(cmds[i%len(formulas)], in.geometry.PageSize)
			return err
		})
	}

	// ftl: host writes of the workload's pages into a fresh FTL.
	f := ftl.New(flash.NewArray(in.geometry, flash.DefaultTiming()), ftl.DefaultConfig())
	var at sim.Time
	l["ftl.write_ns"], _ = r.mean("ftl.write", replayReps, func(i int) (err error) {
		at, err = f.Write(uint64(i%256), pick(i), at)
		return err
	})
}

// replayFlash programs, reads and senses the workload's pages on a fresh
// array of the workload's geometry.
func replayFlash(l map[string]float64, r *replayer, g flash.Geometry, pick func(int) []byte) {
	a := flash.NewArray(g, flash.DefaultTiming())
	var at sim.Time
	wl := func(i int) flash.WordlineAddr {
		return flash.WordlineAddr{Block: i / g.WordlinesPerBlock, WL: i % g.WordlinesPerBlock}
	}
	page := func(i int, k flash.PageKind) flash.PageAddr { return flash.PageAddr{WordlineAddr: wl(i), Kind: k} }
	const n = replayReps / 2 // wordlines; their LSB and MSB programs make replayReps calls
	var progNS [2]float64
	for k := flash.LSBPage; k <= flash.MSBPage; k++ {
		progNS[k], _ = r.mean("flash.program", n, func(i int) (err error) {
			at, err = a.Program(page(i, k), pick(2*i+int(k)), at)
			return err
		})
	}
	l["flash.program_ns"] = (progNS[0] + progNS[1]) / 2
	l["flash.read_ns"], _ = r.mean("flash.read", replayReps, func(i int) (err error) {
		_, at, err = a.Read(page(i%n, flash.PageKind(i%2)), at)
		return err
	})
	l["flash.sense_ns"], l["flash.sense_alloc_bytes"] = r.mean("flash.sense", replayReps, func(i int) error {
		res, err := a.BitwiseSense(latch.Ops[i%len(latch.Ops)], wl(i%n), at)
		at = sim.Max(at, res.Ready)
		return err
	})

	// Multi-wordline chains sense ESP-programmed LSB pages of one block:
	// two chunks at the sense cap.
	base := (n/g.WordlinesPerBlock + 1) * g.WordlinesPerBlock
	chunks := make([][]flash.WordlineAddr, 2)
	for c := range chunks {
		for j := 0; j < latch.MaxMWSOperands; j++ {
			i := base + c*latch.MaxMWSOperands + j
			var err error
			if at, err = a.ProgramESP(page(i, flash.LSBPage), pick(i), at); err != nil {
				r.fail("flash.program_esp", err)
			}
			chunks[c] = append(chunks[c], wl(i))
		}
	}
	l["flash.mws_chain_ns"], _ = r.mean("flash.mws_chain", replayReps, func(i int) error {
		res, err := a.BitwiseChainMWS(latch.OpAnd, chunks, at)
		at = sim.Max(at, res.Ready)
		return err
	})
}
