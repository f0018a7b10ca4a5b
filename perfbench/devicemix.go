package main

import (
	"math/rand"
	"os"
	"time"

	"parabit"
	"parabit/internal/flash"
	"parabit/internal/sched"
)

// device-mix: one paper-geometry device (8 KB pages) with the SEC-DED
// codec on and no error model, so results stay bit-exact while ECC
// encode and decode do real work. Per-byte work dominates: ECC encoding
// of every programmed page, then flash senses. One submitter issues
// seeded bursts at queue depth 1-8, which keeps the scheduler's batches,
// and so every sim_* metric, identical across runs with the same seed.

// LPN layout of the preload.
const (
	dmPairs     = 64 // WriteOperandPair: LPNs 0..127, pair i at 2i, 2i+1
	dmGroupSize = 16
	dmLSBGroups = 4  // WriteOperandGroup: LPNs 128..191
	dmMWSGroups = 4  // WriteOperandMWSGroup: LPNs 192..255
	dmLoose     = 64 // WriteOperand, the overwrite targets: LPNs 256..319

	dmLSBBase   = 2 * dmPairs
	dmMWSBase   = dmLSBBase + dmLSBGroups*dmGroupSize
	dmLooseBase = dmMWSBase + dmMWSGroups*dmGroupSize
	dmPages     = dmLooseBase + dmLoose

	// dmQueries distinct query trees, each with several intermediates:
	// more leaf sets than the 64-page result cache holds.
	dmQueries  = 192
	dmPayloads = 128
	dmScript   = 1 << 16
	dmWarmup   = 256
	// dmEpochOps is how many operations one device serves after its
	// warm-up before the window replaces it (see window).
	dmEpochOps = 6000
	// dmQuota is the deterministic span, two and a half devices' worth:
	// about 5 s of the mix on a 2-vCPU host, so it closes well inside the
	// window. It ends mid-device, so heap_mb never reads a device that has
	// just been replaced.
	dmQuota    = 5 * dmEpochOps / 2
	dmMaxBurst = 8 // queue depth 1..dmMaxBurst
)

// device-mix operation kinds.
const (
	dmBitwise = iota
	dmReduce
	dmQuery
	dmRead
	dmWrite
)

var dmKinds = []string{"bitwise", "reduce", "query", "read", "write-operand"}

type dmOp struct {
	kind    int
	op      parabit.Op
	scheme  parabit.Scheme
	lpns    []uint64
	query   int
	payload int
}

type deviceMix struct {
	dev      *parabit.Device
	initial  [][]byte // preload content by LPN
	payloads [][]byte
	trees    []*qnode
	queries  []parabit.Query
	script   []dmOp
	bursts   []int // burst length at each script index that starts one, else 0
	loop     *serial
	origin   int // script index of the current device's first operation
	// retired holds the records of the devices the window replaced.
	retired  []dmEpoch
	traced   bool
	epochErr error // a failed device rebuild, reported by verify
}

// dmEpoch is what one device served: operations origin, origin+1, ... of
// the script, starting from the preloaded state.
type dmEpoch struct {
	origin   int
	samples  []sample
	firstErr error
}

func setupDeviceMix(cfg config) (bench, map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	const page = 8 << 10
	m := &deviceMix{}
	m.initial = randomPages(rng, dmPages, page)
	m.payloads = randomPages(rng, dmPayloads, page)
	m.trees = make([]*qnode, dmQueries)
	m.queries = make([]parabit.Query, dmQueries)
	for i := range m.trees {
		m.trees[i] = dmQueryTree(rng, i%4, 2+i/4%6)
		m.queries[i] = m.trees[i].query()
	}
	m.script, m.bursts = dmGenScript(rng)
	if err := m.newEpoch(0); err != nil {
		return nil, nil, err
	}
	return m, nil, nil
}

// newEpoch builds a fresh device, preloads it and warms it up on the
// script from index origin on.
func (m *deviceMix) newEpoch(origin int) error {
	m.origin = origin
	dev, err := parabit.NewDevice(parabit.WithPaperGeometry(), parabit.WithECC())
	if err != nil {
		return err
	}
	m.dev = dev
	if err := m.preload(); err != nil {
		return err
	}
	if m.traced {
		dev.EnableTelemetry(true)
	}
	m.loop = &serial{
		burst:   func(i int) int { return m.bursts[i%dmScript] },
		kind:    func(i int) int { return m.script[i%dmScript].kind },
		start:   m.start,
		reclaim: dev,
		names:   dmKinds,
		next:    origin,
	}
	m.loop.warm(origin + dmWarmup)
	return nil
}

func (m *deviceMix) preload() error {
	for i := 0; i < dmPairs; i++ {
		a, b := uint64(2*i), uint64(2*i+1)
		if err := m.dev.WriteOperandPair(a, b, m.initial[a], m.initial[b]); err != nil {
			return err
		}
	}
	for g := 0; g < dmLSBGroups+dmMWSGroups; g++ {
		base := dmLSBBase + g*dmGroupSize
		lpns, data := make([]uint64, dmGroupSize), make([][]byte, dmGroupSize)
		for j := range lpns {
			lpns[j] = uint64(base + j)
			data[j] = m.initial[base+j]
		}
		write := m.dev.WriteOperandGroup
		if g >= dmLSBGroups {
			write = m.dev.WriteOperandMWSGroup
		}
		if err := write(lpns, data); err != nil {
			return err
		}
	}
	for lpn := dmLooseBase; lpn < dmPages; lpn++ {
		if err := m.dev.WriteOperand(uint64(lpn), m.initial[lpn]); err != nil {
			return err
		}
	}
	return nil
}

// dmQueryTree draws one multi-level query of the given shape (0..3) over
// pair, LSB-group and loose pages; loose leaves are the ones the
// overwrites invalidate. width (2..7) sizes shape 2's AND chain.
//
// Inner nodes mostly combine operands the preload placed together (a
// co-located pair, members of one LSB group), which the schemes sense in
// place. Leaves that need reallocating get programmed into fresh pages,
// and on the paper geometry those pages are never collected: they stay
// in host memory for the rest of the run.
func dmQueryTree(rng *rand.Rand, shape, width int) *qnode {
	pair := func() []*qnode {
		p := uint64(2 * rng.Intn(dmPairs))
		return []*qnode{qleaf(p), qleaf(p + 1)}
	}
	group := func(k int) []*qnode {
		base := dmLSBBase + dmGroupSize*rng.Intn(dmLSBGroups)
		ls := make([]*qnode, k)
		for i, p := range rng.Perm(dmGroupSize)[:k] {
			ls[i] = qleaf(uint64(base + p))
		}
		return ls
	}
	loose := func() *qnode { return qleaf(uint64(dmLooseBase + rng.Intn(dmLoose))) }
	switch shape {
	case 0:
		return qop(parabit.Or, qop(parabit.And, pair()...), qop(parabit.Xor, pair()...))
	case 1:
		return qop(parabit.And, qop(parabit.Or, group(3)...), qnot(loose()))
	case 2:
		return qop(parabit.Xor, qop(parabit.And, group(width)...), qop(parabit.Or, pair()...))
	default:
		return qop(parabit.Nor, qop(parabit.Nand, pair()...), qop(parabit.Xnor, loose(), loose()))
	}
}

var assocOps = []parabit.Op{parabit.And, parabit.Or, parabit.Xor}

// dmGenScript draws the cyclic operation script and its bursts.
func dmGenScript(rng *rand.Rand) ([]dmOp, []int) {
	script := make([]dmOp, dmScript)
	bursts := make([]int, dmScript)
	depth := uniformDeck(rng, dmMaxBurst)
	for i := 0; i < dmScript; {
		n := 1 + depth.draw()
		if n > dmScript-i {
			n = dmScript - i
		}
		bursts[i] = n
		i += n
	}
	distinct := func(lo, span, k int) []uint64 {
		perm := rng.Perm(span)[:k]
		out := make([]uint64, k)
		for i, p := range perm {
			out[i] = uint64(lo + p)
		}
		return out
	}
	// The five kinds are equally likely, as parabit-bench -hammer draws
	// its command shapes: the paper measures each kind on its own and
	// weights none of them against the others.
	kinds := uniformDeck(rng, len(dmKinds))
	ops := uniformDeck(rng, len(parabit.Ops))
	bitwiseLayout := uniformDeck(rng, 10)
	assoc := uniformDeck(rng, len(assocOps))
	width := uniformDeck(rng, dmGroupSize-1)
	reduceScheme := newDeck(rng, 1, 4, 5) // Reallocated, LocationFree, FlashCosmos
	queryScheme := uniformDeck(rng, len(parabit.Schemes))
	for i := range script {
		o := &script[i]
		switch o.kind = kinds.draw(); o.kind {
		case dmBitwise:
			o.op = parabit.Ops[ops.draw()]
			switch s := bitwiseLayout.draw(); {
			case s < 3: // a co-located pair
				o.scheme = parabit.PreAllocated
				p := uint64(2 * rng.Intn(dmPairs))
				o.lpns = []uint64{p, p + 1}
			case s < 5: // two members of one LSB group
				o.scheme = parabit.LocationFree
				o.lpns = distinct(dmLSBBase+dmGroupSize*rng.Intn(dmLSBGroups), dmGroupSize, 2)
			case s < 7: // two members of one MWS group
				o.scheme = parabit.FlashCosmos
				o.lpns = distinct(dmMWSBase+dmGroupSize*rng.Intn(dmMWSGroups), dmGroupSize, 2)
			case s < 9:
				o.scheme = parabit.Reallocated
				o.lpns = distinct(0, dmPages, 2)
			default: // unpaired operands: the PreAllocated fallback path
				o.scheme = parabit.PreAllocated
				o.lpns = distinct(dmLooseBase, dmLoose, 2)
			}
		case dmReduce:
			o.op = assocOps[assoc.draw()]
			k := 2 + width.draw()
			// Reallocated folds program 2(k-1) pages each, and the paper
			// geometry never garbage-collects them, so they are the rarer
			// scheme: host memory then stays within a few hundred MB.
			switch reduceScheme.draw() {
			case 0:
				o.scheme = parabit.Reallocated
				o.lpns = distinct(0, dmPages, k)
			case 1:
				o.scheme = parabit.LocationFree
				o.lpns = distinct(dmLSBBase+dmGroupSize*rng.Intn(dmLSBGroups), dmGroupSize, k)
			default:
				o.scheme = parabit.FlashCosmos
				o.lpns = distinct(dmMWSBase+dmGroupSize*rng.Intn(dmMWSGroups), dmGroupSize, k)
			}
		case dmQuery:
			o.query = rng.Intn(dmQueries)
			o.scheme = parabit.Schemes[queryScheme.draw()]
		case dmRead:
			o.lpns = []uint64{uint64(rng.Intn(dmPages))}
		default:
			o.lpns = []uint64{uint64(dmLooseBase + rng.Intn(dmLoose))}
			o.payload = rng.Intn(dmPayloads)
		}
	}
	return script, bursts
}

func (m *deviceMix) start(i int) waitFn {
	o := &m.script[i%dmScript]
	var p *parabit.Pending
	switch o.kind {
	case dmBitwise:
		p = m.dev.BitwiseAsync(o.op, o.lpns[0], o.lpns[1], o.scheme)
	case dmReduce:
		p = m.dev.ReduceAsync(o.op, o.lpns, o.scheme)
	case dmQuery:
		p = m.dev.QueryAsync(m.queries[o.query], o.scheme)
	case dmRead:
		p = m.dev.ReadAsync(o.lpns[0])
	default:
		p = m.dev.WriteOperandAsync(o.lpns[0], m.payloads[o.payload])
	}
	return func() ([]byte, time.Duration, error) {
		r, err := p.Wait()
		return r.Data, r.Latency, err
	}
}

func (m *deviceMix) kinds() []string { return dmKinds }
func (m *deviceMix) quota() int      { return dmQuota }
func (m *deviceMix) all() ([]sample, error) {
	var all []sample
	var first error
	for _, e := range m.epochs() {
		all = append(all, e.samples...)
		if first == nil {
			first = e.firstErr
		}
	}
	return all, first
}

// epochs returns what every device served, the current one last.
func (m *deviceMix) epochs() []dmEpoch {
	cur := dmEpoch{m.origin, m.loop.samples, m.loop.firstErr}
	return append(m.retired[:len(m.retired):len(m.retired)], cur)
}

func (m *deviceMix) window(w *window, spans *spanLog) windowStats {
	m.loop.spans = spans
	ws := windowStats{counters: counters{}}
	// The paper geometry never collects a block, so every page the
	// traffic programs (about 15 KB per operation) stays in host memory.
	// Once a device has served warm-up plus dmEpochOps operations, the
	// window pauses, builds a fresh one exactly as setup did, and carries
	// on with the script where the last one stopped: host memory stays
	// bounded however fast the host. Devices are replaced at fixed script
	// indices, so the quota span, which covers several of them, reaches
	// the program identically on every run with one seed.
	for {
		base, simStart := deviceCounters(m.dev), m.dev.Elapsed()
		// spanPart adds this device's share of the quota span.
		spanPart := func() {
			for k, v := range deviceCounters(m.dev).minus(base) {
				ws.counters[k] += v
			}
			ws.simMakespan += m.dev.Elapsed() - simStart
		}
		inSpan := len(ws.samples) < w.quota
		limit := m.origin + dmWarmup + dmEpochOps
		first, quotaEnd, closed := m.loop.runWindow(w, len(ws.samples), limit, func() {
			spanPart()
			ws.heapMB = heapMB()
		})
		switch {
		case quotaEnd >= 0:
			ws.sim = append(ws.sim, m.loop.samples[first:quotaEnd]...)
		case inSpan:
			ws.sim = append(ws.sim, m.loop.samples[first:]...)
			w.pause(spanPart)
		}
		ws.samples = append(ws.samples, m.loop.samples[first:]...)
		if closed {
			break
		}
		w.pause(func() {
			// Keep only the loop's records: the loop itself still refers
			// to the old device and its last results.
			m.retired = append(m.retired, dmEpoch{m.origin, m.loop.samples, m.loop.firstErr})
			m.loop = &serial{next: m.loop.next}
			m.dev.Close()
			heapMB() // free the old device before building the new one
			m.epochErr = m.newEpoch(m.loop.next)
		})
		if m.epochErr != nil {
			break
		}
		m.loop.spans = spans
	}
	ws.elapsed = w.elapsed()
	ws.simOps = len(ws.sim)
	st := m.dev.Stats()
	ws.gauges = map[string]float64{
		"ftl.write_amplification": st.WriteAmplification,
		"sched.plane_overlap":     st.Utilization,
	}
	return ws
}

// deviceCounters snapshots a device's public counters.
func deviceCounters(d *parabit.Device) counters {
	c := counters{}
	c.addStruct("stats", d.Stats(), nil)
	c.addStruct("query", d.QueryStats(), nil)
	c.addStruct("sched", d.SchedulerStats(), func(i int) string { return sched.Kind(i).String() })
	if ps, ok := d.PersistStats(); ok {
		c.addStruct("persist", ps, nil)
	}
	return c
}

// verify replays what each device served through the oracle, from the
// preloaded state.
func (m *deviceMix) verify() (int, []mismatch) {
	var bad []mismatch
	checked := 0
	if m.epochErr != nil {
		bad = append(bad, mismatch{m.loop.next, "epoch", m.epochErr.Error()})
	}
	for _, e := range m.epochs() {
		pages := make([][]byte, dmPages)
		copy(pages, m.initial)
		page := func(lpn uint64) []byte { return pages[lpn] }
		for j, s := range e.samples {
			i := e.origin + j
			o := &m.script[i%dmScript]
			if s.failed {
				continue // counted as a failure, not compared
			}
			var want []byte
			switch o.kind {
			case dmBitwise:
				want = refOp(o.op, pages[o.lpns[0]], pages[o.lpns[1]])
			case dmReduce:
				ops := make([][]byte, len(o.lpns))
				for k, l := range o.lpns {
					ops[k] = pages[l]
				}
				want = refFold(o.op, ops)
			case dmQuery:
				want = m.trees[o.query].eval(page)
			case dmRead:
				want = pages[o.lpns[0]]
			default:
				pages[o.lpns[0]] = m.payloads[o.payload]
			}
			if digest(want) != s.digest {
				bad = append(bad, mismatch{i, dmKinds[o.kind], "result differs from the reference"})
			}
		}
		checked += len(e.samples)
	}
	return checked, bad
}

func (m *deviceMix) enableTrace() {
	m.traced = true
	m.dev.EnableTelemetry(true)
}

func (m *deviceMix) finish(*spanLog) (map[string]float64, error) { return nil, nil }

func (m *deviceMix) writeProgramTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.dev.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (m *deviceMix) layerInputs() layerInputs {
	exprs := make([]*qnode, len(m.trees))
	copy(exprs, m.trees)
	return layerInputs{geometry: flash.Default(), pages: append(m.initial, m.payloads...), exprs: exprs}
}

func (m *deviceMix) close() { m.dev.Close() }
