package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"parabit"
	"parabit/internal/flash"
)

// persist-ingest: one persistent small-geometry device (256 B pages)
// overwritten across nearly all of its user capacity by one client at
// queue depth 1, so FTL garbage collection and journal snapshot
// compaction both cycle many times per window. A minority of Bitwise and
// Query calls read pairs already written. The run ends with Close, a
// remount with Open, and a read-back of every acknowledged write.
//
// Flush policy: the program's default. Journal frames are written
// without fsync; snapshot files are fsynced. The snapshot threshold is
// the default (one compaction per 256 committed journal records).

const (
	// piFill is the share of user pages the working set covers.
	piFill     = 0.92
	piPairs    = 2048 // LPNs 0..4095, pair i at 2i, 2i+1
	piGroups   = 16   // MWS groups of piGroupSize after the pairs
	piGroupMax = 8
	piPayloads = 1024
	piScript   = 1 << 16
	piWarmup   = 256
	// piQuota is the deterministic span: about 4 s of the mix on a
	// 2-vCPU host, so it closes well inside the window.
	piQuota = 6000
)

const (
	piWrite = iota
	piWritePair
	piWriteGroup
	piBitwise
	piQuery
)

var piKinds = []string{"write", "write-pair", "write-mws-group", "bitwise", "query"}

type piOp struct {
	kind     int
	lpns     []uint64
	payloads []int
	op       parabit.Op
	query    *qnode
	q        parabit.Query
}

type persistIngest struct {
	dev      *parabit.Device
	dir      string
	pages    int   // working-set pages
	initial  []int // payload index per LPN after the preload
	payloads [][]byte
	script   []piOp
	loop     *serial
	// snapshots counts, in a traced window, the operations during which
	// PersistStats().Snapshots advanced, and their host time.
	snapOps  []bool
	readBack []mismatch
}

func setupPersistIngest(cfg config) (_ bench, _ map[string]float64, err error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	g := flash.Small()
	p := &persistIngest{payloads: randomPages(rng, piPayloads, g.PageSize)}
	dir, err := os.MkdirTemp(cfg.dir, "persist-ingest-")
	if err != nil {
		return nil, nil, err
	}
	p.dir = dir
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	// The preload runs with periodic snapshots off (one compaction at
	// Close), then the store remounts with the default threshold the
	// timed window measures: setup then does not pay a hundred
	// compactions of a device it is still filling.
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithPersistence(dir), parabit.WithSnapshotEvery(-1))
	if err != nil {
		return nil, nil, err
	}
	p.dev = dev
	p.pages = int(piFill * float64(dev.UserPages()))
	p.initial = make([]int, p.pages)
	for i := range p.initial {
		p.initial[i] = rng.Intn(piPayloads)
	}
	p.script = p.genScript(rng)
	if err := p.preload(); err != nil {
		return nil, nil, err
	}
	if err := p.dev.Close(); err != nil {
		return nil, nil, err
	}
	if p.dev, _, err = parabit.Open(dir); err != nil {
		p.dev = nil
		return nil, nil, fmt.Errorf("remount after preload: %w", err)
	}
	p.loop = &serial{
		burst: func(int) int { return 1 },
		kind:  func(i int) int { return p.script[i%piScript].kind },
		start: p.start,
		// Garbage collection splits a few pairs, whose Bitwise calls
		// then fall back to reallocation and draw on the internal pool.
		reclaim: p.dev,
		names:   piKinds,
	}
	p.loop.warm(piWarmup)
	return p, nil, nil
}

func (p *persistIngest) groupBase() int { return 2 * piPairs }
func (p *persistIngest) singleBase() int {
	return p.groupBase() + piGroups*piGroupMax
}

func (p *persistIngest) preload() error {
	for i := 0; i < piPairs; i++ {
		a, b := uint64(2*i), uint64(2*i+1)
		if err := p.dev.WriteOperandPair(a, b, p.payloads[p.initial[a]], p.payloads[p.initial[b]]); err != nil {
			return err
		}
	}
	for g := 0; g < piGroups; g++ {
		lpns, data := make([]uint64, piGroupMax), make([][]byte, piGroupMax)
		for j := range lpns {
			lpns[j] = uint64(p.groupBase() + g*piGroupMax + j)
			data[j] = p.payloads[p.initial[lpns[j]]]
		}
		if err := p.dev.WriteOperandMWSGroup(lpns, data); err != nil {
			return err
		}
	}
	for lpn := p.singleBase(); lpn < p.pages; lpn++ {
		if err := p.dev.Write(uint64(lpn), p.payloads[p.initial[lpn]]); err != nil {
			return err
		}
	}
	return nil
}

func (p *persistIngest) genScript(rng *rand.Rand) []piOp {
	script := make([]piOp, piScript)
	pair := func() uint64 { return uint64(2 * rng.Intn(piPairs)) }
	// Per 100 operations: 55 writes, 25 pair writes, 5 MWS-group writes,
	// 10 bitwise and 5 queries.
	kinds := newDeck(rng, 55, 25, 5, 10, 5)
	width := uniformDeck(rng, piGroupMax-1)
	ops := uniformDeck(rng, len(parabit.Ops))
	for i := range script {
		o := &script[i]
		switch o.kind = kinds.draw(); o.kind {
		case piWrite:
			o.lpns = []uint64{uint64(p.singleBase() + rng.Intn(p.pages-p.singleBase()))}
			o.payloads = []int{rng.Intn(piPayloads)}
		case piWritePair:
			a := pair()
			o.lpns = []uint64{a, a + 1}
			o.payloads = []int{rng.Intn(piPayloads), rng.Intn(piPayloads)}
		case piWriteGroup:
			g := rng.Intn(piGroups)
			k := 2 + width.draw()
			for j := 0; j < k; j++ {
				o.lpns = append(o.lpns, uint64(p.groupBase()+g*piGroupMax+j))
				o.payloads = append(o.payloads, rng.Intn(piPayloads))
			}
		case piBitwise:
			o.op = parabit.Ops[ops.draw()]
			a := pair()
			o.lpns = []uint64{a, a + 1}
		default:
			a, b := pair(), pair()
			o.query = qop(parabit.Or,
				qop(parabit.And, qleaf(a), qleaf(a+1)),
				qop(parabit.Xor, qleaf(b), qleaf(b+1)))
			o.q = o.query.query()
		}
	}
	return script
}

func (p *persistIngest) exec(o *piOp) ([]byte, time.Duration, error) {
	switch o.kind {
	case piWrite:
		return nil, 0, p.dev.Write(o.lpns[0], p.payloads[o.payloads[0]])
	case piWritePair:
		return nil, 0, p.dev.WriteOperandPair(o.lpns[0], o.lpns[1], p.payloads[o.payloads[0]], p.payloads[o.payloads[1]])
	case piWriteGroup:
		data := make([][]byte, len(o.lpns))
		for j, pi := range o.payloads {
			data[j] = p.payloads[pi]
		}
		return nil, 0, p.dev.WriteOperandMWSGroup(o.lpns, data)
	case piBitwise:
		r, err := p.dev.Bitwise(o.op, o.lpns[0], o.lpns[1], parabit.PreAllocated)
		return r.Data, r.Latency, err
	default:
		r, err := p.dev.Query(o.q, parabit.PreAllocated)
		return r.Data, r.Latency, err
	}
}

// start runs operation i synchronously (queue depth 1). Writes report no
// modelled latency through the public API, so the device clock's advance
// across the call stands in for it. In a traced window it also notes
// whether the call took a snapshot.
func (p *persistIngest) start(i int) waitFn {
	o := &p.script[i%piScript]
	var snapsBefore int64
	if p.snapOps != nil {
		ps, _ := p.dev.PersistStats()
		snapsBefore = ps.Snapshots
	}
	t0 := p.dev.Elapsed()
	data, simLat, err := p.exec(o)
	if simLat == 0 {
		simLat = p.dev.Elapsed() - t0
	}
	if p.snapOps != nil {
		ps, _ := p.dev.PersistStats()
		p.snapOps = append(p.snapOps, ps.Snapshots != snapsBefore)
	}
	return func() ([]byte, time.Duration, error) { return data, simLat, err }
}

func (p *persistIngest) kinds() []string        { return piKinds }
func (p *persistIngest) quota() int             { return piQuota }
func (p *persistIngest) all() ([]sample, error) { return p.loop.samples, p.loop.firstErr }

func (p *persistIngest) window(w *window, spans *spanLog) windowStats {
	p.loop.spans = spans
	if spans != nil {
		p.snapOps = make([]bool, 0, 1<<15)
	}
	base := deviceCounters(p.dev)
	simStart := p.dev.Elapsed()
	var ws windowStats
	first, quotaEnd, _ := p.loop.runWindow(w, 0, 0, func() {
		ws.counters = deviceCounters(p.dev).minus(base)
		ws.simMakespan = p.dev.Elapsed() - simStart
		ws.heapMB = heapMB()
	})
	ws.elapsed = w.elapsed()
	ws.samples = p.loop.samples[first:]
	ws.sim = p.loop.samples[first:quotaEnd]
	ws.simOps = len(ws.sim)
	st := p.dev.Stats()
	ws.gauges = map[string]float64{
		"ftl.write_amplification": st.WriteAmplification,
		"sched.plane_overlap":     st.Utilization,
	}
	var userBytes int
	for i := first; i < quotaEnd; i++ {
		if o := &p.script[i%piScript]; o.kind <= piWriteGroup {
			userBytes += len(o.lpns) * len(p.payloads[0])
		}
	}
	ws.gauges["persist.journal_bytes_per_user_byte"] = float64(ws.counters["persist.JournalBytes"]) / float64(userBytes)
	if p.snapOps != nil {
		// Host time of calls that took a snapshot against calls that only
		// appended to the journal.
		var snap, plain []time.Duration
		for j, took := range p.snapOps {
			if took {
				snap = append(snap, ws.samples[j].wall)
			} else {
				plain = append(plain, ws.samples[j].wall)
			}
		}
		ws.gauges["persist.op_ns"] = float64(meanDuration(plain))
		ws.gauges["persist.snapshot_ms"] = float64(meanDuration(snap)) / 1e6
		p.snapOps = nil
	}
	return ws
}

// state replays the acknowledged writes over the preload: the content
// every LPN must hold, as payload indices.
func (p *persistIngest) state(check func(i int, o *piOp, page func(uint64) []byte)) []int {
	st := append([]int(nil), p.initial...)
	page := func(lpn uint64) []byte { return p.payloads[st[lpn]] }
	for i, s := range p.loop.samples {
		o := &p.script[i%piScript]
		if check != nil {
			check(i, o, page)
		}
		if s.failed {
			continue
		}
		switch o.kind {
		case piWrite, piWritePair, piWriteGroup:
			for j, lpn := range o.lpns {
				st[lpn] = o.payloads[j]
			}
		}
	}
	return st
}

// finish closes the device, remounts it and reads every working-set page
// back; the remount's host time is persist.recovery_s.
func (p *persistIngest) finish(*spanLog) (map[string]float64, error) {
	if err := p.dev.Close(); err != nil {
		return nil, err
	}
	var err error
	recovery := timeIt(func() { p.dev, _, err = parabit.Open(p.dir) })
	if err != nil {
		p.dev = nil
		return nil, fmt.Errorf("remount: %w", err)
	}
	want := p.state(nil)
	for lpn, pi := range want {
		got, err := p.dev.Read(uint64(lpn))
		if err != nil || !bytes.Equal(got, p.payloads[pi]) {
			p.readBack = append(p.readBack, mismatch{lpn, "read-back", fmt.Sprintf("lpn %d after remount: err %v", lpn, err)})
		}
	}
	return map[string]float64{"persist.recovery_s": recovery.Seconds()}, nil
}

func (p *persistIngest) verify() (int, []mismatch) {
	var bad []mismatch
	p.state(func(i int, o *piOp, page func(uint64) []byte) {
		s := p.loop.samples[i]
		var want []byte
		switch o.kind {
		case piBitwise:
			want = refOp(o.op, page(o.lpns[0]), page(o.lpns[1]))
		case piQuery:
			want = o.query.eval(page)
		}
		if !s.failed && digest(want) != s.digest {
			bad = append(bad, mismatch{i, piKinds[o.kind], "result differs from the reference"})
		}
	})
	return len(p.loop.samples) + p.pages, append(bad, p.readBack...)
}

func (p *persistIngest) enableTrace() { p.dev.EnableTelemetry(true) }

func (p *persistIngest) writeProgramTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.dev.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (p *persistIngest) layerInputs() layerInputs {
	var exprs []*qnode
	for i := range p.script {
		if q := p.script[i].query; q != nil && len(exprs) < 256 {
			exprs = append(exprs, q)
		}
	}
	return layerInputs{geometry: flash.Small(), pages: p.payloads, exprs: exprs}
}

func (p *persistIngest) close() {
	if p.dev != nil {
		p.dev.Close()
	}
	os.RemoveAll(p.dir)
}
