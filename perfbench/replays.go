package main

import (
	"os"
	"time"

	"parabit"
	"parabit/internal/cluster"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

// Replays of the layers a workload's own traffic does not reach, on the
// workload's inputs, so that each per-layer time is measured on every
// workload. Pages are cut to the small geometry's page where the layer
// runs on it.

// mapLeaves returns a copy of n with every leaf key passed through f.
func (n *qnode) mapLeaves(f func(uint64) uint64) *qnode {
	if n.leaf {
		return qleaf(f(n.lpn))
	}
	m := &qnode{op: n.op, kids: make([]*qnode, len(n.kids))}
	for i, k := range n.kids {
		m.kids[i] = k.mapLeaves(f)
	}
	return m
}

func (n *qnode) leaves(out []uint64) []uint64 {
	if n.leaf {
		return append(out, n.lpn)
	}
	for _, k := range n.kids {
		out = k.leaves(out)
	}
	return out
}

// replayGroupShift packs a replay column key as group<<32 | leaf.
const replayGroupShift = 32

// replayCluster runs the workload's queries through a two-shard cluster
// holding the workload's pages as columns: with every leaf in one
// placement group, which routes shard-locally over the wire when the
// shape allows; the same ANDed with one of its own leaves, a nesting the
// wire cannot carry, which routes shard-locally through the planner; and
// with each leaf in
// a group of its own, which scatters when the groups land on different
// shards.
func replayCluster(r *replayer, l map[string]float64, in layerInputs) {
	c, err := cluster.New(cluster.Config{
		Shards:      2,
		PlacementOf: func(key uint64) uint64 { return key >> replayGroupShift },
		Device:      ssd.SmallConfig(),
	})
	if err != nil {
		r.fail("cluster.new", err)
		return
	}
	page := c.PageSize()
	written := map[uint64]bool{}
	layouts := []func(uint64) uint64{
		func(leaf uint64) uint64 { return leaf },
		func(leaf uint64) uint64 { return (leaf+1)<<replayGroupShift | leaf },
	}
	var queries []*qnode
	for i, q := range in.exprs {
		if i == replayReps/4 {
			break
		}
		for _, layout := range layouts {
			mq := q.mapLeaves(layout)
			for _, key := range mq.leaves(nil) {
				if written[key] {
					continue
				}
				leaf := key & (1<<replayGroupShift - 1)
				if _, err := c.WriteColumn("replay", key, in.pages[leaf%uint64(len(in.pages))][:page]); err != nil {
					r.fail("cluster.write_column", err)
					return
				}
				written[key] = true
			}
			queries = append(queries, mq)
		}
		queries = append(queries, qop(parabit.And, q, qleaf(q.leaves(nil)[0])))
	}
	walls := map[cluster.Route][]time.Duration{}
	for i := 0; i < replayReps; i++ {
		e := queries[i%len(queries)].expr()
		var res cluster.QueryResult
		var err error
		d := r.call("cluster.query", func() { res, err = c.Query("replay", e, ssd.SchemeLocFree) })
		if err != nil {
			r.fail("cluster.query", err)
			return
		}
		walls[res.Route] = append(walls[res.Route], d)
	}
	var reads []int64
	c.EachShard(func(sh *cluster.Shard) { reads = append(reads, sh.Reads()) })
	var sum, max int64
	for _, n := range reads {
		sum += n
		if n > max {
			max = n
		}
	}
	l["cluster.read_skew"] = float64(max) / (float64(sum) / float64(len(reads)))
	for _, route := range []cluster.Route{cluster.RouteLocal, cluster.RouteWire, cluster.RouteScatter} {
		l["cluster.query_ns."+string(route)] = float64(meanDuration(walls[route]))
		l["cluster.route_"+string(route)] = float64(len(walls[route]))
	}
}

// replayPersist writes the workload's pages through a persistent
// small-geometry device at the default snapshot threshold, then closes
// and remounts it: the same persist figures persist-ingest takes from
// its own traffic.
func replayPersist(r *replayer, l map[string]float64, in layerInputs, dir string) {
	tmp, err := os.MkdirTemp(dir, "persist-replay-")
	if err != nil {
		r.fail("persist.mkdir", err)
		return
	}
	defer os.RemoveAll(tmp)
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithPersistence(tmp))
	if err != nil {
		r.fail("persist.create", err)
		return
	}
	page := dev.PageSize()
	var plain, snap []time.Duration
	var snaps int64
	for i := 0; i < replayReps; i++ {
		data := in.pages[i%len(in.pages)][:page]
		var werr error
		d := r.call("persist.write", func() { werr = dev.Write(uint64(i%1024), data) })
		if werr != nil {
			r.fail("persist.write", werr)
			return
		}
		ps, _ := dev.PersistStats()
		if ps.Snapshots != snaps {
			snaps = ps.Snapshots
			snap = append(snap, d)
		} else {
			plain = append(plain, d)
		}
	}
	ps, _ := dev.PersistStats()
	if err := dev.Close(); err != nil {
		r.fail("persist.close", err)
		return
	}
	var re *parabit.Device
	d := r.call("persist.open", func() { re, _, err = parabit.Open(tmp) })
	if err != nil {
		r.fail("persist.open", err)
		return
	}
	if err := re.Close(); err != nil {
		r.fail("persist.close", err)
		return
	}
	l["persist.op_ns"] = float64(meanDuration(plain))
	l["persist.snapshot_ms"] = float64(meanDuration(snap)) / 1e6
	l["persist.snapshots"] = float64(ps.Snapshots)
	l["persist.journal_bytes_per_user_byte"] = float64(ps.JournalBytes) / float64(replayReps*page)
	l["persist.recovery_s"] = d.Seconds()
}

// replayWorkload generates a bitmap with as many bits per day column as
// 16 of the workload's pages hold.
func replayWorkload(r *replayer, l map[string]float64, in layerInputs) {
	spec := workload.CustomBitmap(int64(16*8*in.geometry.PageSize), cbDays, cbSkew)
	var err error
	d := r.call("workload.generate", func() { _, err = workload.GenerateBitmap(spec, 1) })
	if err != nil {
		r.fail("workload.generate", err)
		return
	}
	l["workload.generate_s"] = d.Seconds()
}
