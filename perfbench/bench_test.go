package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parabit"
)

func shortRun(t *testing.T, workload string, seed int64, traced bool) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: seed, seconds: 1, traced: traced, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.lines, "\n"))
	}
	return rep
}

// The single-submitter workloads promise that a change which only speeds
// up the simulator leaves every sim_* metric and every counter delta of
// the deterministic span identical: two runs with one seed must agree.
func TestDeterministicSpanRepeats(t *testing.T) {
	for _, w := range []string{"device-mix", "persist-ingest"} {
		a, b := shortRun(t, w, 7, false), shortRun(t, w, 7, false)
		for _, m := range []string{"sim_mean_us", "sim_tail_us", "sim_ops_per_s"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s %s: %v then %v", w, m, a.Metrics[m], b.Metrics[m])
			}
		}
		if len(a.counters) == 0 || !reflect.DeepEqual(a.counters, b.counters) {
			for k, v := range a.counters {
				if b.counters[k] != v {
					t.Errorf("%s counter %s: %d then %d", w, k, v, b.counters[k])
				}
			}
		}
		if c := shortRun(t, w, 8, false); reflect.DeepEqual(a.counters, c.counters) {
			t.Errorf("%s: seeds 7 and 8 gave identical counters; the seed does not reach the inputs", w)
		}
	}
}

func TestClusterRoutesMatchResults(t *testing.T) {
	rep := shortRun(t, "cluster-bitmap", 3, false)
	for k, v := range rep.counters {
		if strings.HasPrefix(k, "cluster.route_mismatch.") {
			t.Errorf("%s: program route counter off by %d from the routes results reported", k, v)
		}
	}
	if rep.counters["cluster.route.scatter"] == 0 || rep.counters["cluster.route.wire"] == 0 {
		t.Errorf("routes not all exercised: %v", rep.counters)
	}
}

// Every end-to-end metric is reported, and is never zero.
func TestEndToEndMetricsPresent(t *testing.T) {
	rep := shortRun(t, "device-mix", 1, false)
	for _, m := range []string{"ops_per_s", "wall_p50_us", "wall_p99_us", "sim_mean_us", "sim_tail_us",
		"sim_ops_per_s", "setup_s", "alloc_bytes_per_op", "heap_mb"} {
		if v, ok := rep.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("%s = %v, %v", m, v, ok)
		}
	}
}

// A traced run prints every per-layer metric, and every time among them
// is a measurement (non-zero) on every workload.
func TestTracedRunCoversEveryLayer(t *testing.T) {
	for w := range workloads {
		rep := shortRun(t, w, 2, true)
		if len(rep.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics, want %d", w, len(rep.Metrics), len(layerMetrics))
		}
		for _, m := range layerMetrics {
			v, ok := rep.Metrics[m.name]
			if !ok {
				t.Errorf("%s: %s missing", w, m.name)
				continue
			}
			switch m.unit {
			case "ns", "us", "ms", "s":
				if v.Value <= 0 {
					t.Errorf("%s: %s = %v", w, m.name, v.Value)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics the runs
// print: the same names and units, in both sections.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q not implemented", w.Name)
		}
	}
	rep := shortRun(t, "persist-ingest", 1, false)
	if len(spec.EndToEnd) != len(rep.Metrics) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(spec.EndToEnd), len(rep.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: declared %s (%s), printed %+v", i, m.Name, m.Unit, layerMetrics[i])
		}
	}
}

// The oracle must catch a wrong result: corrupt one recorded digest and
// verification reports exactly that operation.
func TestOracleFlagsCorruptedResult(t *testing.T) {
	b, _, err := setupDeviceMix(config{seed: 4, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	m := b.(*deviceMix)
	if _, bad := m.verify(); len(bad) != 0 {
		t.Fatalf("clean warm-up: %v", bad)
	}
	for i := range m.loop.samples {
		if m.script[i].kind != dmWrite {
			m.loop.samples[i].digest ^= 1
			_, bad := m.verify()
			if len(bad) != 1 || bad[0].index != i {
				t.Fatalf("corrupted op %d: oracle reported %v", i, bad)
			}
			return
		}
	}
}

// A failed operation makes the run incorrect even though every result
// that did come back matches the oracle.
func TestFailureFlipsVerdict(t *testing.T) {
	b, _, err := setupDeviceMix(config{seed: 5, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	m := b.(*deviceMix)
	rep := &report{Metrics: map[string]metric{}}
	conclude(rep, m)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("clean warm-up: correct=%v failed=%d\n%s", rep.Correct, rep.Failed, strings.Join(rep.lines, "\n"))
	}
	// The next operation reads an LPN far beyond the device.
	m.script[m.loop.next%dmScript] = dmOp{kind: dmRead, lpns: []uint64{1 << 40}}
	m.loop.runBurst()
	rep = &report{Metrics: map[string]metric{}}
	conclude(rep, m)
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("after a failed read: correct=%v failed=%d\n%s", rep.Correct, rep.Failed, strings.Join(rep.lines, "\n"))
	}
}

// The oracle's truth table agrees with the program's documented
// per-bit semantics of each operation.
func TestRefOpMatchesOpSemantics(t *testing.T) {
	a, b := []byte{0b1100}, []byte{0b1010}
	for _, op := range parabit.Ops {
		got := refOp(op, a, b)[0]
		for bit := 0; bit < 4; bit++ {
			x, y := a[0]>>bit&1 == 1, b[0]>>bit&1 == 1
			if want := op.Eval(x, y); (got>>bit&1 == 1) != want {
				t.Errorf("%v bit %d (%v,%v): got %v want %v", op, bit, x, y, !want, want)
			}
		}
	}
}
