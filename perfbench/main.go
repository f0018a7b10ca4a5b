// Command perfbench is the repository benchmark: it drives the ParaBit
// reproduction from outside through its public Go API, measures host
// wall-clock cost and the modelled device time on three workloads,
// checks every result against its own byte-loop oracle, and prints one
// JSON result line. See README.md for the workloads and the output
// contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// dir holds the run's scratch files: persistent stores and, in a
	// traced run, the span and telemetry files.
	dir string
	// cpuProfile, when set, is where an untraced run writes a CPU profile
	// of its timed window.
	cpuProfile string
}

// windowStats is what one timed window measured.
type windowStats struct {
	win     *window
	samples []sample      // every operation in the window, in completion order
	elapsed time.Duration // host length of the window
	// sim covers the operations the sim_* metrics describe, simOps of
	// them spanning simMakespan of modelled device time.
	sim         []sample
	simOps      int
	simMakespan time.Duration
	// counters are the program's public counter deltas over the same
	// span as sim; gauges are ratios read at its end.
	counters counters
	gauges   map[string]float64
	// heapMB is the live host heap at the end of the sim span: a fixed
	// amount of work, so the figure does not grow with host speed.
	heapMB float64
}

// bench is one workload, set up and ready to run timed windows.
type bench interface {
	kinds() []string
	// window runs one timed window; spans is nil when untraced.
	window(w *window, spans *spanLog) windowStats
	// quota is the deterministic span's length in operations; every
	// window runs at least that many.
	quota() int
	// enableTrace attaches the program's own telemetry sink with span
	// recording on.
	enableTrace()
	// finish ends the run the way the workload's user would (for
	// persist-ingest: close, remount, read back) and returns any
	// per-layer metrics that needs.
	finish(spans *spanLog) (map[string]float64, error)
	// verify replays every issued operation through the oracle.
	verify() (checked int, bad []mismatch)
	// all returns every operation the run issued and the first error one
	// of them returned.
	all() ([]sample, error)
	layerInputs() layerInputs
	writeProgramTrace(path string) error
	close()
}

type workloadSpec struct {
	why   string
	setup func(cfg config) (bench, map[string]float64, error)
}

var workloads = map[string]workloadSpec{
	"device-mix":     {"one paper-geometry device with ECC: bitwise, reduce, query, read and overwrite traffic at queue depth 1-8", setupDeviceMix},
	"cluster-bitmap": {"the bitmap-index service on a 4x2 cluster: two closed-loop clients, local ANDs, scatter ORs, column rewrites", setupClusterBitmap},
	"persist-ingest": {"one persistent small-geometry device: write-heavy overwrite of nearly all user capacity, then remount and read back", setupPersistIngest},
}

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build serves the timed window.
const setupReps = 7

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome: the result line plus what the benchmark's
// own tests compare.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	counters counters
	lines    []string
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: device-mix, cluster-bitmap or persist-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds the timed window lasts")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores, spans and traces")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced timed window to this file")
	flag.Parse()
	cfg.traced = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <device-mix|cluster-bitmap|persist-ingest> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(cfg config) (*report, error) {
	spec := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var b bench
	var setupLayers map[string]float64
	var setups []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		heapMB() // every setup starts from a collected heap
		var err error
		d := timeIt(func() { b, setupLayers, err = spec.setup(cfg) })
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer b.close()

	rep := &report{Metrics: map[string]metric{}}
	rep.printf("workload %s (seed %d): %s", cfg.workload, cfg.seed, spec.why)
	if cfg.traced {
		if err := tracedRun(cfg, b, rep, setupLayers); err != nil {
			return nil, err
		}
	} else if err := untracedRun(cfg, b, rep, setups); err != nil {
		return nil, err
	}
	conclude(rep, b)
	return rep, nil
}

// conclude checks every operation the run issued against the oracle,
// counts failures, and gives the verdict: a run is correct only when no
// result differs from the reference and no operation failed.
func conclude(rep *report, b bench) {
	checked, bad := b.verify()
	rep.printf("oracle: %d results checked against the byte-loop reference, %d mismatches", checked, len(bad))
	for i, m := range bad {
		if i == 10 {
			rep.printf("  ... %d more", len(bad)-i)
			break
		}
		rep.printf("  mismatch %s", m)
	}
	all, firstErr := b.all()
	accounting(rep, b.kinds(), all, firstErr)
	rep.Correct = len(bad) == 0 && rep.Failed == 0
}

// accounting counts attempts and failures per kind over every operation
// the run issued, warm-up included.
func accounting(rep *report, kinds []string, all []sample, firstErr error) {
	att := make([]int, len(kinds))
	fail := make([]int, len(kinds))
	for _, s := range all {
		att[s.kind]++
		if s.failed {
			fail[s.kind]++
		}
	}
	rep.printf("failures by kind (attempted / failed):")
	for k, name := range kinds {
		rep.printf("  %-16s %8d / %d", name, att[k], fail[k])
		rep.Attempted += att[k]
		rep.Failed += fail[k]
	}
	rate := float64(rep.Failed) / float64(rep.Attempted)
	rep.printf("error_rate %.6f (%d failed of %d attempted)", rate, rep.Failed, rep.Attempted)
	if firstErr != nil {
		rep.printf("first error: %v", firstErr)
	}
}

func untracedRun(cfg config, b bench, rep *report, setups []float64) error {
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	ws, alloc := timedWindow(cfg.seconds, b, nil)
	if cfg.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if _, err := b.finish(nil); err != nil {
		return err
	}
	sims := durations(successes(ws.sim), func(s sample) time.Duration { return s.sim })
	rate, p50, p99 := ws.win.hostFigures(ws.samples)
	rep.counters = ws.counters
	rep.Metrics["ops_per_s"] = metric{rate, "1/s"}
	rep.Metrics["wall_p50_us"] = metric{p50, "us"}
	rep.Metrics["wall_p99_us"] = metric{p99, "us"}
	rep.Metrics["sim_mean_us"] = metric{us(meanDuration(sims)), "us"}
	rep.Metrics["sim_tail_us"] = metric{us(tailMean(sims, 0.01)), "us"}
	rep.Metrics["sim_ops_per_s"] = metric{float64(ws.simOps) / ws.simMakespan.Seconds(), "1/s"}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["alloc_bytes_per_op"] = metric{float64(alloc) / float64(len(ws.samples)), "B"}
	rep.Metrics["heap_mb"] = metric{ws.heapMB, "MB"}
	rep.printf("timed window: %d ops in %.3fs host; host figures are medians over %d sub-windows of equal operation count", len(ws.samples), ws.elapsed.Seconds(), min(subWindows, max(len(ws.samples)/1000, 1)))
	rep.printf("sim span: %d ops over %.6fs modelled; sim mean over %d samples, tail mean over the slowest %d", ws.simOps, ws.simMakespan.Seconds(), len(sims), len(sims)/100)
	// The model's latencies take few distinct values (every page program
	// costs the same), so its percentiles sit on those modes and read the
	// same for every seed: printed for reference, not reported as metrics.
	rep.printf("sim p50 %.2fus, p99 %.2fus", us(quantile(sims, 0.50)), us(quantile(sims, 0.99)))
	rep.printf("setup runs (s): %v", setups)
	blob, err := json.Marshal(ws.counters)
	if err != nil {
		return err
	}
	rep.printf("counter deltas over the sim span: %s", blob)
	return nil
}

// timedWindow collects garbage, then runs one window and returns it with
// the host bytes its operations allocated: work done while the window's
// clock was paused (device rebuilds, the quota-point snapshot) is left
// out.
func timedWindow(seconds float64, b bench, spans *spanLog) (windowStats, uint64) {
	heapMB() // start every window from a collected heap
	m := markMem()
	w := newWindow(seconds, b.quota())
	ws := b.window(w, spans)
	ws.win = w
	return ws, m.allocSince() - w.pausedAlloc
}

func successes(ss []sample) []sample {
	out := make([]sample, 0, len(ss))
	for _, s := range ss {
		if !s.failed {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []sample, f func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
