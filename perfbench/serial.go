package main

import "time"

// waitFn completes one started operation and returns its result bytes
// (nil for writes) and the modelled latency the program reported.
type waitFn func() (data []byte, simLat time.Duration, err error)

// serial drives a single-submitter closed loop over a cyclic script: each
// burst of operations is submitted back to back and then reaped in
// submission order, so the program's scheduler sees the same commands in
// the same batches on every run with the same seed.
type serial struct {
	burst   func(i int) int // burst length starting at operation i
	kind    func(i int) int // kind index of operation i
	start   func(i int) waitFn
	reclaim reclaimer // nil: the workload needs no pool trims
	names   []string  // kind names, for spans
	spans   *spanLog  // nil when untraced

	samples  []sample
	firstErr error // the first operation error, for the report
	next     int
	waits    []waitFn
	starts   []time.Duration
}

func (s *serial) runBurst() {
	n := s.burst(s.next)
	s.waits, s.starts = s.waits[:0], s.starts[:0]
	for j := 0; j < n; j++ {
		s.starts = append(s.starts, now())
		s.waits = append(s.waits, s.start(s.next+j))
	}
	for j, wait := range s.waits {
		data, simLat, err := wait()
		end := now()
		i := s.next + j
		k := s.kind(i)
		s.samples = append(s.samples, sample{kind: k, failed: err != nil, at: end, wall: end - s.starts[j], sim: simLat, digest: digest(data)})
		if err != nil && s.firstErr == nil {
			s.firstErr = err
		}
		if s.spans != nil {
			s.spans.add(0, s.names[k], uint64(i), s.starts[j], end)
		}
	}
	before := s.next
	s.next += n
	if s.reclaim != nil {
		maybeReclaim(s.reclaim, int64(before), int64(s.next))
	}
}

// warm runs whole bursts until at least ops operations have run.
func (s *serial) warm(ops int) {
	for s.next < ops {
		s.runBurst()
	}
}

// runWindow runs whole bursts until the window closes or, when limit > 0,
// until the loop has run limit operations in all. prior is how many
// operations earlier loops added to the window's quota count. atQuota is
// called once, with the window paused, at the first burst boundary where
// that count reaches w.quota. runWindow returns the sample index where
// the window began in this loop, the index of the quota boundary (-1 if
// not in this loop), and whether the window closed.
func (s *serial) runWindow(w *window, prior, limit int, atQuota func()) (first, quotaEnd int, closed bool) {
	first, quotaEnd = len(s.samples), -1
	for {
		s.runBurst()
		ops := prior + len(s.samples) - first
		if prior < w.quota && quotaEnd < 0 && ops >= w.quota {
			quotaEnd = len(s.samples)
			w.pause(atQuota)
		}
		if w.done(ops) {
			return first, quotaEnd, true
		}
		if limit > 0 && s.next >= limit {
			return first, quotaEnd, false
		}
	}
}
