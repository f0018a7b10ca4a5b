package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into the program, timed on the
// host: the public API call or layer function it wraps, a request ID,
// and its start and end relative to the run's clock origin.
type span struct {
	name       string
	id         uint64
	lane       int
	start, end time.Duration
}

// spanLog keeps spans in memory during the traced run; write exports
// them once the run has ended.
type spanLog struct {
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<16)} }

func (l *spanLog) add(lane int, name string, id uint64, start, end time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, id: id, lane: lane, start: start, end: end})
	l.mu.Unlock()
}

// write exports the spans as Chrome trace-event JSON: one complete
// ("X") event per span, microsecond timestamps, the request ID in args,
// one thread lane per client.
func (l *spanLog) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range l.spans {
		name, _ := json.Marshal(s.name)
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d}}",
			sep, name, s.lane, us(s.start), us(s.end-s.start), s.id)
	}
	if _, err := w.WriteString("\n]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
