package main

import (
	"sync"
	"sync/atomic"
	"time"

	"nrl/internal/nvm"
)

// meter is the benchmark's nvm.Backend: it wraps the real store
// (persist.File or replica.Set), times every Commit and counts its
// words. The memory calls Commit from the fencing process's goroutine,
// which is what lets a traced run parent each commit span to the op
// that issued it.
type meter struct {
	inner nvm.Backend
	spans *tracer // nil outside traced epochs

	mu          sync.Mutex
	commits     uint64
	words       uint64
	inflight    int
	inflightSum uint64 // commits in flight at each entry, the entering one included
	busyFrom    time.Time
	busy        time.Duration // union of the intervals with a commit in flight
	lat         []uint32      // ns per commit
}

func (m *meter) Recovered(a nvm.Addr) (uint64, bool) { return m.inner.Recovered(a) }
func (m *meter) Grow(a nvm.Addr, init uint64)        { m.inner.Grow(a, init) }
func (m *meter) Close() error                        { return m.inner.Close() }

func (m *meter) Commit(batch []nvm.WordUpdate) error {
	t0 := time.Now()
	m.mu.Lock()
	m.inflight++
	m.inflightSum += uint64(m.inflight)
	if m.inflight == 1 {
		m.busyFrom = t0
	}
	m.mu.Unlock()

	err := m.inner.Commit(batch)

	t1 := time.Now()
	d := t1.Sub(t0)
	m.mu.Lock()
	m.inflight--
	if m.inflight == 0 {
		m.busy += t1.Sub(m.busyFrom)
	}
	m.commits++
	m.words += uint64(len(batch))
	m.lat = append(m.lat, clampNs(d))
	m.mu.Unlock()
	if m.spans != nil {
		m.spans.commit(t0, t1)
	}
	return err
}

// meterStats is a meter's totals over one measured phase.
type meterStats struct {
	commits, words, inflightSum uint64
	busy                        time.Duration
	lat                         []uint32
}

// take returns the totals so far and starts a new interval.
func (m *meter) take() meterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := meterStats{commits: m.commits, words: m.words, inflightSum: m.inflightSum, busy: m.busy, lat: m.lat}
	m.commits, m.words, m.inflightSum, m.busy, m.lat = 0, 0, 0, 0, nil
	return s
}

// ioCounts counts one store's physical I/O attempts. Its hook is
// installed as persist.Options.Inject (or returned from
// replica.Options.InjectFor) and never fails an attempt.
type ioCounts struct {
	walFsyncs   atomic.Uint64
	dataPwrites atomic.Uint64
	dataFsyncs  atomic.Uint64
}

func (c *ioCounts) hook(op string) error {
	switch op {
	case "wal.fsync":
		c.walFsyncs.Add(1)
	case "data.pwrite":
		c.dataPwrites.Add(1)
	case "data.fsync":
		c.dataFsyncs.Add(1)
	}
	return nil
}

// ioTotals is a sum of ioCounts.
type ioTotals struct{ walFsyncs, dataPwrites, dataFsyncs uint64 }

func sumIO(cs []*ioCounts) ioTotals {
	var t ioTotals
	for _, c := range cs {
		t.walFsyncs += c.walFsyncs.Load()
		t.dataPwrites += c.dataPwrites.Load()
		t.dataFsyncs += c.dataFsyncs.Load()
	}
	return t
}

func (t ioTotals) minus(u ioTotals) ioTotals {
	return ioTotals{t.walFsyncs - u.walFsyncs, t.dataPwrites - u.dataPwrites, t.dataFsyncs - u.dataFsyncs}
}

// clampNs converts a duration to uint32 nanoseconds, saturating at ~4.3 s.
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}
