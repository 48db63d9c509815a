package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one traced interval: an op (a root span, named op.<kind>) or
// a backend commit (named backend.commit, parented to the op whose
// fence issued it). Spans of one op share its id as root or parent.
type span struct {
	id, parent uint64
	name       uint8 // a kind, or spanCommit
	start, end int64 // ns since the tracer's base
}

const spanCommit = uint8(numKinds)

func spanName(n uint8) string {
	if n == spanCommit {
		return "backend.commit"
	}
	return "op." + kindNames[n]
}

// procSpans is one process's span buffer. Only that process's goroutine
// touches it: op spans are recorded by its loop and commit spans by the
// meter, which the memory calls on the fencing goroutine.
type procSpans struct {
	spans []span
	cur   uint64 // id of the op in progress, 0 between ops
	seq   uint64
}

// tracer keeps every span of a traced epoch in memory; they are
// summarised, and optionally written out, once the epoch ends.
type tracer struct {
	base  time.Time
	procs []procSpans    // indexed by process id
	tids  []atomic.Int64 // OS thread of each process, indexed by process id
}

func newTracer(procs, perProc int) *tracer {
	t := &tracer{base: time.Now(), procs: make([]procSpans, procs+1), tids: make([]atomic.Int64, procs+1)}
	for p := 1; p <= procs; p++ {
		t.procs[p].spans = make([]span, 0, perProc)
	}
	return t
}

// register locks the calling goroutine, process p's, to its OS thread
// and records the thread, so commit can tell which process issued a
// commit from the thread it runs on. Call unregister when p is done.
func (t *tracer) register(p int) {
	runtime.LockOSThread()
	t.tids[p].Store(int64(syscall.Gettid()))
}

func (t *tracer) unregister() { runtime.UnlockOSThread() }

// begin opens an op span for process p.
func (t *tracer) begin(p int) {
	ps := &t.procs[p]
	ps.seq++
	ps.cur = uint64(p)<<40 | ps.seq
}

// end closes process p's op span.
func (t *tracer) end(p int, k kind, t0, t1 time.Time) {
	ps := &t.procs[p]
	ps.spans = append(ps.spans, span{id: ps.cur, name: uint8(k), start: t0.Sub(t.base).Nanoseconds(), end: t1.Sub(t.base).Nanoseconds()})
	ps.cur = 0
}

// commit records a backend commit issued by the calling goroutine.
func (t *tracer) commit(t0, t1 time.Time) {
	tid := int64(syscall.Gettid())
	for p := 1; p < len(t.procs); p++ {
		if t.tids[p].Load() != tid {
			continue
		}
		ps := &t.procs[p]
		ps.seq++
		ps.spans = append(ps.spans, span{id: uint64(p)<<40 | ps.seq, parent: ps.cur, name: spanCommit,
			start: t0.Sub(t.base).Nanoseconds(), end: t1.Sub(t.base).Nanoseconds()})
		return
	}
}

// spanSummary is a traced epoch's time split by layer: op self time is
// proc+objects+nvm, commit time is storage.
type spanSummary struct {
	spans, ops int
	opNs       int64
	commitNs   int64
}

func (t *tracer) summarize() spanSummary {
	var s spanSummary
	for p := 1; p < len(t.procs); p++ {
		for _, sp := range t.procs[p].spans {
			s.spans++
			if sp.name == spanCommit {
				s.commitNs += sp.end - sp.start
				continue
			}
			s.ops++
			s.opNs += sp.end - sp.start
		}
	}
	return s
}

// maxWrittenSpans caps the spans written out per run, so a traced
// mem-mix run does not write hundreds of megabytes.
const maxWrittenSpans = 100_000

// write stores the spans as JSON lines, op spans with their commits,
// up to maxWrittenSpans.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := 0
	for p := 1; p < len(t.procs) && n < maxWrittenSpans; p++ {
		for _, sp := range t.procs[p].spans {
			if n == maxWrittenSpans {
				break
			}
			fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"proc\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				sp.id, sp.parent, spanName(sp.name), p, sp.start, sp.end)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
