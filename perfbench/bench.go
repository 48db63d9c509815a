package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/replica"
)

// config is one benchmark run.
type config struct {
	w       workload
	seed    int64
	seconds float64 // measured time to accumulate over epochs
	trace   bool    // traced run: alternate untraced and traced epochs
	tmp     string  // temp root for store directories
	spans   string  // where a traced run writes its last traced epoch's spans ("" = nowhere)
}

// procs is the number of simulated processes, each one goroutine: the
// CPU count of the host the benchmark was sized on.
const procs = 2

// minEpochs is the fewest epochs a run makes, whatever its seconds: the
// end-to-end figures are medians over epochs, and a traced run needs
// both untraced and traced epochs.
const minEpochs = 4

// procBuf is one process's inputs and outputs for an epoch, allocated
// once per run so the measured loop does not allocate.
type procBuf struct {
	kinds   []kind
	lat     []uint32 // ns per op, by op index
	crashed []int32  // indices of ops during which the process crashed
	deq     []uint64 // non-empty Dequeue results, in order
	pop     []uint64 // non-empty Pop results, in order
	reads   []uint64 // Counter.Read results, in order
	incs    uint64   // completed Counter.Inc
	enqs    uint64   // completed Enqueue; the i-th enqueues p<<32|i
	pushes  uint64   // completed Push; the i-th pushes p<<32|i
	done    int      // ops completed
	failed  int      // ops that found the memory degraded
}

func newProcBuf(n int) *procBuf {
	return &procBuf{
		kinds: make([]kind, n), lat: make([]uint32, n), crashed: make([]int32, 0, n),
		deq: make([]uint64, 0, n), pop: make([]uint64, 0, n), reads: make([]uint64, 0, n),
	}
}

func (b *procBuf) reset() {
	b.crashed, b.deq, b.pop, b.reads = b.crashed[:0], b.deq[:0], b.pop[:0], b.reads[:0]
	b.incs, b.enqs, b.pushes, b.done, b.failed = 0, 0, 0, 0, 0
}

// env is one epoch's system: memory, processes, objects and store.
type env struct {
	mem   *nvm.Memory
	sys   *proc.System
	ctr   *objects.Counter
	q     *objects.Queue
	s     *objects.Stack
	meter *meter        // nil without a store
	file  *persist.File // durable-mix
	set   *replica.Set  // replicated-mix
	io    []*ioCounts   // one per store directory
	close func() error  // releases the store; does not flush
}

// runner executes the epochs of one run.
type runner struct {
	cfg       config
	bufs      []*procBuf // indexed by process id
	lastTrace *tracer    // the last traced epoch's spans
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, bufs: make([]*procBuf, procs+1)}
	for p := 1; p <= procs; p++ {
		r.bufs[p] = newProcBuf(cfg.w.epochOps)
	}
	return r
}

func (r *runner) dirs(epoch int) []string {
	switch r.cfg.w.store {
	case storeFile:
		return []string{filepath.Join(r.cfg.tmp, fmt.Sprintf("e%03d", epoch))}
	case storeReplica:
		ds := make([]string, replicaMembers)
		for i := range ds {
			ds[i] = filepath.Join(r.cfg.tmp, fmt.Sprintf("e%03d-m%d", epoch, i))
		}
		return ds
	}
	return nil
}

// open builds an epoch's system over the store in dirs (none for
// mem-mix), allocating the objects in a fixed order so a reopen
// recovers every word. metered wraps the store in a meter and counts
// its I/O.
func (r *runner) open(epoch int, dirs []string, capQ, capS int, inj proc.Injector, metered bool) (*env, error) {
	en := &env{close: func() error { return nil }}
	var backend nvm.Backend
	switch r.cfg.w.store {
	case storeFile:
		opts := persist.Options{}
		if metered {
			en.io = []*ioCounts{{}}
			opts.Inject = en.io[0].hook
		}
		f, err := persist.Open(dirs[0], opts)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		en.file, backend = f, f
	case storeReplica:
		opts := replica.Options{Dirs: dirs, Seed: proc.SplitSeed(r.cfg.seed, -1-epoch)}
		if metered {
			en.io = make([]*ioCounts, len(dirs))
			for i := range en.io {
				en.io[i] = &ioCounts{}
			}
			opts.InjectFor = func(i int) func(string) error { return en.io[i].hook }
		}
		s, err := replica.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("open replica set: %w", err)
		}
		en.set, backend = s, s
	}
	mopts := []nvm.Option{nvm.WithMode(nvm.Buffered)}
	if backend != nil {
		en.close = backend.Close
		if metered {
			en.meter = &meter{inner: backend}
			backend = en.meter
		}
		mopts = append(mopts, nvm.WithBackend(backend))
	}
	en.mem = nvm.New(mopts...)
	en.sys = proc.NewSystem(proc.Config{Procs: procs, Mem: en.mem, Injector: inj, RecoverPanics: true})
	en.ctr = objects.NewCounter(en.sys, "ctr")
	en.q = objects.NewQueue(en.sys, "q", capQ)
	en.s = objects.NewStack(en.sys, "s", capS)
	return en, nil
}

// injector returns crash-mix's per-process crash injectors: one
// proc.Random per process, each seeded from its own SplitSeed stream
// so its decisions depend only on that process's steps.
func (r *runner) injector(epoch int) proc.Injector {
	if r.cfg.w.crashRate == 0 {
		return proc.Never{}
	}
	m := make(proc.Multi, 0, procs)
	for p := 1; p <= procs; p++ {
		in := proc.NewRandom(r.cfg.w.crashRate, 0, rand.NewSource(proc.SplitSeed(proc.SplitSeed(r.cfg.seed, epoch), 1000+p)))
		in.Proc = p
		m = append(m, in)
	}
	return m
}

// body is process p's closed loop: issue the next op as soon as the
// previous one returns, timing each call.
func (r *runner) body(p int, en *env, tr *tracer) func(*proc.Ctx) {
	b := r.bufs[p]
	return func(c *proc.Ctx) {
		if tr != nil {
			tr.register(p)
			defer tr.unregister()
		}
		pr := en.sys.Proc(p)
		lastCrashes := pr.Crashes()
		base := uint64(p) << 32
		for i, k := range b.kinds {
			if tr != nil {
				tr.begin(p)
			}
			t0 := time.Now()
			switch k {
			case kCounterInc:
				en.ctr.Inc(c)
				b.incs++
			case kCounterRead:
				b.reads = append(b.reads, en.ctr.Read(c))
			case kQueueEnq:
				en.q.Enqueue(c, base|(b.enqs+1))
				b.enqs++
			case kQueueDeq:
				if v := en.q.Dequeue(c); v != objects.Empty {
					b.deq = append(b.deq, v)
				}
			case kStackPush:
				en.s.Push(c, base|(b.pushes+1))
				b.pushes++
			case kStackPop:
				if v := en.s.Pop(c); v != objects.Empty {
					b.pop = append(b.pop, v)
				}
			}
			t1 := time.Now()
			b.lat[i] = clampNs(t1.Sub(t0))
			if tr != nil {
				tr.end(p, k, t0, t1)
			}
			if n := pr.Crashes(); n != lastCrashes {
				b.crashed = append(b.crashed, int32(i))
				lastCrashes = n
			}
			if en.mem.Err() != nil {
				b.failed++
				return
			}
			b.done = i + 1
		}
	}
}

// epochResult is what one epoch measured.
type epochResult struct {
	traced    bool
	setup     time.Duration
	wall      time.Duration
	ops       int // completed
	attempted int
	failed    int // failed ops plus ops the correctness check flags
	problems  []string
	p50, p99  float64 // op latency, µs
	heapMB    float64 // live heap the epoch's system held after its measured phase

	latNs        int64 // sum of op latencies
	steps        uint64
	crashes      uint64
	mem          nvm.StatsSnapshot
	meter        meterStats
	io           ioTotals
	retries      uint64
	epochChanges uint64
	spans        spanSummary
}

// epoch runs one set-up, measured phase and correctness check.
func (r *runner) epoch(e int, traced bool, pool *latPool) (epochResult, error) {
	res := epochResult{traced: traced}
	var inserts [2]int // Queue, Stack
	for p := 1; p <= procs; p++ {
		b := r.bufs[p]
		b.reset()
		genKinds(b.kinds, r.cfg.w.mix, r.cfg.seed, e, p)
		for _, k := range b.kinds {
			switch k {
			case kQueueEnq:
				inserts[0]++
			case kStackPush:
				inserts[1]++
			}
		}
	}
	crashes := r.cfg.w.crashRate > 0
	capQ, capS := capacityFor(inserts[0], crashes), capacityFor(inserts[1], crashes)
	dirs := r.dirs(e)
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()

	runtime.GC()
	heap0 := liveHeap()
	t0 := time.Now()
	en, err := r.open(e, dirs, capQ, capS, r.injector(e), true)
	if err != nil {
		return res, err
	}
	res.setup = time.Since(t0)
	defer func() { en.close() }()

	runtime.GC()
	memBefore := en.mem.Stats()
	var io0 ioTotals
	var retries0 uint64
	if en.io != nil {
		io0 = sumIO(en.io)
	}
	if en.file != nil {
		_, retries0, _ = en.file.Metrics()
	}
	var epoch0 uint64
	if en.set != nil {
		epoch0 = en.set.Epoch()
	}
	var tr *tracer
	if traced {
		tr = newTracer(procs, r.cfg.w.epochOps)
		if en.meter != nil {
			en.meter.spans = tr
		}
	}
	if en.meter != nil {
		en.meter.take()
	}

	start := time.Now()
	for p := 1; p <= procs; p++ {
		en.sys.Go(p, r.body(p, en, tr))
	}
	en.sys.Wait()
	res.wall = time.Since(start)

	if en.meter != nil {
		en.meter.spans = nil
		res.meter = en.meter.take()
	}
	res.mem = subStats(en.mem.Stats(), memBefore)
	if en.io != nil {
		res.io = sumIO(en.io).minus(io0)
	}
	if en.file != nil {
		_, retries, _ := en.file.Metrics()
		res.retries = retries - retries0
	}
	if en.set != nil {
		res.epochChanges = en.set.Epoch() - epoch0
	}
	fails := en.sys.Failures()
	for _, f := range fails {
		res.problems = append(res.problems, f.Error())
	}
	if err := en.mem.Err(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.failed = len(fails)
	res.attempted = len(fails)
	runtime.GC()
	res.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	seg := pool.startEpoch()
	for p := 1; p <= procs; p++ {
		b := r.bufs[p]
		pr := en.sys.Proc(p)
		res.steps += pr.Steps()
		res.crashes += uint64(pr.Crashes())
		res.ops += b.done
		res.attempted += b.done + b.failed
		res.failed += b.failed
		lat := b.lat[:b.done]
		for _, ns := range lat {
			res.latNs += int64(ns)
		}
		seg = pool.add(seg, b, lat, traced)
	}
	res.p50, res.p99 = quantileUs(seg, 0.50), quantileUs(seg, 0.99)
	pool.endEpoch(seg, traced)
	if tr != nil {
		res.spans = tr.summarize()
		r.lastTrace = tr
	}

	// The check runs untimed. A failed op leaves its effect unknown, so
	// after one the accounting cannot hold and is not checked.
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("accounting not checked: %d ops failed", res.failed))
		return res, nil
	}
	// Over a store, the system is abandoned (closing a store does not
	// flush) and rebuilt from disk first.
	check := en
	if r.cfg.w.store != storeNone {
		err := en.close()
		en.close = func() error { return nil }
		if err != nil {
			return res, fmt.Errorf("close store: %w", err)
		}
		if check, err = r.open(e, dirs, capQ, capS, proc.Never{}, false); err != nil {
			return res, fmt.Errorf("reopen store: %w", err)
		}
		defer func() { check.close() }()
	}
	final, err := drain(check)
	if err != nil {
		return res, err
	}
	bad, problems := checkAccounting(r.bufs[1:], final)
	res.failed += bad
	res.problems = append(res.problems, problems...)
	return res, nil
}

// drained is the state left in an epoch's objects, read by one process.
type drained struct {
	counter uint64
	queue   []uint64 // in dequeue order
	stack   []uint64 // in pop order
}

// drain reads the counter and empties the queue and the stack.
func drain(en *env) (drained, error) {
	var d drained
	en.sys.Go(1, func(c *proc.Ctx) {
		d.counter = en.ctr.Read(c)
		for v := en.q.Dequeue(c); v != objects.Empty; v = en.q.Dequeue(c) {
			d.queue = append(d.queue, v)
		}
		for v := en.s.Pop(c); v != objects.Empty; v = en.s.Pop(c) {
			d.stack = append(d.stack, v)
		}
	})
	en.sys.Wait()
	if err := errors.Join(en.sys.Err(), en.mem.Err()); err != nil {
		return d, fmt.Errorf("drain: %w", err)
	}
	return d, nil
}

func subStats(a, b nvm.StatsSnapshot) nvm.StatsSnapshot {
	return nvm.StatsSnapshot{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, CASes: a.CASes - b.CASes,
		TASes: a.TASes - b.TASes, FAAs: a.FAAs - b.FAAs, Flushes: a.Flushes - b.Flushes,
		Fences: a.Fences - b.Fences, SystemCrashes: a.SystemCrashes - b.SystemCrashes,
		FenceWords: a.FenceWords - b.FenceWords, ShardContention: a.ShardContention - b.ShardContention,
	}
}

func addStats(a, b nvm.StatsSnapshot) nvm.StatsSnapshot {
	return nvm.StatsSnapshot{
		Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes, CASes: a.CASes + b.CASes,
		TASes: a.TASes + b.TASes, FAAs: a.FAAs + b.FAAs, Flushes: a.Flushes + b.Flushes,
		Fences: a.Fences + b.Fences, SystemCrashes: a.SystemCrashes + b.SystemCrashes,
		FenceWords: a.FenceWords + b.FenceWords, ShardContention: a.ShardContention + b.ShardContention,
	}
}

// liveHeap returns the bytes of live heap objects; call it right after
// runtime.GC so it excludes garbage.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
