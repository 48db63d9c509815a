package nvm

import (
	"sync"
	"sync/atomic"
	"testing"

	"nrl/internal/trace"
)

// TestStatsConcurrentSampling hammers Stats and ResetStats while memory
// operations are in flight. It asserts nothing beyond "no data race and
// no torn counter" — the snapshot consistency contract (see the Stats
// type documentation) deliberately leaves cross-counter atomicity and
// reset-interval attribution unspecified. Run under -race.
func TestStatsConcurrentSampling(t *testing.T) {
	mem := New()
	addrs := mem.AllocArray("x", 8, 0)
	const iters = 2000
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			a := addrs[g%len(addrs)]
			for i := 0; i < iters; i++ {
				mem.Write(a, uint64(i))
				mem.Read(a)
				mem.CAS(a, uint64(i), uint64(i)+1)
				mem.TAS(a)
				mem.FAA(a, 1)
				mem.Persist(a)
			}
		}(g)
	}
	var stop atomic.Bool
	var samplers sync.WaitGroup
	samplers.Add(2)
	go func() {
		defer samplers.Done()
		for !stop.Load() {
			s := mem.Stats()
			// Counters only ever grow between resets; an impossible value
			// here would mean a torn or corrupted load.
			if s.Reads > 1<<40 {
				t.Error("impossible read count")
				return
			}
			mem.ResetStats()
		}
	}()
	go func() {
		defer samplers.Done()
		for !stop.Load() {
			_ = mem.Stats()
		}
	}()
	writers.Wait()
	stop.Store(true)
	samplers.Wait()
}

// TestDrainStatsExactness: every increment must be attributed to exactly
// one drained interval, even with drains racing the operations. This is
// the property DrainStats adds over a Stats+ResetStats pair.
func TestDrainStatsExactness(t *testing.T) {
	mem := New()
	addrs := mem.AllocArray("x", 4, 0)
	const (
		writers         = 4
		writesPerWriter = 5000
	)
	var writersDone atomic.Bool
	var drained atomic.Uint64
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for !writersDone.Load() {
			drained.Add(mem.DrainStats().Writes)
		}
	}()
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			a := addrs[g%len(addrs)]
			for i := 0; i < writesPerWriter; i++ {
				mem.Write(a, uint64(i))
			}
		}(g)
	}
	ww.Wait()
	writersDone.Store(true)
	drainer.Wait()
	drained.Add(mem.DrainStats().Writes) // whatever the racing drains left behind
	if got, want := drained.Load(), uint64(writers*writesPerWriter); got != want {
		t.Errorf("drained %d writes in total, want %d (lost or double-counted increments)", got, want)
	}
}

// TestStripedStatsDrainExact runs more attributed processes than there
// are stats stripes, so several processes share each stripe, while
// another goroutine drains concurrently. Every counter's drained total
// must equal the exact number of events of its kind. Run under -race.
func TestStripedStatsDrainExact(t *testing.T) {
	const (
		procs = 2*statStripes + 3
		iters = 500
	)
	mem := New(WithMode(Buffered))
	addrs := mem.AllocArray("x", procs+1, 0)
	var done atomic.Bool
	var total StatsSnapshot
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for !done.Load() {
			total = plusStats(total, mem.DrainStats())
		}
	}()
	var ww sync.WaitGroup
	for p := 1; p <= procs; p++ {
		ww.Add(1)
		go func(p int) {
			defer ww.Done()
			at, a := trace.Attr{P: p}, addrs[p]
			for i := 0; i < iters; i++ {
				v := mem.ReadAt(a, at)
				mem.WriteAt(a, v+1, at)
				mem.CASAt(a, v+1, v+2, at)
				mem.TASAt(a, at)
				mem.FAAAt(a, 1, at)
				mem.FlushAt(a, at)
				mem.FenceAt(at)
			}
		}(p)
	}
	ww.Wait()
	done.Store(true)
	<-drained
	total = plusStats(total, mem.DrainStats())
	const n = procs * iters
	want := StatsSnapshot{
		Reads: n, Writes: n, CASes: n, TASes: n, FAAs: n,
		Flushes: n, Fences: n, FenceWords: n,
		ShardContention: total.ShardContention, // timing-dependent
	}
	if total != want {
		t.Errorf("drained totals %+v\nwant exactly    %+v", total, want)
	}
}

// plusStats adds two snapshots counter by counter.
func plusStats(a, b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes,
		CASes: a.CASes + b.CASes, TASes: a.TASes + b.TASes, FAAs: a.FAAs + b.FAAs,
		Flushes: a.Flushes + b.Flushes, Fences: a.Fences + b.Fences,
		SystemCrashes: a.SystemCrashes + b.SystemCrashes,
		FenceWords:    a.FenceWords + b.FenceWords,

		ShardContention: a.ShardContention + b.ShardContention,
	}
}
