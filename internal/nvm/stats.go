package nvm

import "sync/atomic"

// statCounter indexes one of the counters a Stats stripe holds.
type statCounter int

const (
	statReads statCounter = iota
	statWrites
	statCASes
	statTASes
	statFAAs
	statFlushes
	statFences
	statSystemCrashes
	// statFenceWords counts the words fences made durable (after
	// deduplicating re-flushed words), so fenceWords/fences is the mean
	// drained-batch size — a direct read on how much work the
	// per-process flush sets save versus a global scan.
	statFenceWords
	// statShardContention counts lock acquisitions (bank persistence
	// mutexes) that could not be taken immediately. Zero under a
	// well-striped workload; growth signals fences or crashes fighting
	// over the same bank.
	statShardContention

	numStatCounters
)

// statStripes is the number of counter stripes a Stats holds. It is a
// power of two; attribution p lands on stripe p & (statStripes-1).
const statStripes = 16

// statStripe is one process's share of the counters, padded to 128 bytes
// (two cache lines, the adjacent-line prefetch unit) so no two stripes'
// counters ever share a line.
type statStripe struct {
	n [numStatCounters]atomic.Uint64
	_ [128 - numStatCounters*8]byte
}

// Stats counts the operations applied to a Memory since creation (or since
// the last ResetStats). Counters are updated atomically and may be sampled
// concurrently with memory operations.
//
// The counters are striped per process, the way flush sets are: every
// attributed primitive, flush, fence and fence-drained word is counted on
// stripe Attr.P & (statStripes-1), so processes with distinct stripes
// never write a common cache line. Stripe 0 takes unattributed accesses,
// CrashAll, and bank contention outside a fence (a fence charges its
// contention to the fencing process's stripe). Processes whose ids share
// a stripe share its atomics, which is correct, only slower. Readers pay
// instead: Stats, DrainStats and ResetStats visit every stripe.
//
// # Snapshot consistency contract
//
// Each counter of each stripe is individually atomic, but a StatsSnapshot
// is NOT a cross-counter atomic picture: Stats sums each counter over the
// stripes one load at a time, so a snapshot taken while memory operations
// are in flight may pair a read count from before a concurrent operation
// with a write count from after it. Each summed counter is still bounded
// by its true value at the start and at the end of the call, so
// successive snapshots never decrease between resets. Likewise ResetStats
// zeroes the stripes one at a time; a concurrent sampler can observe some
// counters already reset and others not, and an increment racing a reset
// lands on whichever side of the zeroing its Add happens to fall — it is
// never lost and never double counted, but which interval it is
// attributed to is unspecified.
//
// Callers that need exact per-interval deltas must either quiesce the
// memory around the sample (what the harness does: it samples between
// System.Wait and the next workload) or use DrainStats, which atomically
// steals each stripe's value so that every increment is drained exactly
// once, into exactly one interval, even under concurrency.
type Stats struct {
	stripes [statStripes]statStripe
}

// add counts one event of counter c on the stripe of attribution p.
func (s *Stats) add(p int, c statCounter, delta uint64) {
	s.stripes[uint(p)%statStripes].n[c].Add(delta)
}

// StatsSnapshot is a point-in-time copy of a Memory's counters.
type StatsSnapshot struct {
	Reads         uint64
	Writes        uint64
	CASes         uint64
	TASes         uint64
	FAAs          uint64
	Flushes       uint64
	Fences        uint64
	SystemCrashes uint64

	// FenceWords is the total number of words fences made durable; see
	// Stats for the batch-size interpretation.
	FenceWords uint64

	// ShardContention counts contended bank-mutex acquisitions; see
	// Stats.
	ShardContention uint64
}

// Total returns the total number of memory primitives applied (excluding
// flushes, fences and crashes).
func (s StatsSnapshot) Total() uint64 {
	return s.Reads + s.Writes + s.CASes + s.TASes + s.FAAs
}

// collect folds every stripe's counters through take (a load, a swap or
// a store of zero) into one snapshot.
func (s *Stats) collect(take func(*atomic.Uint64) uint64) StatsSnapshot {
	var v [numStatCounters]uint64
	for i := range s.stripes {
		for c := range v {
			v[c] += take(&s.stripes[i].n[c])
		}
	}
	return StatsSnapshot{
		Reads:         v[statReads],
		Writes:        v[statWrites],
		CASes:         v[statCASes],
		TASes:         v[statTASes],
		FAAs:          v[statFAAs],
		Flushes:       v[statFlushes],
		Fences:        v[statFences],
		SystemCrashes: v[statSystemCrashes],

		FenceWords:      v[statFenceWords],
		ShardContention: v[statShardContention],
	}
}

// Stats returns a snapshot of the memory's counters, summed over the
// stripes.
func (m *Memory) Stats() StatsSnapshot {
	return m.stats.collect((*atomic.Uint64).Load)
}

// ResetStats zeroes all counters. See the Stats type documentation for
// the consistency contract with concurrent samplers: the reset is atomic
// per counter and stripe, not across them.
func (m *Memory) ResetStats() {
	m.stats.collect(func(u *atomic.Uint64) uint64 { u.Store(0); return 0 })
}

// DrainStats atomically swaps every stripe's counters to zero and returns
// the drained sums. Unlike a Stats-then-ResetStats pair, an increment
// racing the drain is attributed to exactly one interval: either it is
// included in the returned snapshot or it survives into the next one.
// (The snapshot is still assembled counter by counter and stripe by
// stripe; only per-counter exactness is guaranteed, per the Stats
// contract.)
func (m *Memory) DrainStats() StatsSnapshot {
	return m.stats.collect(func(u *atomic.Uint64) uint64 { return u.Swap(0) })
}
