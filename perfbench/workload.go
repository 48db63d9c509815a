package main

import (
	"math/rand"

	"nrl/internal/objects"
	"nrl/internal/proc"
)

// kind is one recoverable operation the workloads issue.
type kind uint8

const (
	kCounterInc kind = iota
	kCounterRead
	kQueueEnq
	kQueueDeq
	kStackPush
	kStackPop
	numKinds
)

var kindNames = [numKinds]string{
	"counter_inc", "counter_read", "queue_enq", "queue_deq", "stack_push", "stack_pop",
}

// memMix is mem-mix's op mix in percent: 40% Counter.Inc, 10%
// Counter.Read, 15/15% Queue.Enqueue/Dequeue, 10/10% Stack.Push/Pop.
var memMix = [numKinds]int{40, 10, 15, 15, 10, 10}

// durableMix is the store-backed workloads' mix: equal shares of
// Enqueue, Dequeue, Push and Pop. The Counter is left out because its
// nested registers issue no flushes or fences, so its increments are
// not durable over a store (only the paper's per-process crashes, where
// memory survives, are within its model).
var durableMix = [numKinds]int{0, 0, 25, 25, 25, 25}

// storeKind selects what sits under the buffered NVRAM.
type storeKind int

const (
	storeNone    storeKind = iota // no backend: fences stay in memory
	storeFile                     // one persist.File, default options
	storeReplica                  // a 3-member replica.Set, quorum 2
)

// workload is one benchmark input set: an op mix on one shared
// Counter, Queue and Stack, what lies under the memory, and whether
// processes crash.
type workload struct {
	name  string
	mix   [numKinds]int // percent of ops of each kind
	store storeKind
	// crashRate is the per-step crash probability of each process's
	// injector (0 = proc.Never).
	crashRate float64
	// epochOps is how many ops each process issues per epoch. An epoch
	// is one set-up, one measured phase and one correctness check; a
	// run repeats epochs until its measuring time is spent.
	epochOps int
	// unlisted marks a workload that runs and is tested but is left out
	// of BENCHMARK.json, so no regression gate depends on it.
	unlisted bool
}

// replicaMembers is the replica set size of replicated-mix.
const replicaMembers = 3

// workloads are the benchmark's workloads. BENCHMARK.json lists the
// ones not marked unlisted, in this order, with the reason for each.
var workloads = []workload{
	// Buffered NVRAM with no backend: the proc/objects/nvm hot path and
	// its shared cache lines, no disk.
	{
		name:     "mem-mix",
		mix:      memMix,
		epochOps: 300_000,
	},
	// Mem-mix plus seeded per-process crashes: the only workload on the
	// recovery cascade and the crash injector path.
	{
		name:      "crash-mix",
		mix:       memMix,
		crashRate: 1e-3,
		epochOps:  200_000,
	},
	// Queue and stack ops over one persist.File: every fence is a WAL
	// append plus fsync, so the storage backend dominates. Unlisted:
	// its throughput follows the host's fsync latency, and ten runs on
	// the sizing host spread by 0.21 of their median, too close to the
	// largest bound a gate may use. replicated-mix keeps the backend
	// and persist layers gated.
	{
		name:     "durable-mix",
		mix:      durableMix,
		store:    storeFile,
		epochOps: 1_000,
		unlisted: true,
	},
	// Queue and stack ops over a 3-member replica.Set, quorum 2: the
	// only workload on ship plus quorum acknowledgement, and the listed
	// one on the backend and persist layers.
	{
		name:     "replicated-mix",
		mix:      durableMix,
		store:    storeReplica,
		epochOps: 400,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genKinds fills kinds with process p's op stream for one epoch. The
// stream depends only on (seed, epoch, p), through proc.SplitSeed, and
// is generated before timing so no RNG runs in the measured loop.
//
// A Dequeue or Pop drawn while p has removed as many values from that
// object as it inserted becomes the matching insert instead. Every
// process then keeps a surplus in the objects, so removals never find
// them empty: an empty removal is far cheaper than a real one, and how
// often a random walk hits empty would otherwise make throughput
// depend on the seed.
func genKinds(kinds []kind, mix [numKinds]int, seed int64, epoch, p int) {
	rng := rand.New(rand.NewSource(proc.SplitSeed(proc.SplitSeed(seed, epoch), p)))
	var queued, stacked int
	for i := range kinds {
		r := rng.Intn(100)
		k := kind(0)
		for r >= mix[k] {
			r -= mix[k]
			k++
		}
		switch {
		case k == kQueueDeq && queued == 0:
			k = kQueueEnq
		case k == kStackPop && stacked == 0:
			k = kStackPush
		}
		switch k {
		case kQueueEnq:
			queued++
		case kQueueDeq:
			queued--
		case kStackPush:
			stacked++
		case kStackPop:
			stacked--
		}
		kinds[i] = k
	}
}

// capacityFor sizes a Queue or Stack for n inserts. Cells are never
// reused, and a crash between a cell's allocation and the persistence
// of its index leaks that cell, so crashing workloads get headroom.
func capacityFor(n int, crashes bool) int {
	c := n + 16
	if crashes {
		c += n/4 + 64
	}
	if c > objects.MaxFAAValue-2 {
		c = objects.MaxFAAValue - 2
	}
	return c
}
