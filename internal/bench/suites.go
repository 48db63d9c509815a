package bench

import (
	"fmt"

	"nrl/internal/core"
	"nrl/internal/flightrec"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/trace"
)

// HeapWords sizes the backing heap of the memory-level benchmarks: a
// production-scale word count, so any cost that is O(total words) — the
// pre-shard fence scanned the entire array for flushed words — shows up
// as it would in a real system instead of being hidden by a toy heap.
const HeapWords = 1 << 14

// NVMSuite returns the memory-level benchmarks ("nvm" report): the
// buffered persist discipline under scaling and contention, the
// untraced primitive fast path, and allocation. These are the
// BENCH_nvm.json rows the CI regression gate watches.
func NVMSuite() []Spec {
	var specs []Spec
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		specs = append(specs, Spec{
			Name:    fmt.Sprintf("BufferedCASPersist/procs=%d", n),
			Workers: n,
			Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
				mem := nvm.New(nvm.WithMode(nvm.Buffered))
				mem.AllocArray("heap", HeapWords, 0)
				addrs := mem.AllocArray("w", workers, 0)
				ops := make([]func(int), workers)
				for w := range ops {
					at := trace.Attr{P: w + 1}
					a := addrs[w]
					ops[w] = func(int) {
						v := mem.ReadAt(a, at)
						mem.CASAt(a, v, v+1, at)
						mem.FlushAt(a, at)
						mem.FenceAt(at)
					}
				}
				return mem, ops
			},
		})
	}
	for _, n := range []int{1, 8} {
		n := n
		specs = append(specs, Spec{
			Name:    fmt.Sprintf("BufferedContendedCAS/procs=%d", n),
			Workers: n,
			Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
				mem := nvm.New(nvm.WithMode(nvm.Buffered))
				mem.AllocArray("heap", HeapWords, 0)
				a := mem.Alloc("w", 0)
				ops := make([]func(int), workers)
				for w := range ops {
					at := trace.Attr{P: w + 1}
					ops[w] = func(int) {
						v := mem.ReadAt(a, at)
						mem.CASAt(a, v, v+1, at)
					}
				}
				return mem, ops
			},
		})
	}
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		mode := mode
		specs = append(specs, Spec{
			Name:    "UntracedWrite/mode=" + mode.String(),
			Workers: 1,
			Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
				mem := nvm.New(nvm.WithMode(mode))
				a := mem.Alloc("x", 0)
				//nrl:ignore benchmark prices the bare store; leaving it unflushed is the point
				return mem, []func(int){func(i int) { mem.Write(a, uint64(i)) }}
			},
		})
	}
	specs = append(specs, Spec{
		Name:    "Alloc",
		Workers: 1,
		Setup: func(_, _ int) (*nvm.Memory, []func(int)) {
			mem := nvm.New()
			return mem, []func(int){func(int) { mem.Alloc("x", 0) }}
		},
	})
	return specs
}

// ObjectsSuite returns the object-level benchmarks ("objects" report):
// recoverable operations end to end through proc.Ctx. The counter runs
// in both persistence modes (its registers follow the paper's ADR
// model, so the Buffered rows price the mode itself); the stack and
// queue use the explicit persist discipline and carry real
// flushes/fences-per-op rates. Each worker is one process of the
// system, using its own Ctx from its own goroutine.
func ObjectsSuite() []Spec {
	var specs []Spec
	counterSpec := func(mode nvm.Mode, n int, frec func() *flightrec.Recorder, suffix string) Spec {
		return Spec{
			Name:    fmt.Sprintf("Counter/Inc/mode=%s/procs=%d%s", mode, n, suffix),
			Workers: n,
			Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
				var rec *flightrec.Recorder
				if frec != nil {
					rec = frec()
				}
				sys := proc.NewSystem(proc.Config{
					Procs:     workers,
					Mem:       nvm.New(nvm.WithMode(mode)),
					FlightRec: rec,
				})
				ctr := objects.NewCounter(sys, "ctr")
				ops := make([]func(int), workers)
				for w := range ops {
					c := sys.Proc(w + 1).Ctx()
					ops[w] = func(int) { ctr.Inc(c) }
				}
				return sys.Mem(), ops
			},
		}
	}
	// Each flight-recorder row runs immediately after its bare baseline:
	// the overhead gate (see Overhead and OverheadPairs) is a ratio of
	// the two, and on a shared machine the ratio is only meaningful when
	// both rows saw the same machine — adjacent rows are seconds apart,
	// rows at opposite ends of the suite are minutes apart. The gate
	// holds the shallow rows to RecorderOverheadBudget; the deep row is
	// informational (checkpoint-per-step is a debugging mode).
	shallow := func() *flightrec.Recorder { return flightrec.NewRecorder(flightrec.Options{}) }
	deep := func() *flightrec.Recorder { return flightrec.NewRecorder(flightrec.Options{Deep: true}) }
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		base := counterSpec(mode, 1, nil, "")
		inst := counterSpec(mode, 1, shallow, "/flightrec=on")
		// The pair's rounds interleave: the overhead gate divides these
		// two rows, and a ratio of measurements taken at different
		// moments of a shared machine's life measures the machine.
		base.Group = "counter-frec-" + mode.String()
		inst.Group = base.Group
		specs = append(specs, base, inst)
	}
	// procs=2 against procs=1 is the scaling row: Counter/Inc touches
	// only the caller's own register, so with two CPUs its throughput
	// should nearly double.
	specs = append(specs, counterSpec(nvm.Buffered, 2, nil, ""))
	for _, mode := range []nvm.Mode{nvm.ADR, nvm.Buffered} {
		specs = append(specs, counterSpec(mode, 8, nil, ""))
	}
	specs = append(specs, counterSpec(nvm.ADR, 1, deep, "/flightrec=deep"))
	specs = append(specs, Spec{
		Name:    "Register/Write/mode=ADR/procs=1",
		Workers: 1,
		Setup: func(workers, _ int) (*nvm.Memory, []func(int)) {
			sys := proc.NewSystem(proc.Config{Procs: workers})
			r := core.NewRegister(sys, "r", 0)
			c := sys.Proc(1).Ctx()
			return sys.Mem(), []func(int){func(i int) { r.Write(c, uint64(i)) }}
		},
	})
	specs = append(specs, Spec{
		Name:    "Stack/PushPop/mode=Buffered/procs=1",
		Workers: 1,
		Setup: func(workers, totalOps int) (*nvm.Memory, []func(int)) {
			sys := proc.NewSystem(proc.Config{
				Procs: workers,
				Mem:   nvm.New(nvm.WithMode(nvm.Buffered)),
			})
			// The stack's allocator advances monotonically, so capacity
			// must cover every push of the run (warmup included).
			s := objects.NewStack(sys, "s", totalOps+16)
			c := sys.Proc(1).Ctx()
			return sys.Mem(), []func(int){func(i int) {
				s.Push(c, uint64(i)+1)
				s.Pop(c)
			}}
		},
	})
	specs = append(specs, Spec{
		Name:    "Queue/EnqDeq/mode=Buffered/procs=1",
		Workers: 1,
		Setup: func(workers, totalOps int) (*nvm.Memory, []func(int)) {
			sys := proc.NewSystem(proc.Config{
				Procs: workers,
				Mem:   nvm.New(nvm.WithMode(nvm.Buffered)),
			})
			q := objects.NewQueue(sys, "q", totalOps+16)
			c := sys.Proc(1).Ctx()
			return sys.Mem(), []func(int){func(i int) {
				q.Enqueue(c, uint64(i)+1)
				q.Dequeue(c)
			}}
		},
	})
	return specs
}

// Suites maps suite name to its specs (the `nrlbench -json` registry).
func Suites() map[string][]Spec {
	return map[string][]Spec{
		"nvm":     NVMSuite(),
		"objects": ObjectsSuite(),
		"persist": PersistSuite(),
	}
}
