package main

import "fmt"

// checker accumulates exactly-once accounting violations. Each
// violation flags one op as failed.
type checker struct {
	bad      int
	problems []string
}

// maxProblems bounds the violations described in a report; all are
// counted.
const maxProblems = 8

func (c *checker) flag(format string, args ...any) {
	c.bad++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// counter checks that the final Counter.Read equals the number of
// completed Incs: a lost Inc or an Inc applied twice by a recovery that
// re-executed it both show as a difference.
func (c *checker) counter(final, incs uint64) {
	if final == incs {
		return
	}
	diff := final - incs
	if incs > final {
		diff = incs - final
	}
	c.flag("counter reads %d after %d completed incs", final, incs)
	c.bad += int(diff) - 1
}

// reads checks one process's Counter.Read results: never ahead of the
// final count and, the counter only growing, never decreasing.
func (c *checker) reads(p int, rs []uint64, final uint64) {
	var last uint64
	for i, v := range rs {
		if v > final || v < last {
			c.flag("process %d read %d: counter read %d after %d, final %d", p, i, v, last, final)
		}
		last = max(last, v)
	}
}

// removals checks a Queue or Stack: every value inserted is removed
// exactly once, counting the removals during the run and the final
// drain, and nothing is removed that was never inserted. inserted[p-1]
// is how many values process p inserted; its i-th is p<<32|i. With
// fifo, each consumer must also see every producer's values in the
// order that producer inserted them.
func (c *checker) removals(obj string, inserted []uint64, consumers [][]uint64, fifo bool) {
	seen := make([][]bool, len(inserted))
	for p, n := range inserted {
		seen[p] = make([]bool, n+1)
	}
	for ci, vs := range consumers {
		last := make([]uint64, len(inserted))
		for _, v := range vs {
			p, i := int(v>>32), v&(1<<32-1)
			if p < 1 || p > len(inserted) || i < 1 || i > inserted[p-1] {
				c.flag("%s: consumer %d removed %#x, never inserted", obj, ci, v)
				continue
			}
			if seen[p-1][i] {
				c.flag("%s: value %d of process %d removed twice", obj, i, p)
			}
			seen[p-1][i] = true
			if fifo && i <= last[p-1] {
				c.flag("%s: consumer %d removed value %d of process %d after its value %d", obj, ci, i, p, last[p-1])
			}
			last[p-1] = i
		}
	}
	for p, s := range seen {
		for i := 1; i < len(s); i++ {
			if !s[i] {
				c.flag("%s: value %d of process %d lost", obj, i, p+1)
			}
		}
	}
}

// checkAccounting checks an epoch's outputs against what its processes
// completed: bufs are processes 1..n, d what the objects held after
// the run. It returns the number of ops flagged and a few descriptions.
func checkAccounting(bufs []*procBuf, d drained) (int, []string) {
	var c checker
	var incs uint64
	enqs := make([]uint64, len(bufs))
	pushes := make([]uint64, len(bufs))
	deqs := make([][]uint64, 0, len(bufs)+1)
	pops := make([][]uint64, 0, len(bufs)+1)
	for i, b := range bufs {
		incs += b.incs
		enqs[i], pushes[i] = b.enqs, b.pushes
		deqs = append(deqs, b.deq)
		pops = append(pops, b.pop)
	}
	c.counter(d.counter, incs)
	for i, b := range bufs {
		c.reads(i+1, b.reads, d.counter)
	}
	c.removals("queue", enqs, append(deqs, d.queue), true)
	c.removals("stack", pushes, append(pops, d.stack), false)
	return c.bad, c.problems
}
