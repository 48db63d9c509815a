package main

import (
	"math"
	"slices"
)

// latPool pools op latencies across a run's untraced epochs: all of
// them for the end-to-end percentiles and, in a traced run, by op kind
// and for ops that crashed, for the per-layer ones. Each epoch first
// gathers its own latencies in a reused scratch buffer.
type latPool struct {
	perLayer bool
	all      []uint32
	kind     [numKinds][]uint32
	crashed  []uint32
	scratch  []uint32
}

// startEpoch returns the empty segment an epoch's latencies are
// appended to.
func (l *latPool) startEpoch() []uint32 { return l.scratch[:0] }

// add appends process b's latencies lat to the epoch's segment.
func (l *latPool) add(seg []uint32, b *procBuf, lat []uint32, traced bool) []uint32 {
	seg = append(seg, lat...)
	if traced || !l.perLayer {
		return seg
	}
	for i, ns := range lat {
		l.kind[b.kinds[i]] = append(l.kind[b.kinds[i]], ns)
	}
	for _, i := range b.crashed {
		if int(i) < len(lat) {
			l.crashed = append(l.crashed, lat[i])
		}
	}
	return seg
}

// endEpoch keeps the epoch's segment for reuse and, for an untraced
// epoch, adds it to the pool.
func (l *latPool) endEpoch(seg []uint32, traced bool) {
	l.scratch = seg
	if !traced {
		l.all = append(l.all, seg...)
	}
}

// quantileUs returns the nearest-rank q-quantile of ns samples in
// microseconds, sorting samples in place; 0 when there are none.
func quantileUs(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	if !slices.IsSorted(ns) {
		slices.Sort(ns)
	}
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	i = max(0, min(i, len(ns)-1))
	return float64(ns[i]) / 1e3
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
