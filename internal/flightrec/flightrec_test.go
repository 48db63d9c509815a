package flightrec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nrl/internal/trace"
)

// memRegion is a persist.BlackBox pwrite target backed by a byte slice.
type memRegion struct {
	buf []byte
}

func (m *memRegion) pw(b []byte, off int64) error {
	if need := int(off) + len(b); need > len(m.buf) {
		grown := make([]byte, need)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[off:], b)
	return nil
}

func TestRecordRoundTrip(t *testing.T) {
	r := NewRecorder(Options{Slots: 64})
	r.Record(Rec{Kind: KindBegin, P: 3, Depth: 1, Obj: "ctr", Op: "Inc", Val: 7, GStep: 41})
	r.Record(Rec{Kind: KindCrash, P: 3, Depth: 2, Obj: "ctr.R", Op: "Write", LI: 4, Attempt: 1})
	r.Record(Rec{Kind: KindFence, P: 3, Val: 5})
	r.Record(Rec{Kind: KindEnd, P: 3, Depth: 1, Obj: "ctr", Op: "Inc", Val: 8})

	recs := r.Snapshot()
	// 4 explicit records + 4 interning records (ctr, Inc, ctr.R, Write).
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8: %+v", len(recs), recs)
	}
	var got []Record
	for _, rec := range recs {
		if rec.Kind == KindNameObj || rec.Kind == KindNameOp {
			continue
		}
		got = append(got, rec)
	}
	if len(got) != 4 {
		t.Fatalf("got %d non-name records, want 4", len(got))
	}
	b := got[0]
	if b.Kind != KindBegin || b.P != 3 || b.Depth != 1 || b.Obj != "ctr" || b.Op != "Inc" || b.Val != 7 || b.GStep != 41 {
		t.Errorf("begin decoded wrong: %+v", b)
	}
	c := got[1]
	if c.Kind != KindCrash || c.Obj != "ctr.R" || c.Op != "Write" || c.LI != 4 || c.Attempt != 1 {
		t.Errorf("crash decoded wrong: %+v", c)
	}
	if got[2].Kind != KindFence || got[2].Val != 5 {
		t.Errorf("fence decoded wrong: %+v", got[2])
	}
	if got[3].Kind != KindEnd || got[3].Val != 8 {
		t.Errorf("end decoded wrong: %+v", got[3])
	}
}

func TestShallowModeFilters(t *testing.T) {
	r := NewRecorder(Options{Slots: 64})
	r.Record(Rec{Kind: KindBegin, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write"})
	r.Record(Rec{Kind: KindEnd, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write"})
	r.Record(Rec{Kind: KindCheckpoint, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", LI: 2})
	if got := r.Seq(); got != 0 {
		t.Fatalf("shallow mode recorded %d records, want 0", got)
	}
	// Crash and recovery records pass at any depth.
	r.Record(Rec{Kind: KindCrash, P: 1, Depth: 3, Obj: "ctr.R", Op: "Write", LI: 2})
	if got := r.Seq(); got == 0 {
		t.Fatal("shallow mode dropped a crash record")
	}

	deep := NewRecorder(Options{Slots: 64, Deep: true})
	deep.Record(Rec{Kind: KindBegin, P: 1, Depth: 2, Obj: "ctr.R", Op: "Write"})
	deep.Record(Rec{Kind: KindCheckpoint, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", LI: 2})
	var kinds []Kind
	for _, rec := range deep.Snapshot() {
		if rec.Kind != KindNameObj && rec.Kind != KindNameOp {
			kinds = append(kinds, rec.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != KindBegin || kinds[1] != KindCheckpoint {
		t.Fatalf("deep mode kinds = %v, want [begin checkpoint]", kinds)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(Options{Slots: 8})
	for i := 1; i <= 40; i++ {
		r.Record(Rec{Kind: KindFence, P: 1, Val: uint64(i)})
	}
	recs := r.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(33 + i); rec.Val != want {
			t.Errorf("rec[%d].Val = %d, want %d", i, rec.Val, want)
		}
	}
	if d := r.Dropped(); d != 32 {
		t.Errorf("Dropped = %d, want 32", d)
	}
}

func TestSyncRecoverCycle(t *testing.T) {
	region := &memRegion{}
	r := NewRecorder(Options{Slots: 32})
	r.Record(Rec{Kind: KindBegin, P: 2, Depth: 1, Obj: "log", Op: "Append", Val: 9})
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	r.Record(Rec{Kind: KindEnd, P: 2, Depth: 1, Obj: "log", Op: "Append", Val: 9})
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	// Incremental sync must have persisted both batches.
	r2 := NewRecorder(Options{Slots: 32})
	valid, torn := r2.Recover(region.buf)
	if torn != 0 {
		t.Fatalf("torn = %d, want 0", torn)
	}
	if valid != 4 { // begin, end + 2 name records
		t.Fatalf("valid = %d, want 4", valid)
	}
	recs := r2.Recovered()
	if recs[len(recs)-1].Kind != KindEnd || recs[len(recs)-1].Obj != "log" {
		t.Fatalf("last recovered = %+v", recs[len(recs)-1])
	}

	// The revived recorder continues the sequence and reuses name ids.
	r2.Record(Rec{Kind: KindBegin, P: 2, Depth: 1, Obj: "log", Op: "Append", Val: 10})
	if err := r2.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	r3 := NewRecorder(Options{Slots: 32})
	r3.Recover(region.buf)
	all := r3.Recovered()
	last := all[len(all)-1]
	if last.Kind != KindBegin || last.Obj != "log" || last.Op != "Append" || last.Val != 10 {
		t.Fatalf("after revive, last = %+v", last)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("seq not increasing across incarnations: %d then %d", all[i-1].Seq, all[i].Seq)
		}
	}
}

func TestSyncAfterFullTurnover(t *testing.T) {
	region := &memRegion{}
	r := NewRecorder(Options{Slots: 8})
	r.Record(Rec{Kind: KindFence, P: 1, Val: 1})
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 100; i++ {
		r.Record(Rec{Kind: KindFence, P: 1, Val: uint64(i)})
	}
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	recs, valid, torn := Decode(region.buf)
	if torn != 0 || valid != 8 {
		t.Fatalf("valid=%d torn=%d, want 8/0", valid, torn)
	}
	if recs[len(recs)-1].Val != 100 {
		t.Fatalf("newest synced = %+v", recs[len(recs)-1])
	}
}

func TestDecodeTornSlot(t *testing.T) {
	region := &memRegion{}
	r := NewRecorder(Options{Slots: 16})
	for i := 1; i <= 5; i++ {
		r.Record(Rec{Kind: KindFence, P: 1, Val: uint64(i)})
	}
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	// Corrupt the third slot's payload.
	region.buf[headerSize+2*recordSize+17] ^= 0xff
	recs, valid, torn := Decode(region.buf)
	if valid != 4 || torn != 1 {
		t.Fatalf("valid=%d torn=%d, want 4/1", valid, torn)
	}
	for _, rec := range recs {
		if rec.Val == 3 {
			t.Fatal("torn record survived decode")
		}
	}
}

func TestDecodeDamagedHeader(t *testing.T) {
	region := &memRegion{}
	r := NewRecorder(Options{Slots: 16})
	r.Record(Rec{Kind: KindFence, P: 1, Val: 1})
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	region.buf[0] ^= 0xff
	recs, valid, torn := Decode(region.buf)
	if valid != 1 || torn != 1 {
		t.Fatalf("valid=%d torn=%d, want 1/1", valid, torn)
	}
	if len(recs) != 1 || recs[0].Val != 1 {
		t.Fatalf("records past damaged header lost: %+v", recs)
	}
}

func TestNameLostToWrap(t *testing.T) {
	r := NewRecorder(Options{Slots: 8})
	r.Record(Rec{Kind: KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc"})
	for i := 0; i < 8; i++ { // overwrite the name records
		r.Record(Rec{Kind: KindFence, P: 1, Val: uint64(i)})
	}
	r.Record(Rec{Kind: KindEnd, P: 1, Depth: 1, Obj: "ctr", Op: "Inc"})
	recs := r.Snapshot()
	last := recs[len(recs)-1]
	if last.Kind != KindEnd {
		t.Fatalf("last = %+v", last)
	}
	if last.Obj != "obj#1" || last.Op != "op#1" {
		t.Fatalf("lost names should decode as placeholders, got %q/%q", last.Obj, last.Op)
	}
}

func TestLongNamesTruncate(t *testing.T) {
	r := NewRecorder(Options{Slots: 16})
	long := "a-very-long-object-name-indeed"
	r.Record(Rec{Kind: KindBegin, P: 1, Depth: 1, Obj: long, Op: "Do"})
	recs := r.Snapshot()
	want := long[:nameBytes]
	if got := recs[len(recs)-1].Obj; got != want {
		t.Fatalf("Obj = %q, want truncated %q", got, want)
	}
}

func TestConcurrentRecordAndSync(t *testing.T) {
	region := &memRegion{}
	r := NewRecorder(Options{Slots: 128})
	var wg sync.WaitGroup
	for p := 1; p <= 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Rec{Kind: KindBegin, P: p, Depth: 1, Obj: "obj", Op: fmt.Sprintf("op%d", p), Val: uint64(i)})
				r.Record(Rec{Kind: KindEnd, P: p, Depth: 1, Obj: "obj", Op: fmt.Sprintf("op%d", p), Val: uint64(i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.Sync(region.pw); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := r.Sync(region.pw); err != nil {
		t.Fatal(err)
	}
	// The final quiescent sync must leave every slot intact.
	_, valid, torn := Decode(region.buf)
	if torn != 0 {
		t.Fatalf("quiescent region has %d torn slots", torn)
	}
	if valid != 128 {
		t.Fatalf("valid = %d, want full ring 128", valid)
	}
}

// TestRecordPathZeroAlloc is the allocation half of the overhead
// acceptance gate: once names are interned, Record must not allocate.
func TestRecordPathZeroAlloc(t *testing.T) {
	r := NewRecorder(Options{Slots: 1024})
	rec := Rec{Kind: KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1, GStep: 2}
	r.Record(rec) // intern
	if n := testing.AllocsPerRun(1000, func() { r.Record(rec) }); n != 0 {
		t.Fatalf("Record allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.RecordFence(1, 3) }); n != 0 {
		t.Fatalf("RecordFence allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.RecordCommit(9, 3) }); n != 0 {
		t.Fatalf("RecordCommit allocates %v times per op, want 0", n)
	}
}

// TestEmitLifecycle: the trace.Tracer adapter maps each op-lifecycle
// edge onto its record kind, drops shallow-mode nested begin/end before
// interning their names, and ignores non-lifecycle events.
func TestEmitLifecycle(t *testing.T) {
	r := NewRecorder(Options{Slots: 64})
	for _, e := range []trace.Event{
		{Kind: trace.Invoke, P: 2, Depth: 1, Obj: "ctr", Op: "Inc", Args: []uint64{7}, GStep: 3},
		{Kind: trace.Invoke, P: 2, Depth: 2, Obj: "ctr.R", Op: "Write", Args: []uint64{1}},
		{Kind: trace.MemWrite, P: 2, Depth: 2, Obj: "ctr", Op: "Inc", Ret: 1},
		{Kind: trace.Crash, P: 2, Depth: 2, Obj: "ctr", Op: "Inc", Line: 4},
		{Kind: trace.Recover, P: 2, Depth: 1, Obj: "ctr", Op: "Inc", Line: 4, Attempt: 1},
		{Kind: trace.Response, P: 2, Depth: 2, Obj: "ctr.R", Op: "Write", Ret: 5},
		{Kind: trace.RecoverDone, P: 2, Depth: 1, Obj: "ctr", Op: "Inc", Attempt: 1, Ret: 8},
	} {
		r.Emit(e)
	}
	var got []string
	for _, rec := range r.Snapshot() {
		got = append(got, fmt.Sprintf("%v p%d d%d %s.%s li=%d att=%d val=%d g=%d",
			rec.Kind, rec.P, rec.Depth, rec.Obj, rec.Op, rec.LI, rec.Attempt, rec.Val, rec.GStep))
	}
	want := []string{
		"name-obj p0 d0 ctr. li=0 att=0 val=1 g=0",
		"name-op p0 d0 .Inc li=0 att=0 val=1 g=0",
		"begin p2 d1 ctr.Inc li=0 att=0 val=7 g=3",
		"crash p2 d2 ctr.Inc li=4 att=0 val=0 g=0",
		"recover-enter p2 d1 ctr.Inc li=4 att=1 val=0 g=0",
		"recover-exit p2 d1 ctr.Inc li=0 att=1 val=8 g=0",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("records =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestEmitPathZeroAlloc: once a process's attribution is cached, the
// proc-fed record paths (Emit, Checkpoint) must not allocate, including
// when the process alternates between operations.
func TestEmitPathZeroAlloc(t *testing.T) {
	r := NewRecorder(Options{Slots: 1024, Deep: true})
	inc := trace.Event{Kind: trace.Invoke, P: 3, Depth: 1, Obj: "ctr", Op: "Inc", Args: []uint64{1}}
	read := trace.Event{Kind: trace.Response, P: 3, Depth: 1, Obj: "ctr", Op: "Read", Ret: 2}
	r.Emit(inc)
	r.Emit(read) // intern both, grow the cache to p3
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(inc)
		r.Emit(read)
		r.Checkpoint(3, 1, "ctr", "Inc", 2, 0, 5)
	}); n != 0 {
		t.Fatalf("Emit/Checkpoint allocate %v times per op, want 0", n)
	}
}

// TestEmitConcurrentProcs: processes emit in parallel while the
// per-process attribution cache grows under them; every record must
// carry its own process's names (run under -race for the data-race
// half of the claim).
func TestEmitConcurrentProcs(t *testing.T) {
	const procs, per = 8, 200
	r := NewRecorder(Options{Slots: 4 * procs * per})
	var wg sync.WaitGroup
	for p := 1; p <= procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			obj := fmt.Sprintf("o%d", p)
			for i := 0; i < per; i++ {
				op := "A"
				if i%2 == 1 {
					op = "B"
				}
				r.Emit(trace.Event{Kind: trace.Invoke, P: p, Depth: 1, Obj: obj, Op: op})
			}
		}(p)
	}
	wg.Wait()
	n := 0
	for _, rec := range r.Snapshot() {
		if rec.Kind != KindBegin {
			continue
		}
		n++
		if want := fmt.Sprintf("o%d", rec.P); rec.Obj != want {
			t.Fatalf("p%d record attributed to %q, want %q", rec.P, rec.Obj, want)
		}
	}
	if n != procs*per {
		t.Fatalf("%d begin records, want %d", n, procs*per)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(Options{Slots: 4096})
	rec := Rec{Kind: KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1}
	r.Record(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(rec)
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	r := NewRecorder(Options{Slots: 4096})
	rec := Rec{Kind: KindBegin, P: 1, Depth: 1, Obj: "ctr", Op: "Inc", Val: 1}
	r.Record(rec)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(rec)
		}
	})
}
