package history

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"nrl/internal/trace"
)

// mk builds a step with the given fields.
func mk(k Kind, p int, obj, op string, opID int64) Step {
	return Step{Kind: k, Proc: p, Obj: obj, Op: op, OpID: opID}
}

// record appends the steps through a Recorder so they get sequence numbers.
func record(steps ...Step) History {
	r := NewRecorder()
	for _, s := range steps {
		r.Append(s)
	}
	return r.History()
}

func TestKindString(t *testing.T) {
	tests := []struct {
		give Kind
		want string
	}{
		{Inv, "INV"},
		{Res, "RES"},
		{Crash, "CRASH"},
		{Rec, "REC"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Kind.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestStepString(t *testing.T) {
	s := Step{Kind: Inv, Proc: 1, Obj: "ctr", Op: "INC", Args: []uint64{3, 4}}
	if got := s.String(); got != "INV p1 ctr.INC(3,4)" {
		t.Errorf("Step.String() = %q", got)
	}
	s = Step{Kind: Res, Proc: 2, Obj: "ctr", Op: "READ", Ret: 7}
	if got := s.String(); got != "RES p2 ctr.READ -> 7" {
		t.Errorf("Step.String() = %q", got)
	}
	s = Step{Kind: Crash, Proc: 3, Obj: "reg", Op: "WRITE"}
	if got := s.String(); got != "CRASH p3 [in reg.WRITE]" {
		t.Errorf("Step.String() = %q", got)
	}
}

func TestRecorderSequencing(t *testing.T) {
	r := NewRecorder()
	r.Append(mk(Inv, 1, "o", "OP", 1))
	r.Append(mk(Res, 1, "o", "OP", 1))
	h := r.History()
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if h.Steps[0].Seq != 0 || h.Steps[1].Seq != 1 {
		t.Errorf("sequence numbers = %d,%d, want 0,1", h.Steps[0].Seq, h.Steps[1].Seq)
	}
	r.Reset()
	if r.History().Len() != 0 {
		t.Error("Reset did not clear steps")
	}
}

// TestRecorderEmit: the recorder derives the history from the proc
// layer's lifecycle events — INV allocates an OpID into the process's
// slot for its depth, both completion edges are RES, and only the first
// Recover after a Crash is a REC step.
func TestRecorderEmit(t *testing.T) {
	r := NewRecorder()
	ev := func(k trace.Kind, p, depth int, obj string, args ...uint64) trace.Event {
		return trace.Event{Kind: k, P: p, Depth: depth, Obj: obj, Op: "OP", Args: args, Ret: 9}
	}
	args := []uint64{4}
	for _, e := range []trace.Event{
		ev(trace.Invoke, 1, 1, "outer", args...),
		ev(trace.Invoke, 2, 1, "other"),
		ev(trace.Invoke, 1, 2, "inner", 5),
		ev(trace.Crash, 1, 2, "inner"),
		ev(trace.Recover, 1, 2, "inner"),
		ev(trace.RecoverDone, 1, 2, "inner"),
		ev(trace.Recover, 1, 1, "outer"), // cascade: no second REC
		ev(trace.RecoverDone, 1, 1, "outer"),
		ev(trace.Response, 2, 1, "other"),
		ev(trace.MemWrite, 1, 1, "outer"), // not a lifecycle edge
	} {
		r.Emit(e)
	}
	args[0] = 99 // the recorder must not alias emitters' argument storage
	h := r.History()
	want := "INV p1 outer.OP(4)\nINV p2 other.OP()\nINV p1 inner.OP(5)\n" +
		"CRASH p1 [in inner.OP]\nREC p1 [in inner.OP]\nRES p1 inner.OP -> 9\n" +
		"RES p1 outer.OP -> 9\nRES p2 other.OP -> 9\n"
	if got := h.String(); got != want {
		t.Fatalf("history =\n%s\nwant\n%s", got, want)
	}
	var ids []int64
	for _, s := range h.Steps {
		ids = append(ids, s.OpID)
	}
	if fmt.Sprint(ids) != "[1 2 3 3 3 3 1 2]" {
		t.Errorf("OpIDs = %v, want [1 2 3 3 3 3 1 2]", ids)
	}
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Error(err)
	}
}

func TestSubhistories(t *testing.T) {
	h := record(
		mk(Inv, 1, "a", "W", 1),
		mk(Inv, 2, "b", "R", 2),
		mk(Res, 1, "a", "W", 1),
		mk(Crash, 2, "b", "R", 2),
		mk(Rec, 2, "b", "R", 2),
		mk(Res, 2, "b", "R", 2),
	)
	if got := h.ByProc(1).Len(); got != 2 {
		t.Errorf("ByProc(1).Len() = %d, want 2", got)
	}
	if got := h.ByObject("b").Len(); got != 4 {
		t.Errorf("ByObject(b).Len() = %d, want 4", got)
	}
	if got := h.NoCrash().Len(); got != 4 {
		t.Errorf("NoCrash().Len() = %d, want 4", got)
	}
	if h.CrashFree() {
		t.Error("CrashFree() = true for a history with a crash")
	}
	if !h.NoCrash().CrashFree() {
		t.Error("NoCrash result is not crash-free")
	}
	if got := h.Procs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Procs() = %v, want [1 2]", got)
	}
	if got := h.Objects(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Objects() = %v, want [a b]", got)
	}
	if !strings.Contains(h.String(), "CRASH p2") {
		t.Errorf("History.String() missing crash line:\n%s", h.String())
	}
}

func TestCheckWellFormedAcceptsNested(t *testing.T) {
	// p1: INC on ctr invokes WRITE on reg; proper nesting.
	h := record(
		mk(Inv, 1, "ctr", "INC", 1),
		mk(Inv, 1, "reg", "WRITE", 2),
		mk(Res, 1, "reg", "WRITE", 2),
		mk(Res, 1, "ctr", "INC", 1),
	)
	if err := h.CheckWellFormed(); err != nil {
		t.Errorf("CheckWellFormed() = %v, want nil", err)
	}
}

func TestCheckWellFormedRejects(t *testing.T) {
	tests := []struct {
		name string
		h    History
	}{
		{
			name: "response without invocation",
			h:    record(mk(Res, 1, "a", "W", 1)),
		},
		{
			name: "double pending on one object",
			h: record(
				mk(Inv, 1, "a", "W", 1),
				mk(Inv, 1, "a", "R", 2),
			),
		},
		{
			name: "mismatched response",
			h: record(
				mk(Inv, 1, "a", "W", 1),
				mk(Res, 1, "a", "W", 99),
			),
		},
		{
			name: "nesting violated (parent returns before child)",
			h: record(
				mk(Inv, 1, "ctr", "INC", 1),
				mk(Inv, 1, "reg", "WRITE", 2),
				mk(Res, 1, "ctr", "INC", 1),
				mk(Res, 1, "reg", "WRITE", 2),
			),
		},
		{
			name: "crash step present",
			h:    record(mk(Crash, 1, "a", "W", 1)),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.h.CheckWellFormed(); err == nil {
				t.Error("CheckWellFormed() = nil, want error")
			}
		})
	}
}

func TestCheckRecoverableWellFormed(t *testing.T) {
	good := record(
		mk(Inv, 1, "a", "W", 1),
		mk(Crash, 1, "a", "W", 1),
		mk(Rec, 1, "a", "W", 1),
		mk(Crash, 1, "a", "W", 1), // crash during recovery
		mk(Rec, 1, "a", "W", 1),
		mk(Res, 1, "a", "W", 1),
	)
	if err := good.CheckRecoverableWellFormed(); err != nil {
		t.Errorf("CheckRecoverableWellFormed() = %v, want nil", err)
	}

	// A crash as the process's last step is allowed.
	tail := record(
		mk(Inv, 1, "a", "W", 1),
		mk(Crash, 1, "a", "W", 1),
	)
	if err := tail.CheckRecoverableWellFormed(); err != nil {
		t.Errorf("crash-as-last-step: %v, want nil", err)
	}

	bad := []struct {
		name string
		h    History
	}{
		{
			name: "step after crash without recover",
			h: record(
				mk(Inv, 1, "a", "W", 1),
				mk(Crash, 1, "a", "W", 1),
				mk(Res, 1, "a", "W", 1),
			),
		},
		{
			name: "recover without crash",
			h: record(
				mk(Inv, 1, "a", "W", 1),
				mk(Rec, 1, "a", "W", 1),
			),
		},
		{
			name: "recover for wrong operation",
			h: record(
				mk(Inv, 1, "a", "W", 1),
				mk(Crash, 1, "a", "W", 1),
				mk(Rec, 1, "a", "W", 42),
			),
		},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.h.CheckRecoverableWellFormed(); err == nil {
				t.Error("CheckRecoverableWellFormed() = nil, want error")
			}
		})
	}
}

func TestOps(t *testing.T) {
	h := record(
		mk(Inv, 1, "a", "W", 1),
		mk(Inv, 2, "a", "R", 2),
		mk(Res, 1, "a", "W", 1),
	)
	ops := h.Ops()
	if len(ops) != 2 {
		t.Fatalf("Ops() returned %d ops, want 2", len(ops))
	}
	if !ops[0].Completed() {
		t.Error("op 1 should be completed")
	}
	if ops[1].Completed() {
		t.Error("op 2 should be pending")
	}
}

// TestQuickNoCrashIdempotent checks N(N(H)) == N(H) and that N(H) never
// contains crash steps, for arbitrary generated histories.
func TestQuickNoCrashIdempotent(t *testing.T) {
	f := func(kinds []byte, procs []byte) bool {
		r := NewRecorder()
		n := len(kinds)
		if len(procs) < n {
			n = len(procs)
		}
		for i := 0; i < n; i++ {
			k := Kind(int(kinds[i])%4 + 1)
			r.Append(Step{Kind: k, Proc: int(procs[i]) % 3, Obj: "o", Op: "OP", OpID: int64(i)})
		}
		h := r.History()
		n1 := h.NoCrash()
		if !n1.CrashFree() {
			return false
		}
		n2 := n1.NoCrash()
		if len(n1.Steps) != len(n2.Steps) {
			return false
		}
		for i := range n1.Steps {
			if n1.Steps[i].Seq != n2.Steps[i].Seq || n1.Steps[i].Kind != n2.Steps[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGantt(t *testing.T) {
	h := record(
		mk(Inv, 1, "ctr", "INC", 1),
		mk(Inv, 2, "ctr", "INC", 2),
		mk(Crash, 1, "ctr", "INC", 1),
		mk(Rec, 1, "ctr", "INC", 1),
		mk(Res, 2, "ctr", "INC", 2),
		mk(Res, 1, "ctr", "INC", 1),
		mk(Inv, 2, "ctr", "READ", 3),
	)
	out := h.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Gantt produced %d rows, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "p1 ctr.INC") || !strings.Contains(lines[0], "C") ||
		!strings.Contains(lines[0], "r") || !strings.Contains(lines[0], "-> 0") {
		t.Errorf("row 0 = %q", lines[0])
	}
	if !strings.Contains(lines[2], "(pending)") || !strings.Contains(lines[2], ">") {
		t.Errorf("pending row = %q", lines[2])
	}
	if got := (History{}).Gantt(0); !strings.Contains(got, "empty") {
		t.Errorf("empty Gantt = %q", got)
	}
	// Tiny widths are clamped, single-step histories don't divide by zero.
	one := record(mk(Inv, 1, "x", "OP", 1))
	if out := one.Gantt(1); out == "" {
		t.Error("Gantt(1) empty")
	}
}
