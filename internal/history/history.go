// Package history records and transforms operation histories of the
// crash-recovery model of Attiya, Ben-Baruch and Hendler (PODC 2018).
//
// A history is a sequence of steps of four kinds: invocation (INV),
// response (RES), crash (CRASH) and recovery (REC). The package implements
// the paper's history transformations and predicates: per-object and
// per-process subhistories, the crash-free projection N(H) (Definition 3),
// crash-free well-formedness, and recoverable well-formedness
// (Definition 3). The linearizability side of Definition 4 lives in package
// linearize.
package history

import (
	"fmt"
	"strings"
	"sync"

	"nrl/internal/trace"
)

// Kind discriminates the four step kinds of the model.
type Kind int

const (
	// Inv is an invocation step (INV, p, O, Op).
	Inv Kind = iota + 1
	// Res is a response step (RES, p, O, Op, ret).
	Res
	// Crash is a crash step (CRASH, p); the step also records the crashed
	// operation (the inner-most pending recoverable operation of p).
	Crash
	// Rec is a recovery step (REC, p), the resurrection of p by the system.
	Rec
)

// String returns the paper's name for the step kind.
func (k Kind) String() string {
	switch k {
	case Inv:
		return "INV"
	case Res:
		return "RES"
	case Crash:
		return "CRASH"
	case Rec:
		return "REC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Step is one step of a history.
type Step struct {
	Kind Kind
	Proc int    // process id, 1-based
	Obj  string // object the step concerns; for Crash/Rec, the crashed operation's object
	Op   string // operation name; for Crash/Rec, the crashed operation's name
	Args []uint64
	Ret  uint64
	// OpID links an Inv step with its matching Res step, and a Crash/Rec
	// step with the crashed operation's Inv step. OpIDs are unique per
	// recorder.
	OpID int64
	// Seq is the global sequence number assigned by the recorder.
	Seq int64
}

// String renders the step compactly, e.g. "INV p1 ctr.INC(3)".
func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s p%d", s.Kind, s.Proc)
	switch s.Kind {
	case Inv:
		fmt.Fprintf(&b, " %s.%s(%s)", s.Obj, s.Op, joinArgs(s.Args))
	case Res:
		fmt.Fprintf(&b, " %s.%s -> %d", s.Obj, s.Op, s.Ret)
	case Crash, Rec:
		fmt.Fprintf(&b, " [in %s.%s]", s.Obj, s.Op)
	}
	return b.String()
}

func joinArgs(args []uint64) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprint(a)
	}
	return strings.Join(parts, ",")
}

// History is a finite sequence of steps.
type History struct {
	Steps []Step
}

// String renders the history one step per line.
func (h History) String() string {
	var b strings.Builder
	for _, s := range h.Steps {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Len returns the number of steps.
func (h History) Len() int { return len(h.Steps) }

// ByProc returns H|p: the subhistory of all steps by process p.
func (h History) ByProc(p int) History {
	var out History
	for _, s := range h.Steps {
		if s.Proc == p {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// ByObject returns H|O: all invocation and response steps on object obj, as
// well as any crash step whose crashed operation is on obj together with
// its matching recover step.
func (h History) ByObject(obj string) History {
	var out History
	for _, s := range h.Steps {
		if s.Obj == obj {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// Procs returns the sorted-by-first-appearance list of process ids in h.
func (h History) Procs() []int {
	seen := make(map[int]bool)
	var out []int
	for _, s := range h.Steps {
		if !seen[s.Proc] {
			seen[s.Proc] = true
			out = append(out, s.Proc)
		}
	}
	return out
}

// Objects returns the list of object names in h, in order of first
// appearance.
func (h History) Objects() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range h.Steps {
		if s.Obj != "" && !seen[s.Obj] {
			seen[s.Obj] = true
			out = append(out, s.Obj)
		}
	}
	return out
}

// NoCrash returns N(H): the history obtained from h by removing all crash
// and recovery steps.
func (h History) NoCrash() History {
	var out History
	for _, s := range h.Steps {
		if s.Kind == Inv || s.Kind == Res {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// CrashFree reports whether h contains no crash (hence no recovery) steps.
func (h History) CrashFree() bool {
	for _, s := range h.Steps {
		if s.Kind == Crash || s.Kind == Rec {
			return false
		}
	}
	return true
}

// Recorder collects steps concurrently. The zero value is not usable; use
// NewRecorder. It is a trace.Tracer too: as proc.Config.Recorder it
// derives the history from proc's op-lifecycle event stream (see Emit).
type Recorder struct {
	mu     sync.Mutex
	steps  []Step
	nextOp int64
	seq    int64
	// Emit's state: the OpID slot of each (process, depth), and the
	// processes whose CRASH still awaits its REC.
	open    map[[2]int]int64
	crashed map[int]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{nextOp: 1, open: map[[2]int]int64{}, crashed: map[int]bool{}}
}

// Append records a step, assigning it the next sequence number and
// copying its Args (see trace.Event for why emitters' argument slices
// must not be retained).
func (r *Recorder) Append(s Step) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.append(s)
}

func (r *Recorder) append(s Step) {
	s.Seq = r.seq
	r.seq++
	if len(s.Args) > 0 {
		s.Args = append([]uint64(nil), s.Args...)
	}
	r.steps = append(r.steps, s)
}

// Emit implements trace.Tracer, mapping proc's op-lifecycle edges onto
// steps: Invoke is INV and allocates an OpID into the slot for its
// (process, depth); Response and RecoverDone are RES; Crash is CRASH; only
// the first Recover after a Crash is REC (the cascade's later Recover
// edges belong to the same resurrection). Each step carries the OpID
// pending at its depth. Other kinds are ignored.
func (r *Recorder) Emit(e trace.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := [2]int{e.P, e.Depth}
	s := Step{Proc: e.P, Obj: e.Obj, Op: e.Op}
	switch e.Kind {
	case trace.Invoke:
		r.open[slot] = r.nextOp
		r.nextOp++
		s.Kind, s.Args = Inv, e.Args
	case trace.Response, trace.RecoverDone:
		s.Kind, s.Ret = Res, e.Ret
	case trace.Crash:
		s.Kind, r.crashed[e.P] = Crash, true
	case trace.Recover:
		if !r.crashed[e.P] {
			return
		}
		s.Kind, r.crashed[e.P] = Rec, false
	default:
		return
	}
	s.OpID = r.open[slot]
	r.append(s)
}

// History returns a copy of the recorded history so far.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Step, len(r.steps))
	copy(out, r.steps)
	return History{Steps: out}
}

// Reset discards all recorded steps (operation ids keep increasing).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps = nil
	r.seq = 0
}
