package proc

import "fmt"

// The frame arena (DESIGN.md §13) is the zero-allocation backing store
// for the per-process operation stack. The paper's model bounds both
// the nesting depth of recoverable operations (the depth-k analysis of
// Definition 6: a chain of modular constructions is finitely deep, fixed
// at build time) and the arity of each operation (every algorithm in the
// paper takes at most two arguments), so the entire lifetime state of a
// process's pending operations fits in a fixed array sized once when the
// process is created. An uncontended invocation is then a frame reset
// plus a few atomics: no heap allocation on the hot path, and — just as
// important for recovery — the frames a crash interrupts stay exactly
// where LI_p witnessed them, so the resurrection loop re-enters the same
// storage instead of rebuilding it.

// MaxNestingDepth is the arena's depth bound k: the maximum number of
// recoverable operations a process may have pending at once (a top-level
// invocation plus its chain of nested invocations). The paper's modular
// constructions nest statically — counter over register, queue over CAS,
// universal object over strict CAS — so the deepest chain in a program
// is known at build time; 16 is several times the deepest construction
// in this repository. Exceeding it is a programming error of the object
// being built, reported as a typed *DepthError (see Ctx.Invoke for how
// it is delivered).
const MaxNestingDepth = 16

// MaxOpArgs is the number of argument words a frame stores inline: the
// arity bound of recoverable operations. Arguments are system state —
// they must survive crashes so the recovery function re-enters with the
// identical values — and the paper's bounded-arity operations (WRITE
// takes one word, CAS two) let them live in a fixed in-frame array
// instead of a per-invocation heap snapshot. Exceeding it fails with a
// typed *ArityError: Ctx.TryInvoke returns it, Ctx.Invoke (which has no
// error result) panics with the same typed value, which
// Config.RecoverPanics converts into an error reachable via errors.As.
const MaxOpArgs = 4

// ArityError reports an invocation whose argument count exceeds
// MaxOpArgs, the arena's inline-argument bound. It is the arity limit's
// only failure mode: a typed error value, never an anonymous panic
// string. Ctx.TryInvoke returns it directly; Ctx.Invoke panics with it,
// and under Config.RecoverPanics the system converts that panic into an
// error on which errors.As recovers this value.
type ArityError struct {
	// Obj and Op name the operation whose invocation was rejected.
	Obj, Op string
	// Got is the offered argument count; Max echoes MaxOpArgs.
	Got, Max int
}

// Error implements error.
func (e *ArityError) Error() string {
	return fmt.Sprintf("proc: %s.%s invoked with %d arguments; recoverable operations are bounded at %d (MaxOpArgs)",
		e.Obj, e.Op, e.Got, e.Max)
}

// DepthError reports an invocation that would nest recoverable
// operations deeper than MaxNestingDepth, the arena's depth bound k.
// Like *ArityError it is a typed value: Ctx.TryInvoke returns it,
// Ctx.Invoke panics with it, and Config.RecoverPanics converts the
// panic into an error reachable via errors.As.
type DepthError struct {
	// Obj and Op name the operation whose invocation was rejected.
	Obj, Op string
	// Depth is the nesting depth the invocation would have reached; Max
	// echoes MaxNestingDepth.
	Depth, Max int
}

// Error implements error.
func (e *DepthError) Error() string {
	return fmt.Sprintf("proc: invoking %s.%s would nest recoverable operations %d deep; the frame arena is bounded at %d (MaxNestingDepth)",
		e.Obj, e.Op, e.Depth, e.Max)
}

// frame is the system-side record of one pending recoverable operation,
// resident in its process's fixed arena (Proc.frames). Everything except
// child/childValid is conceptually non-volatile: it is exactly the
// information the paper's system uses to resurrect a process (which
// operation, its arguments, and LI). A crash leaves the occupied prefix
// of the arena untouched, so every recovery attempt re-enters the same
// frames — including the same argument words — that the interrupted
// attempt was using.
type frame struct {
	op Operation
	// info is op.Info(), resolved once at push for the lifecycle: every
	// edge the frame reports carries its names, and Exec is entered at
	// its Entry/RecoverEntry.
	info OpInfo
	// args holds the operation's arguments inline (bounded by MaxOpArgs);
	// nargs is how many are in use. argSlice views the live prefix.
	nargs int
	args  [MaxOpArgs]uint64
	li    int // last instruction begun (0 before the first step)
	// attempts counts how many times this frame's recovery function has
	// been entered (0 for an operation that never crashed).
	attempts int

	// child holds the response of a nested operation that completed
	// through recovery, available to this frame's recovery function via
	// Ctx.ChildResp. It models a response value freshly delivered to a
	// volatile register of the process: it does not survive a crash.
	child      uint64
	childValid bool
}

// argSlice views the frame's live arguments. The slice aliases the
// arena: it is valid only while the frame is pending (the retention
// rule for sinks is stated on trace.Event).
func (fr *frame) argSlice() []uint64 { return fr.args[:fr.nargs] }
