// Package proc mechanises the abstract individual-process crash-recovery
// model of Attiya, Ben-Baruch and Hendler (PODC 2018).
//
// # Model
//
// N asynchronous processes apply operations to recoverable objects whose
// shared state lives in simulated NVRAM (package nvm). A process's local
// variables are volatile: they are Go locals on the operation's stack, and
// a crash — a typed panic injected at an instrumented step — unwinds and
// discards them, while the nvm words and the system-maintained frame
// metadata survive. After a crash the system resurrects the process by
// invoking the recovery function of the inner-most recoverable operation
// that was pending at the crash, passing the same arguments and exposing
// the non-volatile last-instruction register LI, exactly as in the paper.
//
// # Operations as line machines
//
// A recoverable operation is implemented as a resumable line machine
// (Operation): Exec(ctx, line) executes the operation's pseudo-code from
// the given line. The line numbers match the paper's listings; the body
// starts at Info().Entry and the recovery function at Info().RecoverEntry.
// Each pseudo-code line is preceded by ctx.Step(line), which (1) yields to
// the scheduler, (2) asks the crash injector whether the process crashes
// here, and (3) records line into the frame's LI. The crash check happens
// before LI is updated, so a crash "while about to execute line n" leaves
// LI at the previous line — the reading under which Algorithm 4's
// "LI_p < 4" test is sound.
//
// # Nesting
//
// ctx.Invoke runs a child operation: it pushes a frame, reports the
// invocation, executes the child, reports the response and pops. When the
// stack is empty, Invoke acts as the top-level entry point and
// additionally plays the system's role: it catches crash panics, reports
// the crash and recovery, invokes the inner-most pending operation's
// recovery function, and, as each frame completes, hands the response to
// the parent frame and resumes the parent at its saved LI (the invoke
// line). The response handed to a parent is volatile — it is discarded if
// the process crashes before the parent consumes it — which reproduces the
// paper's motivating lost-response scenario.
//
// Each edge — invoke, response, crash, recover, recover-done — is
// reported once, as a trace.Event, to one sink combining Config.Recorder,
// Config.Tracer and Config.FlightRec; the history is derived from it.
//
// # Scheduling and crash injection
//
// Two schedulers are provided. The free scheduler lets goroutines run
// under the Go runtime (realistic contention, used by stress tests and
// benchmarks). The controlled scheduler serialises execution and picks,
// deterministically from a seed or a script, which process takes the next
// step, enabling reproducible adversarial interleavings. Crash injectors
// range from "never" through deterministic single-point crashes (used to
// crash every algorithm at every line in tests) to bounded random crashes.
package proc
