package proc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/flightrec"
	"nrl/internal/history"
	"nrl/internal/nvm"
	"nrl/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestLifecycleSinksGolden pins what every op-lifecycle sink sees for one
// deterministic run: the history (with its OpID linkage), the tracer's
// lifecycle events and the deep flight recorder's ring. The run uses the
// controlled scheduler and covers a nested op, a crash inside the nested
// body, a crash during recovery, and an AtStep crash of a second
// process's top-level op.
func TestLifecycleSinksGolden(t *testing.T) {
	rec := history.NewRecorder()
	ring := trace.NewRing(0)
	frec := flightrec.NewRecorder(flightrec.Options{Slots: 1024, Deep: true})
	sys := NewSystem(Config{
		Procs:     2,
		Mem:       nvm.New(nvm.WithMode(nvm.Buffered)),
		Recorder:  rec,
		Tracer:    ring,
		FlightRec: frec,
		Scheduler: NewControlled(RandomPicker(5)),
		Injector: Multi{
			&AtLine{Proc: 1, Obj: "child", Line: 2},
			&AtLine{Proc: 1, Obj: "child", Line: 10},
			&AtStep{Proc: 2, Step: 5},
		},
	})
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	b := sys.Mem().Alloc("B", 0)
	err := sys.Run(map[int]func(*Ctx){
		1: func(c *Ctx) { c.Invoke(parent, 7) },
		2: func(c *Ctx) {
			for i := uint64(1); i <= 2; i++ {
				c.Invoke(&childOp{a: b}, 20+i)
				c.Persist(b)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Proc(1).Crashes(); got != 2 {
		t.Fatalf("p1 crashes = %d, want 2", got)
	}
	if got := sys.Proc(2).Crashes(); got != 1 {
		t.Fatalf("p2 crashes = %d, want 1", got)
	}

	var out strings.Builder
	out.WriteString("# history\n")
	h := sys.History()
	out.WriteString(h.String())
	out.WriteString("# history op ids\n")
	for _, s := range h.Steps {
		fmt.Fprintf(&out, "%d ", s.OpID)
	}
	out.WriteByte('\n')
	out.WriteString("# lifecycle events\n")
	for _, e := range ring.Events() {
		if e.Kind > trace.RecoverDone {
			continue
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	out.WriteString("# flight recorder\n")
	for _, r := range frec.Snapshot() {
		fmt.Fprintf(&out, "%+v\n", r)
	}

	golden := filepath.Join("testdata", "lifecycle.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("lifecycle sinks diverged from %s:\n%s", golden, out.String())
	}
}
