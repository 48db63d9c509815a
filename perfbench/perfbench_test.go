package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests pin.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// metrics this program defines.
func TestBenchmarkFileMatches(t *testing.T) {
	b := loadBenchmarkFile(t)
	var listed []string
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program lists %d", len(b.Workloads), len(listed))
	}
	for i, name := range listed {
		if b.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, name)
		}
	}
	for _, c := range []struct {
		what string
		file []benchMetric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.what, i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
}

// smokeOps shrinks each workload's epochs so a smoke run takes well
// under a second per workload.
var smokeOps = map[string]int{"mem-mix": 3000, "crash-mix": 3000, "durable-mix": 40, "replicated-mix": 20}

// TestSmoke runs every workload untraced and traced and checks the
// result line: outputs correct, no failed op, and every metric of the
// run's kind printed with its unit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				w := w
				w.epochOps = smokeOps[w.name]
				cfg := config{w: w, seed: 7, seconds: 0.01, trace: traced}
				if traced {
					cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				var out bytes.Buffer
				if err := withTempRoot(t.TempDir(), &cfg, func() error { return report(&out, cfg) }); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %t with unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				share := res.Metrics["trace.commit_share"].Value
				commits := checkSpanFile(t, cfg.spans)
				switch w.store {
				case storeNone:
					if share != 0 || commits != 0 || res.Metrics["backend.commits_per_op"].Value != 0 {
						t.Errorf("no store, yet commit share %v, %d commit spans and %v commits/op",
							share, commits, res.Metrics["backend.commits_per_op"].Value)
					}
				default:
					if share < 0.5 || commits == 0 {
						t.Errorf("%d backend.commit spans cover %.2f of op time, want most of it", commits, share)
					}
				}
			})
		}
	}
}

// checkSpanFile checks a traced run's span file: every op span has a
// distinct id and every backend.commit span is parented to an op span
// of the same process. It returns the number of commit spans.
func checkSpanFile(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		ID, Parent uint64
		Name       string
		Proc       int
	}
	var recs []rec
	ops := map[uint64]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if strings.HasPrefix(r.Name, "op.") {
			if _, dup := ops[r.ID]; dup {
				t.Errorf("op span id %d repeated", r.ID)
			}
			ops[r.ID] = r.Proc
		}
		recs = append(recs, r)
	}
	if len(ops) == 0 {
		t.Error("no op spans written")
	}
	commits := 0
	for _, r := range recs {
		if r.Name != "backend.commit" {
			continue
		}
		commits++
		if p, ok := ops[r.Parent]; !ok || p != r.Proc {
			t.Errorf("commit span %d of process %d has parent %d, not an op of that process", r.ID, r.Proc, r.Parent)
		}
	}
	return commits
}

// counterObj is what the negative control needs of a counter.
type counterObj interface {
	Inc(*proc.Ctx)
	Read(*proc.Ctx) uint64
}

// crashedCounterRun runs 20 000 increments and a final read on one
// process under a seeded crash injector and returns what the
// benchmark's counter accounting reports.
func crashedCounterRun(t *testing.T, build func(*proc.System) counterObj) (c checker, crashes int) {
	t.Helper()
	inj := proc.NewRandom(0.01, 0, rand.NewSource(proc.SplitSeed(11, 1)))
	sys := proc.NewSystem(proc.Config{Procs: 1, Mem: nvm.New(nvm.WithMode(nvm.Buffered)), Injector: inj, RecoverPanics: true})
	ctr := build(sys)
	var incs, final uint64
	sys.Go(1, func(ctx *proc.Ctx) {
		for i := 0; i < 20_000; i++ {
			ctr.Inc(ctx)
			incs++
		}
		final = ctr.Read(ctx)
	})
	sys.Wait()
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	c.counter(final, incs)
	return c, sys.Proc(1).Crashes()
}

// TestBrokenCounterFlagged is the accounting check's negative control:
// objects.BrokenCounter re-executes an increment whose write already
// landed, so under crashes its count runs ahead and the check must
// flag it, while the recoverable Counter on the same schedule passes.
func TestBrokenCounterFlagged(t *testing.T) {
	broken, crashes := crashedCounterRun(t, func(s *proc.System) counterObj { return objects.NewBrokenCounter(s, "broken") })
	if crashes == 0 {
		t.Fatal("no crashes: the control did not exercise recovery")
	}
	if broken.bad == 0 {
		t.Fatalf("accounting check passed objects.BrokenCounter through %d crashes", crashes)
	}
	t.Logf("BrokenCounter flagged after %d crashes: %d ops, %v", crashes, broken.bad, broken.problems)
	good, crashes := crashedCounterRun(t, func(s *proc.System) counterObj { return objects.NewCounter(s, "ctr") })
	if good.bad != 0 {
		t.Fatalf("accounting check flagged objects.Counter after %d crashes: %v", crashes, good.problems)
	}
}

// TestRemovalsFlagged checks the queue and stack accounting against
// hand-made histories: a duplicate, a loss, a value never inserted and
// a per-producer FIFO inversion are each flagged once.
func TestRemovalsFlagged(t *testing.T) {
	v := func(p, i uint64) uint64 { return p<<32 | i }
	for _, c := range []struct {
		name      string
		consumers [][]uint64
		fifo      bool
		bad       int
	}{
		{"clean", [][]uint64{{v(1, 1), v(2, 1)}, {v(1, 2)}}, true, 0},
		{"duplicate", [][]uint64{{v(1, 1), v(2, 1)}, {v(1, 2), v(2, 1)}}, false, 1},
		{"lost", [][]uint64{{v(1, 1)}, {v(1, 2)}}, false, 1},
		{"never inserted", [][]uint64{{v(1, 1), v(2, 1), v(1, 2), v(3, 1)}}, false, 1},
		{"fifo inversion", [][]uint64{{v(1, 2), v(1, 1), v(2, 1)}}, true, 1},
	} {
		var ch checker
		ch.removals("q", []uint64{2, 1}, c.consumers, c.fifo)
		if ch.bad != c.bad {
			t.Errorf("%s: flagged %d (%v), want %d", c.name, ch.bad, ch.problems, c.bad)
		}
	}
}
