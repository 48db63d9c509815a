package chaos_test

import (
	"path/filepath"
	"strings"
	"testing"

	"nrl/internal/chaos"
	schedtrace "nrl/internal/chaos/trace"
)

// TestKillTraceCorpus replays every committed SIGKILL schedule trace
// under testdata/kill through the test-binary worker and fails on any
// divergence: the seeded schedule (kill delays, replica faults and
// their arming windows, worker seeds) must be re-derived exactly from
// the recorded header. Observed kill outcomes do not gate.
//
// The traces were recorded with the CLIs:
//
//	nrlchaos -real -rounds 5 -seed 3 -record testdata/kill/kill-seed3.jsonl
//	nrlrepl chaos -rounds 6 -seed 3 -record testdata/kill/replkill-seed3.jsonl
func TestKillTraceCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "kill", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no kill traces under testdata/kill")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			rec, err := schedtrace.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, div, err := chaos.ReplayKillTrace(rec, chaos.KillConfig{
				Base:   chaos.KillWorkerConfig{Dir: t.TempDir(), Appends: 40, Capacity: 16384},
				Worker: selfWorker(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("replay failure: %s", f)
			}
			if div != nil {
				t.Errorf("%v", div)
			}
			if t.Failed() {
				t.Logf("transcripts:\n%s", strings.Join(res.Transcripts, "\n"))
			}
		})
	}
}
