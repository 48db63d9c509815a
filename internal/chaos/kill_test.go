package chaos_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"nrl/internal/chaos"
)

// TestKillWorkerProcess is not a test: it is the kill-harness worker
// body, re-executed as a subprocess by the campaign tests below with
// the worker's flags after "--". It does nothing unless the
// NRL_KILL_WORKER environment guard is set.
func TestKillWorkerProcess(t *testing.T) {
	if os.Getenv("NRL_KILL_WORKER") == "" {
		t.Skip("not a worker invocation")
	}
	cfg, err := chaos.ParseKillWorkerArgs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill worker:", err)
		os.Exit(3)
	}
	os.Exit(chaos.RunKillWorker(cfg, os.Stdout))
}

// selfWorker builds a Worker function that re-executes this test binary
// as the kill worker.
func selfWorker(t *testing.T) func(chaos.KillWorkerConfig) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return func(wc chaos.KillWorkerConfig) *exec.Cmd {
		cmd := exec.Command(exe, append([]string{"-test.run=^TestKillWorkerProcess$", "--"}, wc.Args()...)...)
		cmd.Env = append(os.Environ(), "NRL_KILL_WORKER=1")
		return cmd
	}
}

// runCampaign runs a kill campaign in a fresh directory — over the
// plain store for replicas 0, over a replica set otherwise — and
// reports every violation.
func runCampaign(t *testing.T, rounds, replicas, appends int, seed int64) *chaos.KillResult {
	t.Helper()
	maxDelay := killMaxDelay
	if replicas > 0 {
		maxDelay = replKillMaxDelay
	}
	res, err := chaos.RunKillCampaign(chaos.KillConfig{
		Rounds:       rounds,
		Seed:         seed,
		MaxKillDelay: maxDelay,
		Base:         chaos.KillWorkerConfig{Dir: t.TempDir(), Replicas: replicas, Appends: appends, Capacity: 16384},
		Worker:       selfWorker(t),
	})
	if err != nil {
		t.Fatalf("RunKillCampaign: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("violation: %s", f)
	}
	if t.Failed() {
		for _, tr := range res.Transcripts {
			t.Logf("transcript:\n%s", tr)
		}
	}
	return res
}

// TestKillCampaignSmoke is the always-on quick version of the issue's
// 200-round acceptance run.
func TestKillCampaignSmoke(t *testing.T) {
	res := runCampaign(t, 12, 0, 8, 7)
	if res.Kills+res.CleanExits != 12 {
		t.Fatalf("rounds accounted = %d+%d, want 12", res.Kills, res.CleanExits)
	}
	if res.BlackBoxChecks == 0 {
		t.Error("no round cross-checked the flight-recorder black box")
	}
	t.Logf("smoke: kills=%d clean=%d finalLen=%d repaired=%d bbchecks=%d\n%s",
		res.Kills, res.CleanExits, res.FinalLen, res.RepairedWrites, res.BlackBoxChecks, res.Phases)
}

// TestKillCampaign200Rounds is the acceptance criterion: 200 seeded
// SIGKILL rounds over one store, every incarnation recovering to an
// NRL-consistent state, with kills landing across multiple persistence
// phases.
func TestKillCampaign200Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("200-round kill campaign skipped in -short mode")
	}
	// 40 appends (~80 fences) keeps each incarnation inside the commit
	// pipeline long enough that most kill delays land mid-workload.
	res := runCampaign(t, killAcceptanceRounds, 0, 40, 1)
	if res.Kills == 0 {
		t.Fatalf("%d rounds produced no kills; campaign exercised nothing", killAcceptanceRounds)
	}
	if d := res.Phases.Distinct(); killAssertPhases && d < 2 {
		t.Errorf("kills covered only %d distinct phase(s); want >= 2\n%s", d, res.Phases)
	}
	t.Logf("%d rounds: kills=%d clean=%d finalLen=%d torn=%d repaired=%d\n%s",
		killAcceptanceRounds, res.Kills, res.CleanExits, res.FinalLen, res.TornWrites, res.RepairedWrites, res.Phases)
}

// TestReplKillCampaignSmoke is the always-on quick version of the
// issue's 200-round replica-fault acceptance run.
func TestReplKillCampaignSmoke(t *testing.T) {
	res := runCampaign(t, 10, 3, 8, 11)
	if res.Kills+res.CleanExits != 10 {
		t.Fatalf("rounds accounted = %d+%d, want 10", res.Kills, res.CleanExits)
	}
	if len(res.Faults) == 0 {
		t.Error("no replica faults were injected")
	}
	t.Logf("smoke: kills=%d clean=%d finalLen=%d finalEpoch=%d promos=%d heals=%d faults=%v leaderFaults=%d\n%s",
		res.Kills, res.CleanExits, res.FinalLen, res.FinalEpoch,
		res.Promotions, res.Heals, res.Faults, res.LeaderFaults, res.Phases)
}

// TestReplKillCampaign200Rounds is the acceptance criterion: 200 seeded
// rounds, each SIGKILLing the process and wiping, corrupting, or
// disk-faulting one replica directory; every recovery lands on a
// linearizable state containing every acked append, a degraded leader
// always ends in a promoted follower that keeps accepting writes, and
// no round ends sticky read-only while a healthy replica exists.
func TestReplKillCampaign200Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("200-round replica campaign skipped in -short mode")
	}
	res := runCampaign(t, replAcceptanceRounds, 3, 20, 1)
	if res.Kills == 0 {
		t.Fatalf("%d rounds produced no kills; campaign exercised nothing", replAcceptanceRounds)
	}
	for _, kind := range []string{"wipe", "corrupt", "disk"} {
		if res.Faults[kind] == 0 {
			t.Errorf("no round drew the %s fault; coverage hole", kind)
		}
	}
	if res.Promotions == 0 {
		t.Error("no incarnation promoted a follower; leader disk faults never ended in failover")
	}
	if res.Heals == 0 {
		t.Error("no incarnation healed a follower back in")
	}
	t.Logf("%d rounds: kills=%d clean=%d finalLen=%d finalEpoch=%d promos=%d heals=%d faults=%v leaderFaults=%d\n%s",
		replAcceptanceRounds, res.Kills, res.CleanExits, res.FinalLen, res.FinalEpoch,
		res.Promotions, res.Heals, res.Faults, res.LeaderFaults, res.Phases)
}
