package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"nrl/internal/chaos"
	schedtrace "nrl/internal/chaos/trace"
)

// runReal is the -real campaign: instead of simulated crashes inside
// one process, it SIGKILLs real worker processes (this binary re-run
// with -realworker) running a counter/log workload over the file-backed
// persist store in -dir, and checks every incarnation recovers to an
// NRL-consistent state. Exit codes follow the campaign convention:
// 0 clean, 1 consistency violation.
func runReal(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlchaos -real", flag.ContinueOnError)
	fs.SetOutput(errOut)
	rounds := fs.Int("rounds", 25, "worker incarnations to run (kills included)")
	seed := fs.Int64("seed", 1, "kill-delay schedule seed")
	appends := fs.Int("appends", 40, "log appends per incarnation")
	capacity := fs.Int("capacity", 1<<16, "log capacity in records")
	dir := fs.String("dir", "", "persist store directory (default: a temp dir, removed on success)")
	keep := fs.Bool("keep", false, "keep the store directory even on success")
	// The default kill window is sized so kills sample the whole commit
	// pipeline: long enough to get past process startup and the
	// open-time checkpoint, short enough that most rounds still die.
	maxDelay := fs.Duration("maxdelay", 120*time.Millisecond, "upper bound on the random kill delay")
	record := fs.String("record", "", "write the campaign's schedule trace to this JSONL file")
	replayTrace := fs.String("replaytrace", "", "re-execute a recorded kill trace and diff its schedule")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	storeDir := *dir
	if storeDir == "" {
		d, err := os.MkdirTemp("", "nrlchaos-real-")
		if err != nil {
			fmt.Fprintln(errOut, "nrlchaos:", err)
			return exitUsage
		}
		storeDir = d
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return exitUsage
	}
	kc := chaos.KillConfig{
		Rounds:       *rounds,
		Seed:         *seed,
		MaxKillDelay: *maxDelay,
		Base:         chaos.KillWorkerConfig{Dir: storeDir, Appends: *appends, Capacity: *capacity},
		Worker: func(wc chaos.KillWorkerConfig) *exec.Cmd {
			return exec.Command(exe, append([]string{"-realworker"}, wc.Args()...)...)
		},
	}

	var res *chaos.KillResult
	var div *schedtrace.Divergence
	if *replayTrace != "" {
		// Replay: the recorded header carries the campaign shape; the
		// worker flags (-appends, -capacity, -dir) still shape the
		// incarnations, which must match the recording's to reproduce.
		rec, rerr := schedtrace.ReadFile(*replayTrace)
		if rerr != nil {
			fmt.Fprintln(errOut, "nrlchaos:", rerr)
			return exitUsage
		}
		res, div, err = chaos.ReplayKillTrace(rec, kc)
		*rounds = rec.Header.Rounds
	} else {
		res, err = chaos.RunKillCampaign(kc)
	}
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos:", err)
		return exitUsage
	}
	if *record != "" {
		if werr := res.Trace.WriteFile(*record); werr != nil {
			fmt.Fprintln(errOut, "nrlchaos:", werr)
			return exitUsage
		}
		fmt.Fprintf(out, "schedule trace: %s (%d rounds)\n", *record, len(res.Trace.Rounds))
	}

	fmt.Fprintf(out, "real-crash    %d rounds, %d kills, %d clean exits, final log length %d",
		*rounds, res.Kills, res.CleanExits, res.FinalLen)
	if res.TornWrites > 0 {
		fmt.Fprintf(out, ", %d torn pages (%d repaired)", res.TornWrites, res.RepairedWrites)
	}
	fmt.Fprintf(out, ", %d black-box checks", res.BlackBoxChecks)
	if res.BlackBoxTorn > 0 {
		fmt.Fprintf(out, " (%d torn recorder slots)", res.BlackBoxTorn)
	}
	if len(res.Failures) == 0 {
		fmt.Fprintf(out, ": ok\n")
	} else {
		fmt.Fprintf(out, ": VIOLATION\n")
	}
	fmt.Fprintf(out, "kill phase coverage (%d distinct):\n", res.Phases.Distinct())
	printIndented(out, res.Phases.String(), "  ")
	if len(res.Failures) > 0 {
		for _, f := range res.Failures {
			fmt.Fprintf(out, "  %s\n", f)
		}
		for _, tr := range res.Transcripts {
			printIndented(out, tr, "  ")
		}
		fmt.Fprintf(out, "store kept for inspection: %s\n", storeDir)
		return exitViolation
	}
	if div != nil {
		fmt.Fprintf(out, "schedule DIVERGED from %s: %v\n", *replayTrace, div)
		return exitViolation
	}
	if *replayTrace != "" {
		fmt.Fprintf(out, "schedule matched the recording %s\n", *replayTrace)
	}
	if *keep || *dir != "" {
		fmt.Fprintf(out, "store: %s\n", storeDir)
	} else {
		os.RemoveAll(storeDir)
	}
	return exitClean
}

// runRealWorker is the -realworker mode: one incarnation of the
// kill-harness workload, spawned by runReal (or by hand for debugging),
// configured by the flags chaos.KillWorkerConfig.Args writes. Its
// stdout is the worker line protocol; its exit code is one of the
// chaos.KillWorker codes.
func runRealWorker(args []string, out, errOut io.Writer) int {
	cfg, err := chaos.ParseKillWorkerArgs(args)
	if err != nil {
		fmt.Fprintln(errOut, "nrlchaos -realworker:", err)
		return exitUsage
	}
	return chaos.RunKillWorker(cfg, out)
}
