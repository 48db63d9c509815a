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

// chaosDoc is the JSON document of the chaos subcommand.
type chaosDoc struct {
	Rounds     int            `json:"rounds"`
	Kills      int            `json:"kills"`
	CleanExits int            `json:"clean_exits"`
	Promotions uint64         `json:"promotions"`
	Heals      uint64         `json:"heals"`
	Faults     map[string]int `json:"faults"`
	// LeaderFaults counts the rounds whose injury targeted the serving
	// leader's directory.
	LeaderFaults int `json:"leader_faults"`
	// Phases maps each persistence phase to how many kills landed in it.
	Phases     map[string]int `json:"phases"`
	FinalLen   uint64         `json:"final_len"`
	FinalEpoch uint64         `json:"final_epoch"`
	OK         bool           `json:"ok"`
	Failures   []string       `json:"failures,omitempty"`
}

// runChaos runs the replica-fault SIGKILL campaign against -root:
// workers are this binary re-executed as "nrlrepl chaosworker", each
// incarnation killed at a seeded random point with one replica
// directory wiped, corrupted, or disk-faulted.
func runChaos(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root, replicas := setFlags(fs)
	rounds := fs.Int("rounds", 25, "worker incarnations to run (kills included)")
	seed := fs.Int64("seed", 1, "fault and kill-delay schedule seed")
	appends := fs.Int("appends", 20, "log appends per incarnation")
	capacity := fs.Int("capacity", 1<<14, "log capacity in records")
	maxDelay := fs.Duration("maxdelay", 60*time.Millisecond, "upper bound on the random kill delay")
	keep := fs.Bool("keep", false, "keep the root directory even on success")
	record := fs.String("record", "", "write the campaign's schedule trace to this JSONL file")
	replay := fs.String("replay", "", "re-execute a recorded replica-fault trace and diff its schedule")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	madeTemp := false
	if *root == "" {
		d, err := os.MkdirTemp("", "nrlrepl-chaos-")
		if err != nil {
			fmt.Fprintln(errOut, "nrlrepl chaos:", err)
			return exitUsage
		}
		*root = d
		madeTemp = true
	}
	if !checkSetFlags(fs, errOut, *root, *replicas) {
		return exitUsage
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "nrlrepl chaos:", err)
		return exitUsage
	}
	kc := chaos.KillConfig{
		Rounds:       *rounds,
		Seed:         *seed,
		MaxKillDelay: *maxDelay,
		Base: chaos.KillWorkerConfig{
			Dir: *root, Replicas: *replicas, Appends: *appends, Capacity: *capacity,
		},
		Worker: func(wc chaos.KillWorkerConfig) *exec.Cmd {
			return exec.Command(exe, append([]string{"chaosworker"}, wc.Args()...)...)
		},
	}

	var res *chaos.KillResult
	var div *schedtrace.Divergence
	if *replay != "" {
		// Replay: the recorded header fixes rounds, seed, replicas,
		// appends and the kill window; the root is fresh.
		rec, rerr := schedtrace.ReadFile(*replay)
		if rerr != nil {
			fmt.Fprintln(errOut, "nrlrepl chaos:", rerr)
			return exitUsage
		}
		*rounds = rec.Header.Rounds
		res, div, err = chaos.ReplayKillTrace(rec, kc)
	} else {
		res, err = chaos.RunKillCampaign(kc)
	}
	if err != nil {
		fmt.Fprintln(errOut, "nrlrepl chaos:", err)
		return exitUsage
	}
	if *record != "" {
		if werr := res.Trace.WriteFile(*record); werr != nil {
			fmt.Fprintln(errOut, "nrlrepl chaos:", werr)
			return exitUsage
		}
		fmt.Fprintf(errOut, "schedule trace: %s (%d rounds)\n", *record, len(res.Trace.Rounds))
	}
	if div != nil {
		res.Failures = append(res.Failures, "schedule divergence: "+div.Error())
	} else if *replay != "" {
		fmt.Fprintf(errOut, "schedule matched the recording %s\n", *replay)
	}

	doc := chaosDoc{
		Rounds:     *rounds,
		Kills:      res.Kills,
		CleanExits: res.CleanExits,
		Promotions: res.Promotions,
		Heals:      res.Heals,
		Faults:     res.Faults,

		LeaderFaults: res.LeaderFaults,
		Phases:       map[string]int{},
		FinalLen:     res.FinalLen,
		FinalEpoch:   res.FinalEpoch,
		OK:           len(res.Failures) == 0,
		Failures:     res.Failures,
	}
	for _, row := range res.Phases.Rows() {
		doc.Phases[row.Phase] = int(row.Kills)
	}
	emit(out, doc)
	if !doc.OK {
		for _, tr := range res.Transcripts {
			fmt.Fprintln(errOut, tr)
		}
		fmt.Fprintf(errOut, "root kept for inspection: %s\n", *root)
		return exitViolation
	}
	if madeTemp && !*keep {
		os.RemoveAll(*root)
	} else {
		fmt.Fprintf(errOut, "root: %s\n", *root)
	}
	return exitClean
}

// runChaosWorker is the hidden worker mode: one incarnation of the
// replica kill-harness workload, configured by the flags
// chaos.KillWorkerConfig.Args writes. Its stdout is the worker line
// protocol; its exit code one of the chaos.KillWorker codes.
func runChaosWorker(args []string, out, errOut io.Writer) int {
	cfg, err := chaos.ParseKillWorkerArgs(args)
	if err != nil {
		fmt.Fprintln(errOut, "nrlrepl chaosworker:", err)
		return exitUsage
	}
	return chaos.RunKillWorker(cfg, out)
}
