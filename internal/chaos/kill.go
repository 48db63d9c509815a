// kill.go is the real-crash harness: where the chaos engine simulates
// crashes inside one process, this file SIGKILLs actual worker
// processes running a durable counter/log workload, restarts them, and
// checks that every incarnation recovers to an NRL-consistent state —
// the committed log prefix is exactly the acknowledged appends, the
// counter never runs ahead of the log, and no acknowledged append is
// ever lost.
//
// The workload runs over one of two backends: a plain file-backed
// persist store, or a replica.Set over N member directories. The two
// campaigns differ only in their per-round fault plan. The plain store
// gets none. A replica set gets exactly one injured member directory
// per round — wiped, corrupted, or disk-faulted — and a leader whose
// disk dies must be replaced by a promoted follower: with one fault per
// round and three replicas a healthy majority always exists, so a
// degraded exit is a violation.
package chaos

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/durable"
	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/replica"
	"nrl/internal/vclock"
)

// Kill-worker exit codes, above the nrlchaos CLI's own 0..3 range.
const (
	// KillWorkerOK: the incarnation recovered consistently and finished
	// its appends (or its verify pass).
	KillWorkerOK = 0
	// KillWorkerCorrupt: opening the store rejected it (ErrCorrupt).
	KillWorkerCorrupt = 4
	// KillWorkerDegraded: the memory degraded to read-only mid-workload.
	KillWorkerDegraded = 5
	// KillWorkerBad: recovery surfaced an NRL-inconsistent state.
	KillWorkerBad = 6
)

// ReplicaFault names a round's fault plan: the replica-directory injury
// the campaign applies, if any.
type ReplicaFault int

// The fault plans. The plain store always runs FaultNone; a replica
// campaign draws one of the other three per round, against one member.
const (
	// FaultNone injures nothing (the plain-store plan).
	FaultNone ReplicaFault = iota
	// FaultWipe deletes the directory outright before the round — total
	// loss of one replica, healed back in by snapshot transfer.
	FaultWipe
	// FaultCorrupt flips random bytes in the directory's files before
	// the round — recovery must trim or out-elect the damage.
	FaultCorrupt
	// FaultDisk makes every physical I/O against the directory fail
	// from a chosen point of the round on — the degradation that must
	// end in promotion, not read-only.
	FaultDisk
)

// String names the fault for coverage tables and traces.
func (f ReplicaFault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultWipe:
		return "wipe"
	case FaultCorrupt:
		return "corrupt"
	case FaultDisk:
		return "disk"
	default:
		return fmt.Sprintf("ReplicaFault(%d)", int(f))
	}
}

// KillWorkerConfig configures one worker incarnation. Args and
// ParseKillWorkerArgs carry it to the worker process.
type KillWorkerConfig struct {
	// Dir is the persist store directory, or the replica-set root
	// (members Dir/r0 .. Dir/r{Replicas-1}) when Replicas > 0. It is
	// shared across incarnations.
	Dir string
	// Replicas selects the backend: 0 for the plain store, n > 0 for an
	// n-member replica.Set. It must be identical in every incarnation.
	Replicas int
	// Appends is how many log appends this incarnation performs after
	// recovery before exiting cleanly.
	Appends int
	// Capacity is the log capacity in records. It must be identical in
	// every incarnation: the backend identifies words by allocation
	// order.
	Capacity int
	// FaultDir, when >= 0 over a replica set, selects the member whose
	// I/O is dead this incarnation; FaultAfter is the append count after
	// which the fault arms (0 = dead from process start, Open included).
	// FaultFor, when > 0, disarms the fault again FaultFor appends
	// later — a transient outage the set must heal from; 0 leaves the
	// directory dead for the whole incarnation.
	FaultDir   int
	FaultAfter int
	FaultFor   int
	// Seed seeds the replica set's jitter streams (ship retry and heal
	// backoff). The campaign derives one per round from its master
	// seed, so every backoff schedule is a recorded, replayable choice.
	Seed int64
	// Verify makes the incarnation recover, verify and exit without
	// appending (the campaign's final check, never killed or faulted).
	Verify bool
}

// workerFlags binds a flag set to c's fields, with c's current values
// as the defaults: the one definition behind Args and
// ParseKillWorkerArgs.
func workerFlags(c *KillWorkerConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("kill worker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&c.Dir, "dir", c.Dir, "store directory, or replica-set root with -replicas")
	fs.IntVar(&c.Replicas, "replicas", c.Replicas, "replica-set size (0: plain store)")
	fs.IntVar(&c.Appends, "appends", c.Appends, "log appends to perform")
	fs.IntVar(&c.Capacity, "capacity", c.Capacity, "log capacity in records")
	fs.IntVar(&c.FaultDir, "faultdir", c.FaultDir, "replica index whose I/O is dead (-1 none)")
	fs.IntVar(&c.FaultAfter, "faultafter", c.FaultAfter, "append count after which the fault arms")
	fs.IntVar(&c.FaultFor, "faultfor", c.FaultFor, "appends the fault stays armed (0 = forever)")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "replica-set jitter seed")
	fs.BoolVar(&c.Verify, "verify", c.Verify, "recover and verify only, no appends")
	return fs
}

// Args encodes the config as worker command-line flags, the form
// ParseKillWorkerArgs decodes.
func (c KillWorkerConfig) Args() []string {
	var args []string
	workerFlags(&c).VisitAll(func(f *flag.Flag) {
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

// ParseKillWorkerArgs decodes a worker's command-line flags (see Args).
// Omitted flags default to 20 appends, a 1<<16-record log and no disk
// fault.
func ParseKillWorkerArgs(args []string) (KillWorkerConfig, error) {
	c := KillWorkerConfig{Appends: 20, Capacity: 1 << 16, FaultDir: -1}
	fs := workerFlags(&c)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.Dir == "":
		return c, errors.New("-dir is required")
	case c.Replicas < 0:
		return c, errors.New("-replicas must be >= 0")
	}
	return c, nil
}

// RunKillWorker runs one incarnation of the kill-harness workload,
// writing its line protocol to out:
//
//	phase <name>                        every persistence-phase transition
//	recovered len=L ctr=C torn=T repaired=R   once, after recovery
//	blackbox records=N torn=T maxbegun=B maxended=E inflight=I   plain store: once, after recovery
//	set leader=I epoch=E promos=P heals=H   replica set: after recovery and after every ack
//	len <v>                             after append v is durable (the ack)
//	done                                before a clean exit
//	corrupt|degraded|bad <detail>       before a failure exit
//
// Over the plain store the incarnation carries a flight recorder as the
// store's black box and brackets each append with begin/end lifecycle
// records, so the blackbox line lets the campaign cross-check the
// forensic story against the recovered state: an end record is only
// issued once the append is durable, and a begin record rides the
// append's own commit, hence maxended <= len <= maxbegun must hold on
// every recovery. A replica set keeps its black box on the leader only,
// so after a failover the ring would be stale; it reports no blackbox
// line.
//
// Over a replica set, the set line's leader is the serving directory's
// index (-1 if it is not a member path, which would itself be a bug);
// the campaign reads the last one of each round, and promos > 0 is the
// proof that a faulted leader ended in promotion rather than read-only.
//
// The returned code is one of the KillWorker constants. The function
// never panics on storage failure; that is the point.
func RunKillWorker(cfg KillWorkerConfig, out io.Writer) int {
	hook := func(p nvm.Phase) { fmt.Fprintf(out, "phase %s\n", p) }
	faulted := cfg.Replicas > 0 && cfg.FaultDir >= 0
	var armed atomic.Bool
	armed.Store(faulted && cfg.FaultAfter <= 0)

	var (
		backend nvm.Backend
		store   *persist.File       // plain store only
		frec    *flightrec.Recorder // plain store only: the black box
		set     *replica.Set        // replica set only
		dirs    = replica.MemberDirs(cfg.Dir, cfg.Replicas)
		err     error
	)
	if cfg.Replicas > 0 {
		set, err = replica.Open(killReplicaOptions(cfg, dirs, hook, &armed))
		backend = set
	} else {
		frec = flightrec.NewRecorder(flightrec.Options{Slots: flightrec.DefaultSlots, Deep: true})
		store, err = persist.Open(cfg.Dir, persist.Options{PhaseHook: hook, BlackBox: frec})
		backend = store
	}
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			fmt.Fprintf(out, "corrupt %v\n", err)
			return KillWorkerCorrupt
		}
		fmt.Fprintf(out, "bad open: %v\n", err)
		return KillWorkerBad
	}
	defer backend.Close()

	record := func(kind flightrec.Kind, op string, v uint64) {
		if frec != nil {
			frec.Record(flightrec.Rec{Kind: kind, P: 1, Depth: 1, Obj: "log", Op: op, Val: v})
		}
	}
	setLine := func() {
		if set != nil {
			st := set.Status()
			fmt.Fprintf(out, "set leader=%d epoch=%d promos=%d heals=%d\n",
				slices.Index(dirs, set.LeaderDir()), st.Epoch, st.Promotions, st.Heals)
		}
	}

	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(backend), nvm.WithPhaseHook(hook))
	log := durable.NewLog(mem, "log", cfg.Capacity)
	ctr := durable.NewCounter(mem, "ctr", 1)

	// Recovery check: the durable state must be NRL-consistent — the
	// log is exactly the contiguous acknowledged prefix 1..L, and the
	// counter (incremented after each append) is never ahead of it.
	n := log.Len()
	sum := ctr.Read()
	for i := uint64(0); i < n; i++ {
		if got := log.Get(i); got != i+1 {
			fmt.Fprintf(out, "bad log[%d]=%d want %d (len %d)\n", i, got, i+1, n)
			return KillWorkerBad
		}
	}
	if sum > n {
		fmt.Fprintf(out, "bad counter %d ahead of log %d\n", sum, n)
		return KillWorkerBad
	}
	var rep persist.RecoveryReport
	if store != nil {
		rep = store.Report()
	}
	fmt.Fprintf(out, "recovered len=%d ctr=%d torn=%d repaired=%d\n", n, sum, rep.Torn, rep.Repaired)
	if frec != nil && !blackboxConsistent(out, frec, rep.BlackBoxTorn, n) {
		return KillWorkerBad
	}
	setLine()
	if cfg.Verify {
		fmt.Fprintln(out, "done")
		return KillWorkerOK
	}

	record(flightrec.KindRecoverEnter, "Reconcile", n)
	// Reconciliation: complete the in-flight increment a kill between
	// append and inc left behind (recovery finishing the pending
	// operation, in NRL terms).
	for ctr.Read() < log.Len() {
		ctr.Inc(1)
		if err := mem.Err(); err != nil {
			fmt.Fprintf(out, "degraded %v\n", err)
			return KillWorkerDegraded
		}
	}
	record(flightrec.KindRecoverExit, "Reconcile", ctr.Read())

	for i := 0; i < cfg.Appends; i++ {
		if faulted && i >= cfg.FaultAfter {
			armed.Store(cfg.FaultFor <= 0 || i < cfg.FaultAfter+cfg.FaultFor)
		}
		v := log.Len() + 1
		record(flightrec.KindBegin, "Append", v)
		if _, err := log.TryAppend(v); err != nil {
			if errors.Is(err, nvm.ErrDegraded) {
				fmt.Fprintf(out, "degraded %v\n", err)
				return KillWorkerDegraded
			}
			fmt.Fprintf(out, "bad append: %v\n", err)
			return KillWorkerBad
		}
		ctr.Inc(1)
		if err := mem.Err(); err != nil {
			fmt.Fprintf(out, "degraded %v\n", err)
			return KillWorkerDegraded
		}
		// The append (and its counter bump) is durable: the end record
		// is safe to issue, and will ride the next commit.
		record(flightrec.KindEnd, "Append", v)
		fmt.Fprintf(out, "len %d\n", v)
		// Per-append set line: a killed incarnation still reports the
		// promotions and heals it lived through.
		setLine()
	}
	fmt.Fprintln(out, "done")
	return KillWorkerOK
}

// killReplicaOptions is the worker's replica-set configuration: small
// segments, a short retry budget, and — when the incarnation carries a
// disk fault — a failpoint on that member that fails every I/O while
// armed is set.
func killReplicaOptions(cfg KillWorkerConfig, dirs []string, hook func(nvm.Phase), armed *atomic.Bool) replica.Options {
	opts := replica.Options{
		Dirs: dirs,
		Persist: persist.Options{
			PhaseHook: hook,
			// Small segments so rotation and checkpointing run inside
			// every incarnation, putting segment boundaries under the
			// kills.
			SegmentBytes:    4 << 10,
			CheckpointBytes: 32 << 10,
			// A dead directory must be detected and failed over well
			// inside the campaign's kill window, so the retry budget is
			// short and its backoff tight. The default, patient budget
			// is exercised by the persist package's own tests.
			Retries:   2,
			BaseDelay: 200 * time.Microsecond,
			MaxDelay:  2 * time.Millisecond,
		},
		ShipBaseDelay: 200 * time.Microsecond,
		ShipMaxDelay:  2 * time.Millisecond,
		Seed:          cfg.Seed,
	}
	if cfg.FaultDir >= 0 {
		opts.InjectFor = func(i int) func(op string) error {
			if i != cfg.FaultDir {
				return nil
			}
			return func(op string) error {
				if armed.Load() {
					return errors.New("injected replica disk fault")
				}
				return nil
			}
		}
	}
	return opts
}

// blackboxConsistent replays the black box that survived the last
// incarnation, prints the blackbox line, and holds its story against
// the recovered log length n. End records are issued only after the
// append's commit returned, so no durable end may exceed n; begin
// records ride the append's own commit, so n may not exceed the largest
// durable begin (unless torn slots ate it).
func blackboxConsistent(out io.Writer, frec *flightrec.Recorder, torn int, n uint64) bool {
	recs := frec.Recovered()
	fb := forensics.Reconstruct(recs, torn)
	var maxBegun, maxEnded uint64
	if pr := fb.Proc(1); pr != nil {
		maxBegun, maxEnded = pr.MaxBegunVal, pr.MaxEndedVal
	}
	fmt.Fprintf(out, "blackbox records=%d torn=%d maxbegun=%d maxended=%d inflight=%d\n",
		len(recs), torn, maxBegun, maxEnded, fb.InFlightTotal())
	if maxEnded > n {
		fmt.Fprintf(out, "bad blackbox: end %d past recovered len %d\n", maxEnded, n)
		return false
	}
	if torn == 0 && len(recs) > 0 && n > maxBegun {
		fmt.Fprintf(out, "bad blackbox: recovered len %d but max begun %d\n", n, maxBegun)
		return false
	}
	return true
}

// KillConfig configures a kill campaign.
type KillConfig struct {
	// Rounds is how many worker incarnations to run (kills included).
	Rounds int
	// Seed drives the kill-delay schedule and, over a replica set, the
	// fault-kind, fault-target and arming-window schedules.
	Seed int64
	// MaxKillDelay bounds the random delay before the SIGKILL (default
	// 30ms for the plain store, 60ms for a replica set). A worker
	// finishing earlier exits cleanly.
	MaxKillDelay time.Duration
	// Base is the incarnation every round starts from: its Dir,
	// Replicas, Appends (default 20) and Capacity shape the campaign;
	// the campaign fills in the round's fault, Seed and Verify.
	Base KillWorkerConfig
	// Worker builds the command for one incarnation: a process that
	// runs RunKillWorker with the given config (see
	// KillWorkerConfig.Args). Its stdout must be the worker's line
	// protocol.
	Worker func(KillWorkerConfig) *exec.Cmd
}

// KillRound records one incarnation.
type KillRound struct {
	Round    int
	Killed   bool
	Phase    string // last phase entered before the kill ("" if none seen)
	ExitCode int
	// Fault is the round's replica injury; FaultDir its target (both
	// zero for the plain store).
	Fault    ReplicaFault
	FaultDir int
	// RecoveredLen/RecoveredCtr are what the incarnation reported after
	// recovery; AckedLen the last append it acknowledged.
	RecoveredLen uint64
	RecoveredCtr uint64
	AckedLen     uint64
	Torn         int
	Repaired     int
	// Black-box forensics as reported by a plain-store incarnation:
	// surviving record count, torn slots, and the lifecycle extremes the
	// campaign cross-checks against RecoveredLen.
	BBRecords  int
	BBTorn     int
	BBMaxBegun uint64
	BBMaxEnded uint64
	BBInFlight int
	// Leader/Epoch/Promos/Heals are the last set-status values a
	// replica incarnation reported.
	Leader int
	Epoch  uint64
	Promos uint64
	Heals  uint64
}

// KillResult is a campaign's outcome. Failures is empty iff every
// incarnation recovered to an NRL-consistent state (and, over a replica
// set, no round ended sticky read-only).
type KillResult struct {
	Rounds     []KillRound
	Kills      int
	CleanExits int
	// TornWrites/RepairedWrites total the torn pages recoveries found
	// and repaired across all incarnations.
	TornWrites     int
	RepairedWrites int
	// BlackBoxChecks counts the rounds whose flight-recorder report was
	// cross-checked against the recovered state; BlackBoxTorn totals the
	// torn recorder slots those reports survived.
	BlackBoxChecks int
	BlackBoxTorn   int
	// Promotions and Heals total the leader failovers and follower
	// re-attachments replica incarnations reported.
	Promotions uint64
	Heals      uint64
	// Faults counts rounds per fault kind (nil for the plain store);
	// LeaderFaults how many rounds faulted the directory that was
	// serving as leader at round start.
	Faults       map[string]int
	LeaderFaults int
	// Phases records which persistence phase each kill landed in.
	Phases *PhaseCoverage
	// FinalLen is the log length of the final verify pass; FinalEpoch
	// its replica-set epoch.
	FinalLen   uint64
	FinalEpoch uint64
	// Failures describes every consistency violation found.
	Failures []string
	// Transcripts holds the failing rounds' worker output for
	// artifacts.
	Transcripts []string
	// Trace is the campaign's schedule trace (KindKill for the plain
	// store, KindReplKill for a replica set): the seeded choices gate
	// replay; the observed kill phases and recovery reports ride along
	// for forensics.
	Trace *schedtrace.Trace
}

// workerState parses a worker's line protocol as it streams in. It is
// installed as the command's stdout writer, so no output is lost when
// the process is killed mid-line; a trailing fragment without its
// newline is never parsed. exec copies stdout from one goroutine and
// Wait returns only after that copy ends, so no lock is needed.
type workerState struct {
	KillRound // the reported fields, filled in as lines arrive
	buf       bytes.Buffer
	stderr    bytes.Buffer

	lines                          []string
	recovered, blackbox, set, done bool
	failMsg                        string // first unrecognised line
}

func (s *workerState) Write(p []byte) (int, error) {
	s.buf.Write(p)
	for {
		line, err := s.buf.ReadString('\n')
		if err != nil {
			// Partial line: keep it buffered for the next Write.
			s.buf.WriteString(line)
			break
		}
		s.line(strings.TrimSuffix(line, "\n"))
	}
	return len(p), nil
}

func (s *workerState) line(l string) {
	s.lines = append(s.lines, l)
	r := &s.KillRound
	switch {
	case strings.HasPrefix(l, "phase "):
		r.Phase = strings.TrimPrefix(l, "phase ")
	case strings.HasPrefix(l, "recovered "):
		s.recovered = true
		fmt.Sscanf(l, "recovered len=%d ctr=%d torn=%d repaired=%d",
			&r.RecoveredLen, &r.RecoveredCtr, &r.Torn, &r.Repaired)
	case strings.HasPrefix(l, "blackbox "):
		s.blackbox = true
		fmt.Sscanf(l, "blackbox records=%d torn=%d maxbegun=%d maxended=%d inflight=%d",
			&r.BBRecords, &r.BBTorn, &r.BBMaxBegun, &r.BBMaxEnded, &r.BBInFlight)
	case strings.HasPrefix(l, "set "):
		s.set = true
		fmt.Sscanf(l, "set leader=%d epoch=%d promos=%d heals=%d",
			&r.Leader, &r.Epoch, &r.Promos, &r.Heals)
	case strings.HasPrefix(l, "len "):
		fmt.Sscanf(l, "len %d", &r.AckedLen)
	case l == "done":
		s.done = true
	default:
		if s.failMsg == "" {
			s.failMsg = l
		}
	}
}

// failure is the worker's own account of a failed exit: its first
// unrecognised line plus whatever it wrote to stderr.
func (s *workerState) failure() string {
	return s.failMsg + strings.TrimRight("\n"+s.stderr.String(), "\n")
}

// runWorker runs one incarnation and SIGKILLs it once killAfter has
// elapsed (never, for killAfter 0). It returns the parsed line protocol
// with ExitCode set, and whether the kill fired; an error is a harness
// failure.
func runWorker(cmd *exec.Cmd, killAfter time.Duration) (*workerState, bool, error) {
	st := &workerState{}
	cmd.Stdout = st
	cmd.Stderr = &st.stderr
	if err := cmd.Start(); err != nil {
		return st, false, fmt.Errorf("harness: start worker: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var kill <-chan time.Time
	if killAfter > 0 {
		kill = time.After(killAfter) //nrl:ignore real SIGKILL harness: the wait must elapse on the wall clock to race a live process; the delay itself is drawn from the seeded schedule stream
	}
	killed := false
	var err error
	select {
	case err = <-done:
	case <-kill:
		killed = true
		_ = cmd.Process.Kill()
		err = <-done
	}
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		st.ExitCode = ee.ExitCode()
	default:
		return st, killed, fmt.Errorf("harness: wait worker: %w", err)
	}
	return st, killed, nil
}

// faultPlan is one round's replica injury: its kind, target member,
// and for a disk fault the arming point and transient window.
type faultPlan struct {
	kind             ReplicaFault
	dir, after, span int
}

// drawFault draws a replica round's fault plan from the schedule
// stream, in the order the KindReplKill trace format fixes: kind,
// target, then for a disk fault the arming point and a coin that makes
// half the outages transient (plus their length).
func drawFault(rng *vclock.Rand, replicas, appends int) faultPlan {
	p := faultPlan{kind: FaultWipe + ReplicaFault(rng.Intn(3)), dir: rng.Intn(replicas)}
	if p.kind == FaultDisk {
		p.after = rng.Intn(appends/2 + 1)
		if rng.Intn(2) == 0 {
			p.span = 1 + rng.Intn(3)
		}
	}
	return p
}

// RunKillCampaign runs the seeded SIGKILL campaign: Rounds worker
// incarnations over one shared store (or replica-set root), each killed
// after a random delay (or exiting cleanly first), followed by a final
// verify incarnation that is never killed or faulted. Over a replica
// set every round first applies its fault plan: an at-rest wipe or
// corruption lands before the worker starts, a disk fault rides the
// worker's failpoint hook so it can hit a serving leader mid-commit.
// It returns an error only for harness-level problems (worker won't
// start); violations land in KillResult.Failures.
func RunKillCampaign(cfg KillConfig) (*KillResult, error) {
	if cfg.Worker == nil {
		return nil, errors.New("harness: KillConfig.Worker is required")
	}
	repl := cfg.Base.Replicas > 0
	if cfg.MaxKillDelay <= 0 {
		cfg.MaxKillDelay = 30 * time.Millisecond
		if repl {
			cfg.MaxKillDelay = 60 * time.Millisecond
		}
	}
	if cfg.Base.Appends <= 0 {
		cfg.Base.Appends = 20
	}
	base := cfg.Base
	base.FaultDir, base.FaultAfter, base.FaultFor, base.Verify = -1, 0, 0, false

	// Stream 0 of the campaign seed drives the schedule choices of the
	// campaign loop (fault plan, then kill delay) and nothing else, so
	// the schedule is a pure function of the seed. Corruption byte flips
	// consume a state-dependent number of draws (they walk whatever
	// files the previous incarnation left), so each corrupting round
	// gets its own derived stream; each round's worker likewise gets a
	// split seed for the replica-set jitter inside the incarnation. The
	// virtual clock accumulates the scheduled delays so the trace's
	// vtime is a pure function of the seed even though the real waits
	// run on the wall clock.
	rng := vclock.NewRand(cfg.Seed, 0)
	clk := vclock.NewClock()
	hdr := schedtrace.Header{
		Kind: schedtrace.KindKill, Seed: cfg.Seed, Rounds: cfg.Rounds,
		MaxDelayUS: cfg.MaxKillDelay.Microseconds(),
	}
	res := &KillResult{Phases: NewPhaseCoverage()}
	dirs := replica.MemberDirs(base.Dir, base.Replicas)
	if repl {
		hdr.Kind, hdr.Appends, hdr.Replicas = schedtrace.KindReplKill, base.Appends, base.Replicas
		res.Faults = map[string]int{}
	}
	res.Trace = &schedtrace.Trace{Header: hdr}
	var acked uint64 // high-water mark of acknowledged appends
	leaderAt := 0    // serving directory index as of the last report

	fail := func(round int, st *workerState, format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("round %d: %s", round, fmt.Sprintf(format, args...)))
		res.Transcripts = append(res.Transcripts,
			fmt.Sprintf("round %d:\n  %s", round, strings.Join(st.lines, "\n  ")))
	}

	for round := 0; round < cfg.Rounds && len(res.Failures) == 0; round++ {
		wc := base
		wc.Seed = proc.SplitSeed(cfg.Seed, round+1)
		var plan faultPlan
		note := "" // the fault plan, appended to failure messages
		if repl {
			plan = drawFault(rng, base.Replicas, base.Appends)
			note = fmt.Sprintf(" (fault %s@r%d)", plan.kind, plan.dir)
			res.Faults[plan.kind.String()]++
			if plan.dir == leaderAt {
				res.LeaderFaults++
			}
			switch plan.kind {
			case FaultWipe:
				if err := os.RemoveAll(dirs[plan.dir]); err != nil {
					return res, fmt.Errorf("harness: wipe %s: %w", dirs[plan.dir], err)
				}
			case FaultCorrupt:
				if err := corruptReplicaDir(dirs[plan.dir], vclock.NewRand(cfg.Seed, 1<<20|round)); err != nil {
					return res, fmt.Errorf("harness: corrupt %s: %w", dirs[plan.dir], err)
				}
			case FaultDisk:
				wc.FaultDir, wc.FaultAfter, wc.FaultFor = plan.dir, plan.after, plan.span
			}
		}
		delay := rng.Duration(cfg.MaxKillDelay) + time.Millisecond
		clk.Advance(delay)
		st, killed, err := runWorker(cfg.Worker(wc), delay)
		if err != nil {
			return res, err
		}

		kr := st.KillRound
		kr.Round, kr.Killed, kr.Fault, kr.FaultDir = round, killed, plan.kind, plan.dir
		res.Rounds = append(res.Rounds, kr)
		tr := schedtrace.Round{
			Round: round, DelayUS: delay.Microseconds(),
			VTimeUS: clk.Elapsed().Microseconds(),
			Killed:  killed, Phase: kr.Phase, Exit: kr.ExitCode,
			Recovered: kr.RecoveredLen, Acked: kr.AckedLen,
		}
		if repl {
			tr.Seed, tr.Fault, tr.FaultDir = wc.Seed, plan.kind.String(), plan.dir
			tr.FaultAfter, tr.FaultFor = plan.after, plan.span
		}
		res.Trace.Rounds = append(res.Trace.Rounds, tr)
		res.TornWrites += kr.Torn
		res.RepairedWrites += kr.Repaired

		if killed {
			res.Kills++
			phase := kr.Phase
			if phase == "" {
				phase = "idle" // killed before any transition (startup/recovery)
			}
			res.Phases.Record(phase)
		} else {
			res.CleanExits++
			// A clean exit must be a success. Over a replica set with one
			// fault per round a majority is intact, so KillWorkerDegraded
			// here means the set went sticky read-only while healthy
			// replicas existed — the outcome promotion exists to prevent.
			if kr.ExitCode != KillWorkerOK || !st.done {
				fail(round, st, "worker failed (exit %d)%s: %s", kr.ExitCode, note, st.failure())
				continue
			}
		}
		if st.recovered {
			if kr.RecoveredLen < acked {
				fail(round, st, "acknowledged append lost: recovered len %d < acked %d%s", kr.RecoveredLen, acked, note)
				continue
			}
			if kr.RecoveredCtr > kr.RecoveredLen {
				fail(round, st, "counter %d ahead of log %d", kr.RecoveredCtr, kr.RecoveredLen)
				continue
			}
			if st.blackbox {
				// Cross-check the flight-recorder story against the
				// recovered state (see RunKillWorker's protocol doc).
				if msg := blackboxViolation(kr); msg != "" {
					fail(round, st, "%s", msg)
					continue
				}
				res.BlackBoxChecks++
				res.BlackBoxTorn += kr.BBTorn
			} else if !killed && !repl {
				fail(round, st, "clean exit without blackbox report")
				continue
			}
			acked = max(acked, kr.RecoveredLen)
		} else if !killed {
			fail(round, st, "clean exit without recovery report")
			continue
		}
		if st.set {
			res.Promotions += kr.Promos
			res.Heals += kr.Heals
			leaderAt = kr.Leader
		}
		acked = max(acked, kr.AckedLen)
	}

	// Final verify incarnation: no kill, no fault. Whatever the campaign
	// left on disk must recover to the acknowledged history.
	if len(res.Failures) == 0 {
		wc := base
		wc.Seed, wc.Verify = proc.SplitSeed(cfg.Seed, 0), true
		st, _, err := runWorker(cfg.Worker(wc), 0)
		if err != nil {
			return res, err
		}
		res.FinalLen, res.FinalEpoch = st.RecoveredLen, st.Epoch
		switch {
		case st.ExitCode != KillWorkerOK:
			fail(cfg.Rounds, st, "final verify failed (exit %d): %s", st.ExitCode, st.failure())
		case !st.recovered:
			fail(cfg.Rounds, st, "final verify printed no recovery report")
		case st.RecoveredLen < acked:
			fail(cfg.Rounds, st, "final state lost acknowledged appends: len %d < acked %d", st.RecoveredLen, acked)
		}
	}
	return res, nil
}

// blackboxViolation holds a plain-store round's flight-recorder report
// against its recovered state and describes the first inconsistency
// ("" if none).
func blackboxViolation(kr KillRound) string {
	switch {
	case kr.BBMaxEnded > kr.RecoveredLen:
		return fmt.Sprintf("blackbox end %d past recovered len %d", kr.BBMaxEnded, kr.RecoveredLen)
	case kr.BBTorn == 0 && kr.BBRecords > 0 && kr.RecoveredLen > kr.BBMaxBegun:
		return fmt.Sprintf("blackbox max begun %d behind recovered len %d", kr.BBMaxBegun, kr.RecoveredLen)
	case kr.BBTorn == 0 && kr.BBInFlight > 1:
		return fmt.Sprintf("blackbox reports %d in-flight appends from one process", kr.BBInFlight)
	}
	return ""
}

// corruptReplicaDir flips a burst of random bytes in every file of one
// replica directory (seeded). Missing or empty directories are a no-op;
// subdirectories are left alone.
func corruptReplicaDir(dir string, rng *vclock.Rand) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			continue
		}
		// A handful of single-bit and whole-byte flips per file, so
		// damage lands in headers, records and checksums alike.
		flips := 1 + rng.Intn(8)
		for i := 0; i < flips; i++ {
			off := rng.Intn(len(b))
			if rng.Intn(2) == 0 {
				b[off] ^= 1 << uint(rng.Intn(8))
			} else {
				b[off] ^= 0xff
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
