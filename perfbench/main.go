// Command perfbench is the repository's end-to-end benchmark: seeded,
// closed-loop workloads of recoverable Counter, Queue and Stack ops on
// simulated buffered NVRAM — in memory, under process crashes, over a
// file store and over a replicated store — with every run's outputs
// checked for exactly-once effects. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports. The end-to-end tail,
// op_p99_us, is among them: on the store-backed workloads it follows
// the host's fsync tail, which moves by more than any bound a
// regression gate could allow.
var perLayer = func() []metricDef {
	ds := []metricDef{{"op_p99_us", "us"}}
	for _, k := range kindNames {
		ds = append(ds, metricDef{"objects." + k + ".p50_us", "us"}, metricDef{"objects." + k + ".p99_us", "us"})
	}
	return append(ds,
		metricDef{"proc.steps_per_op", "count/op"},
		metricDef{"proc.ns_per_step", "ns"},
		metricDef{"proc.crashes_per_op", "count/op"},
		metricDef{"proc.crashed_op_p50_us", "us"},
		metricDef{"proc.crashed_op_p99_us", "us"},
		metricDef{"nvm.prims_per_op", "count/op"},
		metricDef{"nvm.flushes_per_op", "count/op"},
		metricDef{"nvm.fences_per_op", "count/op"},
		metricDef{"nvm.fence_words_per_op", "count/op"},
		metricDef{"nvm.shard_contention_per_kop", "count/kop"},
		metricDef{"backend.commits_per_op", "count/op"},
		metricDef{"backend.words_per_commit", "count"},
		metricDef{"backend.commit_p50_us", "us"},
		metricDef{"backend.commit_p99_us", "us"},
		metricDef{"backend.busy_share", "share"},
		metricDef{"backend.inflight_mean", "count"},
		metricDef{"persist.wal_fsyncs_per_op", "count/op"},
		metricDef{"persist.data_pwrites_per_op", "count/op"},
		metricDef{"persist.data_fsyncs_per_op", "count/op"},
		metricDef{"persist.checkpoints_per_kop", "count/kop"},
		metricDef{"persist.io_retries", "count"},
		metricDef{"replica.member_wal_fsyncs_per_commit", "count"},
		metricDef{"replica.epoch_changes", "count"},
		metricDef{"trace.op_self_us_per_op", "us"},
		metricDef{"trace.commit_us_per_op", "us"},
		metricDef{"trace.commit_share", "share"},
		metricDef{"trace.overhead_frac", "share"},
		metricDef{"trace.spans", "count"},
		metricDef{"ops_failed_frac", "share"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp describes where a run was measured.
type envStamp struct {
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	Procs          int    `json:"procs"`
	Nproc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Oversubscribed bool   `json:"procs_exceed_cpus"`
	GoVersion      string `json:"go"`
	StoreFS        string `json:"store_fs"`
	FlushPolicy    string `json:"flush_policy"`
}

func stamp(cfg config) envStamp {
	policy := "none: buffered NVRAM, fences stay in memory"
	switch cfg.w.store {
	case storeFile:
		policy = "one WAL append+fsync per fence, default persist.Options"
	case storeReplica:
		policy = fmt.Sprintf("one WAL append+fsync per fence on a quorum of %d members, default persist.Options", replicaMembers)
	}
	return envStamp{
		Workload: cfg.w.name, Seed: cfg.seed, Procs: procs,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Oversubscribed: procs > runtime.NumCPU(),
		GoVersion:      runtime.Version(), StoreFS: fsName(cfg.tmp), FlushPolicy: policy,
	}
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mem-mix, crash-mix, durable-mix or replicated-mix")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds, summed over epochs")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		tmp     = flag.String("tmp", "", "temp root for store directories (default: a new directory under the OS temp dir)")
		spans   = flag.String("spans", "", "traced runs: write the last traced epoch's spans here as JSON lines")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if err := withTempRoot(*tmp, &cfg, func() error { return report(os.Stdout, cfg) }); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// withTempRoot runs fn with cfg.tmp set to a fresh directory under
// parent, removed afterwards whether fn fails or not.
func withTempRoot(parent string, cfg *config, fn func() error) error {
	dir, err := os.MkdirTemp(parent, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.tmp = dir
	return fn()
}

// report runs cfg and prints the environment stamp, one line per epoch,
// one per metric, and the result as the last line.
func report(out io.Writer, cfg config) error {
	st := stamp(cfg)
	sj, _ := json.Marshal(st)
	fmt.Fprintf(out, "# env %s\n", sj)
	res, epochs, err := run(cfg)
	if err != nil {
		return err
	}
	for i, e := range epochs {
		fmt.Fprintf(out, "# epoch %d traced=%t setup=%.4fs wall=%.3fs ops=%d ops/s=%.0f p50=%.2fus p99=%.2fus failed=%d\n",
			i, e.traced, e.setup.Seconds(), e.wall.Seconds(), e.ops, float64(e.ops)/e.wall.Seconds(), e.p50, e.p99, e.failed)
		for _, p := range e.problems {
			fmt.Fprintf(out, "#   problem: %s\n", p)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(out, "# %-40s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if st.Oversubscribed {
		fmt.Fprintf(out, "# note: %d procs on %d CPUs, so these figures do not show scaling\n", procs, st.Nproc)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rj)
	return nil
}

// run executes epochs until cfg.seconds of measured time have passed
// (and at least minEpochs), then reduces them to the run's metrics.
func run(cfg config) (result, []epochResult, error) {
	r := newRunner(cfg)
	pool := &latPool{perLayer: cfg.trace}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	var epochs []epochResult
	var measured time.Duration
	for e := 0; ; e++ {
		res, err := r.epoch(e, cfg.trace && e%2 == 1, pool)
		if err != nil {
			return result{}, epochs, fmt.Errorf("epoch %d: %w", e, err)
		}
		epochs = append(epochs, res)
		measured += res.wall
		if e+1 >= minEpochs && measured >= budget {
			break
		}
		// A slow host still finishes well inside the run's time limit.
		if e+1 >= 2 && time.Since(began) > 2*budget+60*time.Second {
			break
		}
	}
	if cfg.spans != "" && r.lastTrace != nil {
		if err := r.lastTrace.write(cfg.spans); err != nil {
			return result{}, epochs, fmt.Errorf("write spans: %w", err)
		}
	}
	return reduce(cfg, epochs, pool), epochs, nil
}

// reduce turns a run's epochs into its result. End-to-end figures are
// medians over the untraced epochs (set-up over all of them), except
// latency percentiles, taken over the pooled latencies; per-layer
// figures are totals over the untraced epochs, and span figures come
// from the traced ones.
func reduce(cfg config, epochs []epochResult, pool *latPool) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var setup, opsPerS, tracedOpsPerS, heap []float64
	var u epochResult // untraced totals
	var sp spanSummary
	var commitLat []uint32
	for _, e := range epochs {
		res.Attempted += e.attempted
		res.Failed += e.failed
		if e.failed > 0 || len(e.problems) > 0 {
			res.Correct = false
		}
		setup = append(setup, e.setup.Seconds())
		if e.traced {
			tracedOpsPerS = append(tracedOpsPerS, float64(e.ops)/e.wall.Seconds())
			sp.spans += e.spans.spans
			sp.ops += e.spans.ops
			sp.opNs += e.spans.opNs
			sp.commitNs += e.spans.commitNs
			continue
		}
		opsPerS = append(opsPerS, float64(e.ops)/e.wall.Seconds())
		heap = append(heap, e.heapMB)
		u.wall += e.wall
		u.ops += e.ops
		u.latNs += e.latNs
		u.steps += e.steps
		u.crashes += e.crashes
		u.mem = addStats(u.mem, e.mem)
		u.meter.commits += e.meter.commits
		u.meter.words += e.meter.words
		u.meter.inflightSum += e.meter.inflightSum
		u.meter.busy += e.meter.busy
		commitLat = append(commitLat, e.meter.lat...)
		u.io.walFsyncs += e.io.walFsyncs
		u.io.dataPwrites += e.io.dataPwrites
		u.io.dataFsyncs += e.io.dataFsyncs
		u.retries += e.retries
		u.epochChanges += e.epochChanges
	}
	if res.Attempted == 0 {
		res.Correct = false
	}
	units := map[string]string{}
	for _, d := range append(endToEnd, perLayer...) {
		units[d.name] = d.unit
	}
	set := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("perfbench: undefined metric " + name)
		}
		res.Metrics[name] = metric{Value: v, Unit: u}
	}
	if !cfg.trace {
		set("setup_s", median(setup))
		set("ops_per_s", median(opsPerS))
		set("op_p50_us", quantileUs(pool.all, 0.50))
		set("heap_mb", median(heap))
		return res
	}
	set("op_p99_us", quantileUs(pool.all, 0.99))
	ops := float64(u.ops)
	for k, name := range kindNames {
		set("objects."+name+".p50_us", quantileUs(pool.kind[k], 0.50))
		set("objects."+name+".p99_us", quantileUs(pool.kind[k], 0.99))
	}
	set("proc.steps_per_op", ratio(float64(u.steps), ops))
	set("proc.ns_per_step", ratio(float64(u.latNs), float64(u.steps)))
	set("proc.crashes_per_op", ratio(float64(u.crashes), ops))
	set("proc.crashed_op_p50_us", quantileUs(pool.crashed, 0.50))
	set("proc.crashed_op_p99_us", quantileUs(pool.crashed, 0.99))
	set("nvm.prims_per_op", ratio(float64(u.mem.Total()), ops))
	set("nvm.flushes_per_op", ratio(float64(u.mem.Flushes), ops))
	set("nvm.fences_per_op", ratio(float64(u.mem.Fences), ops))
	set("nvm.fence_words_per_op", ratio(float64(u.mem.FenceWords), ops))
	set("nvm.shard_contention_per_kop", 1000*ratio(float64(u.mem.ShardContention), ops))
	commits := float64(u.meter.commits)
	set("backend.commits_per_op", ratio(commits, ops))
	set("backend.words_per_commit", ratio(float64(u.meter.words), commits))
	set("backend.commit_p50_us", quantileUs(commitLat, 0.50))
	set("backend.commit_p99_us", quantileUs(commitLat, 0.99))
	set("backend.busy_share", ratio(u.meter.busy.Seconds(), u.wall.Seconds()))
	set("backend.inflight_mean", ratio(float64(u.meter.inflightSum), commits))
	set("persist.wal_fsyncs_per_op", ratio(float64(u.io.walFsyncs), ops))
	set("persist.data_pwrites_per_op", ratio(float64(u.io.dataPwrites), ops))
	set("persist.data_fsyncs_per_op", ratio(float64(u.io.dataFsyncs), ops))
	// Every checkpoint opens with exactly one data-file fsync, and
	// nothing else fsyncs the data file after Open.
	set("persist.checkpoints_per_kop", 1000*ratio(float64(u.io.dataFsyncs), ops))
	set("persist.io_retries", float64(u.retries))
	memberFsyncs := 0.0
	if cfg.w.store == storeReplica {
		memberFsyncs = ratio(float64(u.io.walFsyncs), commits)
	}
	set("replica.member_wal_fsyncs_per_commit", memberFsyncs)
	set("replica.epoch_changes", float64(u.epochChanges))
	set("trace.op_self_us_per_op", ratio(float64(sp.opNs-sp.commitNs)/1e3, float64(sp.ops)))
	set("trace.commit_us_per_op", ratio(float64(sp.commitNs)/1e3, float64(sp.ops)))
	set("trace.commit_share", ratio(float64(sp.commitNs), float64(sp.opNs)))
	set("trace.overhead_frac", 1-ratio(median(tracedOpsPerS), median(opsPerS)))
	set("trace.spans", float64(sp.spans))
	set("ops_failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))
	return res
}
