package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nrl/internal/vclock"
)

// feed writes each chunk to a fresh parser as one Write call.
func feed(t *testing.T, chunks ...string) *workerState {
	t.Helper()
	st := &workerState{}
	for _, c := range chunks {
		if n, err := st.Write([]byte(c)); err != nil || n != len(c) {
			t.Fatalf("Write(%q) = %d, %v", c, n, err)
		}
	}
	return st
}

// TestWorkerStateSplitLine: a line arriving in two Writes is parsed
// once, whole.
func TestWorkerStateSplitLine(t *testing.T) {
	st := feed(t, "recovered len=7 ctr=6 to", "rn=1 repaired=2\nlen 8\n")
	if !st.recovered || st.RecoveredLen != 7 || st.RecoveredCtr != 6 || st.Torn != 1 || st.Repaired != 2 {
		t.Fatalf("recovered fields = %+v", st.KillRound)
	}
	if st.AckedLen != 8 {
		t.Fatalf("AckedLen = %d, want 8", st.AckedLen)
	}
	if len(st.lines) != 2 {
		t.Fatalf("lines = %q, want 2", st.lines)
	}
}

// TestWorkerStateTrailingFragment: the partial line a SIGKILL leaves
// behind is never parsed — neither as an ack nor as a failure message.
func TestWorkerStateTrailingFragment(t *testing.T) {
	st := feed(t, "len 3\n", "len 4")
	if st.AckedLen != 3 {
		t.Fatalf("AckedLen = %d, want 3 (fragment parsed)", st.AckedLen)
	}
	st = feed(t, "phase dirty\nbad log[0]=9 wa")
	if st.failMsg != "" || st.Phase != "dirty" {
		t.Fatalf("failMsg %q, phase %q: fragment parsed", st.failMsg, st.Phase)
	}
}

// TestWorkerStateSetLine: the replica set line fills the set fields,
// the last one winning.
func TestWorkerStateSetLine(t *testing.T) {
	st := feed(t,
		"set leader=0 epoch=1 promos=0 heals=0\n",
		"set leader=2 epoch=3 promos=1 heals=4\n")
	if !st.set || st.Leader != 2 || st.Epoch != 3 || st.Promos != 1 || st.Heals != 4 {
		t.Fatalf("set fields = %+v (seen %v)", st.KillRound, st.set)
	}
	if st.blackbox || st.recovered || st.failMsg != "" {
		t.Fatalf("set line touched other state: %+v", st)
	}
}

// TestWorkerStateFailMessage: the first unrecognised line is the
// failure message; later ones do not overwrite it.
func TestWorkerStateFailMessage(t *testing.T) {
	st := feed(t, "phase idle\ncorrupt store: bad crc\nbad open: later\ndone\n")
	if st.failMsg != "corrupt store: bad crc" {
		t.Fatalf("failMsg = %q", st.failMsg)
	}
	if !st.done {
		t.Fatal("done line not seen")
	}
	st.stderr.WriteString("panic: boom\n")
	if got, want := st.failure(), "corrupt store: bad crc\npanic: boom"; got != want {
		t.Fatalf("failure() = %q, want %q", got, want)
	}
}

// corruptFixture lays out a directory with two files and a
// subdirectory holding a third.
func corruptFixture(t *testing.T) (dir string, files map[string][]byte) {
	t.Helper()
	dir = t.TempDir()
	files = map[string][]byte{
		"wal-000001":                        bytes.Repeat([]byte{0xa5}, 512),
		"MANIFEST":                          bytes.Repeat([]byte{0x3c}, 64),
		filepath.Join("sub", "untouchable"): bytes.Repeat([]byte{0x11}, 128),
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, files
}

func readAll(t *testing.T, dir string, files map[string][]byte) map[string][]byte {
	t.Helper()
	got := map[string][]byte{}
	for name := range files {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
	}
	return got
}

// TestCorruptReplicaDirDeterministic: the same seed gives byte-identical
// damage; every top-level file is damaged and subdirectories are not.
func TestCorruptReplicaDirDeterministic(t *testing.T) {
	dirA, files := corruptFixture(t)
	dirB, _ := corruptFixture(t)
	for _, d := range []string{dirA, dirB} {
		if err := corruptReplicaDir(d, vclock.NewRand(5, 1<<20|3)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := readAll(t, dirA, files), readAll(t, dirB, files)
	for name, orig := range files {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: same seed, different damage", name)
		}
		damaged := !bytes.Equal(a[name], orig)
		if top := filepath.Dir(name) == "."; damaged != top {
			t.Errorf("%s: damaged=%v, want %v", name, damaged, top)
		}
	}
}

// TestCorruptReplicaDirMissing: a wiped (absent) directory is a no-op,
// not an error.
func TestCorruptReplicaDirMissing(t *testing.T) {
	if err := corruptReplicaDir(filepath.Join(t.TempDir(), "gone"), vclock.NewRand(1, 0)); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
}

// TestKillWorkerArgsRoundTrip: Args and ParseKillWorkerArgs are
// inverses, and a bare -dir decodes to the documented defaults.
func TestKillWorkerArgsRoundTrip(t *testing.T) {
	want := KillWorkerConfig{
		Dir: "set root", Replicas: 3, Appends: 9, Capacity: 128,
		FaultDir: 2, FaultAfter: 4, FaultFor: 1, Seed: -77, Verify: true,
	}
	got, err := ParseKillWorkerArgs(want.Args())
	if err != nil || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, want)
	}
	got, err = ParseKillWorkerArgs([]string{"-dir", "d"})
	if def := (KillWorkerConfig{Dir: "d", Appends: 20, Capacity: 1 << 16, FaultDir: -1}); err != nil || got != def {
		t.Fatalf("defaults = %+v, %v; want %+v", got, err, def)
	}
	for _, bad := range [][]string{nil, {"-dir", "d", "extra"}, {"-dir", "d", "-replicas", "-1"}, {"-bogus"}} {
		if _, err := ParseKillWorkerArgs(bad); err == nil {
			t.Errorf("ParseKillWorkerArgs(%q) accepted", bad)
		}
	}
}
