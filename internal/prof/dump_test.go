package prof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOnDumpCancelAndOrder(t *testing.T) {
	var got []string
	c1 := OnDump("first", func(reason string) { got = append(got, "first:"+reason) })
	c2 := OnDump("second", func(reason string) { got = append(got, "second:"+reason) })
	defer c2()
	c1()
	c1() // cancel is idempotent
	DumpAll("why")
	if len(got) != 1 || got[0] != "second:why" {
		t.Fatalf("dumps ran %v, want only second:why", got)
	}
}

func TestDumpAllContainsPanics(t *testing.T) {
	ran := false
	c1 := OnDump("boom", func(string) { panic("boom") })
	c2 := OnDump("after", func(string) { ran = true })
	defer c1()
	defer c2()
	DumpAll("x") // must not propagate the panic
	if !ran {
		t.Fatal("a panicking dump prevented later dumps from running")
	}
}
func TestStartStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // second call must be a no-op, not a double-flush
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartRejectsBadPath(t *testing.T) {
	_, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), "")
	if err == nil || !strings.Contains(err.Error(), "cpu") {
		t.Fatalf("Start with unwritable cpu path: err = %v", err)
	}
}
