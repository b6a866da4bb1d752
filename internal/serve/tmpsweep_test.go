package serve

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Temp files carry their writer's pid, and the open-time sweep removes only
// those whose writer is gone: a dead process's leftover and an untagged one
// go, while this process's and another live process's in-flight writes stay.
func TestOpenSweepsOnlyDeadWritersTemps(t *testing.T) {
	f, err := createTemp(t.TempDir(), "x.entry")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if pid, ok := tempOwner(filepath.Base(f.Name())); !ok || pid != os.Getpid() {
		t.Fatalf("temp %s names owner %d (%v), want %d", f.Name(), pid, ok, os.Getpid())
	}
	if !strings.HasSuffix(f.Name(), cacheTmpSuffix) {
		t.Fatalf("temp %s lacks the %s suffix", f.Name(), cacheTmpSuffix)
	}

	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatalf("run a short-lived child: %v", err)
	}
	dead := child.Process.Pid

	dir := t.TempDir()
	tagged := func(pid int) string { return "feed.entry.pid" + strconv.Itoa(pid) + ".42.tmp" }
	files := map[string]bool{ // name -> survives the sweep
		tagged(dead):         false,
		"feed.entry.123.tmp": false, // untagged: no writer to wait for
		tagged(os.Getpid()):  true,
		tagged(os.Getppid()): true,
	}
	for name := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	for name, survives := range files {
		_, err := os.Stat(filepath.Join(dir, name))
		if got := err == nil; got != survives {
			t.Errorf("%s: survived=%v, want %v", name, got, survives)
		}
	}
}
