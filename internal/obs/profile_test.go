package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// The stop function writes both profiles once; the CLIs call it both on the
// normal path and before an os.Exit, so a second call must do nothing.
func TestStartProfilesStopsOnce(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", path, err)
		}
	}
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Errorf("second stop rewrote the heap profile (%v)", err)
	}
}
