package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile when cpu names a file and returns the
// function that ends it and writes the heap profile to mem (if named); calls
// after the first do nothing. Both are runtime/pprof profiles for
// `go tool pprof`; the CLIs expose them as -cpuprofile and -memprofile.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // up-to-date statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
