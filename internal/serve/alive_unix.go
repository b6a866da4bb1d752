//go:build unix

package serve

import (
	"errors"
	"syscall"
)

// processAlive reports whether a process with this pid exists. Signal 0
// probes without delivering anything; only ESRCH proves the process gone
// (EPERM means it exists under another user).
func processAlive(pid int) bool {
	return !errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}
