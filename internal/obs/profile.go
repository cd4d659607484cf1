package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
)

// cpuProfile tracks the file backing a running CPU profile so Stop can
// close it. pprof allows only one CPU profile at a time process-wide;
// the mutex makes our wrapper honest about that.
var cpuProfile struct {
	mu sync.Mutex
	f  *os.File
}

// StartCPUProfile begins a CPU profile written to path, creating or
// truncating the file. It fails if a profile started through this
// package (or anywhere else in the process) is already running.
func StartCPUProfile(path string) error {
	cpuProfile.mu.Lock()
	defer cpuProfile.mu.Unlock()
	if cpuProfile.f != nil {
		return fmt.Errorf("obs: CPU profile already running (%s)", cpuProfile.f.Name())
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return fmt.Errorf("obs: start CPU profile: %w", err)
	}
	cpuProfile.f = f
	return nil
}

// StopCPUProfile flushes and closes the profile started by
// StartCPUProfile. Calling it with no profile running is a no-op.
func StopCPUProfile() error {
	cpuProfile.mu.Lock()
	defer cpuProfile.mu.Unlock()
	if cpuProfile.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := cpuProfile.f.Close()
	cpuProfile.f = nil
	if err != nil {
		return fmt.Errorf("obs: close CPU profile: %w", err)
	}
	return nil
}
