package amulet

import (
	"errors"
	"fmt"
)

// Hardware constants of the Amulet prototype's application processor
// (TI MSP430FR5989) and battery, from the paper.
const (
	// FRAMBytes is the non-volatile memory capacity (128 KB).
	FRAMBytes = 128 * 1024
	// SRAMBytes is the RAM capacity (2 KB).
	SRAMBytes = 2 * 1024
	// ClockHz is the MCU clock (16 MHz).
	ClockHz = 16_000_000.0
	// BatterymAh is the wearable's battery capacity (110 mAh).
	BatterymAh = 110.0
)

// Device is an emulated Amulet: hardware budgets plus the set of installed
// app firmware images. Apps are flashed (installed) at build time, exactly
// as the Amulet Firmware Toolchain merges QM apps into one image.
type Device struct {
	framCapacity int
	sramCapacity int
	clockHz      float64

	systemFRAM int // OS + library + buffer footprint (modeled by arp)
	systemSRAM int // OS SRAM footprint

	programs map[string]*Program
	compiled map[string]Compiled
	order    []string

	interpOnly bool
}

// Option configures a Device.
type Option func(*Device)

// WithInterpreter pins this device to the bytecode interpreter, ignoring
// any registered compiler. Benchmark baselines and differential oracles
// use it so the process-wide JIT switch cannot change what they measure.
func WithInterpreter() Option {
	return func(d *Device) { d.interpOnly = true }
}

// Default system footprints: the paper's ARP-view snapshot reports roughly
// 70–77 KB of system FRAM and ~695 B of system SRAM depending on the
// linked libraries; these defaults are the library-independent base. The
// arp package adds the per-version library and buffer contributions.
const (
	DefaultSystemFRAM = 41_400
	DefaultSystemSRAM = 694
)

// NewDevice creates an Amulet with the paper's hardware budgets.
func NewDevice(opts ...Option) *Device {
	d := &Device{
		framCapacity: FRAMBytes,
		sramCapacity: SRAMBytes,
		clockHz:      ClockHz,
		systemFRAM:   DefaultSystemFRAM,
		systemSRAM:   DefaultSystemSRAM,
		programs:     make(map[string]*Program),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Install flashes a program onto the device, verifying the combined image
// still fits FRAM. Installing a program with an existing name replaces it
// (re-flashing).
func (d *Device) Install(p *Program) error {
	if p == nil {
		return errors.New("amulet: cannot install nil program")
	}
	if p.Name == "" {
		return errors.New("amulet: program needs a name")
	}
	extra := p.CodeSize() + 4*p.DataWords
	total := d.systemFRAM + extra
	for name, q := range d.programs {
		if name == p.Name {
			continue
		}
		total += q.CodeSize() + 4*q.DataWords
	}
	if total > d.framCapacity {
		return fmt.Errorf("amulet: installing %q needs %d B FRAM, capacity %d B", p.Name, total, d.framCapacity)
	}
	if _, exists := d.programs[p.Name]; !exists {
		d.order = append(d.order, p.Name)
	}
	d.programs[p.Name] = p
	delete(d.compiled, p.Name)
	if compileHook != nil && !d.interpOnly {
		// Compile errors are not install errors: the compiler rejects
		// anything the static verifier cannot prove, and the interpreter
		// handles those programs exactly as before.
		if c, err := compileHook(p); err == nil && c != nil {
			if d.compiled == nil {
				d.compiled = make(map[string]Compiled)
			}
			d.compiled[p.Name] = c
		}
	}
	return nil
}

// HasCompiled reports whether a compiled backend is installed for the
// named program.
func (d *Device) HasCompiled(name string) bool {
	_, ok := d.compiled[name]
	return ok
}

// Programs lists installed programs in installation order.
func (d *Device) Programs() []*Program {
	out := make([]*Program, 0, len(d.order))
	for _, name := range d.order {
		out = append(out, d.programs[name])
	}
	return out
}

// Lookup returns an installed program by name.
func (d *Device) Lookup(name string) (*Program, bool) {
	p, ok := d.programs[name]
	return p, ok
}

// RunResult is one app invocation's outcome.
type RunResult struct {
	Usage   Usage
	Seconds float64 // wall-clock MCU time at the device clock
}

// Run executes an installed program against data with the cycle budget,
// checking the resulting SRAM footprint against the hardware budget (the
// OS and the app share the 2 KB).
func (d *Device) Run(name string, data []int32, maxCycles uint64) (RunResult, error) {
	return d.RunTraced(name, data, maxCycles, 0)
}

// RunTraced is Run with an explicit trace parent for the VM span; see
// VM.RunTraced. A zero parent behaves exactly like Run.
func (d *Device) RunTraced(name string, data []int32, maxCycles uint64, traceParent uint64) (RunResult, error) {
	p, ok := d.programs[name]
	if !ok {
		return RunResult{}, fmt.Errorf("amulet: no program %q installed", name)
	}
	var u Usage
	if c := d.compiled[name]; c != nil && JITEnabled() {
		var err error
		if u, err = c.Run(data, maxCycles, traceParent); err != nil {
			return RunResult{}, fmt.Errorf("amulet: run %q: %w", name, err)
		}
	} else {
		vm, err := NewVM(p, data)
		if err != nil {
			return RunResult{}, err
		}
		if err := vm.RunTraced(maxCycles, traceParent); err != nil {
			return RunResult{}, fmt.Errorf("amulet: run %q: %w", name, err)
		}
		u = vm.Usage()
	}
	if used := d.systemSRAM + u.SRAMBytes(); used > d.sramCapacity {
		return RunResult{}, fmt.Errorf("amulet: %q peaked at %d B SRAM (system %d + app %d), capacity %d",
			name, used, d.systemSRAM, u.SRAMBytes(), d.sramCapacity)
	}
	return RunResult{Usage: u, Seconds: float64(u.Cycles) / d.clockHz}, nil
}
