// Command arpview renders the Amulet Resource Profiler panel (the paper's
// Fig 3) for a chosen detector version: memory bars against the hardware
// budgets, the energy profile, and the battery-life slider.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "arpview:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process status: 0 on success or -h,
// 2 for a usage error, as the flag package exits, and 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// usageError is a command line that cannot be parsed; main exits 2 for
// it, as the flag package does.
type usageError struct{ error }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arpview", flag.ContinueOnError)
	versionName := fs.String("version", "Original", "detector version (Original|Simplified|Reduced)")
	disasm := fs.Bool("disasm", false, "also print the detector firmware disassembly")
	seed := fs.Int64("seed", 42, "signal seed for the measurement run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	version, err := features.ParseVersion(*versionName)
	if err != nil {
		return err
	}

	// Measure cycles and SRAM on a few real windows, at several window
	// lengths so the slider reflects the fixed-vs-per-sample cost split.
	rec, err := physio.Generate(physio.DefaultSubject(), 15, physio.DefaultSampleRate, *seed)
	if err != nil {
		return err
	}
	cyclesAt, err := experiments.CycleModel(rec, version)
	if err != nil {
		return err
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		return err
	}
	dim := version.Dim()
	dev, err := program.NewDeviceDetector(version, nil, svm.UnitModel(dim))
	if err != nil {
		return err
	}
	for _, w := range wins {
		if _, err := dev.Classify(w); err != nil {
			return err
		}
	}

	prof, err := arp.ProfileDetector(dev.Program(), dev.PeakUsage, dev.AvgCyclesPerWindow(),
		dataset.WindowSec, 4*(1+3*dim), version != features.Reduced)
	if err != nil {
		return err
	}
	rep, err := arp.BuildReport(prof, arp.DefaultMemoryModel(), arp.DefaultEnergyModel(), amulet.DefaultSystemSRAM)
	if err != nil {
		return err
	}
	fmt.Fprint(out, arp.RenderView(rep, arp.DefaultEnergyModel(), dev.AvgCyclesPerWindow(), cyclesAt))
	fmt.Fprintf(out, "\nfirmware: %d VM bytes (%d B modeled flash), %.0f cycles/window (%.1f ms at 16 MHz)\n",
		dev.Program().CodeSize(), dev.Program().FootprintBytes(),
		dev.AvgCyclesPerWindow(), 1000*dev.AvgCyclesPerWindow()/amulet.ClockHz)

	if *disasm {
		fmt.Fprintln(out, "\ndisassembly:")
		for _, line := range dev.Program().Disassemble() {
			fmt.Fprintln(out, "  "+line)
		}
	}
	return nil
}
