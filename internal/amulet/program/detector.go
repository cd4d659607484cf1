package program

import (
	"errors"
	"fmt"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/svm"
)

// DeviceDetector runs a flashed detector version on an emulated Amulet,
// one window per invocation — the "Amulet" rows of Table II. It also
// accumulates the resource telemetry Table III's energy model consumes.
type DeviceDetector struct {
	Version features.Version
	Device  *amulet.Device
	Model   *svm.Quantized

	prog *amulet.Program

	// Telemetry across all classifications.
	Windows     int
	TotalCycles uint64
	PeakUsage   amulet.Usage

	// Optional live observability hooks. When set, Classify streams each
	// window's cycles, SRAM watermark, and modeled energy into the device
	// series (Telemetry), bills the window against the energy model
	// (Energy), and links the VM's trace span under TraceParent.
	Telemetry   *telemetry.Device
	Energy      *arp.Accounting
	TraceParent uint64
}

// NewDeviceDetector assembles and flashes the version's program onto the
// device (creating a default device when dev is nil).
func NewDeviceDetector(v features.Version, dev *amulet.Device, model *svm.Quantized) (*DeviceDetector, error) {
	if model == nil {
		return nil, errors.New("program: device detector needs a quantized model")
	}
	if len(model.Weights) != v.Dim() {
		return nil, fmt.Errorf("program: model dim %d does not match %v", len(model.Weights), v)
	}
	if dev == nil {
		dev = amulet.NewDevice()
	}
	p, err := Build(v)
	if err != nil {
		return nil, err
	}
	if err := dev.Install(p); err != nil {
		return nil, fmt.Errorf("program: flash %v detector: %w", v, err)
	}
	return &DeviceDetector{Version: v, Device: dev, Model: model, prog: p}, nil
}

// Program returns the flashed firmware image.
func (d *DeviceDetector) Program() *amulet.Program { return d.prog }

// Classify marshals the window into a pooled data segment, runs the
// detector app, and decodes the verdict.
func (d *DeviceDetector) Classify(w dataset.Window) (Output, error) {
	seg := segments.Get().(*[]int32)
	defer segments.Put(seg)
	data := *seg
	if err := InputInto(d.Version, w, d.Model, data); err != nil {
		return Output{}, err
	}
	res, err := d.Device.RunTraced(d.prog.Name, data, MaxCycles, d.TraceParent)
	if err != nil {
		return Output{}, err
	}
	d.Windows++
	d.TotalCycles += res.Usage.Cycles
	var energyMicroJ float64
	if d.Energy != nil {
		energyMicroJ = d.Energy.AccountWindow(res.Usage.Cycles)
	}
	if d.Telemetry != nil {
		d.Telemetry.ObserveWindow(res.Usage.Cycles, res.Usage.SRAMBytes(), energyMicroJ)
		if d.Energy != nil {
			d.Telemetry.SetLifetimeDays(d.Energy.ProjectedLifetimeDays())
		}
	}
	if res.Usage.MaxStack > d.PeakUsage.MaxStack {
		d.PeakUsage.MaxStack = res.Usage.MaxStack
	}
	if res.Usage.MaxLocals > d.PeakUsage.MaxLocals {
		d.PeakUsage.MaxLocals = res.Usage.MaxLocals
	}
	if res.Usage.MaxCall > d.PeakUsage.MaxCall {
		d.PeakUsage.MaxCall = res.Usage.MaxCall
	}
	out, err := ReadOutput(d.Version, data)
	if err != nil {
		return Output{}, err
	}
	if out.Rejected {
		return out, fmt.Errorf("program: device rejected window %d of subject %s", w.Index, w.SubjectID)
	}
	return out, nil
}

// AvgCyclesPerWindow returns the mean cycle cost of a classification.
func (d *DeviceDetector) AvgCyclesPerWindow() float64 {
	if d.Windows == 0 {
		return 0
	}
	return float64(d.TotalCycles) / float64(d.Windows)
}
