package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/expose"
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/obs/trace"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/wiot"
)

// obsShadowErrors counts shadow device runs that failed; telemetry-only
// failures never change a host verdict, but they should be visible.
var obsShadowErrors = obs.NewCounter("wiotsim.shadow.errors")

// observability wires the optional -serve / -trace instrumentation
// around a fleet run: a per-device telemetry registry, a periodic
// sampler, a flight recorder, and the HTTP exposition server.
type observability struct {
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
	rec     *trace.Recorder
	srv     *http.Server

	// fed and stations are set by the sharded path before start(): the
	// endpoint then serves the federated fleet view with per-station
	// labels, and /readyz tracks station liveness.
	fed      *federate.Federator
	stations *wiot.StationRegistry

	serveAddr string
	tracePath string
	pprof     bool
	prevObs   bool
	srvErr    chan error
}

// newObservability builds the stack for whichever of -serve/-trace are
// set; both empty returns nil and the run stays uninstrumented.
func newObservability(serveAddr, tracePath string, pprof bool) *observability {
	if serveAddr == "" && tracePath == "" {
		return nil
	}
	o := &observability{
		serveAddr: serveAddr,
		tracePath: tracePath,
		pprof:     pprof,
		reg:       telemetry.NewRegistry(),
		srvErr:    make(chan error, 1),
	}
	o.sampler = telemetry.NewSampler(time.Second, 1024, o.reg)
	o.rec = trace.New(1<<14, 0)
	// Frame codec events fire per 0.25 s chunk across every subject —
	// they would evict everything else from the ring, so keep them out.
	o.rec.SetFilter(func(name string) bool {
		return !strings.HasPrefix(name, "wiot.frame.")
	})
	return o
}

// start enables obs collection, attaches the recorder, and launches the
// sampler and (when -serve is set) the HTTP server.
func (o *observability) start() {
	o.prevObs = obs.Enabled()
	obs.SetEnabled(true)
	obs.AttachSink(o.rec)
	o.sampler.Start()
	if o.serveAddr == "" {
		return
	}
	o.srv = &http.Server{
		Addr: o.serveAddr,
		Handler: expose.Handler(expose.Options{
			Telemetry: o.reg,
			Sampler:   o.sampler,
			Recorder:  o.rec,
			Federator: o.fed,
			Stations:  o.stations,
			Pprof:     o.pprof,
		}),
	}
	fmt.Printf("observability: serving /metrics, /debug/trace, /healthz, /readyz on %s\n", o.serveAddr)
	go func() {
		err := o.srv.ListenAndServe()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			o.srvErr <- err
			return
		}
		o.srvErr <- nil
	}()
}

// finish stops the sampler, prints the telemetry rollups, writes the
// trace dump, and — when serving — keeps the endpoint up until SIGINT or
// SIGTERM so operators can scrape the finished run.
func (o *observability) finish() error {
	o.sampler.Stop()
	if s := o.sampler.String(); s != "" {
		fmt.Printf("\ntelemetry series (min/mean/p99 over sampled window):\n%s", s)
	}
	if dropped := o.rec.Drops(); dropped > 0 {
		fmt.Printf("flight recorder: %d events dropped at ring wrap (of %d written)\n",
			dropped, o.rec.Written())
	}

	var firstErr error
	if o.serveAddr != "" {
		fmt.Printf("run complete; still serving on %s — Ctrl-C to exit\n", o.serveAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
		case err := <-o.srvErr:
			// Listener died (bad addr, port in use): surface it instead
			// of blocking forever on a signal.
			if err != nil {
				firstErr = fmt.Errorf("serve %s: %w", o.serveAddr, err)
			}
		}
		signal.Stop(sig)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		o.srv.Shutdown(ctx)
		cancel()
	}

	// Dump the trace after the server quiets down so the file includes
	// everything the run recorded.
	obs.DetachSink()
	if o.tracePath != "" {
		if err := o.rec.WriteChromeTraceFile(o.tracePath); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			fmt.Printf("trace: wrote %d events to %s (load in chrome://tracing or Perfetto)\n",
				len(o.rec.Snapshot()), o.tracePath)
		}
	}
	obs.SetEnabled(o.prevObs)
	return firstErr
}

// shadowDetector keeps the host detector's verdicts authoritative (so
// fleet results stay deterministic and comparable with uninstrumented
// runs) while shadow-running the same windows through the quantized
// detector on an emulated Amulet. The shadow run is what produces real
// per-window VM cycles, SRAM watermarks, and modeled energy for the
// device's telemetry series — and its VM spans nest under the fleet
// scenario in a trace dump.
type shadowDetector struct {
	host   wiot.Detector
	dev    *program.DeviceDetector
	parent uint64
}

// newShadowDetector quantizes the trained detector and flashes it onto a
// fresh emulated device whose telemetry lands under the subject's label.
func newShadowDetector(host wiot.Detector, det *sift.Detector, o *observability, subject string) (wiot.Detector, error) {
	q, err := det.Quantize()
	if err != nil {
		return nil, fmt.Errorf("quantize for shadow device: %w", err)
	}
	dev, err := program.NewDeviceDetector(det.Version, nil, q)
	if err != nil {
		return nil, fmt.Errorf("flash shadow device: %w", err)
	}
	dev.Telemetry = o.reg.Device(subject)
	dev.Energy = arp.NewAccounting(arp.DefaultEnergyModel(), dataset.WindowSec)
	return &shadowDetector{host: host, dev: dev}, nil
}

// SetTraceParent implements fleet.TraceParentSetter: the engine hands us
// the scenario-run span so shadow VM spans nest under it.
func (d *shadowDetector) SetTraceParent(id uint64) {
	d.parent = id
	d.dev.TraceParent = id
}

// Classify returns the host verdict; the shadow device run is telemetry
// only and its failures are counted, never propagated.
func (d *shadowDetector) Classify(w dataset.Window) (bool, error) {
	altered, err := d.host.Classify(w)
	if err != nil {
		return false, err
	}
	if _, shadowErr := d.dev.Classify(w); shadowErr != nil {
		obsShadowErrors.Add(1)
	}
	return altered, nil
}
