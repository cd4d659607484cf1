package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"

	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/wiot"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the cohort is built; setup_s is the
	// median. The command always uses defaultSetups.
	setups       int
	wrapDetector func(wiot.Detector) wiot.Detector
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one timed fleet run.
type rep struct {
	windows         int
	cpu, wall       float64 // seconds
	allocBytes      uint64
	gcCycles        uint64
	gcCPU, totalCPU float64 // the runtime's own CPU-class estimates
	traced          bool
	// rate is the calibration kernel's speed around the run (mean of
	// the calibrations just before and just after it).
	rate float64
	// Verdict latency percentiles of the run, µs at the reference speed,
	// its raw median, and the number of samples.
	p50, p90, p99, rawP50 float64
	samples               int
}

// refRate is the run's throughput in windows per CPU-second at the
// reference speed.
func (r rep) refRate() float64 { return float64(r.windows) / atReference(r.cpu, r.rate) }

// runtimeSample reads the counters a rep is charged with.
type runtimeSample struct {
	cpu, wall       float64
	alloc, gc       uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		cpu:      cpuSeconds(),
		wall:     float64(nowNs()) / 1e9,
		alloc:    s[0].Value.Uint64(),
		gc:       s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// benchmark runs one workload end to end and returns its result; log
// receives the human-readable diagnostics.
func benchmark(ctx context.Context, opt options, log io.Writer) (result, error) {
	wl, err := lookupWorkload(opt.workload)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(log, "FAIL: "+format+"\n", args...)
	}
	cal := newCalibrator()

	// Set-up, several times: setup_s is the median CPU cost at the
	// reference speed.
	var costs []setupCost
	var c *cohort
	for i := 0; i < max(opt.setups, 1); i++ {
		var cost setupCost
		c, cost, err = buildCohort(opt.seed, wl.onDevice, cal)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		costs = append(costs, cost)
	}
	h := &harness{wl: wl, cohort: c, wrapDetector: opt.wrapDetector, clocks: make([]*verdictClock, cohortSize)}

	// Reference checks, outside both set-up and the timed region. The
	// warm-up run is the reference every timed run must reproduce. Over
	// the wire it runs with the obs counters on, so that any rejected
	// honest frame shows.
	obs.Reset()
	obs.SetEnabled(wl.overTCP)
	ref, refDigest, err := h.runFleet(ctx, h.config(wl.channel, wl.overTCP, nil))
	obs.SetEnabled(false)
	if err != nil {
		return result{}, fmt.Errorf("reference run: %w", err)
	}
	fmt.Fprintf(log, "workload %s seed %d: %d wearers, %d windows per fleet run, digest %s\n",
		wl.name, opt.seed, cohortSize, ref.Windows, refDigest)
	if want, ok := referenceDigests[wl.name]; ok && opt.seed == defaultSeed && want != refDigest {
		fail("seed %d digest %s differs from the stored reference %s", opt.seed, refDigest, want)
	}
	if wl.overTCP {
		if n := authRejects(); n > 0 {
			fail("honest wire traffic drew %d auth rejections", n)
		}
		_, inproc, err := h.runFleet(ctx, h.config(channelReliable, false, nil))
		if err != nil {
			return result{}, fmt.Errorf("in-process reference run: %w", err)
		}
		if inproc != refDigest {
			fail("wire digest %s differs from the in-process reliable digest %s", refDigest, inproc)
		}
	}
	if ref.Windows == 0 {
		return result{}, fmt.Errorf("reference run scored no windows")
	}

	// Timed region. In a traced run untraced and traced fleet runs
	// alternate, so the tracing overhead compares like with like.
	var tr *tracer
	plain := h.config(wl.channel, wl.overTCP, nil)
	var traced fleet.Config
	if opt.trace {
		tr = newTracer()
		traced = h.config(wl.channel, wl.overTCP, tr)
		obs.Reset()
	}
	h.wireBytes.Store(0)
	// Nothing the benchmark keeps grows with throughput, so heap_live_mib
	// measures the program: latencies fold into each rep, and reps has
	// room for every run at any plausible speed.
	reps := make([]rep, 0, 8192)
	failedWindows := 0
	minReps := 1
	if opt.trace {
		minReps = 2 // at least one untraced and one traced run
	}
	// Each rep is charged everything from the end of the previous rep's
	// calibration to the end of its own, less the kernel's own time: the
	// collection work a run leaves running when it returns is its own.
	rate := cal.rate()
	prev, spentCPU, spentWall := sampleRuntime(), cal.spentCPU, cal.spentWall
	deadline := float64(nowNs())/1e9 + opt.seconds
	for i := 0; len(reps) < minReps || float64(nowNs())/1e9 < deadline; i++ {
		isTraced := opt.trace && i%2 == 1
		cfg := plain
		if isTraced {
			cfg = traced
			obs.SetEnabled(true)
		}
		h.latencies = h.latencies[:0]
		start := nowNs()
		out, digest, err := h.runFleet(ctx, cfg)
		end := nowNs()
		obs.SetEnabled(false)
		if isTraced {
			tr.timeFleetRun(start, end)
		}
		after := cal.rate()
		next := sampleRuntime()
		res.Attempted += cohortSize
		r := rep{
			windows:    out.Windows,
			cpu:        next.cpu - prev.cpu - (cal.spentCPU - spentCPU),
			wall:       next.wall - prev.wall - (cal.spentWall - spentWall),
			allocBytes: next.alloc - prev.alloc,
			gcCycles:   next.gc - prev.gc,
			gcCPU:      next.gcCPU - prev.gcCPU,
			totalCPU:   next.totalCPU - prev.totalCPU,
			traced:     isTraced,
			rate:       (rate + after) / 2,
		}
		r.foldLatencies(h.latencies)
		reps = append(reps, r)
		rate, prev, spentCPU, spentWall = after, next, cal.spentCPU, cal.spentWall
		switch {
		case err != nil:
			res.Failed += cohortSize
			failedWindows += ref.Windows
			fail("fleet run %d: %v", i, err)
		case digest != refDigest:
			subjects, windows := subjectMismatches(&ref, &out)
			res.Failed += max(subjects, 1)
			failedWindows += max(windows, 1)
			fail("fleet run %d digest %s differs from the reference %s", i, digest, refDigest)
		}
	}
	if opt.trace {
		if n := authRejects(); n > 0 {
			fail("honest wire traffic drew %d auth rejections", n)
		}
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / (1 << 20)

	plainReps := filterReps(reps, false)
	pw := sumReps(plainReps)
	all := sumReps(reps)
	// Latency percentiles are taken per fleet run, at the reference
	// speed, and the median over runs is reported: a burst of steal
	// moves a few runs, not the figure.
	samples := 0
	var rates, rawRates, kernel, p50s, p90s, p99s, rawP50s []float64
	for _, r := range plainReps {
		rates = append(rates, r.refRate())
		rawRates = append(rawRates, float64(r.windows)/r.cpu)
		kernel = append(kernel, r.rate)
		p50s = append(p50s, r.p50)
		p90s = append(p90s, r.p90)
		p99s = append(p99s, r.p99)
		rawP50s = append(rawP50s, r.rawP50)
		samples += r.samples
	}
	p50, p90, p99 := median(p50s), median(p90s), median(p99s)
	windowsPerCPU := median(rates)
	setupS := median(pluck(costs, func(c setupCost) float64 { return c.total }))

	fmt.Fprintf(log, "set-up: %d builds at %s CPU-s (reference speed); setup_s is their median\n",
		len(costs), fmtList(pluck(costs, func(c setupCost) float64 { return c.total })))
	fmt.Fprintf(log, "timed: %d fleet runs, %d windows in %.2f CPU-s over %.2f wall-s; scenarios attempted %d, failed %d; windows attempted %d, failed %d\n",
		len(reps), all.windows, all.cpu, all.wall, res.Attempted, res.Failed, len(reps)*ref.Windows, failedWindows)
	fmt.Fprintf(log, "calibration: kernel median %.0f rounds/CPU-s (reference %.0f); raw windows_per_cpu_s %.1f, raw verdict p50 %.1f us\n",
		median(kernel), referenceKernelRate, median(rawRates), median(rawP50s))
	fmt.Fprintf(log, "verdict latency: %d samples in %d runs; p50 %.1f us, p90 %.1f us, p99 %.0f us (medians of per-run percentiles; p99 ungated)\n",
		samples, len(plainReps), p50, p90, p99)
	fmt.Fprintf(log, "proc.cpu_util %.3f CPU-s/wall-s, proc.wall_windows_per_s %.1f windows/s (ungated: steal shows here)\n",
		pw.cpu/pw.wall, float64(pw.windows)/pw.wall)
	if wl.onDevice {
		fmt.Fprintf(log, "device_battery_days %.4f days (arp projection from %.0f cycles/window)\n",
			batteryDays(c), cyclesPerWindow(c))
	}
	if wl.overTCP {
		fmt.Fprintf(log, "wire_bytes_per_window %.1f B\n", float64(h.wireBytes.Load())/float64(all.windows))
	}

	if !opt.trace {
		res.Metrics["windows_per_cpu_s"] = metric{windowsPerCPU, "windows/CPU-s"}
		res.Metrics["verdict_p50_us"] = metric{p50, "us"}
		res.Metrics["verdict_p90_us"] = metric{p90, "us"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["alloc_kib_per_window"] = metric{float64(pw.allocBytes) / 1024 / float64(pw.windows), "KiB"}
		res.Metrics["heap_live_mib"] = metric{heapLive, "MiB"}
		return res, nil
	}

	tot := tr.totals()
	pr, err := replayProbes(wl, c.wearers[0].host, tot.capturedWindows, tot.capturedFrames)
	if err != nil {
		return result{}, err
	}
	var tracedRates []float64
	for _, r := range filterReps(reps, true) {
		tracedRates = append(tracedRates, r.refRate())
	}
	layerMetrics(res.Metrics, layerInputs{
		wl:        wl,
		c:         c,
		tot:       tot,
		costs:     costs,
		plain:     pw,
		traced:    sumReps(filterReps(reps, true)),
		allReps:   all,
		plainRate: windowsPerCPU,
		traceRate: median(tracedRates),
		probes:    pr,
		counters:  obs.TakeSnapshot().Counters,
		wireBytes: h.wireBytes.Load(),
	})
	return res, nil
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// foldLatencies reduces the run's verdict latencies (ns) to its
// percentiles at the reference speed.
func (r *rep) foldLatencies(ns []int64) {
	if r.traced {
		return
	}
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	r.samples = len(us)
	r.rawP50 = percentile(us, 0.50)
	r.p50 = atReference(percentile(us, 0.50), r.rate)
	r.p90 = atReference(percentile(us, 0.90), r.rate)
	r.p99 = atReference(percentile(us, 0.99), r.rate)
}

// subjectMismatches counts the wearers whose outcome differs from the
// reference run's, and their reference windows.
func subjectMismatches(ref, got *fleet.FleetResult) (subjects, windows int) {
	for i, want := range ref.PerSubject {
		if i >= len(got.PerSubject) || got.PerSubject[i] != want {
			subjects++
			windows += want.Windows
		}
	}
	return subjects, windows
}

func filterReps(reps []rep, traced bool) []rep {
	var out []rep
	for _, r := range reps {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func sumReps(reps []rep) rep {
	var s rep
	for _, r := range reps {
		s.windows += r.windows
		s.cpu += r.cpu
		s.wall += r.wall
		s.allocBytes += r.allocBytes
		s.gcCycles += r.gcCycles
		s.gcCPU += r.gcCPU
		s.totalCPU += r.totalCPU
	}
	return s
}

func pluck(costs []setupCost, f func(setupCost) float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f(c)
	}
	return out
}

// cyclesPerWindow is the cohort's mean device cycles per classified
// window (0 when the workload does not run the device).
func cyclesPerWindow(c *cohort) float64 {
	var cycles uint64
	var windows int
	for _, w := range c.wearers {
		if w.device != nil {
			cycles += w.device.TotalCycles
			windows += w.device.Windows
		}
	}
	if windows == 0 {
		return 0
	}
	return float64(cycles) / float64(windows)
}

func batteryDays(c *cohort) float64 {
	cpw := cyclesPerWindow(c)
	if cpw == 0 {
		return 0
	}
	return arp.DefaultEnergyModel().LifetimeDays(cpw, dataset.WindowSec)
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	wl                   workload
	c                    *cohort
	tot                  traceTotals
	costs                []setupCost
	plain, traced        rep
	allReps              rep
	plainRate, traceRate float64
	probes               map[string]probeResult
	counters             []obs.CounterStats
	wireBytes            int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the traced run's per-layer metrics. A layer the
// workload does not exercise reads 0.
func layerMetrics(m map[string]metric, in layerInputs) {
	t := in.tot
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perCall := func(k spanKind, scale float64) float64 {
		return ratio(float64(t.kindNs[k]), float64(t.kindN[k])) / scale
	}
	windows := float64(t.windows)

	put("fleet.slot_us", "us", ratio(float64(t.slotNs), float64(t.slots))/1e3)
	put("fleet.overhead_share", "ratio", ratio(float64(t.fleetRunNs-t.fleetRunnerNs), float64(t.fleetRunNs)))

	put("wiot.channel.transmit_ns", "ns", perCall(spanTransmit, 1))
	put("wiot.channel.loss_ratio", "ratio", ratio(float64(t.lost), float64(t.sent)))
	put("wiot.channel.dup_ratio", "ratio", ratio(float64(t.dup), float64(t.sent)))
	put("wiot.attack.intercept_ns", "ns", perCall(spanIntercept, 1))
	put("wiot.station.self_us", "us", ratio(float64(t.stationSelfNs), windows)/1e3)
	put("wiot.station.concealed_per_window", "samples", ratio(float64(t.concealed), windows))
	put("wiot.station.stale_ratio", "ratio", ratio(float64(t.stale), float64(t.delivered)))

	probeNs := func(name string) float64 { return in.probes[name].ns }
	put("peaks.detect_r_us", "us", probeNs("peaks.detect_r")/1e3)
	put("peaks.detect_systolic_us", "us", probeNs("peaks.detect_systolic")/1e3)
	put("peaks.pair_us", "us", probeNs("peaks.pair")/1e3)
	put("peaks.detect_r_alloc_kib", "KiB", in.probes["peaks.detect_r"].allocKiB)

	hostClassify, deviceClassify := perCall(spanClassify, 1e3), 0.0
	if in.wl.onDevice {
		hostClassify, deviceClassify = 0, hostClassify
	}
	put("sift.classify_us", "us", hostClassify)
	put("portrait.build_us", "us", probeNs("portrait.build")/1e3)
	put("features.extract_us", "us", probeNs("features.extract")/1e3)
	put("svm.decision_us", "us", probeNs("svm.decision")/1e3)
	put("features.extract_alloc_kib", "KiB", in.probes["features.extract"].allocKiB)

	put("amulet.classify_us", "us", deviceClassify)
	put("program.input_us", "us", probeNs("program.input")/1e3)
	cpw := cyclesPerWindow(in.c)
	put("amulet.cycles_per_window", "cycles", cpw)
	sram := 0
	for _, w := range in.c.wearers {
		if w.device != nil {
			sram = max(sram, w.device.PeakUsage.SRAMBytes())
		}
	}
	put("amulet.sram_peak_bytes", "B", float64(sram))
	uj := 0.0
	if cpw > 0 {
		uj = arp.DefaultEnergyModel().WindowEnergyMicroJ(uint64(cpw+0.5), dataset.WindowSec)
	}
	put("arp.uj_per_window", "uJ", uj)
	put("arp.battery_days", "days", batteryDays(in.c))

	put("wiot.tcp.connect_us", "us", ratio(float64(t.connectNs), float64(t.connects))/1e3)
	put("wiot.wire.station_reads_per_window", "reads", ratio(float64(t.reads), windows))
	put("wiot.wire.read_wait_share", "ratio", ratio(float64(t.readNs), float64(t.connNs)))
	put("wiot.wire.bytes_per_window", "B", ratio(float64(in.wireBytes), float64(in.allReps.windows)))
	put("wiot.codec.encode_ns", "ns", probeNs("wiot.codec.encode"))
	put("wiot.codec.decode_ns", "ns", probeNs("wiot.codec.decode"))
	put("wiot.auth.seal_ns", "ns", probeNs("wiot.auth.seal"))
	counter := func(name string) float64 {
		for _, c := range in.counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		return 0
	}
	for _, name := range []string{"wiot.sink.retransmits", "wiot.tcp.acks", "wiot.tcp.nacks", "wiot.auth.frames"} {
		put(name, "1/window", ratio(counter(name), float64(in.traced.windows)))
	}
	for _, kind := range authRejectKinds {
		put(authRejectPrefix+kind, "count", counter(authRejectPrefix+kind))
	}

	put("physio.generate_s", "s", median(pluck(in.costs, func(c setupCost) float64 { return c.generate })))
	put("sift.train_s", "s", median(pluck(in.costs, func(c setupCost) float64 { return c.train })))
	put("amulet.install_s", "s", median(pluck(in.costs, func(c setupCost) float64 { return c.install })))

	p := in.plain
	put("runtime.gc_cpu_fraction", "ratio", ratio(p.gcCPU, p.totalCPU))
	put("runtime.gc_per_kwindow", "1/kwindow", ratio(float64(p.gcCycles)*1000, float64(p.windows)))
	put("proc.cpu_util", "CPU-s/s", ratio(p.cpu, p.wall))
	put("proc.wall_windows_per_s", "windows/s", ratio(float64(p.windows), p.wall))
	put("trace.untraced_windows_per_cpu_s", "windows/CPU-s", in.plainRate)
	put("trace.traced_windows_per_cpu_s", "windows/CPU-s", in.traceRate)
	put("trace.overhead_share", "ratio", ratio(in.plainRate-in.traceRate, in.plainRate))
}
