package expose

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/obs/trace"
	"github.com/wiot-security/sift/internal/wiot"
)

// sampleLine matches one Prometheus text-format sample:
// name{label="value"} number
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\})? [-+]?([0-9.]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

func testHandler(t *testing.T) (http.Handler, *telemetry.Registry) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	reg := telemetry.NewRegistry()
	reg.Device("amulet-00").ObserveWindow(4200, 512, 17.5)
	reg.Device("amulet-00").SetLifetimeDays(38.2)
	reg.Device("amulet-01").ObserveWindow(3100, 448, 12.25)

	obs.NewCounter("expose.test.counter").Add(11)
	tm := obs.NewTimer("expose.test.timer")
	sp := tm.Start()
	sp.End()

	sampler := telemetry.NewSampler(0, 16, reg)
	sampler.SampleOnce(1_000_000)

	rec := trace.New(64, 1)
	obs.AttachSink(rec)
	t.Cleanup(obs.DetachSink)
	g := obs.NewTimer("expose.test.span").Start()
	g.End()

	return Handler(Options{Telemetry: reg, Sampler: sampler, Recorder: rec}), reg
}

func TestMetricsRoundTrip(t *testing.T) {
	h, _ := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every non-comment line must parse as a Prometheus sample.
	samples := 0
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("line %d is not valid exposition text: %q", i+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition contained no samples")
	}

	for _, want := range []string{
		`wiot_device_energy_microjoules{device="amulet-00"} 17.5`,
		`wiot_device_energy_microjoules{device="amulet-01"} 12.25`,
		`wiot_device_sram_peak_bytes{device="amulet-00"} 512`,
		`wiot_device_lifetime_days{device="amulet-00"} 38.2`,
		`wiot_obs_counter{name="expose.test.counter"}`,
		`wiot_obs_timer_count{name="expose.test.timer"}`,
		`wiot_series_last{series="device/amulet-00/energy_uj"} 17.5`,
		"# TYPE wiot_device_energy_microjoules counter",
		"wiot_trace_events_written_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestTraceEndpointServesChromeJSON(t *testing.T) {
	h, _ := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint returned invalid JSON: %v", err)
	}
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "expose.test.span" {
			found = true
		}
	}
	if !found {
		t.Error("trace dump does not contain the recorded span")
	}
}

func TestHealthzAndMethodGuards(t *testing.T) {
	h, _ := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("GET /healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	post, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

func TestTraceEndpointWithoutRecorder(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace without recorder = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzStates walks /readyz through its gate conditions: ready with
// nothing configured, gated on station liveness, gated on the sampler.
func TestReadyzStates(t *testing.T) {
	get := func(h http.Handler) (int, string) {
		t.Helper()
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get(Handler(Options{})); code != http.StatusOK {
		t.Fatalf("bare handler not ready: %d", code)
	}

	stations := wiot.NewStationRegistry()
	stations.Register("station-00", "inproc")
	if code, body := get(Handler(Options{Stations: stations})); code != http.StatusOK {
		t.Fatalf("live station not ready: %d %q", code, body)
	}
	stations.MarkDead("station-00")
	if code, body := get(Handler(Options{Stations: stations})); code != http.StatusServiceUnavailable || !strings.Contains(body, "no live stations") {
		t.Fatalf("dead stations reported ready: %d %q", code, body)
	}

	sampler := telemetry.NewSampler(time.Hour, 16, nil)
	if code, body := get(Handler(Options{Sampler: sampler})); code != http.StatusServiceUnavailable || !strings.Contains(body, "sampler not running") {
		t.Fatalf("stopped sampler reported ready: %d %q", code, body)
	}
	sampler.Start()
	defer sampler.Stop()
	if code, _ := get(Handler(Options{Sampler: sampler})); code != http.StatusOK {
		t.Fatalf("running sampler not ready: %d", code)
	}

	// /healthz stays liveness-only: still ok with everything unready.
	srv := httptest.NewServer(Handler(Options{Stations: stations}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz gated on readiness: %d", resp.StatusCode)
	}
}

// TestFederatedMetricsExposition renders a federated /metrics and checks
// the per-station labels, the merged sums, and format validity.
func TestFederatedMetricsExposition(t *testing.T) {
	fed := federate.New()
	fed.Absorb(federate.StationSnapshot{
		Station: "station-00", Seq: 2,
		Fleet: fleet.Snapshot{ScenariosCompleted: 7, WindowsScored: 70},
	})
	fed.Absorb(federate.StationSnapshot{
		Station: "station-01", Seq: 1,
		Fleet: fleet.Snapshot{ScenariosCompleted: 5, WindowsScored: 50},
	})
	fed.Absorb(federate.StationSnapshot{Station: "station-01", Seq: 1}) // stale: dropped
	fed.MarkDead("station-01")

	stations := wiot.NewStationRegistry()
	stations.Register("station-00", "inproc")

	srv := httptest.NewServer(Handler(Options{Federator: fed, Stations: stations}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, want := range []string{
		"wiot_fleet_scenarios_completed_total 12",
		"wiot_fleet_windows_scored_total 120",
		`wiot_station_scenarios_completed_total{wiot_station="station-00"} 7`,
		`wiot_station_scenarios_completed_total{wiot_station="station-01"} 5`,
		`wiot_station_up{wiot_station="station-00"} 1`,
		`wiot_station_up{wiot_station="station-01"} 0`,
		"wiot_federation_snapshots_dropped_total 1",
		"wiot_stations_live 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in federated exposition", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
}

// TestPprofGated checks /debug/pprof/ is absent by default and present
// behind the flag.
func TestPprofGated(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof exposed without the flag: %d", resp.StatusCode)
	}

	srv2 := httptest.NewServer(Handler(Options{Pprof: true}))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index not served: %d", resp2.StatusCode)
	}
}
