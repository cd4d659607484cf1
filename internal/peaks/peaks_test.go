package peaks

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

func TestDetectRAgainstGroundTruth(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 60, physio.DefaultSampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DetectR(rec.ECG, DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	tol := int(0.05 * rec.SampleRate) // 50 ms
	hits, misses, extras := MatchStats(got, rec.RPeaks, tol)
	total := hits + misses
	if total == 0 {
		t.Fatal("no ground-truth peaks")
	}
	if sens := float64(hits) / float64(total); sens < 0.95 {
		t.Errorf("R-peak sensitivity = %.3f (hits %d, misses %d), want >= 0.95", sens, hits, misses)
	}
	if extras > total/10 {
		t.Errorf("too many false R detections: %d extras for %d truth peaks", extras, total)
	}
}

func TestDetectRAcrossCohort(t *testing.T) {
	subjects, err := physio.Cohort(4, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subjects {
		rec, err := physio.Generate(s, 30, physio.DefaultSampleRate, 11)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectR(rec.ECG, DetectorConfig{SampleRate: rec.SampleRate})
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		tol := int(0.05 * rec.SampleRate)
		hits, misses, _ := MatchStats(got, rec.RPeaks, tol)
		if sens := float64(hits) / float64(hits+misses); sens < 0.9 {
			t.Errorf("%s: sensitivity %.3f < 0.9", s.ID, sens)
		}
	}
}

func TestDetectSystolicAgainstGroundTruth(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 60, physio.DefaultSampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DetectSystolic(rec.ABP, rec.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	tol := int(0.06 * rec.SampleRate)
	hits, misses, extras := MatchStats(got, rec.SystolicPeaks, tol)
	total := hits + misses
	if sens := float64(hits) / float64(total); sens < 0.9 {
		t.Errorf("systolic sensitivity = %.3f (hits %d misses %d extras %d)", sens, hits, misses, extras)
	}
}

func TestDetectREmptyAndBadArgs(t *testing.T) {
	if _, err := DetectR(nil, DetectorConfig{SampleRate: 360}); !errors.Is(err, dsp.ErrEmptySignal) {
		t.Errorf("empty ECG err = %v, want ErrEmptySignal", err)
	}
	if _, err := DetectR([]float64{1, 2}, DetectorConfig{}); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := DetectSystolic(nil, 360); !errors.Is(err, dsp.ErrEmptySignal) {
		t.Error("empty ABP should return ErrEmptySignal")
	}
	if _, err := DetectSystolic([]float64{1}, 0); err == nil {
		t.Error("zero sample rate should error")
	}
}

func TestDetectRFlatSignal(t *testing.T) {
	flat := make([]float64, 3600)
	got, err := DetectR(flat, DetectorConfig{SampleRate: 360})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("flat signal produced %d peaks, want 0", len(got))
	}
}

func TestPair(t *testing.T) {
	r := []int{100, 500, 900}
	s := []int{180, 575, 2000}
	pairs := Pair(r, s, 150)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2 entries", pairs)
	}
	if pairs[0] != [2]int{100, 180} || pairs[1] != [2]int{500, 575} {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestPairSkipsUnmatchable(t *testing.T) {
	pairs := Pair([]int{10, 20}, nil, 100)
	if len(pairs) != 0 {
		t.Errorf("no systolic peaks should yield no pairs, got %v", pairs)
	}
	// A systolic peak before the R peak is not a match.
	pairs = Pair([]int{100}, []int{50}, 100)
	if len(pairs) != 0 {
		t.Errorf("preceding systolic should not pair, got %v", pairs)
	}
}

func TestMatchStats(t *testing.T) {
	hits, misses, extras := MatchStats([]int{10, 52, 200}, []int{11, 50, 99}, 3)
	if hits != 2 || misses != 1 || extras != 1 {
		t.Errorf("MatchStats = (%d, %d, %d), want (2, 1, 1)", hits, misses, extras)
	}
}

func TestDedupeSorted(t *testing.T) {
	got := dedupeSorted([]int{10, 12, 50, 55, 100}, 10)
	want := []int{10, 50, 100}
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dedupe = %v, want %v", got, want)
		}
	}
	if out := dedupeSorted(nil, 5); len(out) != 0 {
		t.Error("dedupe of empty should be empty")
	}
}

func TestPairedLagsOnRecord(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 30, physio.DefaultSampleRate, 5)
	if err != nil {
		t.Fatal(err)
	}
	maxLag := int(1.0 * rec.SampleRate)
	pairs := Pair(rec.RPeaks, rec.SystolicPeaks, maxLag)
	if len(pairs) < len(rec.RPeaks)-2 {
		t.Errorf("paired %d of %d R peaks", len(pairs), len(rec.RPeaks))
	}
	for _, p := range pairs {
		if p[1] <= p[0] {
			t.Errorf("pair %v not causally ordered", p)
		}
	}
}

func TestSpectralHeartRateCrossChecksPeaks(t *testing.T) {
	// Independent frequency-domain estimate (Insight #2's FFT toolkit)
	// must agree with the time-domain R-peak count.
	rec, err := physio.Generate(physio.DefaultSubject(), 60, physio.DefaultSampleRate, 21)
	if err != nil {
		t.Fatal(err)
	}
	detected, err := DetectR(rec.ECG, DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	timeHR := 60 * float64(len(detected)) / rec.Duration()
	specHR, err := dsp.SpectralHeartRate(rec.ECG, rec.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if diff := specHR - timeHR; diff < -8 || diff > 8 {
		t.Errorf("spectral HR %.1f vs time-domain HR %.1f bpm disagree", specHR, timeHR)
	}
}

// movingAverageNaive is the O(n·w) centered moving average the running
// sum in dsp replaced; it is kept here as the oracle's integrator.
func movingAverageNaive(x []float64, window int) []float64 {
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo, hi := max(i-half, 0), min(i+half+1, len(x))
		var s float64
		for _, v := range x[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// detectROracle is the unfused, allocate-everything R detector: a fresh
// band-pass per call, separate Diff and Square passes, and the naive
// moving-window integrator.
func detectROracle(t *testing.T, ecg []float64, cfg DetectorConfig) []int {
	t.Helper()
	band, err := dsp.BandPass(bandLow, bandHigh, cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	squared := dsp.Square(dsp.Diff(band.Apply(ecg)))
	win := int(integrationSec * cfg.SampleRate)
	if win%2 == 0 {
		win++
	}
	integrated := movingAverageNaive(squared, win)
	refractory := int(refractorySec * cfg.SampleRate)
	var out []int
	for _, c := range thresholdPeaks(nil, integrated, threshFrac, refractory) {
		out = append(out, argmaxAround(ecg, c, win))
	}
	return dedupeSorted(out, refractory)
}

// thresholdPeaks appends to out the local maxima of x at or above
// frac·max(x), with max(x) taken by dsp.MinMax, enforcing the refractory
// separation.
func thresholdPeaks(out []int, x []float64, frac float64, refractory int) []int {
	_, maxV, err := dsp.MinMax(x)
	if err != nil || maxV <= 0 {
		return out
	}
	return localMaxima(out, x, frac*maxV, refractory)
}

// detectMultiPass is the R detector as one pass per stage: the band-pass
// cascade, the squared first difference, dsp.MovingAverageInto,
// dsp.MinMax inside thresholdPeaks, then refinement. It is the bit-level
// oracle for the fused Detect and returns the integrated signal too.
func detectMultiPass(t *testing.T, ecg []float64, cfg DetectorConfig) ([]int, []float64, error) {
	t.Helper()
	if len(ecg) == 0 {
		return nil, nil, dsp.ErrEmptySignal
	}
	band, err := dsp.BandPass(bandLow, bandHigh, cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	win := int(integrationSec * cfg.SampleRate)
	if win%2 == 0 {
		win++
	}
	refractory := int(refractorySec * cfg.SampleRate)
	filtered := band.ApplyInto(nil, ecg)
	energy := make([]float64, len(ecg)-1)
	for i := range energy {
		v := filtered[i+1] - filtered[i]
		energy[i] = v * v
	}
	integrated, err := dsp.MovingAverageInto(nil, energy, win)
	if err != nil {
		return nil, nil, err
	}
	candidates := thresholdPeaks(nil, integrated, threshFrac, refractory)
	out := make([]int, 0, len(candidates))
	for _, c := range candidates {
		out = append(out, argmaxAround(ecg, c, win))
	}
	return dedupeSorted(out, refractory), integrated, nil
}

// checkMatchesMultiPass runs det on ecg and fails unless its indices,
// error and integrated signal equal detectMultiPass's bit for bit, any
// NaN matching any NaN.
func checkMatchesMultiPass(t *testing.T, det *RDetector, ecg []float64, cfg DetectorConfig) {
	t.Helper()
	got, gotErr := det.Detect(ecg)
	want, integrated, wantErr := detectMultiPass(t, ecg, cfg)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("len %d: Detect error %v, multi-pass %v", len(ecg), gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("len %d: Detect = %v, multi-pass %v", len(ecg), got, want)
	}
	if len(det.integrated) != len(integrated) {
		t.Fatalf("len %d: integrated has %d samples, multi-pass %d", len(ecg), len(det.integrated), len(integrated))
	}
	for i, v := range integrated {
		// Go leaves open which NaN an operation on two NaNs returns, and
		// the compiler may swap a sum's operands, so NaNs match as a class.
		if g := det.integrated[i]; math.Float64bits(g) != math.Float64bits(v) && !(g != g && v != v) {
			t.Fatalf("len %d: integrated[%d] = %v (%#x), multi-pass %v (%#x)",
				len(ecg), i, det.integrated[i], math.Float64bits(det.integrated[i]), v, math.Float64bits(v))
		}
	}
}

// FuzzRDetectorMatchesMultiPass holds the fused Detect bit-exact to the
// multi-pass oracle: indices, error and the integrated signal, through
// one reused detector. Each input cuts n samples (up to 2.5 station
// windows) from a quantized ECG at off and overwrites samples with raw
// float64 bit patterns, 10 bytes each (a little-endian u16 position, then
// the bits), so NaN, ±Inf, −0 and subnormals land anywhere in a window
// of any length. The seeds take every length from 0 to past two
// integration windows, which runs each phase of the fused integrator at
// each of its clipped bounds (the window that covers all included).
func FuzzRDetectorMatchesMultiPass(f *testing.F) {
	const maxLen = 2700
	cfg := DetectorConfig{SampleRate: physio.DefaultSampleRate}
	det, err := NewRDetector(cfg)
	if err != nil {
		f.Fatal(err)
	}
	// The ECG as the station sees it: through Q16.16, the wire format.
	rec, err := physio.Generate(physio.DefaultSubject(), 2*maxLen/physio.DefaultSampleRate+1, physio.DefaultSampleRate, 6)
	if err != nil {
		f.Fatal(err)
	}
	base := make([]float64, len(rec.ECG))
	for i, v := range rec.ECG {
		base[i] = fixedpoint.FromFloat(v).Float()
	}
	patch := func(pos uint16, v float64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, pos), math.Float64bits(v))
	}
	for n := 0; n <= 2*det.win+3; n++ {
		f.Add(uint16(n), uint16(97*(n%3)), []byte(nil))
	}
	for _, n := range []int{1080, 1081, maxLen} {
		f.Add(uint16(n), uint16(300), []byte(nil))
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e300}
	for k, v := range specials {
		f.Add(uint16(1080), uint16(40*k), patch(uint16(100*k), v))
		f.Add(uint16(k+1), uint16(0), patch(0, v))
	}
	f.Add(uint16(3), uint16(0), append(patch(0, 1), patch(1, -1)...))
	f.Fuzz(func(t *testing.T, n, off uint16, raw []byte) {
		ecg := slices.Clone(base[int(off)%maxLen:][:int(n)%(maxLen+1)])
		for ; len(raw) >= 10 && len(ecg) > 0; raw = raw[10:] {
			i := int(binary.LittleEndian.Uint16(raw)) % len(ecg)
			ecg[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[2:]))
		}
		checkMatchesMultiPass(t, det, ecg, cfg)
	})
}

// TestRDetectorMatchesOracle pins the reusable detector to the oracle on
// the signals the station actually sees: cohort ECG quantized through
// Q16.16 (the wire format), windows of varying length through one
// detector, and hold-last concealment blocks standing in for lost frames.
// Every window must yield identical indices.
func TestRDetectorMatchesOracle(t *testing.T) {
	const (
		fs       = physio.DefaultSampleRate
		wlen     = 1080 // 3 s at 360 Hz
		frame    = 36   // samples per concealed frame
		minCover = 4000
	)
	cfg := DetectorConfig{SampleRate: fs}
	det, err := NewRDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subjects, err := physio.Cohort(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	windows, concealed := 0, 0
	for k, s := range subjects {
		rec, err := physio.Generate(s, 600, fs, int64(100+k))
		if err != nil {
			t.Fatal(err)
		}
		ecg := make([]float64, len(rec.ECG))
		for i, v := range rec.ECG {
			ecg[i] = fixedpoint.FromFloat(v).Float()
		}
		for off := 0; ; {
			n := wlen
			if rng.Intn(2) == 0 {
				n = 1 + rng.Intn(2*wlen)
			}
			if off+n > len(ecg) {
				break
			}
			w := slices.Clone(ecg[off : off+n])
			off += n / 2 // half-overlapping windows
			if n > 1 && rng.Intn(3) == 0 {
				start := 1 + rng.Intn(n-1)
				end := min(start+frame*(1+rng.Intn(20)), n)
				for i := start; i < end; i++ {
					w[i] = w[start-1]
				}
				concealed++
			}
			got, err := det.Detect(w)
			if err != nil {
				t.Fatal(err)
			}
			if want := detectROracle(t, w, cfg); !slices.Equal(got, want) {
				t.Fatalf("%s window %d (len %d): Detect = %v, oracle %v", s.ID, windows, n, got, want)
			}
			windows++
		}
	}
	if windows < minCover || concealed < minCover/4 {
		t.Fatalf("covered %d windows (%d concealed), want >= %d", windows, concealed, minCover)
	}
}

// TestRDetectorAllocs pins Detect to one allocation: the returned slice.
func TestRDetectorAllocs(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 4)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewRDetector(DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := det.Detect(rec.ECG); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Detect allocates %.1f times per call, want <= 1", allocs)
	}
}

func BenchmarkRDetectorDetect(b *testing.B) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 4)
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewRDetector(DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(rec.ECG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSystolic runs the systolic scan as the base station does:
// on 3 s ABP windows quantised to Q16.16, given the sum (in index order
// from +0) and the maximum the station folds while it fills each window.
// BenchmarkRDetectorDetect runs on raw floats. Each op scans one window
// of ten, in turn; above_floor is the share of samples at or above the
// scan's floor, the samples that reach the neighbour test's comparisons.
func BenchmarkScanSystolic(b *testing.B) {
	const windows = 10
	rec, err := physio.Generate(physio.DefaultSubject(), 3*windows, physio.DefaultSampleRate, 4)
	if err != nil {
		b.Fatal(err)
	}
	wlen := len(rec.ABP) / windows
	type cut struct {
		abp       []float64
		sum, maxV float64
	}
	cuts := make([]cut, windows)
	above := 0
	for k := range cuts {
		c := &cuts[k]
		c.abp = make([]float64, wlen)
		for i, v := range rec.ABP[k*wlen : (k+1)*wlen] {
			c.abp[i] = fixedpoint.FromFloat(v).Float()
			c.sum += c.abp[i]
		}
		c.maxV = slices.Max(c.abp)
		mean := c.sum / float64(wlen)
		floor := mean + 0.4*(c.maxV-mean)
		for _, v := range c.abp {
			if v >= floor {
				above++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cuts[i%windows]
		if _, err := ScanSystolic(c.abp, rec.SampleRate, c.sum, c.maxV); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(above)/float64(windows*wlen), "above_floor")
}
