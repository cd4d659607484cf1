package program

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/svm"
)

// q16Edges are the samples where toQ16's branch-free conversion could part
// from fixedpoint.FromFloat: NaNs of both signs and odd payloads, the
// infinities, signed zeros, subnormals, the saturation bounds
// (MinInt32 ± ½)/2¹⁶ and (MaxInt32 ± ½)/2¹⁶ with their neighbours, and
// magnitudes past the rounding constant's binade.
func q16Edges() []float64 {
	const one = float64(fixedpoint.One)
	edges := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 0.5 / one, 1.5 / one, -0.5 / one, -2.5 / one,
		(1 << 51) / one, -(1 << 51) / one, (1 << 52) / one, -1.5 * (1 << 52) / one, -(1 << 53) / one,
	}
	for _, b := range []float64{math.MinInt32, math.MaxInt32} {
		for _, d := range []float64{-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1} {
			x := (b + d) / one
			edges = append(edges, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	return edges
}

// referenceSegment is the segment marshal must produce: the segment of
// the same window with zero samples, its sample blocks then filled by the
// per-sample FromFloat loop.
func referenceSegment(t *testing.T, v features.Version, w dataset.Window) []int32 {
	t.Helper()
	zero := w
	zero.ECG, zero.ABP = make([]float64, w.Len()), make([]float64, w.Len())
	want, err := Input(v, zero, svm.UnitModel(v.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.ECG {
		want[EcgBase+i] = fixedpoint.FromFloat(w.ECG[i]).Raw()
		want[AbpBase+i] = fixedpoint.FromFloat(w.ABP[i]).Raw()
	}
	return want
}

// TestMarshalEdgesMatchFromFloat places each edge sample alone in an
// otherwise in-range window, on either channel, first and last, so the
// fallback's trigger is seen from every position, and then all edges at
// once on both channels.
func TestMarshalEdgesMatchFromFloat(t *testing.T) {
	v := features.Simplified
	base := testWindow(t, 4)
	n := base.Len()
	check := func(ecg, abp []float64) {
		t.Helper()
		w := base
		w.ECG, w.ABP = ecg, abp
		got, err := Input(v, w, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSegment(t, v, w); !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("word %d: marshal %d, FromFloat %d", i, got[i], want[i])
				}
			}
		}
	}
	for _, x := range q16Edges() {
		for _, pos := range []int{0, n - 1} {
			ecg, abp := slices.Clone(base.ECG), slices.Clone(base.ABP)
			ecg[pos] = x
			check(ecg, base.ABP)
			abp[pos] = x
			check(base.ECG, abp)
		}
	}
	edges := q16Edges()
	ecg, abp := slices.Clone(base.ECG), slices.Clone(base.ABP)
	copy(ecg, edges)
	copy(abp[n-len(edges):], edges)
	check(ecg, abp)
}

// TestInputIntoClearsSegment pins the pooled path to Input: a segment
// left dirty, by garbage or by an earlier, longer window with more peaks,
// marshals to Input's fresh segment, and a segment of the wrong size is
// refused.
func TestInputIntoClearsSegment(t *testing.T) {
	full := testWindow(t, 5)
	short := dataset.Window{ECG: full.ECG[:700], ABP: full.ABP[:700], RPeaks: []int{10}}
	for _, v := range []features.Version{features.Original, features.Simplified, features.Reduced} {
		q := svm.UnitModel(v.Dim())
		seg := make([]int32, DataWords)
		for i := range seg {
			seg[i] = int32(i*7919) - 1
		}
		for _, w := range []dataset.Window{full, short, full} {
			want, err := Input(v, w, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := InputInto(v, w, q, seg); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seg, want) {
				t.Errorf("%v, %d samples: InputInto on a dirty segment differs from Input", v, w.Len())
			}
			// What a run leaves behind: every word written.
			for i := range seg {
				seg[i] ^= 0x5EED
			}
		}
		if err := InputInto(v, full, q, seg[:DataWords-1]); err == nil {
			t.Errorf("%v: InputInto accepted a short segment", v)
		}
	}
}

// FuzzMarshalMatchesFromFloat feeds fuzzed float64 bit patterns (eight
// little-endian bytes a sample; the shorter channel is zero-padded) to
// both channels of a window and holds the marshalled segment to the
// per-sample FromFloat loop, word for word.
func FuzzMarshalMatchesFromFloat(f *testing.F) {
	pack := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	edges := q16Edges()
	f.Add(pack(edges...), pack(0.25, -3))
	f.Add(pack(1, 2, 3), pack(edges...))
	f.Add(pack(math.NaN()), pack(math.Inf(-1)))
	f.Add(pack(0.1, -0.2, 400, -32767.9), []byte{})
	f.Fuzz(func(t *testing.T, ecgBits, abpBits []byte) {
		n := min(max(len(ecgBits), len(abpBits), 8)/8, MaxSamples)
		decode := func(b []byte) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if 8*i+8 <= len(b) {
					xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
				}
			}
			return xs
		}
		// No peaks: marshal accepts the window at any length.
		w := dataset.Window{ECG: decode(ecgBits), ABP: decode(abpBits)}
		v := features.Original
		got, err := Input(v, w, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSegment(t, v, w); !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("word %d of %d samples: marshal %d, FromFloat %d", i, n, got[i], want[i])
				}
			}
		}
	})
}
