// Package program assembles the three SIFT detector versions into Amulet
// VM bytecode and provides the host-side loader that marshals a signal
// window plus a quantized SVM model into the device's data segment.
//
// This is the analog of the paper's Amulet Firmware Toolchain step that
// turns the QM app (PeaksDataCheck → FeatureExtraction → MLClassifier)
// into an installable firmware image. Everything the device computes —
// normalization, the 50×50 portrait grid, the matrix and geometric
// features, and the linear SVM decision — runs inside the VM, with the
// Original version using the software-float opcode group and the
// Simplified/Reduced versions using Q16.16 fixed point.
package program

import (
	"fmt"
	"math"
	"sync"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/svm"
)

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(u uint32) float32 { return math.Float32frombits(u) }

// Capacity limits of the device-side buffers. The window is the paper's
// 3 s × 360 Hz = 1080 samples; peak buffers are sized for the fastest
// plausible heart rate within one window.
const (
	MaxSamples = 1080
	MaxPeaks   = 16
	MaxDim     = 8
	GridN      = 50
)

// Header word indices in the data segment.
const (
	HdrN      = iota // window length in samples (int)
	HdrNR            // number of R peaks (int)
	HdrNS            // number of systolic peaks (int)
	HdrNPairs        // number of R–systolic pairs (int)
	HdrGridN         // portrait grid size (int)
	HdrDim           // feature dimensionality (int)
	HdrOut           // OUT: decision margin (Q16.16 raw)
	HdrLabel         // OUT: 1 = altered, 0 = genuine, -1 = input rejected
	HdrFeat0         // OUT: feature vector, HdrFeat0 .. HdrFeat0+Dim-1 (native rep)
)

// Segment bases (word addresses). The model block holds bias, weights,
// means, and inverse standard deviations in the version's native numeric
// representation.
const (
	ModelBase   = HdrFeat0 + MaxDim
	modelWords  = 1 + 3*MaxDim
	EcgBase     = ModelBase + modelWords
	AbpBase     = EcgBase + MaxSamples
	RBase       = AbpBase + MaxSamples
	SBase       = RBase + MaxPeaks
	PairRBase   = SBase + MaxPeaks
	PairSBase   = PairRBase + MaxPeaks
	MatrixBase  = PairSBase + MaxPeaks
	matrixWords = GridN * GridN
	ColBase     = MatrixBase + matrixWords
	// DataWords is the total data-segment size in 32-bit words.
	DataWords = ColBase + GridN
)

// Model offsets within the model block.
const (
	modelBias   = ModelBase
	modelW      = ModelBase + 1
	modelMean   = modelW + MaxDim
	modelInvStd = modelMean + MaxDim
)

// Input marshals one window and one quantized model into a fresh data
// segment for the given detector version. Signal samples always arrive as
// Q16.16 (that is what the sensor pipeline delivers); the Original
// program converts them to float32 on-device, as the paper's float-array
// implementation did.
func Input(v features.Version, w dataset.Window, q *svm.Quantized) ([]int32, error) {
	data := make([]int32, DataWords)
	if err := marshal(v, w, q, data); err != nil {
		return nil, err
	}
	return data, nil
}

// segments recycles DeviceDetector data segments between windows. A pool
// rather than one segment per detector: a fleet holds many detectors but
// only runs as many windows at once as it has workers.
var segments = sync.Pool{New: func() any {
	s := make([]int32, DataWords)
	return &s
}}

// InputInto is Input into a caller's segment, which must be DataWords
// words long and may hold an earlier window's segment: on success data is
// exactly Input's segment. This is the path DeviceDetector.Classify runs
// on its pooled segment every window. It clears only the words marshal
// does not write whatever the window: the outputs, the model block, the
// sample blocks past the window's length, and everything from the peak
// buffers on (peaks, portrait matrix, column buffer); the header words
// and the window's samples are always overwritten.
func InputInto(v features.Version, w dataset.Window, q *svm.Quantized, data []int32) error {
	if len(data) != DataWords {
		return fmt.Errorf("program: segment of %d words, want %d", len(data), DataWords)
	}
	n := min(w.Len(), MaxSamples)
	clear(data[HdrOut:EcgBase])
	clear(data[EcgBase+n : AbpBase])
	clear(data[AbpBase+n : RBase])
	clear(data[RBase:])
	return marshal(v, w, q, data)
}

// marshal writes Input's segment into data, which must be DataWords long
// and zero wherever marshal does not write (InputInto). The two channels convert in one branch-free pass each
// (toQ16), into the segment's sample blocks; every window, whether cut by
// the station or read from a dataset, takes the same path.
func marshal(v features.Version, w dataset.Window, q *svm.Quantized, data []int32) error {
	if q == nil {
		return fmt.Errorf("program: nil model")
	}
	dim := v.Dim()
	if dim == 0 || dim > MaxDim {
		return fmt.Errorf("program: unsupported version %v", v)
	}
	if len(q.Weights) != dim || len(q.Mean) != dim || len(q.InvStd) != dim {
		return fmt.Errorf("program: model dim %d does not match version %v (want %d)", len(q.Weights), v, dim)
	}
	n := w.Len()
	if n == 0 || n > MaxSamples {
		return fmt.Errorf("program: window of %d samples outside (0,%d]", n, MaxSamples)
	}
	if len(w.ABP) != n {
		return fmt.Errorf("program: ECG (%d) and ABP (%d) lengths differ", n, len(w.ABP))
	}
	if len(w.RPeaks) > MaxPeaks || len(w.SysPeaks) > MaxPeaks || len(w.Pairs) > MaxPeaks {
		return fmt.Errorf("program: peak counts (%d R, %d sys, %d pairs) exceed buffer capacity %d",
			len(w.RPeaks), len(w.SysPeaks), len(w.Pairs), MaxPeaks)
	}

	data[HdrN] = int32(n)
	data[HdrNR] = int32(len(w.RPeaks))
	data[HdrNS] = int32(len(w.SysPeaks))
	data[HdrNPairs] = int32(len(w.Pairs))
	data[HdrGridN] = GridN
	data[HdrDim] = int32(dim)

	// Model constants in the version's native representation.
	enc := encoderFor(v)
	data[modelBias] = enc(q.Bias)
	for j := 0; j < dim; j++ {
		data[modelW+j] = enc(q.Weights[j])
		data[modelMean+j] = enc(q.Mean[j])
		data[modelInvStd+j] = enc(q.InvStd[j])
	}

	toQ16(data[EcgBase:EcgBase+n], w.ECG)
	toQ16(data[AbpBase:AbpBase+n], w.ABP)
	for i, p := range w.RPeaks {
		if p < 0 || p >= n {
			return fmt.Errorf("program: R peak %d outside window of %d samples", p, n)
		}
		data[RBase+i] = int32(p)
	}
	for i, p := range w.SysPeaks {
		if p < 0 || p >= n {
			return fmt.Errorf("program: systolic peak %d outside window of %d samples", p, n)
		}
		data[SBase+i] = int32(p)
	}
	for i, pr := range w.Pairs {
		if pr[0] < 0 || pr[0] >= n || pr[1] < 0 || pr[1] >= n {
			return fmt.Errorf("program: pair %v outside window of %d samples", pr, n)
		}
		data[PairRBase+i] = int32(pr[0])
		data[PairSBase+i] = int32(pr[1])
	}
	return nil
}

// roundMagic is fixedpoint.FromFloat's rounding constant: adding it to a
// float64 of magnitude below 2³¹ lands in the binade whose spacing is
// exactly 1.
const roundMagic = 1.5 * (1 << 52)

// toQ16 writes fixedpoint.FromFloat(src[i]).Raw() to dst[i] for every
// sample; src must be at least as long as dst. The loop is FromFloat's
// in-range formula with no branch: each sample's rounded integer r is
// stored as is, and bad collects, without a compare, whether any r left
// int32 range. An r in range is FromFloat's result: either s = x·2¹⁶ is
// in range, or s rounds onto the bound FromFloat saturates to (MaxInt32
// for s in [2³¹−1, 2³¹−½), MinInt32 for s in [−2³¹−½, −2³¹]). A NaN, an
// infinity or any larger s gives an r far outside int32 range, and only
// then does the per-sample FromFloat loop rerun. The range test needs no
// float-to-integer conversion, whose result for NaN and out-of-range
// values Go leaves to the platform.
func toQ16(dst []int32, src []float64) {
	src = src[:len(dst)]
	var bad uint64
	for i, x := range src {
		// The conversion keeps the add unfused, as in FromFloat.
		r := int64(math.Float64bits(float64(x*float64(fixedpoint.One))+roundMagic) - math.Float64bits(roundMagic))
		bad |= uint64(r-math.MinInt32) >> 32
		dst[i] = int32(r)
	}
	if bad != 0 {
		for i, x := range src {
			dst[i] = fixedpoint.FromFloat(x).Raw()
		}
	}
}

// encoderFor returns the Q→native-word encoder for a version's model
// constants.
func encoderFor(v features.Version) func(fixedpoint.Q) int32 {
	if v == features.Original {
		return func(q fixedpoint.Q) int32 {
			return int32(f32bits(float32(q.Float())))
		}
	}
	return func(q fixedpoint.Q) int32 { return q.Raw() }
}

// Output reads the detector verdict from a data segment after a run.
type Output struct {
	Margin  fixedpoint.Q
	Altered bool
	// Rejected reports the PeaksDataCheck state refusing the input.
	Rejected bool
	// Features are the extracted feature values (decoded to float64).
	Features []float64
}

// ReadOutput decodes the program's results for the given version.
func ReadOutput(v features.Version, data []int32) (Output, error) {
	if len(data) < DataWords {
		return Output{}, fmt.Errorf("program: data segment too short (%d words)", len(data))
	}
	out := Output{Margin: fixedpoint.FromRaw(data[HdrOut])}
	switch data[HdrLabel] {
	case 1:
		out.Altered = true
	case 0:
	case -1:
		out.Rejected = true
	default:
		return Output{}, fmt.Errorf("program: unexpected label word %d", data[HdrLabel])
	}
	dim := v.Dim()
	out.Features = make([]float64, dim)
	for j := 0; j < dim; j++ {
		raw := data[HdrFeat0+j]
		if v == features.Original {
			out.Features[j] = float64(f32frombits(uint32(raw)))
		} else {
			out.Features[j] = fixedpoint.FromRaw(raw).Float()
		}
	}
	return out, nil
}

// MaxCycles is a generous per-window cycle budget: the detector must
// finish well within its 3-second window at 16 MHz (48 M cycles).
const MaxCycles = 48_000_000
