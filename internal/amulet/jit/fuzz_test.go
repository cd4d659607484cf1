package jit_test

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/vmlint"
)

// fuzzBudget bounds each fuzz execution; looping programs hit
// ErrOutOfCycles under both backends, which keeps the slow path hot in
// the corpus.
const fuzzBudget = 200_000

// FuzzJITVsInterp is the compiler's correctness proof by differential
// testing: any bytecode the static verifier accepts must behave
// identically under the interpreter (the oracle) and the compiled
// backend — same error sentinel, same data-segment writes, same resource
// telemetry — and the compiled run must stay within vmlint's static
// bounds.
func FuzzJITVsInterp(f *testing.F) {
	seed := func(p *amulet.Program, err error) {
		if err == nil {
			f.Add(p.Code, uint8(p.DataWords), uint64(1))
		}
	}
	for _, v := range features.Versions {
		seed(program.Build(v))
	}
	seed(program.BuildPedometer())
	seed(program.BuildRPeakDetector())

	// Handcrafted shapes steering the mutator at compiler structure:
	// fusion tails, inlined calls, budget-crossing loops, data faults.
	halt := byte(amulet.OpHalt)
	f.Add([]byte{halt}, uint8(0), uint64(2))
	// dup/swap/over shuffles over deferred descriptors.
	f.Add([]byte{
		byte(amulet.OpPush), 5, 0, 0, 0,
		byte(amulet.OpPush), 9, 0, 0, 0,
		byte(amulet.OpSwap), byte(amulet.OpOver), byte(amulet.OpDup),
		byte(amulet.OpAdd), byte(amulet.OpAdd), byte(amulet.OpAdd),
		byte(amulet.OpDrop), halt,
	}, uint8(0), uint64(3))
	// call 0x0005; halt; push; ret — one clean subroutine to inline.
	f.Add([]byte{
		byte(amulet.OpCall), 5, 0, halt, 0,
		byte(amulet.OpPush), 7, 0, 0, 0, byte(amulet.OpRet),
	}, uint8(0), uint64(4))
	// push 2; dup; jnz back over itself — burns the budget, lands the
	// budget line mid-block.
	f.Add([]byte{
		byte(amulet.OpPush), 2, 0, 0, 0,
		byte(amulet.OpDup), byte(amulet.OpJnz), 5, 0, halt,
	}, uint8(0), uint64(5))
	// loadm/storem against a small segment — bad-address ordering.
	f.Add([]byte{
		byte(amulet.OpPush), 3, 0, 0, 0,
		byte(amulet.OpLoadM),
		byte(amulet.OpPush), 1, 0, 0, 0,
		byte(amulet.OpStoreM), halt,
	}, uint8(4), uint64(6))
	// storel-retarget tail: loadl; push; add; storel (the counter shape).
	f.Add([]byte{
		byte(amulet.OpLoadL), 1,
		byte(amulet.OpPush), 1, 0, 0, 0,
		byte(amulet.OpAdd),
		byte(amulet.OpStoreL), 1,
		byte(amulet.OpLoadL), 1, byte(amulet.OpDrop), halt,
	}, uint8(0), uint64(7))

	f.Fuzz(func(t *testing.T, code []byte, dataWords uint8, dataSeed uint64) {
		p := &amulet.Program{Name: "fuzz", Code: code, DataWords: int(dataWords)}
		rep := vmlint.Analyze(p)
		if len(rep.Errs()) > 0 {
			if _, err := jit.Compile(p); err == nil {
				t.Fatalf("jit compiled a program the verifier rejects (code %x)", code)
			}
			return
		}

		cp, err := jit.Compile(p)
		if err != nil {
			if strings.Contains(err.Error(), "instructions after inlining") {
				return // size cap: device keeps the interpreter, by design
			}
			t.Fatalf("verified program failed to compile: %v (code %x)", err, code)
		}

		data := fillData(int(dataWords), dataSeed)
		vmData := append([]int32(nil), data...)
		jitData := append([]int32(nil), data...)

		vm, err := amulet.NewVM(p, vmData)
		if err != nil {
			t.Fatalf("verified program rejected by NewVM: %v", err)
		}
		vmErr := vm.Run(fuzzBudget)
		jitUsage, jitErr := cp.Run(jitData, fuzzBudget, 0)

		if vc, jc := errClass(vmErr), errClass(jitErr); vc != jc {
			t.Fatalf("backends disagree: interpreter %q vs jit %q (code %x)", vc, jc, code)
		}
		if vmErr == nil || errors.Is(vmErr, amulet.ErrOutOfCycles) {
			// On success and on budget exhaustion the telemetry must be
			// bit-identical (the slow path replays the interpreter's
			// billing). Only a mid-block data fault may overbill, and then
			// the device discards the usage anyway.
			if vu := vm.Usage(); vu != jitUsage {
				t.Fatalf("usage diverged (err=%v):\n interp: %+v\n    jit: %+v\n code %x", vmErr, vu, jitUsage, code)
			}
		}
		if vmErr == nil {
			for i := range vmData {
				if vmData[i] != jitData[i] {
					t.Fatalf("data[%d] diverged: interp %d vs jit %d (code %x)", i, vmData[i], jitData[i], code)
				}
			}
		}

		// The compiled run must stay within the statically proven envelope.
		if jitUsage.MaxStack > rep.MaxStack {
			t.Fatalf("jit stack peak %d exceeds static bound %d (code %x)", jitUsage.MaxStack, rep.MaxStack, code)
		}
		if jitUsage.MaxLocals > rep.MaxLocals {
			t.Fatalf("jit locals %d exceed static bound %d (code %x)", jitUsage.MaxLocals, rep.MaxLocals, code)
		}
		if jitUsage.MaxCall > rep.CallDepth {
			t.Fatalf("jit call depth %d exceeds static bound %d (code %x)", jitUsage.MaxCall, rep.CallDepth, code)
		}
		if rep.LoopFree && jitErr == nil && jitUsage.Cycles > rep.StaticCycles {
			t.Fatalf("loop-free static cycle bound %d below jit's %d (code %x)", rep.StaticCycles, jitUsage.Cycles, code)
		}
	})
}

// segmentLayout says where a firmware program reads its inputs, so the
// fuzzer can write a header, samples and peak indices into a segment of
// the program's full size.
type segmentLayout struct {
	build    func() (*amulet.Program, error)
	hdrN     int   // sample-count header word
	maxN     int   // largest sample count the program accepts
	counts   []int // peak-count header words, each bounded by MaxPeaks
	channels []int // sample channel bases, maxN words each
	peaks    []int // peak-index buffers, MaxPeaks words each
	float    bool  // model constants are float32 words (Original)
}

func detectorLayout(v features.Version) segmentLayout {
	return segmentLayout{
		build:    func() (*amulet.Program, error) { return program.Build(v) },
		hdrN:     program.HdrN,
		maxN:     program.MaxSamples,
		counts:   []int{program.HdrNR, program.HdrNS, program.HdrNPairs},
		channels: []int{program.EcgBase, program.AbpBase},
		peaks:    []int{program.RBase, program.SBase, program.PairRBase, program.PairSBase},
		float:    v == features.Original,
	}
}

var segmentLayouts = []segmentLayout{
	detectorLayout(features.Original),
	detectorLayout(features.Simplified),
	detectorLayout(features.Reduced),
	{
		build: program.BuildRPeakDetector, hdrN: program.RpkHdrN, maxN: program.MaxSamples,
		channels: []int{program.RpkEcg},
	},
	{
		build: program.BuildPedometer, hdrN: program.PedHdrN, maxN: program.PedMaxSamples,
		channels: []int{program.PedBase},
	},
}

// segment builds a full-size data segment for layout l. Every word starts
// as seeded noise; then the header gets N in [-1, maxN+1] and each peak
// count in [-1, MaxPeaks+1], float model words become finite, sample
// words come four bytes each from samples (interleaved across channels),
// and peak indices default to [0, N) and come two bytes each from
// peakIdx, mapped to [-2, MaxSamples+1].
func (l segmentLayout) segment(words int, n uint16, counts [3]uint8, samples, peakIdx []byte, seed uint64) []int32 {
	data := fillData(words, seed)
	nSamples := int(n)%(l.maxN+3) - 1
	data[l.hdrN] = int32(nSamples)
	for k, h := range l.counts {
		data[h] = int32(int(counts[k])%(program.MaxPeaks+3) - 1)
	}
	if l.float {
		// Finite model floats: the programs never make a NaN from finite
		// input, and two NaN operands may legitimately differ in payload
		// between any two compiled float additions.
		for w := program.ModelBase; w < program.EcgBase; w++ {
			data[w] = int32(math.Float32bits(float32(fixedpoint.FromRaw(data[w]).Float())))
		}
	}
	for j := 0; 4*j+4 <= len(samples); j++ {
		ch, idx := l.channels[j%len(l.channels)], j/len(l.channels)
		if idx >= l.maxN {
			break
		}
		data[ch+idx] = int32(binary.LittleEndian.Uint32(samples[4*j:]))
	}
	for _, base := range l.peaks {
		for k := 0; k < program.MaxPeaks; k++ {
			data[base+k] = int32(uint32(data[base+k]) % uint32(max(nSamples, 1)))
		}
	}
	for j := 0; 2*j+2 <= len(peakIdx) && j < len(l.peaks)*program.MaxPeaks; j++ {
		v := int(binary.LittleEndian.Uint16(peakIdx[2*j:]))
		data[l.peaks[j/program.MaxPeaks]+j%program.MaxPeaks] = int32(v%(program.MaxSamples+4) - 2)
	}
	return data
}

// FuzzDetectorSegmentVsInterp differentially tests the compiled backend
// on the real firmware programs — the three detector versions, the
// R-peak detector and the pedometer — at their full segment size, so
// inputs get past the header checks and into the loop kernels. The
// fuzzer controls the header (sample and peak counts, in range and just
// outside it), the sample words, the peak indices, and the cycle budget;
// the contract is runBoth's.
func FuzzDetectorSegmentVsInterp(f *testing.F) {
	full := uint32(program.MaxCycles)
	// A real window's samples and peaks, in the fuzzer's encoding.
	w := testWindow(f, 3)
	var samples, peakIdx []byte
	for i := range w.ECG {
		samples = binary.LittleEndian.AppendUint32(samples, uint32(fixedpoint.FromFloat(w.ECG[i]).Raw()))
		samples = binary.LittleEndian.AppendUint32(samples, uint32(fixedpoint.FromFloat(w.ABP[i]).Raw()))
	}
	buf := func(idx []int) {
		for k := 0; k < program.MaxPeaks; k++ {
			v := 0
			if k < len(idx) {
				v = idx[k]
			}
			peakIdx = binary.LittleEndian.AppendUint16(peakIdx, uint16(v+2))
		}
	}
	buf(w.RPeaks)
	buf(w.SysPeaks)
	pairR, pairS := make([]int, len(w.Pairs)), make([]int, len(w.Pairs))
	for k, pr := range w.Pairs {
		pairR[k], pairS[k] = pr[0], pr[1]
	}
	buf(pairR)
	buf(pairS)
	nr, ns, np := uint8(len(w.RPeaks)+1), uint8(len(w.SysPeaks)+1), uint8(len(w.Pairs)+1)
	n := uint16(len(w.ECG) + 1)

	for prog := range segmentLayouts {
		p := uint8(prog)
		f.Add(p, n, nr, ns, np, samples, peakIdx, full, uint64(1))
		f.Add(p, n, nr, ns, np, samples, peakIdx, uint32(700_000), uint64(2))
		f.Add(p, uint16(0), nr, ns, np, samples[:64], peakIdx, full, uint64(3))                      // N = -1
		f.Add(p, uint16(1082), uint8(18), ns, np, []byte(nil), []byte(nil), full, uint64(4))         // N, nR just past the limits
		f.Add(p, uint16(300), uint8(0), uint8(17), uint8(1), samples, []byte{0, 0}, full, uint64(5)) // nR = -1, nS = MaxPeaks
	}

	programs := make([]*amulet.Program, len(segmentLayouts))
	compiled := make([]*jit.Program, len(segmentLayouts))
	for k, l := range segmentLayouts {
		p, err := l.build()
		if err != nil {
			f.Fatal(err)
		}
		cp, err := jit.Compile(p)
		if err != nil {
			f.Fatal(err)
		}
		programs[k], compiled[k] = p, cp
	}

	f.Fuzz(func(t *testing.T, prog uint8, n uint16, nr, ns, np uint8, samples, peakIdx []byte, budget uint32, seed uint64) {
		k := int(prog) % len(segmentLayouts)
		p := programs[k]
		data := segmentLayouts[k].segment(p.DataWords, n, [3]uint8{nr, ns, np}, samples, peakIdx, seed)
		runBoth(t, p, compiled[k], data, min(uint64(budget), program.MaxCycles))
	})
}
