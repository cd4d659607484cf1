package jit_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
)

// The tables here hold the kernels' multi-lane loops to the interpreter
// where a lane could slip: runs of every length mod 4 (mod 2 for min and
// max), so each lane and the tail carry the last element; a negative
// term in each lane position, which must send the integer sum to its
// saturating rerun; a total that crosses MaxInt32 while no single lane
// does; a clamped square (46341²) in the last lane; strided runs; range
// extremes in each lane; and fills of zero and non-zero constants, with
// the off-end fallbacks.

// Strided lane layout: element j of a run sits at word j·laneStride +
// laneL + laneC, and every word in between holds laneJunk, which any
// misplaced load would add.
const (
	laneStride = 3
	laneL      = 1
	laneC      = 2
	laneJunk   = 0x0777_7777
)

func stridedSquares(k, c int) func(*amulet.Builder) {
	return func(b *amulet.Builder) {
		b.LoadL(rI).PushI(k).Op(amulet.OpMulI).LoadL(rL).Op(amulet.OpAdd)
		b.PushI(c).Op(amulet.OpAdd).Op(amulet.OpLoadM).StoreL(rT)
		b.LoadL(rT).LoadL(rT).Op(amulet.OpMulI)
		b.LoadL(rAcc).Op(amulet.OpAdd).StoreL(rAcc)
	}
}

// laneReduce lays terms out as the elements of an integer sum (or Σx²
// when squares) starting from acc, contiguous or strided.
func laneReduce(name string, terms []int32, acc int32, squares, strided bool) reduceCase {
	rc := reduceCase{name: name, trips: len(terms), acc: acc}
	switch {
	case strided && squares:
		rc.body = stridedSquares(laneStride, laneC)
	case strided:
		rc.body = stridedSum(laneStride, laneC)
	case squares:
		rc.body = affineSquares(2)
	default:
		rc.body = affineSum(2, amulet.OpAdd)
	}
	if !strided {
		rc.words = 2 + len(terms)
		rc.data = func(i int) int32 { return terms[i-2] }
		return rc
	}
	rc.l = laneL
	rc.words = laneL + laneC + laneStride*len(terms)
	rc.data = func(i int) int32 {
		if j := i - laneL - laneC; j%laneStride == 0 {
			return terms[j/laneStride]
		}
		return laneJunk
	}
	return rc
}

func TestReduceLanesMatchInterpreter(t *testing.T) {
	var cases []reduceCase
	add := func(name string, terms []int32, acc int32, squares bool) {
		for _, strided := range []bool{false, true} {
			shape := map[bool]string{false: "sum", true: "squares"}[squares]
			layout := map[bool]string{false: "contiguous", true: "strided"}[strided]
			cases = append(cases, laneReduce(fmt.Sprintf("%s/%s/%s", shape, layout, name), terms, acc, squares, strided))
		}
	}
	// Every length mod 4, each lane carrying distinct terms: the fast
	// path, where a dropped lane or tail element changes the total.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11} {
		terms := make([]int32, n)
		for j := range terms {
			terms[j] = int32(1000*(j+1) + 7*j*j)
		}
		for _, squares := range []bool{false, true} {
			add(fmt.Sprintf("n=%d", n), terms, -7, squares)
		}
	}
	// A negative term in each lane position, the tail's included. The
	// sum clamps at MaxInt32 before the negative term brings it back, so
	// only the saturating rerun is right; an int64 total would end inside
	// int32 range. As squares, the same x are all non-negative terms.
	for pos := 2; pos < 11; pos++ {
		terms := make([]int32, 11)
		terms[0], terms[1] = math.MaxInt32-10, 100
		terms[pos] = -200
		add(fmt.Sprintf("negative-at-%d", pos), terms, 0, false)
		add(fmt.Sprintf("negative-at-%d", pos), terms, 0, true)
	}
	// Each lane holds two terms of about MaxInt32/8, so no lane nears
	// MaxInt32, but the total passes it: the merged total must be what
	// the bound is checked on.
	quarter := make([]int32, 8)
	for j := range quarter {
		quarter[j] = math.MaxInt32/8 + 1000
	}
	add("total-crosses-max", quarter, 0, false)
	add("total-crosses-max", []int32{16385, 16385, 16385, 16385, 16385, 16385, 16385, 16385}, 0, true)
	// 46341² is the first square smulI clamps; from a negative start an
	// unclamped one would still end inside int32 range, with the wrong
	// sum. Placed in the last lane of a block and in the tail.
	add("46341-last-lane", []int32{0, 0, 0, 46341}, -10000, true)
	add("46341-last-lane-negative", []int32{1, 2, 3, -46341, 5, 6, 7, 8}, -10000, true)
	add("46341-tail", []int32{1, 2, 3, 4, 46341}, -10000, true)
	add("46341-tail-last", []int32{0, 0, 0, 0, 0, 0, 46341}, -10000, true)
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			p, cp, data := rc.build(t)
			sweepBudgets(t, p, cp, data, 1)
		})
	}
}

// minMaxCase is one hand-built channel-range scan in the firmware
// generator's emission order: the running min in rAcc and max in rL,
// each sample through the scratch local rT; the three are stored to
// data[0..2] after the loop, and the samples start at data[3].
type minMaxCase struct {
	name         string
	words, trips int
	lo, hi       int32
	data         func(i int) int32
}

func (mc minMaxCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	b := amulet.NewBuilder()
	b.PushI(mc.trips).StoreL(rLimit)
	b.Push(mc.lo).StoreL(rAcc)
	b.Push(mc.hi).StoreL(rL)
	b.ForRange(rI, rLimit, func(b *amulet.Builder) {
		b.PushI(3).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM).StoreL(rT)
		b.LoadL(rAcc).LoadL(rT).Op(amulet.OpMin).StoreL(rAcc)
		b.LoadL(rL).LoadL(rT).Op(amulet.OpMax).StoreL(rL)
	})
	b.PushI(0).LoadL(rAcc).Op(amulet.OpStoreM)
	b.PushI(1).LoadL(rL).Op(amulet.OpStoreM)
	b.PushI(2).LoadL(rT).Op(amulet.OpStoreM)
	b.Op(amulet.OpHalt)
	return assembleKernel(t, b, mc.name, mc.words, "minmax", mc.data)
}

// assembleKernel assembles and compiles a one-loop test program, checks
// that its loop fused to the wanted template, and fills the segment.
func assembleKernel(t *testing.T, b *amulet.Builder, name string, words int, template string, fill func(i int) int32) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	p, err := b.Assemble(name, words)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(cp.Kernels(), []string{template}) {
		t.Fatalf("%s: loop kernels %v, want [%s]", name, cp.Kernels(), template)
	}
	data := make([]int32, words)
	for i := range data {
		data[i] = fill(i)
	}
	return p, cp, data
}

func TestMinMaxLanesMatchInterpreter(t *testing.T) {
	var cases []minMaxCase
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9} {
		for pos := 0; pos < n; pos++ {
			for _, ext := range [][2]int32{{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32}} {
				cases = append(cases, minMaxCase{
					name: fmt.Sprintf("n=%d/extremes-%d-at-%d", n, ext[0], pos), words: 3 + n, trips: n,
					data: func(i int) int32 {
						switch i - 3 {
						case pos:
							return ext[0]
						case (pos + 1) % n:
							return ext[1]
						}
						return int32(i*37) - 100
					},
				})
			}
		}
	}
	cases = append(cases,
		minMaxCase{
			// The running range starts outside every sample.
			name: "start-outside", words: 3 + 7, trips: 7, lo: -5, hi: 1 << 20,
			data: func(i int) int32 { return int32(i) },
		},
		minMaxCase{
			// The run leaves the segment at i = 4.
			name: "off-end", words: 3 + 4, trips: 9, lo: math.MaxInt32, hi: math.MinInt32,
			data: func(i int) int32 { return int32(i*i) - 20 },
		},
	)
	for _, mc := range cases {
		t.Run(mc.name, func(t *testing.T) {
			p, cp, data := mc.build(t)
			sweepBudgets(t, p, cp, data, 1)
		})
	}
}

// fillCase is one hand-built matrix-zeroing loop: data[base+i] = k, over
// a segment prefilled with non-zero words.
type fillCase struct {
	name               string
	words, trips, base int
	k                  int32
}

func (fc fillCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	b := amulet.NewBuilder()
	b.PushI(fc.trips).StoreL(rLimit)
	b.ForRange(rI, rLimit, func(b *amulet.Builder) {
		b.PushI(fc.base).LoadL(rI).Op(amulet.OpAdd).Push(fc.k).Op(amulet.OpStoreM)
	})
	b.Op(amulet.OpHalt)
	return assembleKernel(t, b, fc.name, fc.words, "fill", func(i int) int32 { return int32(i*7919) | 1 })
}

func TestFillKernelMatchesInterpreter(t *testing.T) {
	var cases []fillCase
	for _, k := range []int32{0, 1, -1, math.MinInt32, math.MaxInt32} {
		cases = append(cases,
			fillCase{name: fmt.Sprintf("k=%d", k), words: 40, trips: 30, base: 5, k: k},
			fillCase{name: fmt.Sprintf("k=%d/one", k), words: 8, trips: 1, base: 7, k: k},
			// The run leaves the segment at i = 10.
			fillCase{name: fmt.Sprintf("k=%d/off-end", k), words: 40, trips: 30, base: 30, k: k},
		)
	}
	for _, fc := range cases {
		t.Run(fc.name, func(t *testing.T) {
			p, cp, data := fc.build(t)
			sweepBudgets(t, p, cp, data, 1)
		})
	}
}
