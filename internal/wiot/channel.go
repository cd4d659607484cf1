package wiot

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ChannelEffect models an unreliable wireless link: each frame in transit
// may be delivered once, dropped, or duplicated. (Reordering is not
// modeled: BLE's link layer delivers in order or not at all.)
type ChannelEffect interface {
	// Transmit returns the frames actually delivered for f: empty for a
	// loss, one for delivery, two for a duplicate. f's samples are
	// borrowed (see Frame); the delivered frames may share them, so they
	// are valid only as long as f's are. The returned slice may be the
	// channel's own buffer, valid only until its next Transmit.
	Transmit(f Frame) []Frame
}

// Reliable delivers every frame exactly once.
type Reliable struct{}

// Transmit implements ChannelEffect.
func (Reliable) Transmit(f Frame) []Frame { return []Frame{f} }

// Lossy drops and duplicates frames with the configured probabilities.
//
// A Lossy must be built with NewLossy, which validates the probabilities
// and seeds the rng eagerly — there is no lazily-initialized state, so a
// channel can be handed to a scenario goroutine while another goroutine
// observes its telemetry. Transmit serializes rng draws under a mutex and
// the counters are atomic, making the whole channel safe for concurrent
// use (though a single scenario always drives it from one goroutine).
//
// Transmit returns a slice of the channel's own two-frame buffer, valid
// until its next Transmit, so delivering a frame allocates nothing. Only
// a caller that is the channel's one sender may read the result;
// concurrent senders must discard it.
type Lossy struct {
	lossProb float64
	dupProb  float64
	seed     int64

	mu  sync.Mutex // guards rng and out
	rng *rand.Rand
	out [2]Frame // Transmit's result

	sent, lost, duplicated atomic.Int64
}

var (
	_ ChannelEffect = Reliable{}
	_ ChannelEffect = (*Lossy)(nil)
)

// NewLossy builds a lossy channel, validating the probabilities up front.
func NewLossy(lossProb, dupProb float64, seed int64) (*Lossy, error) {
	if !(lossProb >= 0 && lossProb <= 1 && dupProb >= 0 && dupProb <= 1) { // NaN fails too
		return nil, fmt.Errorf("wiot: channel probabilities (%.3g, %.3g) outside [0,1]", lossProb, dupProb)
	}
	return &Lossy{
		lossProb: lossProb,
		dupProb:  dupProb,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// MustLossy is NewLossy for statically-known probabilities; it panics on
// invalid input.
func MustLossy(lossProb, dupProb float64, seed int64) *Lossy {
	l, err := NewLossy(lossProb, dupProb, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// LossProb returns the configured loss probability.
func (l *Lossy) LossProb() float64 { return l.lossProb }

// DupProb returns the configured duplication probability.
func (l *Lossy) DupProb() float64 { return l.dupProb }

// Seed returns the seed the channel's rng was built from.
func (l *Lossy) Seed() int64 { return l.seed }

// Sent returns how many frames entered the channel.
func (l *Lossy) Sent() int64 { return l.sent.Load() }

// Lost returns how many frames the channel dropped.
func (l *Lossy) Lost() int64 { return l.lost.Load() }

// Duplicated returns how many frames the channel duplicated.
func (l *Lossy) Duplicated() int64 { return l.duplicated.Load() }

// Transmit implements ChannelEffect.
func (l *Lossy) Transmit(f Frame) []Frame {
	l.mu.Lock()
	loss := l.rng.Float64() < l.lossProb
	dup := false
	if !loss {
		dup = l.rng.Float64() < l.dupProb
	}
	l.out = [2]Frame{f, f}
	out := l.out[:]
	l.mu.Unlock()

	l.sent.Add(1)
	switch {
	case loss:
		l.lost.Add(1)
		return nil
	case dup:
		l.duplicated.Add(1)
		return out
	default:
		return out[:1]
	}
}
