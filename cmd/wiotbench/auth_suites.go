package main

import (
	"context"
	"crypto/sha256"
	"fmt"

	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

// authBenchMaster is the fixed deployment secret the auth suites
// provision with. Benchmarks need determinism, not secrecy.
var authBenchMaster = func() []byte {
	sum := sha256.Sum256([]byte("wiotbench-auth-master"))
	return sum[:]
}()

// authScenarioSuite measures one wearer's full lossy stream over real
// loopback TCP — sensors, reconnect sinks, station, detector — either
// on the plain v2 wire (auth/off) or onboarded through the HMAC
// handshake with every frame sealed and verified under wire v3
// (auth/hmac). The two run the identical fixture scenario, so their
// ratio is exactly what authentication costs end to end; -compare
// gates it with the auth overhead entry of the gates table.
func authScenarioSuite(authed bool) suite {
	name := "auth/off"
	describe := "end-to-end TCP scenario on the plain v2 wire (auth disabled)"
	if authed {
		name = "auth/hmac"
		describe = "same TCP scenario over authenticated wire v3 (HMAC onboarding + per-frame MACs)"
	}
	return suite{
		name:     name,
		describe: describe,
		run: func(cfg runConfig, quick bool) (Result, error) {
			fix, err := getFleetFixture(quick)
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				sc, err := fix.src(0, 42)
				if err != nil {
					return err
				}
				nc := wiot.NetConfig{Seed: 42}
				if authed {
					nc.Auth = &wiot.AuthProvision{Master: authBenchMaster}
				}
				_, err = wiot.RunScenarioOverTCP(context.Background(), sc, nc)
				return err
			}
			res, err := measure(name, "scenarios/sec", cfg, 1, 1, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{"authed": b2f(authed)}
			return res, nil
		},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Device-side cycle model for the two MAC primitives, so the micro
// suites can price frame authentication against the internal/arp
// battery model. HMAC-SHA256 runs in software: roughly 4,000 cycles
// per compression on an MSP430-class core. CMAC is costed against the
// FR5989's AES hardware accelerator (the reason the primitive is on
// the wire at all — software AES would be pricier per byte than
// SHA-256): ~168 cycles per block plus load/readout overhead, rounded
// up to a conservative 300.
const (
	sha256CyclesPerBlock = 4000
	aesCyclesPerBlock    = 300
)

// macCyclesPerFrame is the modeled device cycle cost of authenticating
// one frame whose MAC'd prefix is msgLen bytes.
func macCyclesPerFrame(alg wiot.MACAlg, msgLen int) uint64 {
	switch alg {
	case wiot.MACCMAC:
		// ceil(len/16) accelerator block encryptions; the one-time
		// subkey pair is amortized across the session.
		blocks := (msgLen + 15) / 16
		return uint64(blocks) * aesCyclesPerBlock
	default:
		// Inner hash: the ipad block plus the message plus >=9 bytes of
		// SHA-256 padding; outer hash: opad block + 32-byte digest (2
		// compressions).
		inner := (64 + msgLen + 9 + 63) / 64
		return uint64(inner+2) * sha256CyclesPerBlock
	}
}

// authFrameSuite measures the per-frame seal cost of one MAC primitive
// on the host: encode the 90-sample frame, append the session id,
// compute the truncated MAC, trail the CRC. Verification recomputes
// the same MAC, so one seal prices both directions. Extra carries the
// modeled device-side bill: cycles per frame from the documented
// per-block constants, and the marginal energy per 3-second sensing
// window (both sensors' frames) under arp.DefaultEnergyModel — the
// number that decides whether wire v3 fits the paper's battery budget.
func authFrameSuite(alg wiot.MACAlg) suite {
	name := "auth/frame/" + alg.String()
	return suite{
		name:     name,
		describe: fmt.Sprintf("wire v3 frame sealing: truncated %s over one 90-sample frame per op", alg),
		run: func(cfg runConfig, quick bool) (Result, error) {
			samples := make([]float64, wiot.DefaultChunkSize)
			for i := range samples {
				samples[i] = float64(i%7) * 0.25
			}
			frame := wiot.FrameFromFloats(wiot.SensorECG, 7, samples)
			sess := wiot.ForgeSession(1, wiot.SensorECG, alg,
				wiot.DeriveSensorKey(authBenchMaster, wiot.SensorECG))
			rec, err := sess.SealFrame(&frame)
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				_, err := sess.SealFrame(&frame)
				return err
			}
			res, err := measure(name, "frames/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			// The MAC covers everything before the 8-byte tag and
			// 4-byte CRC trailers.
			macBytes := len(rec) - 12
			cycles := macCyclesPerFrame(alg, macBytes)
			framesPerWindow := 2 * dataset.WindowSec * physio.DefaultSampleRate / float64(wiot.DefaultChunkSize)
			model := arp.DefaultEnergyModel()
			windowCycles := uint64(float64(cycles) * framesPerWindow)
			marginalMicroJ := model.WindowEnergyMicroJ(windowCycles, dataset.WindowSec) -
				model.WindowEnergyMicroJ(0, dataset.WindowSec)
			res.Extra = map[string]float64{
				"macBytesPerFrame":         float64(macBytes),
				"deviceCyclesPerFrame":     float64(cycles),
				"framesPerWindow":          framesPerWindow,
				"deviceMACMicroJPerWindow": marginalMicroJ,
			}
			return res, nil
		},
	}
}
