package wiot

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// NetConfig tunes RunScenarioOverTCP.
type NetConfig struct {
	// Station tunes the receiving transport.
	Station TCPConfig
	// Sink tunes both sensor clients; Addr is filled in by the runner
	// and Seed (when zero) is derived from Seed below per sensor.
	Sink ReconnectConfig
	// WrapListener interposes middleware between the station and its
	// listener — the hook the chaos fault injector plugs into. The
	// sensors still dial the raw listener's address.
	WrapListener func(net.Listener) net.Listener
	// Seed derives per-sensor backoff-jitter seeds when Sink.Seed is 0.
	Seed int64
	// TraceParent, when nonzero, is copied into each sensor sink so every
	// connection joins the caller's trace tree (see
	// ReconnectConfig.TraceParent).
	TraceParent uint64
	// Auth, when set, runs the scenario over authenticated wire v3: the
	// station is provisioned with per-sensor keys derived from Master,
	// and each sensor sink onboards with its own derived PSK before
	// streaming. Honest-cohort verdicts must match a v2 run byte for
	// byte — the auth layer may reject forgeries, never reorder or drop
	// honest traffic.
	Auth *AuthProvision
}

// AuthProvision describes a scenario's v3 key material.
type AuthProvision struct {
	// Master is the deployment secret both ends derive per-sensor PSKs
	// from (DeriveSensorKey).
	Master []byte
	// Alg picks the per-frame MAC primitive; zero means MACHMAC.
	Alg MACAlg
}

// RunScenarioOverTCP drives the same end-to-end scenario as
// RunScenarioContext, but over a real loopback TCP transport: each
// sensor streams through its own ReconnectSink into a supervised
// TCPStation. With a fault-injecting WrapListener the wire can corrupt,
// cut, and stall — the reliability layer (checksums, acks, go-back-N
// retransmission) must still deliver every frame exactly once, so the
// verdicts match an in-process run byte for byte.
func RunScenarioOverTCP(ctx context.Context, sc Scenario, nc NetConfig) (ScenarioResult, error) {
	hasAttack, err := sc.normalize()
	if err != nil {
		return ScenarioResult{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	sink := &MemorySink{}
	station, err := NewBaseStation(StationConfig{
		SubjectID:            sc.Record.SubjectID,
		SampleRate:           sc.Record.SampleRate,
		WindowSec:            sc.WindowSec,
		Detector:             sc.Detector,
		Sink:                 sink,
		DetectPeaksAtRuntime: true,
	})
	if err != nil {
		return ScenarioResult{}, err
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("wiot: listen: %w", err)
	}
	addr := lis.Addr().String()
	wrapped := lis
	if nc.WrapListener != nil {
		wrapped = nc.WrapListener(lis)
	}
	stCfg := nc.Station
	if nc.Auth != nil && stCfg.Keys == nil {
		stCfg.Keys = KeyStoreFromMaster(nc.Auth.Master, SensorECG, SensorABP)
	}
	st, err := ServeTCPConfig(ctx, wrapped, station, stCfg)
	if err != nil {
		_ = lis.Close()
		return ScenarioResult{}, err
	}

	mkSink := func(offset int64, sensor SensorID) (*ReconnectSink, error) {
		cfg := nc.Sink
		cfg.Addr = addr
		if cfg.Seed == 0 {
			cfg.Seed = nc.Seed*2 + offset
		} else {
			cfg.Seed += offset
		}
		if cfg.TraceParent == 0 {
			cfg.TraceParent = nc.TraceParent
		}
		if nc.Auth != nil && cfg.Auth == nil {
			cfg.Auth = &AuthConfig{
				Key:    DeriveSensorKey(nc.Auth.Master, sensor),
				Sensor: sensor,
				Alg:    nc.Auth.Alg,
			}
		}
		return NewReconnectSink(cfg)
	}
	ecgSink, err := mkSink(1, SensorECG)
	if err != nil {
		_ = st.Close()
		return ScenarioResult{}, err
	}
	abpSink, err := mkSink(2, SensorABP)
	if err != nil {
		ecgSink.abort()
		_ = ecgSink.Close()
		_ = st.Close()
		return ScenarioResult{}, err
	}
	// On any failure below, abort both sinks (skipping the flush wait)
	// before tearing the station down so nothing leaks.
	fail := func(err error) (ScenarioResult, error) {
		ecgSink.abort()
		abpSink.abort()
		_ = ecgSink.Close()
		_ = abpSink.Close()
		_ = st.Close()
		return ScenarioResult{}, err
	}

	ecg, err := NewSensor(SensorECG, sc.Record, sc.ChunkSize)
	if err != nil {
		return fail(err)
	}
	abp, err := NewSensor(SensorABP, sc.Record, sc.ChunkSize)
	if err != nil {
		return fail(err)
	}

	// Interleave the two sensors frame by frame, as a BLE connection
	// schedule would. The ReconnectSinks absorb transport faults behind
	// this loop's back.
	for {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		ef, okE := ecg.Next()
		af, okA := abp.Next()
		if !okE && !okA {
			break
		}
		if okE {
			for _, d := range sc.Channel.Transmit(sc.Attack.Intercept(ef)) {
				if err := ecgSink.HandleFrame(d); err != nil {
					return fail(fmt.Errorf("wiot: ECG frame: %w", err))
				}
			}
		}
		if okA {
			for _, d := range sc.Channel.Transmit(af) {
				if err := abpSink.HandleFrame(d); err != nil {
					return fail(fmt.Errorf("wiot: ABP frame: %w", err))
				}
			}
		}
	}

	// Flush: each sink's Close blocks until the station has acknowledged
	// its whole buffer (or the close deadline passes).
	errE := ecgSink.Close()
	errA := abpSink.Close()
	errS := st.Close()
	if err := errors.Join(errE, errA, errS); err != nil {
		return ScenarioResult{}, err
	}
	return scoreScenario(sc, hasAttack, station.Stats(), sink.Alerts()), nil
}
