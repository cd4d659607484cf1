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
	if ctx == nil {
		ctx = context.Background()
	}
	return sc.run(func(station *BaseStation) error {
		return nc.serve(ctx, station, func(ecg, abp FrameSink) error { return sc.stream(ctx, ecg, abp) })
	})
}

// serve puts station behind loopback TCP: a supervised TCPStation in
// front of it, one ReconnectSink per sensor. pump streams into the two
// sinks; serve then flushes them and tears the transport down.
func (nc NetConfig) serve(ctx context.Context, station *BaseStation, pump func(ecg, abp FrameSink) error) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("wiot: listen: %w", err)
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
		return err
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
		return err
	}
	abpSink, err := mkSink(2, SensorABP)
	if err != nil {
		ecgSink.abort()
		_ = ecgSink.Close()
		_ = st.Close()
		return err
	}

	// Both sensors connect before either streams. A sink that dialed
	// late would let its partner lead by a whole sink buffer before the
	// station had a connection to hold that partner back for.
	ecgSink.awaitDial(ctx)
	abpSink.awaitDial(ctx)

	// The ReconnectSinks absorb transport faults behind the stream's
	// back. On failure, abort both sinks (skipping the flush wait) before
	// tearing the station down so nothing leaks.
	if err := pump(ecgSink, abpSink); err != nil {
		ecgSink.abort()
		abpSink.abort()
		_ = ecgSink.Close()
		_ = abpSink.Close()
		_ = st.Close()
		return err
	}

	// Flush: each sink's Close blocks until the station has acknowledged
	// its whole buffer (or the close deadline passes). The sinks flush
	// side by side, and a cancelled ctx aborts both at once: its watcher
	// has closed the station, so nothing more can be acknowledged.
	stop := context.AfterFunc(ctx, func() {
		ecgSink.abort()
		abpSink.abort()
	})
	var errE error
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		errE = ecgSink.Close()
	}()
	errA := abpSink.Close()
	<-flushed
	stop()
	err = errors.Join(errE, errA)
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w: %w", err, ctx.Err())
	}
	return errors.Join(err, st.Close())
}
