package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs/telemetry"
)

// task is one unit of station work: run cohort slot index. attempt is 0
// for the slot's original assignment and 1 once it has been requeued to
// a survivor after a station death; with FailoverOnError only attempt-0
// failures escalate to station death, so a genuinely broken slot fails
// at most two stations before its error is recorded.
type task struct {
	index   int
	attempt int
}

// station is one shard backend: a bounded task queue fed by its own
// dispatcher goroutine and drained by a pool of workers, each running
// fleet slots and flushing verdict batches to the coordinator. Its
// context is a child of the run's, so killing the station (test kill
// plan or failover) cancels exactly its own in-flight scenarios.
type station struct {
	idx     int
	id      string
	ctx     context.Context
	cancel  context.CancelFunc
	queue   chan task  // 2×workers slots: a full queue backpressures the dispatcher instead of buffering the cohort
	extras  chan []int // slot batches adopted from dead stations
	workers int

	dead atomic.Bool
	ok   atomic.Int64 // successful slots, for the kill plan's trigger
	wg   sync.WaitGroup

	metrics fleet.Metrics
	telem   *telemetry.Registry
	cfg     fleet.Config // per-station view handed to fleet.RunSlot
}

func newStation(ctx context.Context, c *coordinator, k, workers int) *station {
	sctx, cancel := context.WithCancel(ctx)
	st := &station{
		idx:     k,
		id:      fmt.Sprintf("station-%02d", k),
		ctx:     sctx,
		cancel:  cancel,
		queue:   make(chan task, 2*workers),
		extras:  make(chan []int, c.shards),
		workers: workers,
	}
	runner := c.cfg.Runner
	if c.cfg.RunnerFor != nil {
		runner = c.cfg.RunnerFor(k)
	}
	if c.cfg.Telemetry != nil {
		// Stations keep private telemetry; the coordinator folds the
		// registries into the caller's after the run so the merged
		// series are exercised the same way a real multi-process
		// deployment would produce them.
		st.telem = telemetry.NewRegistry()
	}
	st.cfg = fleet.Config{
		Scenarios: c.scenarios,
		BaseSeed:  c.cfg.BaseSeed,
		Source:    c.cfg.Source,
		Runner:    runner,
		Metrics:   &st.metrics,
		Telemetry: st.telem,
	}
	return st
}

// start launches the station's dispatcher, worker pool, and the
// supervisor that reports station drain to the coordinator. The drained
// message is the merge loop's termination signal, and it is sent only
// after every worker has flushed and exited, so no verdict can trail it.
func (st *station) start(c *coordinator) {
	st.wg.Add(st.workers)
	for w := 0; w < st.workers; w++ {
		go st.worker(c)
	}
	go st.feed(c)
	go func() {
		st.wg.Wait()
		c.msgs <- message{station: st.idx, drained: true}
	}()
}

// feed streams the station's slot assignment into the bounded queue:
// first the arithmetic stripe (slot indexes ≡ idx mod shards — never
// materialized as a list, which is what keeps the dispatcher O(1) in
// cohort size), then any batches adopted from dead stations.
func (st *station) feed(c *coordinator) {
	defer close(st.queue)
	for i := st.idx; i < c.scenarios; i += c.shards {
		select {
		case st.queue <- task{index: i}:
		case <-st.ctx.Done():
			return
		}
	}
	for {
		select {
		case batch, ok := <-st.extras:
			if !ok {
				return
			}
			for _, i := range batch {
				select {
				case st.queue <- task{index: i, attempt: 1}:
				case <-st.ctx.Done():
					return
				}
			}
		case <-st.ctx.Done():
			return
		}
	}
}

// worker drains the station queue, runs each slot, and flushes verdicts
// to the coordinator in batches. Once the station is dead every
// unflushed post-death outcome is discarded: the coordinator requeues
// anything not yet merged, and slot outcomes are pure functions of the
// slot seed, so a discarded outcome and its survivor-run replacement
// are interchangeable.
func (st *station) worker(c *coordinator) {
	defer st.wg.Done()
	var pending []fleet.SlotOutcome
	flush := func() {
		if len(pending) == 0 {
			return
		}
		c.msgs <- message{station: st.idx, verdicts: pending}
		pending = nil
	}
	defer flush()
	for {
		var t task
		var ok bool
		select {
		case t, ok = <-st.queue:
		default:
			// The queue is momentarily empty: flush the partial batch
			// before blocking. Held verdicts would otherwise stall the
			// run forever — the dispatcher only closes the queue once
			// every slot has merged, which can't happen while this
			// worker sits on unflushed outcomes.
			flush()
			t, ok = <-st.queue
		}
		if !ok {
			return
		}
		if st.ctx.Err() != nil || st.dead.Load() {
			return
		}
		if c.finished.Load() {
			// Every slot is already merged (this task is a duplicate
			// left over from a failover race); keep draining so the
			// queue empties without running scenarios.
			continue
		}
		if k := c.cfg.Kill; k != nil && k.Station == st.idx && k.AfterSlots <= 0 {
			flush()
			st.die(c)
			return
		}
		o := fleet.RunSlot(st.ctx, st.cfg, t.index, c.traceRoot)
		if st.dead.Load() {
			return
		}
		if o.Err != nil {
			if st.ctx.Err() != nil {
				// Cancellation artifact, not a verdict: the run is
				// shutting down (or the station was just killed), so
				// don't record a failure the oracle wouldn't have.
				return
			}
			if c.cfg.FailoverOnError && t.attempt == 0 {
				flush()
				st.die(c)
				return
			}
		}
		pending = append(pending, o)
		if len(pending) >= c.batch {
			flush()
		}
		if o.Err == nil {
			if k := c.cfg.Kill; k != nil && k.Station == st.idx && st.ok.Add(1) == int64(k.AfterSlots) {
				flush()
				st.die(c)
				return
			}
		}
	}
}

// die transitions the station to dead exactly once: cancel its context
// (stopping its dispatcher and in-flight scenarios) and tell the
// coordinator, which requeues whatever the station had not delivered.
func (st *station) die(c *coordinator) {
	if st.dead.CompareAndSwap(false, true) {
		st.cancel()
		c.msgs <- message{station: st.idx, death: true}
	}
}
