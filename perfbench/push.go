package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/ingest"
	"perfsight/internal/wire"
)

// pushSpec is the open-loop workload: agents stream on their own fixed
// cadence while the benchmark's goroutine paces the lab at one lab
// millisecond per wall millisecond.
type pushSpec struct {
	lab    labSpec
	det    detection
	timing faultTiming
}

const (
	pushDiagEvery  = 500 * time.Millisecond // wall time between history reads
	pushProbeEvery = 500 * time.Millisecond // traced phase: between agent/wire probes
)

type pushEnv struct {
	spec  pushSpec
	l     *lab
	cp    *controlPlane
	mgr   *ingest.Manager
	stop  context.CancelFunc
	done  chan error
	spans *spanLog
	t0    time.Time // fault clock origin

	mu         sync.Mutex
	frames     int
	records    int
	lagMS      []float64
	perMachine map[core.MachineID]int // frames delivered
}

// setupPush builds the lab, its agents and listeners and the ingest
// side, until every stream is up and has delivered a frame. Elements
// are discovered in-process so the run holds exactly one TCP connection
// per agent: its stream.
func setupPush(ps pushSpec, spans *spanLog) (*pushEnv, error) {
	l, err := buildLab(ps.lab)
	if err != nil {
		return nil, err
	}
	cp := newControlPlane(ps.det)
	if err := cp.registerLocal(l, spans); err != nil {
		l.close()
		return nil, err
	}
	e := &pushEnv{spec: ps, l: l, cp: cp, spans: spans, done: make(chan error, 1), perMachine: make(map[core.MachineID]int)}
	e.mgr = ingest.NewManager(ingest.Config{
		CadenceMin: ps.lab.Cadence,
		CadenceMax: ps.lab.Cadence,
		QueueSize:  64,
		Codec:      wire.CodecV2,
		Delta:      true,
		Sketch:     true,
		Spans:      true,
		Sink:       e.sink,
	})
	for _, mid := range l.ids {
		e.mgr.Add(mid, l.addrs[mid])
	}
	cp.mon.Skip = e.mgr.Streaming
	ctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	go func() { e.done <- e.mgr.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for !e.allStreaming() {
		if time.Now().After(deadline) {
			e.close()
			return nil, errors.New("streams not up within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	e.t0 = time.Now()
	return e, nil
}

func (e *pushEnv) allStreaming() bool {
	for _, h := range e.mgr.Health() {
		if h.State != ingest.StateStreaming {
			return false
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.perMachine) == len(e.l.ids)
}

// afterNextFrame returns a predicate that turns true once the machine
// has delivered another frame.
func (e *pushEnv) afterNextFrame(mid core.MachineID) func() bool {
	e.mu.Lock()
	n := e.perMachine[mid]
	e.mu.Unlock()
	return func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.perMachine[mid] > n
	}
}

// stopStreams ends the ingest manager and waits for its goroutines.
func (e *pushEnv) stopStreams() {
	if e.stop != nil {
		e.stop()
		<-e.done
		e.stop = nil
	}
}

func (e *pushEnv) close() {
	e.stopStreams()
	e.cp.close()
	e.l.close()
}

// sink is the ingest Sink the controller binary installs — Store.Append
// per record, then the pipeline's ObserveTraced — plus the arrival lag
// and, in the traced run, one span per frame with append and observe
// children. Called concurrently, one goroutine per agent stream.
func (e *pushEnv) sink(mid core.MachineID, recs []core.Record, traceID uint64) {
	arrived := time.Now()
	oldest := int64(math.MaxInt64)
	for i := range recs {
		oldest = min(oldest, recs[i].Timestamp)
	}
	for _, r := range recs {
		e.cp.store.Append(tenant, r)
	}
	appended := time.Now()
	e.cp.pipe.ObserveTraced(tenant, recs, traceID)
	if e.spans.enabled() {
		end := time.Now()
		frame := e.spans.newID()
		e.spans.add("history.append", frame, arrived, appended.Sub(arrived), len(recs))
		e.spans.add("anomaly.observe", frame, appended, end.Sub(appended), len(recs))
		e.spans.addID(frame, "ingest.sink", 0, arrived, end.Sub(arrived), len(recs))
	}
	e.mu.Lock()
	e.frames++
	e.records += len(recs)
	if len(recs) > 0 {
		e.lagMS = append(e.lagMS, ms(time.Duration(arrived.UnixNano()-oldest)))
	}
	e.perMachine[mid]++
	e.mu.Unlock()
}

// health sums the streams' dropped batches, sequence gaps and queued
// batches.
func (e *pushEnv) health() (dropped, gaps uint64, depth int) {
	for _, h := range e.mgr.Health() {
		dropped += h.Dropped
		gaps += h.Gaps
		depth += h.QueueLen
	}
	return dropped, gaps, depth
}

// phase paces the lab for d. With a prober the phase is traced.
func (e *pushEnv) phase(f *faults, g *hostGauge, d time.Duration, pr *prober) *loopStats {
	traced := pr != nil
	e.spans.on.Store(traced)
	defer e.spans.on.Store(false)
	c := e.l.c
	e.mu.Lock()
	frames0, records0, lag0 := e.frames, e.records, len(e.lagMS)
	e.mu.Unlock()
	dropped0, gaps0, _ := e.health()
	ps := newLoopStats(c.Now(), g)
	var nextDiag, nextProbe, nextHealth time.Duration
	for {
		el := time.Since(ps.start)
		if el >= d {
			break
		}
		if behind := ps.labStart + el.Truncate(time.Millisecond) - c.Now(); behind > 0 {
			t := time.Now()
			ps.simRun(c, behind)
			if traced {
				e.spans.add("sim.run", 0, t, time.Since(t), int(behind/time.Millisecond))
			}
		}
		f.step(time.Since(e.t0))
		g.maybe()
		// History reads start once the streams have filled a whole window.
		if el >= nextDiag && time.Since(e.t0) > diagWindow+pushDiagEvery {
			ps.diagRead(e.cp, e.spans, 0, false)
			nextDiag = el + pushDiagEvery
		}
		if el >= nextHealth {
			_, _, depth := e.health()
			ps.queueMax = max(ps.queueMax, depth)
			nextHealth = el + 10*time.Millisecond
		}
		if traced && el >= nextProbe {
			if err := pr.probe(0); err != nil {
				ps.fail(err.Error())
			}
			nextProbe = el + pushProbeEvery
		}
		time.Sleep(time.Millisecond)
	}
	ps.finish(c.Now())
	dropped1, gaps1, _ := e.health()
	e.mu.Lock()
	ps.frames = e.frames - frames0
	ps.records = e.records - records0
	ps.collectMS = append([]float64(nil), e.lagMS[lag0:]...)
	e.mu.Unlock()
	ps.dropped = int(dropped1 - dropped0)
	ps.gaps = int(gaps1 - gaps0)
	ps.due = ps.wall.Seconds() / e.spec.lab.Cadence.Seconds() * float64(len(e.l.ids))
	ps.ops += ps.frames + ps.dropped + ps.gaps
	if lost := ps.dropped + ps.gaps; lost > 0 {
		ps.fail(fmt.Sprintf("push: %d dropped batches, %d sequence gaps", ps.dropped, ps.gaps))
		ps.failed += lost - 1
	}
	return ps
}

func (e *pushEnv) labOf() *lab          { return e.l }
func (e *pushEnv) plane() *controlPlane { return e.cp }

// quiesce stops the streams, so the allocation probe runs alone.
func (e *pushEnv) quiesce() { e.stopStreams() }

// newFaults arms every hog on the next frame from its machine.
func (e *pushEnv) newFaults(seed int64) *faults {
	f := newFaults(e.spec.timing, seed, e.l.c, e.l.ids, e.cp.pipe)
	f.arm = e.afterNextFrame
	return f
}

// layerRows fills the push rows. The loop idles between frames, so
// attribution is against the traced half's process CPU time.
func (e *pushEnv) layerRows(r *report, _ []span, lt layerTimes, a, b *loopStats) {
	r.set("ingest.frames", float64(b.frames), 0)
	r.set("ingest.frames_due_ratio", float64(b.frames)/b.due, 0)
	r.set("ingest.dropped_batches", float64(a.dropped+b.dropped), 0)
	r.set("ingest.seq_gaps", float64(a.gaps+b.gaps), 0)
	r.set("ingest.queue_depth_max", float64(max(a.queueMax, b.queueMax)), 0)
	lags := append(append([]float64(nil), a.collectMS...), b.collectMS...)
	r.set("ingest.lag_ms_p99", quantile(lags, 0.99), len(lags))
	if !tailResolved(len(lags), 0.99) {
		r.notes = append(r.notes, fmt.Sprintf("push lag p99 rests on only %d frames", len(lags)))
	}
	app, obs := lt.get("history.append"), lt.get("anomaly.observe")
	if app.items > 0 {
		r.set("history.append_ns", float64(app.total)/float64(app.items), app.items)
	}
	r.set("anomaly.observe_us", obs.medianMS()*1e3, obs.count)

	covered := lt.sum("sim.run", "ingest.sink", "history.diagnose") + lt.sum(probeNames...)
	r.set("unattributed_share", 1-covered.Seconds()/b.cpu.Seconds(), 0)
	r.set("trace_overhead_pct", 100*(median(b.collectMS)/median(a.collectMS)-1), len(b.collectMS))
}
