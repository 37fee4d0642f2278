package main

import (
	"fmt"
	"time"
)

// closedSpec is a closed-loop workload: one caller advances the lab a
// fixed step, then runs one Monitor.Sweep and waits for it, and so on.
type closedSpec struct {
	lab        labSpec
	step       time.Duration // lab time per iteration
	diagEvery  int           // iterations between history reads
	checkDiag  bool          // reads while the hog is on must infer memory bandwidth
	probeEvery int           // traced phase: iterations between agent/wire probes
	det        detection
	timing     faultTiming
}

type closedEnv struct {
	spec  closedSpec
	l     *lab
	cp    *controlPlane
	hook  *sweepHook
	spans *spanLog
}

// setupClosed builds the lab, its agents and listeners and the control
// plane, up to the first good sweep.
func setupClosed(cs closedSpec, spans *spanLog) (*closedEnv, error) {
	l, err := buildLab(cs.lab)
	if err != nil {
		return nil, err
	}
	cp := newControlPlane(cs.det)
	register := cp.registerLocal
	if cs.lab.TCP {
		register = cp.registerTCP
	}
	hook := &sweepHook{cp: cp, spans: spans}
	cp.mon.AfterSweep = hook.afterSweep
	err = register(l, spans)
	if err == nil {
		err = hook.firstGoodSweep()
	}
	if err != nil {
		cp.close()
		l.close()
		return nil, err
	}
	return &closedEnv{spec: cs, l: l, cp: cp, hook: hook, spans: spans}, nil
}

func (e *closedEnv) close() {
	e.cp.close()
	e.l.close()
}

// phase runs the loop for d. With a prober the phase is traced: every
// layer call is recorded as a span and the prober runs between sweeps.
func (e *closedEnv) phase(f *faults, g *hostGauge, d time.Duration, pr *prober) *loopStats {
	traced := pr != nil
	e.spans.on.Store(traced)
	defer e.spans.on.Store(false)
	c := e.l.c
	st := newLoopStats(c.Now(), g)
	for i := 0; time.Since(st.start) < d; i++ {
		stepStart := time.Now()
		var iter uint64
		if traced {
			iter = e.spans.step()
		}
		t := time.Now()
		st.simRun(c, e.spec.step)
		if traced {
			e.spans.add("sim.run", iter, t, time.Since(t), 1)
		}

		var sweepID uint64
		if traced {
			sweepID = e.spans.step()
		}
		t = time.Now()
		sd, err := e.hook.sweep()
		if traced {
			e.spans.addID(sweepID, "controller.sweep", iter, t, sd, e.hook.records)
		}
		st.ops++
		st.collectMS = append(st.collectMS, ms(sd))
		st.records += e.hook.records
		if err != nil {
			st.fail(fmt.Sprintf("sweep at %v: %v", c.Now(), err))
		}

		if i%e.spec.diagEvery == 0 && c.Now() > diagWindow {
			held, on := f.hogOn(c.Now())
			st.diagRead(e.cp, e.spans, iter, e.spec.checkDiag && on && held >= diagGrace)
		}
		f.step(c.Now())
		g.maybe()
		if traced && i%e.spec.probeEvery == 0 {
			if err := pr.probe(iter); err != nil {
				st.fail(err.Error())
			}
		}
		if traced {
			e.spans.addID(iter, "loop.step", 0, stepStart, time.Since(stepStart), 0)
		}
	}
	st.finish(c.Now())
	return st
}

func (e *closedEnv) labOf() *lab          { return e.l }
func (e *closedEnv) plane() *controlPlane { return e.cp }
func (e *closedEnv) quiesce()             {}
func (e *closedEnv) newFaults(seed int64) *faults {
	return newFaults(e.spec.timing, seed, e.l.c, e.l.ids, e.cp.pipe)
}

// layerRows fills the closed-loop rows: the sweep's own residue, its
// tail over both halves and its CPU from the untraced half a, and the
// attribution of the traced half b.
func (e *closedEnv) layerRows(r *report, all []span, lt layerTimes, a, b *loopStats) {
	type sweepParts struct{ sweep, maxQuery, after time.Duration }
	parts := map[uint64]*sweepParts{}
	for _, sp := range all {
		if sp.Name == "controller.sweep" {
			parts[sp.ID] = &sweepParts{sweep: time.Duration(sp.Dur)}
		}
	}
	for _, sp := range all {
		p := parts[sp.Parent]
		if p == nil {
			continue
		}
		switch sp.Name {
		case "controller.query", "controller.query_error":
			p.maxQuery = max(p.maxQuery, time.Duration(sp.Dur))
		case "anomaly.after_sweep":
			p.after += time.Duration(sp.Dur)
		}
	}
	var maxQueries time.Duration
	var others []float64
	for _, p := range parts {
		maxQueries += p.maxQuery
		others = append(others, ms(p.sweep-p.maxQuery-p.after))
	}
	r.set("controller.sweep_other_ms", median(others), len(others))
	sweeps := append(append([]float64(nil), a.collectMS...), b.collectMS...)
	r.set("controller.sweep_ms_p99", quantile(sweeps, 0.99), len(sweeps))
	if !tailResolved(len(sweeps), 0.99) {
		r.notes = append(r.notes, fmt.Sprintf("sweep p99 rests on only %d sweeps", len(sweeps)))
	}
	r.set("controller.sweep_cpu_ms", ms(a.cpu-a.simCPU)/float64(len(a.collectMS)), len(a.collectMS))

	covered := lt.sum("sim.run", "anomaly.after_sweep", "history.diagnose") + lt.sum(probeNames...) + maxQueries
	r.set("unattributed_share", 1-covered.Seconds()/b.wall.Seconds(), 0)
	r.set("trace_overhead_pct", 100*(median(b.collectMS)/median(a.collectMS)-1), len(b.collectMS))
}
