package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/machine"
)

// hogBps is the memory-bandwidth hog's streaming-copy appetite: the
// agent binary's membw fault.
const hogBps = 26e9

// wantRootCause is the verdict every injected fault must produce.
const wantRootCause = "resource:memory-bandwidth"

// faultTiming shapes a workload's fault schedule. Times are on the
// workload's clock: lab time for the closed loops, wall time for push.
type faultTiming struct {
	Warmup         time.Duration // no fault before this (history must cover a diagnosis window)
	GapMin, GapMax time.Duration // quiet time between one fault clearing and the next
	Quantum        time.Duration // gaps are whole multiples of the loop step
	Hold           time.Duration // the hog stays at least this long
	DetectTimeout  time.Duration // no incident by then fails the fault
	ClearTimeout   time.Duration // give up waiting for the incident to resolve
}

const (
	faultIdle = iota
	faultArmed
	faultOn
	faultClearing
)

// faults drives the seeded fault schedule: a memory-bandwidth hog on a
// seeded machine at a seeded time, kept until its incident opens (and
// at least Hold), then removed until the incident resolves. Each fault
// is one operation; it fails when no incident opens before the
// timeout, when the root cause is wrong, or when the incident omits the
// hogged machine.
//
// The fault's incident is the first one opened after the hog whose
// diagnosis found packet loss, so its root cause names a resource.
// Baseline detectors may page earlier, before the first packet is
// lost; those incidents carry a bare element as root cause and are not
// judged.
type faults struct {
	t    faultTiming
	rng  *rand.Rand
	c    *cluster.Cluster
	ids  []core.MachineID
	pipe *anomaly.Pipeline
	// arm, when set, holds each hog back until the chosen machine's next
	// frame has arrived, so every fault starts at the same point of the
	// machine's push cadence; it returns the predicate that turns true
	// then.
	arm   func(core.MachineID) func() bool
	ready func() bool

	state  int
	last   int // index in ids of the previous fault's machine, -1 before the first
	next   time.Duration
	at     time.Duration // clock when the current state began
	added  time.Time     // wall time the hog went on
	mid    core.MachineID
	hog    *machine.Hog
	baseID int64 // newest incident before the hog went on
	incID  int64

	attempted, failed int
	detectMS          []float64
	problems          []string
}

func newFaults(t faultTiming, seed int64, c *cluster.Cluster, ids []core.MachineID, pipe *anomaly.Pipeline) *faults {
	f := &faults{t: t, rng: rand.New(rand.NewSource(seed)), c: c, ids: ids, pipe: pipe, last: -1}
	f.next = t.Warmup + f.gap()
	return f
}

// gap draws the seeded quiet time before the next fault.
func (f *faults) gap() time.Duration {
	g := f.t.GapMin + time.Duration(f.rng.Int63n(int64(f.t.GapMax-f.t.GapMin)+1))
	if f.t.Quantum > 0 {
		g = g.Round(f.t.Quantum)
	}
	return g
}

// pick draws the next fault's machine, never the previous fault's: a
// hog put on a machine about a second after the previous hog there was
// removed only builds queues, without packet loss for as long as 8 lab
// seconds, so no diagnosed incident opens.
func (f *faults) pick() core.MachineID {
	if f.last < 0 {
		f.last = f.rng.Intn(len(f.ids))
	} else if i := f.rng.Intn(len(f.ids) - 1); i >= f.last {
		f.last = i + 1
	} else {
		f.last = i
	}
	return f.ids[f.last]
}

// hogOn reports how long the current hog has been on (false when none).
func (f *faults) hogOn(now time.Duration) (time.Duration, bool) {
	if f.state != faultOn {
		return 0, false
	}
	return now - f.at, true
}

// newestID is the ID of the newest incident (0 when none).
func (f *faults) newestID() int64 {
	if l := f.pipe.Incidents.List("", 1); len(l) > 0 {
		return l[0].ID
	}
	return 0
}

// diagnosed returns the oldest incident opened after baseID whose root
// cause names a resource.
func (f *faults) diagnosed() (anomaly.Incident, bool) {
	var found anomaly.Incident
	for _, in := range f.pipe.Incidents.List("", 0) { // newest first
		if in.ID <= f.baseID {
			break
		}
		if strings.HasPrefix(in.RootCause, "resource:") {
			found = in
		}
	}
	return found, found.ID != 0
}

// step advances the schedule to clock now. Call it once per loop step
// from the goroutine that ticks the lab.
func (f *faults) step(now time.Duration) {
	switch f.state {
	case faultIdle:
		if now < f.next || f.pipe.Incidents.OpenCount() > 0 {
			return
		}
		f.mid = f.pick()
		if f.arm == nil {
			f.start(now)
			return
		}
		f.ready, f.state = f.arm(f.mid), faultArmed
	case faultArmed:
		if f.ready() {
			f.start(now)
		}
	case faultOn:
		if f.incID == 0 {
			if in, ok := f.diagnosed(); ok {
				f.incID = in.ID
				f.detectMS = append(f.detectMS, float64(time.Since(f.added))/1e6)
				f.verdict(in)
			}
		}
		held := now - f.at
		if (f.incID != 0 && held >= f.t.Hold) || held >= f.t.DetectTimeout {
			if f.incID == 0 {
				f.fail(fmt.Sprintf("no incident within %v of the hog on %s", f.t.DetectTimeout, f.mid))
			}
			f.c.Machine(f.mid).RemoveHog(f.hog)
			f.state, f.at = faultClearing, now
		}
	case faultClearing:
		resolved := true
		if f.incID != 0 {
			in, ok := f.pipe.Incidents.Get(f.incID)
			resolved = !ok || in.State == anomaly.StateResolved
		}
		if resolved || now-f.at >= f.t.ClearTimeout {
			f.state, f.next = faultIdle, now+f.gap()
		}
	}
}

// start puts the hog on the chosen machine.
func (f *faults) start(now time.Duration) {
	f.baseID, f.incID = f.newestID(), 0
	f.hog = f.c.Machine(f.mid).AddHog(&machine.Hog{
		Name: "membw", Kind: machine.HogMem, MemDemandBps: hogBps, CyclesPerByte: 0.33,
	})
	f.state, f.at, f.added = faultOn, now, time.Now()
}

// verdict checks the incident the fault opened.
func (f *faults) verdict(in anomaly.Incident) {
	if in.RootCause != wantRootCause {
		f.fail(fmt.Sprintf("incident %d on %s: root cause %q, want %q (%s)", in.ID, f.mid, in.RootCause, wantRootCause, in.Summary))
		return
	}
	for _, e := range in.Elements {
		if e.Machine() == f.mid {
			f.attempted++
			return
		}
	}
	f.fail(fmt.Sprintf("incident %d omits the hogged machine %s", in.ID, f.mid))
}

func (f *faults) fail(msg string) {
	f.attempted++
	f.failed++
	f.problems = append(f.problems, msg)
}
