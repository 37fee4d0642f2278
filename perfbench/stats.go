package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"perfsight/internal/diagnosis"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailResolved reports whether the q-quantile of n samples has at least
// ten samples beyond it.
func tailResolved(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// threadCPU is the CPU time of the calling OS thread; differences are
// meaningful only while the goroutine is locked to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// heapLiveMB is the heap in use after a forced GC, in MB.
func heapLiveMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// loopStats is one measured phase of a workload. collectMS holds the
// collection latencies: sweep wall times, or push arrival lags.
// diagCPUMS holds the CPU time of each history read.
type loopStats struct {
	start             time.Time
	labStart          time.Duration
	cpuStart          time.Duration
	gauge             *hostGauge
	gaugeStart        time.Duration
	gcStart           uint32
	pauseStart        uint64
	wall              time.Duration
	simCPU, cpu       time.Duration
	lab, gcPause      time.Duration
	gcCycles          uint32
	collectMS, diagMS []float64
	diagCPUMS         []float64
	records           int
	ops, failed       int
	problems          []string

	// Push streams only.
	frames, dropped, gaps int
	queueMax              int
	due                   float64 // frames the cadence called for
}

// simRun advances the lab by d, accounting its CPU time. The
// serial engine ticks on the calling goroutine, so pinning it to its
// thread makes the thread's CPU time the simulation's.
func (st *loopStats) simRun(c interface{ Run(time.Duration) }, d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu := threadCPU()
	c.Run(d)
	st.simCPU += threadCPU() - cpu
}

// merge folds another phase of the same kind into st.
func (st *loopStats) merge(o *loopStats) {
	st.wall += o.wall
	st.simCPU += o.simCPU
	st.cpu += o.cpu
	st.lab += o.lab
	st.gcPause += o.gcPause
	st.gcCycles += o.gcCycles
	st.collectMS = append(st.collectMS, o.collectMS...)
	st.diagMS = append(st.diagMS, o.diagMS...)
	st.diagCPUMS = append(st.diagCPUMS, o.diagCPUMS...)
	st.records += o.records
	st.ops += o.ops
	st.failed += o.failed
	st.problems = append(st.problems, o.problems...)
	st.frames += o.frames
	st.dropped += o.dropped
	st.gaps += o.gaps
	st.queueMax = max(st.queueMax, o.queueMax)
	st.due += o.due
}

// recordsPerCPUSecond is records stored per process CPU-second, with
// the simulation's own CPU time taken out.
func (st *loopStats) recordsPerCPUSecond() float64 {
	return float64(st.records) / (st.cpu - st.simCPU).Seconds()
}

// newLoopStats starts a phase whose loop samples the host gauge g; the
// samples' CPU time is left out of the phase's.
func newLoopStats(labNow time.Duration, g *hostGauge) *loopStats {
	m := memStats()
	return &loopStats{
		start: time.Now(), labStart: labNow, cpuStart: cpuTime(),
		gauge: g, gaugeStart: g.cpu,
		gcStart: m.NumGC, pauseStart: m.PauseTotalNs,
	}
}

func (st *loopStats) finish(labNow time.Duration) {
	st.wall = time.Since(st.start)
	st.cpu = cpuTime() - st.cpuStart - (st.gauge.cpu - st.gaugeStart)
	st.lab = labNow - st.labStart
	m := memStats()
	st.gcCycles = m.NumGC - st.gcStart
	st.gcPause = time.Duration(m.PauseTotalNs - st.pauseStart)
}

func (st *loopStats) fail(msg string) {
	st.failed++
	if len(st.problems) < 20 {
		st.problems = append(st.problems, msg)
	}
}

// diagRead is one operator history read: Algorithm 1 from stored history
// over the newest diagnosis window. With mustInfer the verdict has to
// name memory bandwidth. The read runs on the calling goroutine, so
// pinning it to its thread makes the thread's CPU time the read's.
func (st *loopStats) diagRead(cp *controlPlane, spans *spanLog, parent uint64, mustInfer bool) {
	runtime.LockOSThread()
	t, cpu := time.Now(), threadCPU()
	rep, err := cp.store.DiagnoseStack(tenant, diagWindow, 0)
	d, dcpu := time.Since(t), threadCPU()-cpu
	runtime.UnlockOSThread()
	st.diagCPUMS = append(st.diagCPUMS, ms(dcpu))
	if spans.enabled() {
		spans.add("history.diagnose", parent, t, d, 0)
	}
	st.ops++
	st.diagMS = append(st.diagMS, ms(d))
	switch {
	case err != nil:
		st.fail(fmt.Sprintf("diagnose: %v", err))
	case mustInfer && rep.Inferred != diagnosis.ResourceMemoryBandwidth:
		st.fail(fmt.Sprintf("diagnose with the hog on inferred %v", rep.Inferred))
	}
}
